#include "exec/dequant_plan.h"

#include "common/logging.h"
#include "gpusim/fragment.h"
#include "quant/fast_dequant.h"

namespace bitdec::exec {

std::vector<CodeRoute>
buildDequantRoutes(const layout::InducedLayout& lay,
                   const std::function<std::uint32_t(int, int)>& dest_of,
                   const std::function<std::uint32_t(int, int)>& param_of)
{
    const int cpu = lay.codesPerUnit();
    std::vector<CodeRoute> routes(lay.numUnits() *
                                  static_cast<std::size_t>(cpu));
    for (int kt = 0; kt < lay.numKTiles(); kt++) {
        for (int ng = 0; ng < lay.numNGroups(); ng++) {
            for (int lane = 0; lane < sim::kWarpSize; lane++) {
                for (int pr = 0; pr < lay.pairsPerLane(); pr++) {
                    const layout::UnitId id{kt, ng, lane, pr};
                    const std::size_t base =
                        lay.unitSlot(id) * static_cast<std::size_t>(cpu);
                    for (int i = 0; i < cpu; i++) {
                        const layout::CodeCoord c = lay.codeCoord(id, i);
                        routes[base + static_cast<std::size_t>(i)] = {
                            dest_of(c.row, c.col), param_of(c.row, c.col)};
                    }
                }
            }
        }
    }
    return routes;
}

void
dequantBlock(const std::vector<std::uint32_t>& units,
             const std::vector<CodeRoute>& routes,
             const Tensor<Half2>& params, int bits, float* out)
{
    const int cpu = 32 / bits;
    const std::uint32_t mask = (1u << bits) - 1u;
    BITDEC_ASSERT(routes.size() ==
                      units.size() * static_cast<std::size_t>(cpu),
                  "routing table does not match the unit buffer");
    // The block's group values, [group << bits | code]; thread-local and
    // grow-only, so steady-state decode allocates nothing.
    thread_local std::vector<float> values;
    const std::size_t levels = std::size_t{1} << bits;
    if (values.size() < params.numel() * levels)
        values.resize(params.numel() * levels);
    for (std::size_t g = 0; g < params.numel(); g++)
        quant::dequantMagicGroup(quant::QuantParams::fromHalf2(params[g]),
                                 bits, values.data() + g * levels);
    const CodeRoute* r = routes.data();
    for (std::size_t u = 0; u < units.size(); u++, r += cpu) {
        const std::uint32_t w = units[u];
        for (int j = 0; j < cpu / 2; j++) {
            const std::uint32_t lo = (w >> (bits * j)) & mask;
            const std::uint32_t hi = (w >> (bits * j + 16)) & mask;
            const CodeRoute& rl = r[2 * j];
            const CodeRoute& rh = r[2 * j + 1];
            out[rl.dest] = values[(rl.param << bits) | lo];
            out[rh.dest] = values[(rh.param << bits) | hi];
        }
    }
}

} // namespace bitdec::exec
