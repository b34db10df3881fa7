#include "exec/simd/dequant_linear.h"

#include <limits>

#include "common/logging.h"

namespace bitdec::exec::simd {

LinearDequantPlan
buildLinearDequantPlan(
    const std::vector<CodeRoute>& routes, int bits, std::size_t n_elems,
    const std::function<std::uint32_t(std::uint32_t)>& remap_dest)
{
    BITDEC_ASSERT(bits == 2 || bits == 4, "unsupported code width");
    const int cpu = 32 / bits;
    BITDEC_ASSERT(routes.size() == n_elems,
                  "route table does not cover the scratch tile");

    constexpr std::uint32_t kUnrouted =
        std::numeric_limits<std::uint32_t>::max();
    LinearDequantPlan plan;
    plan.bits = bits;
    plan.unit.assign(n_elems, kUnrouted);
    plan.shift.resize(n_elems);
    plan.param.resize(n_elems);

    for (std::size_t idx = 0; idx < routes.size(); idx++) {
        const std::uint32_t slot = static_cast<std::uint32_t>(idx) /
                                   static_cast<std::uint32_t>(cpu);
        const int i = static_cast<int>(idx % static_cast<std::size_t>(cpu));
        std::uint32_t dest = routes[idx].dest;
        if (remap_dest)
            dest = remap_dest(dest);
        BITDEC_ASSERT(dest < n_elems, "route destination out of range");
        BITDEC_ASSERT(plan.unit[dest] == kUnrouted,
                      "two codes route to one scratch destination");
        plan.unit[dest] = slot;
        // Pair j of a packed word holds logical codes 2j (low 16-bit
        // lane) and 2j+1 (high lane) — the lop3 pair walk of
        // dequantBlock.
        plan.shift[dest] = static_cast<std::uint32_t>(bits * (i / 2) +
                                                      (i % 2) * 16);
        plan.param[dest] = routes[idx].param
                           << static_cast<std::uint32_t>(bits);
    }
    for (std::size_t i = 0; i < n_elems; i++)
        BITDEC_ASSERT(plan.unit[i] != kUnrouted,
                      "scratch destination never routed");
    for (std::size_t run = 16; run > 1; run /= 2) {
        bool shared = n_elems % run == 0;
        for (std::size_t i = 0; shared && i < n_elems; i++)
            shared = plan.param[i] == plan.param[i - i % run];
        if (shared) {
            plan.group_run = static_cast<int>(run);
            break;
        }
    }
    return plan;
}

} // namespace bitdec::exec::simd
