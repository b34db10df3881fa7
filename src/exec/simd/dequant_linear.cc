#include "exec/simd/dequant_linear.h"

namespace bitdec::exec::simd {

LinearDequantPlan
buildLinearDequantPlan(const layout::InducedLayout& lay,
                       const std::function<std::uint32_t(int, int)>& param_of)
{
    const int bits = lay.bits();
    const std::size_t n = static_cast<std::size_t>(lay.kRows()) *
                          static_cast<std::size_t>(lay.nCols());
    LinearDequantPlan plan;
    plan.bits = bits;
    plan.unit.resize(n);
    plan.shift.resize(n);
    plan.param.resize(n);
    std::size_t i = 0;
    for (int row = 0; row < lay.kRows(); row++) {
        for (int col = 0; col < lay.nCols(); col++, i++) {
            layout::UnitId id{};
            int code = 0;
            lay.locate(row, col, id, code);
            plan.unit[i] = static_cast<std::uint32_t>(lay.unitSlot(id));
            // Pair j of a packed word holds logical codes 2j (low 16-bit
            // lane) and 2j+1 (high lane) — the lop3 pair walk.
            plan.shift[i] = static_cast<std::uint32_t>(bits * (code / 2) +
                                                       (code % 2) * 16);
            plan.param[i] = param_of(row, col)
                            << static_cast<std::uint32_t>(bits);
        }
    }
    for (std::size_t run = 16; run > 1; run /= 2) {
        bool shared = n % run == 0;
        for (std::size_t j = 0; shared && j < n; j++)
            shared = plan.param[j] == plan.param[j - j % run];
        if (shared) {
            plan.group_run = static_cast<int>(run);
            break;
        }
    }
    return plan;
}

} // namespace bitdec::exec::simd
