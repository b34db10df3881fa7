/**
 * @file
 * Destination-ordered ("linear") dequantization plans for the SIMD hot
 * path.
 *
 * The scalar fused path walks a packed block in unit-slot order and
 * scatters codes to their scratch destinations through a CodeRoute table
 * (exec/dequant_plan.h). That order is scatter-shaped: consecutive codes
 * land at unrelated scratch offsets, which defeats vector stores. A
 * LinearDequantPlan is the same routing inverted: for every scratch
 * destination, in destination order, it records which packed word the
 * code lives in, the in-word bit shift that extracts it, and its
 * (pre-shifted) parameter-group row in the block's group values. The
 * SIMD kernels then walk the scratch contiguously — gather the words,
 * variable-shift/mask the codes, look the values up in the group's row,
 * store a full vector — and produce bit-identical bytes to dequantBlock,
 * since code extraction and lookup are integer-exact under any order.
 *
 * In the default layouts every group is a contiguous destination run
 * (channel-wise keys run along tokens in the channel-major K tile;
 * values run along channels), so a whole vector shares one group and its
 * lookup is one register permute instead of a gather; group_run records
 * how long those aligned runs are.
 *
 * A destination remap hook lets the key plan target a channel-major
 * [d x Nr] scratch (what the vectorized QK loop wants) while reusing the
 * token-major routes the cache already builds; the remap is pure index
 * arithmetic, so K needs no separate route table.
 */
#ifndef BITDEC_EXEC_SIMD_DEQUANT_LINEAR_H
#define BITDEC_EXEC_SIMD_DEQUANT_LINEAR_H

#include <cstdint>
#include <functional>
#include <vector>

#include "exec/dequant_plan.h"

namespace bitdec::exec::simd {

/**
 * SoA routing of one packed block, ordered by scratch destination:
 * element i of the dequantized tile is code
 * `(units[unit[i]] >> shift[i]) & ((1 << bits) - 1)` of its block, and
 * dequantizes to `values[param[i] | code]` (param is stored pre-shifted
 * by bits). Shared by every block of a cache, like the CodeRoute table it
 * is derived from.
 */
struct LinearDequantPlan
{
    int bits = 0;                      //!< code width (2 or 4)
    std::vector<std::uint32_t> unit;   //!< packed word per destination
    std::vector<std::uint32_t> shift;  //!< in-word code shift
    std::vector<std::uint32_t> param;  //!< param-group row base (<< bits)
    //! Largest power of two <= 16 such that every aligned run of that
    //! many destinations shares one parameter group (1: groups interleave).
    int group_run = 1;

    std::size_t size() const { return unit.size(); }
};

/**
 * Inverts a unit-slot-ordered CodeRoute table into a destination-ordered
 * plan. Every destination in [0, n_elems) must be routed exactly once
 * (fatal otherwise — a hole would read uninitialized scratch).
 *
 * @param routes     table from buildDequantRoutes (slot-major)
 * @param bits       code width; pair j of a word holds logical codes 2j
 *                   (shift bits*j) and 2j+1 (shift bits*j + 16)
 * @param n_elems    scratch tile element count
 * @param remap_dest optional destination remap (e.g. token-major ->
 *                   channel-major); identity when null
 */
LinearDequantPlan buildLinearDequantPlan(
    const std::vector<CodeRoute>& routes, int bits, std::size_t n_elems,
    const std::function<std::uint32_t(std::uint32_t)>& remap_dest = nullptr);

} // namespace bitdec::exec::simd

#endif // BITDEC_EXEC_SIMD_DEQUANT_LINEAR_H
