/**
 * @file
 * Destination-ordered ("linear") dequantization plans for the fused
 * packed path.
 *
 * The induced layout scatters a block's codes across 32-bit units by
 * (k-tile, n-group, lane, register-pair). A LinearDequantPlan records,
 * for every destination of the dequantized tile in order, which packed
 * word its code lives in, the in-word bit shift that extracts it, and its
 * (pre-shifted) parameter-group row in the block's group values. Every
 * block of a cache shares one layout, so the plan is built once per cache
 * from the layout itself (InducedLayout::locate) and reused for every
 * block on every decode step. Each level's kernel table then walks the
 * tile contiguously — gather the words, shift/mask the codes, look the
 * values up in the group's row, store — and every level produces the
 * same bytes, since code extraction and lookup are integer-exact.
 *
 * Destinations are the layout's operand in row-major order, which is the
 * layout the fold reads: packed keys ([d x Nr], transposed) dequantize
 * channel-major with no transpose pass, values ([Nr x d]) token-major.
 *
 * In the default layouts every group is a contiguous destination run
 * (channel-wise keys run along tokens in the channel-major K tile;
 * values run along channels), so a whole vector shares one group and its
 * lookup is one register permute instead of a gather; group_run records
 * how long those aligned runs are.
 */
#ifndef BITDEC_EXEC_SIMD_DEQUANT_LINEAR_H
#define BITDEC_EXEC_SIMD_DEQUANT_LINEAR_H

#include <cstdint>
#include <functional>

#include "common/aligned_vector.h"
#include "layout/induced_layout.h"

namespace bitdec::exec::simd {

/**
 * SoA routing of one packed block, ordered by destination: element i of
 * the dequantized tile is code
 * `(units[unit[i]] >> shift[i]) & ((1 << bits) - 1)` of its block, and
 * dequantizes to `values[param[i] | code]` (param is stored pre-shifted
 * by bits). Shared by every block of a cache.
 */
struct LinearDequantPlan
{
    int bits = 0;                        //!< code width (2 or 4)
    AlignedVector<std::uint32_t> unit;   //!< packed word per destination
    AlignedVector<std::uint32_t> shift;  //!< in-word code shift
    AlignedVector<std::uint32_t> param;  //!< param-group row base (<< bits)
    //! Largest power of two <= 16 such that every aligned run of that
    //! many destinations shares one parameter group (1: groups interleave).
    int group_run = 1;

    std::size_t size() const { return unit.size(); }
};

/**
 * Builds the plan of one induced layout: destination
 * row * lay.nCols() + col holds the code at operand coordinate
 * (row, col).
 *
 * @param lay      the block's induced layout
 * @param param_of (row, col) -> flat index of the code's parameter group
 *                 in the block's params
 */
LinearDequantPlan buildLinearDequantPlan(
    const layout::InducedLayout& lay,
    const std::function<std::uint32_t(int, int)>& param_of);

} // namespace bitdec::exec::simd

#endif // BITDEC_EXEC_SIMD_DEQUANT_LINEAR_H
