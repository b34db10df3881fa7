/**
 * @file
 * Per-level kernel tables of the fused hot path and the packed block
 * seal.
 *
 * Every level exports one KernelTable of plain function pointers:
 * kernels_scalar.cc with the library's baseline flags, and one
 * translation unit per ISA (kernels_avx2.cc, kernels_avx512.cc) compiled
 * with its own -m flags. dispatch.cc maps a runtime-detected Level to its
 * table, so every fused backend calls the same entries at every level.
 * The table is deliberately POD-only — raw pointers and sizes, no
 * std containers — so the ISA TUs never instantiate common template code
 * that the linker could fold across differently-flagged TUs (the classic
 * way an AVX-512-encoded std::vector helper ends up running on an AVX2
 * machine).
 *
 * Determinism contract (what makes every level digest-identical): the
 * fold and its exp follow one arithmetic at a fixed virtual width of 16
 * lanes (fold16.h), in which every reduction order depends on (gq,
 * head_dim) alone — QK in per-token channel order, the exp-sum striding
 * by token mod 16, PV one lane per (row, channel) or, when gq * d < 16,
 * spare lanes given to tokens, one fixed combine tree, and a mul/add-only
 * exp. The scalar table emulates the 16 lanes with arrays, AVX2 runs them
 * as two registers and AVX-512 as one; the whole library compiles with
 * -ffp-contract=off so no level fuses a mul/add pair. Conversion is
 * exact, group values round through binary16 exactly as the scalar
 * arithmetic does, the per-code dequant is an integer-exact lookup, and
 * the block seal replays quant::quantizeMatrix's arithmetic per element.
 * See docs/BACKENDS.md.
 */
#ifndef BITDEC_EXEC_SIMD_KERNEL_TABLE_H
#define BITDEC_EXEC_SIMD_KERNEL_TABLE_H

#include <cstddef>
#include <cstdint>

#include "common/half.h"

namespace bitdec::exec::simd {

/** Floats past a group-values table that a row lookup may read. */
constexpr std::size_t kGroupValuesPad = 16;

/**
 * One K or V operand of a full residual block, to be quantized and packed
 * in one pass. Its destinations are the induced layout's operand in
 * row-major order: channel-major [d x tokens] for keys (the K^T operand),
 * token-major [tokens x d] for values; @p unit_of, @p shift_of,
 * @p param_of and @p group_run are the cache's LinearDequantPlan over
 * them (every code's word, in-word shift and parameter group). Both
 * extents are multiples of 32, as every pair of induced layouts a packed
 * cache holds makes them, so they tile by every level's vector width.
 */
struct SealOperand
{
    const Half* src;   //!< token-major [tokens x d] FP16 rows
    int tokens;        //!< Nr
    int d;             //!< head dim
    int bits;          //!< code width
    int group_size;    //!< elements per parameter group
    bool keys;         //!< destinations channel-major (the K^T operand)
    bool channel_wise; //!< groups run along tokens, not along channels
    const std::uint32_t* unit_of;  //!< packed word per destination
    const std::uint32_t* shift_of; //!< in-word shift per destination
    const std::uint32_t* param_of; //!< param group per destination, << bits
    int group_run;        //!< the plan's shared-group run length
    std::uint32_t* units; //!< the block's words, zero on entry
    Half2* params;        //!< quant::quantizeMatrix's params, flat
    float* scratch;       //!< tokens * d floats
};

/** The hot loops, the Half->float conversions they feed on and the
 *  block seal. */
struct KernelTable
{
    /** Bulk Half->float, bit-identical to toFloat()'s LUT widening. */
    void (*convert_rows)(const Half* src, std::size_t n, float* dst);

    /**
     * Half->float conversion of a token-major [tokens x d] tile into a
     * channel-major float scratch: kT[c * t_stride + t]. Feeds the
     * vectorized QK loop with contiguous per-channel token runs.
     */
    void (*convert_transpose)(const Half* src, int tokens, int d, float* kT,
                              int t_stride);

    /**
     * One K/V tile folded into a split-softmax partial state (the arrays
     * of exec::SoftmaxPartial) with the 16-lane arithmetic. K is
     * channel-major (element (t, c) at kT[c * k_stride + t]), V
     * token-major [tokens x d]. @p scratch holds
     * exec::foldScratchFloats(gq, tokens) floats; @p round_p rounds P
     * through half precision (the packed kernel's sAcc round trip).
     */
    void (*fold_tile)(const float* qf, int gq, int d, const float* kT,
                      int k_stride, const float* vf, int tokens, float scale,
                      float* m, float* l, float* acc, float* scratch,
                      bool round_p);

    /** The fold's exp over @p n floats; bit-identical to exec::foldExp. */
    void (*exp_rows)(const float* x, std::size_t n, float* out);

    /**
     * Derives one block's dequantized values from its parameters:
     * values[g << bits | q] = quant::dequantMagicValue(q, params[g]) for
     * every group g < n_groups and code q < 2^bits. The SIMD levels do
     * the same mul, add and binary16 roundings with F16C round trips, so
     * they are bit-identical to the scalar arithmetic. @p values holds
     * (n_groups << bits) + kGroupValuesPad floats: a lookup reads a whole
     * 16-entry row.
     */
    void (*group_values)(const Half2* params, std::size_t n_groups,
                         int bits, float* values);

    /**
     * Dequantizes one packed block through a LinearDequantPlan's SoA
     * arrays (unit/shift/param, n elements) and the block's group values:
     * out[i] = values[param_of[i] | code], the code at @p shift_of[i] of
     * word units[unit_of[i]]. At the SIMD levels, when the plan's aligned
     * runs of @p group_run destinations share one group and a run spans a
     * whole vector, the vector's values come from one in-register permute
     * of its group's row; otherwise they are gathered. The lookup is
     * integer-exact, so every level gives the same bytes.
     */
    void (*dequant_linear)(const std::uint32_t* units,
                           const std::uint32_t* unit_of,
                           const std::uint32_t* shift_of,
                           const std::uint32_t* param_of, std::size_t n,
                           int bits, int group_run, const float* values,
                           float* out);

    /**
     * Seals one operand: each group's min/max, quant::computeParams'
     * half-rounded scale and zero, quant::quantizeValue's code for every
     * element, each code ORed into its word. The bytes equal
     * quant::quantizeMatrix + layout::packInduced (kv::packBlock) at
     * every level. The SIMD levels find the parameters with one lane per
     * group, so every min/max chain runs in the reference's element
     * order (std::min / std::max, NaN and signed zeros included), then
     * walk the destinations in plan order for the codes. They divide
     * exactly, rebuild std::round's half-away rounding from truncation
     * and round parameters through binary16 with F16C.
     */
    void (*seal_operand)(const SealOperand& op);
};

/** The scalar table; always compiled in. */
const KernelTable* scalarKernels();

/** The AVX2 (+F16C) table; null when not compiled for this target. */
const KernelTable* avx2Kernels();

/** The AVX-512 (F/BW/DQ/VL) table; null when not compiled in. */
const KernelTable* avx512Kernels();

} // namespace bitdec::exec::simd

#endif // BITDEC_EXEC_SIMD_KERNEL_TABLE_H
