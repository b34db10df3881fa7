/**
 * @file
 * Per-ISA kernel tables of the SIMD hot path.
 *
 * Each ISA translation unit (kernels_avx2.cc, kernels_avx512.cc) is
 * compiled with its own -m flags and exports one KernelTable of plain
 * function pointers; dispatch.cc maps a runtime-detected Level to a
 * table. The table is deliberately POD-only — raw pointers and sizes, no
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
 * exp. The scalar level emulates the 16 lanes with arrays, AVX2 runs them
 * as two registers and AVX-512 as one; the whole library compiles with
 * -ffp-contract=off so no level fuses a mul/add pair. Conversion is
 * exact, group values round through binary16 exactly as the scalar
 * arithmetic does, and the per-code dequant is an integer-exact lookup.
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
 * One K/V tile folded into a split-softmax partial state (the arrays of
 * exec::SoftmaxPartial) with the 16-lane arithmetic. K is channel-major
 * (element (t, c) at kT[c * k_stride + t]), V token-major [tokens x d].
 * @p scratch holds exec::foldScratchFloats(gq, tokens) floats.
 * exec::foldTile is the scalar level of the same signature.
 */
using FoldTileFn = void (*)(const float* qf, int gq, int d, const float* kT,
                            int k_stride, const float* vf, int tokens,
                            float scale, float* m, float* l, float* acc,
                            float* scratch, bool round_p);

/** The hot loops + the Half->float conversions they feed on. */
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

    /** The 16-lane fold at this level; bit-identical to exec::foldTile. */
    FoldTileFn fold_tile;

    /** The fold's exp over @p n floats; bit-identical to exec::foldExp. */
    void (*exp_rows)(const float* x, std::size_t n, float* out);

    /**
     * Derives one block's dequantized values from its parameters:
     * values[g << bits | q] = quant::dequantMagicValue(q, params[g]) for
     * every group g < n_groups and code q < 2^bits. Same mul, add and
     * binary16 roundings as the scalar arithmetic (F16C round trips), so
     * bit-identical to it. @p values holds (n_groups << bits) +
     * kGroupValuesPad floats: a lookup reads a whole 16-entry row.
     */
    void (*group_values)(const Half2* params, std::size_t n_groups,
                         int bits, float* values);

    /**
     * Dequantizes one packed block through a LinearDequantPlan's SoA
     * arrays (unit/shift/param, n elements) and the block's group values.
     * When the plan's aligned runs of @p group_run destinations share one
     * group and a run spans a whole vector, the vector's values come from
     * one in-register permute of its group's row; otherwise they are
     * gathered. Bit-identical to exec::dequantBlock over the same routing.
     */
    void (*dequant_linear)(const std::uint32_t* units,
                           const std::uint32_t* unit_of,
                           const std::uint32_t* shift_of,
                           const std::uint32_t* param_of, std::size_t n,
                           int bits, int group_run, const float* values,
                           float* out);
};

/** The AVX2 (+F16C) table; null when not compiled for this target. */
const KernelTable* avx2Kernels();

/** The AVX-512 (F/BW/DQ/VL) table; null when not compiled in. */
const KernelTable* avx512Kernels();

} // namespace bitdec::exec::simd

#endif // BITDEC_EXEC_SIMD_KERNEL_TABLE_H
