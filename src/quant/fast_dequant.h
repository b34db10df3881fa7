/**
 * @file
 * Fast low-bit -> FP16 dequantization using the lop3 magic-number trick.
 *
 * Naively converting INT4/INT2 codes with static_cast (cvt instructions)
 * is slow; the trick (Kim et al., adopted by Marlin/Ladder and BitDecoding)
 * masks each code into the mantissa of the FP16 constant 1024.0 so that the
 * bit pattern 0x6400 | code *is* the half value (1024 + code). One lop3
 * per pair replaces the convert, and scale/zero fold into a single FMA:
 *
 *     y = (1024 + q) * s - (1024 + z) * s  =  s * (q - z)
 *
 * This only works when packing is interleaved (quant::PackOrder::Interleaved)
 * so that each shift+lop3 extracts a half2 of consecutive logical values —
 * which is exactly why BitDecoding's induced layout stores codes in the
 * 75316420 pattern.
 */
#ifndef BITDEC_QUANT_FAST_DEQUANT_H
#define BITDEC_QUANT_FAST_DEQUANT_H

#include <cstdint>

#include "common/half.h"
#include "quant/packing.h"
#include "quant/quant_params.h"

namespace bitdec::quant {

/** FP16 magic constant 1024.0 replicated in both half2 lanes. */
constexpr std::uint32_t kMagic1024x2 = 0x64006400u;

/**
 * Extracts pair @p j of an interleaved word as magic-biased halves.
 *
 * Emulates exactly: lop3(word >> (bits*j), pair_mask, 0x64006400, (a&b)|c).
 * The result's low half lane is (1024 + code_{2j}), the high lane
 * (1024 + code_{2j+1}).
 *
 * @param word interleaved packed register
 * @param j    pair index in [0, codesPerWord(bits)/2)
 * @param bits code width (2 or 4)
 */
std::uint32_t extractMagicPair(std::uint32_t word, int j, int bits);

/**
 * Dequantizes a full interleaved word into logical order via the lop3 path.
 *
 * @param word packed register (PackOrder::Interleaved)
 * @param bits code width (2 or 4)
 * @param p    group quantization parameters
 * @param out  receives codesPerWord(bits) half values
 */
void fastDequantWord(std::uint32_t word, int bits, const QuantParams& p,
                     Half* out);

/**
 * Dequantizes one code with the magic-folded arithmetic the fast path
 * uses: (1024 + q) * s + (-(1024 + z) * s). Differs from the plain
 * s * (q - z) by at most one rounding of the folded bias — exactly the
 * arithmetic deployed kernels produce.
 */
float dequantMagicValue(std::uint8_t code, const QuantParams& p);

/**
 * The 2^bits values one parameter group dequantizes to:
 * out[q] = dequantMagicValue(q, p) for every code q, the folded bias
 * rounded once for the whole group.
 */
void dequantMagicGroup(const QuantParams& p, int bits, float* out);

/**
 * Reference dequantization: unpack codes (any order) and convert each with
 * the plain arithmetic path. Used to validate the fast path bit-for-bit.
 */
void referenceDequantWord(std::uint32_t word, int bits, PackOrder order,
                          const QuantParams& p, Half* out);

/**
 * CUDA-core cost of dequantizing one packed word, in scalar-op slots, for
 * the timing model.
 *
 * @param bits      code width
 * @param fast_path true for the lop3 path, false for cvt-based casting
 * @return {alu_ops, fma_ops}
 */
struct DequantCost
{
    double alu;
    double fma;
};
DequantCost dequantWordCost(int bits, bool fast_path);

} // namespace bitdec::quant

#endif // BITDEC_QUANT_FAST_DEQUANT_H
