#include "quant/fast_dequant.h"

#include "common/logging.h"
#include "gpusim/bitops.h"

namespace bitdec::quant {

namespace {

/** Pair mask: one code in each 16-bit lane. */
std::uint32_t
pairMask(int bits)
{
    const std::uint32_t m = (1u << bits) - 1u;
    return m | (m << 16);
}

} // namespace

std::uint32_t
extractMagicPair(std::uint32_t word, int j, int bits)
{
    BITDEC_ASSERT(bits == 2 || bits == 4,
                  "lop3 fast path supports 2- and 4-bit codes");
    const int pairs = codesPerWord(bits) / 2;
    BITDEC_ASSERT(j >= 0 && j < pairs, "pair index out of range");
    const std::uint32_t shifted = word >> (bits * j);
    // Single lop3: (shifted & mask) | magic.
    return sim::lop3(shifted, pairMask(bits), kMagic1024x2, sim::kLutAndOr);
}

void
fastDequantWord(std::uint32_t word, int bits, const QuantParams& p, Half* out)
{
    const int n = codesPerWord(bits);
    const float s = p.scale.toFloat();
    // Folded constant: -(1024 + zero) * scale. On device this lives in a
    // half2 register; we round identically.
    const Half neg_bias(-(1024.0f + p.zero.toFloat()) * s);

    for (int j = 0; j < n / 2; j++) {
        const std::uint32_t h2 = extractMagicPair(word, j, bits);
        const Half lo = Half::fromBits(static_cast<std::uint16_t>(h2 & 0xFFFF));
        const Half hi = Half::fromBits(static_cast<std::uint16_t>(h2 >> 16));
        // One half2 FMA: y = magic_val * s + neg_bias.
        out[2 * j] = Half(lo.toFloat() * s + neg_bias.toFloat());
        out[2 * j + 1] = Half(hi.toFloat() * s + neg_bias.toFloat());
    }
}

float
dequantMagicValue(std::uint8_t code, const QuantParams& p)
{
    const float s = p.scale.toFloat();
    const Half neg_bias(-(1024.0f + p.zero.toFloat()) * s);
    const float magic_val = 1024.0f + static_cast<float>(code);
    return Half(magic_val * s + neg_bias.toFloat()).toFloat();
}

void
dequantMagicGroup(const QuantParams& p, int bits, float* out)
{
    const float* widen = halfToFloatLut();
    const float s = p.scale.toFloat();
    const float neg_bias =
        widen[floatToHalfBits(-(1024.0f + p.zero.toFloat()) * s)];
    for (int q = 0; q < (1 << bits); q++)
        out[q] = widen[floatToHalfBits(
            (1024.0f + static_cast<float>(q)) * s + neg_bias)];
}

void
referenceDequantWord(std::uint32_t word, int bits, PackOrder order,
                     const QuantParams& p, Half* out)
{
    const int n = codesPerWord(bits);
    std::uint8_t codes[16];
    unpackWord(word, bits, order, codes);
    const float s = p.scale.toFloat();
    const Half neg_bias(-(1024.0f + p.zero.toFloat()) * s);
    for (int i = 0; i < n; i++) {
        // Same arithmetic as the fast path so results agree bit-for-bit:
        // (1024 + q) * s + neg_bias.
        const float magic_val = 1024.0f + static_cast<float>(codes[i]);
        out[i] = Half(magic_val * s + neg_bias.toFloat());
    }
}

DequantCost
dequantWordCost(int bits, bool fast_path)
{
    const int n = codesPerWord(bits);
    if (fast_path) {
        // Per pair: one shift (folded), one lop3, one half2 FMA.
        // Counted per word: n/2 lop3 (alu), n/2 shifts (alu), n/2 half2
        // FMAs = n/2 fma slots.
        return {static_cast<double>(n), static_cast<double>(n) / 2.0};
    }
    // cvt path: per code one shift+mask (2 alu), one I2F convert (~2 slots,
    // alu), one FMA for scale/zero.
    return {static_cast<double>(4 * n), static_cast<double>(n)};
}

} // namespace bitdec::quant
