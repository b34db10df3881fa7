/**
 * @file
 * Shared implementation of the SIMD conversion and dequant kernels,
 * parameterized on a vector-traits struct (8-lane AVX2, 16-lane AVX-512),
 * plus the 16-lane fold of fold16.h. Included ONLY by the per-ISA
 * translation units — everything here is internal-linkage (static /
 * per-TU template instantiations over TU-local traits) so no symbol
 * compiled under one ISA's flags can be linker-folded into another.
 *
 * Bit-exactness rules:
 *  - the fold and its exp follow fold16.h's 16-lane arithmetic, which
 *    fixes every reduction order by (gq, head_dim) alone, so each level
 *    gives the scalar lanes' bytes;
 *  - conversion and dequant are exact (Half widening is lossless; code
 *    extraction and lookups are integer ops), so any order works;
 *  - group values replay quant::dequantMagicValue per lane: the same mul,
 *    add and binary16 round-to-nearest-even (F16C cvtps2ph/cvtph2ps in
 *    place of the scalar bit-level rounding).
 */
#ifndef BITDEC_EXEC_SIMD_KERNELS_IMPL_H
#define BITDEC_EXEC_SIMD_KERNELS_IMPL_H

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/half.h"
#include "exec/simd/fold16.h"

namespace bitdec::exec::simd {

namespace impl {

/** Bulk Half->float via F16C; tail through the exact LUT. vcvtph2ps is
 *  exact for every non-NaN pattern and preserves NaN payloads, so the
 *  bytes match toFloat() — test_properties sweeps all 65536 patterns. */
static void
convertRowsF16c(const Half* src, std::size_t n, float* dst)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m128i h = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(src + i));
        _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
    }
    const float* lut = halfToFloatLut();
    for (; i < n; i++)
        dst[i] = lut[src[i].bits()];
}

/** In-register 8x8 float transpose: rows r0..r7 become columns 0..7. */
static void
transpose8x8(__m256 r[8], __m256 out[8])
{
    const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
    const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
    const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
    const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
    const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
    const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
    const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
    const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
    const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    out[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
    out[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
    out[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
    out[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
    out[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
    out[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
    out[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
    out[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/** Four-channel heads: 8 tokens (two per register) -> 4 channel rows.
 *  An in-lane 4x4 transpose leaves tokens in order 0 2 4 6 | 1 3 5 7,
 *  which one permute restores. */
static void
transposeFourChannels(const Half* src, float* kT, std::size_t ts)
{
    __m256 r[4];
    for (int i = 0; i < 4; i++)
        r[i] = _mm256_cvtph_ps(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + 8 * i)));
    const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
    const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
    const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
    const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
    const __m256 c[4] = {_mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0)),
                         _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2)),
                         _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0)),
                         _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2))};
    const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    for (int j = 0; j < 4; j++)
        _mm256_storeu_ps(kT + static_cast<std::size_t>(j) * ts,
                         _mm256_permutevar8x32_ps(c[j], order));
}

/** Converts a token-major [tokens x d] Half tile into a channel-major
 *  float scratch (kT[c * t_stride + t]): 8x8 convert+transpose blocks
 *  (8x4 for four-channel heads), scalar LUT tails. Pure data movement +
 *  exact conversion. */
static void
convertTransposeF16c(const Half* src, int tokens, int d, float* kT,
                     int t_stride)
{
    const float* lut = halfToFloatLut();
    const std::size_t dd = static_cast<std::size_t>(d);
    const std::size_t ts = static_cast<std::size_t>(t_stride);
    int t = 0;
    if (d == 4)
        for (; t + 8 <= tokens; t += 8)
            transposeFourChannels(src + static_cast<std::size_t>(t) * dd,
                                  kT + t, ts);
    for (; t + 8 <= tokens; t += 8) {
        int c = 0;
        for (; c + 8 <= d; c += 8) {
            __m256 rows[8];
            for (int i = 0; i < 8; i++) {
                const __m128i h = _mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(
                        src + static_cast<std::size_t>(t + i) * dd +
                        static_cast<std::size_t>(c)));
                rows[i] = _mm256_cvtph_ps(h);
            }
            __m256 cols[8];
            transpose8x8(rows, cols);
            for (int j = 0; j < 8; j++)
                _mm256_storeu_ps(kT + static_cast<std::size_t>(c + j) * ts +
                                     static_cast<std::size_t>(t),
                                 cols[j]);
        }
        for (; c < d; c++)
            for (int i = 0; i < 8; i++)
                kT[static_cast<std::size_t>(c) * ts +
                   static_cast<std::size_t>(t + i)] =
                    lut[src[static_cast<std::size_t>(t + i) * dd +
                            static_cast<std::size_t>(c)]
                            .bits()];
    }
    for (; t < tokens; t++)
        for (int c = 0; c < d; c++)
            kT[static_cast<std::size_t>(c) * ts +
               static_cast<std::size_t>(t)] =
                lut[src[static_cast<std::size_t>(t) * dd +
                        static_cast<std::size_t>(c)]
                        .bits()];
}

/** Magic-biased codes (1024 + q) of a 16-level group row. */
alignas(64) static constexpr float kMagicRow[16] = {
    1024.f, 1025.f, 1026.f, 1027.f, 1028.f, 1029.f, 1030.f, 1031.f,
    1032.f, 1033.f, 1034.f, 1035.f, 1036.f, 1037.f, 1038.f, 1039.f};

/**
 * Group values of one block: for W groups at a time the scales, zeros and
 * folded biases (-(1024 + z) * s, rounded to half) are vector ops; each
 * group's row is then (1024 + q) * s + bias rounded to half — one vector
 * per 16-level row (two at 8 lanes), one 4-lane op per 2-bit row.
 */
template <class V>
static void
groupValuesImpl(const Half2* params, std::size_t n_groups, int bits,
                float* values)
{
    const std::size_t levels = std::size_t{1} << bits;
    const auto c1024 = V::broadcast(1024.f);
    const auto sign = V::broadcast(-0.f);
    alignas(64) std::uint32_t words[V::W];
    alignas(64) float s[V::W];
    alignas(64) float bias[V::W];
    for (std::size_t g0 = 0; g0 < n_groups; g0 += V::W) {
        const std::size_t count =
            n_groups - g0 < static_cast<std::size_t>(V::W) ? n_groups - g0
                                                            : V::W;
        // A Half2 is one word, scale in the low and zero in the high 16
        // bits; the tail pads with zero groups whose rows are not stored.
        std::memset(words, 0, sizeof(words));
        std::memcpy(words, params + g0, count * sizeof(Half2));
        const auto w = V::loadI(words);
        const auto vs = V::halvesLo(w);
        const auto neg = V::xorF(V::add(c1024, V::halvesHi(w)), sign);
        V::store(s, vs);
        V::store(bias, V::roundHalf(V::mul(neg, vs)));
        for (std::size_t j = 0; j < count; j++) {
            float* row = values + ((g0 + j) << bits);
            if (levels < static_cast<std::size_t>(V::W)) {
                const __m128 v = _mm_add_ps(
                    _mm_mul_ps(_mm_load_ps(kMagicRow), _mm_set1_ps(s[j])),
                    _mm_set1_ps(bias[j]));
                _mm_storeu_ps(row, _mm_cvtph_ps(_mm_cvtps_ph(
                                      v, _MM_FROUND_TO_NEAREST_INT)));
                continue;
            }
            const auto vsj = V::broadcast(s[j]);
            const auto vbj = V::broadcast(bias[j]);
            for (std::size_t q = 0; q < levels; q += V::W)
                V::store(row + q,
                         V::roundHalf(V::add(
                             V::mul(V::load(kMagicRow + q), vsj), vbj)));
        }
    }
}

/** Destination-ordered block dequant: gather words, variable-shift/mask
 *  the codes, then one permute of the group's row per vector when a
 *  vector lies in one group, else a gather from the values; contiguous
 *  store. */
template <class V>
static void
dequantLinearImpl(const std::uint32_t* units, const std::uint32_t* unit_of,
                  const std::uint32_t* shift_of, const std::uint32_t* param_of,
                  std::size_t n, int bits, int group_run, const float* values,
                  float* out)
{
    const std::uint32_t maskv = (1u << bits) - 1u;
    const auto vmask = V::broadcastI(maskv);
    std::size_t i = 0;
    if (group_run >= V::W) {
        for (; i + V::W <= n; i += V::W) {
            const auto words = V::gatherI(units, V::loadI(unit_of + i));
            const auto codes =
                V::andI(V::srlv(words, V::loadI(shift_of + i)), vmask);
            V::store(out + i, V::lookup16(values + param_of[i], codes));
        }
    } else {
        for (; i + V::W <= n; i += V::W) {
            const auto words = V::gatherI(units, V::loadI(unit_of + i));
            const auto codes =
                V::andI(V::srlv(words, V::loadI(shift_of + i)), vmask);
            const auto li = V::orI(V::loadI(param_of + i), codes);
            V::store(out + i, V::gatherF(values, li));
        }
    }
    for (; i < n; i++)
        out[i] = values[param_of[i] |
                        ((units[unit_of[i]] >> shift_of[i]) & maskv)];
}

} // namespace impl

} // namespace bitdec::exec::simd

#endif // BITDEC_EXEC_SIMD_KERNELS_IMPL_H
