/**
 * @file
 * AVX2 (+F16C) kernel table: the 16-lane fold runs as two 8-lane
 * registers. Compiled with -mavx2 -mf16c (CMake per-source flags); on
 * targets or compilers without those flags the TU degrades to a null
 * table and runtime dispatch reports the level unsupported.
 */
#include "exec/simd/kernel_table.h"

#if defined(__AVX2__) && defined(__F16C__)

#include <cmath>

#include "exec/simd/kernels_impl.h"

namespace bitdec::exec::simd {

namespace {

struct VecAvx2
{
    static constexpr int W = 8;
    using F = __m256;
    using I = __m256i;

    static F zero() { return _mm256_setzero_ps(); }
    static F broadcast(float x) { return _mm256_set1_ps(x); }
    static F load(const float* p) { return _mm256_loadu_ps(p); }
    static void store(float* p, F v) { _mm256_storeu_ps(p, v); }
    static F mul(F a, F b) { return _mm256_mul_ps(a, b); }
    static F add(F a, F b) { return _mm256_add_ps(a, b); }
    static F sub(F a, F b) { return _mm256_sub_ps(a, b); }
    static F max(F a, F b) { return _mm256_max_ps(a, b); }
    static F min(F a, F b) { return _mm256_min_ps(a, b); }

    /** All-ones in lanes < n (0 < n < 8 at every call site that masks). */
    static I laneMask(int n)
    {
        return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                                  _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    }
    static F loadMasked(const float* p, int n)
    {
        if (n <= 0)
            return zero();
        return _mm256_maskload_ps(p, laneMask(n));
    }
    static F select(int n, F a, F b)
    {
        if (n >= W)
            return a;
        if (n <= 0)
            return b;
        return _mm256_blendv_ps(b, a, _mm256_castsi256_ps(laneMask(n)));
    }
    static F permuteLoad(const float* window, I idx)
    {
        return _mm256_permutevar8x32_ps(_mm256_loadu_ps(window), idx);
    }
    static I expandIndex(int first, int d)
    {
        alignas(32) std::int32_t idx[W];
        // (first + i) / d - first / d, counted up without dividing.
        for (int i = 0, k = 0, rem = first % d; i < W; i++) {
            idx[i] = k;
            if (++rem == d) {
                rem = 0;
                k++;
            }
        }
        return _mm256_load_si256(reinterpret_cast<const __m256i*>(idx));
    }
    static I bitsOf(F x) { return _mm256_castps_si256(x); }
    static F fromBits(I x) { return _mm256_castsi256_ps(x); }
    static I addI(I a, I b) { return _mm256_add_epi32(a, b); }
    static I subI(I a, I b) { return _mm256_sub_epi32(a, b); }
    static I shiftRight1(I a) { return _mm256_srai_epi32(a, 1); }
    static I shiftLeft23(I a) { return _mm256_slli_epi32(a, 23); }

    static I loadI(const std::uint32_t* p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    }
    static I broadcastI(std::uint32_t x)
    {
        return _mm256_set1_epi32(static_cast<int>(x));
    }
    static I andI(I a, I b) { return _mm256_and_si256(a, b); }
    static I orI(I a, I b) { return _mm256_or_si256(a, b); }
    static I srlv(I a, I count) { return _mm256_srlv_epi32(a, count); }
    static I gatherI(const std::uint32_t* base, I idx)
    {
        return _mm256_i32gather_epi32(reinterpret_cast<const int*>(base),
                                      idx, 4);
    }
    static F gatherF(const float* base, I idx)
    {
        return _mm256_i32gather_ps(base, idx, 4);
    }

    static F xorF(F a, F b) { return _mm256_xor_ps(a, b); }
    /** Rounds every lane through binary16 (round to nearest even). */
    static F roundHalf(F x)
    {
        return _mm256_cvtph_ps(_mm256_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT));
    }
    /** Widens the half in the low 16 bits of every 32-bit lane. */
    static F halvesLo(I w)
    {
        const I m = _mm256_and_si256(w, _mm256_set1_epi32(0xFFFF));
        return _mm256_cvtph_ps(_mm_packus_epi32(
            _mm256_castsi256_si128(m), _mm256_extracti128_si256(m, 1)));
    }
    /** Widens the half in the high 16 bits of every 32-bit lane. */
    static F halvesHi(I w) { return halvesLo(_mm256_srli_epi32(w, 16)); }
    /** row[idx] per lane for idx < 16: two 8-entry permutes, blended on
     *  index bit 3. */
    static F lookup16(const float* row, I idx)
    {
        const F lo = _mm256_permutevar8x32_ps(_mm256_loadu_ps(row), idx);
        const F hi = _mm256_permutevar8x32_ps(_mm256_loadu_ps(row + 8), idx);
        return _mm256_blendv_ps(
            lo, hi, _mm256_castsi256_ps(_mm256_slli_epi32(idx, 28)));
    }

    static F loadHalves(const Half* p)
    {
        return _mm256_cvtph_ps(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    }
    static F div(F a, F b) { return _mm256_div_ps(a, b); }
    static void storeI(std::uint32_t* p, I v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
    }
    static I sllv(I a, I count) { return _mm256_sllv_epi32(a, count); }
    static I shiftLeft16(I a) { return _mm256_slli_epi32(a, 16); }
    /** Truncates toward zero (NaN maps to INT_MIN; callers clamp first). */
    static I toInt(F x) { return _mm256_cvttps_epi32(x); }
    /** Binary16 bits of every lane (round to nearest even), zero-extended. */
    static I halfBits(F x)
    {
        return _mm256_cvtepu16_epi32(
            _mm256_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT));
    }
    /** x where 0 < x < inf, else 1 (NaN included). */
    static F positiveFiniteOrOne(F x)
    {
        const F ok = _mm256_and_ps(
            _mm256_cmp_ps(x, zero(), _CMP_GT_OQ),
            _mm256_cmp_ps(x, broadcast(INFINITY), _CMP_LT_OQ));
        return _mm256_blendv_ps(broadcast(1.f), x, ok);
    }
    /** std::round: truncate, then step away from zero when the exact
     *  remainder reaches one half. */
    static F roundAway(F y)
    {
        const F sign = broadcast(-0.f);
        const F t = _mm256_round_ps(y, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
        const F up = _mm256_cmp_ps(_mm256_andnot_ps(sign, _mm256_sub_ps(y, t)),
                                   broadcast(0.5f), _CMP_GE_OQ);
        const F step = _mm256_or_ps(_mm256_and_ps(y, sign), broadcast(1.f));
        return _mm256_blendv_ps(t, _mm256_add_ps(t, step), up);
    }
};

const KernelTable kTable = {
    impl::convertRowsF16c,
    impl::convertTransposeF16c,
    foldTile<VecAvx2>,
    expRows<VecAvx2>,
    impl::groupValuesImpl<VecAvx2>,
    impl::dequantLinearImpl<VecAvx2>,
    impl::sealOperandImpl<VecAvx2>,
};

} // namespace

const KernelTable*
avx2Kernels()
{
    return &kTable;
}

} // namespace bitdec::exec::simd

#else // !(__AVX2__ && __F16C__)

namespace bitdec::exec::simd {

const KernelTable*
avx2Kernels()
{
    return nullptr;
}

} // namespace bitdec::exec::simd

#endif
