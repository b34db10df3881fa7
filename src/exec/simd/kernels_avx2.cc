/**
 * @file
 * AVX2 (+F16C) kernel table. Compiled with -mavx2 -mf16c
 * -ffp-contract=off (CMake per-source flags); on targets or compilers
 * without those flags the TU degrades to a null table and runtime
 * dispatch reports the level unsupported.
 */
#include "exec/simd/kernel_table.h"

#if defined(__AVX2__) && defined(__F16C__)

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
};

const KernelTable kTable = {
    impl::convertRowsF16c,
    impl::convertTransposeF16c,
    impl::foldTileImpl<VecAvx2>,
    impl::groupValuesImpl<VecAvx2>,
    impl::dequantLinearImpl<VecAvx2>,
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
