/**
 * @file
 * AVX-512 (F/BW/DQ/VL) kernel table: the 16-lane instantiation of the
 * shared kernel templates, so the fold's 16 virtual lanes are one
 * register. Compiled with -mavx512f -mavx512bw -mavx512dq -mavx512vl
 * -mf16c; degrades to a null table when the compiler lacks the flags.
 * The conversion kernels stay 8-wide (they are load/store bound and VL
 * makes the ymm forms available here); the compute kernels run 16 lanes.
 */
#include "exec/simd/kernel_table.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__) && defined(__F16C__)

#include "exec/simd/kernels_impl.h"

namespace bitdec::exec::simd {

namespace {

struct VecAvx512
{
    static constexpr int W = 16;
    using F = __m512;
    using I = __m512i;

    static F zero() { return _mm512_setzero_ps(); }
    static F broadcast(float x) { return _mm512_set1_ps(x); }
    static F load(const float* p) { return _mm512_loadu_ps(p); }
    static void store(float* p, F v) { _mm512_storeu_ps(p, v); }
    static F mul(F a, F b) { return _mm512_mul_ps(a, b); }
    static F add(F a, F b) { return _mm512_add_ps(a, b); }
    static F sub(F a, F b) { return _mm512_sub_ps(a, b); }
    static F max(F a, F b) { return _mm512_max_ps(a, b); }
    static F min(F a, F b) { return _mm512_min_ps(a, b); }

    /** Bits set for lanes < n. */
    static __mmask16 laneMask(int n)
    {
        return n >= W ? static_cast<__mmask16>(0xFFFF)
                      : static_cast<__mmask16>((1u << (n > 0 ? n : 0)) - 1u);
    }
    static F loadMasked(const float* p, int n)
    {
        return _mm512_maskz_loadu_ps(laneMask(n), p);
    }
    static F select(int n, F a, F b)
    {
        return _mm512_mask_blend_ps(laneMask(n), b, a);
    }
    static F permuteLoad(const float* window, I idx)
    {
        return _mm512_permutexvar_ps(idx, _mm512_loadu_ps(window));
    }
    static I expandIndex(int first, int d)
    {
        alignas(64) std::int32_t idx[W];
        // (first + i) / d - first / d, counted up without dividing.
        for (int i = 0, k = 0, rem = first % d; i < W; i++) {
            idx[i] = k;
            if (++rem == d) {
                rem = 0;
                k++;
            }
        }
        return _mm512_load_si512(idx);
    }
    static I bitsOf(F x) { return _mm512_castps_si512(x); }
    static F fromBits(I x) { return _mm512_castsi512_ps(x); }
    static I addI(I a, I b) { return _mm512_add_epi32(a, b); }
    static I subI(I a, I b) { return _mm512_sub_epi32(a, b); }
    static I shiftRight1(I a) { return _mm512_srai_epi32(a, 1); }
    static I shiftLeft23(I a) { return _mm512_slli_epi32(a, 23); }

    static I loadI(const std::uint32_t* p) { return _mm512_loadu_si512(p); }
    static I broadcastI(std::uint32_t x)
    {
        return _mm512_set1_epi32(static_cast<int>(x));
    }
    static I andI(I a, I b) { return _mm512_and_si512(a, b); }
    static I orI(I a, I b) { return _mm512_or_si512(a, b); }
    static I srlv(I a, I count) { return _mm512_srlv_epi32(a, count); }
    static I gatherI(const std::uint32_t* base, I idx)
    {
        return _mm512_i32gather_epi32(idx, base, 4);
    }
    static F gatherF(const float* base, I idx)
    {
        return _mm512_i32gather_ps(idx, base, 4);
    }

    static F xorF(F a, F b) { return _mm512_xor_ps(a, b); }
    /** Rounds every lane through binary16 (round to nearest even). */
    static F roundHalf(F x)
    {
        return _mm512_cvtph_ps(_mm512_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT));
    }
    /** Widens the half in the low 16 bits of every 32-bit lane. */
    static F halvesLo(I w) { return _mm512_cvtph_ps(_mm512_cvtepi32_epi16(w)); }
    /** Widens the half in the high 16 bits of every 32-bit lane. */
    static F halvesHi(I w) { return halvesLo(_mm512_srli_epi32(w, 16)); }
    /** row[idx] per lane for idx < 16: one 16-entry permute. */
    static F lookup16(const float* row, I idx)
    {
        return _mm512_permutexvar_ps(idx, _mm512_loadu_ps(row));
    }
};

const KernelTable kTable = {
    impl::convertRowsF16c,
    impl::convertTransposeF16c,
    foldTile<VecAvx512>,
    expRows<VecAvx512>,
    impl::groupValuesImpl<VecAvx512>,
    impl::dequantLinearImpl<VecAvx512>,
};

} // namespace

const KernelTable*
avx512Kernels()
{
    return &kTable;
}

} // namespace bitdec::exec::simd

#else // missing AVX-512 F/BW/DQ/VL or F16C

namespace bitdec::exec::simd {

const KernelTable*
avx512Kernels()
{
    return nullptr;
}

} // namespace bitdec::exec::simd

#endif
