/**
 * @file
 * The fused fold's arithmetic at a fixed virtual width of 16 lanes, and
 * its deterministic exp. One template, instantiated per SIMD level over a
 * lane-traits struct of W native lanes: the scalar level (W = 1, sixteen
 * plain floats), AVX2 (W = 8, two registers) and AVX-512 (W = 16, one
 * register). Every level runs the same operations on the same lanes in
 * the same order, so every level produces the same bytes.
 *
 * The arithmetic of one tile of T tokens, gq query rows and d channels,
 * folded into a partial state (m, l, acc). Every reduction order depends
 * on (gq, d) only:
 *  - QK, per (row, token): dot = 0, then dot += q[c] * k[c] for c = 0..d-1
 *    (separate mul and add), logit = dot * scale;
 *  - bm = max(m, max_t logit); rescale = m == -inf ? 0 : exp16(m - bm);
 *  - p = exp16(logit - bm), rounded through binary16 when round_p;
 *  - exp-sum: lane j = 0..15 adds p of tokens t = j mod 16 in token order;
 *  - PV, with G = gq * d and S = G >= 16 ? 1 : floor(16 / G) token slots:
 *    lane (t mod S, row, channel) adds p * v of its tokens in token order
 *    (S = 1 is one lane per (row, channel), tokens in sequence);
 *  - lane partials combine in one fixed pairwise tree (treeSum), then
 *    l = l * rescale + tree(exp-sum lanes),
 *    acc = acc * rescale + tree over the S token slots, m = bm.
 * Every sum starts from +0. Tail lanes (tokens past T, channels past d)
 * are masked to zero or -inf, never read from stale memory.
 *
 * exp16 uses mul, add and exact conversions only (no FMA, no libm): a
 * round-to-nearest split x = n ln2 + r by the 1.5 * 2^23 magic constant,
 * Cody-Waite reduction with the rounding error of r carried into the
 * small term, a degree-7 polynomial whose sum 1 + r + ... rounds once
 * (the error of 1 + r is carried exactly), and 2^n applied as two exact
 * powers so a normal result is not rounded again. Within 0.77 ulp of
 * double-precision exp on [-88, 0] (the worst case is subnormal);
 * exp16(+-0) = 1 and exp16(-inf) = 0 exactly.
 *
 * Everything here has internal linkage on purpose: fused_attention.cc
 * (scalar lanes, baseline flags) and the ISA kernel TUs (through
 * kernels_impl.h) each compile their own copy, so no symbol built under
 * one TU's -m flags can be linker-folded into another. All of them
 * compile with -ffp-contract=off, so no mul/add pair fuses into an FMA.
 */
#ifndef BITDEC_EXEC_SIMD_FOLD16_H
#define BITDEC_EXEC_SIMD_FOLD16_H

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/half.h"

namespace bitdec::exec::simd {

namespace { // per-TU copies, see the file comment

/** The virtual width every level emulates. */
constexpr int kLanes = 16;

/**
 * Scalar lanes: W = 1, so a 16-lane value is an array of 16 floats. The
 * lane-traits contract every level implements (W native lanes):
 * load/store/masked load (lanes >= n read as 0), select (lanes < n from
 * a, else b), add/sub/mul, max/min with
 * the SSE operand semantics (a > b ? a : b, a < b ? a : b), binary16
 * rounding, bit casts and the int32 lane ops exp16 needs, and a permute
 * of a W-float window by a lane index vector.
 */
struct ScalarLanes
{
    static constexpr int W = 1;
    using F = float;
    using I = std::int32_t;

    static F zero() { return 0.f; }
    static F broadcast(float x) { return x; }
    static F load(const float* p) { return *p; }
    static F loadMasked(const float* p, int n) { return n > 0 ? *p : 0.f; }
    static void store(float* p, F v) { *p = v; }
    static F select(int n, F a, F b) { return n > 0 ? a : b; }
    static F add(F a, F b) { return a + b; }
    static F sub(F a, F b) { return a - b; }
    static F mul(F a, F b) { return a * b; }
    static F max(F a, F b) { return a > b ? a : b; }
    static F min(F a, F b) { return a < b ? a : b; }
    static F roundHalf(F x) { return roundToHalf(x); }
    static F permuteLoad(const float* window, I idx) { return window[idx]; }

    /** Lane i of the register starting at lane @p first:
     *  (first + i) / d - first / d (window offset of a repeat-d
     *  expansion). */
    static I expandIndex(int, int) { return 0; }

    static I broadcastI(std::int32_t x) { return x; }
    static I bitsOf(F x)
    {
        I b;
        std::memcpy(&b, &x, sizeof(b));
        return b;
    }
    static F fromBits(I b)
    {
        F x;
        std::memcpy(&x, &b, sizeof(x));
        return x;
    }
    static I addI(I a, I b) { return a + b; }
    static I subI(I a, I b) { return a - b; }
    static I shiftRight1(I a) { return a >> 1; } // arithmetic
    static I shiftLeft23(I a)
    {
        return static_cast<I>(static_cast<std::uint32_t>(a) << 23);
    }
};

/** 16 virtual lanes as 16 / W native registers. */
template <class V>
struct Lanes16
{
    static constexpr int N = kLanes / V::W;
    typename V::F r[N];
};

/** Per-register integer lane vectors (permute indices). */
template <class V>
struct Index16
{
    typename V::I r[Lanes16<V>::N];
};

template <class V>
inline Lanes16<V>
zero16()
{
    Lanes16<V> x;
    for (auto& r : x.r)
        r = V::zero();
    return x;
}

template <class V>
inline Lanes16<V>
broadcast16(float v)
{
    Lanes16<V> x;
    for (auto& r : x.r)
        r = V::broadcast(v);
    return x;
}

/** Lanes < n from p[lane], the rest 0; never reads past p[n - 1]. */
template <class V>
inline Lanes16<V>
loadMasked16(const float* p, int n)
{
    Lanes16<V> x;
    for (int h = 0; h < Lanes16<V>::N; h++)
        x.r[h] = n >= (h + 1) * V::W ? V::load(p + h * V::W)
                                     : V::loadMasked(p + h * V::W,
                                                     n - h * V::W);
    return x;
}

template <class V>
inline void
store16(float* p, const Lanes16<V>& x)
{
    for (int h = 0; h < Lanes16<V>::N; h++)
        V::store(p + h * V::W, x.r[h]);
}

/** Lanes < n from a, the rest from b. */
template <class V>
inline Lanes16<V>
select16(int n, const Lanes16<V>& a, const Lanes16<V>& b)
{
    Lanes16<V> x;
    for (int h = 0; h < Lanes16<V>::N; h++)
        x.r[h] = V::select(n - h * V::W, a.r[h], b.r[h]);
    return x;
}

#define BITDEC_FOLD16_BINARY(name, op)                                       \
    template <class V>                                                       \
    inline Lanes16<V> name(const Lanes16<V>& a, const Lanes16<V>& b)         \
    {                                                                        \
        Lanes16<V> x;                                                        \
        for (int h = 0; h < Lanes16<V>::N; h++)                              \
            x.r[h] = V::op(a.r[h], b.r[h]);                                  \
        return x;                                                            \
    }
BITDEC_FOLD16_BINARY(add16, add)
BITDEC_FOLD16_BINARY(sub16, sub)
BITDEC_FOLD16_BINARY(mul16, mul)
BITDEC_FOLD16_BINARY(max16, max)
#undef BITDEC_FOLD16_BINARY

/** exp of every native lane: mul, add and exact conversions only. */
template <class V>
inline typename V::F
expLanes(typename V::F x)
{
    using F = typename V::F;
    using I = typename V::I;
    // Clamped so -inf (and anything below -150) maps to exactly 0 and
    // both halves of 2^n stay normal.
    x = V::max(x, V::broadcast(-150.f));
    x = V::min(x, V::broadcast(88.5f));
    // n = round-to-nearest-even(x / ln2), read from the low mantissa bits
    // of x * log2(e) + 1.5 * 2^23.
    const F magic = V::broadcast(12582912.f);
    const F t = V::add(V::mul(x, V::broadcast(1.44269504088896341f)), magic);
    const F n = V::sub(t, magic);
    const I ni = V::subI(V::bitsOf(t), V::bitsOf(magic));
    // r = x - n ln2 with ln2 = C1 + C2; n * C1 and x - n * C1 are exact,
    // and lo is the rounding error of r = rh + c.
    const F rh = V::sub(x, V::mul(n, V::broadcast(0.693145751953125f)));
    const F c = V::mul(n, V::broadcast(-1.428606765330187e-06f));
    const F r = V::add(rh, c);
    const F lo = V::add(V::sub(rh, r), c);
    const F z = V::mul(r, r);
    F y = V::broadcast(1.9875691500e-4f);
    y = V::add(V::mul(y, r), V::broadcast(1.3981999507e-3f));
    y = V::add(V::mul(y, r), V::broadcast(8.3334519073e-3f));
    y = V::add(V::mul(y, r), V::broadcast(4.1665795894e-2f));
    y = V::add(V::mul(y, r), V::broadcast(1.6666665459e-1f));
    y = V::add(V::mul(y, r), V::broadcast(5.0000001201e-1f));
    y = V::add(V::mul(y, z), lo);
    // 1 + r + y with one final rounding: e is the exact error of
    // hi = 1 + r (Fast2Sum, |r| < 1), added to the small terms first.
    const F one = V::broadcast(1.f);
    const F hi = V::add(one, r);
    const F e = V::add(V::sub(one, hi), r);
    y = V::add(hi, V::add(e, y));
    // y * 2^n1 * 2^n2 with n1 = floor(n / 2): the first product is exact,
    // the second rounds once (into the subnormal range when it must).
    const I bias = V::broadcastI(127);
    const I n1 = V::shiftRight1(ni);
    const I n2 = V::subI(ni, n1);
    y = V::mul(y, V::fromBits(V::shiftLeft23(V::addI(n1, bias))));
    return V::mul(y, V::fromBits(V::shiftLeft23(V::addI(n2, bias))));
}

template <class V>
inline Lanes16<V>
exp16(const Lanes16<V>& x)
{
    Lanes16<V> y;
    for (int h = 0; h < Lanes16<V>::N; h++)
        y.r[h] = expLanes<V>(x.r[h]);
    return y;
}

/** The fused path's exp of one float (the scalar lane). */
inline float
expScalar(float x)
{
    return expLanes<ScalarLanes>(x);
}

/**
 * The one fixed combine of @p n lane partials x[0], x[stride], ...:
 * pairwise halving, x[k] += x[k + h] with h = ceil(n / 2), until one is
 * left. Destroys the inputs.
 */
inline float
treeSum(float* x, int n, int stride)
{
    while (n > 1) {
        const int h = (n + 1) / 2;
        for (int k = 0; k + h < n; k++)
            x[k * stride] += x[(k + h) * stride];
        n = h;
    }
    return x[0];
}

/** The largest of 16 lanes by the same pairwise halving as treeSum. */
inline float
treeMax(float* x)
{
    for (int h = kLanes / 2; h >= 1; h /= 2)
        for (int k = 0; k < h; k++)
            x[k] = x[k + h] > x[k] ? x[k + h] : x[k];
    return x[0];
}

/** exp16 over an array (tests compare the levels through it). */
template <class V>
void
expRows(const float* x, std::size_t n, float* out)
{
    alignas(64) float buf[kLanes];
    for (std::size_t i = 0; i < n; i += kLanes) {
        const int live = n - i < kLanes ? static_cast<int>(n - i) : kLanes;
        store16<V>(buf, exp16<V>(loadMasked16<V>(x + i, live)));
        std::memcpy(out + i, buf, static_cast<std::size_t>(live) *
                                      sizeof(float));
    }
}

/** QK of NG consecutive 16-token groups of one row; stores the logits
 *  (tail lanes -inf) and folds them into @p vmax. */
template <class V, int NG>
inline void
qkGroups(const float* q, int d, const float* kT, int k_stride, int t0,
         int tokens, float scale, float* s, Lanes16<V>& vmax)
{
    Lanes16<V> dot[NG];
    for (auto& x : dot)
        x = zero16<V>();
    for (int c = 0; c < d; c++) {
        const Lanes16<V> qc = broadcast16<V>(q[c]);
        for (int j = 0; j < NG; j++) {
            const int t = t0 + j * kLanes;
            const Lanes16<V> kv = loadMasked16<V>(
                kT + static_cast<std::size_t>(c) *
                         static_cast<std::size_t>(k_stride) +
                    static_cast<std::size_t>(t),
                tokens - t);
            dot[j] = add16<V>(dot[j], mul16<V>(qc, kv));
        }
    }
    const Lanes16<V> vs = broadcast16<V>(scale);
    const Lanes16<V> ninf = broadcast16<V>(-__builtin_inff());
    for (int j = 0; j < NG; j++) {
        const int t = t0 + j * kLanes;
        const Lanes16<V> logit =
            select16<V>(tokens - t, mul16<V>(dot[j], vs), ninf);
        store16<V>(s + t, logit);
        vmax = max16<V>(vmax, logit);
    }
}

template <class V>
inline void
qkRow(const float* q, int d, const float* kT, int k_stride, int tokens,
      float scale, float* s, Lanes16<V>& vmax)
{
    const int groups = (tokens + kLanes - 1) / kLanes;
    int g = 0;
    // Four independent add chains per pass hide the add latency.
    for (; g + 4 <= groups; g += 4)
        qkGroups<V, 4>(q, d, kT, k_stride, g * kLanes, tokens, scale, s,
                       vmax);
    for (; g < groups; g++)
        qkGroups<V, 1>(q, d, kT, k_stride, g * kLanes, tokens, scale, s,
                       vmax);
}

/** PV of one row at S = 1 for NB 16-channel blocks from channel c0. */
template <class V, int NB>
inline void
pvChannels(const float* p, const float* vf, int d, int c0, int tokens,
           float rescale, float* acc)
{
    Lanes16<V> a[NB];
    for (auto& x : a)
        x = zero16<V>();
    const std::size_t dd = static_cast<std::size_t>(d);
    for (int t = 0; t < tokens; t++) {
        const Lanes16<V> pb = broadcast16<V>(p[t]);
        const float* vrow = vf + static_cast<std::size_t>(t) * dd +
                            static_cast<std::size_t>(c0);
        for (int j = 0; j < NB; j++)
            a[j] = add16<V>(a[j], mul16<V>(pb, loadMasked16<V>(
                                                   vrow + j * kLanes,
                                                   d - c0 - j * kLanes)));
    }
    alignas(64) float lanes[kLanes];
    for (int j = 0; j < NB; j++) {
        store16<V>(lanes, a[j]);
        const int c1 = c0 + j * kLanes;
        for (int i = 0; i < kLanes && c1 + i < d; i++)
            acc[c1 + i] = acc[c1 + i] * rescale + lanes[i];
    }
}

/**
 * One K/V tile folded into a partial state; see the file comment for the
 * arithmetic. K is channel-major (element (t, c) at kT[c * k_stride + t],
 * k_stride >= tokens); V is token-major [tokens x d]. @p scratch holds
 * foldScratchFloats(gq, tokens) floats.
 */
template <class V>
void
foldTile(const float* qf, int gq, int d, const float* kT, int k_stride,
         const float* vf, int tokens, float scale, float* m, float* l,
         float* acc, float* scratch, bool round_p)
{
    if (tokens <= 0)
        return;
    constexpr int N = Lanes16<V>::N;
    const float neg_inf = -__builtin_inff();
    const std::size_t dd = static_cast<std::size_t>(d);
    const int tpad = (tokens + kLanes - 1) / kLanes * kLanes;
    const std::size_t tp = static_cast<std::size_t>(tpad);
    // [gq x tpad] logits, then probabilities in place; a pad the PV
    // windows may read into; one rescale per row.
    float* sp = scratch;
    float* pad = sp + static_cast<std::size_t>(gq) * tp;
    float* rescales = pad + kLanes;

    alignas(64) float lanes[kLanes];

    // QK, row max, exp and exp-sum, row by row.
    for (int r = 0; r < gq; r++) {
        const std::size_t rr = static_cast<std::size_t>(r);
        float* s = sp + rr * tp;
        Lanes16<V> vmax = broadcast16<V>(neg_inf);
        qkRow<V>(qf + rr * dd, d, kT, k_stride, tokens, scale, s, vmax);
        store16<V>(lanes, vmax);
        const float tile_max = treeMax(lanes);
        const float bm = tile_max > m[rr] ? tile_max : m[rr];
        // exp16(m - bm) is exactly 1 when the max did not move.
        const float rescale = m[rr] == neg_inf ? 0.f
                              : m[rr] == bm    ? 1.f
                                               : expScalar(m[rr] - bm);
        rescales[rr] = rescale;
        m[rr] = bm;

        const Lanes16<V> vb = broadcast16<V>(bm);
        Lanes16<V> lsum = zero16<V>();
        for (int t = 0; t < tpad; t += kLanes) {
            Lanes16<V> p = exp16<V>(sub16<V>(loadMasked16<V>(s + t, kLanes),
                                             vb));
            if (round_p)
                for (int h = 0; h < N; h++)
                    p.r[h] = V::roundHalf(p.r[h]);
            lsum = add16<V>(lsum, p);
            store16<V>(s + t, p);
        }
        store16<V>(lanes, lsum);
        l[rr] = l[rr] * rescale + treeSum(lanes, kLanes, 1);
    }

    // PV, after every row's probabilities exist: a token-slot window may
    // read past its row into the next row's (finite) probabilities or the
    // zero pad, always against V lanes masked to zero.
    const int g = gq * d;
    const int slots = g >= kLanes ? 1 : kLanes / g;
    if (slots == 1) {
        for (int r = 0; r < gq; r++) {
            const std::size_t rr = static_cast<std::size_t>(r);
            const float* p = sp + rr * tp;
            float* a = acc + rr * dd;
            for (int c0 = 0; c0 < d; c0 += 4 * kLanes) {
                switch ((d - c0 + kLanes - 1) / kLanes) {
                case 1:
                    pvChannels<V, 1>(p, vf, d, c0, tokens, rescales[rr], a);
                    break;
                case 2:
                    pvChannels<V, 2>(p, vf, d, c0, tokens, rescales[rr], a);
                    break;
                case 3:
                    pvChannels<V, 3>(p, vf, d, c0, tokens, rescales[rr], a);
                    break;
                default:
                    pvChannels<V, 4>(p, vf, d, c0, tokens, rescales[rr], a);
                }
            }
        }
        return;
    }
    // Token slots: lane (k, c) of a row holds token t0 + k, channel c, so
    // S consecutive V rows load as one contiguous run, and p repeats each
    // token's probability d times from a window at p + t0 + plo[h].
    for (int i = 0; i < kLanes; i++)
        pad[i] = 0.f;
    thread_local int pidx_d = 0;
    thread_local Index16<V> pidx;
    thread_local int plo[N];
    if (pidx_d != d) {
        for (int h = 0; h < N; h++) {
            pidx.r[h] = V::expandIndex(h * V::W, d);
            plo[h] = h * V::W / d;
        }
        pidx_d = d;
    }
    for (int r = 0; r < gq; r++) {
        const std::size_t rr = static_cast<std::size_t>(r);
        const float* p = sp + rr * tp;
        Lanes16<V> a = zero16<V>();
        for (int t0 = 0; t0 < tokens; t0 += slots) {
            const int live = tokens - t0 < slots ? tokens - t0 : slots;
            const Lanes16<V> vv = loadMasked16<V>(
                vf + static_cast<std::size_t>(t0) * dd, live * d);
            Lanes16<V> pp;
            for (int h = 0; h < N; h++)
                pp.r[h] = V::permuteLoad(p + t0 + plo[h], pidx.r[h]);
            a = add16<V>(a, mul16<V>(pp, vv));
        }
        store16<V>(lanes, a);
        float* ar = acc + rr * dd;
        for (int c = 0; c < d; c++)
            ar[c] = ar[c] * rescales[rr] + treeSum(lanes + c, slots, d);
    }
}

} // namespace

} // namespace bitdec::exec::simd

#endif // BITDEC_EXEC_SIMD_FOLD16_H
