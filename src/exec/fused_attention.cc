#include "exec/fused_attention.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "exec/simd/dispatch.h"
#include "exec/simd/fold16.h"

namespace bitdec::exec {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/** Grows a thread-local scratch vector to at least @p n floats. */
float*
grown(std::vector<float>& v, std::size_t n)
{
    if (v.size() < n)
        v.resize(n);
    return v.data();
}

/** exp(m - nm) of a merge side: 0 for an empty side, exactly 1 (what
 *  foldExp(0) returns) when this side holds the max. */
float
mergeScale(float m, float nm)
{
    if (m == kNegInf)
        return 0.f;
    return m == nm ? 1.f : foldExp(m - nm);
}

} // namespace

float
foldExp(float x)
{
    return simd::expScalar(x);
}

std::size_t
foldScratchFloats(int gq, int tokens)
{
    const std::size_t tpad =
        static_cast<std::size_t>((tokens + simd::kLanes - 1) / simd::kLanes) *
        simd::kLanes;
    return static_cast<std::size_t>(gq) * (tpad + 1) + simd::kLanes;
}

void
foldHalfTile(const simd::KernelTable& kt, const float* qf, int gq, int d,
             const Half* k, const Half* v, int tokens, float scale, float* m,
             float* l, float* acc)
{
    thread_local std::vector<float> kbuf, vbuf, sbuf;
    const std::size_t n =
        static_cast<std::size_t>(tokens) * static_cast<std::size_t>(d);
    float* kT = grown(kbuf, n);
    float* vf = grown(vbuf, n);
    float* scratch = grown(sbuf, foldScratchFloats(gq, tokens));
    kt.convert_rows(v, n, vf);
    kt.convert_transpose(k, tokens, d, kT, tokens);
    kt.fold_tile(qf, gq, d, kT, tokens, vf, tokens, scale, m, l, acc,
                 scratch, /*round_p=*/false);
}

void
SoftmaxPartial::init(int gq, int d)
{
    m.assign(static_cast<std::size_t>(gq), kNegInf);
    l.assign(static_cast<std::size_t>(gq), 0.f);
    acc.assign(static_cast<std::size_t>(gq) * static_cast<std::size_t>(d),
               0.f);
}

void
mergePartial(SoftmaxPartial& run, const float* m, const float* l,
             const float* acc, int gq, int d)
{
    const std::size_t dd = static_cast<std::size_t>(d);
    for (int r = 0; r < gq; r++) {
        const std::size_t rr = static_cast<std::size_t>(r);
        const float nm = std::max(run.m[rr], m[rr]);
        if (nm == kNegInf)
            continue;
        const float ra = mergeScale(run.m[rr], nm);
        const float rb = mergeScale(m[rr], nm);
        run.l[rr] = run.l[rr] * ra + l[rr] * rb;
        float* o = run.acc.data() + rr * dd;
        const float* a = acc + rr * dd;
        for (int c = 0; c < d; c++)
            o[c] = o[c] * ra + a[c] * rb;
        run.m[rr] = nm;
    }
}

SoftmaxPartial
foldChunks(int gq, int d, std::size_t n_chunks, ThreadPool* pool,
           const ChunkFold& fold_chunk)
{
    // One slot: m[gq] | l[gq] | acc[gq x d].
    const std::size_t g = static_cast<std::size_t>(gq);
    const std::size_t stride = g * (static_cast<std::size_t>(d) + 2);
    const auto foldInto = [&](std::size_t ci, float* slot) {
        std::fill(slot, slot + g, kNegInf);
        std::fill(slot + g, slot + stride, 0.f);
        fold_chunk(ci, slot, slot + g, slot + 2 * g);
    };
    SoftmaxPartial run;
    run.init(gq, d);
    if (pool == nullptr) {
        thread_local std::vector<float> slot_buf;
        float* slot = grown(slot_buf, stride);
        for (std::size_t ci = 0; ci < n_chunks; ci++) {
            foldInto(ci, slot);
            mergePartial(run, slot, slot + g, slot + 2 * g, gq, d);
        }
        return run;
    }
    std::vector<float> slots(n_chunks * stride);
    parallelFor(pool, n_chunks, [&](std::size_t ci) {
        foldInto(ci, slots.data() + ci * stride);
    });
    for (std::size_t ci = 0; ci < n_chunks; ci++) {
        const float* slot = slots.data() + ci * stride;
        mergePartial(run, slot, slot + g, slot + 2 * g, gq, d);
    }
    return run;
}

Tensor<float>
finalizePartial(const SoftmaxPartial& st, int gq, int d)
{
    const std::size_t dd = static_cast<std::size_t>(d);
    Tensor<float> out({static_cast<std::size_t>(gq), dd});
    for (int r = 0; r < gq; r++) {
        const std::size_t rr = static_cast<std::size_t>(r);
        const float inv = st.l[rr] > 0.f ? 1.0f / st.l[rr] : 0.f;
        for (int c = 0; c < d; c++)
            out.at(rr, static_cast<std::size_t>(c)) =
                st.acc[rr * dd + static_cast<std::size_t>(c)] * inv;
    }
    return out;
}

Tensor<float>
fusedPagedAttention(const Tensor<Half>& q, const kv::PagedHeadCache& cache,
                    int seq, float scale, ThreadPool* pool)
{
    // The host's enabled level (BITDEC_SIMD caps it), resolved once per
    // call.
    const simd::KernelTable& kt = simd::kernels(simd::enabledLevelCap());
    const int d = cache.headDim();
    const int gq = static_cast<int>(q.dim(0));
    BITDEC_ASSERT(static_cast<int>(q.dim(1)) == d, "query width mismatch");
    const int len = cache.length(seq);
    const int ps = cache.pageSize();
    const std::vector<int>& pages = cache.pageTable(seq);
    const int n_chunks = cache.pagesFor(len); // one chunk per page

    std::vector<float> qf(static_cast<std::size_t>(gq) *
                          static_cast<std::size_t>(d));
    toFloat(q.data(), qf.data(), qf.size());

    const SoftmaxPartial run = foldChunks(
        gq, d, static_cast<std::size_t>(n_chunks), pool,
        [&](std::size_t ci, float* m, float* l, float* acc) {
            const int page = pages[ci];
            const int tokens = std::min(ps, len - static_cast<int>(ci) * ps);
            foldHalfTile(kt, qf.data(), gq, d, cache.pageKeyData(page),
                         cache.pageValueData(page), tokens, scale, m, l, acc);
        });
    return finalizePartial(run, gq, d);
}

Tensor<float>
fusedFp16Attention(const Tensor<Half>& q, const kv::Fp16HeadCache& cache,
                   float scale, ThreadPool* pool)
{
    const simd::KernelTable& kt = simd::kernels(simd::enabledLevelCap());
    const int d = cache.headDim();
    const int gq = static_cast<int>(q.dim(0));
    BITDEC_ASSERT(static_cast<int>(q.dim(1)) == d, "query width mismatch");
    const int len = cache.length();
    const int n_chunks = (len + kChunkTokens - 1) / kChunkTokens;
    const std::size_t dd = static_cast<std::size_t>(d);

    std::vector<float> qf(static_cast<std::size_t>(gq) * dd);
    toFloat(q.data(), qf.data(), qf.size());

    const SoftmaxPartial run = foldChunks(
        gq, d, static_cast<std::size_t>(n_chunks), pool,
        [&](std::size_t ci, float* m, float* l, float* acc) {
            const std::size_t t0 = ci * kChunkTokens;
            const int tokens =
                std::min(kChunkTokens, len - static_cast<int>(t0));
            foldHalfTile(kt, qf.data(), gq, d,
                         cache.keys().data() + t0 * dd,
                         cache.values().data() + t0 * dd, tokens, scale, m,
                         l, acc);
        });
    return finalizePartial(run, gq, d);
}

} // namespace bitdec::exec
