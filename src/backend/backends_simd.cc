/**
 * @file
 * SIMD sibling backends: `fused-fp16-avx2`, `fused-paged-avx2` and their
 * `-avx512` variants. Each is the scalar twin's hot loops re-executed
 * through an ISA kernel table (src/exec/simd/) with identical chunking
 * and merge order, so its digest is bitwise identical to the twin's for
 * any thread count. `fused-packed` has no siblings: it runs at the
 * enabled level itself. The paged siblings stay opt-in by name because
 * at the serving slice's head_dim of 4 the AVX-512 paged kernel is
 * slower than the scalar one, so a level-only dispatch would slow
 * serving; the fp16 siblings stay beside them until both fold together.
 *
 * Availability gates on exec::simd::levelEnabled(): a sibling whose ISA
 * the CPU/OS lacks — or that `BITDEC_SIMD` caps away — is hidden from
 * listings and capability resolution, and resolving it by name is fatal
 * with the detected-feature list. The capability masks are copied from
 * the twins, so every registry query that matches a twin also matches
 * its available siblings (the twin still wins ties by name order).
 */
#include "backend/registry.h"
#include "exec/simd/simd_attention.h"
#include "kvcache/kv_cache.h"
#include "kvcache/paged_cache.h"

namespace bitdec::backend {

namespace {

namespace simd = exec::simd;

/** name() storage: "<base>-avx2" / "<base>-avx512", built once. */
std::string
siblingName(const char* base, simd::Level level)
{
    return std::string(base) + "-" + simd::toString(level);
}

/** The shared availability surface of every SIMD sibling. */
template <simd::Level L>
class SimdSiblingBackend : public AttentionBackend
{
  public:
    bool available() const override { return simd::levelEnabled(L); }

    std::string unavailableReason() const override
    {
        return simd::unavailableReason(L);
    }

    const char* simdLevel() const override { return simd::toString(L); }
};

/** SIMD twin of fused-fp16. */
template <simd::Level L>
class FusedFp16SimdBackend : public SimdSiblingBackend<L>
{
  public:
    const char* name() const override
    {
        static const std::string n = siblingName("fused-fp16", L);
        return n.c_str();
    }

    BackendCapabilities capabilities() const override
    {
        BackendCapabilities caps;
        caps.bindings = static_cast<unsigned>(Binding::Fp16Contiguous);
        caps.cache_kinds = static_cast<unsigned>(CacheKind::Contiguous);
        caps.quant_formats = static_cast<unsigned>(QuantFormat::Fp16);
        caps.scenarios = kContiguousScenarios;
        caps.fused_hot_path = true;
        return caps;
    }

    DecodePlan plan(const attn::DecodeShape& shape) const override
    {
        DecodePlan p = AttentionBackend::plan(shape);
        if (!p.supported)
            return p;
        p.kv_chunk = exec::kChunkTokens;
        p.splits = (shape.seq_len + exec::kChunkTokens - 1) /
                   exec::kChunkTokens;
        p.chunking = "128-token chunks, partials merged in chunk order";
        return p;
    }

    std::vector<Tensor<float>> decodeStep(
        const DecodeBatch& batch) const override
    {
        this->requireBindings(batch);
        return runBatch(batch, [&batch](const DecodeItem& it,
                                        exec::ThreadPool* inner) {
            return simd::fusedFp16AttentionSimd(*it.q, *it.fp16, batch.scale,
                                                L, inner);
        });
    }
};

/** SIMD twin of fused-paged (serving-capable). */
template <simd::Level L>
class FusedPagedSimdBackend : public SimdSiblingBackend<L>
{
  public:
    const char* name() const override
    {
        static const std::string n = siblingName("fused-paged", L);
        return n.c_str();
    }

    BackendCapabilities capabilities() const override
    {
        BackendCapabilities caps;
        caps.bindings = static_cast<unsigned>(Binding::PagedFp16);
        caps.cache_kinds = static_cast<unsigned>(CacheKind::Paged);
        caps.quant_formats = static_cast<unsigned>(QuantFormat::Fp16);
        caps.scenarios = scenarioBit(attn::Scenario::Pages) |
                         scenarioBit(attn::Scenario::Serving);
        caps.fused_hot_path = true;
        return caps;
    }

    DecodePlan plan(const attn::DecodeShape& shape) const override
    {
        DecodePlan p = AttentionBackend::plan(shape);
        if (!p.supported)
            return p;
        p.kv_chunk = shape.page_size;
        p.splits = (shape.seq_len + shape.page_size - 1) / shape.page_size;
        p.chunking = "one page per partial, partials merged in page order";
        return p;
    }

    std::vector<Tensor<float>> decodeStep(
        const DecodeBatch& batch) const override
    {
        this->requireBindings(batch);
        return runBatch(batch, [&batch](const DecodeItem& it,
                                        exec::ThreadPool* inner) {
            return simd::fusedPagedAttentionSimd(*it.q, *it.paged, it.seq,
                                                 batch.scale, L, inner);
        });
    }
};

using FusedFp16Avx2 = FusedFp16SimdBackend<simd::Level::Avx2>;
using FusedFp16Avx512 = FusedFp16SimdBackend<simd::Level::Avx512>;
using FusedPagedAvx2 = FusedPagedSimdBackend<simd::Level::Avx2>;
using FusedPagedAvx512 = FusedPagedSimdBackend<simd::Level::Avx512>;

BITDEC_REGISTER_BACKEND(FusedFp16Avx2);
BITDEC_REGISTER_BACKEND(FusedFp16Avx512);
BITDEC_REGISTER_BACKEND(FusedPagedAvx2);
BITDEC_REGISTER_BACKEND(FusedPagedAvx512);

} // namespace

int
linkSimdBackends()
{
    return 0;
}

} // namespace bitdec::backend
