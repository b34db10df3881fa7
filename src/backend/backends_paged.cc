/**
 * @file
 * `fused-paged`: decode attention straight over the paged KV pool
 * (page-table indirection, no gather copies) — the serving engine's
 * per-step functional attention backend. Runs at the host's enabled SIMD
 * level, with the same bytes at every level.
 */
#include "backend/registry.h"
#include "exec/fused_attention.h"
#include "exec/simd/dispatch.h"
#include "kvcache/paged_cache.h"

namespace bitdec::backend {

namespace {

class FusedPagedBackend : public AttentionBackend
{
  public:
    const char* name() const override { return "fused-paged"; }

    /** The level fusedPagedAttention dispatches to right now. */
    const char* simdLevel() const override
    {
        return exec::simd::toString(exec::simd::enabledLevelCap());
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
        requireBindings(batch);
        return runBatch(batch, [&batch](const DecodeItem& it,
                                        exec::ThreadPool* inner) {
            return exec::fusedPagedAttention(*it.q, *it.paged, it.seq,
                                             batch.scale, inner);
        });
    }
};

BITDEC_REGISTER_BACKEND(FusedPagedBackend);

} // namespace

int
linkPagedBackends()
{
    return 0;
}

} // namespace bitdec::backend
