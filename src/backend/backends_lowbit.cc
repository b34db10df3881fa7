/**
 * @file
 * Low-bit contiguous backends: `fused-packed` (BitDecoding's tile-fused
 * hot path over the induced-layout packed cache) and the two
 * dequant-then-compute baselines, `kivi` (separated kernels) and
 * `qserve` (CUDA-core fused GEMVs). The baselines consume the
 * pre-packing QuantizedMatrix pair; `fused-packed` consumes the packed
 * cache and runs at the host's enabled SIMD level.
 */
#include <string>

#include "attention/kivi_baseline.h"
#include "attention/qserve_baseline.h"
#include "backend/registry.h"
#include "core/packing_kernel.h"
#include "exec/simd/dispatch.h"
#include "kvcache/kv_cache.h"
#include "layout/tile.h"
#include "quant/int_quant.h"

namespace bitdec::backend {

namespace {

/** BitDecoding's fused packed-cache hot path. */
class FusedPackedBackend : public AttentionBackend
{
  public:
    const char* name() const override { return "fused-packed"; }

    /** The level fusedPackedAttention dispatches to right now. */
    const char* simdLevel() const override
    {
        return exec::simd::toString(exec::simd::enabledLevelCap());
    }

    BackendCapabilities capabilities() const override
    {
        BackendCapabilities caps;
        caps.bindings = static_cast<unsigned>(Binding::PackedLowBit);
        caps.cache_kinds = static_cast<unsigned>(CacheKind::Contiguous);
        caps.quant_formats = static_cast<unsigned>(QuantFormat::Int4) |
                             static_cast<unsigned>(QuantFormat::Int2);
        caps.scenarios = kContiguousScenarios;
        caps.fused_hot_path = true;
        return caps;
    }

    DecodePlan plan(const attn::DecodeShape& shape) const override
    {
        DecodePlan p = AttentionBackend::plan(shape);
        if (!p.supported)
            return p;
        // Planned for the default KC-4 tiling; caches packed with other
        // configs scale Nr (Eq. 1) accordingly.
        const std::string misfit = kv::PackedHeadCache::headDimMisfit(
            shape.head_dim, 4, layout::WarpTiling{});
        if (!misfit.empty()) {
            p.supported = false;
            p.reason = "backend 'fused-packed' cannot pack head_dim " +
                       std::to_string(shape.head_dim) + ": " + misfit;
            return p;
        }
        // Chunk = kChunkBlocks residual blocks.
        p.kv_chunk = core::kChunkBlocks *
                     layout::residualBlockSize(layout::WarpTiling{}, 4);
        p.splits = (shape.seq_len + p.kv_chunk - 1) / p.kv_chunk;
        p.chunking = "4 packed blocks per partial + FP16 residual tail, "
                     "partials merged in block order";
        return p;
    }

    std::vector<Tensor<float>> decodeStep(
        const DecodeBatch& batch) const override
    {
        requireBindings(batch);
        return runBatch(batch, [&batch](const DecodeItem& it,
                                        exec::ThreadPool* inner) {
            return core::fusedPackedAttention(*it.q, *it.packed, batch.scale,
                                              inner);
        });
    }
};

/** KIVI: dequantize-everything-then-dense-attention (five kernels). */
class KiviBackend : public AttentionBackend
{
  public:
    const char* name() const override { return "kivi"; }

    BackendCapabilities capabilities() const override
    {
        BackendCapabilities caps;
        caps.bindings = static_cast<unsigned>(Binding::QuantizedMatrices);
        caps.cache_kinds = static_cast<unsigned>(CacheKind::Contiguous);
        caps.quant_formats = static_cast<unsigned>(QuantFormat::Int4) |
                             static_cast<unsigned>(QuantFormat::Int2);
        caps.scenarios = kContiguousScenarios;
        return caps;
    }

    std::vector<Tensor<float>> decodeStep(
        const DecodeBatch& batch) const override
    {
        requireBindings(batch);
        return runBatch(batch, [&batch](const DecodeItem& it,
                                        exec::ThreadPool*) {
            return attn::kiviAttention(*it.q, *it.kq, *it.vq, batch.scale);
        });
    }
};

/** QServe/Atom: fused CUDA-core GEMVs, one query head at a time. */
class QServeBackend : public AttentionBackend
{
  public:
    const char* name() const override { return "qserve"; }

    BackendCapabilities capabilities() const override
    {
        BackendCapabilities caps;
        caps.bindings = static_cast<unsigned>(Binding::QuantizedMatrices);
        caps.cache_kinds = static_cast<unsigned>(CacheKind::Contiguous);
        // W4A8KV4: the modeled system is 4-bit only.
        caps.quant_formats = static_cast<unsigned>(QuantFormat::Int4);
        caps.scenarios = kContiguousScenarios;
        return caps;
    }

    std::vector<Tensor<float>> decodeStep(
        const DecodeBatch& batch) const override
    {
        requireBindings(batch);
        return runBatch(batch, [&batch](const DecodeItem& it,
                                        exec::ThreadPool*) {
            return attn::cudaCoreFusedAttention(*it.q, *it.kq, *it.vq,
                                                batch.scale);
        });
    }
};

BITDEC_REGISTER_BACKEND(FusedPackedBackend);
BITDEC_REGISTER_BACKEND(KiviBackend);
BITDEC_REGISTER_BACKEND(QServeBackend);

} // namespace

int
linkLowbitBackends()
{
    return 0;
}

} // namespace bitdec::backend
