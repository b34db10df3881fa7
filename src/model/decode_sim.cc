#include "model/decode_sim.h"

#include <algorithm>

#include "attention/flash_decoding.h"
#include "attention/kivi_baseline.h"
#include "attention/qserve_baseline.h"
#include "common/logging.h"

namespace bitdec::model {

const char*
toString(SystemKind kind)
{
    switch (kind) {
      case SystemKind::FlashDecodingFp16:
        return "FlashDecoding-v2";
      case SystemKind::Kivi:
        return "KIVI";
      case SystemKind::QServe:
        return "QServe";
      case SystemKind::BitDecoding:
        return "BitDecoding";
    }
    return "unknown";
}

namespace {

/** Attention shape of one layer under tensor parallelism. */
attn::DecodeShape
layerShape(const ModelConfig& model, int seq_len, int batch,
           const E2EConfig& cfg)
{
    attn::DecodeShape s;
    s.batch = batch;
    s.num_q_heads = std::max(1, model.num_q_heads / cfg.tensor_parallel);
    s.num_kv_heads = std::max(1, model.num_kv_heads / cfg.tensor_parallel);
    s.head_dim = model.head_dim;
    s.seq_len = seq_len;
    s.scenario = cfg.scenario;
    s.page_size = cfg.page_size;
    return s;
}

/** Quantization config a system uses end to end. */
quant::QuantConfig
quantOf(const E2EConfig& cfg)
{
    quant::QuantConfig q;
    q.bits = cfg.bits;
    q.key_granularity = cfg.key_granularity;
    q.group_size = 32;
    return q;
}

} // namespace

StepTiming
decodeStepTime(const sim::GpuArch& arch, const ModelConfig& model, int seq_len,
               int batch, const E2EConfig& cfg)
{
    const attn::DecodeShape shape = layerShape(model, seq_len, batch, cfg);

    sim::SequenceTiming attn_t;
    switch (cfg.system) {
      case SystemKind::FlashDecodingFp16:
        attn_t = attn::flashDecodingTime(arch, shape, 2);
        break;
      case SystemKind::Kivi: {
        attn::DecodeShape s = shape;
        if (attn::isPaged(s.scenario))
            s.scenario = attn::Scenario::Batches; // KIVI has no paging
        attn_t = attn::kiviTime(arch, s, cfg.bits);
        break;
      }
      case SystemKind::QServe:
        attn_t = attn::cudaCoreFusedTime(arch, shape,
                                         attn::CudaCoreSystem::QServe,
                                         cfg.bits);
        break;
      case SystemKind::BitDecoding: {
        core::BitDecodingConfig bc;
        bc.quant = quantOf(cfg);
        bc.version = arch.has_wgmma ? 3 : 2;
        bc.use_mx = arch.has_mxfp4_mma;
        attn_t = core::bitDecodingTime(arch, shape, bc);
        break;
      }
    }

    StepTiming t;
    t.attention_s = attn_t.total_s * model.layers;

    // Projection/FFN GEMMs: weights stream once per step (batch rows of
    // activations ride along); QServe's W4A8 halves the weight traffic
    // twice over FP16.
    const double weight_bytes =
        model.weightBytesFp16() / cfg.tensor_parallel *
        (cfg.system == SystemKind::QServe ? 0.25 : 1.0);
    const double gemm_flops =
        model.gemmFlopsPerToken() * batch / cfg.tensor_parallel;
    const double t_weights = weight_bytes / arch.dramBytesPerSec();
    const double t_flops = gemm_flops / arch.tcFlops(16);
    t.gemm_s = std::max(t_weights, t_flops);

    // Norms/residuals/embedding lookups and framework overhead.
    t.other_s = model.layers * 2.0 * arch.launch_overhead_us * 1e-6;

    t.total_s = t.attention_s + t.gemm_s + t.other_s;
    return t;
}

double
nonKvMemoryBytes(const ModelConfig& model, int batch, const E2EConfig& cfg)
{
    const double weights =
        model.weightBytesFp16() / cfg.tensor_parallel *
        (cfg.system == SystemKind::QServe ? 0.25 : 1.0);
    // Activations, allocator slack and framework overhead.
    const double activations =
        2.0 * batch * (model.hidden + model.intermediate) * model.layers * 2.0;
    const double overhead = 1.5e9;
    return weights + activations + overhead;
}

double
peakMemoryBytes(const ModelConfig& model, int seq_len, int batch,
                const E2EConfig& cfg)
{
    double kv = model.kvBytesFp16(seq_len) * batch / cfg.tensor_parallel;
    if (cfg.system != SystemKind::FlashDecodingFp16)
        kv *= static_cast<double>(cfg.bits) / 16.0;

    double workspace = 0;
    if (cfg.system == SystemKind::Kivi) {
        const attn::DecodeShape shape = layerShape(model, seq_len, batch, cfg);
        workspace = attn::kiviWorkspaceBytes(shape, model.layers);
    }

    return nonKvMemoryBytes(model, batch, cfg) + kv + workspace;
}

ThroughputResult
decodeThroughput(const sim::GpuArch& arch, const ModelConfig& model,
                 int seq_len, int batch, const E2EConfig& cfg)
{
    ThroughputResult r;
    r.batch = batch;
    if (peakMemoryBytes(model, seq_len, batch, cfg) > arch.hbm_gb * 1e9) {
        r.oom = true;
        return r;
    }
    const StepTiming t = decodeStepTime(arch, model, seq_len, batch, cfg);
    r.step_latency_s = t.total_s;
    r.tokens_per_s = batch / t.total_s;
    return r;
}

ThroughputResult
maxBatchThroughput(const sim::GpuArch& arch, const ModelConfig& model,
                   int seq_len, const E2EConfig& cfg, int batch_limit)
{
    ThroughputResult best;
    best.oom = true;
    for (int b = 1; b <= batch_limit; b++) {
        if (peakMemoryBytes(model, seq_len, b, cfg) > arch.hbm_gb * 1e9)
            break;
        const ThroughputResult r =
            decodeThroughput(arch, model, seq_len, b, cfg);
        if (!r.oom && r.tokens_per_s > best.tokens_per_s) {
            best = r;
            best.oom = false;
        }
    }
    return best;
}

} // namespace bitdec::model
