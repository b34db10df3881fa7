/**
 * @file
 * End-to-end decode simulation: per-token latency, memory footprint with
 * OOM detection, and serving throughput for each inference system.
 */
#ifndef BITDEC_MODEL_DECODE_SIM_H
#define BITDEC_MODEL_DECODE_SIM_H

#include "attention/workloads.h"
#include "core/bitdecoding.h"
#include "gpusim/arch.h"
#include "model/model_config.h"

namespace bitdec::model {

/** Inference system under simulation. */
enum class SystemKind
{
    FlashDecodingFp16, //!< FP16 KV, FlashDecoding-v2 kernels
    Kivi,              //!< non-fused low-bit kernels
    QServe,            //!< fused CUDA-core low-bit kernels (W4A8KV4)
    BitDecoding,       //!< this work
};

/** Returns a printable system name. */
const char* toString(SystemKind kind);

/** End-to-end configuration of one run. */
struct E2EConfig
{
    SystemKind system = SystemKind::BitDecoding;
    int bits = 4;               //!< KV bit width (low-bit systems)
    quant::Granularity key_granularity = quant::Granularity::ChannelWise;
    int tensor_parallel = 1;    //!< GPUs sharding the model
    attn::Scenario scenario = attn::Scenario::Batches;
    int page_size = 64;         //!< tokens per KV page in paged scenarios
};

/** Per-token decode-step timing breakdown. */
struct StepTiming
{
    double attention_s = 0; //!< all layers' attention kernels
    double gemm_s = 0;      //!< projection + FFN GEMMs
    double other_s = 0;     //!< norms, embeddings, launch misc
    double total_s = 0;
};

/** Computes one decode step's latency for a full batch. */
StepTiming decodeStepTime(const sim::GpuArch& arch, const ModelConfig& model,
                          int seq_len, int batch, const E2EConfig& cfg);

/**
 * Device bytes everything except the KV cache and per-shape workspaces
 * occupies (per GPU): weights, activation high-water mark at @p batch, and
 * allocator/framework overhead. peakMemoryBytes() and the serving page-pool
 * sizing share this budget model.
 */
double nonKvMemoryBytes(const ModelConfig& model, int batch,
                        const E2EConfig& cfg);

/**
 * Peak device memory of a run (per GPU): weights + KV cache + transient
 * workspaces + activations. Used for OOM detection and max-batch search.
 */
double peakMemoryBytes(const ModelConfig& model, int seq_len, int batch,
                       const E2EConfig& cfg);

/** Result of a throughput evaluation. */
struct ThroughputResult
{
    bool oom = false;        //!< configuration does not fit
    int batch = 0;           //!< batch size used
    double tokens_per_s = 0; //!< decode throughput
    double step_latency_s = 0;
};

/**
 * Decode throughput at a fixed batch size; oom set when the memory model
 * says the configuration does not fit on the device.
 */
ThroughputResult decodeThroughput(const sim::GpuArch& arch,
                                  const ModelConfig& model, int seq_len,
                                  int batch, const E2EConfig& cfg);

/**
 * Serving throughput at the largest batch that fits in device memory
 * (the paper's Pages evaluation protocol).
 */
ThroughputResult maxBatchThroughput(const sim::GpuArch& arch,
                                    const ModelConfig& model, int seq_len,
                                    const E2EConfig& cfg, int batch_limit = 256);

} // namespace bitdec::model

#endif // BITDEC_MODEL_DECODE_SIM_H
