/**
 * @file
 * BitDecoding public API: configuration, the per-head functional decoder,
 * the end-to-end kernel timing model with ablation switches, and the
 * Blackwell native-MX functional path.
 *
 * Typical use (see examples/quickstart.cpp):
 * @code
 *   core::BitDecodingConfig cfg;             // KC-4, wn = 4
 *   core::HeadDecoder dec(128, cfg);         // head_dim = 128
 *   dec.prefill(k_ctx, v_ctx);               // pack the prompt KV
 *   auto out = dec.decodeStep(q_tile, scale) // fused low-bit attention
 * @endcode
 */
#ifndef BITDEC_CORE_BITDECODING_H
#define BITDEC_CORE_BITDECODING_H

#include "attention/workloads.h"
#include "core/packing_kernel.h"
#include "gpusim/timing.h"
#include "kvcache/kv_cache.h"
#include "quant/mx_format.h"

namespace bitdec::core {

/** Top-level BitDecoding configuration. */
struct BitDecodingConfig
{
    quant::QuantConfig quant;     //!< bits / key granularity / group size
    layout::WarpTiling tiling;    //!< wm = 1, wn warps along KV
    bool coop_softmax = true;     //!< Algorithm 1 (required when wn > 1)
    int version = 2;              //!< 2 = SM80 mma path, 3 = Hopper wgmma
    bool use_mx = false;          //!< Blackwell native block-scaled MMA
    quant::MxKind mx_kind = quant::MxKind::MXFP4;

    /** Paper-style label, e.g. "BitDecoding-KC-4". */
    std::string label() const;
};

/** Ablation switches matching Fig. 16's breakdown. */
struct BitDecodingAblation
{
    bool layout = true;   //!< induced layout (off = continuous packing)
    bool warps = true;    //!< wn-wide warp parallelism (off = wn = 1)
    bool pipeline = true; //!< software pipeline / cp.async overlap
};

/**
 * Functional per-KV-head decoder owning a packed cache.
 *
 * All query heads of the group decode together (query transformation);
 * appended tokens accumulate in the FP16 residual and are packed by the
 * Residual Kernel path when a block fills.
 */
class HeadDecoder
{
  public:
    HeadDecoder(int head_dim, const BitDecodingConfig& config);

    /** Packs a full prompt context. */
    void prefill(const Tensor<Half>& k, const Tensor<Half>& v);

    /** Appends one generated token's K/V. */
    void appendToken(const std::vector<Half>& k, const std::vector<Half>& v);

    /**
     * Runs one decode step for this head group on the warp/register
     * emulation path (validates layouts; slow).
     * @param q_tile [gq x d] transformed queries, gq <= 16
     * @param scale  logit scale
     */
    PackingKernelResult decodeStep(const Tensor<Half>& q_tile, float scale);

    /** Underlying cache (inspection / tests). */
    const kv::PackedHeadCache& cache() const { return cache_; }

    /** Configuration. */
    const BitDecodingConfig& config() const { return config_; }

  private:
    BitDecodingConfig config_;
    kv::PackedHeadCache cache_;
};

/**
 * Kernel-level timing of one BitDecoding decode step (fused Packing Kernel
 * + Residual Kernel launch + split combine when needed).
 *
 * @param ablation feature switches; defaults reproduce the full system
 */
sim::SequenceTiming bitDecodingTime(const sim::GpuArch& arch,
                                    const attn::DecodeShape& shape,
                                    const BitDecodingConfig& config,
                                    const BitDecodingAblation& ablation = {});

/** Per-step instruction/pipe breakdown used by Figs. 4b, 15 and Table III. */
struct KernelBreakdown
{
    double total_s = 0;        //!< step latency
    double dequant_s = 0;      //!< standalone time of dequant/quant ops
    double tc_utilization = 0; //!< Tensor-Core busy fraction
    double mem_utilization = 0;//!< DRAM busy fraction
    double fma_share = 0;      //!< FMA share of CUDA-core slots
    double alu_share = 0;      //!< ALU share of CUDA-core slots
};

/** Computes the breakdown for a BitDecoding step. */
KernelBreakdown bitDecodingBreakdown(const sim::GpuArch& arch,
                                     const attn::DecodeShape& shape,
                                     const BitDecodingConfig& config);

/**
 * K/V pre-encoded into an MX block-scaled format, ready for repeated
 * decode steps. V is transposed once (single raw-storage pass) so its
 * scale blocks run along the MMA K dimension (tokens); re-encoding it on
 * every attention call was the old hot-path sin.
 */
struct MxKvCache
{
    quant::MxMatrix k;  //!< [len x d], blocks along d
    quant::MxMatrix vt; //!< [d x len] (transposed V), blocks along tokens
    std::size_t len = 0;
    std::size_t d = 0;
};

/** Encodes K and V once for repeated mxAttention calls. */
MxKvCache mxEncodeKv(const Tensor<Half>& k, const Tensor<Half>& v,
                     quant::MxKind kind);

/**
 * Functional Blackwell path: attention with K/V (and optionally P) in a
 * native block-scaled MX format. P re-quantization after softmax models
 * the on-the-fly Quant(P) the low-precision PV MMA requires.
 *
 * This overload consumes a pre-encoded cache; query rows optionally
 * spread across the thread pool (bitwise identical for any thread count).
 */
Tensor<float> mxAttention(const Tensor<Half>& q, const MxKvCache& kv,
                          float scale, bool requantize_p = true,
                          exec::ThreadPool* pool = nullptr);

/** Convenience overload: encodes K/V (once) and runs attention. */
Tensor<float> mxAttention(const Tensor<Half>& q, const Tensor<Half>& k,
                          const Tensor<Half>& v, quant::MxKind kind,
                          float scale, bool requantize_p = true);

} // namespace bitdec::core

#endif // BITDEC_CORE_BITDECODING_H
