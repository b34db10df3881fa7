/**
 * @file
 * The Packing Kernel: fused dequantization + Tensor-Core attention over the
 * packed low-bit KV cache (Section V-C), emulated at warp/register
 * granularity.
 *
 * The functional model reproduces the device dataflow:
 *  - packed 32-bit units are fetched by (lane, register-pair) exactly as
 *    ldmatrix would deliver them;
 *  - the lop3 magic-number path dequantizes each extraction pair into the
 *    half2 register the mma.sync B fragment expects — alignment holds only
 *    because producer and consumer share the induced layout;
 *  - QK^T accumulates per warp over k-tiles; warps partition the KV (N)
 *    dimension (wm = 1, wide wn);
 *  - the multi-warp cooperative softmax (Algorithm 1) reduces row maxima
 *    and exp-sums across warps through the sTMP buffer and round-trips P
 *    through sAcc so the PV MMA reads A fragments in a valid layout;
 *  - PV dequantizes V units the same way and accumulates the output with
 *    the running online-softmax state across residual blocks;
 *  - the FP16 residual tail is processed like FlashDecoding and merged.
 *
 * Disabling cooperative softmax while keeping wn > 1 reproduces the
 * invalid-result failure of Table III: each warp then normalizes with its
 * local max/sum and partial states merge incorrectly.
 */
#ifndef BITDEC_CORE_PACKING_KERNEL_H
#define BITDEC_CORE_PACKING_KERNEL_H

#include "attention/workloads.h"
#include "common/tensor.h"
#include "exec/thread_pool.h"
#include "gpusim/timing.h"
#include "kvcache/kv_cache.h"

namespace bitdec::core {

/** Packed blocks per split chunk of the fused packed path; fixed so
 *  chunking (and therefore the merge order) never depends on threads. */
constexpr int kChunkBlocks = 4;

/** Behavioral switches of the functional Packing Kernel. */
struct PackingKernelOptions
{
    bool coop_softmax = true;  //!< Algorithm 1 cross-warp reduction
    bool hopper_smem_path = false; //!< route dequantized B through SMEM
                                   //!< (STSM + wgmma_SS dataflow)
};

/** Output of one Packing-Kernel attention call. */
struct PackingKernelResult
{
    Tensor<float> out; //!< [m_tile x d]; rows beyond gq are padding
    bool valid;        //!< false when the configuration breaks correctness
};

/**
 * Runs attention for one KV head group over a packed cache.
 *
 * @param q_tile query tile [gq x d] (from query transformation), gq <= 16
 * @param cache  packed + residual KV of this head
 * @param scale  logit scale
 * @param opts   behavioral switches
 */
PackingKernelResult packingKernelAttention(const Tensor<Half>& q_tile,
                                           const kv::PackedHeadCache& cache,
                                           float scale,
                                           const PackingKernelOptions& opts);

/**
 * Fast-path fused attention over a packed cache (the CPU execution
 * backend's hot loop). Numerically it follows the same dataflow as
 * packingKernelAttention — per-block magic-FMA dequantization, P rounded
 * through half precision (the sAcc round trip), online-softmax merges,
 * the FP16 residual tail — but executes it as a tile-fused pipeline:
 * each packed block is dequantized word-level into a reusable thread-local
 * [Nr x d] scratch tile, its group values derived from the block's params
 * at use, and consumed by QK/softmax/PV immediately, so the full FP16
 * cache is never materialized and nothing is allocated per tile.
 *
 * The kernels run through the table of the host's enabled SIMD level
 * (exec::simd::enabledLevelCap(), capped by BITDEC_SIMD), scalar
 * included: every level walks the cache's linear dequant plans, K
 * straight into a channel-major tile for the lane-per-token QK loop, and
 * produces the same bytes.
 *
 * KV blocks are processed in fixed-size chunks whose partial softmax
 * states merge sequentially in chunk order, so the output is bitwise
 * identical for any thread count (and for pool == nullptr, which runs
 * the chunks inline).
 *
 * Matches packingKernelAttention (cooperative softmax) to ~1e-3 max-abs
 * (differences: fp32 accumulation order and the split-KV merge).
 *
 * @param q_tile query tile [gq x d], gq <= 16
 * @param cache  packed + residual KV of this head
 * @param scale  logit scale
 * @param pool   optional pool to spread KV chunks over; null = serial
 * @return       [gq x d] output (no padding rows)
 */
Tensor<float> fusedPackedAttention(const Tensor<Half>& q_tile,
                                   const kv::PackedHeadCache& cache,
                                   float scale,
                                   exec::ThreadPool* pool = nullptr);

} // namespace bitdec::core

#endif // BITDEC_CORE_PACKING_KERNEL_H
