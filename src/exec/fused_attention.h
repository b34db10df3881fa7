/**
 * @file
 * Fused FP16 attention kernels of the CPU execution backend.
 *
 * These are the serving-side hot paths: decode attention straight over the
 * paged KV pool (page-table indirection, no gather copies) and over a
 * contiguous FP16 cache. Both run through the kernel table of the host's
 * enabled SIMD level (exec::simd::enabledLevelCap(), capped by
 * BITDEC_SIMD; scalar is a table like the others) with the 16-lane fold
 * arithmetic of exec/simd/fold16.h, so every level gives the same bytes.
 * KV chunks of a fixed size fold independently (optionally across the
 * thread pool) into one partial each, and the partials merge in chunk
 * order, so results are also bitwise identical for any thread count.
 */
#ifndef BITDEC_EXEC_FUSED_ATTENTION_H
#define BITDEC_EXEC_FUSED_ATTENTION_H

#include <cstddef>
#include <functional>
#include <vector>

#include "common/half.h"
#include "common/tensor.h"
#include "exec/simd/kernel_table.h"
#include "exec/thread_pool.h"
#include "kvcache/kv_cache.h"
#include "kvcache/paged_cache.h"

namespace bitdec::exec {

/** Tokens per split chunk of the contiguous fused path; paged chunks are
 *  one page. Fixed so the merge order never depends on thread count. */
constexpr int kChunkTokens = 128;

/**
 * Per-row split-KV softmax state: running max, exp-sum and unnormalized
 * [gq x d] output.
 */
struct SoftmaxPartial
{
    std::vector<float> m;   //!< per-row running max
    std::vector<float> l;   //!< per-row exp-sum
    std::vector<float> acc; //!< [gq x d] unnormalized output

    /** Resets to the empty state (-inf max, zero sums). */
    void init(int gq, int d);
};

/**
 * The fused path's exp: mul, add and exact conversions only (no FMA, no
 * libm), within 1 ulp of double-precision exp on [-88, 0]. Every exp of
 * the fold, the per-tile rescale and the chunk merge is this function;
 * every level's KernelTable::exp_rows gives the same bits.
 */
float foldExp(float x);

/** Scratch floats one fold of @p tokens tokens and @p gq rows needs. */
std::size_t foldScratchFloats(int gq, int tokens);

/**
 * Converts one token-major Half K/V tile — K into a channel-major float
 * copy, V as stored — and folds it with plain float P (round_p false)
 * through the level table @p kt.
 */
void foldHalfTile(const simd::KernelTable& kt, const float* qf, int gq,
                  int d, const Half* k, const Half* v, int tokens,
                  float scale, float* m, float* l, float* acc);

/**
 * Merges one chunk partial (m, l, acc arrays) into @p run: the split-KV
 * log-sum-exp combine, with foldExp.
 */
void mergePartial(SoftmaxPartial& run, const float* m, const float* l,
                  const float* acc, int gq, int d);

/** Folds chunk @p ci into an empty partial's m, l and acc arrays. */
using ChunkFold =
    std::function<void(std::size_t ci, float* m, float* l, float* acc)>;

/**
 * Folds @p n_chunks chunks into one partial each and merges them in chunk
 * order. Serially (null pool) each partial merges as soon as it
 * completes, in one reused slot; with a pool the chunks fold into one
 * flat buffer and merge afterwards. Same arithmetic either way, and no
 * allocation per chunk.
 */
SoftmaxPartial foldChunks(int gq, int d, std::size_t n_chunks,
                          ThreadPool* pool, const ChunkFold& fold_chunk);

/** Normalizes a merged partial into the [gq x d] attention output. */
Tensor<float> finalizePartial(const SoftmaxPartial& st, int gq, int d);

/**
 * Fused decode attention for one sequence of a paged cache, reading K/V
 * page-by-page in place (the paged kernels' dataflow — no
 * gatherKeys/gatherValues materialization).
 *
 * Matches attn::referenceAttention over the gathered sequence to ~1e-3
 * max-abs (fp32 accumulation order, the fold's exp and split merges are
 * the only differences).
 *
 * @param q     [gq x d] queries
 * @param cache paged FP16 cache
 * @param seq   sequence id
 * @param scale logit scale
 * @param pool  optional pool to spread KV chunks over; null = serial
 */
Tensor<float> fusedPagedAttention(const Tensor<Half>& q,
                                  const kv::PagedHeadCache& cache, int seq,
                                  float scale, ThreadPool* pool = nullptr);

/**
 * Fused decode attention over a contiguous FP16 cache; same chunked
 * online-softmax pipeline as the paged variant.
 */
Tensor<float> fusedFp16Attention(const Tensor<Half>& q,
                                 const kv::Fp16HeadCache& cache, float scale,
                                 ThreadPool* pool = nullptr);

} // namespace bitdec::exec

#endif // BITDEC_EXEC_FUSED_ATTENTION_H
