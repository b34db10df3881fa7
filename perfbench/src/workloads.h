/**
 * @file
 * Seeded inputs and engine shapes of the benchmark workloads, plus the
 * token-timestamp bookkeeping every workload reports from.
 *
 * All inputs derive from the workload seed alone and are generated
 * before timing starts. Lengths are stratified (one draw per equal slice
 * of the range, shuffled by the seed) so two seeds give traces of the
 * same overall size and shape, and run-to-run figures compare the
 * program rather than the luck of the draw.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "serving/engine.h"
#include "serving/request.h"

namespace perfbench {

/**
 * @p n integers from [lo, hi], one uniform draw inside each of n equal
 * slices of the range, in seeded random order.
 */
std::vector<int> stratified(bitdec::Rng& rng, int n, int lo, int hi);

/** Sorted Poisson arrival times (seconds) at @p rate per second. */
std::vector<double> poissonArrivals(bitdec::Rng& rng, int n, double rate);

// ----------------------------------------------------------- engine shapes

/**
 * bitdec_server's engine shape: page 64, cache_head_dim 4, max_batch 32,
 * prefill_chunk_tokens 2048, BitDecoding-4, pool derived from HBM.
 */
bitdec::serving::EngineConfig serverShape(const std::string& backend);

// ------------------------------------------------------------ workloads

/** longctx-decode: 24K-40K prompts, 128-512 outputs, Poisson arrivals. */
std::vector<bitdec::serving::Request> longctxTrace(std::uint64_t seed);

/** One open-loop wire request: what to send and when it is due. */
struct WireRequest
{
    bitdec::serving::Request req; //!< workload fields; arrival_s = -1 (now)
    double due_s = 0;             //!< offset from the start of sending
};

/**
 * wire-chat: Poisson arrivals at @p rate requests per wall second for
 * @p seconds; 8 prefix families sharing a 2K system prompt, 16-256-token
 * unique tails, 8-128 output tokens.
 */
std::vector<WireRequest> wireSchedule(std::uint64_t seed, double rate,
                                      double seconds);

/** One lowbit-decode chat turn against the long packed context. */
struct Turn
{
    int prompt = 0; //!< user tokens appended before the first output
    int output = 0; //!< tokens generated
};

/**
 * @p n turns of 16-48 prompt tokens (one from each quarter of the range
 * in every block of four turns) and 3 output tokens.
 */
std::vector<Turn> lowbitTurns(std::uint64_t seed, int n);

// ------------------------------------------------- token timestamps

/** Wall timestamps of one request: when it was due and each token. */
struct RequestTiming
{
    std::int64_t due_ns = -1;
    std::int64_t done_ns = -1; //!< last token / DONE frame
    std::vector<std::int64_t> token_ns;
    //! Parks after this many tokens (0 = never): the gap across the park
    //! is idle time, not an inter-token latency.
    int idle_after_tokens = 0;
};

/** Millisecond samples pooled over requests. */
struct LatencySamples
{
    std::vector<double> ttft_ms;    //!< due -> first token
    std::vector<double> latency_ms; //!< due -> done
    std::vector<double> itl_ms;     //!< consecutive tokens, parks excluded
    long tokens = 0;
};

/** Appends @p t's samples (requests without tokens add none). */
void addSamples(const RequestTiming& t, LatencySamples& s);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
