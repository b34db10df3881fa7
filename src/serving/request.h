/**
 * @file
 * Request lifecycle for the continuous-batching serving engine.
 *
 * A request arrives at a (virtual) wall-clock time with a prompt budget and
 * an output budget, moves QUEUED -> PREFILL -> DECODE -> FINISHED, and may
 * bounce through PREEMPTED when the page pool runs dry. Prefill is chunked:
 * a request can sit in PREFILL for many ticks, loading the scheduler's
 * budget share of its prompt each tick (see TickPlan), while other
 * requests decode in the same ticks. Preemption uses the recompute policy:
 * the sequence's pages are dropped and, on resume, the prompt plus every
 * token generated so far is prefilled again.
 */
#ifndef BITDEC_SERVING_REQUEST_H
#define BITDEC_SERVING_REQUEST_H

#include <cstdint>
#include <limits>

namespace bitdec::serving {

/** Lifecycle state of one request. */
enum class RequestState
{
    Queued,    //!< arrived, waiting for admission
    Prefill,   //!< admitted, prompt tokens entering the KV cache
    Decode,    //!< generating output tokens, one per engine step
    Preempted, //!< pages reclaimed under memory pressure; awaiting resume
    Idle,      //!< parked session: keeps its sequence (pages typically
               //!< offloaded to a cold tier) until idle_wake_s
    Finished,  //!< output budget met; sequence freed
    Canceled,  //!< deadline expired or load-shed; sequence freed, no
               //!< further engine work (graceful degradation)
};

/** Returns a printable state name. */
const char* toString(RequestState state);

/** Why a request was canceled (graceful-degradation bookkeeping). */
enum class CancelCause
{
    None,     //!< not canceled
    Deadline, //!< Request::deadline_s passed before the output completed
    Shed,     //!< admission TTL expired under load (never admitted)
    Client,   //!< canceled through ServingClient::cancel before its run
};

/** Returns a printable cancel-cause name. */
const char* toString(CancelCause cause);

/** One inference request flowing through the engine. */
struct Request
{
    int id = 0;            //!< dense id, also the seed of its token stream
    double arrival_s = 0;  //!< virtual-clock arrival time
    int prompt_tokens = 0; //!< prompt length
    int output_tokens = 0; //!< output budget (decode steps to run)

    /**
     * Non-zero when the first prefix_tokens prompt tokens are a shared
     * system prompt: their content derives from the prefix id's token
     * stream (not the request's), so every request naming the same
     * prefix_id writes byte-identical prefix pages and the scheduler may
     * map already-packed pages instead of re-prefilling them.
     */
    std::uint64_t prefix_id = 0;
    int prefix_tokens = 0; //!< shared-prefix length (<= prompt_tokens)
    int priority = 0;      //!< scheduling priority; higher is more urgent

    /**
     * Idle-session shape: when idle_after_tokens > 0 the request parks
     * (leaves the batch, state IDLE) once that many output tokens have
     * been generated, and resumes at virtual time idle_wake_s. A tiered
     * engine offloads the parked sequence's pages to the cold tiers; an
     * untiered engine keeps them hot until pool pressure drops them
     * (recompute on wake). 0 = never parks.
     */
    int idle_after_tokens = 0;
    double idle_wake_s = -1; //!< wake time of a parked session

    /**
     * Completion deadline (absolute virtual time). A request not
     * FINISHED when the clock passes this is cleanly canceled — removed
     * from the scheduler, pages freed, state CANCELED — at the engine's
     * next scheduling point. <= 0 (the default) means no deadline.
     * Canceled requests do not fold into the run's outputs_digest.
     */
    double deadline_s = -1;

    // --- runtime state, owned by the scheduler/engine ---
    RequestState state = RequestState::Queued;
    int seq = -1;          //!< PagedHeadCache sequence id; -1 when none
    int prefilled = 0;     //!< tokens of the current prefill target in cache
    int generated = 0;     //!< output tokens produced so far
    int preemptions = 0;   //!< times this request lost its pages
    long prefix_hit_tokens = 0; //!< prefill tokens skipped via shared
                                //!< pages, summed over (re-)admissions

    /**
     * Tier-fetch gate: the request may not append before this virtual
     * time — the engine sets it to clock + transfer latency when cold
     * pages are restored for the request (see TieredPagePool::fetchRange),
     * and Scheduler::planTick plans 0 tokens for a still-gated request.
     */
    double fetch_ready_s = -std::numeric_limits<double>::infinity();
    /**
     * True while a demand fetch could not complete because the hot pool
     * had no free pages: the engine counts the missing pages into its
     * preemption demand and retries the fetch once pages free up.
     */
    bool fetch_blocked = false;
    /**
     * Consecutive transient-fault fetch failures (injected transfer
     * failure, timeout or alloc fault). Each failure backs the request
     * off exponentially via fetch_ready_s; the engine resets the counter
     * on a successful fetch and escalates to recompute when it exceeds
     * RetryPolicy::max_fetch_retries.
     */
    int fetch_retries = 0;
    //! Why the request was canceled; None while live or finished.
    CancelCause cancel_cause = CancelCause::None;

    double first_token_s = -1; //!< when the first output token appeared
    double last_token_s = -1;  //!< when the most recent output token
                               //!< appeared; successive gaps are the
                               //!< decode-stall samples (virtual seconds)
    double finish_s = -1;      //!< when the output budget was met
    std::uint64_t output_hash = 0; //!< checksum of the generated KV stream
    std::uint64_t attn_hash = 0;   //!< checksum of per-step attention
                                   //!< outputs (EngineConfig::backend set)

    /**
     * Tokens the current prefill phase must load: the prompt plus, after a
     * preemption, every output token already generated (recompute policy).
     */
    int prefillTarget() const { return prompt_tokens + generated; }

    /** True once the request needs no further engine work. */
    bool done() const
    {
        return state == RequestState::Finished ||
               state == RequestState::Canceled;
    }

    /** End-to-end latency; only valid when done(). */
    double latency() const { return finish_s - arrival_s; }
};

/**
 * Deterministic token-content hash for an arbitrary 64-bit stream id.
 * Shared prefixes are token streams named by their prefix_id, so every
 * request sharing a prefix writes identical prefix content.
 */
std::uint64_t streamSeed(std::uint64_t stream_id, int token_index);

/**
 * Deterministic token-content hash: the K/V vector written for token
 * @p token_index of request @p request_id derives from this value alone, so
 * preempt-and-recompute reproduces the identical cache content.
 */
std::uint64_t tokenSeed(int request_id, int token_index);

/**
 * Content seed of prompt/output position @p pos of request @p r: the
 * shared-prefix stream for pos < prefix_tokens, the request's own stream
 * otherwise. Independent of whether prefix *reuse* is enabled — a cold
 * prefill writes exactly the bytes a prefix hit would have mapped, which
 * is what makes cold-run and hit-run digests comparable.
 */
std::uint64_t contentSeed(const Request& r, int pos);

} // namespace bitdec::serving

#endif // BITDEC_SERVING_REQUEST_H
