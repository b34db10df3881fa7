/**
 * @file
 * Narrow serving-client API: the only seam benches, examples and tests
 * use to drive a serving run.
 *
 * A ServingClient accepts requests (submit), exposes their state
 * (poll), supports pre-run cancellation (cancel), runs everything
 * submitted since the last drain to completion on the virtual clock
 * (drain) and reports queue/pool counters (stats). It deliberately
 * exposes none of the engine's internals — no scheduler, no cache, no
 * clock — so the same driver code runs against one Engine or a sharded
 * cluster unchanged, and shard-count invariance of the run digests is
 * testable the same way thread-count invariance is. Its one
 * implementation is cluster::Cluster (src/cluster/); one engine is a
 * one-shard Cluster.
 *
 * Execution model: the engine's clock is virtual, so a drain is a batch
 * simulation, not a live server — submit stores a copy of the request,
 * drain streams the whole submitted set to completion (streamBegin,
 * tick until idle, streamEnd) and returns the run's ServingMetrics, and
 * poll reads back the final per-request state (timestamps, hashes,
 * cancel cause). Submissions compose across drains: each drain covers
 * the requests submitted since the previous one.
 */
#ifndef BITDEC_SERVING_CLIENT_H
#define BITDEC_SERVING_CLIENT_H

#include <memory>
#include <string>

#include "gpusim/arch.h"
#include "model/model_config.h"
#include "serving/engine.h"
#include "serving/metrics.h"
#include "serving/request.h"

namespace bitdec::serving {

/** Aggregate queue/pool counters a ServingClient reports. */
struct ClientStats
{
    int submitted = 0; //!< requests accepted since construction
    int pending = 0;   //!< submitted but not yet drained (nor canceled)
    int finished = 0;  //!< requests that completed across all drains
    int canceled = 0;  //!< client cancels plus engine-side cancellations
    int shards = 1;    //!< engine replicas behind this client
    int total_pool_pages = 0; //!< hot KV pages across every shard
};

/** The serving seam, implemented by cluster::Cluster at any shard
 *  count. */
class ServingClient
{
  public:
    virtual ~ServingClient() = default;

    /**
     * Accepts a request for the next drain. Only the workload fields
     * are read (id, arrival, lengths, prefix, priority, idle shape,
     * deadline); runtime fields are reset internally. Request ids must
     * be unique across the client's lifetime. @return the request id.
     */
    virtual int submit(const Request& r) = 0;

    /**
     * Read-only view of a submitted request — before its drain the
     * pending copy, afterwards the final state (timestamps, hashes,
     * cancel cause). Null for an unknown id. The pointer stays valid
     * until the client is destroyed.
     */
    virtual const Request* poll(int id) const = 0;

    /**
     * Cancels a pending request before its drain runs: it is marked
     * CANCELED with CancelCause::Client, excluded from the drain and
     * from the run's outputs_digest. @return false when the id is
     * unknown or the request already ran.
     */
    virtual bool cancel(int id) = 0;

    /**
     * Runs every pending request to completion on the virtual clock and
     * returns the run's metrics. Draining with nothing pending returns
     * empty metrics. Results are read back via poll().
     */
    virtual ServingMetrics drain() = 0;

    /** Aggregate counters; callable at any point. */
    virtual ClientStats stats() const = 0;

    // ------------------------------------------------------------------
    // Streaming surface: the incremental twin of drain(). A front end
    // (src/net/) opens a stream once, then interleaves submissions,
    // cancels and ticks while reading token events from the sink — the
    // engine executes the exact same operation sequence as a batch
    // drain, so per-request digests are byte-identical by construction.
    // Batch calls (submit/cancel/drain) and stream calls must not be
    // mixed while a stream is open.
    // ------------------------------------------------------------------

    /**
     * Why a request would be rejected, without terminating the process:
     * the exact message drain()/run() would fail fast with (duplicate
     * id, empty prompt, impossible fit, bad prefix/idle/deadline
     * shape), or an empty string when the request is admissible.
     */
    virtual std::string admissionError(const Request& r) const = 0;

    /**
     * Opens a stream. @p sink (may be empty) observes every generated
     * token as a TokenEvent in deterministic batch order. Requests
     * submitted since the last drain join the stream.
     */
    virtual void streamBegin(TokenSink sink = {}) = 0;

    /**
     * Submits into the open stream. The request joins the run at its
     * arrival time even mid-pump (arrivals in the virtual future).
     * Fails fast on an inadmissible request — call admissionError
     * first to reject gracefully. @return the request id.
     */
    virtual int streamSubmit(const Request& r) = 0;

    /**
     * Cancels a live in-stream request (CancelCause::Client), freeing
     * its pages. @return false when the id is unknown to the stream or
     * the request already finished.
     */
    virtual bool streamCancel(int id) = 0;

    /**
     * Advances the open stream by one scheduler tick; token events fire
     * into the sink as decode progresses. @return false when every
     * submitted request has finished (the stream is idle).
     */
    virtual bool streamTick() = 0;

    /** True when the open stream has no unfinished requests. */
    virtual bool streamIdle() const = 0;

    /** The stream's virtual clock (next arrival before the first tick). */
    virtual double streamClock() const = 0;

    /** Metrics of the stream so far, without closing it. */
    virtual ServingMetrics streamSnapshot() const = 0;

    /**
     * Closes the stream and returns its metrics; requires streamIdle()
     * (pump streamTick() or cancel stragglers first). Results are read
     * back via poll(), same as after a drain.
     */
    virtual ServingMetrics streamEnd() = 0;
};

/**
 * Factory for the common driver pattern: a Cluster (src/cluster/) of
 * @p shards full Engine replicas (one included), each configured with
 * @p cfg, fronted by the default sticky prefix-aware router.
 */
std::unique_ptr<ServingClient>
makeServingClient(const sim::GpuArch& arch, const model::ModelConfig& model,
                  const EngineConfig& cfg, int shards = 1);

} // namespace bitdec::serving

#endif // BITDEC_SERVING_CLIENT_H
