#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace bitdec::cluster {

namespace {

/** Field-wise sum of two tier counter blocks. */
kv::TieredStats
operator+(const kv::TieredStats& a, const kv::TieredStats& b)
{
    kv::TieredStats s;
    s.offloaded_pages = a.offloaded_pages + b.offloaded_pages;
    s.fetched_pages = a.fetched_pages + b.fetched_pages;
    s.prefetched_pages = a.prefetched_pages + b.prefetched_pages;
    s.prefetch_hits = a.prefetch_hits + b.prefetch_hits;
    s.spilled_pages = a.spilled_pages + b.spilled_pages;
    s.dropped_pages = a.dropped_pages + b.dropped_pages;
    s.lru_drops = a.lru_drops + b.lru_drops;
    s.transfer_failures = a.transfer_failures + b.transfer_failures;
    s.checksum_failures = a.checksum_failures + b.checksum_failures;
    s.repaired_pages = a.repaired_pages + b.repaired_pages;
    s.hedged_fetches = a.hedged_fetches + b.hedged_fetches;
    return s;
}

/** Field-wise sum of two fault counter blocks. */
fault::FaultStats
operator+(const fault::FaultStats& a, const fault::FaultStats& b)
{
    fault::FaultStats s;
    s.fetch_failures = a.fetch_failures + b.fetch_failures;
    s.latency_spikes = a.latency_spikes + b.latency_spikes;
    s.corrupted_pages = a.corrupted_pages + b.corrupted_pages;
    s.alloc_failures = a.alloc_failures + b.alloc_failures;
    return s;
}

/** Samples behind a (total, mean) pair: total / mean, 0 when empty. */
double
sampleCount(double total, double mean)
{
    return mean > 0 ? total / mean : 0;
}

/** Fresh runtime state: a submit carries only the workload fields. */
serving::Request
sanitized(const serving::Request& r)
{
    serving::Request c;
    c.id = r.id;
    c.arrival_s = r.arrival_s;
    c.prompt_tokens = r.prompt_tokens;
    c.output_tokens = r.output_tokens;
    c.prefix_id = r.prefix_id;
    c.prefix_tokens = r.prefix_tokens;
    c.priority = r.priority;
    c.idle_after_tokens = r.idle_after_tokens;
    c.idle_wake_s = r.idle_wake_s;
    c.deadline_s = r.deadline_s;
    return c;
}

/** The one message a reused request id gets (the wire maps it to
 *  DUPLICATE_ID). */
std::string
duplicateIdError(int id)
{
    return detail::concat("duplicate request id ", id, " submitted");
}

} // namespace

Cluster::Cluster(const sim::GpuArch& arch, const model::ModelConfig& model,
                 const ClusterConfig& cfg)
    : router_([&cfg] {
          RouterConfig rc = cfg.router;
          rc.num_shards = cfg.num_shards; // single source of truth
          return rc;
      }())
{
    shards_.reserve(static_cast<std::size_t>(cfg.num_shards));
    for (int s = 0; s < cfg.num_shards; s++)
        shards_.push_back(
            std::make_unique<serving::Engine>(arch, model, cfg.engine));
}

const Cluster::Placement&
Cluster::place(const serving::Request& r)
{
    const auto [it, fresh] = index_.try_emplace(r.id);
    if (!fresh)
        BITDEC_FATAL(duplicateIdError(r.id));
    it->second = {router_.route(r), store_.size()};
    store_.push_back(sanitized(r));
    return it->second;
}

int
Cluster::submit(const serving::Request& r)
{
    BITDEC_ASSERT(!streaming_, "batch submit while a stream is open");
    place(r);
    return r.id;
}

const serving::Request*
Cluster::poll(int id) const
{
    const auto it = index_.find(id);
    return it == index_.end() ? nullptr : &store_[it->second.slot];
}

bool
Cluster::cancel(int id)
{
    BITDEC_ASSERT(!streaming_, "batch cancel while a stream is open — "
                               "use streamCancel");
    const auto it = index_.find(id);
    if (it == index_.end())
        return false;
    serving::Request& r = store_[it->second.slot];
    if (r.state != serving::RequestState::Queued)
        return false; // already ran (or already canceled)
    r.state = serving::RequestState::Canceled;
    r.cancel_cause = serving::CancelCause::Client;
    canceled_++;
    return true;
}

int
Cluster::shardOf(int id) const
{
    const auto it = index_.find(id);
    return it == index_.end() ? -1 : it->second.shard;
}

serving::ServingMetrics
Cluster::drain()
{
    // The batch face is the stream run of the pending set: streamBegin
    // adds every pending request, and the run ticks to idle exactly as a
    // pumped stream of the same trace would.
    streamBegin();
    while (streamTick()) {
    }
    return streamEnd();
}

ClusterMetrics
Cluster::aggregateRound(
    const std::vector<serving::ServingMetrics>& per_shard) const
{
    const auto n = shards_.size();
    ClusterMetrics out;
    out.per_shard = per_shard;
    out.router = router_.stats();
    if (n == 1) {
        // One engine ran the whole round: its metrics ARE the cluster
        // metrics, bit for bit.
        out.aggregate = per_shard.front();
        return out;
    }

    // Per-shard span of this round on the shared clock: the engine's
    // makespan is (final clock - first arrival), so a shard's absolute
    // end is the first arrival it was given plus its makespan.
    std::vector<double> first_arrival(
        n, std::numeric_limits<double>::infinity());
    std::vector<bool> active(n, false);
    std::vector<const serving::Request*> drained;
    drained.reserve(store_.size() - round_);
    for (std::size_t slot = round_; slot < store_.size(); slot++) {
        const serving::Request& r = store_[slot];
        // Canceled before the round streamed: never reached an engine.
        // An engine stamps finish_s on every cancel it performs, so a
        // request canceled mid-stream counts (its engine saw it arrive).
        if (r.cancel_cause == serving::CancelCause::Client && r.finish_s < 0)
            continue;
        const auto s = static_cast<std::size_t>(index_.at(r.id).shard);
        active[s] = true;
        first_arrival[s] = std::min(first_arrival[s], r.arrival_s);
        drained.push_back(&r);
    }

    int num_active = 0;
    int only_active = -1;
    for (std::size_t s = 0; s < n; s++)
        if (active[s]) {
            num_active++;
            only_active = static_cast<int>(s);
        }

    if (num_active == 0) {
        out.aggregate = serving::ServingMetrics{};
        return out;
    }
    if (num_active == 1) {
        // One shard saw the whole round: its metrics are the cluster's.
        out.aggregate = per_shard[static_cast<std::size_t>(only_active)];
        return out;
    }

    // Cluster makespan on the shared clock: earliest arrival anywhere to
    // the latest shard finish.
    double start = std::numeric_limits<double>::infinity();
    double end = -std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < n; s++) {
        if (!active[s])
            continue;
        start = std::min(start, first_arrival[s]);
        end = std::max(end, first_arrival[s] + per_shard[s].makespan_s);
    }
    const double makespan = end - start;

    // Request-level distributions re-fold exactly from the individual
    // finished requests — TTFT/TPOT/latency percentiles, per-priority
    // TTFT, generated tokens and the XOR outputs digest are not
    // mergeable from per-shard summaries, but the requests themselves
    // are all still at hand.
    serving::MetricsCollector mc;
    for (const serving::Request* r : drained)
        if (r->state == serving::RequestState::Finished)
            mc.onFinish(*r);

    int preemptions = 0;
    long cow = 0;
    long prefill_tokens = 0;
    kv::TieredStats tier;
    fault::FaultStats faults;
    int cold = 0, recompute = 0, retries = 0, recoveries = 0;
    int shed = 0, deadline = 0;
    for (std::size_t s = 0; s < n; s++) {
        const serving::ServingMetrics& m = per_shard[s];
        preemptions += m.preemptions;
        cow += m.cow_copies;
        prefill_tokens += m.prefill_tokens;
        tier = tier + m.tier;
        faults = faults + m.faults_injected;
        cold += m.cold_resumes;
        recompute += m.recompute_resumes;
        retries += m.fetch_retries;
        recoveries += m.recompute_recoveries;
        shed += m.shed_requests;
        deadline += m.deadline_cancels;
    }
    mc.setTierStats(tier, cold, recompute);
    mc.setFaultStats(faults, retries, recoveries, shed, deadline);

    serving::ServingMetrics agg = mc.finalize(makespan, preemptions, cow);
    agg.prefill_tokens = prefill_tokens;
    const double demand =
        static_cast<double>(prefill_tokens + agg.prefix_hit_tokens);
    agg.prefix_hit_rate =
        demand > 0 ? agg.prefix_hit_tokens / demand : 0;

    // Step-weighted rates and stall tails cannot be re-derived from
    // request records; merge the per-shard summaries approximately:
    // means weighted by the time (or samples) behind them, maxima for
    // peaks and distribution tails. Exact per-shard values stay
    // available in clusterMetrics().
    double span_sum = 0, batch_w = 0, util_w = 0;
    double stall_n = 0, stall_w = 0;
    double fetch_n = 0;
    for (std::size_t s = 0; s < n; s++) {
        const serving::ServingMetrics& m = per_shard[s];
        if (!active[s])
            continue;
        span_sum += m.makespan_s;
        batch_w += m.makespan_s * m.avg_decode_batch;
        util_w += m.makespan_s * m.avg_page_utilization;
        agg.peak_page_utilization =
            std::max(agg.peak_page_utilization, m.peak_page_utilization);

        // Generated tokens approximate the decode-gap sample count.
        const double gaps = m.sustained_tokens_per_s * m.makespan_s;
        stall_n += gaps;
        stall_w += gaps * m.decode_stall_mean_s;
        agg.decode_stall_p50_s =
            std::max(agg.decode_stall_p50_s, m.decode_stall_p50_s);
        agg.decode_stall_p99_s =
            std::max(agg.decode_stall_p99_s, m.decode_stall_p99_s);
        agg.decode_stall_max_s =
            std::max(agg.decode_stall_max_s, m.decode_stall_max_s);

        agg.fetch_stall_total_s += m.fetch_stall_total_s;
        fetch_n += sampleCount(m.fetch_stall_total_s, m.fetch_stall_mean_s);
        agg.fetch_stall_p99_s =
            std::max(agg.fetch_stall_p99_s, m.fetch_stall_p99_s);
        agg.fetch_stall_max_s =
            std::max(agg.fetch_stall_max_s, m.fetch_stall_max_s);

        // Shards run concurrently on the shared clock, so resident
        // sequences add up (an upper bound: per-shard peaks need not
        // coincide).
        agg.peak_resident_seqs += m.peak_resident_seqs;

        // Identical tier layouts per shard: capacities and occupancy sum.
        if (agg.tiers.empty()) {
            agg.tiers = m.tiers;
        } else if (!m.tiers.empty()) {
            BITDEC_ASSERT(agg.tiers.size() == m.tiers.size(),
                          "shards disagree on tier layout");
            for (std::size_t t = 0; t < agg.tiers.size(); t++) {
                agg.tiers[t].capacity_pages += m.tiers[t].capacity_pages;
                agg.tiers[t].avg_used_pages += m.tiers[t].avg_used_pages;
                agg.tiers[t].peak_used_pages += m.tiers[t].peak_used_pages;
            }
        }
    }
    if (span_sum > 0) {
        agg.avg_decode_batch = batch_w / span_sum;
        agg.avg_page_utilization = util_w / span_sum;
    }
    if (stall_n > 0)
        agg.decode_stall_mean_s = stall_w / stall_n;
    if (fetch_n > 0)
        agg.fetch_stall_mean_s = agg.fetch_stall_total_s / fetch_n;

    out.aggregate = agg;
    return out;
}

std::string
Cluster::admissionError(const serving::Request& r) const
{
    if (index_.find(r.id) != index_.end())
        return duplicateIdError(r.id);
    // Shards are identical replicas, so any shard's engine answers for
    // the whole cluster.
    return shards_.front()->admissionError(sanitized(r));
}

void
Cluster::streamBegin(serving::TokenSink sink)
{
    BITDEC_ASSERT(!streaming_, "streamBegin while a stream is open");
    streaming_ = true;
    // Every shard streams into the same sink: events from different
    // shards interleave in shared-clock order (see streamTick), events
    // of one request always arrive in index order from its one shard.
    for (const auto& shard : shards_)
        shard->streamBegin(sink);
    // Batch submissions since the last round join the stream; the ones
    // canceled before it never reach an engine.
    for (std::size_t slot = round_; slot < store_.size(); slot++) {
        serving::Request& r = store_[slot];
        if (r.state != serving::RequestState::Canceled)
            shards_[static_cast<std::size_t>(index_.at(r.id).shard)]
                ->streamAdd(&r);
    }
}

int
Cluster::streamSubmit(const serving::Request& r)
{
    BITDEC_ASSERT(streaming_, "streamSubmit without an open stream");
    const Placement& p = place(r);
    shards_[static_cast<std::size_t>(p.shard)]->streamAdd(&store_[p.slot]);
    return r.id;
}

bool
Cluster::streamCancel(int id)
{
    BITDEC_ASSERT(streaming_, "streamCancel without an open stream");
    const auto it = index_.find(id);
    if (it == index_.end() ||
        !shards_[static_cast<std::size_t>(it->second.shard)]->streamCancel(
            id))
        return false;
    canceled_++;
    return true;
}

bool
Cluster::streamTick()
{
    BITDEC_ASSERT(streaming_, "streamTick without an open stream");
    // Advance the non-idle shard whose virtual clock is furthest behind:
    // the deterministic analogue of N replicas running concurrently —
    // token events merge in shared-clock order, ties break by shard
    // index.
    int behind = -1;
    double t = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < shards_.size(); s++) {
        if (shards_[s]->streamIdle())
            continue;
        const double c = shards_[s]->streamClock();
        if (c < t) {
            t = c;
            behind = static_cast<int>(s);
        }
    }
    if (behind < 0)
        return false;
    shards_[static_cast<std::size_t>(behind)]->streamTick();
    return !streamIdle();
}

bool
Cluster::streamIdle() const
{
    for (const auto& shard : shards_)
        if (!shard->streamIdle())
            return false;
    return true;
}

double
Cluster::streamClock() const
{
    // The merged stream sits at the slowest live shard's clock; with
    // everything idle, at the furthest clock any shard reached.
    double live = std::numeric_limits<double>::infinity();
    double done = 0;
    for (const auto& shard : shards_) {
        if (!shard->streamIdle())
            live = std::min(live, shard->streamClock());
        else
            done = std::max(done, shard->streamClock());
    }
    return std::isfinite(live) ? live : done;
}

serving::ServingMetrics
Cluster::streamSnapshot() const
{
    BITDEC_ASSERT(streaming_, "streamSnapshot without an open stream");
    std::vector<serving::ServingMetrics> per_shard(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); s++)
        per_shard[s] = shards_[s]->streamSnapshot();
    return aggregateRound(per_shard).aggregate;
}

serving::ServingMetrics
Cluster::streamEnd()
{
    BITDEC_ASSERT(streaming_, "streamEnd without an open stream");
    std::vector<serving::ServingMetrics> per_shard(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); s++)
        per_shard[s] = shards_[s]->streamEnd();
    last_ = aggregateRound(per_shard);
    for (std::size_t slot = round_; slot < store_.size(); slot++) {
        const serving::Request& r = store_[slot];
        if (r.state == serving::RequestState::Finished)
            finished_++;
        else if (r.state == serving::RequestState::Canceled &&
                 r.cancel_cause != serving::CancelCause::Client)
            canceled_++; // client cancels were counted when they landed
    }
    round_ = store_.size();
    streaming_ = false;
    return last_.aggregate;
}

serving::ClientStats
Cluster::stats() const
{
    serving::ClientStats s;
    s.submitted = static_cast<int>(store_.size());
    for (std::size_t slot = round_; slot < store_.size(); slot++)
        if (!store_[slot].done())
            s.pending++;
    s.finished = finished_;
    s.canceled = canceled_;
    s.shards = static_cast<int>(shards_.size());
    for (const auto& shard : shards_)
        s.total_pool_pages += shard->numPages();
    return s;
}

} // namespace bitdec::cluster

namespace bitdec::serving {

std::unique_ptr<ServingClient>
makeServingClient(const sim::GpuArch& arch, const model::ModelConfig& model,
                  const EngineConfig& cfg, int shards)
{
    cluster::ClusterConfig cc;
    cc.num_shards = shards;
    cc.engine = cfg;
    return std::make_unique<cluster::Cluster>(arch, model, cc);
}

} // namespace bitdec::serving
