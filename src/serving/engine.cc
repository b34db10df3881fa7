#include "serving/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "backend/registry.h"
#include "common/logging.h"

namespace bitdec::serving {

namespace {

/** Half in [-1, 1) derived from 8 bits of a token seed. */
Half
seedHalf(std::uint64_t seed, int lane)
{
    const auto byte = static_cast<double>((seed >> (8 * (lane % 8))) & 0xFF);
    return Half(static_cast<float>(byte / 128.0 - 1.0));
}

/** Token @p pos of @p r as seeded K and V rows of @p dim halves each —
 *  the bytes a prefill appends and a rot-hole rebuild restores. */
void
seedKvRow(const Request& r, int pos, int dim, Half* k, Half* v)
{
    const std::uint64_t seed = contentSeed(r, pos);
    for (int d = 0; d < dim; d++) {
        k[d] = seedHalf(seed, d);
        v[d] = seedHalf(~seed, d);
    }
}

/** FNV-1a fold of a key row's bit patterns. */
std::uint64_t
hashKeyRow(const std::vector<Half>& row)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const Half& x : row) {
        h ^= x.bits();
        h *= 0x100000001B3ull;
    }
    return h;
}

} // namespace

void
EngineConfig::validate() const
{
    if (page_size < 1)
        BITDEC_FATAL("EngineConfig.page_size must be >= 1, got ",
                     page_size);
    if (num_pages < 0)
        BITDEC_FATAL("EngineConfig.num_pages must be >= 0 (0 derives "
                     "from device HBM), got ",
                     num_pages);
    if (cache_head_dim < 1)
        BITDEC_FATAL("EngineConfig.cache_head_dim must be >= 1, got ",
                     cache_head_dim);
    if (max_clock_s <= 0)
        BITDEC_FATAL("EngineConfig.max_clock_s must be > 0, got ",
                     max_clock_s);
    if (system == model::SystemKind::FlashDecodingFp16) {
        if (bits != 16)
            BITDEC_FATAL("EngineConfig.bits must be 16 for ",
                         model::toString(system), ", got ", bits,
                         " (set system to a low-bit kind or bits to 16)");
    } else if (bits != 2 && bits != 4 && bits != 8) {
        BITDEC_FATAL("EngineConfig.bits must be 2, 4 or 8 for ",
                     model::toString(system), ", got ", bits);
    }
    if (sched.max_batch < 1)
        BITDEC_FATAL("SchedulerConfig.max_batch must be >= 1, got ",
                     sched.max_batch);
    if (sched.reserve_pages < 0)
        BITDEC_FATAL("SchedulerConfig.reserve_pages must be >= 0, got ",
                     sched.reserve_pages);
    if (sched.prefill_chunk_tokens < 0)
        BITDEC_FATAL("SchedulerConfig.prefill_chunk_tokens must be >= 0 "
                     "(0 = monolithic prefill), got ",
                     sched.prefill_chunk_tokens);
    if (sched.aging_rate < 0)
        BITDEC_FATAL("SchedulerConfig.aging_rate must be >= 0, got ",
                     sched.aging_rate);
    if (sched.shed_after_s <= 0)
        BITDEC_FATAL("SchedulerConfig.shed_after_s must be > 0 "
                     "(infinity disables shedding), got ",
                     sched.shed_after_s);
    if (tiered.prefetch_pages < 0)
        BITDEC_FATAL("TieredConfig.prefetch_pages must be >= 0, got ",
                     tiered.prefetch_pages);
    if (tiered.fetch_timeout_s <= 0)
        BITDEC_FATAL("TieredConfig.fetch_timeout_s must be > 0 "
                     "(infinity disables the timeout), got ",
                     tiered.fetch_timeout_s);
    for (const kv::TierSpec& t : tiered.tiers) {
        if (t.capacity_gb <= 0 || t.bandwidth_gbps <= 0 || t.latency_s < 0)
            BITDEC_FATAL("TierSpec '", t.name,
                         "' needs capacity_gb > 0, bandwidth_gbps > 0 "
                         "and latency_s >= 0 (got ",
                         t.capacity_gb, " GB, ", t.bandwidth_gbps,
                         " GB/s, ", t.latency_s, " s)");
    }
    // Faults fire only on the tiered transfer/offload paths: a storm
    // with no tiers underneath would silently never inject anything —
    // the contradictory combo this check turns into a loud error.
    if (!faults.empty() && tiered.tiers.empty())
        BITDEC_FATAL("EngineConfig.faults is set but TieredConfig.tiers "
                     "is empty: faults fire on tiered transfer paths, so "
                     "this storm would never inject (add a tier or clear "
                     "the schedule)");
    if (retry.max_fetch_retries < 0)
        BITDEC_FATAL("RetryPolicy.max_fetch_retries must be >= 0, got ",
                     retry.max_fetch_retries);
    if (retry.backoff_base_s < 0 || retry.backoff_mult < 1 ||
        retry.backoff_max_s < 0)
        BITDEC_FATAL("RetryPolicy backoff needs base >= 0, mult >= 1, "
                     "max >= 0 (got ",
                     retry.backoff_base_s, ", ", retry.backoff_mult, ", ",
                     retry.backoff_max_s, ")");
}

int
Engine::derivePoolPages(const sim::GpuArch& arch,
                        const model::ModelConfig& model,
                        const EngineConfig& cfg)
{
    model::E2EConfig e2e;
    e2e.system = cfg.system;
    e2e.bits = cfg.bits;
    const double budget =
        arch.hbm_gb * 1e9 -
        model::nonKvMemoryBytes(model, cfg.sched.max_batch, e2e);
    BITDEC_ASSERT(budget > 0, "model does not fit on ", arch.name);

    double bytes_per_token = model.kvBytesFp16(1);
    if (cfg.system != model::SystemKind::FlashDecodingFp16)
        bytes_per_token *= static_cast<double>(cfg.bits) / 16.0;
    const double tokens = budget / bytes_per_token;
    return std::max(1, static_cast<int>(tokens) / cfg.page_size);
}

kv::TieredConfig
Engine::resolvedTieredConfig() const
{
    kv::TieredConfig t = cfg_.tiered;
    if (!t.tiers.empty() && t.bytes_per_page <= 0) {
        // Packed page size: what actually crosses tiers is the low-bit
        // payload, so a 4-bit page is 4x denser than FP16 and the cold
        // tiers hold 4x the tokens per byte.
        double bytes_per_token = model_.kvBytesFp16(1);
        if (cfg_.system != model::SystemKind::FlashDecodingFp16)
            bytes_per_token *= static_cast<double>(cfg_.bits) / 16.0;
        t.bytes_per_page = bytes_per_token * cfg_.page_size;
    }
    return t;
}

namespace {

/** Validation gate for the ctor's initializer list: runs before any
 *  member (cache, pool, scheduler) consumes a field. */
const EngineConfig&
validated(const EngineConfig& cfg)
{
    cfg.validate();
    return cfg;
}

} // namespace

Engine::Engine(const sim::GpuArch& arch, const model::ModelConfig& model,
               const EngineConfig& cfg)
    : arch_(arch),
      model_(model),
      cfg_(validated(cfg)),
      cache_(cfg.cache_head_dim, cfg.page_size,
             cfg.num_pages > 0 ? cfg.num_pages
                               : derivePoolPages(arch, model, cfg)),
      pool_(cache_, resolvedTieredConfig()),
      sched_(cfg.sched),
      injector_(cfg.faults, cfg.fault_seed)
{
    pool_.setFaultInjector(&injector_);
    e2e_.system = cfg_.system;
    e2e_.bits = cfg_.bits;
    e2e_.scenario = attn::Scenario::Serving;
    e2e_.page_size = cfg_.page_size;

    if (!cfg_.backend.empty()) {
        // Fail fast: an unknown name dies here listing every registered
        // backend, and a backend that cannot traverse the engine's paged
        // FP16 cache is rejected with its capability line — never a
        // silent fallback to some default path.
        backend::AttentionBackend& be =
            backend::BackendRegistry::instance().resolve(cfg_.backend);
        backend::requireServingCapable(be);
        attn_backend_ = &be;
    }
}

void
Engine::appendToken(Request& r, int pos)
{
    // Shared-prefix positions draw from the prefix stream, so a cold
    // prefill writes the exact bytes a prefix hit maps.
    std::vector<Half> k(static_cast<std::size_t>(cfg_.cache_head_dim));
    std::vector<Half> v(static_cast<std::size_t>(cfg_.cache_head_dim));
    seedKvRow(r, pos, cfg_.cache_head_dim, k.data(), v.data());
    const bool ok = cache_.append(r.seq, k, v);
    BITDEC_ASSERT(ok, "append OOM after headroom planning");
}

double
Engine::stepLatency(int decode_batch, long decode_len_sum,
                    int prefill_tokens) const
{
    double t = 0;
    if (decode_batch > 0) {
        const int mean_len = static_cast<int>(
            decode_len_sum / decode_batch);
        t += model::decodeStepTime(arch_, model_, std::max(1, mean_len),
                                   decode_batch, e2e_)
                 .total_s;
    }
    if (prefill_tokens > 0) {
        // Compute-bound prefill: ~2 FLOPs per parameter per token.
        t += prefill_tokens * 2.0 * model_.params / arch_.tcFlops(16);
    }
    // A tick never takes less than one kernel launch.
    return std::max(t, arch_.launch_overhead_us * 1e-6);
}

std::vector<int>
Engine::runningSeqs() const
{
    std::vector<int> seqs;
    for (const Request* r : sched_.running())
        if (r->seq >= 0)
            seqs.push_back(r->seq);
    return seqs;
}

void
Engine::dropToRecompute(Request& r)
{
    BITDEC_ASSERT(r.seq >= 0, "recompute without a sequence");
    pool_.forgetSequence(r.seq);
    cache_.removeSequence(r.seq);
    r.seq = cache_.addSequence();
    r.prefilled = 0;
    r.state = RequestState::Prefill;
    r.fetch_blocked = false;
    r.fetch_retries = 0;
    r.fetch_ready_s = -std::numeric_limits<double>::infinity();
    recompute_resumes_++;
}

void
Engine::cancelRequest(Request& r, CancelCause cause, double now)
{
    sched_.remove(&r);
    if (r.seq >= 0) {
        pool_.forgetSequence(r.seq);
        cache_.removeSequence(r.seq);
        r.seq = -1;
    }
    r.state = RequestState::Canceled;
    r.cancel_cause = cause;
    r.finish_s = now;
    if (cause == CancelCause::Deadline)
        deadline_cancels_++;
    else if (cause == CancelCause::Shed)
        shed_requests_++;
}

int
Engine::ensureResident(Request& r, double now, MetricsCollector& mc)
{
    r.fetch_blocked = false;
    if (!pool_.enabled() || r.seq < 0 || !pool_.tracked(r.seq))
        return 0;
    if (cache_.missingPages(r.seq) == 0) {
        // Fully resident already (possibly via earlier prefetches).
        r.fetch_retries = 0;
        if (pool_.takeResumeMark(r.seq))
            cold_resumes_++;
        return 0;
    }
    if (pool_.contentLost(r.seq)) {
        // Cold payload was discarded under capacity pressure: recompute
        // from the request seeds — byte-identical by construction.
        dropToRecompute(r);
        return 0;
    }
    if (r.fetch_ready_s > now)
        return 0; // backing off a failed fetch: planTick gates the request
    const int len = cache_.length(r.seq);
    const int ps = cfg_.page_size;
    int first_page = 0;
    int last_page = -1;
    if (r.state == RequestState::Decode) {
        // Attention traverses the whole sequence: gate on full residency.
        last_page = (len - 1) / ps;
    } else if (len % ps != 0 && !cache_.pageResident(r.seq, len / ps)) {
        // Prefill appends into the partial last page only; earlier cold
        // pages ride the prefetch lookahead now and the decode gate later.
        first_page = last_page = len / ps;
    }
    if (last_page < 0 ||
        cache_.missingPages(r.seq, first_page, last_page) == 0)
        return 0;
    const kv::FetchResult fr = pool_.fetchRange(
        r.seq, first_page * ps, std::min(len - 1, last_page * ps + ps - 1),
        now);
    if (fr.latency_s > 0) {
        r.fetch_ready_s = std::max(r.fetch_ready_s, now + fr.latency_s);
        mc.onFetchStall(fr.latency_s);
    }
    if (fr.status == kv::CacheStatus::ContentLost) {
        // The whole cold payload was discarded under capacity pressure:
        // recompute from the request seeds — byte-identical by
        // construction.
        dropToRecompute(r);
        return 0;
    }
    // Rebuild rot holes: a page that is neither hot-resident nor cold
    // lost its payload to uncorrectable corruption. Every surviving page
    // is checksum-verified good, so only the holes are recomputed — one
    // chunk-sized re-prefill against the restored prefix, charged on the
    // virtual clock, instead of dropping the whole sequence. The rebuilt
    // bytes equal the originals (seed-derived), so digests never move.
    int rebuilt_tokens = 0;
    bool rebuild_oom = false;
    const std::size_t row = static_cast<std::size_t>(cfg_.cache_head_dim);
    for (int i = first_page; i <= last_page && !rebuild_oom; i++) {
        if (cache_.pageResident(r.seq, i) || pool_.coldHas(r.seq, i))
            continue;
        const int page_tokens = std::min(len - i * ps, ps);
        std::vector<Half> k(static_cast<std::size_t>(ps) * row);
        std::vector<Half> v(static_cast<std::size_t>(ps) * row);
        for (int t = 0; t < page_tokens; t++)
            seedKvRow(r, i * ps + t, cfg_.cache_head_dim,
                      k.data() + static_cast<std::size_t>(t) * row,
                      v.data() + static_cast<std::size_t>(t) * row);
        if (cache_.restorePage(r.seq, i, k.data(), v.data()) !=
            kv::CacheStatus::Ok)
            rebuild_oom = true; // pool dry: free pages below, retry
        else
            rebuilt_tokens += page_tokens;
    }
    if (rebuilt_tokens > 0) {
        recompute_recoveries_++;
        const double cost =
            rebuilt_tokens * 2.0 * model_.params / arch_.tcFlops(16);
        r.fetch_ready_s = std::max(r.fetch_ready_s, now + cost);
        mc.onFetchStall(cost);
    }
    bool cold_left = false;
    for (int i = first_page; i <= last_page && !cold_left; i++)
        cold_left = pool_.coldHas(r.seq, i);
    if (fr.status == kv::CacheStatus::TransientFault ||
        (fr.status == kv::CacheStatus::CorruptionDetected && cold_left)) {
        // Failed or timed-out transfer (possibly alongside rebuilt rot
        // holes — corruption outranks TransientFault in the result):
        // back off exponentially on the virtual clock, escalate to
        // recompute once retries run out. The budget counts
        // *consecutive zero-progress* attempts — a long multi-page
        // fetch that restores a few pages per attempt is draining the
        // cold set, not stuck, and must not exhaust it.
        if (fr.restored > 0 || rebuilt_tokens > 0)
            r.fetch_retries = 0;
        r.fetch_retries++;
        fetch_retries_++;
        if (r.fetch_retries > cfg_.retry.max_fetch_retries) {
            warn("serving: request ", r.id, " exhausted ",
                 cfg_.retry.max_fetch_retries,
                 " fetch retries — recomputing from seeds");
            recompute_recoveries_++;
            dropToRecompute(r);
            return 0;
        }
        r.fetch_ready_s =
            std::max(r.fetch_ready_s,
                     now + fault::backoffDelay(cfg_.retry, r.fetch_retries));
        return 0;
    }
    const int missing = cache_.missingPages(r.seq, first_page, last_page);
    if (missing > 0) {
        // Hot pool ran dry mid-restore: report the shortfall so the
        // preemption loop frees pages, then the fetch retries.
        r.fetch_blocked = true;
        return missing;
    }
    r.fetch_retries = 0;
    if (pool_.takeResumeMark(r.seq))
        cold_resumes_++;
    return 0;
}

bool
Engine::evictIdleVictim(double now)
{
    // Least-recently-active parked session whose pages would actually
    // free hot pool (refcount-1, still-resident pages).
    Request* victim = nullptr;
    for (Request* r : sched_.idleParked()) {
        if (r->seq < 0 || cache_.reclaimablePages(r->seq) == 0)
            continue;
        if (victim == nullptr || r->last_token_s < victim->last_token_s)
            victim = r;
    }
    if (victim == nullptr)
        return false;
    if (pool_.enabled())
        return pool_.offloadSequence(victim->seq, now, runningSeqs())
                   .moved > 0;
    // Untiered fallback: drop the parked pages outright; the session
    // recomputes its context from seeds on wake (digest-identical).
    cache_.removeSequence(victim->seq);
    victim->seq = -1;
    victim->prefilled = 0;
    recompute_resumes_++;
    return true;
}

std::string
Engine::admissionError(const Request& r) const
{
    // The tick and the next-event search assume every time is finite and
    // inside the clock's range.
    for (const auto& [name, t] : {std::pair{"arrival_s", r.arrival_s},
                                  std::pair{"idle_wake_s", r.idle_wake_s},
                                  std::pair{"deadline_s", r.deadline_s}})
        if (!std::isfinite(t) || t >= cfg_.max_clock_s)
            return detail::concat("request ", r.id, " has ", name, " ", t,
                                  " s; times must be finite and before "
                                  "max_clock_s (",
                                  cfg_.max_clock_s, " s)");
    if (r.prompt_tokens < 1 || r.output_tokens < 1)
        return detail::concat("request ", r.id,
                              " needs a non-empty prompt and "
                              "output budget (got ",
                              r.prompt_tokens, "/", r.output_tokens, ")");
    if (r.prefix_tokens < 0 || r.prefix_tokens > r.prompt_tokens ||
        (r.prefix_tokens > 0 && r.prefix_id == 0))
        return detail::concat("request ", r.id,
                              " has an invalid shared prefix (",
                              r.prefix_tokens, " of ", r.prompt_tokens,
                              " prompt tokens, id ", r.prefix_id, ")");
    // Token and page counts in 64 bits: a prompt near INT_MAX must not
    // wrap into a request that seems to fit.
    const std::int64_t tokens =
        std::int64_t{r.prompt_tokens} + std::int64_t{r.output_tokens};
    if (tokens > std::numeric_limits<int>::max())
        return detail::concat("request ", r.id, " (", r.prompt_tokens, "+",
                              r.output_tokens,
                              " tokens) overflows the int token count");
    const std::int64_t page = cfg_.page_size;
    if ((tokens + page - 1) / page + cfg_.sched.reserve_pages >
        cache_.totalPages())
        return detail::concat("request ", r.id, " (", r.prompt_tokens, "+",
                              r.output_tokens,
                              " tokens) can never fit the page pool of ",
                              cache_.totalPages(), " pages");
    if (r.idle_after_tokens > 0 &&
        (r.idle_after_tokens >= r.output_tokens || r.idle_wake_s < 0))
        return detail::concat("request ", r.id, " parks after ",
                              r.idle_after_tokens, " of ", r.output_tokens,
                              " output tokens with wake time ",
                              r.idle_wake_s,
                              " — idle sessions need tokens left to "
                              "generate and a non-negative wake time");
    if (r.deadline_s > 0 && r.deadline_s <= r.arrival_s)
        return detail::concat("request ", r.id, " has deadline ",
                              r.deadline_s, " s at or before its arrival ",
                              r.arrival_s, " s");
    return "";
}

double
Engine::nextEventTime(double now) const
{
    // The next arrival, idle wake, shed deadline or pending completion
    // deadline (cancellations are scheduling events, so the jump must not
    // skip past one), or a runner's in-flight fetch becoming ready.
    double t = std::min(sched_.nextIdleWake(), sched_.nextShedDeadline());
    if (next_arrival_ < live_.size())
        t = std::min(t, live_[next_arrival_]->arrival_s);
    for (const Request* r : live_)
        if (!r->done() && r->deadline_s > 0)
            t = std::min(t, r->deadline_s);
    for (const Request* r : sched_.running())
        if (r->fetch_ready_s > now)
            t = std::min(t, r->fetch_ready_s);
    BITDEC_ASSERT(std::isfinite(t), "engine stalled with nothing to wait for");
    return std::max(now, t);
}

void
Engine::streamBegin(TokenSink sink)
{
    BITDEC_ASSERT(!stream_active_, "streamBegin during an active stream");
    BITDEC_ASSERT(sched_.idle(),
                  "streamBegin with work left in the scheduler");
    stream_active_ = true;
    sink_ = std::move(sink);
    live_.clear();
    next_arrival_ = 0;
    finished_ = 0;
    clock_ = 0;
    clock_started_ = false;
    first_arrival_ = std::numeric_limits<double>::infinity();
    mc_ = MetricsCollector{};
}

void
Engine::streamAdd(Request* r)
{
    BITDEC_ASSERT(stream_active_, "streamAdd outside an active stream");
    const std::string err = admissionError(*r);
    if (!err.empty())
        BITDEC_FATAL(err);
    // Keep the not-yet-enqueued tail of live_ sorted by arrival (stable
    // for ties): mid-run submissions slot in exactly where a batch run
    // would have ordered them, so the two modes tick identically.
    const auto tail = live_.begin() + static_cast<std::ptrdiff_t>(
                                          next_arrival_);
    const auto it =
        std::upper_bound(tail, live_.end(), r,
                         [](const Request* a, const Request* b) {
                             return a->arrival_s < b->arrival_s;
                         });
    live_.insert(it, r);
    first_arrival_ = std::min(first_arrival_, r->arrival_s);
}

bool
Engine::streamCancel(int id)
{
    BITDEC_ASSERT(stream_active_, "streamCancel outside an active stream");
    for (Request* r : live_) {
        if (r->id != id)
            continue;
        if (r->done())
            return false;
        cancelRequest(*r, CancelCause::Client, clock_);
        finished_++;
        return true;
    }
    return false;
}

bool
Engine::streamIdle() const
{
    return !stream_active_ ||
           finished_ == static_cast<int>(live_.size());
}

double
Engine::streamClock() const
{
    if (!clock_started_ && next_arrival_ < live_.size())
        return live_[next_arrival_]->arrival_s;
    return clock_;
}

void
Engine::dropDone()
{
    // Finished and canceled requests hold no sequence and no pending
    // deadline, so no walk of live_ needs them. Only the tail not yet
    // enqueued keeps its done entries (requests canceled before their
    // arrival tick); the enqueue loop steps over those.
    const auto enqueued = live_.begin() + static_cast<std::ptrdiff_t>(
                                              next_arrival_);
    const auto kept = std::remove_if(
        live_.begin(), enqueued, [](const Request* r) { return r->done(); });
    const auto dropped = static_cast<std::size_t>(enqueued - kept);
    live_.erase(kept, enqueued);
    next_arrival_ -= dropped;
    finished_ -= static_cast<int>(dropped);
}

bool
Engine::streamTick()
{
    BITDEC_ASSERT(stream_active_, "streamTick outside an active stream");
    // A server's stream never closes: without the drop, every walk of
    // live_ below would cover each request the stream has ever seen.
    dropDone();
    if (streamIdle())
        return false;
    if (!clock_started_) {
        clock_ = live_[next_arrival_]->arrival_s;
        clock_started_ = true;
    }
    {
        double& clock = clock_;
        MetricsCollector& mc = mc_;

        while (next_arrival_ < live_.size() &&
               live_[next_arrival_]->arrival_s <= clock) {
            Request* r = live_[next_arrival_++];
            if (!r->done()) // client-canceled before its arrival tick
                sched_.enqueue(r);
        }
        sched_.wakeIdle(clock);
        // Graceful degradation first: cancel requests whose deadline has
        // passed and shed arrivals the admission TTL gave up on, so the
        // batch and the pool never carry work nobody is waiting for.
        // (A deadline is validated to lie after its arrival, so every
        // expired request has already been enqueued.)
        for (Request* r : live_) {
            if (r->done() || r->deadline_s <= 0 || clock < r->deadline_s)
                continue;
            cancelRequest(*r, CancelCause::Deadline, clock);
            finished_++;
        }
        for (Request* r : sched_.shedCandidates(clock)) {
            cancelRequest(*r, CancelCause::Shed, clock);
            finished_++;
        }
        sched_.admit(cache_, clock);
        // An empty batch with waiters can mean the prefix index pins so
        // many pages the head does not fit: evict unmapped prefixes and
        // retry admission before jumping the clock. Parked idle sessions
        // can pin the pool the same way (untiered runs keep their pages
        // hot): evict them one by one until the head admits.
        if (sched_.running().empty() && sched_.waitingCount() > 0 &&
            cache_.releaseUnusedPrefixes() > 0)
            sched_.admit(cache_, clock);
        while (sched_.running().empty() && sched_.waitingCount() > 0 &&
               evictIdleVictim(clock))
            sched_.admit(cache_, clock);

        if (sched_.running().empty()) {
            clock = nextEventTime(clock);
            return true;
        }

        // Plan this tick's appends under the unified token budget;
        // preempt (policy order, reclaimable victims only) until they
        // fit, evicting unused shared prefixes before giving up. The
        // plan is recomputed after every preemption: the victim's
        // appends leave the demand and its budget share flows to the
        // surviving prefills.
        TickPlan plan;
        for (;;) {
            // Resolve tier residency first: demand-fetch the cold pages
            // gating each runner (charging transfer latency on its
            // fetch_ready_s gate); pages a fetch could not restore for
            // lack of hot-pool room join this step's page demand.
            int fetch_backlog = 0;
            for (Request* r : sched_.running())
                fetch_backlog += ensureResident(*r, clock, mc);
            plan = sched_.planTick(clock);
            const std::vector<Request*>& run = sched_.running();
            int pages_needed = fetch_backlog;
            for (std::size_t i = 0; i < run.size(); i++)
                pages_needed +=
                    cache_.pagesNeededForAppend(run[i]->seq, plan.tokens[i]);
            if (pages_needed <= cache_.freePages())
                break;
            // Free pages, cheapest victims first: parked idle sessions
            // nobody is waiting on, then a running victim, then the
            // prefix index.
            if (evictIdleVictim(clock))
                continue;
            Request* victim = sched_.running().size() > 1
                                  ? sched_.preemptVictim(cache_)
                                  : nullptr;
            if (victim == nullptr) {
                // A single running request can't be preempted: reclaim
                // prefix pages nobody maps, then fall back to hard
                // eviction of the whole index and re-plan. Hard eviction
                // makes progress even when it frees no pages outright —
                // dropping the index's references un-shares the runner's
                // partial page, removing a planned CoW copy from the
                // step's demand.
                if (cache_.releaseUnusedPrefixes() > 0)
                    continue;
                if (cache_.numPrefixes() > 0) {
                    cache_.releaseAllPrefixes();
                    continue;
                }
                // Last resort: a runner blocked on its own resume fetch
                // while the pool is exhausted — recompute it from seeds
                // (frees its resident pages, keeps digests intact).
                Request* blocked = nullptr;
                for (Request* r : sched_.running())
                    if (r->fetch_blocked)
                        blocked = r;
                BITDEC_ASSERT(blocked != nullptr,
                              "page pool exhausted with no reclaimable "
                              "victim and no evictable prefix");
                dropToRecompute(*blocked);
                continue;
            }
            if (pool_.enabled()) {
                // Preempt -> offload: the victim's sequence survives in
                // the cold tiers and resumes digest-identical, no
                // recompute. Write-back is off the critical path (the
                // victim is leaving the batch), so no clock charge here;
                // the resume fetch pays the read latency.
                const int seq = victim->seq;
                sched_.preempt(victim, cache_, /*keep_pages=*/true);
                pool_.offloadSequence(seq, clock, runningSeqs());
            } else {
                sched_.preempt(victim, cache_);
            }
        }

        // Every runner gated on an in-flight tier fetch: nothing can
        // append, so jump the clock to the earliest fetch-ready time
        // (or the next arrival/wake) instead of spinning.
        if (plan.decode_batch == 0 && plan.prefill_tokens == 0) {
            clock = nextEventTime(clock);
            return true;
        }

        // Execute the planned appends: budgeted prefill chunks and decode
        // tokens interleave inside the same tick (hybrid batching).
        long decode_len_sum = 0;
        const std::vector<Request*> batch = sched_.running();
        std::vector<Request*> decoded;
        std::vector<std::uint64_t> folds; // parallel to decoded, for sink_
        for (std::size_t bi = 0; bi < batch.size(); bi++) {
            Request* r = batch[bi];
            if (r->state == RequestState::Prefill) {
                const int chunk = plan.tokens[bi];
                for (int i = 0; i < chunk; i++)
                    appendToken(*r, r->prefilled + i);
                r->prefilled += chunk;
                // Chunk-aware publication: the first request whose chunk
                // crosses the shared-prefix boundary publishes the packed
                // pages immediately — mid-prefill, possibly mid-page —
                // so followers map them while the publisher is still
                // loading its unique tail (no-op when already published;
                // republishes after an index eviction).
                if (cfg_.sched.prefix_reuse && r->prefix_id != 0 &&
                    r->prefix_tokens > 0 &&
                    r->prefilled >= r->prefix_tokens &&
                    cache_.prefixTokens(r->prefix_id) == 0 &&
                    cache_.missingPages(
                        r->seq, 0, cache_.pagesFor(r->prefix_tokens) - 1) ==
                        0)
                    cache_.publishPrefix(r->prefix_id, r->seq,
                                         r->prefix_tokens);
                if (r->prefilled == r->prefillTarget())
                    r->state = RequestState::Decode;
            } else if (plan.tokens[bi] > 0) {
                const int pos = r->prompt_tokens + r->generated;
                appendToken(*r, pos);
                // Fold the previously cached key row into the output: the
                // digest then certifies that preempt-and-recompute restored
                // the exact cache content, not just the right lengths.
                const std::uint64_t ctx =
                    hashKeyRow(cache_.tokenKey(r->seq, pos - 1));
                const std::uint64_t fold = tokenSeed(r->id, pos) ^ ctx;
                r->output_hash = r->output_hash * 0x100000001B3ull ^ fold;
                folds.push_back(fold);
                r->generated++;
                decode_len_sum += pos + 1;
                decoded.push_back(r);
                // The decode step read the whole sequence: refresh the
                // tier LRU clock and credit prefetched pages their hit.
                pool_.touchRange(r->seq, 0, pos, clock);
            }
        }

        // Functional per-step attention: one backend decode batch over
        // each decoding sequence's page table, resolved by name through
        // the registry. Digests are folded sequentially in batch order,
        // so the hashes are identical for any thread count.
        if (attn_backend_ != nullptr && !decoded.empty()) {
            const float scale =
                1.0f / std::sqrt(static_cast<float>(cfg_.cache_head_dim));
            std::vector<Tensor<Half>> qs;
            qs.reserve(decoded.size());
            backend::DecodeBatch b;
            b.scale = scale;
            b.pool = cfg_.pool;
            for (const Request* r : decoded) {
                const int pos = r->prompt_tokens + r->generated - 1;
                const std::uint64_t seed =
                    tokenSeed(r->id, pos) ^ 0x5DEECE66Dull;
                Tensor<Half> q({1, static_cast<std::size_t>(
                                       cfg_.cache_head_dim)});
                for (int d = 0; d < cfg_.cache_head_dim; d++)
                    q.at(0, static_cast<std::size_t>(d)) = seedHalf(seed, d);
                qs.push_back(std::move(q));
            }
            for (std::size_t i = 0; i < decoded.size(); i++)
                b.items.push_back(
                    backend::pagedItem(qs[i], cache_, decoded[i]->seq));
            const std::vector<Tensor<float>> outs =
                attn_backend_->decodeStep(b);
            for (std::size_t i = 0; i < decoded.size(); i++)
                decoded[i]->attn_hash =
                    decoded[i]->attn_hash * 0x100000001B3ull ^
                    backend::fnv1aFold(outs[i], backend::kFnvOffset);
        }

        const double step_s = stepLatency(plan.decode_batch, decode_len_sum,
                                          plan.prefill_tokens);
        clock += step_s;
        BITDEC_ASSERT(clock < cfg_.max_clock_s,
                      "virtual clock exceeded max_clock_s");

        // Decode-stall samples: the gap between a request's consecutive
        // output tokens. A tick that also carried a huge prefill chunk
        // (or a preemption requeue) shows up here as a long gap.
        for (Request* r : decoded) {
            if (r->last_token_s >= 0)
                mc.onDecodeGap(clock - r->last_token_s);
            r->last_token_s = clock;
        }

        // Emit token events in batch order once the step's clock is
        // final — a streaming front end sees each token stamped with
        // the virtual time it became available.
        if (sink_) {
            for (std::size_t i = 0; i < decoded.size(); i++) {
                TokenEvent ev;
                ev.request_id = decoded[i]->id;
                ev.index = decoded[i]->generated - 1;
                ev.fold = folds[i];
                ev.output_hash = decoded[i]->output_hash;
                ev.clock_s = clock;
                sink_(ev);
            }
        }

        for (Request* r : batch) {
            if (r->state != RequestState::Decode)
                continue;
            if (r->first_token_s < 0 && r->generated > 0)
                r->first_token_s = clock;
            if (r->generated == r->output_tokens) {
                r->finish_s = clock;
                pool_.forgetSequence(r->seq);
                sched_.finish(r, cache_);
                mc.onFinish(*r);
                finished_++;
            }
        }

        // Park sessions that just hit their idle point: they leave the
        // batch keeping their sequence; a tiered pool offloads the pages
        // right away (write-back off the critical path), an untiered one
        // keeps them hot until pool pressure evicts them.
        for (Request* r : decoded) {
            if (r->state != RequestState::Decode ||
                r->idle_after_tokens <= 0 ||
                r->generated != r->idle_after_tokens)
                continue;
            sched_.parkIdle(r);
            if (pool_.enabled())
                pool_.offloadSequence(r->seq, clock, runningSeqs());
        }

        mc.onStep(step_s, plan.decode_batch, plan.prefill_tokens,
                  cache_.totalPages() - cache_.freePages(),
                  cache_.totalPages());
        std::vector<int> tier_used;
        for (int t = 0; t < pool_.numTiers(); t++)
            tier_used.push_back(pool_.tierUsedPages(t));
        // A sequence counts as resident when its full prompt context is
        // held somewhere (hot or cold) — complete and resumable without
        // recompute. Mid-prefill and content-lost sequences don't count.
        int resident_seqs = 0;
        for (const Request* r : live_)
            if (r->seq >= 0 && !pool_.contentLost(r->seq) &&
                cache_.length(r->seq) >= r->prompt_tokens)
                resident_seqs++;
        mc.onTierTick(step_s, tier_used, resident_seqs);
    }
    return true;
}

ServingMetrics
Engine::finalizeMetrics() const
{
    MetricsCollector mc = mc_;
    std::vector<std::string> tier_names;
    std::vector<int> tier_caps;
    for (int t = 0; t < pool_.numTiers(); t++) {
        tier_names.push_back(pool_.tierName(t));
        tier_caps.push_back(pool_.tierCapacityPages(t));
    }
    mc.setTierConfig(tier_names, tier_caps);
    mc.setTierStats(pool_.stats(), cold_resumes_, recompute_resumes_);
    mc.setFaultStats(injector_.stats(), fetch_retries_,
                     recompute_recoveries_, shed_requests_,
                     deadline_cancels_);
    const double makespan =
        clock_started_ ? clock_ - first_arrival_ : 0.0;
    return mc.finalize(makespan, sched_.preemptionCount(),
                       cache_.cowCopies());
}

ServingMetrics
Engine::streamSnapshot() const
{
    BITDEC_ASSERT(stream_active_,
                  "streamSnapshot outside an active stream");
    return finalizeMetrics();
}

ServingMetrics
Engine::streamEnd()
{
    BITDEC_ASSERT(stream_active_, "streamEnd outside an active stream");
    BITDEC_ASSERT(streamIdle(), "streamEnd with live requests — pump "
                                "streamTick until streamIdle first");
    ServingMetrics m;
    if (std::isfinite(first_arrival_)) // streamAdd ran since streamBegin
        m = finalizeMetrics();
    stream_active_ = false;
    sink_ = {};
    live_.clear();
    return m;
}

ServingMetrics
Engine::run(std::vector<Request>& requests)
{
    BITDEC_ASSERT(!requests.empty(), "empty trace");
    std::vector<Request*> order;
    order.reserve(requests.size());
    for (Request& r : requests)
        order.push_back(&r);
    std::stable_sort(order.begin(), order.end(),
                     [](const Request* a, const Request* b) {
                         return a->arrival_s < b->arrival_s;
                     });
    streamBegin();
    for (Request* r : order)
        streamAdd(r);
    while (streamTick()) {
    }
    return streamEnd();
}

} // namespace bitdec::serving
