/**
 * @file
 * Tests for the fault-injection subsystem and the serving stack's
 * defenses: schedule parsing and windowing, deterministic injector
 * decisions, backoff shaping, page checksums catching injected
 * corruption, retry-until-success on transient fetch failures, spike
 * timeouts — and the headline chaos contract: an engine run under a
 * fault storm produces byte-identical output digests to a fault-free
 * run of the same trace, across multiple fault seeds.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "fault/fault.h"
#include "gpusim/arch.h"
#include "kvcache/paged_cache.h"
#include "kvcache/tiered_cache.h"
#include "model/model_config.h"
#include "serving/engine.h"
#include "serving/request.h"
#include "serving/trace.h"

namespace bitdec {
namespace {

using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultSchedule;
using kv::CacheStatus;
using kv::PagedHeadCache;
using kv::TieredConfig;
using kv::TieredPagePool;
using kv::TierSpec;
using serving::Engine;
using serving::EngineConfig;
using serving::Request;
using serving::RequestState;
using serving::ServingMetrics;

// ------------------------------------------------------- schedule ----

TEST(FaultSchedule, EmptyInjectsNothing)
{
    FaultSchedule s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.rateAt(FaultKind::FetchFailure, 0.0), 0.0);
    FaultInjector inj(s, 1234);
    for (int i = 0; i < 100; i++)
        EXPECT_FALSE(inj.roll(FaultKind::FetchFailure, 1.0, i));
    EXPECT_EQ(inj.stats().total(), 0);
}

TEST(FaultSchedule, WindowGatesTheRate)
{
    FaultSchedule s;
    s.add(FaultKind::FetchFailure, 0.5, 1.0, 2.0);
    EXPECT_EQ(s.rateAt(FaultKind::FetchFailure, 0.5), 0.0);
    EXPECT_EQ(s.rateAt(FaultKind::FetchFailure, 1.0), 0.5); // inclusive
    EXPECT_EQ(s.rateAt(FaultKind::FetchFailure, 1.999), 0.5);
    EXPECT_EQ(s.rateAt(FaultKind::FetchFailure, 2.0), 0.0); // exclusive
    // Other kinds are untouched.
    EXPECT_EQ(s.rateAt(FaultKind::PageCorruption, 1.5), 0.0);
}

TEST(FaultSchedule, OverlappingWindowsComposeAsIndependentSources)
{
    FaultSchedule s;
    s.add(FaultKind::FetchFailure, 0.5);
    s.add(FaultKind::FetchFailure, 0.5);
    // Survive both coins: 1 - 0.5 * 0.5.
    EXPECT_DOUBLE_EQ(s.rateAt(FaultKind::FetchFailure, 0.0), 0.75);
}

TEST(FaultSchedule, ParseRoundTripsEveryKey)
{
    const FaultSchedule s = FaultSchedule::parse(
        "fetch=0.02,spike=0.03,corrupt=0.01,alloc=0.04,mult=50,"
        "from=1,until=9");
    // rateAt round-trips through 1 - prod(1 - r): a few ulps of slack.
    EXPECT_NEAR(s.rateAt(FaultKind::FetchFailure, 5.0), 0.02, 1e-12);
    EXPECT_NEAR(s.rateAt(FaultKind::LatencySpike, 5.0), 0.03, 1e-12);
    EXPECT_NEAR(s.rateAt(FaultKind::PageCorruption, 5.0), 0.01, 1e-12);
    EXPECT_NEAR(s.rateAt(FaultKind::HotAllocFailure, 5.0), 0.04, 1e-12);
    EXPECT_DOUBLE_EQ(s.spike_mult, 50.0);
    EXPECT_EQ(s.rateAt(FaultKind::FetchFailure, 0.5), 0.0);
    EXPECT_EQ(s.rateAt(FaultKind::FetchFailure, 9.0), 0.0);
    EXPECT_TRUE(FaultSchedule::parse("").empty());
}

TEST(FaultScheduleDeathTest, ParseRejectsBadSpecs)
{
    EXPECT_DEATH(FaultSchedule::parse("fetch"), "key=value");
    EXPECT_DEATH(FaultSchedule::parse("fetch=abc"), "bad fault spec value");
    EXPECT_DEATH(FaultSchedule::parse("warp=0.1"), "unknown fault spec key");
    EXPECT_DEATH(FaultSchedule::parse("fetch=1.5"), "rates must be in");
    EXPECT_DEATH(FaultSchedule::parse("mult=0.5"), "mult must be >= 1");
}

// ------------------------------------------------------- injector ----

TEST(FaultInjector, DecisionsAreDeterministicInSeedAndCoordinates)
{
    FaultSchedule s;
    s.add(FaultKind::FetchFailure, 0.3);
    FaultInjector a(s, 42), b(s, 42), c(s, 43);
    int fired = 0, diverged = 0;
    for (std::uint64_t i = 0; i < 500; i++) {
        const bool ra = a.roll(FaultKind::FetchFailure, 1.0, i, 7);
        EXPECT_EQ(ra, b.roll(FaultKind::FetchFailure, 1.0, i, 7));
        fired += ra;
        diverged += ra != c.roll(FaultKind::FetchFailure, 1.0, i, 7);
    }
    // Rate is honored loosely (hash quality, not statistics, is on test).
    EXPECT_GT(fired, 500 * 0.3 / 2);
    EXPECT_LT(fired, 500 * 0.3 * 2);
    EXPECT_GT(diverged, 0); // a different seed is a different storm
    EXPECT_EQ(a.stats().fetch_failures, fired);
    EXPECT_EQ(a.stats().total(), fired);
}

TEST(FaultInjector, RateOneAlwaysFiresRateZeroNever)
{
    FaultSchedule s;
    s.add(FaultKind::PageCorruption, 1.0);
    FaultInjector inj(s, 7);
    for (std::uint64_t i = 0; i < 20; i++) {
        EXPECT_TRUE(inj.roll(FaultKind::PageCorruption, 0.0, i));
        EXPECT_FALSE(inj.roll(FaultKind::FetchFailure, 0.0, i));
    }
    EXPECT_EQ(inj.stats().corrupted_pages, 20);
    EXPECT_EQ(inj.stats().fetch_failures, 0);
}

TEST(FaultInjector, AttemptCoordinateRerollsADeterministicFailure)
{
    // The same operation must be able to succeed on retry when the
    // attempt counter is part of the coordinates — otherwise backoff
    // would spin forever on a fixed hash.
    FaultSchedule s;
    s.add(FaultKind::FetchFailure, 0.5);
    FaultInjector inj(s, 11);
    bool saw_fail = false, saw_pass = false;
    for (std::uint64_t attempt = 0; attempt < 64; attempt++) {
        if (inj.roll(FaultKind::FetchFailure, 1.0, attempt, /*page=*/3))
            saw_fail = true;
        else
            saw_pass = true;
    }
    EXPECT_TRUE(saw_fail);
    EXPECT_TRUE(saw_pass);
}

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps)
{
    fault::RetryPolicy p;
    p.backoff_base_s = 0.002;
    p.backoff_mult = 2.0;
    p.backoff_max_s = 0.01;
    EXPECT_DOUBLE_EQ(fault::backoffDelay(p, 1), 0.002);
    EXPECT_DOUBLE_EQ(fault::backoffDelay(p, 2), 0.004);
    EXPECT_DOUBLE_EQ(fault::backoffDelay(p, 3), 0.008);
    EXPECT_DOUBLE_EQ(fault::backoffDelay(p, 4), 0.01); // capped
    EXPECT_DOUBLE_EQ(fault::backoffDelay(p, 10), 0.01);
}

// ------------------------------------------- pool-level defenses ----

std::vector<Half>
tokenVec(int d, float value)
{
    return std::vector<Half>(static_cast<std::size_t>(d), Half(value));
}

void
fillSeq(PagedHeadCache& cache, int seq, int tokens)
{
    for (int t = 0; t < tokens; t++)
        ASSERT_TRUE(cache.append(seq, tokenVec(cache.headDim(), t * 1.0f),
                                 tokenVec(cache.headDim(), t + 0.5f)));
}

TieredConfig
oneHostTier(double fetch_timeout_s =
                std::numeric_limits<double>::infinity())
{
    TieredConfig cfg;
    cfg.bytes_per_page = 1e9; // 1 page == 1 GB: capacity_gb counts pages
    cfg.fetch_timeout_s = fetch_timeout_s;
    TierSpec host;
    host.name = "host";
    host.capacity_gb = 8;
    cfg.tiers.push_back(host);
    return cfg;
}

TEST(FaultDefense, ChecksumRoundTripHasNoFalsePositives)
{
    // An armed injector whose schedule never corrupts must not turn
    // checksums into a source of spurious recomputes.
    PagedHeadCache cache(4, 2, 8);
    TieredPagePool pool(cache, oneHostTier());
    FaultSchedule s; // empty: nothing fires, checksums still verified
    FaultInjector inj(s, 5);
    pool.setFaultInjector(&inj);
    const int seq = cache.addSequence();
    fillSeq(cache, seq, 8);
    const auto before = cache.gatherKeys(seq);
    ASSERT_EQ(pool.offloadSequence(seq, 1.0, {}).moved, 4);
    const kv::FetchResult fr = pool.fetchRange(seq, 0, 7, 2.0);
    EXPECT_EQ(fr.restored, 4);
    EXPECT_EQ(fr.status, CacheStatus::Ok);
    EXPECT_EQ(pool.stats().checksum_failures, 0);
    const auto after = cache.gatherKeys(seq);
    for (std::size_t t = 0; t < after.dim(0); t++)
        EXPECT_EQ(after.at(t, 0).bits(), before.at(t, 0).bits());
}

TEST(FaultDefense, SingleBitRotIsRepairedInPlace)
{
    // Single-bit rot is the common case, and the ECC syndrome must fix
    // it without ever surfacing to the caller: status Ok, payload
    // byte-identical, no checksum failure, nothing lost.
    PagedHeadCache cache(4, 2, 8);
    TieredPagePool pool(cache, oneHostTier());
    FaultSchedule s;
    s.add(FaultKind::PageCorruption, 1.0); // rot every offloaded page
    FaultInjector inj(s, 99);
    pool.setFaultInjector(&inj);
    const int seq = cache.addSequence();
    fillSeq(cache, seq, 8);
    const auto before = cache.gatherKeys(seq);
    ASSERT_EQ(pool.offloadSequence(seq, 1.0, {}).moved, 4);
    EXPECT_EQ(inj.stats().corrupted_pages, 4);

    const kv::FetchResult fr = pool.fetchRange(seq, 0, 7, 2.0);
    EXPECT_EQ(fr.status, CacheStatus::Ok);
    EXPECT_EQ(fr.restored, 4);
    EXPECT_EQ(pool.stats().repaired_pages, 4);
    EXPECT_EQ(pool.stats().checksum_failures, 0);
    EXPECT_FALSE(pool.contentLost(seq));
    EXPECT_EQ(pool.coldPages(seq), 0);
    const auto after = cache.gatherKeys(seq);
    for (std::size_t t = 0; t < after.dim(0); t++)
        EXPECT_EQ(after.at(t, 0).bits(), before.at(t, 0).bits());
}

TEST(FaultDefense, ChecksumCatchesUncorrectableCorruption)
{
    PagedHeadCache cache(4, 2, 8);
    TieredPagePool pool(cache, oneHostTier());
    FaultSchedule s;
    s.add(FaultKind::PageCorruption, 1.0); // rot every offloaded page
    s.multibit = 1.0; // always two flipped bit positions: beyond the ECC
    FaultInjector inj(s, 99);
    pool.setFaultInjector(&inj);
    const int seq = cache.addSequence();
    fillSeq(cache, seq, 8);
    ASSERT_EQ(pool.offloadSequence(seq, 1.0, {}).moved, 4);
    EXPECT_EQ(inj.stats().corrupted_pages, 4);

    // The fetch re-checksums, fails to repair the double flips and
    // drops each rotten page individually: what remains is a hole per
    // page — never restored poison — that the caller rebuilds from
    // seeds.
    const kv::FetchResult fr = pool.fetchRange(seq, 0, 7, 2.0);
    EXPECT_EQ(fr.status, CacheStatus::CorruptionDetected);
    EXPECT_EQ(fr.restored, 0);
    EXPECT_EQ(pool.stats().checksum_failures, 4);
    EXPECT_EQ(pool.stats().repaired_pages, 0);
    EXPECT_EQ(pool.coldPages(seq), 0);
    EXPECT_EQ(pool.tierUsedPages(0), 0); // accounting returned the pages
    // The payload is gone page-by-page, not whole-sequence: the record
    // is not content-lost, the pages are holes awaiting a rebuild.
    EXPECT_FALSE(pool.contentLost(seq));
    EXPECT_EQ(cache.missingPages(seq), 4);
    for (int i = 0; i < 4; i++)
        EXPECT_FALSE(pool.coldHas(seq, i));
    // With nothing cold left, a further fetch has nothing to move.
    EXPECT_EQ(pool.fetchRange(seq, 0, 7, 3.0).status, CacheStatus::Ok);
}

TEST(FaultDefense, TransientFetchFailuresSucceedOnRetry)
{
    // At a 50% failure rate a retried fetch must still finish: every
    // fetchRange call re-rolls with a fresh attempt counter.
    PagedHeadCache cache(4, 2, 8);
    TieredPagePool pool(cache, oneHostTier());
    FaultSchedule s;
    s.add(FaultKind::FetchFailure, 0.5);
    FaultInjector inj(s, 21);
    pool.setFaultInjector(&inj);
    const int seq = cache.addSequence();
    fillSeq(cache, seq, 8);
    const auto before = cache.gatherKeys(seq);
    ASSERT_EQ(pool.offloadSequence(seq, 1.0, {}).moved, 4);

    int attempts = 0;
    double now = 2.0;
    while (cache.missingPages(seq) > 0) {
        ASSERT_LT(attempts, 200) << "retries are not making progress";
        pool.fetchRange(seq, 0, 7, now += 0.01);
        attempts++;
    }
    EXPECT_GT(inj.stats().fetch_failures, 0);
    EXPECT_GT(pool.stats().transfer_failures, 0);
    EXPECT_EQ(pool.stats().checksum_failures, 0);
    const auto after = cache.gatherKeys(seq);
    for (std::size_t t = 0; t < after.dim(0); t++)
        EXPECT_EQ(after.at(t, 0).bits(), before.at(t, 0).bits());
}

TEST(FaultDefense, PathologicalSpikeTimesOutInsteadOfStalling)
{
    // Timeout small enough that a 1e6x spike trips it but the base cost
    // (~page/bandwidth) does not.
    PagedHeadCache cache(4, 2, 8);
    TieredPagePool pool(cache, oneHostTier(/*fetch_timeout_s=*/10.0));
    FaultSchedule s;
    s.add(FaultKind::LatencySpike, 1.0);
    s.spike_mult = 1e6;
    FaultInjector inj(s, 3);
    pool.setFaultInjector(&inj);
    const int seq = cache.addSequence();
    fillSeq(cache, seq, 8);
    ASSERT_EQ(pool.offloadSequence(seq, 1.0, {}).moved, 4);

    const kv::FetchResult fr = pool.fetchRange(seq, 0, 7, 2.0);
    EXPECT_EQ(fr.status, CacheStatus::TransientFault);
    EXPECT_EQ(fr.restored, 0);
    EXPECT_GT(pool.stats().transfer_failures, 0);
    // The payload is intact: a later unspiked fetch could still restore
    // it (the spike was latency, not loss).
    EXPECT_FALSE(pool.contentLost(seq));
    EXPECT_EQ(pool.coldPages(seq), 4);
}

TEST(FaultDefense, AbsorbedSpikeChargesExtraLatency)
{
    PagedHeadCache cache(4, 2, 8);
    TieredPagePool pool(cache, oneHostTier()); // no timeout
    FaultSchedule s;
    s.add(FaultKind::LatencySpike, 1.0);
    s.spike_mult = 10.0;
    FaultInjector inj(s, 3);
    const int seq = cache.addSequence();
    fillSeq(cache, seq, 8);
    ASSERT_EQ(pool.offloadSequence(seq, 1.0, {}).moved, 4);
    const kv::FetchResult clean = pool.fetchRange(seq, 0, 7, 2.0);
    ASSERT_EQ(clean.restored, 4);

    // Same pool content, injector armed: the spiked fetch restores the
    // same pages but costs ~10x the clean latency.
    ASSERT_EQ(pool.offloadSequence(seq, 3.0, {}).moved, 4);
    pool.setFaultInjector(&inj);
    const kv::FetchResult spiked = pool.fetchRange(seq, 4.0, 7, 4.0);
    EXPECT_EQ(spiked.status, CacheStatus::Ok);
    EXPECT_GT(spiked.latency_s, clean.latency_s);
    EXPECT_EQ(inj.stats().latency_spikes, 4);
}

TEST(FaultDefense, HedgedReadDodgesTheSpike)
{
    // Tail-at-scale: a spiked transfer is re-issued after a short wait
    // and completes at whichever request finishes first, so a 1e4x
    // spike costs ~hedge_after_mult x the modeled cost instead.
    PagedHeadCache cache(4, 2, 8);
    TieredPagePool pool(cache, oneHostTier()); // no timeout, hedging on
    FaultSchedule s;
    s.add(FaultKind::LatencySpike, 0.5);
    s.spike_mult = 1e4;
    FaultInjector inj(s, 2);
    pool.setFaultInjector(&inj);
    const int seq = cache.addSequence();
    fillSeq(cache, seq, 8);
    ASSERT_EQ(pool.offloadSequence(seq, 1.0, {}).moved, 4);

    const kv::FetchResult fr = pool.fetchRange(seq, 0, 7, 2.0);
    EXPECT_EQ(fr.status, CacheStatus::Ok);
    EXPECT_EQ(fr.restored, 4);
    EXPECT_GT(inj.stats().latency_spikes, 0);
    EXPECT_GT(pool.stats().hedged_fetches, 0);
    // Every spike this seed throws is rescued by an unspiked hedge: the
    // whole fetch stays far below the cost of even one absorbed spike
    // (base ~0.031 s/page, one full 1e4x spike ~313 s).
    EXPECT_LT(fr.latency_s, 10.0);
}

// ------------------------------------------------ engine chaos ----

EngineConfig
chaosEngineConfig(int num_pages)
{
    EngineConfig cfg;
    cfg.system = model::SystemKind::BitDecoding;
    cfg.bits = 4;
    cfg.page_size = 8;
    cfg.num_pages = num_pages;
    cfg.cache_head_dim = 4;
    cfg.sched.max_batch = 8;
    cfg.sched.prefill_chunk_tokens = 16;
    cfg.backend = "reference";
    kv::TierSpec host;
    host.name = "host";
    host.capacity_gb = 1.0;
    cfg.tiered.tiers.push_back(host);
    cfg.tiered.prefetch_pages = 4;
    return cfg;
}

/** Chaos seeds the suite always sweeps; BITDEC_FAULT_SEED adds one more
 *  (CI rotates it so the sanitize job explores distinct storms). */
std::vector<std::uint64_t>
chaosSeeds()
{
    std::vector<std::uint64_t> seeds{1337, 4242, 9001};
    if (const char* env = std::getenv("BITDEC_FAULT_SEED"))
        seeds.push_back(std::strtoull(env, nullptr, 0));
    return seeds;
}

TEST(EngineChaos, FaultStormDigestsMatchFaultFreeRunAcrossSeeds)
{
    // The headline robustness contract: a pressured tiered run under a
    // multi-kind fault storm finishes every request with output and
    // attention digests byte-identical to the fault-free run — for every
    // fault seed, i.e. regardless of which transfers fail, which pages
    // rot and which allocations hiccup.
    auto clean_trace = serving::smokeTrace();
    Engine clean(sim::archA100(), model::llama2_7b(), chaosEngineConfig(28));
    const ServingMetrics mc = clean.run(clean_trace);
    ASSERT_GT(mc.tier.offloaded_pages, 0); // pressure reached the tiers
    ASSERT_EQ(mc.faults_injected.total(), 0);

    for (const std::uint64_t seed : chaosSeeds()) {
        EngineConfig cfg = chaosEngineConfig(28);
        cfg.faults = fault::FaultSchedule::parse(
            "fetch=0.05,corrupt=0.04,spike=0.05,alloc=0.03,mult=50,multibit=0.35");
        cfg.fault_seed = seed;
        auto trace = serving::smokeTrace();
        Engine chaos(sim::archA100(), model::llama2_7b(), cfg);
        const ServingMetrics m = chaos.run(trace);

        EXPECT_GT(m.faults_injected.total(), 0)
            << "storm never fired under seed " << seed;
        EXPECT_EQ(m.num_requests, mc.num_requests) << "seed " << seed;
        for (std::size_t i = 0; i < trace.size(); i++) {
            EXPECT_EQ(trace[i].state, RequestState::Finished);
            EXPECT_EQ(trace[i].output_hash, clean_trace[i].output_hash)
                << "request " << i << " under seed " << seed;
            EXPECT_EQ(trace[i].attn_hash, clean_trace[i].attn_hash)
                << "request " << i << " under seed " << seed;
        }
        EXPECT_EQ(m.outputs_digest, mc.outputs_digest) << "seed " << seed;
        // Every detected fault was handled by a retry or a recompute.
        EXPECT_GT(m.fetch_retries + m.recompute_recoveries, 0)
            << "seed " << seed;
        EXPECT_EQ(m.shed_requests, 0);
        EXPECT_EQ(m.deadline_cancels, 0);
    }
}

TEST(EngineChaos, SameSeedReplaysTheSameStorm)
{
    EngineConfig cfg = chaosEngineConfig(28);
    cfg.faults = fault::FaultSchedule::parse(
        "fetch=0.05,corrupt=0.04,spike=0.05,alloc=0.03,mult=50,multibit=0.35");
    cfg.fault_seed = 1337;
    auto ta = serving::smokeTrace();
    auto tb = serving::smokeTrace();
    Engine ea(sim::archA100(), model::llama2_7b(), cfg);
    Engine eb(sim::archA100(), model::llama2_7b(), cfg);
    const ServingMetrics ma = ea.run(ta);
    const ServingMetrics mb = eb.run(tb);
    EXPECT_EQ(ma.faults_injected.total(), mb.faults_injected.total());
    EXPECT_EQ(ma.fetch_retries, mb.fetch_retries);
    EXPECT_EQ(ma.recompute_recoveries, mb.recompute_recoveries);
    EXPECT_EQ(ma.outputs_digest, mb.outputs_digest);
    EXPECT_DOUBLE_EQ(ma.makespan_s, mb.makespan_s);
}

// ------------------------------------------ graceful degradation ----

TEST(EngineDegradation, DeadlinedRequestsAreCanceledCleanly)
{
    auto trace = serving::smokeTrace();
    // Two requests get deadlines they cannot possibly meet; the rest
    // must finish normally with the pool fully reclaimed.
    trace[1].deadline_s = trace[1].arrival_s + 1e-4;
    trace[4].deadline_s = trace[4].arrival_s + 1e-4;
    EngineConfig cfg = chaosEngineConfig(512);
    Engine engine(sim::archA100(), model::llama2_7b(), cfg);
    const ServingMetrics m = engine.run(trace);
    EXPECT_EQ(m.deadline_cancels, 2);
    EXPECT_EQ(m.num_requests, static_cast<int>(trace.size()) - 2);
    for (std::size_t i = 0; i < trace.size(); i++) {
        if (i == 1 || i == 4) {
            EXPECT_EQ(trace[i].state, RequestState::Canceled);
            EXPECT_EQ(trace[i].cancel_cause, serving::CancelCause::Deadline);
            EXPECT_GE(trace[i].finish_s, trace[i].deadline_s);
        } else {
            EXPECT_EQ(trace[i].state, RequestState::Finished);
        }
    }
    // Cancellation released every page the canceled requests held.
    EXPECT_EQ(engine.cache().freePages(), engine.cache().totalPages());
}

TEST(EngineDegradation, CanceledRequestsNeverFoldIntoTheDigest)
{
    // A run where request 1 is canceled must carry exactly the digest of
    // the surviving requests — cancellation sheds load without
    // corrupting the determinism contract for everything that finished.
    auto full = serving::smokeTrace();
    auto degraded = serving::smokeTrace();
    degraded[1].deadline_s = degraded[1].arrival_s + 1e-4;
    EngineConfig cfg = chaosEngineConfig(512);
    Engine ef(sim::archA100(), model::llama2_7b(), cfg);
    Engine ed(sim::archA100(), model::llama2_7b(), cfg);
    const ServingMetrics mf = ef.run(full);
    const ServingMetrics md = ed.run(degraded);
    ASSERT_EQ(md.deadline_cancels, 1);
    // XOR-fold is commutative: removing one request's hash from the full
    // digest must equal the degraded run's digest.
    EXPECT_EQ(md.outputs_digest, mf.outputs_digest ^ full[1].output_hash);
    for (std::size_t i = 0; i < full.size(); i++) {
        if (i == 1)
            continue;
        EXPECT_EQ(degraded[i].output_hash, full[i].output_hash);
    }
}

TEST(EngineDegradation, AdmissionTtlShedsOnlyNeverAdmittedWaiters)
{
    // One-at-a-time admission: request 0 occupies the engine well past
    // the TTL, so the simultaneous arrivals behind it are shed; nothing
    // that ever ran is touched.
    std::vector<Request> trace;
    for (int i = 0; i < 4; i++) {
        Request r;
        r.id = i;
        r.arrival_s = 0.0;
        r.prompt_tokens = 32;
        r.output_tokens = 16;
        trace.push_back(r);
    }
    EngineConfig cfg = chaosEngineConfig(512);
    cfg.sched.max_batch = 1;
    cfg.sched.shed_after_s = 0.05;
    Engine engine(sim::archA100(), model::llama2_7b(), cfg);
    const ServingMetrics m = engine.run(trace);
    EXPECT_EQ(trace[0].state, RequestState::Finished);
    EXPECT_GT(m.shed_requests, 0);
    EXPECT_EQ(m.num_requests + m.shed_requests,
              static_cast<int>(trace.size()));
    for (const Request& r : trace) {
        if (r.state == RequestState::Canceled) {
            EXPECT_EQ(r.cancel_cause, serving::CancelCause::Shed);
            EXPECT_EQ(r.generated, 0); // never produced a token
            EXPECT_EQ(r.preemptions, 0); // never admitted
        }
    }
    EXPECT_EQ(engine.cache().freePages(), engine.cache().totalPages());
}

} // namespace
} // namespace bitdec
