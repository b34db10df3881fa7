/**
 * @file
 * Tests for the sharded serving cluster: router placement (sticky
 * prefix homes, least-loaded fallback, rebalancing under skew),
 * Cluster(shards=1) byte-equivalence with a bare Engine through the
 * ServingClient seam, shard-count invariance of per-request digests,
 * client cancellation (before a round and mid-stream, where the
 * makespan must stay on the shared clock), EngineConfig validation and
 * the shared ServingOptions CLI grammar.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/router.h"
#include "gpusim/arch.h"
#include "model/model_config.h"
#include "serving/client.h"
#include "serving/engine.h"
#include "serving/options.h"
#include "serving/request.h"
#include "serving/trace.h"

namespace bitdec {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::RoutePolicy;
using cluster::Router;
using cluster::RouterConfig;
using serving::EngineConfig;
using serving::Request;
using serving::RequestState;
using serving::ServingMetrics;
using serving::ServingOptions;

/** Workload-only request; arrivals are spaced so ordering is stable. */
Request
workload(int id, int prompt, int output, std::uint64_t prefix = 0,
         int prefix_tokens = 0)
{
    Request r;
    r.id = id;
    r.arrival_s = 0.01 * id;
    r.prompt_tokens = prompt;
    r.output_tokens = output;
    r.prefix_id = prefix;
    r.prefix_tokens = prefix_tokens;
    return r;
}

/** Tiny per-shard engine with the reference attention backend, so both
 *  output_hash and attn_hash are live in every digest comparison. */
EngineConfig
clusterTinyConfig(int num_pages)
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
    return cfg;
}

// ------------------------------------------------------------ router ----

TEST(Router, StickyColdPlacesOnLeastLoadedThenKeepsFamilyTogether)
{
    RouterConfig rc;
    rc.num_shards = 4;
    Router router(rc);

    // Prefix-free load lands on shard 0 (all-empty tie breaks low).
    EXPECT_EQ(router.route(workload(0, 1000, 0)), 0);
    // First request of family F: least-loaded shard becomes its home.
    const int home = router.route(workload(1, 100, 8, 0xF00Dull, 16));
    EXPECT_EQ(home, 1);
    EXPECT_EQ(router.prefixHome(0xF00Dull), home);
    // Follow-ups stick to the home even when other shards are emptier.
    EXPECT_EQ(router.route(workload(2, 100, 8, 0xF00Dull, 16)), home);
    EXPECT_EQ(router.route(workload(3, 100, 8, 0xF00Dull, 16)), home);

    const cluster::RouterStats& s = router.stats();
    EXPECT_EQ(s.routed, 4);
    EXPECT_EQ(s.least_loaded, 1);
    EXPECT_EQ(s.cold_placements, 1);
    EXPECT_EQ(s.sticky_hits, 2);
    EXPECT_EQ(s.rebalances, 0);
    EXPECT_EQ(s.per_shard_requests[1], 3);
    EXPECT_EQ(router.shardLoad(1), 3 * 108);
}

TEST(Router, PrefixFreeRequestsFallBackToLeastLoaded)
{
    RouterConfig rc;
    rc.num_shards = 3;
    Router router(rc);
    EXPECT_EQ(router.route(workload(0, 500, 0)), 0);
    EXPECT_EQ(router.route(workload(1, 300, 0)), 1);
    EXPECT_EQ(router.route(workload(2, 100, 0)), 2);
    // Loads now 500/300/100: the lightest shard keeps winning.
    EXPECT_EQ(router.route(workload(3, 100, 0)), 2);
    EXPECT_EQ(router.route(workload(4, 100, 0)), 2);
    // 500/300/300: tie breaks toward the lowest index, deterministically.
    EXPECT_EQ(router.route(workload(5, 10, 0)), 1);
    EXPECT_EQ(router.stats().least_loaded, 6);
}

TEST(Router, RebalancesSkewedFamilyHomeToLighterShard)
{
    RouterConfig rc;
    rc.num_shards = 2;
    rc.rebalance_factor = 1.25;
    Router router(rc);

    // Pin 1000 tokens of prefix-free load on shard 0, then home family
    // F on shard 1 and grow it until shard 1 carries > 1.25x the mean.
    EXPECT_EQ(router.route(workload(0, 1000, 0)), 0);
    EXPECT_EQ(router.route(workload(1, 100, 0, 0xABCull, 16)), 1);
    for (int i = 2; i <= 5; i++)
        EXPECT_EQ(router.route(workload(i, 400, 0, 0xABCull, 16)), 1)
            << "request " << i << " should still stick to shard 1";
    // Loads 1000 vs 1700, mean 1350: 1700 > 1.25 * 1350 and shard 0 is
    // lighter, so the family's home moves there.
    EXPECT_EQ(router.route(workload(6, 400, 0, 0xABCull, 16)), 0);
    EXPECT_EQ(router.prefixHome(0xABCull), 0);

    const cluster::RouterStats& s = router.stats();
    EXPECT_EQ(s.rebalances, 1);
    EXPECT_EQ(s.sticky_hits, 4);
    EXPECT_EQ(s.cold_placements, 1);
    // Stickiness resumes at the new home.
    EXPECT_EQ(router.route(workload(7, 100, 0, 0xABCull, 16)), 0);
    EXPECT_EQ(s.rebalances, 1);
}

TEST(Router, RoundRobinCyclesIgnoringLoad)
{
    RouterConfig rc;
    rc.num_shards = 3;
    rc.policy = RoutePolicy::RoundRobin;
    Router router(rc);
    for (int i = 0; i < 6; i++)
        EXPECT_EQ(router.route(workload(i, 100 * (i + 1), 0)), i % 3);
}

TEST(Router, LeastLoadedPolicyIgnoresPrefixes)
{
    RouterConfig rc;
    rc.num_shards = 2;
    rc.policy = RoutePolicy::LeastLoaded;
    Router router(rc);
    // The same family spreads: no stickiness under this policy.
    EXPECT_EQ(router.route(workload(0, 100, 0, 0xFEEDull, 16)), 0);
    EXPECT_EQ(router.route(workload(1, 100, 0, 0xFEEDull, 16)), 1);
    EXPECT_EQ(router.prefixHome(0xFEEDull), -1);
}

// ----------------------------------------------------------- cluster ----

TEST(Cluster, OneShardMatchesBareEngineByteForByte)
{
    // The same short trace through a bare Engine::run and a Cluster
    // with a single shard. The cluster's aggregate must be the engine's
    // metrics verbatim — every serialized field and every per-request
    // digest identical.
    std::vector<Request> trace = serving::smokeTrace();

    ClusterConfig cc;
    cc.num_shards = 1;
    cc.engine = clusterTinyConfig(64);
    Cluster one(sim::archA100(), model::llama2_7b(), cc);
    for (const Request& r : trace)
        one.submit(r);
    const ServingMetrics mc = one.drain();

    serving::Engine engine(sim::archA100(), model::llama2_7b(),
                           clusterTinyConfig(64));
    const ServingMetrics me = engine.run(trace);

    EXPECT_EQ(me.outputs_digest, mc.outputs_digest);
    EXPECT_EQ(me.toJson(), mc.toJson()); // byte-for-byte, all fields
    for (const Request& a : trace) {
        const Request* b = one.poll(a.id);
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(a.output_hash, b->output_hash);
        ASSERT_NE(a.attn_hash, 0u);
        EXPECT_EQ(a.attn_hash, b->attn_hash);
        EXPECT_DOUBLE_EQ(a.finish_s, b->finish_s);
    }
}

/** Twelve requests in three prefix-disjoint families: sticky routing
 *  keeps each family on one shard at any shard count. */
std::vector<Request>
familyTrace()
{
    std::vector<Request> trace;
    for (int i = 0; i < 12; i++)
        trace.push_back(workload(i, 48, 8,
                                 0xD15C0ull + static_cast<std::uint64_t>(
                                                  i % 3),
                                 16));
    return trace;
}

TEST(Cluster, DigestsAreShardCountInvariant)
{
    // The tentpole invariant: per-request output_hash and attn_hash are
    // byte-identical at 1, 2 and 4 shards for prefix-disjoint traffic —
    // content never depends on placement. The single-shard pool (64
    // pages for ~84 pages of demand) preempts while the 4-shard pools
    // never do, so the invariance also spans scheduling regimes.
    const auto trace = familyTrace();
    std::vector<std::unique_ptr<serving::ServingClient>> clients;
    std::vector<ServingMetrics> metrics;
    for (const int shards : {1, 2, 4}) {
        clients.push_back(serving::makeServingClient(
            sim::archA100(), model::llama2_7b(), clusterTinyConfig(64),
            shards));
        for (const Request& r : trace)
            clients.back()->submit(r);
        metrics.push_back(clients.back()->drain());
    }
    for (std::size_t k = 1; k < clients.size(); k++) {
        EXPECT_EQ(metrics[0].outputs_digest, metrics[k].outputs_digest);
        EXPECT_EQ(metrics[0].num_requests, metrics[k].num_requests);
        for (const Request& q : trace) {
            const Request* a = clients[0]->poll(q.id);
            const Request* b = clients[k]->poll(q.id);
            ASSERT_NE(a, nullptr);
            ASSERT_NE(b, nullptr);
            EXPECT_EQ(a->output_hash, b->output_hash)
                << "request " << q.id << " at " << k;
            ASSERT_NE(a->attn_hash, 0u);
            EXPECT_EQ(a->attn_hash, b->attn_hash)
                << "request " << q.id << " at " << k;
        }
    }
    // The 4-shard client really spread the work.
    const auto* four = dynamic_cast<const Cluster*>(clients.back().get());
    ASSERT_NE(four, nullptr);
    int used = 0;
    for (const long n : four->clusterMetrics().router.per_shard_requests)
        used += n > 0 ? 1 : 0;
    EXPECT_GE(used, 2);
}

TEST(Cluster, StickyRoutingKeepsFamiliesOnOneShard)
{
    ClusterConfig cc;
    cc.num_shards = 4;
    cc.engine = clusterTinyConfig(64);
    Cluster cl(sim::archA100(), model::llama2_7b(), cc);

    // Two heavy prefix-free requests anchor the mean load, then two
    // families of three: each cold-places on an empty shard and sticks
    // there (its home stays well under rebalance_factor x mean).
    std::vector<Request> trace;
    trace.push_back(workload(0, 400, 8));
    trace.push_back(workload(1, 400, 8));
    for (int i = 2; i < 5; i++)
        trace.push_back(workload(i, 40, 8, 0xAAull, 16));
    for (int i = 5; i < 8; i++)
        trace.push_back(workload(i, 40, 8, 0xBBull, 16));
    for (const Request& r : trace)
        cl.submit(r);

    EXPECT_EQ(cl.shardOf(3), cl.shardOf(2));
    EXPECT_EQ(cl.shardOf(4), cl.shardOf(2));
    EXPECT_EQ(cl.shardOf(6), cl.shardOf(5));
    EXPECT_EQ(cl.shardOf(7), cl.shardOf(5));
    EXPECT_NE(cl.shardOf(5), cl.shardOf(2));
    EXPECT_NE(cl.shardOf(2), cl.shardOf(0));
    EXPECT_NE(cl.shardOf(5), cl.shardOf(1));
    EXPECT_EQ(cl.shardOf(99), -1);

    const ServingMetrics m = cl.drain();
    EXPECT_EQ(m.num_requests, 8);
    const cluster::RouterStats& s = cl.clusterMetrics().router;
    EXPECT_EQ(s.routed, 8);
    EXPECT_EQ(s.cold_placements, 2);
    EXPECT_EQ(s.sticky_hits, 4);
    EXPECT_EQ(s.least_loaded, 2);
    // Each family hit its packed prefix on exactly one shard.
    EXPECT_EQ(m.prefix_hit_tokens, 2 * 2 * 16);
}

TEST(Cluster, ClientCancelExcludesRequestFromDrainAndDigest)
{
    // Canceled before the drain, requests 0 (the earliest arrival) and 2
    // never reach an engine: the run is the one that never saw them, so
    // its clock starts at request 1's arrival.
    const auto trace = serving::smokeTrace();
    const auto dropped = [](const Request& r) {
        return r.id == 0 || r.id == 2;
    };
    for (const int shards : {1, 2}) {
        SCOPED_TRACE(shards);
        auto ref = serving::makeServingClient(
            sim::archA100(), model::llama2_7b(), clusterTinyConfig(64),
            shards);
        for (const Request& r : trace)
            if (!dropped(r))
                ref->submit(r);
        const ServingMetrics mr = ref->drain();

        auto cl = serving::makeServingClient(
            sim::archA100(), model::llama2_7b(), clusterTinyConfig(64),
            shards);
        for (const Request& r : trace)
            cl->submit(r);
        EXPECT_TRUE(cl->cancel(0));
        EXPECT_TRUE(cl->cancel(2));
        EXPECT_FALSE(cl->cancel(2));  // already canceled
        EXPECT_FALSE(cl->cancel(99)); // unknown id
        const Request* canceled = cl->poll(2);
        ASSERT_NE(canceled, nullptr);
        EXPECT_EQ(canceled->state, RequestState::Canceled);
        EXPECT_EQ(canceled->cancel_cause, serving::CancelCause::Client);

        const ServingMetrics m = cl->drain();
        EXPECT_EQ(m.num_requests, static_cast<int>(trace.size()) - 2);
        EXPECT_EQ(m.outputs_digest, mr.outputs_digest);
        if (shards == 1) {
            EXPECT_EQ(m.toJson(), mr.toJson()); // clock, makespan, all
        }
        EXPECT_FALSE(cl->cancel(1)); // already ran

        const serving::ClientStats cs = cl->stats();
        EXPECT_EQ(cs.submitted, static_cast<int>(trace.size()));
        EXPECT_EQ(cs.finished, static_cast<int>(trace.size()) - 2);
        EXPECT_EQ(cs.canceled, 2);
        EXPECT_EQ(cs.pending, 0);
    }
}

TEST(Cluster, MidStreamCancelOfEarliestArrivalKeepsMakespanOnSharedClock)
{
    // Request 0 (the earliest arrival) reaches shard 0's engine and is
    // canceled mid-stream; 1 and 2 run on shards 1 and 0. Shard 0's
    // engine measures its makespan from request 0's arrival, so the
    // aggregate must too: it spans the earliest arrival to the last
    // finish.
    ClusterConfig cc;
    cc.num_shards = 2;
    cc.engine = clusterTinyConfig(64);
    cc.router.policy = RoutePolicy::RoundRobin;
    Cluster cl(sim::archA100(), model::llama2_7b(), cc);
    const double arrivals[] = {0.0, 0.02, 0.05};
    cl.streamBegin();
    for (int id = 0; id < 3; id++) {
        Request r = workload(id, 40, id == 0 ? 200 : 24);
        r.arrival_s = arrivals[id];
        cl.streamSubmit(r);
    }
    ASSERT_EQ(cl.shardOf(0), 0);
    ASSERT_EQ(cl.shardOf(1), 1);
    ASSERT_EQ(cl.shardOf(2), 0);
    for (int t = 0; t < 3; t++)
        ASSERT_TRUE(cl.streamTick());
    ASSERT_TRUE(cl.streamCancel(0));
    while (cl.streamTick()) {
    }
    const ServingMetrics m = cl.streamEnd();

    EXPECT_EQ(m.num_requests, 2);
    EXPECT_EQ(cl.poll(0)->state, RequestState::Canceled);
    double last_finish = 0;
    for (int id = 1; id < 3; id++) {
        ASSERT_EQ(cl.poll(id)->state, RequestState::Finished);
        last_finish = std::max(last_finish, cl.poll(id)->finish_s);
    }
    EXPECT_NEAR(m.makespan_s, last_finish - arrivals[0], 1e-12);
}

TEST(Cluster, StatsAggregateAcrossShards)
{
    const EngineConfig cfg = clusterTinyConfig(64);
    auto one = serving::makeServingClient(sim::archA100(),
                                          model::llama2_7b(), cfg, 1);
    auto four = serving::makeServingClient(sim::archA100(),
                                           model::llama2_7b(), cfg, 4);
    EXPECT_EQ(one->stats().shards, 1);
    EXPECT_EQ(four->stats().shards, 4);
    EXPECT_EQ(four->stats().total_pool_pages,
              4 * one->stats().total_pool_pages);

    for (int i = 0; i < 6; i++)
        four->submit(workload(i, 40, 8));
    EXPECT_EQ(four->stats().submitted, 6);
    EXPECT_EQ(four->stats().pending, 6);
    four->drain();
    EXPECT_EQ(four->stats().pending, 0);
    EXPECT_EQ(four->stats().finished, 6);
}

// -------------------------------------------------------- validation ----

TEST(EngineConfigValidate, FailsFastNamingTheOffendingField)
{
    EngineConfig ok = clusterTinyConfig(64);
    ok.validate(); // the baseline config is fine

    EngineConfig bad_page = ok;
    bad_page.page_size = 0;
    EXPECT_DEATH(bad_page.validate(), "page_size must be >= 1");

    EngineConfig bad_fp16 = ok;
    bad_fp16.system = model::SystemKind::FlashDecodingFp16;
    bad_fp16.bits = 4;
    EXPECT_DEATH(bad_fp16.validate(), "bits must be 16");

    EngineConfig bad_bits = ok;
    bad_bits.bits = 5;
    EXPECT_DEATH(bad_bits.validate(), "bits must be 2, 4 or 8");

    EngineConfig bad_batch = ok;
    bad_batch.sched.max_batch = 0;
    EXPECT_DEATH(bad_batch.validate(), "max_batch must be >= 1");

    // The contradictory combo: a fault storm with no tiers underneath
    // would silently never inject anything.
    EngineConfig storm_no_tiers = ok;
    storm_no_tiers.faults = fault::FaultSchedule::parse("fetch=0.1");
    EXPECT_DEATH(storm_no_tiers.validate(),
                 "faults fire on tiered transfer paths");
}

// --------------------------------------------------------- cli flags ----

ServingOptions
parseArgs(std::vector<const char*> args)
{
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>("test-binary"));
    for (const char* a : args)
        argv.push_back(const_cast<char*>(a));
    return ServingOptions::parse(static_cast<int>(argv.size()),
                                 argv.data());
}

TEST(ServingOptions, ParsesTheSharedFlagGrammar)
{
    const ServingOptions o =
        parseArgs({"--backend=reference", "--shards=4", "--smoke",
                   "--faults=fetch=0.5", "--fault-seed=7", "--tier=host",
                   "--hot-pool-pages=128"});
    EXPECT_EQ(o.backend, "reference");
    EXPECT_EQ(o.shards, 4);
    EXPECT_TRUE(o.smoke);
    EXPECT_EQ(o.fault_spec, "fetch=0.5");
    EXPECT_TRUE(o.fault_seed_given);
    EXPECT_EQ(o.fault_seed, 7u);
    EXPECT_EQ(o.tier, "host");
    EXPECT_EQ(o.hot_pool_pages, 128);
}

TEST(ServingOptions, UnknownArgumentsAreLeftForTheCaller)
{
    const ServingOptions o = parseArgs({"--frobnicate", "positional"});
    EXPECT_EQ(o.backend, "");
    EXPECT_EQ(o.shards, 1);
    EXPECT_FALSE(o.smoke);
    EXPECT_FALSE(o.fault_seed_given);
    EXPECT_EQ(o.tier, "host,disk");
}

TEST(ServingOptions, MalformedValuesDieNamingTheFlag)
{
    EXPECT_DEATH(parseArgs({"--shards=0"}), "needs at least 1");
    EXPECT_DEATH(parseArgs({"--shards=abc"}), "non-negative integer");
    EXPECT_DEATH(parseArgs({"--shards"}), "takes its value with '='");
    EXPECT_DEATH(parseArgs({"--tier=ssd"}), "--tier= must be");
    EXPECT_DEATH(parseArgs({"--backend"}), "takes its value with '='");
}

} // namespace
} // namespace bitdec
