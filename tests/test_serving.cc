/**
 * @file
 * Tests for the paged allocator/cache under churn and for the
 * continuous-batching serving engine: admission, preempt-and-recompute,
 * determinism and metrics.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "gpusim/arch.h"
#include "kvcache/paged_cache.h"
#include "model/model_config.h"
#include "serving/client.h"
#include "serving/engine.h"
#include "serving/metrics.h"
#include "serving/request.h"
#include "serving/scheduler.h"
#include "serving/trace.h"

namespace bitdec {
namespace {

using serving::Engine;
using serving::EngineConfig;
using serving::Request;
using serving::RequestState;
using serving::ServingMetrics;

/**
 * One serving run through the narrow ServingClient seam — how every
 * end-to-end test drives the engine (white-box tests that inspect
 * engine.cache() still construct an Engine directly). Results are read
 * back per request via result(id).
 */
struct ClientRun
{
    std::unique_ptr<serving::ServingClient> client;
    ServingMetrics metrics;

    const Request& result(int id) const
    {
        const Request* r = client->poll(id);
        EXPECT_NE(r, nullptr);
        return *r;
    }
};

ClientRun
runClient(const EngineConfig& cfg, const std::vector<Request>& trace,
          int shards = 1)
{
    ClientRun run;
    run.client = serving::makeServingClient(sim::archA100(),
                                            model::llama2_7b(), cfg, shards);
    for (const Request& r : trace)
        run.client->submit(r);
    run.metrics = run.client->drain();
    return run;
}

std::vector<Half>
tokenVec(int d, float value)
{
    return std::vector<Half>(static_cast<std::size_t>(d), Half(value));
}

// ------------------------------------------------- paged cache churn ----

TEST(PagedCacheChurn, PagesRecycleAcrossSequenceGenerations)
{
    kv::PagedHeadCache cache(4, 2, 8); // d=4, 2 tokens/page, 8 pages
    // Three generations of sequences that each consume the whole pool.
    for (int gen = 0; gen < 3; gen++) {
        std::vector<int> seqs;
        for (int i = 0; i < 4; i++)
            seqs.push_back(cache.addSequence());
        for (int i = 0; i < 4; i++)
            for (int t = 0; t < 4; t++)
                ASSERT_TRUE(cache.append(seqs[static_cast<std::size_t>(i)],
                                         tokenVec(4, 1.0f), tokenVec(4, 2.0f)));
        EXPECT_EQ(cache.freePages(), 0);
        for (int s : seqs)
            cache.removeSequence(s);
        EXPECT_EQ(cache.freePages(), 8);
    }
}

TEST(PagedCacheChurn, OomMidSequenceThenRecoversAfterRelease)
{
    kv::PagedHeadCache cache(4, 2, 4);
    const int hog = cache.addSequence();
    for (int t = 0; t < 6; t++)
        ASSERT_TRUE(cache.append(hog, tokenVec(4, 0.5f), tokenVec(4, 0.5f)));
    const int starved = cache.addSequence();
    ASSERT_TRUE(cache.append(starved, tokenVec(4, 1.0f), tokenVec(4, 1.0f)));
    ASSERT_TRUE(cache.append(starved, tokenVec(4, 2.0f), tokenVec(4, 2.0f)));
    // Third token needs a new page; pool is dry mid-sequence.
    EXPECT_FALSE(cache.append(starved, tokenVec(4, 3.0f), tokenVec(4, 3.0f)));
    EXPECT_EQ(cache.length(starved), 2);
    // Freeing the hog unblocks the append and the data is intact.
    cache.removeSequence(hog);
    EXPECT_TRUE(cache.append(starved, tokenVec(4, 3.0f), tokenVec(4, 3.0f)));
    const auto keys = cache.gatherKeys(starved);
    EXPECT_EQ(keys.dim(0), 3u);
    EXPECT_EQ(keys.at(0, 0).toFloat(), 1.0f);
    EXPECT_EQ(keys.at(2, 0).toFloat(), 3.0f);
}

TEST(PagedCacheChurn, DoubleReleaseOfRecycledPagePanics)
{
    kv::PageAllocator alloc(3);
    const auto a = alloc.allocate();
    const auto b = alloc.allocate();
    alloc.release(*a);
    alloc.release(*b);
    EXPECT_DEATH(alloc.release(*b), "double free");
}

TEST(PagedCacheChurn, GatherCrossesPageBoundaries)
{
    kv::PagedHeadCache cache(2, 3, 8); // 3 tokens/page: boundaries at 3, 6
    const int s = cache.addSequence();
    for (int t = 0; t < 8; t++)
        ASSERT_TRUE(cache.append(s, tokenVec(2, static_cast<float>(t)),
                                 tokenVec(2, static_cast<float>(-t))));
    EXPECT_EQ(cache.pageTable(s).size(), 3u);
    const auto keys = cache.gatherKeys(s);
    const auto vals = cache.gatherValues(s);
    for (int t = 0; t < 8; t++) {
        EXPECT_EQ(keys.at(static_cast<std::size_t>(t), 1).toFloat(),
                  static_cast<float>(t));
        EXPECT_EQ(vals.at(static_cast<std::size_t>(t), 0).toFloat(),
                  static_cast<float>(-t));
    }
}

TEST(PagedCacheChurn, EmptySequenceGathersZeroRows)
{
    kv::PagedHeadCache cache(16, 4, 4);
    const int s = cache.addSequence();
    const auto keys = cache.gatherKeys(s);
    const auto vals = cache.gatherValues(s);
    EXPECT_EQ(keys.dim(0), 0u);
    EXPECT_EQ(keys.dim(1), 16u);
    EXPECT_EQ(keys.numel(), 0u);
    EXPECT_EQ(vals.dim(0), 0u);
}

TEST(PagedCacheChurn, ReadsThroughAnOffloadedPagePanic)
{
    kv::PagedHeadCache cache(2, 3, 4);
    const int s = cache.addSequence();
    for (int t = 0; t < 5; t++)
        ASSERT_TRUE(cache.append(s, tokenVec(2, static_cast<float>(t)),
                                 tokenVec(2, static_cast<float>(-t))));
    std::vector<Half> k(6), v(6);
    cache.evictPage(s, 0, k.data(), v.data());
    // The hole is page id kNoPage; every pool read through it must stop
    // at the bounds check, not wrap to memory before the pool.
    EXPECT_DEATH(cache.gatherKeys(s), "pool index out of bounds");
    EXPECT_DEATH(cache.gatherValues(s), "pool index out of bounds");
    EXPECT_DEATH(cache.tokenKey(s, 1), "pool index out of bounds");
    EXPECT_EQ(cache.tokenKey(s, 4)[0].toFloat(), 4.0f); // resident page
}

TEST(PagedCache, HeadroomQueries)
{
    kv::PagedHeadCache cache(4, 4, 4); // 16 token capacity
    EXPECT_EQ(cache.pagesFor(0), 0);
    EXPECT_EQ(cache.pagesFor(1), 1);
    EXPECT_EQ(cache.pagesFor(4), 1);
    EXPECT_EQ(cache.pagesFor(5), 2);
    EXPECT_TRUE(cache.hasHeadroom(0, 16));
    EXPECT_FALSE(cache.hasHeadroom(0, 17));
    const int s = cache.addSequence();
    for (int t = 0; t < 3; t++)
        ASSERT_TRUE(cache.append(s, tokenVec(4, 0.f), tokenVec(4, 0.f)));
    // 3 tokens sit in one page with one slot spare: growing by one token
    // needs no new page, so headroom holds even with 3 free pages left.
    EXPECT_TRUE(cache.hasHeadroom(3, 1));
    EXPECT_TRUE(cache.hasHeadroom(3, 13));
    EXPECT_FALSE(cache.hasHeadroom(3, 14));
}

TEST(PagedCache, LiveSequenceIteration)
{
    kv::PagedHeadCache cache(4, 4, 8);
    const int a = cache.addSequence();
    const int b = cache.addSequence();
    const int c = cache.addSequence();
    cache.removeSequence(b);
    EXPECT_EQ(cache.numLive(), 2);
    EXPECT_EQ(cache.liveSequences(), (std::vector<int>{a, c}));
    // Slot reuse keeps ids dense.
    const int d = cache.addSequence();
    EXPECT_EQ(d, b);
    EXPECT_EQ(cache.numLive(), 3);
}

// ------------------------------------------- prefix sharing and CoW ----

TEST(PageAllocatorRefcount, PageFreesOnlyOnLastRelease)
{
    kv::PageAllocator alloc(2);
    const int p = *alloc.allocate();
    EXPECT_EQ(alloc.refCount(p), 1);
    alloc.retain(p);
    alloc.retain(p);
    EXPECT_EQ(alloc.refCount(p), 3);
    alloc.release(p);
    alloc.release(p);
    EXPECT_EQ(alloc.freePages(), 1); // still held once
    EXPECT_EQ(alloc.refCount(p), 1);
    alloc.release(p);
    EXPECT_EQ(alloc.freePages(), 2);
    EXPECT_EQ(alloc.refCount(p), 0);
}

TEST(PagedCachePrefix, MappedSequenceSharesPagesAndContent)
{
    kv::PagedHeadCache cache(4, 4, 16);
    const int pub = cache.addSequence();
    for (int t = 0; t < 10; t++)
        ASSERT_TRUE(cache.append(pub, tokenVec(4, static_cast<float>(t)),
                                 tokenVec(4, static_cast<float>(-t))));
    ASSERT_TRUE(cache.publishPrefix(77, pub, 8)); // 2 full pages
    EXPECT_EQ(cache.prefixTokens(77), 8);
    EXPECT_EQ(cache.prefixPages(77), 2);
    EXPECT_FALSE(cache.publishPrefix(77, pub, 8)); // first publisher wins

    const int free_before = cache.freePages();
    const int sub = cache.addSequenceWithPrefix(77);
    EXPECT_EQ(cache.freePages(), free_before); // mapping allocates nothing
    EXPECT_EQ(cache.length(sub), 8);
    EXPECT_EQ(cache.pageTable(sub)[0], cache.pageTable(pub)[0]);
    EXPECT_EQ(cache.pageTable(sub)[1], cache.pageTable(pub)[1]);
    const auto keys = cache.gatherKeys(sub);
    for (int t = 0; t < 8; t++)
        EXPECT_EQ(keys.at(static_cast<std::size_t>(t), 0).toFloat(),
                  static_cast<float>(t));

    // The prefix outlives its publisher: the index pins the pages.
    cache.removeSequence(pub);
    EXPECT_EQ(cache.prefixTokens(77), 8);
    EXPECT_EQ(cache.tokenKey(sub, 3)[0].toFloat(), 3.0f);
}

TEST(PagedCachePrefix, CopyOnWriteIsolatesDivergence)
{
    kv::PagedHeadCache cache(2, 4, 16);
    const int pub = cache.addSequence();
    for (int t = 0; t < 6; t++) // 1 full page + 2 slots in the second
        ASSERT_TRUE(cache.append(pub, tokenVec(2, static_cast<float>(t)),
                                 tokenVec(2, 0.f)));
    ASSERT_TRUE(cache.publishPrefix(5, pub, 6)); // shares the partial page

    const int a = cache.addSequenceWithPrefix(5);
    const int b = cache.addSequenceWithPrefix(5);
    ASSERT_EQ(cache.cowCopies(), 0);

    // a diverges into the shared partial page: CoW copies slots [0, 2).
    ASSERT_TRUE(cache.append(a, tokenVec(2, 100.f), tokenVec(2, 0.f)));
    EXPECT_EQ(cache.cowCopies(), 1);
    EXPECT_NE(cache.pageTable(a)[1], cache.pageTable(pub)[1]);
    EXPECT_EQ(cache.pageTable(a)[0], cache.pageTable(pub)[0]);

    // b then diverges too, with different content.
    ASSERT_TRUE(cache.append(b, tokenVec(2, 200.f), tokenVec(2, 0.f)));
    EXPECT_EQ(cache.cowCopies(), 2);

    // All three views agree on the prefix and disagree after it.
    EXPECT_EQ(cache.tokenKey(pub, 5)[0].toFloat(), 5.0f);
    EXPECT_EQ(cache.tokenKey(a, 5)[0].toFloat(), 5.0f);
    EXPECT_EQ(cache.tokenKey(b, 5)[0].toFloat(), 5.0f);
    EXPECT_EQ(cache.tokenKey(a, 6)[0].toFloat(), 100.0f);
    EXPECT_EQ(cache.tokenKey(b, 6)[0].toFloat(), 200.0f);
    EXPECT_EQ(cache.length(pub), 6);

    // The publisher's own append into its (still shared with the index)
    // partial page also goes through CoW.
    ASSERT_TRUE(cache.append(pub, tokenVec(2, 300.f), tokenVec(2, 0.f)));
    EXPECT_EQ(cache.cowCopies(), 3);
}

TEST(PagedCachePrefix, ReclaimableAndUnusedPrefixRelease)
{
    kv::PagedHeadCache cache(2, 4, 16);
    const int pub = cache.addSequence();
    for (int t = 0; t < 8; t++)
        ASSERT_TRUE(cache.append(pub, tokenVec(2, 1.f), tokenVec(2, 1.f)));
    ASSERT_TRUE(cache.publishPrefix(9, pub, 8));
    // Both pages are pinned by the index: freeing pub reclaims nothing.
    EXPECT_EQ(cache.reclaimablePages(pub), 0);

    const int sub = cache.addSequenceWithPrefix(9);
    for (int t = 0; t < 4; t++)
        ASSERT_TRUE(cache.append(sub, tokenVec(2, 2.f), tokenVec(2, 2.f)));
    EXPECT_EQ(cache.reclaimablePages(sub), 1); // only its private page

    // A mapped prefix is not evictable; an unmapped one is.
    EXPECT_EQ(cache.releaseUnusedPrefixes(), 0);
    cache.removeSequence(pub);
    cache.removeSequence(sub);
    EXPECT_EQ(cache.numPrefixes(), 1);
    EXPECT_EQ(cache.freePages(), 16 - 2); // index still pins two pages
    EXPECT_EQ(cache.releaseUnusedPrefixes(), 2);
    EXPECT_EQ(cache.numPrefixes(), 0);
    EXPECT_EQ(cache.freePages(), 16);
}

TEST(PagedCachePrefix, PagesNeededForAppendCountsCow)
{
    kv::PagedHeadCache cache(2, 4, 16);
    const int pub = cache.addSequence();
    for (int t = 0; t < 6; t++)
        ASSERT_TRUE(cache.append(pub, tokenVec(2, 1.f), tokenVec(2, 1.f)));
    ASSERT_TRUE(cache.publishPrefix(3, pub, 6));
    const int sub = cache.addSequenceWithPrefix(3);
    // One token into the shared partial page: zero boundary pages, but a
    // CoW copy is due.
    EXPECT_EQ(cache.pagesNeededForAppend(sub, 1), 1);
    // Three tokens: the CoW page absorbs slots 2..3, token 3 opens page 3.
    EXPECT_EQ(cache.pagesNeededForAppend(sub, 3), 2);
    ASSERT_TRUE(cache.append(sub, tokenVec(2, 2.f), tokenVec(2, 2.f)));
    // After the CoW the last page is private: appends are cheap again.
    EXPECT_EQ(cache.pagesNeededForAppend(sub, 1), 0);
}

// ------------------------------------------------------------ traces ----

TEST(Trace, SameSeedSameTrace)
{
    serving::TraceConfig cfg;
    cfg.seed = 42;
    cfg.num_requests = 32;
    cfg.arrival_rate_qps = 4.0;
    const auto a = serving::generateTrace(cfg);
    const auto b = serving::generateTrace(cfg);
    ASSERT_EQ(a.size(), 32u);
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
        EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens);
        EXPECT_EQ(a[i].output_tokens, b[i].output_tokens);
    }
    cfg.seed = 43;
    const auto c = serving::generateTrace(cfg);
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); i++)
        differs |= a[i].prompt_tokens != c[i].prompt_tokens ||
                   a[i].arrival_s != c[i].arrival_s;
    EXPECT_TRUE(differs);
}

TEST(Trace, ArrivalsSortedAndLengthsClamped)
{
    serving::TraceConfig cfg;
    cfg.num_requests = 200;
    cfg.arrival_rate_qps = 10.0;
    cfg.prompt_min = 64;
    cfg.prompt_max = 256;
    const auto t = serving::generateTrace(cfg);
    for (std::size_t i = 1; i < t.size(); i++)
        EXPECT_GE(t[i].arrival_s, t[i - 1].arrival_s);
    for (const auto& r : t) {
        EXPECT_GE(r.prompt_tokens, 64);
        EXPECT_LE(r.prompt_tokens, 256);
        EXPECT_GE(r.output_tokens, cfg.output_min);
    }
}

TEST(Trace, SmokeTraceIsFixed)
{
    const auto a = serving::smokeTrace();
    const auto b = serving::smokeTrace();
    ASSERT_EQ(a.size(), 8u);
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens);
        EXPECT_EQ(a[i].output_tokens, b[i].output_tokens);
    }
}

// --------------------------------------------------------- scheduler ----

TEST(Scheduler, FcfsAdmissionRespectsBatchAndHeadroom)
{
    kv::PagedHeadCache cache(4, 4, 8); // 32 tokens
    serving::SchedulerConfig cfg;
    cfg.max_batch = 2;
    serving::Scheduler sched(cfg);

    std::vector<Request> reqs(3);
    for (int i = 0; i < 3; i++) {
        reqs[static_cast<std::size_t>(i)].id = i;
        reqs[static_cast<std::size_t>(i)].prompt_tokens = 8;
        reqs[static_cast<std::size_t>(i)].output_tokens = 4;
        sched.enqueue(&reqs[static_cast<std::size_t>(i)]);
    }
    sched.admit(cache);
    // max_batch caps admission at two despite page headroom for a third.
    ASSERT_EQ(sched.running().size(), 2u);
    EXPECT_EQ(sched.running()[0]->id, 0);
    EXPECT_EQ(sched.running()[1]->id, 1);
    EXPECT_EQ(reqs[0].state, RequestState::Prefill);
    EXPECT_EQ(reqs[2].state, RequestState::Queued);
    EXPECT_EQ(sched.waitingCount(), 1);
}

TEST(Scheduler, PreemptionTakesNewestAndResumesFirst)
{
    kv::PagedHeadCache cache(4, 4, 16);
    serving::SchedulerConfig cfg;
    cfg.max_batch = 4;
    serving::Scheduler sched(cfg);

    std::vector<Request> reqs(3);
    for (int i = 0; i < 3; i++) {
        reqs[static_cast<std::size_t>(i)].id = i;
        reqs[static_cast<std::size_t>(i)].prompt_tokens = 4;
        reqs[static_cast<std::size_t>(i)].output_tokens = 4;
        sched.enqueue(&reqs[static_cast<std::size_t>(i)]);
    }
    sched.admit(cache);
    ASSERT_EQ(sched.running().size(), 3u);
    // Give each sequence a page: only page-holding requests are victims.
    for (const Request* r : sched.running())
        ASSERT_TRUE(cache.append(r->seq, tokenVec(4, 1.f), tokenVec(4, 1.f)));

    Request* victim = sched.preemptVictim(cache);
    ASSERT_EQ(victim, &reqs[2]); // newest admitted
    sched.preempt(victim, cache);
    EXPECT_EQ(reqs[2].state, RequestState::Preempted);
    EXPECT_EQ(reqs[2].seq, -1);
    EXPECT_EQ(reqs[2].preemptions, 1);
    EXPECT_EQ(sched.preemptionCount(), 1);

    // The victim re-admits ahead of any later arrival.
    Request late;
    late.id = 99;
    late.prompt_tokens = 4;
    late.output_tokens = 2;
    sched.enqueue(&late);
    sched.admit(cache);
    ASSERT_EQ(sched.running().size(), 4u);
    EXPECT_EQ(sched.running()[2]->id, 2);
    EXPECT_EQ(sched.running()[3]->id, 99);
}

TEST(Scheduler, PriorityPolicyAdmitsUrgentFirst)
{
    kv::PagedHeadCache cache(4, 4, 64);
    serving::SchedulerConfig cfg;
    cfg.max_batch = 2;
    cfg.policy = serving::SchedPolicy::Priority;
    cfg.aging_rate = 0; // pure static priority
    serving::Scheduler sched(cfg);

    std::vector<Request> reqs(4);
    for (int i = 0; i < 4; i++) {
        reqs[static_cast<std::size_t>(i)].id = i;
        reqs[static_cast<std::size_t>(i)].prompt_tokens = 8;
        reqs[static_cast<std::size_t>(i)].output_tokens = 4;
        reqs[static_cast<std::size_t>(i)].priority = i; // 3 most urgent
        sched.enqueue(&reqs[static_cast<std::size_t>(i)]);
    }
    sched.admit(cache, 0.0);
    ASSERT_EQ(sched.running().size(), 2u);
    EXPECT_EQ(sched.running()[0]->id, 3);
    EXPECT_EQ(sched.running()[1]->id, 2);
    EXPECT_EQ(reqs[0].state, RequestState::Queued);
}

TEST(Scheduler, AgingPreventsStarvation)
{
    kv::PagedHeadCache cache(4, 4, 64);
    serving::SchedulerConfig cfg;
    cfg.max_batch = 1;
    cfg.policy = serving::SchedPolicy::Priority;
    cfg.aging_rate = 0.1; // +1 effective priority per 10 s waited
    serving::Scheduler sched(cfg);

    Request old_low;
    old_low.id = 0;
    old_low.arrival_s = 0;
    old_low.priority = 0;
    old_low.prompt_tokens = 8;
    old_low.output_tokens = 4;
    Request new_high;
    new_high.id = 1;
    new_high.arrival_s = 100;
    new_high.priority = 3;
    new_high.prompt_tokens = 8;
    new_high.output_tokens = 4;
    sched.enqueue(&old_low);
    sched.enqueue(&new_high);

    // At t=100 the old request has a +10 aging credit vs +0: 10 > 3.
    EXPECT_GT(sched.effectivePriority(old_low, 100),
              sched.effectivePriority(new_high, 100));
    sched.admit(cache, 100.0);
    ASSERT_EQ(sched.running().size(), 1u);
    EXPECT_EQ(sched.running()[0]->id, 0); // the starving request won

    // Without aging the fresher high-priority request wins.
    serving::SchedulerConfig no_age = cfg;
    no_age.aging_rate = 0;
    serving::Scheduler sched2(no_age);
    Request a = old_low, b = new_high;
    a.state = RequestState::Queued;
    b.state = RequestState::Queued;
    sched2.enqueue(&a);
    sched2.enqueue(&b);
    sched2.admit(cache, 100.0);
    ASSERT_EQ(sched2.running().size(), 1u);
    EXPECT_EQ(sched2.running()[0]->id, 1);
}

TEST(Scheduler, PriorityPreemptionPicksLowestWithReclaimablePages)
{
    kv::PagedHeadCache cache(4, 4, 64);
    serving::SchedulerConfig cfg;
    cfg.max_batch = 4;
    cfg.policy = serving::SchedPolicy::Priority;
    cfg.aging_rate = 0;
    serving::Scheduler sched(cfg);

    std::vector<Request> reqs(3);
    for (int i = 0; i < 3; i++) {
        reqs[static_cast<std::size_t>(i)].id = i;
        reqs[static_cast<std::size_t>(i)].prompt_tokens = 4;
        reqs[static_cast<std::size_t>(i)].output_tokens = 4;
        sched.enqueue(&reqs[static_cast<std::size_t>(i)]);
    }
    reqs[0].priority = 1;
    reqs[1].priority = 0; // lowest: preferred victim
    reqs[2].priority = 2;
    sched.admit(cache, 0.0);
    ASSERT_EQ(sched.running().size(), 3u);
    for (const Request* r : sched.running())
        ASSERT_TRUE(cache.append(r->seq, tokenVec(4, 1.f), tokenVec(4, 1.f)));
    EXPECT_EQ(sched.preemptVictim(cache), &reqs[1]);

    // If the lowest-priority request holds only shared pages, it frees
    // nothing and the next-lowest is picked instead.
    ASSERT_TRUE(cache.publishPrefix(11, reqs[1].seq, 1));
    EXPECT_EQ(cache.reclaimablePages(reqs[1].seq), 0);
    EXPECT_EQ(sched.preemptVictim(cache), &reqs[0]);
}

TEST(Scheduler, PrefixGateHoldsFollowersUntilPublished)
{
    kv::PagedHeadCache cache(4, 4, 64);
    serving::SchedulerConfig cfg;
    cfg.max_batch = 8;
    serving::Scheduler sched(cfg);

    std::vector<Request> reqs(3);
    for (int i = 0; i < 3; i++) {
        reqs[static_cast<std::size_t>(i)].id = i;
        reqs[static_cast<std::size_t>(i)].prompt_tokens = 12;
        reqs[static_cast<std::size_t>(i)].output_tokens = 4;
        reqs[static_cast<std::size_t>(i)].prefix_id = 42;
        reqs[static_cast<std::size_t>(i)].prefix_tokens = 8;
        sched.enqueue(&reqs[static_cast<std::size_t>(i)]);
    }
    sched.admit(cache);
    // Only the publisher-to-be runs; followers wait for its prefix pages.
    ASSERT_EQ(sched.running().size(), 1u);
    EXPECT_EQ(sched.running()[0]->id, 0);
    EXPECT_EQ(sched.waitingCount(), 2);

    // The publisher prefills past the prefix and publishes; the gate opens
    // and followers admit with the shared tokens already in cache.
    for (int t = 0; t < 8; t++)
        ASSERT_TRUE(cache.append(reqs[0].seq, tokenVec(4, 1.f),
                                 tokenVec(4, 1.f)));
    ASSERT_TRUE(cache.publishPrefix(42, reqs[0].seq, 8));
    sched.admit(cache);
    ASSERT_EQ(sched.running().size(), 3u);
    EXPECT_EQ(reqs[1].prefilled, 8);
    EXPECT_EQ(reqs[2].prefilled, 8);
    EXPECT_EQ(reqs[1].prefix_hit_tokens, 8);
    EXPECT_EQ(cache.length(reqs[1].seq), 8);
}

TEST(Scheduler, PrefixGateIgnoresDecodingRunners)
{
    // After a hard index eviction the prefix can be unpublished while a
    // past hit-admitted request is still decoding. That runner will never
    // republish, so it must not gate admission.
    kv::PagedHeadCache cache(4, 4, 64);
    serving::SchedulerConfig cfg;
    serving::Scheduler sched(cfg);

    Request decoding;
    decoding.id = 0;
    decoding.prompt_tokens = 8;
    decoding.output_tokens = 4;
    decoding.prefix_id = 42;
    decoding.prefix_tokens = 8;
    sched.enqueue(&decoding);
    sched.admit(cache);
    ASSERT_EQ(sched.running().size(), 1u);
    decoding.state = RequestState::Decode; // prefill done, index empty

    Request follower = decoding;
    follower.id = 1;
    follower.state = RequestState::Queued;
    follower.seq = -1;
    sched.enqueue(&follower);
    sched.admit(cache);
    ASSERT_EQ(sched.running().size(), 2u); // not gated: cold prefill
    EXPECT_EQ(follower.prefilled, 0);
}

// ------------------------------------------------------------ engine ----

EngineConfig
tinyEngineConfig(int num_pages)
{
    EngineConfig cfg;
    cfg.system = model::SystemKind::BitDecoding;
    cfg.bits = 4;
    cfg.page_size = 8;
    cfg.num_pages = num_pages;
    cfg.cache_head_dim = 4;
    cfg.sched.max_batch = 8;
    cfg.sched.prefill_chunk_tokens = 16;
    return cfg;
}

TEST(Engine, SmokeTraceCompletesEveryRequest)
{
    const auto trace = serving::smokeTrace();
    const ClientRun run = runClient(tinyEngineConfig(512), trace);
    const ServingMetrics& m = run.metrics;
    EXPECT_EQ(m.num_requests, 8);
    EXPECT_EQ(m.preemptions, 0); // ample pool: no pressure
    for (const auto& q : trace) {
        const Request& r = run.result(q.id);
        EXPECT_EQ(r.state, RequestState::Finished);
        EXPECT_EQ(r.generated, r.output_tokens);
        EXPECT_GE(r.first_token_s, r.arrival_s);
        EXPECT_GE(r.finish_s, r.first_token_s);
    }
    EXPECT_GT(m.sustained_tokens_per_s, 0);
    EXPECT_GT(m.ttft_p99_s, 0);
    EXPECT_GE(m.latency_p99_s, m.latency_p50_s);
}

TEST(Engine, SurvivesPageExhaustionWithZeroDrops)
{
    // 28 pages x 8 tokens = 224 tokens; the smoke trace needs 596 token
    // slots across overlapping requests, so the pool is exhausted
    // repeatedly and the scheduler must preempt to make progress.
    const auto trace = serving::smokeTrace();
    const ClientRun run = runClient(tinyEngineConfig(28), trace);
    const ServingMetrics& m = run.metrics;
    EXPECT_EQ(m.num_requests, 8); // zero dropped requests
    EXPECT_GT(m.preemptions, 0);
    for (const auto& q : trace)
        EXPECT_EQ(run.result(q.id).state, RequestState::Finished);
    EXPECT_GT(m.peak_page_utilization, 0.9);
}

TEST(Engine, DeterministicAcrossRuns)
{
    const auto trace = serving::smokeTrace();
    const ClientRun a = runClient(tinyEngineConfig(28), trace);
    const ClientRun b = runClient(tinyEngineConfig(28), trace);
    EXPECT_EQ(a.metrics.outputs_digest, b.metrics.outputs_digest);
    EXPECT_EQ(a.metrics.preemptions, b.metrics.preemptions);
    EXPECT_DOUBLE_EQ(a.metrics.makespan_s, b.metrics.makespan_s);
    EXPECT_DOUBLE_EQ(a.metrics.ttft_p99_s, b.metrics.ttft_p99_s);
    for (const auto& q : trace) {
        EXPECT_EQ(a.result(q.id).output_hash, b.result(q.id).output_hash);
        EXPECT_EQ(a.result(q.id).preemptions, b.result(q.id).preemptions);
    }
}

TEST(Engine, PreemptionPreservesOutputs)
{
    // The same trace through a pressured pool (preempting) and a large
    // pool (never preempting) must produce identical token streams:
    // recompute restored the exact cache content every decode step read.
    const auto trace = serving::smokeTrace();
    const ClientRun small = runClient(tinyEngineConfig(28), trace);
    const ClientRun large = runClient(tinyEngineConfig(512), trace);
    ASSERT_GT(small.metrics.preemptions, 0);
    ASSERT_EQ(large.metrics.preemptions, 0);
    EXPECT_EQ(small.metrics.outputs_digest, large.metrics.outputs_digest);
    for (const auto& q : trace)
        EXPECT_EQ(small.result(q.id).output_hash,
                  large.result(q.id).output_hash);
}

TEST(Engine, GeneratedTraceUnderPressure)
{
    serving::TraceConfig tc;
    tc.seed = 7;
    tc.num_requests = 24;
    tc.arrival_rate_qps = 50.0;
    tc.prompt_median = 48;
    tc.prompt_min = 16;
    tc.prompt_max = 128;
    tc.output_median = 16;
    tc.output_min = 4;
    tc.output_max = 32;
    const auto trace = serving::generateTrace(tc);
    const ClientRun run = runClient(tinyEngineConfig(32), trace);
    EXPECT_EQ(run.metrics.num_requests, 24);
    for (const auto& q : trace)
        EXPECT_EQ(run.result(q.id).generated, q.output_tokens);
}

/** Four requests sharing a 20-token prefix (not page-aligned: page_size 8,
 *  so the third prefix page is partial and exercises CoW). */
std::vector<Request>
prefixTrace()
{
    std::vector<Request> trace;
    for (int i = 0; i < 4; i++) {
        Request r;
        r.id = i;
        r.arrival_s = 0.005 * i;
        r.prompt_tokens = 30;
        r.output_tokens = 8;
        r.prefix_id = 0xABCDull;
        r.prefix_tokens = 20;
        trace.push_back(r);
    }
    return trace;
}

TEST(Engine, PrefixHitDigestEqualsColdPrefillDigest)
{
    auto cold_trace = prefixTrace();
    auto hit_trace = prefixTrace();
    EngineConfig cold_cfg = tinyEngineConfig(64);
    cold_cfg.sched.prefix_reuse = false;
    EngineConfig hit_cfg = tinyEngineConfig(64);
    Engine cold(sim::archA100(), model::llama2_7b(), cold_cfg);
    Engine hit(sim::archA100(), model::llama2_7b(), hit_cfg);
    const ServingMetrics mc = cold.run(cold_trace);
    const ServingMetrics mh = hit.run(hit_trace);

    // Identical token content, so identical digests...
    EXPECT_EQ(mc.outputs_digest, mh.outputs_digest);
    for (std::size_t i = 0; i < cold_trace.size(); i++)
        EXPECT_EQ(cold_trace[i].output_hash, hit_trace[i].output_hash);
    // ...but the reuse run skipped most of the shared prefill work.
    EXPECT_EQ(mc.prefix_hit_tokens, 0);
    EXPECT_EQ(mh.prefix_hit_tokens, 3 * 20);
    EXPECT_EQ(mh.prefill_tokens, mc.prefill_tokens - 3 * 20);
    EXPECT_GT(mh.prefix_hit_rate, 0.3);
    // The 20-token prefix ends mid-page: each follower's first private
    // append copies the partial page.
    EXPECT_GT(mh.cow_copies, 0);
    EXPECT_EQ(mc.cow_copies, 0);
    EXPECT_EQ(hit.cache().numPrefixes(), 1);
    EXPECT_EQ(cold.cache().numPrefixes(), 0);
}

TEST(Engine, PrefixReuseSurvivesPreemptionPressure)
{
    // A pool tight enough to force preemptions while four requests share
    // a prefix: refcounted pages + recompute must still reproduce the
    // relaxed run's content exactly, and every page reference must
    // balance out at the end.
    auto pressured = prefixTrace();
    auto relaxed = prefixTrace();
    Engine small(sim::archA100(), model::llama2_7b(), tinyEngineConfig(10));
    Engine large(sim::archA100(), model::llama2_7b(), tinyEngineConfig(64));
    const ServingMetrics ms = small.run(pressured);
    const ServingMetrics ml = large.run(relaxed);
    ASSERT_GT(ms.preemptions, 0);
    ASSERT_EQ(ml.preemptions, 0);
    EXPECT_EQ(ms.outputs_digest, ml.outputs_digest);
    for (std::size_t i = 0; i < pressured.size(); i++)
        EXPECT_EQ(pressured[i].output_hash, relaxed[i].output_hash);
    // After the run only the prefix index may pin pages.
    EXPECT_EQ(small.cache().numLive(), 0);
    EXPECT_EQ(small.cache().freePages() +
                  small.cache().prefixPages(0xABCDull),
              small.cache().totalPages());
}

TEST(Engine, ExactFitPoolSurvivesCowOrphanedPrefixPage)
{
    // The pool exactly fits one request (pagesFor(30+8) = 10 pages of 4
    // tokens), but the published 18-token prefix ends mid-page: the
    // publisher's own divergence CoWs that partial page, leaving the
    // original pinned by the index. The engine must hard-evict the index
    // to reclaim the orphan instead of aborting, and digests must still
    // match a relaxed cold run.
    auto tight_trace = prefixTrace();
    auto cold_trace = prefixTrace();
    for (auto& r : tight_trace)
        r.prefix_tokens = 18; // 18 % 4 != 0: partial third page
    for (auto& r : cold_trace)
        r.prefix_tokens = 18;

    EngineConfig tight = tinyEngineConfig(10);
    tight.page_size = 4;
    EngineConfig cold_cfg = tinyEngineConfig(64);
    cold_cfg.page_size = 4;
    cold_cfg.sched.prefix_reuse = false;
    Engine engine(sim::archA100(), model::llama2_7b(), tight);
    Engine cold(sim::archA100(), model::llama2_7b(), cold_cfg);
    const ServingMetrics mt = engine.run(tight_trace);
    const ServingMetrics mc = cold.run(cold_trace);
    EXPECT_EQ(mt.num_requests, 4);
    EXPECT_GT(mt.cow_copies, 0);
    EXPECT_EQ(mt.outputs_digest, mc.outputs_digest);
    EXPECT_EQ(engine.cache().numLive(), 0);
}

TEST(Engine, PerPriorityTtftIsReported)
{
    serving::TraceConfig tc;
    tc.seed = 11;
    tc.num_requests = 12;
    tc.arrival_rate_qps = 40.0;
    tc.prompt_median = 48;
    tc.prompt_min = 16;
    tc.prompt_max = 96;
    tc.output_median = 8;
    tc.output_min = 4;
    tc.output_max = 16;
    tc.num_priority_levels = 3;
    const auto trace = serving::generateTrace(tc);
    EngineConfig cfg = tinyEngineConfig(256);
    cfg.sched.policy = serving::SchedPolicy::Priority;
    cfg.sched.max_batch = 2; // force a queue so priorities matter
    const ServingMetrics m = runClient(cfg, trace).metrics;
    ASSERT_EQ(m.ttft_by_priority.size(), 3u);
    int total = 0;
    for (std::size_t i = 0; i < 3; i++) {
        EXPECT_EQ(m.ttft_by_priority[i].priority, static_cast<int>(i));
        EXPECT_EQ(m.ttft_by_priority[i].count, 4);
        EXPECT_GT(m.ttft_by_priority[i].mean_s, 0);
        EXPECT_GE(m.ttft_by_priority[i].p95_s,
                  m.ttft_by_priority[i].mean_s * 0.5);
        total += m.ttft_by_priority[i].count;
    }
    EXPECT_EQ(total, m.num_requests);
}

// ------------------------------------------------- chunked prefill ----

TEST(PagedCache, PagesToGrowIsAlignmentAware)
{
    kv::PagedHeadCache cache(4, 4, 16);
    EXPECT_EQ(cache.pagesToGrow(0, 0), 0);
    EXPECT_EQ(cache.pagesToGrow(0, 9), 3);
    EXPECT_EQ(cache.pagesToGrow(3, 4), 0);  // partial page absorbs it
    EXPECT_EQ(cache.pagesToGrow(4, 5), 1);  // next token opens a page
    EXPECT_EQ(cache.pagesToGrow(5, 13), 2); // 2 pages -> 4 pages
}

TEST(Scheduler, PlanTickReservesDecodeAndFairSharesPrefill)
{
    kv::PagedHeadCache cache(4, 4, 64);
    serving::SchedulerConfig cfg;
    cfg.max_batch = 8;
    cfg.prefill_chunk_tokens = 10;
    serving::Scheduler sched(cfg);

    std::vector<Request> reqs(3);
    for (int i = 0; i < 3; i++) {
        reqs[static_cast<std::size_t>(i)].id = i;
        reqs[static_cast<std::size_t>(i)].prompt_tokens = 8;
        reqs[static_cast<std::size_t>(i)].output_tokens = 4;
        sched.enqueue(&reqs[static_cast<std::size_t>(i)]);
    }
    sched.admit(cache);
    ASSERT_EQ(sched.running().size(), 3u);

    // Three prefills split the 10-token budget evenly; the first request
    // takes the remainder token.
    serving::TickPlan plan = sched.planTick();
    EXPECT_EQ(plan.decode_batch, 0);
    EXPECT_EQ(plan.prefill_tokens, 10);
    EXPECT_EQ(plan.tokens, (std::vector<int>{4, 3, 3}));

    // A decoding request is reserved its token off the top; the two
    // remaining prefills fair-share the other 9.
    reqs[0].prefilled = 8;
    reqs[0].state = RequestState::Decode;
    plan = sched.planTick();
    EXPECT_EQ(plan.decode_batch, 1);
    EXPECT_EQ(plan.prefill_tokens, 9);
    EXPECT_EQ(plan.tokens, (std::vector<int>{1, 5, 4}));

    // Budget a nearly-done prefill cannot use cascades to hungry ones.
    reqs[1].prefilled = 6; // 2 tokens to go
    plan = sched.planTick();
    EXPECT_EQ(plan.tokens, (std::vector<int>{1, 2, 7}));
    EXPECT_EQ(plan.prefill_tokens, 9);
}

TEST(Scheduler, MonolithicPlanLoadsWholeTargetInOneTick)
{
    kv::PagedHeadCache cache(4, 4, 64);
    serving::SchedulerConfig cfg;
    cfg.prefill_chunk_tokens = 0; // monolithic
    serving::Scheduler sched(cfg);

    std::vector<Request> reqs(2);
    for (int i = 0; i < 2; i++) {
        reqs[static_cast<std::size_t>(i)].id = i;
        reqs[static_cast<std::size_t>(i)].prompt_tokens = 30 + i;
        reqs[static_cast<std::size_t>(i)].output_tokens = 4;
        sched.enqueue(&reqs[static_cast<std::size_t>(i)]);
    }
    sched.admit(cache);
    ASSERT_EQ(sched.running().size(), 2u);
    const serving::TickPlan plan = sched.planTick();
    EXPECT_EQ(plan.tokens, (std::vector<int>{30, 31}));
    EXPECT_EQ(plan.prefill_tokens, 61);
}

TEST(Scheduler, ChunkedAdmissionBudgetsOnlyFirstChunk)
{
    // 4 pages x 4 tokens: a 64-token prompt can never be budgeted whole.
    Request r;
    r.id = 0;
    r.prompt_tokens = 64;
    r.output_tokens = 4;

    kv::PagedHeadCache mono_cache(4, 4, 4);
    serving::SchedulerConfig mono_cfg;
    mono_cfg.prefill_chunk_tokens = 0;
    serving::Scheduler mono(mono_cfg);
    mono.enqueue(&r);
    mono.admit(mono_cache);
    EXPECT_EQ(mono.running().size(), 0u); // blocks: 16 pages needed
    EXPECT_EQ(mono.waitingCount(), 1);

    Request rc = r;
    rc.state = RequestState::Queued;
    kv::PagedHeadCache chunk_cache(4, 4, 4);
    serving::SchedulerConfig chunk_cfg;
    chunk_cfg.prefill_chunk_tokens = 8; // first chunk = 2 pages
    serving::Scheduler chunked(chunk_cfg);
    chunked.enqueue(&rc);
    chunked.admit(chunk_cache);
    ASSERT_EQ(chunked.running().size(), 1u);
    EXPECT_EQ(rc.state, RequestState::Prefill);
}

TEST(Engine, ChunkedMatchesMonolithicDigestUnderPreemption)
{
    // The same trace through chunked prefill on a pressured pool and
    // monolithic prefill on pressured and relaxed pools: scheduling
    // changes completely, token content must not.
    const auto trace = serving::smokeTrace();
    EngineConfig mono_cfg = tinyEngineConfig(28);
    mono_cfg.sched.prefill_chunk_tokens = 0;
    EngineConfig relaxed_cfg = tinyEngineConfig(512);
    relaxed_cfg.sched.prefill_chunk_tokens = 0;
    const ClientRun chunked = runClient(tinyEngineConfig(28), trace);
    const ClientRun mono = runClient(mono_cfg, trace);
    const ClientRun relaxed = runClient(relaxed_cfg, trace);
    ASSERT_GT(chunked.metrics.preemptions, 0);
    ASSERT_EQ(relaxed.metrics.preemptions, 0);
    EXPECT_EQ(chunked.metrics.outputs_digest, mono.metrics.outputs_digest);
    EXPECT_EQ(chunked.metrics.outputs_digest, relaxed.metrics.outputs_digest);
    for (const auto& q : trace) {
        EXPECT_EQ(chunked.result(q.id).output_hash,
                  mono.result(q.id).output_hash);
        EXPECT_EQ(chunked.result(q.id).output_hash,
                  relaxed.result(q.id).output_hash);
    }
}

TEST(Engine, ChunkBoundaryCowIntoSharedPartialPage)
{
    // The 20-token prefix ends at slot 4 of page 2 (page_size 8), so a
    // follower's very first 4-token chunk lands inside the shared partial
    // page: the chunk-granular page plan must budget the CoW copy and the
    // divergence must stay private to each follower.
    auto hit_trace = prefixTrace();
    auto cold_trace = prefixTrace();
    EngineConfig hit_cfg = tinyEngineConfig(64);
    hit_cfg.sched.prefill_chunk_tokens = 4;
    EngineConfig cold_cfg = tinyEngineConfig(64);
    cold_cfg.sched.prefix_reuse = false;
    Engine hit(sim::archA100(), model::llama2_7b(), hit_cfg);
    Engine cold(sim::archA100(), model::llama2_7b(), cold_cfg);
    const ServingMetrics mh = hit.run(hit_trace);
    const ServingMetrics mc = cold.run(cold_trace);
    EXPECT_EQ(mh.prefix_hit_tokens, 3 * 20);
    EXPECT_GE(mh.cow_copies, 3); // one CoW per follower divergence
    EXPECT_EQ(mh.outputs_digest, mc.outputs_digest);
    for (std::size_t i = 0; i < hit_trace.size(); i++)
        EXPECT_EQ(hit_trace[i].output_hash, cold_trace[i].output_hash);
}

TEST(Engine, PrefixPublishesMidPrefillOnNonChunkAlignedBoundary)
{
    // The publisher's 200-token prompt prefills 16 tokens per tick, so
    // the 20-token prefix boundary is crossed mid-chunk (prefilled 16 ->
    // 32). Chunk-aware publication must publish right then: followers
    // map the prefix, fair-share the budget to load their short tails
    // alongside the still-prefilling publisher, and finish their decode
    // before the publisher produces its first token.
    std::vector<Request> trace;
    for (int i = 0; i < 4; i++) {
        Request r;
        r.id = i;
        r.arrival_s = 0.001 * i;
        r.prompt_tokens = i == 0 ? 200 : 30;
        r.output_tokens = 4;
        r.prefix_id = 0xF00Dull;
        r.prefix_tokens = 20;
        trace.push_back(r);
    }
    EngineConfig cfg = tinyEngineConfig(512);
    // 20 % 16 != 0: the boundary never coincides with a chunk boundary.
    ASSERT_EQ(cfg.sched.prefill_chunk_tokens, 16);
    const ClientRun run = runClient(cfg, trace);
    EXPECT_EQ(run.metrics.prefix_hit_tokens, 3 * 20);
    for (int i = 1; i < 4; i++)
        EXPECT_LT(run.result(i).finish_s, run.result(0).first_token_s)
            << "follower " << i << " should finish while the publisher "
            << "is still prefilling";
}

TEST(Engine, DecodeStallMetricsReported)
{
    const ServingMetrics m =
        runClient(tinyEngineConfig(512), serving::smokeTrace()).metrics;
    EXPECT_GT(m.decode_stall_p50_s, 0);
    EXPECT_GE(m.decode_stall_p99_s, m.decode_stall_p50_s);
    EXPECT_GE(m.decode_stall_max_s, m.decode_stall_p99_s);
    EXPECT_GT(m.decode_stall_mean_s, 0);
    // Stalls are inter-token gaps: bounded below by the fastest step.
    EXPECT_LE(m.decode_stall_p50_s, m.makespan_s);
}

TEST(Trace, LongPromptStragglersOverrideOnlyTheirDraw)
{
    serving::TraceConfig base;
    base.seed = 5;
    base.num_requests = 12;
    base.prompt_min = 16;
    base.prompt_max = 256;
    serving::TraceConfig straggler = base;
    straggler.long_prompt_every = 3;
    straggler.long_prompt_tokens = 5000;
    const auto a = serving::generateTrace(base);
    const auto b = serving::generateTrace(straggler);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
        EXPECT_EQ(a[i].output_tokens, b[i].output_tokens);
        if ((i + 1) % 3 == 0)
            EXPECT_EQ(b[i].prompt_tokens, 5000);
        else
            EXPECT_EQ(b[i].prompt_tokens, a[i].prompt_tokens);
    }
}

TEST(Engine, DerivedPoolScalesWithBitWidth)
{
    EngineConfig fp16;
    fp16.system = model::SystemKind::FlashDecodingFp16;
    EngineConfig bd4;
    bd4.system = model::SystemKind::BitDecoding;
    bd4.bits = 4;
    const auto& arch = sim::archA100();
    const auto& m = model::llama31_8b();
    const int fp16_pages = Engine::derivePoolPages(arch, m, fp16);
    const int bd4_pages = Engine::derivePoolPages(arch, m, bd4);
    EXPECT_GT(fp16_pages, 0);
    // The 4-bit cache holds ~4x the pages of FP16 on the same device.
    EXPECT_GT(bd4_pages, 3 * fp16_pages);
    EXPECT_LT(bd4_pages, 5 * fp16_pages);
}

// ------------------------------------------------- tiered offload ----

/** tinyEngineConfig plus one ample host tier (preempt offloads, never
 *  drops) and the reference attention backend so attn_hash is live. */
EngineConfig
tieredTinyConfig(int num_pages)
{
    EngineConfig cfg = tinyEngineConfig(num_pages);
    cfg.backend = "reference";
    kv::TierSpec host;
    host.name = "host";
    host.capacity_gb = 1.0;
    cfg.tiered.tiers.push_back(host);
    cfg.tiered.prefetch_pages = 4;
    return cfg;
}

TEST(Engine, TieredPreemptOffloadResumePreservesDigests)
{
    // Preempt -> offload -> demand-fetch -> resume must read back the
    // exact bytes the preempted sequence held: both the token stream
    // (output_hash) and every decode step's attention output (attn_hash)
    // match a run that never came under pressure.
    const auto trace = serving::smokeTrace();
    EngineConfig big = tinyEngineConfig(512);
    big.backend = "reference";
    const ClientRun small = runClient(tieredTinyConfig(28), trace);
    const ClientRun large = runClient(big, trace);
    const ServingMetrics& ms = small.metrics;
    ASSERT_GT(ms.preemptions, 0);
    ASSERT_GT(ms.tier.offloaded_pages, 0); // preemption crossed tiers
    EXPECT_GT(ms.tier.fetched_pages, 0);
    EXPECT_GT(ms.cold_resumes, 0);
    EXPECT_EQ(ms.recompute_resumes, 0); // ample cold tier: nothing lost
    EXPECT_DOUBLE_EQ(ms.tier_hit_rate, 1.0);
    EXPECT_GT(ms.fetch_stall_total_s, 0);
    EXPECT_EQ(ms.outputs_digest, large.metrics.outputs_digest);
    for (const auto& q : trace) {
        EXPECT_EQ(small.result(q.id).output_hash,
                  large.result(q.id).output_hash);
        ASSERT_NE(small.result(q.id).attn_hash, 0u);
        EXPECT_EQ(small.result(q.id).attn_hash, large.result(q.id).attn_hash);
    }
}

TEST(Engine, TieredPreemptOffloadResumeUnderPriorityPolicy)
{
    serving::TraceConfig tc;
    tc.seed = 23;
    tc.num_requests = 16;
    tc.arrival_rate_qps = 60.0;
    tc.prompt_median = 48;
    tc.prompt_min = 16;
    tc.prompt_max = 96;
    tc.output_median = 12;
    tc.output_min = 4;
    tc.output_max = 24;
    tc.num_priority_levels = 3;
    const auto trace = serving::generateTrace(tc);
    EngineConfig small_cfg = tieredTinyConfig(28);
    small_cfg.sched.policy = serving::SchedPolicy::Priority;
    EngineConfig big_cfg = tinyEngineConfig(512);
    big_cfg.backend = "reference";
    big_cfg.sched.policy = serving::SchedPolicy::Priority;
    const ClientRun small = runClient(small_cfg, trace);
    const ClientRun large = runClient(big_cfg, trace);
    ASSERT_GT(small.metrics.preemptions, 0);
    ASSERT_GT(small.metrics.tier.offloaded_pages, 0);
    EXPECT_EQ(small.metrics.outputs_digest, large.metrics.outputs_digest);
    for (const auto& q : trace) {
        EXPECT_EQ(small.result(q.id).output_hash,
                  large.result(q.id).output_hash);
        EXPECT_EQ(small.result(q.id).attn_hash, large.result(q.id).attn_hash);
    }
}

TEST(Engine, IdleSessionsParkOffloadAndWakeDigestIdentical)
{
    // Idle sessions prefill, park, and their pages go cold; wakes fetch
    // them back. The tiered run and an untiered run (which must recompute
    // evicted idle sessions from seeds) agree on every token.
    serving::TraceConfig tc;
    tc.seed = 5;
    tc.num_requests = 8;
    tc.arrival_rate_qps = 50.0;
    tc.prompt_median = 32;
    tc.prompt_min = 16;
    tc.prompt_max = 64;
    tc.output_median = 8;
    tc.output_min = 4;
    tc.output_max = 16;
    tc.num_idle_sessions = 6;
    tc.idle_prompt_tokens = 64; // 8 pages each under page_size 8
    tc.idle_output_tokens = 4;
    tc.idle_wake_s = 2.0;
    tc.idle_wake_stagger_s = 0.1;
    const auto trace = serving::generateTrace(tc);
    ASSERT_EQ(trace.size(), 14u);
    // 6 idle sessions hold 48 pages; the pool fits ~half of that on top
    // of the live traffic, so parked sessions must be evicted.
    EngineConfig plain_cfg = tinyEngineConfig(40);
    plain_cfg.backend = "reference";
    const ClientRun tiered = runClient(tieredTinyConfig(40), trace);
    const ClientRun plain = runClient(plain_cfg, trace);
    const ServingMetrics& mt = tiered.metrics;
    const ServingMetrics& mp = plain.metrics;
    for (const auto& q : trace)
        EXPECT_EQ(tiered.result(q.id).state, RequestState::Finished);
    ASSERT_GT(mt.tier.offloaded_pages, 0);
    EXPECT_GT(mt.cold_resumes, 0);
    // The untiered engine had to recompute what the tiered one fetched.
    EXPECT_GT(mp.recompute_resumes, 0);
    EXPECT_EQ(mp.tier.offloaded_pages, 0);
    EXPECT_EQ(mt.outputs_digest, mp.outputs_digest);
    for (const auto& q : trace) {
        EXPECT_EQ(tiered.result(q.id).output_hash,
                  plain.result(q.id).output_hash);
        EXPECT_EQ(tiered.result(q.id).attn_hash,
                  plain.result(q.id).attn_hash);
    }
    // Tier occupancy reporting is wired through the metrics.
    ASSERT_EQ(mt.tiers.size(), 1u);
    EXPECT_EQ(mt.tiers[0].name, "host");
    EXPECT_GT(mt.tiers[0].peak_used_pages, 0);
    EXPECT_GT(mt.tiers[0].capacity_pages, 0);
    EXPECT_GE(mt.peak_resident_seqs, mp.peak_resident_seqs);
}

TEST(Trace, IdleSessionsExtendWithoutDisturbingTheMainTrace)
{
    serving::TraceConfig base;
    base.seed = 9;
    base.num_requests = 6;
    serving::TraceConfig with_idle = base;
    with_idle.num_idle_sessions = 3;
    with_idle.idle_prompt_tokens = 128;
    with_idle.idle_output_tokens = 4;
    with_idle.idle_wake_s = 10.0;
    const auto plain = serving::generateTrace(base);
    const auto extended = serving::generateTrace(with_idle);
    ASSERT_EQ(extended.size(), plain.size() + 3);
    // The main requests are byte-identical: idle sessions draw no RNG.
    std::vector<const Request*> main_reqs;
    int idle_count = 0;
    for (const auto& r : extended) {
        if (r.idle_after_tokens > 0) {
            idle_count++;
            EXPECT_EQ(r.prompt_tokens, 128);
            EXPECT_EQ(r.idle_after_tokens, 1);
            EXPECT_GE(r.idle_wake_s, 10.0);
        } else {
            main_reqs.push_back(&r);
        }
    }
    ASSERT_EQ(idle_count, 3);
    for (std::size_t i = 0; i < plain.size(); i++) {
        EXPECT_EQ(main_reqs[i]->id, plain[i].id);
        EXPECT_EQ(main_reqs[i]->prompt_tokens, plain[i].prompt_tokens);
        EXPECT_EQ(main_reqs[i]->output_tokens, plain[i].output_tokens);
        EXPECT_DOUBLE_EQ(main_reqs[i]->arrival_s, plain[i].arrival_s);
    }
}

} // namespace
} // namespace bitdec
