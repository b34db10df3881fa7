/**
 * @file
 * Tests for the tiered KV-cache pool: host/disk offload round-trips
 * (residency read from the hot page table's holes), shared-page
 * pinning, the resume mark, prefetch lookahead and tier-capacity
 * accounting (spills, LRU drops) under churn.
 */
#include <gtest/gtest.h>

#include <vector>

#include "kvcache/paged_cache.h"
#include "kvcache/tiered_cache.h"

namespace bitdec {
namespace {

using kv::PagedHeadCache;
using kv::TieredConfig;
using kv::TieredPagePool;
using kv::TierSpec;

std::vector<Half>
tokenVec(int d, float value)
{
    return std::vector<Half>(static_cast<std::size_t>(d), Half(value));
}

// ---------------------------------------------------- tiered pool ------

/** One tier of exactly @p pages pages (1 GB "pages" make the math exact). */
TieredConfig
tinyTiers(int t0_pages, int t1_pages = 0, int prefetch = 0)
{
    TieredConfig cfg;
    cfg.bytes_per_page = 1e9; // 1 page == 1 GB: capacity_gb counts pages
    cfg.prefetch_pages = prefetch;
    TierSpec host;
    host.name = "host";
    host.capacity_gb = t0_pages;
    cfg.tiers.push_back(host);
    if (t1_pages > 0) {
        TierSpec disk;
        disk.name = "disk";
        disk.capacity_gb = t1_pages;
        disk.bandwidth_gbps = 4.0;
        disk.latency_s = 100e-6;
        cfg.tiers.push_back(disk);
    }
    return cfg;
}

/** Appends @p tokens tokens with per-position key values to @p seq. */
void
fillSeq(PagedHeadCache& cache, int seq, int tokens, float base = 0.0f)
{
    for (int t = 0; t < tokens; t++)
        ASSERT_TRUE(cache.append(seq, tokenVec(cache.headDim(), base + t),
                                 tokenVec(cache.headDim(), base + t + 0.5f)));
}

TEST(TieredPool, DisabledWithNoTiers)
{
    PagedHeadCache cache(4, 2, 8);
    TieredPagePool pool(cache, TieredConfig{});
    EXPECT_FALSE(pool.enabled());
    const int seq = cache.addSequence();
    fillSeq(cache, seq, 4);
    EXPECT_EQ(pool.offloadSequence(seq, 0.0, {}).moved, 0);
    EXPECT_FALSE(pool.tracked(seq));
    EXPECT_EQ(cache.missingPages(seq), 0);
}

TEST(TieredPool, OffloadRestoreRoundTripPreservesPayload)
{
    PagedHeadCache cache(4, 2, 8);
    TieredPagePool pool(cache, tinyTiers(8));
    const int seq = cache.addSequence();
    fillSeq(cache, seq, 8); // 4 pages, every token distinct
    const auto before = cache.gatherKeys(seq);
    ASSERT_EQ(cache.freePages(), 4);

    const kv::OffloadResult off = pool.offloadSequence(seq, 1.0, {});
    EXPECT_EQ(off.moved, 4);
    EXPECT_EQ(off.dropped, 0);
    EXPECT_GT(off.writeback_s, 0);
    EXPECT_EQ(off.status, kv::CacheStatus::Ok);
    EXPECT_EQ(cache.freePages(), 8); // hot pages all returned
    EXPECT_EQ(cache.missingPages(seq), 4);
    EXPECT_EQ(cache.length(seq), 8); // the sequence itself stays live
    EXPECT_EQ(pool.coldPages(seq), 4);
    EXPECT_EQ(pool.tierUsedPages(0), 4);
    EXPECT_EQ(cache.missingPages(seq, 0, 3), 4);
    EXPECT_EQ(cache.missingPages(seq, 2, 2), 1);
    EXPECT_EQ(pool.stats().offloaded_pages, 4);

    const kv::FetchResult fr = pool.fetchRange(seq, 0, 7, 2.0);
    EXPECT_EQ(fr.restored, 4);
    EXPECT_GT(fr.latency_s, 0);
    EXPECT_EQ(fr.status, kv::CacheStatus::Ok);
    EXPECT_EQ(cache.missingPages(seq), 0);
    EXPECT_EQ(pool.tierUsedPages(0), 0);
    EXPECT_EQ(cache.missingPages(seq, 0, 3), 0);
    EXPECT_EQ(pool.stats().fetched_pages, 4);

    // Byte-identical payload after the round trip.
    const auto after = cache.gatherKeys(seq);
    ASSERT_EQ(after.dim(0), before.dim(0));
    for (std::size_t t = 0; t < after.dim(0); t++)
        for (std::size_t d = 0; d < after.dim(1); d++)
            EXPECT_EQ(after.at(t, d).bits(), before.at(t, d).bits());
}

TEST(TieredPool, ResumeMarkIsSetByMovingOffloadsAndDroppedOnForget)
{
    PagedHeadCache cache(4, 2, 8);
    TieredPagePool pool(cache, tinyTiers(8));

    // An offload that moves pages marks one resume, taken exactly once.
    const int seq = cache.addSequence();
    fillSeq(cache, seq, 4); // 2 pages
    EXPECT_FALSE(pool.takeResumeMark(seq)); // untracked: no mark
    ASSERT_EQ(pool.offloadSequence(seq, 1.0, {}).moved, 2);
    // A second offload moves nothing and leaves the one mark as it is.
    ASSERT_EQ(pool.offloadSequence(seq, 1.5, {}).moved, 0);
    ASSERT_EQ(pool.fetchRange(seq, 0, 3, 2.0).restored, 2);
    EXPECT_TRUE(pool.takeResumeMark(seq));
    EXPECT_FALSE(pool.takeResumeMark(seq));

    // An offload that moves nothing (every page shared) marks nothing,
    // though it leaves the sequence tracked.
    ASSERT_TRUE(cache.publishPrefix(0xF00Dull, seq, 4));
    const int consumer = cache.addSequenceWithPrefix(0xF00Dull);
    ASSERT_EQ(pool.offloadSequence(consumer, 3.0, {}).moved, 0);
    EXPECT_TRUE(pool.tracked(consumer));
    EXPECT_FALSE(pool.takeResumeMark(consumer));

    // forgetSequence drops an unresolved mark with the record.
    const int other = cache.addSequence();
    fillSeq(cache, other, 4, 10.0f);
    ASSERT_EQ(pool.offloadSequence(other, 4.0, {}).moved, 2);
    pool.forgetSequence(other);
    EXPECT_FALSE(pool.tracked(other));
    EXPECT_FALSE(pool.takeResumeMark(other));
    EXPECT_EQ(pool.tierUsedPages(0), 0);
}

TEST(TieredPool, SharedPrefixPagesPinnedHot)
{
    PagedHeadCache cache(4, 2, 8);
    TieredPagePool pool(cache, tinyTiers(8));
    const int seq = cache.addSequence();
    fillSeq(cache, seq, 6); // 3 pages
    ASSERT_TRUE(cache.publishPrefix(0xF00Dull, seq, 4)); // pins pages 0, 1

    // Only the exclusively-owned page 2 may cross tiers.
    EXPECT_EQ(pool.offloadSequence(seq, 1.0, {}).moved, 1);
    EXPECT_EQ(cache.missingPages(seq), 1);
    EXPECT_TRUE(cache.pageResident(seq, 0));
    EXPECT_TRUE(cache.pageResident(seq, 1));
    EXPECT_FALSE(cache.pageResident(seq, 2));
    // The prefix is still mappable by a new consumer.
    const int consumer = cache.addSequenceWithPrefix(0xF00Dull);
    EXPECT_EQ(cache.length(consumer), 4);
}

TEST(TieredPool, CowPartialPagePinnedUntilDivergence)
{
    PagedHeadCache cache(4, 2, 8);
    TieredPagePool pool(cache, tinyTiers(8));
    const int pub = cache.addSequence();
    fillSeq(cache, pub, 3); // pages [full, partial]
    ASSERT_TRUE(cache.publishPrefix(0xBEEFull, pub, 3));
    const int consumer = cache.addSequenceWithPrefix(0xBEEFull);

    // Every consumer page is shared (prefix index + publisher): nothing
    // to offload, the partial page in particular is never torn.
    EXPECT_EQ(pool.offloadSequence(consumer, 1.0, {}).moved, 0);
    EXPECT_EQ(cache.missingPages(consumer), 0);

    // Divergence copies the partial page; the private copy may offload,
    // the still-shared full page stays hot.
    ASSERT_TRUE(cache.append(consumer, tokenVec(4, 9.0f), tokenVec(4, 9.5f)));
    ASSERT_GT(cache.cowCopies(), 0);
    EXPECT_EQ(pool.offloadSequence(consumer, 2.0, {}).moved, 1);
    EXPECT_TRUE(cache.pageResident(consumer, 0));
    EXPECT_FALSE(cache.pageResident(consumer, 1));
    // The publisher's view of the shared partial page is untouched.
    EXPECT_EQ(cache.tokenKey(pub, 2)[0].toFloat(), 2.0f);
}

TEST(TieredPool, PrefetchRestoresNearestColdPagesOnce)
{
    PagedHeadCache cache(4, 2, 16);
    TieredPagePool pool(cache, tinyTiers(8, 0, /*prefetch=*/2));
    const int seq = cache.addSequence();
    fillSeq(cache, seq, 16); // 8 pages
    ASSERT_EQ(pool.offloadSequence(seq, 1.0, {}).moved, 8);

    // Demand = page 0 (tokens 0..1); lookahead fetches the 2 nearest
    // cold pages beyond the range.
    EXPECT_EQ(pool.fetchRange(seq, 0, 1, 2.0).restored, 3);
    EXPECT_TRUE(cache.pageResident(seq, 0));
    EXPECT_TRUE(cache.pageResident(seq, 1));
    EXPECT_TRUE(cache.pageResident(seq, 2));
    EXPECT_FALSE(cache.pageResident(seq, 3));
    EXPECT_EQ(pool.stats().fetched_pages, 1);
    EXPECT_EQ(pool.stats().prefetched_pages, 2);

    // First real read of the prefetched pages counts a hit — once.
    pool.touchRange(seq, 0, 5, 3.0); // pages 0..2
    EXPECT_EQ(pool.stats().prefetch_hits, 2);
    pool.touchRange(seq, 0, 5, 4.0);
    EXPECT_EQ(pool.stats().prefetch_hits, 2);

    // The next demand fetch prefetches past the already-hot window.
    EXPECT_EQ(pool.fetchRange(seq, 6, 7, 5.0).restored, 3); // page 3 + pages 4, 5...
    EXPECT_TRUE(cache.pageResident(seq, 3));
}

TEST(TieredPool, PrefetchLooksBehindAResumedAppendPoint)
{
    // A resumed prefill demands only the partial page it appends into;
    // the cold pages BEHIND it must still be prefetched.
    PagedHeadCache cache(4, 2, 16);
    TieredPagePool pool(cache, tinyTiers(8, 0, /*prefetch=*/2));
    const int seq = cache.addSequence();
    fillSeq(cache, seq, 12); // 6 pages
    ASSERT_EQ(pool.offloadSequence(seq, 1.0, {}).moved, 6);

    // Demand the last page only: lookahead has nothing ahead, so it
    // walks backwards from the range.
    EXPECT_EQ(pool.fetchRange(seq, 10, 11, 2.0).restored, 3);
    EXPECT_TRUE(cache.pageResident(seq, 5));
    EXPECT_TRUE(cache.pageResident(seq, 4));
    EXPECT_TRUE(cache.pageResident(seq, 3));
    EXPECT_FALSE(cache.pageResident(seq, 2));
}

TEST(TieredPool, FetchStopsOnHotOomAndResumesAfterFree)
{
    PagedHeadCache cache(4, 2, 4);
    TieredPagePool pool(cache, tinyTiers(8));
    const int seq = cache.addSequence();
    fillSeq(cache, seq, 8); // whole pool
    const auto before = cache.gatherKeys(seq);
    ASSERT_EQ(pool.offloadSequence(seq, 1.0, {}).moved, 4);

    // A hog takes 3 of the 4 freed pages: only one restore fits.
    const int hog = cache.addSequence();
    fillSeq(cache, hog, 6, 100.0f);
    EXPECT_EQ(pool.fetchRange(seq, 0, 7, 2.0).restored, 1);
    EXPECT_EQ(cache.missingPages(seq), 3);

    cache.removeSequence(hog);
    EXPECT_EQ(pool.fetchRange(seq, 0, 7, 3.0).restored, 3);
    EXPECT_EQ(cache.missingPages(seq), 0);
    const auto after = cache.gatherKeys(seq);
    for (std::size_t t = 0; t < after.dim(0); t++)
        EXPECT_EQ(after.at(t, 0).bits(), before.at(t, 0).bits());
}

TEST(TieredPool, SpillsHostToDiskWhenFastTierFills)
{
    PagedHeadCache cache(4, 2, 8);
    TieredPagePool pool(cache, tinyTiers(2, 2));
    EXPECT_EQ(pool.numTiers(), 2);
    EXPECT_EQ(pool.tierCapacityPages(0), 2);
    EXPECT_EQ(pool.tierCapacityPages(1), 2);

    const int a = cache.addSequence();
    fillSeq(cache, a, 4); // 2 pages
    const int b = cache.addSequence();
    fillSeq(cache, b, 4, 10.0f);

    ASSERT_EQ(pool.offloadSequence(a, 1.0, {}).moved, 2);
    EXPECT_EQ(pool.tierUsedPages(0), 2); // host full
    ASSERT_EQ(pool.offloadSequence(b, 2.0, {}).moved, 2);
    // The colder sequence's pages spilled down; the hotter landed on host.
    EXPECT_GT(pool.stats().spilled_pages, 0);
    EXPECT_EQ(pool.tierUsedPages(0) + pool.tierUsedPages(1), 4);
    EXPECT_LE(pool.tierUsedPages(0), pool.tierCapacityPages(0));
    EXPECT_LE(pool.tierUsedPages(1), pool.tierCapacityPages(1));
    EXPECT_EQ(pool.stats().lru_drops, 0); // capacity sufficed: no drops

    // Both survive the shuffle byte-identically.
    EXPECT_EQ(pool.fetchRange(b, 0, 3, 3.0).restored, 2);
    EXPECT_EQ(cache.tokenKey(b, 0)[0].toFloat(), 10.0f);
    EXPECT_EQ(pool.fetchRange(a, 0, 3, 4.0).restored, 2);
    EXPECT_EQ(cache.tokenKey(a, 3)[0].toFloat(), 3.0f);
    EXPECT_EQ(pool.tierUsedPages(0) + pool.tierUsedPages(1), 0);
}

TEST(TieredPool, LruDropWhenEveryTierIsFull)
{
    PagedHeadCache cache(4, 2, 8);
    TieredPagePool pool(cache, tinyTiers(2, 2));
    const int a = cache.addSequence();
    fillSeq(cache, a, 4);
    const int b = cache.addSequence();
    fillSeq(cache, b, 4, 10.0f);
    const int c = cache.addSequence();
    fillSeq(cache, c, 4, 20.0f);

    ASSERT_EQ(pool.offloadSequence(a, 1.0, {}).moved, 2);
    ASSERT_EQ(pool.offloadSequence(b, 2.0, {}).moved, 2);
    // Both tiers full: offloading c must drop the LRU victim (a).
    ASSERT_EQ(pool.offloadSequence(c, 3.0, {}).moved, 2);
    EXPECT_TRUE(pool.contentLost(a));
    EXPECT_FALSE(pool.contentLost(b));
    EXPECT_FALSE(pool.contentLost(c));
    EXPECT_EQ(pool.stats().lru_drops, 1);
    EXPECT_EQ(pool.stats().dropped_pages, 2);
    EXPECT_EQ(pool.coldPages(a), 0);
    // A lost sequence cannot fetch: the engine recomputes it instead,
    // told so by the ContentLost status (not a silent zero).
    const kv::FetchResult lost = pool.fetchRange(a, 0, 3, 4.0);
    EXPECT_EQ(lost.restored, 0);
    EXPECT_EQ(lost.status, kv::CacheStatus::ContentLost);
    // Accounting stays exact: survivors' pages fill the tiers.
    EXPECT_EQ(pool.tierUsedPages(0) + pool.tierUsedPages(1),
              pool.coldPages(b) + pool.coldPages(c));
    EXPECT_LE(pool.tierUsedPages(0), pool.tierCapacityPages(0));
    EXPECT_LE(pool.tierUsedPages(1), pool.tierCapacityPages(1));
}

TEST(TieredPool, ProtectedSequencesAreNeverLruDropped)
{
    PagedHeadCache cache(4, 2, 8);
    TieredPagePool pool(cache, tinyTiers(2, 2));
    const int a = cache.addSequence();
    fillSeq(cache, a, 4);
    const int b = cache.addSequence();
    fillSeq(cache, b, 4, 10.0f);
    const int c = cache.addSequence();
    fillSeq(cache, c, 4, 20.0f);

    ASSERT_EQ(pool.offloadSequence(a, 1.0, {}).moved, 2);
    ASSERT_EQ(pool.offloadSequence(b, 2.0, {}).moved, 2);
    // a (the LRU) is protected, so the drop falls on b.
    ASSERT_EQ(pool.offloadSequence(c, 3.0, {a}).moved, 2);
    EXPECT_FALSE(pool.contentLost(a));
    EXPECT_TRUE(pool.contentLost(b));
}

TEST(TieredPool, CapacityAccountingUnderChurn)
{
    PagedHeadCache cache(4, 2, 16);
    TieredPagePool pool(cache, tinyTiers(3, 3));
    // Park/resume generations against tiny tiers: used counters must
    // track cold pages exactly and never exceed capacity.
    for (int gen = 0; gen < 4; gen++) {
        std::vector<int> seqs;
        for (int i = 0; i < 3; i++) {
            const int s = cache.addSequence();
            fillSeq(cache, s, 4, static_cast<float>(10 * gen + i));
            seqs.push_back(s);
        }
        double now = gen * 10.0;
        int cold = 0;
        for (int s : seqs)
            cold += pool.offloadSequence(s, now += 1.0, seqs).moved;
        EXPECT_EQ(cold, 6);
        EXPECT_LE(pool.tierUsedPages(0), pool.tierCapacityPages(0));
        EXPECT_LE(pool.tierUsedPages(1), pool.tierCapacityPages(1));
        int held = 0;
        for (int s : seqs)
            held += pool.coldPages(s);
        EXPECT_EQ(pool.tierUsedPages(0) + pool.tierUsedPages(1), held);
        for (int s : seqs) {
            EXPECT_FALSE(pool.contentLost(s)); // capacity fit: no drops
            EXPECT_EQ(pool.fetchRange(s, 0, 3, now += 1.0).restored, 2);
            pool.forgetSequence(s);
            cache.removeSequence(s);
        }
        // forget/finish returns every cold page to the tiers.
        EXPECT_EQ(pool.tierUsedPages(0), 0);
        EXPECT_EQ(pool.tierUsedPages(1), 0);
        EXPECT_EQ(cache.freePages(), cache.totalPages());
    }
    EXPECT_EQ(pool.stats().offloaded_pages, 24);
}

TEST(TieredPool, FetchAfterSequenceGrewSinceOffload)
{
    // A sequence that appended more (hot) pages since its offload must
    // still fetch its cold prefix cleanly and end fully resident.
    PagedHeadCache cache(4, 2, 8);
    TieredPagePool pool(cache, tinyTiers(8));
    const int seq = cache.addSequence();
    fillSeq(cache, seq, 8); // 4 pages
    const auto before = cache.gatherKeys(seq);
    ASSERT_EQ(pool.offloadSequence(seq, 1.0, {}).moved, 4);

    // Grow while cold: two more tokens land on a fresh hot page 4.
    ASSERT_TRUE(cache.append(seq, tokenVec(4, 50.0f), tokenVec(4, 50.5f)));
    ASSERT_TRUE(cache.append(seq, tokenVec(4, 51.0f), tokenVec(4, 51.5f)));
    EXPECT_EQ(cache.length(seq), 10);
    EXPECT_TRUE(cache.pageResident(seq, 4));
    EXPECT_EQ(cache.missingPages(seq), 4);
    EXPECT_EQ(cache.missingPages(seq, 3, 99), 1); // clipped to the table

    // Fetch over the grown range: only the 4 cold pages move.
    const kv::FetchResult fr = pool.fetchRange(seq, 0, 9, 2.0);
    EXPECT_EQ(fr.restored, 4);
    EXPECT_EQ(fr.status, kv::CacheStatus::Ok);
    EXPECT_EQ(cache.missingPages(seq), 0);
    EXPECT_EQ(pool.tierUsedPages(0), 0);
    // Old payload byte-identical, the growth untouched.
    const auto after = cache.gatherKeys(seq);
    for (std::size_t t = 0; t < before.dim(0); t++)
        EXPECT_EQ(after.at(t, 0).bits(), before.at(t, 0).bits());
    EXPECT_EQ(cache.tokenKey(seq, 9)[0].toFloat(), 51.0f);
}

TEST(TieredPool, OffloadDuringPrefetchWindowForgetsPendingHits)
{
    // Offloading a page whose prefetch was never read must retire its
    // pending-hit marker: the page's next restore is a demand fetch and
    // a later read of it is NOT a prefetch hit.
    PagedHeadCache cache(4, 2, 16);
    TieredPagePool pool(cache, tinyTiers(8, 0, /*prefetch=*/2));
    const int seq = cache.addSequence();
    fillSeq(cache, seq, 16); // 8 pages
    ASSERT_EQ(pool.offloadSequence(seq, 1.0, {}).moved, 8);

    // Demand page 0; pages 1, 2 ride along as unread prefetches.
    ASSERT_EQ(pool.fetchRange(seq, 0, 1, 2.0).restored, 3);
    EXPECT_EQ(pool.stats().prefetched_pages, 2);
    EXPECT_EQ(pool.stats().prefetch_hits, 0);

    // Offload inside the prefetch window (before any read).
    ASSERT_EQ(pool.offloadSequence(seq, 3.0, {}).moved, 3);

    // Restore pages 0..2 as *demand* this time (pages 3, 4 prefetch).
    ASSERT_EQ(pool.fetchRange(seq, 0, 5, 4.0).restored, 5);
    // Reading 0..2 scores no hit: their prefetch never served a read.
    pool.touchRange(seq, 0, 5, 5.0);
    EXPECT_EQ(pool.stats().prefetch_hits, 0);
    // The live prefetched pages 3, 4 still score exactly once.
    pool.touchRange(seq, 6, 9, 6.0);
    EXPECT_EQ(pool.stats().prefetch_hits, 2);
}

TEST(TieredPool, DoubleOffloadOfColdSequenceIsNoop)
{
    // Re-offloading an already-cold sequence (the engine can race an
    // idle-eviction sweep against a preemption) must move nothing,
    // charge nothing and corrupt nothing.
    PagedHeadCache cache(4, 2, 8);
    TieredPagePool pool(cache, tinyTiers(8));
    const int seq = cache.addSequence();
    fillSeq(cache, seq, 8); // 4 pages
    const auto before = cache.gatherKeys(seq);
    ASSERT_EQ(pool.offloadSequence(seq, 1.0, {}).moved, 4);
    ASSERT_EQ(pool.tierUsedPages(0), 4);

    const kv::OffloadResult again = pool.offloadSequence(seq, 2.0, {});
    EXPECT_EQ(again.moved, 0);
    EXPECT_EQ(again.dropped, 0);
    EXPECT_EQ(again.writeback_s, 0);
    EXPECT_EQ(again.status, kv::CacheStatus::Ok);
    EXPECT_EQ(pool.tierUsedPages(0), 4); // no double accounting
    EXPECT_EQ(pool.stats().offloaded_pages, 4);
    EXPECT_FALSE(pool.contentLost(seq));

    // The round trip still restores byte-identical payload.
    ASSERT_EQ(pool.fetchRange(seq, 0, 7, 3.0).restored, 4);
    const auto after = cache.gatherKeys(seq);
    for (std::size_t t = 0; t < after.dim(0); t++)
        EXPECT_EQ(after.at(t, 0).bits(), before.at(t, 0).bits());
}

} // namespace
} // namespace bitdec
