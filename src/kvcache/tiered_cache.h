/**
 * @file
 * Tiered KV-cache pool: host/disk offload for cold low-bit pages.
 *
 * Layers the bounded hot tier (the PagedHeadCache's PageAllocator pool)
 * over one or two simulated cold tiers — host RAM and disk — each with a
 * configurable capacity and virtual-clock transfer cost. What crosses
 * tiers is the *packed* low-bit payload: a 4-bit page costs 1/4 the bytes
 * of its FP16 form, so the offload tiers hold 4x the tokens per byte
 * (the BitDecoding density argument applied to capacity instead of
 * bandwidth).
 *
 * Responsibilities:
 *  - offloadSequence: evict a parked sequence's exclusively-owned pages
 *    to the fastest cold tier with room (spilling host -> disk LRU-wise),
 *    leaving kNoPage holes in the hot page table. Shared-prefix pages and
 *    CoW partials (refcount > 1) are pinned hot and never torn.
 *  - fetchRange: demand-restore the pages covering a token range plus a
 *    lookahead window (prefetch) on sequence resume, charging per-tier
 *    base latency + bytes/bandwidth on the caller's virtual clock.
 *  - Residency: the hot page table's kNoPage holes are the one record
 *    of which pages are hot. The engine gates decode on
 *    PagedHeadCache::missingPages over the sequence's page range; the
 *    pool keeps only what the table cannot say (cold payloads, LRU
 *    time, the resume mark).
 *  - LRU whole-sequence drops when every cold tier is full: the victim's
 *    cold payload is discarded and the sequence marked content-lost; the
 *    engine recomputes it from the request seeds on resume (digests are
 *    position-determined, so recompute is byte-identical).
 */
#ifndef BITDEC_KVCACHE_TIERED_CACHE_H
#define BITDEC_KVCACHE_TIERED_CACHE_H

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/half.h"
#include "fault/fault.h"
#include "kvcache/paged_cache.h"
#include "kvcache/status.h"

namespace bitdec::kv {

/** One cold tier: capacity plus a linear transfer-cost model. */
struct TierSpec
{
    std::string name = "host"; //!< reporting label
    double capacity_gb = 1.0;  //!< packed-byte capacity
    double bandwidth_gbps = 32.0; //!< GB/s for page payload transfer
    double latency_s = 10e-6;  //!< per-operation base latency
};

/** Tiered-pool configuration. An empty tier list disables tiering. */
struct TieredConfig
{
    std::vector<TierSpec> tiers; //!< fastest first (host, then disk)
    int prefetch_pages = 4;      //!< lookahead pages per demand fetch
    /**
     * Packed bytes per page crossing tiers (whole-model, all heads).
     * Low-bit systems pass fp16_bytes * bits/16 — the 4x density win.
     */
    double bytes_per_page = 0;

    /**
     * Per-page fetch timeout (virtual seconds): a transfer whose spiked
     * cost exceeds this is abandoned as a transient fault instead of
     * stalling the request for the full spike — the engine's
     * retry-with-backoff picks it up. Only a fault-injected LatencySpike
     * can trip it; the modeled base cost never times out. Infinite (the
     * default) disables the timeout.
     */
    double fetch_timeout_s = std::numeric_limits<double>::infinity();

    /**
     * Hedged reads (the tail-at-scale defense): once a spike-stalled
     * transfer has taken this many multiples of its modeled cost, a
     * duplicate request is issued and the page completes at whichever
     * finishes first. The hedge rolls its own spike fate from a
     * distinct coordinate, so a dense storm can still defeat it.
     * Infinity disables hedging.
     */
    double hedge_after_mult = 4.0;
};

/** Transfer counters, cumulative over the pool's lifetime. */
struct TieredStats
{
    long offloaded_pages = 0;  //!< hot -> cold evictions
    long fetched_pages = 0;    //!< demand cold -> hot restores
    long prefetched_pages = 0; //!< lookahead cold -> hot restores
    long prefetch_hits = 0;    //!< prefetched pages later actually read
    long spilled_pages = 0;    //!< tier-0 -> tier-1 spills
    long dropped_pages = 0;    //!< cold payloads discarded (capacity)
    long lru_drops = 0;        //!< whole sequences content-dropped
    long transfer_failures = 0; //!< fetches failed/timed out (transient)
    long checksum_failures = 0; //!< uncorrectable corruption on restore
    long repaired_pages = 0;    //!< single-bit rot corrected in place
    long hedged_fetches = 0;    //!< spiked transfers rescued by a hedge
};

/**
 * Hamming-style syndrome over a page payload, stored next to the FNV-1a
 * checksum when a page goes cold. The checksum *detects* rot end-to-end;
 * the syndrome *locates* a single flipped bit so it can be corrected in
 * place (the simulator's stand-in for the ECC every real cold store
 * wears): `column` is the XOR of every half's bit pattern — after a
 * single flip it differs in exactly the flipped bit position b — and
 * `index[b]` is the XOR of the 1-based payload indices of every half
 * with bit b set, so the syndrome difference names the flipped half
 * directly. Multi-bit rot leaves an inconsistent syndrome and stays
 * uncorrectable: detected, dropped, recomputed.
 */
struct PageEcc
{
    std::uint16_t column = 0; //!< XOR of every half's 16-bit pattern
    std::array<std::uint32_t, 16> index{}; //!< per-bit index parity
};

/** Outcome of TieredPagePool::offloadSequence. */
struct OffloadResult
{
    int moved = 0;          //!< pages moved out of the hot pool
    int dropped = 0;        //!< payloads discarded for lack of cold room
    double writeback_s = 0; //!< virtual-clock cost of the write-back
    //! Ok, Disabled, or ContentLost when any payload was dropped.
    CacheStatus status = CacheStatus::Ok;
};

/** Outcome of TieredPagePool::fetchRange. */
struct FetchResult
{
    int restored = 0;     //!< pages restored into the hot pool
    double latency_s = 0; //!< virtual-clock cost of the transfers
    /**
     * Ok when every wanted page was restored; HotPoolExhausted,
     * TransientFault, CorruptionDetected, ContentLost, NotTracked or
     * Disabled otherwise (see status.h for the recovery each implies).
     */
    CacheStatus status = CacheStatus::Ok;
};

/**
 * Host/disk offload layer over one PagedHeadCache.
 *
 * The pool tracks a record per offloaded ("parked") sequence: the cold
 * payload of each offloaded page, its LRU access time and whether a
 * resume is pending. Which pages are hot is read from the hot page
 * table. The engine owns the policy of *when* to offload (preemption,
 * idle parking) and *when* to fetch (resume); this class owns
 * placement, capacity accounting and transfer cost.
 */
class TieredPagePool
{
  public:
    TieredPagePool(PagedHeadCache& hot, const TieredConfig& cfg);

    /** True when at least one cold tier is configured. */
    bool enabled() const { return !tiers_.empty(); }

    /**
     * Offloads every exclusively-owned resident page of @p seq to cold
     * storage, stamping each payload with an FNV-1a checksum that the
     * resume fetch verifies. Pages with refcount > 1 (shared prefixes,
     * CoW partials) stay hot. When the cold tiers are full, other
     * unprotected parked sequences are LRU-dropped to make room; as a
     * last resort the payload is discarded and @p seq marked
     * content-lost (OffloadResult::dropped, status ContentLost). An
     * offload that moves any page sets the resume mark (see
     * takeResumeMark).
     *
     * @param protect sequence ids that must not be LRU-dropped (the
     *                engine's currently-running set)
     */
    OffloadResult offloadSequence(int seq, double now,
                                  const std::vector<int>& protect);

    /**
     * Restores the cold pages covering tokens [@p first_tok, @p last_tok]
     * of @p seq, plus up to prefetch_pages further cold pages nearest to
     * the range in either direction (lookahead). Each page's checksum is
     * verified before it re-enters the hot pool: single-bit rot is
     * corrected in place via the page ECC; an uncorrectable mismatch
     * drops just that page — leaving a hole (see coldHas) the caller
     * rebuilds from seeds — and reports CorruptionDetected, which
     * outranks TransientFault in the same call. A transient per-page
     * fault (failed or timed-out transfer, alloc hiccup) skips that
     * page but keeps restoring the rest: the result is TransientFault
     * with a partial restored count, and the caller's
     * retry-with-backoff picks up the stragglers. Only hot-pool
     * exhaustion stops the loop outright (freeing pages is on the
     * caller).
     */
    FetchResult fetchRange(int seq, int first_tok, int last_tok, double now);

    /**
     * Arms fault injection on the transfer and offload paths (null
     * disarms). The pool consults the injector per page moved: fetch
     * failures, latency spikes and transient hot-alloc failures on
     * fetchRange, bit corruption on offloadSequence. The injector must
     * outlive the pool's use of it.
     */
    void setFaultInjector(fault::FaultInjector* injector)
    {
        injector_ = injector;
    }

    /**
     * FNV-1a fold of a page payload's K and V bit patterns — the
     * integrity stamp offloadSequence stores and fetchRange verifies.
     */
    static std::uint64_t pageChecksum(const std::vector<Half>& k,
                                      const std::vector<Half>& v);

    /** Hamming-style syndrome of a page payload (see PageEcc). */
    static PageEcc pageEcc(const std::vector<Half>& k,
                           const std::vector<Half>& v);

    /**
     * Records a read of tokens [@p first_tok, @p last_tok]: refreshes the
     * LRU clock and counts first touches of prefetched pages as prefetch
     * hits (each restored page is counted at most once).
     */
    void touchRange(int seq, int first_tok, int last_tok, double now);

    /**
     * Drops all tracking and cold payload of @p seq (finish/abort),
     * its resume mark included.
     */
    void forgetSequence(int seq);

    /** True when the pool holds state for @p seq. */
    bool tracked(int seq) const { return parked_.count(seq) > 0; }

    /**
     * Clears @p seq's resume mark. @return true when it was set: an
     * offload moved pages since the last take. The engine takes it once
     * the sequence is fully resident again and counts a cold resume.
     */
    bool takeResumeMark(int seq);

    /** Cold (offloaded) pages currently held for @p seq. */
    int coldPages(int seq) const;

    /**
     * True when logical page @p page of @p seq holds a cold payload. A
     * tracked page that is neither hot-resident nor cold is a *hole*
     * (its payload was dropped as uncorrectably corrupt): no fetch can
     * restore it — the caller rebuilds it from seeds.
     */
    bool coldHas(int seq, int page) const;

    /**
     * True when @p seq's cold payload was discarded under capacity
     * pressure: fetch is impossible, the engine must recompute the
     * sequence from scratch (digest-identical by construction).
     */
    bool contentLost(int seq) const;

    /** Number of configured cold tiers. */
    int numTiers() const { return static_cast<int>(tiers_.size()); }

    /** Reporting label of cold tier @p t. */
    const std::string& tierName(int t) const;

    /** Page capacity of cold tier @p t (packed bytes / bytes_per_page). */
    int tierCapacityPages(int t) const;

    /** Pages currently held in cold tier @p t. */
    int tierUsedPages(int t) const;

    /** Cumulative transfer counters. */
    const TieredStats& stats() const { return stats_; }

  private:
    struct ColdPage
    {
        int tier = 0;
        std::vector<Half> k, v; //!< page payload, page_size x head_dim
        std::uint64_t checksum = 0; //!< FNV-1a stamp taken at offload
        PageEcc ecc; //!< syndrome for single-bit repair, same vintage
    };

    struct Parked
    {
        std::unordered_map<int, ColdPage> cold; //!< logical idx -> payload
        //! pages restored by lookahead, awaiting their first real read
        std::unordered_set<int> prefetched_resident;
        double last_access = 0;
        bool lost = false; //!< cold payload discarded; recompute on resume
        bool resume_pending = false; //!< pages moved out, resume not taken
    };

    /**
     * Makes room for one more cold page: spill tier-0 -> tier-1, then
     * LRU-drop unprotected parked sequences. @return destination tier,
     * or -1 when nothing can be freed (payload must be dropped).
     */
    int makeColdRoom(int seq, const std::vector<int>& protect);

    /** Discards all cold payload of the LRU victim; true on success. */
    bool dropLruVictim(int seq, const std::vector<int>& protect);

    /** Discards @p rec's cold payload and marks it content-lost. */
    void dropColdPayload(Parked& rec);

    /**
     * Attempts in-place repair of a checksum-mismatched page via its
     * stored syndrome: true when exactly one bit had flipped and the
     * corrected payload re-verifies against the checksum.
     */
    static bool tryRepairPage(ColdPage& page);

    /** Virtual-clock cost of moving @p pages pages to/from tier @p t. */
    double transferCost(int t, int pages) const;

    PagedHeadCache& hot_;
    std::vector<TierSpec> tiers_;
    std::vector<int> tier_capacity_pages_;
    std::vector<int> tier_used_pages_;
    int prefetch_pages_;
    double bytes_per_page_;
    double fetch_timeout_s_;
    double hedge_after_mult_;
    std::unordered_map<int, Parked> parked_;
    TieredStats stats_;
    fault::FaultInjector* injector_ = nullptr;
    //! Monotonic fetch-attempt counter, a fault-decision coordinate: the
    //! same page re-rolls its faults on every retry (otherwise a
    //! deterministic injector would fail the same fetch forever).
    std::uint64_t fetch_attempts_ = 0;
};

} // namespace bitdec::kv

#endif // BITDEC_KVCACHE_TIERED_CACHE_H
