/**
 * @file
 * PagedAttention-style KV-cache page management (the "Pages" evaluation
 * setting). A fixed pool of fixed-size token pages is shared by all
 * sequences; each sequence maps logical token blocks to physical pages.
 *
 * Pages are reference counted so a fully-packed prompt prefix can be
 * mapped into many sequences at once (shared-prefix reuse): a prefix
 * index keyed by caller-chosen ids pins the pages of a published prefix,
 * new sequences map them with a refcount bump instead of re-writing the
 * tokens, and a page is returned to the free list only on its last
 * release. Writes into a shared partially-filled page go through
 * copy-on-write, so divergence after the common prefix never corrupts
 * another sequence's view.
 */
#ifndef BITDEC_KVCACHE_PAGED_CACHE_H
#define BITDEC_KVCACHE_PAGED_CACHE_H

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/half.h"
#include "common/logging.h"
#include "common/tensor.h"
#include "kvcache/status.h"

namespace bitdec::kv {

/** Fixed-pool page allocator with a free list and per-page refcounts. */
class PageAllocator
{
  public:
    /** @param num_pages total physical pages in the pool */
    explicit PageAllocator(int num_pages);

    /**
     * Allocates one page with refcount 1; std::nullopt when the pool is
     * exhausted (OOM).
     */
    std::optional<int> allocate();

    /** Adds one reference to an allocated page (shared mapping). */
    void retain(int page);

    /**
     * Drops one reference; the page returns to the free list when the
     * last reference goes away.
     */
    void release(int page);

    /** References currently held on a page (0 = free). */
    int refCount(int page) const;

    /** Pages currently free. */
    int freePages() const { return static_cast<int>(free_.size()); }

    /** Total pool size. */
    int totalPages() const { return total_; }

  private:
    int total_;
    std::vector<int> free_;
    std::vector<int> refs_;
};

/**
 * Paged FP16 KV storage for one head across many sequences.
 *
 * Functional model: physical pages live in one big tensor pool; the page
 * table provides the logical->physical indirection that the paged kernels
 * traverse. Low-bit paged caches reuse the same table over packed pages.
 */
class PagedHeadCache
{
  public:
    /**
     * Page-table entry of a logical page whose payload has been evicted
     * to a cold tier (see src/kvcache/tiered_cache.h). A sequence with
     * kNoPage holes stays live — its length and shared pages are intact —
     * but the holes must be restored (restorePage) before anything reads
     * or appends through them.
     */
    static constexpr int kNoPage = -1;

    /**
     * @param head_dim  per-head hidden size
     * @param page_size tokens per page
     * @param num_pages physical pool size
     */
    PagedHeadCache(int head_dim, int page_size, int num_pages);

    /** Registers a new sequence; returns its id. */
    int addSequence();

    /**
     * Registers a new sequence that starts with the pages of a published
     * prefix mapped in (refcounts bumped, no data copied). The sequence
     * begins at length prefixTokens(key). The key must be published.
     */
    int addSequenceWithPrefix(std::uint64_t key);

    /** Removes a sequence and drops its page references. */
    void removeSequence(int seq);

    /**
     * Appends one token to a sequence. Appending into a partially-filled
     * page that other sequences (or the prefix index) still reference
     * copies it first (copy-on-write).
     * @return false when the page pool is exhausted (OOM).
     */
    bool append(int seq, const std::vector<Half>& k,
                const std::vector<Half>& v);

    // ------------------------------------------------ shared prefixes --

    /**
     * Publishes the first @p tokens tokens of @p seq as a reusable prefix
     * under @p key. The index itself retains the covering pages, so the
     * prefix outlives the publishing sequence. A partially-filled last
     * page may be shared: consumers append through copy-on-write.
     * @return false when @p key is already published (no-op).
     */
    bool publishPrefix(std::uint64_t key, int seq, int tokens);

    /** Tokens a published prefix provides; 0 when @p key is unknown. */
    int prefixTokens(std::uint64_t key) const;

    /** Pages a published prefix pins; 0 when @p key is unknown. */
    int prefixPages(std::uint64_t key) const;

    /**
     * Unpublishes every prefix no live sequence maps anymore (all page
     * refcounts == 1, i.e. only the index pins them). Called by engines
     * under page-pool pressure. @return pages returned to the free list.
     */
    int releaseUnusedPrefixes();

    /**
     * Unpublishes every prefix, mapped or not (hard eviction under
     * extreme pool pressure). Sequences that mapped a prefix keep their
     * own page references, so only pages held by nothing else — e.g. a
     * partial page orphaned by copy-on-write divergence — actually free.
     * Future arrivals cold-prefill until a prefix republishes.
     * @return pages returned to the free list.
     */
    int releaseAllPrefixes();

    /** Number of published prefixes. */
    int numPrefixes() const { return static_cast<int>(prefixes_.size()); }

    /**
     * Pages of @p seq that freeing the sequence would actually return to
     * the pool (refcount 1: not pinned by the prefix index or mapped by
     * another sequence). Preemption victims are chosen by this.
     */
    int reclaimablePages(int seq) const;

    // ------------------------------------------------- tiered offload --

    /**
     * Evicts logical page @p idx of @p seq to caller-owned storage: copies
     * the page's K/V payload into @p k_out / @p v_out (each
     * pageSize() x headDim() halves, row-major by slot), releases the
     * physical page and leaves a kNoPage hole in the page table. Only
     * exclusively-owned pages (refcount 1) may be evicted — shared-prefix
     * pages and CoW-shared partials are pinned hot by construction.
     */
    void evictPage(int seq, int idx, Half* k_out, Half* v_out);

    /**
     * Fills the kNoPage hole at logical page @p idx of @p seq: allocates a
     * fresh physical page, copies @p k / @p v payloads back in and maps it.
     * @return Ok, or HotPoolExhausted when no free page is available (the
     *         caller frees pages and retries).
     */
    CacheStatus restorePage(int seq, int idx, const Half* k, const Half* v);

    /** True when logical page @p idx of @p seq is mapped (not a hole). */
    bool pageResident(int seq, int idx) const;

    /** References held on physical page @p page (sequences + prefix index). */
    int pageRefCount(int page) const { return allocator_.refCount(page); }

    /**
     * Number of kNoPage holes among logical pages [@p first_page,
     * @p last_page] of @p seq (the whole table by default; the range is
     * clipped to the table). The page table is the one record of which
     * pages are hot: the engine's decode and prefill gates and its
     * prefix-publish check read it here.
     */
    int missingPages(int seq, int first_page = 0,
                     int last_page = std::numeric_limits<int>::max()) const;

    /** Copy-on-write page copies performed so far (stats/tests). */
    long cowCopies() const { return cow_copies_; }

    /** Tokens stored for a sequence. */
    int length(int seq) const;

    /** Physical page list of a sequence (logical order). */
    const std::vector<int>& pageTable(int seq) const;

    /**
     * Gathers a sequence's keys into a contiguous [len x d] matrix.
     * An empty sequence yields a [0 x d] tensor (numel() == 0).
     */
    Tensor<Half> gatherKeys(int seq) const;

    /** Gathers a sequence's values; [0 x d] for an empty sequence. */
    Tensor<Half> gatherValues(int seq) const;

    /** Reads the key vector of one stored token (0 <= t < length(seq)). */
    std::vector<Half> tokenKey(int seq, int t) const;

    /**
     * Raw storage of one physical key page: [page_size x head_dim] halves,
     * row-major by slot. The fused paged kernels read pages in place —
     * no gatherKeys/gatherValues copy of the whole sequence.
     */
    const Half* pageKeyData(int page) const;

    /** Raw storage of one physical value page. */
    const Half* pageValueData(int page) const;

    /** Per-head hidden size. */
    int headDim() const { return head_dim_; }

    /** Tokens per page. */
    int pageSize() const { return page_size_; }

    /** Pages still free in the pool. */
    int freePages() const { return allocator_.freePages(); }

    /** Total physical pages in the pool. */
    int totalPages() const { return allocator_.totalPages(); }

    /** Pages required to hold @p tokens tokens (ceiling). */
    int pagesFor(int tokens) const;

    /**
     * Fresh pages a sequence must allocate to grow from @p from_tokens to
     * @p to_tokens tokens (0 <= from <= to), assuming its partial last
     * page is private. This is the chunk-granular reservation primitive:
     * a partially-prefilled sequence holds only the pages its chunks have
     * filled, so admitting its next chunk costs pagesToGrow(len,
     * len + chunk) — not pagesFor(whole prompt). For a live sequence with
     * possibly-shared pages, use pagesNeededForAppend instead.
     */
    int pagesToGrow(int from_tokens, int to_tokens) const;

    /**
     * Fresh pool pages appending @p extra tokens to @p seq will consume,
     * including the copy-on-write page when the sequence's partially
     * filled last page is shared. Step planners budget with this;
     * @p extra == 0 (a prefill stalled for the tick) costs nothing.
     */
    int pagesNeededForAppend(int seq, int extra) const;

    /**
     * True when the free pool can absorb @p extra_tokens more tokens for a
     * sequence currently @p current_len tokens long (partial last pages
     * already allocated are accounted for). Convenience for callers growing
     * one sequence; batch planners aggregate pagesFor() deltas directly.
     */
    bool hasHeadroom(int current_len, int extra_tokens) const;

    /** Ids of all live sequences, in ascending id order. */
    std::vector<int> liveSequences() const;

    /** Number of live sequences. */
    int numLive() const;

  private:
    struct Sequence
    {
        bool live = false;
        int len = 0;
        std::vector<int> pages;
    };

    struct PrefixEntry
    {
        std::vector<int> pages; //!< retained by the index itself
        int tokens = 0;
    };

    /** Frees a calloc'd pool array. */
    struct FreeDeleter
    {
        void operator()(Half* p) const { std::free(p); }
    };
    using PoolArray = std::unique_ptr<Half[], FreeDeleter>;

    /** Flat index of (page, slot, channel) in a pool array. Checked in
     *  every build: an offloaded page (kNoPage) or a stray slot must
     *  panic, never read or write outside the pool. */
    std::size_t poolIndex(std::size_t page, std::size_t slot,
                          std::size_t d) const
    {
        BITDEC_ASSERT(page < static_cast<std::size_t>(allocator_.totalPages()) &&
                          slot < static_cast<std::size_t>(page_size_) &&
                          d < static_cast<std::size_t>(head_dim_),
                      "pool index out of bounds (page ",
                      static_cast<std::ptrdiff_t>(page), ", slot ", slot,
                      ", channel ", d, ")");
        return (page * static_cast<std::size_t>(page_size_) + slot) *
                   static_cast<std::size_t>(head_dim_) +
               d;
    }

    int head_dim_;
    int page_size_;
    PageAllocator allocator_;
    // Pool layout: [page][slot][d] for K and V. calloc'd rather than
    // value-initialized: a page reads as zeros until first written either
    // way, but pages the allocator never hands out stay demand-zero and
    // cost no resident memory (the allocator reuses low page ids first).
    PoolArray k_pool_;
    PoolArray v_pool_;
    std::vector<Sequence> seqs_;
    std::unordered_map<std::uint64_t, PrefixEntry> prefixes_;
    long cow_copies_ = 0;
};

} // namespace bitdec::kv

#endif // BITDEC_KVCACHE_PAGED_CACHE_H
