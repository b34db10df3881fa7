#include "kvcache/paged_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace bitdec::kv {

PageAllocator::PageAllocator(int num_pages)
    : total_(num_pages), refs_(static_cast<std::size_t>(num_pages), 0)
{
    BITDEC_ASSERT(num_pages > 0, "page pool must be non-empty");
    free_.reserve(static_cast<std::size_t>(num_pages));
    // Hand out low page ids first: push high ids so pop_back yields low.
    for (int p = num_pages - 1; p >= 0; p--)
        free_.push_back(p);
}

std::optional<int>
PageAllocator::allocate()
{
    if (free_.empty())
        return std::nullopt;
    const int page = free_.back();
    free_.pop_back();
    refs_[static_cast<std::size_t>(page)] = 1;
    return page;
}

void
PageAllocator::retain(int page)
{
    BITDEC_ASSERT(page >= 0 && page < total_, "bad page id");
    BITDEC_ASSERT(refs_[static_cast<std::size_t>(page)] > 0,
                  "retain of free page ", page);
    refs_[static_cast<std::size_t>(page)]++;
}

void
PageAllocator::release(int page)
{
    BITDEC_ASSERT(page >= 0 && page < total_, "bad page id");
    BITDEC_ASSERT(refs_[static_cast<std::size_t>(page)] > 0,
                  "double free of page ", page);
    if (--refs_[static_cast<std::size_t>(page)] == 0)
        free_.push_back(page);
}

int
PageAllocator::refCount(int page) const
{
    BITDEC_ASSERT(page >= 0 && page < total_, "bad page id");
    return refs_[static_cast<std::size_t>(page)];
}

namespace {

/** @p n zero Halves from calloc (fatal when the host cannot provide). */
Half*
zeroHalves(std::size_t n)
{
    void* p = std::calloc(n, sizeof(Half));
    if (p == nullptr)
        BITDEC_FATAL("cannot allocate a paged KV pool of ", n, " halves");
    return static_cast<Half*>(p);
}

} // namespace

PagedHeadCache::PagedHeadCache(int head_dim, int page_size, int num_pages)
    : head_dim_(head_dim),
      page_size_(page_size),
      allocator_(num_pages)
{
    BITDEC_ASSERT(head_dim > 0 && page_size > 0, "bad paged cache shape");
    const std::size_t n = static_cast<std::size_t>(num_pages) *
                          static_cast<std::size_t>(page_size) *
                          static_cast<std::size_t>(head_dim);
    k_pool_.reset(zeroHalves(n));
    v_pool_.reset(zeroHalves(n));
}

int
PagedHeadCache::addSequence()
{
    for (std::size_t i = 0; i < seqs_.size(); i++) {
        if (!seqs_[i].live) {
            seqs_[i] = Sequence{true, 0, {}};
            return static_cast<int>(i);
        }
    }
    seqs_.push_back(Sequence{true, 0, {}});
    return static_cast<int>(seqs_.size()) - 1;
}

int
PagedHeadCache::addSequenceWithPrefix(std::uint64_t key)
{
    const auto it = prefixes_.find(key);
    BITDEC_ASSERT(it != prefixes_.end(), "unknown prefix key ", key);
    const int seq = addSequence();
    auto& s = seqs_.at(static_cast<std::size_t>(seq));
    for (int p : it->second.pages) {
        allocator_.retain(p);
        s.pages.push_back(p);
    }
    s.len = it->second.tokens;
    return seq;
}

void
PagedHeadCache::removeSequence(int seq)
{
    auto& s = seqs_.at(static_cast<std::size_t>(seq));
    BITDEC_ASSERT(s.live, "sequence not live");
    for (int p : s.pages)
        if (p != kNoPage)
            allocator_.release(p);
    s = Sequence{};
}

bool
PagedHeadCache::append(int seq, const std::vector<Half>& k,
                       const std::vector<Half>& v)
{
    auto& s = seqs_.at(static_cast<std::size_t>(seq));
    BITDEC_ASSERT(s.live, "sequence not live");
    BITDEC_ASSERT(static_cast<int>(k.size()) == head_dim_ &&
                  static_cast<int>(v.size()) == head_dim_,
                  "K/V vector length must equal head_dim");
    const int slot = s.len % page_size_;
    if (slot == 0) {
        const auto page = allocator_.allocate();
        if (!page)
            return false; // OOM: caller decides (evict / reject)
        s.pages.push_back(*page);
    } else if (s.pages.back() == kNoPage) {
        BITDEC_ASSERT(false, "append through offloaded page of seq ", seq,
                      " — restorePage first");
        return false;
    } else if (allocator_.refCount(s.pages.back()) > 1) {
        // Copy-on-write: the partially-filled last page is shared (prefix
        // index or sibling sequences). Copy the filled slots into a fresh
        // page so this sequence's divergence stays private.
        const auto page = allocator_.allocate();
        if (!page)
            return false;
        const std::size_t src = static_cast<std::size_t>(s.pages.back());
        const std::size_t dst = static_cast<std::size_t>(*page);
        const std::size_t row = static_cast<std::size_t>(head_dim_);
        for (int t = 0; t < slot; t++) {
            const std::size_t st = static_cast<std::size_t>(t);
            for (std::size_t d = 0; d < row; d++) {
                k_pool_[poolIndex(dst, st, d)] =
                    k_pool_[poolIndex(src, st, d)];
                v_pool_[poolIndex(dst, st, d)] =
                    v_pool_[poolIndex(src, st, d)];
            }
        }
        allocator_.release(s.pages.back());
        s.pages.back() = *page;
        cow_copies_++;
    }
    const std::size_t page = static_cast<std::size_t>(s.pages.back());
    for (int d = 0; d < head_dim_; d++) {
        const std::size_t i = poolIndex(page, static_cast<std::size_t>(slot),
                                        static_cast<std::size_t>(d));
        k_pool_[i] = k[static_cast<std::size_t>(d)];
        v_pool_[i] = v[static_cast<std::size_t>(d)];
    }
    s.len++;
    return true;
}

bool
PagedHeadCache::publishPrefix(std::uint64_t key, int seq, int tokens)
{
    BITDEC_ASSERT(key != 0, "prefix key 0 is reserved for 'no prefix'");
    if (prefixes_.count(key))
        return false; // first publisher wins
    const auto& s = seqs_.at(static_cast<std::size_t>(seq));
    BITDEC_ASSERT(s.live, "sequence not live");
    BITDEC_ASSERT(tokens > 0 && tokens <= s.len,
                  "prefix of ", tokens, " tokens exceeds sequence length ",
                  s.len);
    PrefixEntry e;
    e.tokens = tokens;
    const int pages = pagesFor(tokens);
    e.pages.assign(s.pages.begin(), s.pages.begin() + pages);
    for (int p : e.pages)
        allocator_.retain(p);
    prefixes_.emplace(key, std::move(e));
    return true;
}

int
PagedHeadCache::prefixTokens(std::uint64_t key) const
{
    const auto it = prefixes_.find(key);
    return it == prefixes_.end() ? 0 : it->second.tokens;
}

int
PagedHeadCache::prefixPages(std::uint64_t key) const
{
    const auto it = prefixes_.find(key);
    return it == prefixes_.end() ? 0
                                 : static_cast<int>(it->second.pages.size());
}

int
PagedHeadCache::releaseUnusedPrefixes()
{
    int freed = 0;
    for (auto it = prefixes_.begin(); it != prefixes_.end();) {
        bool unused = true;
        for (int p : it->second.pages)
            unused &= allocator_.refCount(p) == 1;
        if (unused) {
            freed += static_cast<int>(it->second.pages.size());
            for (int p : it->second.pages)
                allocator_.release(p);
            it = prefixes_.erase(it);
        } else {
            ++it;
        }
    }
    return freed;
}

int
PagedHeadCache::releaseAllPrefixes()
{
    int freed = 0;
    for (auto& [key, entry] : prefixes_) {
        for (int p : entry.pages) {
            const bool last = allocator_.refCount(p) == 1;
            allocator_.release(p);
            freed += last ? 1 : 0;
        }
    }
    prefixes_.clear();
    return freed;
}

int
PagedHeadCache::reclaimablePages(int seq) const
{
    const auto& s = seqs_.at(static_cast<std::size_t>(seq));
    BITDEC_ASSERT(s.live, "sequence not live");
    int n = 0;
    for (int p : s.pages)
        n += (p != kNoPage && allocator_.refCount(p) == 1) ? 1 : 0;
    return n;
}

void
PagedHeadCache::evictPage(int seq, int idx, Half* k_out, Half* v_out)
{
    auto& s = seqs_.at(static_cast<std::size_t>(seq));
    BITDEC_ASSERT(s.live, "sequence not live");
    BITDEC_ASSERT(idx >= 0 && idx < static_cast<int>(s.pages.size()),
                  "bad logical page index ", idx);
    const int page = s.pages[static_cast<std::size_t>(idx)];
    BITDEC_ASSERT(page != kNoPage, "page ", idx, " already offloaded");
    BITDEC_ASSERT(allocator_.refCount(page) == 1,
                  "evicting shared page ", page, " (refcount > 1)");
    const std::size_t n = static_cast<std::size_t>(page_size_) *
                          static_cast<std::size_t>(head_dim_);
    const Half* k_src = pageKeyData(page);
    const Half* v_src = pageValueData(page);
    for (std::size_t i = 0; i < n; i++) {
        k_out[i] = k_src[i];
        v_out[i] = v_src[i];
    }
    allocator_.release(page);
    s.pages[static_cast<std::size_t>(idx)] = kNoPage;
}

CacheStatus
PagedHeadCache::restorePage(int seq, int idx, const Half* k, const Half* v)
{
    auto& s = seqs_.at(static_cast<std::size_t>(seq));
    BITDEC_ASSERT(s.live, "sequence not live");
    BITDEC_ASSERT(idx >= 0 && idx < static_cast<int>(s.pages.size()),
                  "bad logical page index ", idx);
    BITDEC_ASSERT(s.pages[static_cast<std::size_t>(idx)] == kNoPage,
                  "restore into mapped page ", idx);
    const auto page = allocator_.allocate();
    if (!page) // hot pool exhausted: caller frees pages and retries
        return CacheStatus::HotPoolExhausted;
    const std::size_t n = static_cast<std::size_t>(page_size_) *
                          static_cast<std::size_t>(head_dim_);
    Half* k_dst = k_pool_.get() + static_cast<std::size_t>(*page) * n;
    Half* v_dst = v_pool_.get() + static_cast<std::size_t>(*page) * n;
    for (std::size_t i = 0; i < n; i++) {
        k_dst[i] = k[i];
        v_dst[i] = v[i];
    }
    s.pages[static_cast<std::size_t>(idx)] = *page;
    return CacheStatus::Ok;
}

bool
PagedHeadCache::pageResident(int seq, int idx) const
{
    const auto& s = seqs_.at(static_cast<std::size_t>(seq));
    BITDEC_ASSERT(s.live, "sequence not live");
    BITDEC_ASSERT(idx >= 0 && idx < static_cast<int>(s.pages.size()),
                  "bad logical page index ", idx);
    return s.pages[static_cast<std::size_t>(idx)] != kNoPage;
}

int
PagedHeadCache::missingPages(int seq, int first_page, int last_page) const
{
    const auto& s = seqs_.at(static_cast<std::size_t>(seq));
    BITDEC_ASSERT(s.live, "sequence not live");
    BITDEC_ASSERT(first_page >= 0, "bad logical page index ", first_page);
    const int end = std::min(last_page, static_cast<int>(s.pages.size()) - 1);
    int n = 0;
    for (int i = first_page; i <= end; i++)
        n += s.pages[static_cast<std::size_t>(i)] == kNoPage ? 1 : 0;
    return n;
}

int
PagedHeadCache::length(int seq) const
{
    return seqs_.at(static_cast<std::size_t>(seq)).len;
}

const std::vector<int>&
PagedHeadCache::pageTable(int seq) const
{
    return seqs_.at(static_cast<std::size_t>(seq)).pages;
}

std::vector<Half>
PagedHeadCache::tokenKey(int seq, int t) const
{
    const auto& s = seqs_.at(static_cast<std::size_t>(seq));
    BITDEC_ASSERT(s.live, "sequence not live");
    BITDEC_ASSERT(t >= 0 && t < s.len, "token index out of range");
    const std::size_t page = static_cast<std::size_t>(
        s.pages[static_cast<std::size_t>(t / page_size_)]);
    const std::size_t slot = static_cast<std::size_t>(t % page_size_);
    std::vector<Half> key(static_cast<std::size_t>(head_dim_));
    for (int d = 0; d < head_dim_; d++)
        key[static_cast<std::size_t>(d)] =
            k_pool_[poolIndex(page, slot, static_cast<std::size_t>(d))];
    return key;
}

const Half*
PagedHeadCache::pageKeyData(int page) const
{
    BITDEC_ASSERT(page >= 0 && page < allocator_.totalPages(), "bad page id");
    return k_pool_.get() + static_cast<std::size_t>(page) *
                                static_cast<std::size_t>(page_size_) *
                                static_cast<std::size_t>(head_dim_);
}

const Half*
PagedHeadCache::pageValueData(int page) const
{
    BITDEC_ASSERT(page >= 0 && page < allocator_.totalPages(), "bad page id");
    return v_pool_.get() + static_cast<std::size_t>(page) *
                                static_cast<std::size_t>(page_size_) *
                                static_cast<std::size_t>(head_dim_);
}

int
PagedHeadCache::pagesFor(int tokens) const
{
    return (tokens + page_size_ - 1) / page_size_;
}

int
PagedHeadCache::pagesToGrow(int from_tokens, int to_tokens) const
{
    BITDEC_ASSERT(from_tokens >= 0 && from_tokens <= to_tokens,
                  "bad growth range ", from_tokens, " -> ", to_tokens);
    return pagesFor(to_tokens) - pagesFor(from_tokens);
}

int
PagedHeadCache::pagesNeededForAppend(int seq, int extra) const
{
    const auto& s = seqs_.at(static_cast<std::size_t>(seq));
    BITDEC_ASSERT(s.live, "sequence not live");
    int needed = pagesToGrow(s.len, s.len + extra);
    // Writing into a shared partially-filled page costs one CoW page. An
    // offloaded (kNoPage) last page costs nothing here: restorePage must
    // fill the hole before the append, and that restore is budgeted
    // separately via missingPages().
    if (extra > 0 && s.len % page_size_ != 0 && s.pages.back() != kNoPage &&
        allocator_.refCount(s.pages.back()) > 1)
        needed++;
    return needed;
}

bool
PagedHeadCache::hasHeadroom(int current_len, int extra_tokens) const
{
    return allocator_.freePages() >=
           pagesToGrow(current_len, current_len + extra_tokens);
}

std::vector<int>
PagedHeadCache::liveSequences() const
{
    std::vector<int> live;
    for (std::size_t i = 0; i < seqs_.size(); i++)
        if (seqs_[i].live)
            live.push_back(static_cast<int>(i));
    return live;
}

int
PagedHeadCache::numLive() const
{
    int n = 0;
    for (const auto& s : seqs_)
        n += s.live ? 1 : 0;
    return n;
}

Tensor<Half>
PagedHeadCache::gatherKeys(int seq) const
{
    const auto& s = seqs_.at(static_cast<std::size_t>(seq));
    Tensor<Half> out({static_cast<std::size_t>(s.len),
                      static_cast<std::size_t>(head_dim_)});
    for (int t = 0; t < s.len; t++) {
        const std::size_t page =
            static_cast<std::size_t>(s.pages[static_cast<std::size_t>(
                t / page_size_)]);
        const std::size_t slot = static_cast<std::size_t>(t % page_size_);
        for (int d = 0; d < head_dim_; d++) {
            out.at(static_cast<std::size_t>(t), static_cast<std::size_t>(d)) =
                k_pool_[poolIndex(page, slot, static_cast<std::size_t>(d))];
        }
    }
    return out;
}

Tensor<Half>
PagedHeadCache::gatherValues(int seq) const
{
    const auto& s = seqs_.at(static_cast<std::size_t>(seq));
    Tensor<Half> out({static_cast<std::size_t>(s.len),
                      static_cast<std::size_t>(head_dim_)});
    for (int t = 0; t < s.len; t++) {
        const std::size_t page =
            static_cast<std::size_t>(s.pages[static_cast<std::size_t>(
                t / page_size_)]);
        const std::size_t slot = static_cast<std::size_t>(t % page_size_);
        for (int d = 0; d < head_dim_; d++) {
            out.at(static_cast<std::size_t>(t), static_cast<std::size_t>(d)) =
                v_pool_[poolIndex(page, slot, static_cast<std::size_t>(d))];
        }
    }
    return out;
}

} // namespace bitdec::kv
