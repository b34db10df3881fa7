#include "kvcache/tiered_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/rng.h"

namespace bitdec::kv {

namespace {

constexpr double kGb = 1e9;

} // namespace

std::uint64_t
TieredPagePool::pageChecksum(const std::vector<Half>& k,
                             const std::vector<Half>& v)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const Half& x : k) {
        h ^= x.bits();
        h *= 0x100000001B3ull;
    }
    for (const Half& x : v) {
        h ^= x.bits();
        h *= 0x100000001B3ull;
    }
    return h;
}

PageEcc
TieredPagePool::pageEcc(const std::vector<Half>& k, const std::vector<Half>& v)
{
    PageEcc e;
    std::uint32_t i = 1; // 1-based: a zero index parity means "no half"
    for (const std::vector<Half>* buf : {&k, &v}) {
        for (const Half& x : *buf) {
            const std::uint16_t bits = x.bits();
            e.column ^= bits;
            for (int b = 0; b < 16; b++)
                if (bits & (1u << b))
                    e.index[static_cast<std::size_t>(b)] ^= i;
            i++;
        }
    }
    return e;
}

bool
TieredPagePool::tryRepairPage(ColdPage& page)
{
    const PageEcc cur = pageEcc(page.k, page.v);
    const std::uint16_t d =
        static_cast<std::uint16_t>(page.ecc.column ^ cur.column);
    if (!std::has_single_bit(d))
        return false; // zero or several flipped bit positions: unlocatable
    const int b = std::countr_zero(d);
    const std::uint32_t idx = page.ecc.index[static_cast<std::size_t>(b)] ^
                              cur.index[static_cast<std::size_t>(b)];
    const std::size_t total = page.k.size() + page.v.size();
    if (idx < 1 || idx > total)
        return false; // inconsistent syndrome: more rot than it can name
    const std::size_t flat = idx - 1;
    std::vector<Half>& buf = flat < page.k.size() ? page.k : page.v;
    Half& x = buf[flat < page.k.size() ? flat : flat - page.k.size()];
    x = Half::fromBits(static_cast<std::uint16_t>(x.bits() ^ (1u << b)));
    // The checksum is the final arbiter: a repair that does not re-verify
    // is discarded like any other corruption.
    return pageChecksum(page.k, page.v) == page.checksum;
}

TieredPagePool::TieredPagePool(PagedHeadCache& hot, const TieredConfig& cfg)
    : hot_(hot),
      tiers_(cfg.tiers),
      prefetch_pages_(cfg.prefetch_pages),
      bytes_per_page_(cfg.bytes_per_page),
      fetch_timeout_s_(cfg.fetch_timeout_s),
      hedge_after_mult_(cfg.hedge_after_mult)
{
    BITDEC_ASSERT(fetch_timeout_s_ > 0, "fetch timeout must be positive");
    BITDEC_ASSERT(hedge_after_mult_ >= 1,
                  "hedge threshold below the modeled cost would hedge "
                  "every transfer");
    BITDEC_ASSERT(prefetch_pages_ >= 0, "prefetch lookahead must be >= 0");
    BITDEC_ASSERT(tiers_.empty() || bytes_per_page_ > 0,
                  "tiered pool needs bytes_per_page to size its tiers");
    for (const auto& t : tiers_) {
        BITDEC_ASSERT(t.capacity_gb > 0 && t.bandwidth_gbps > 0,
                      "tier '", t.name, "' needs positive capacity/bandwidth");
        tier_capacity_pages_.push_back(static_cast<int>(
            t.capacity_gb * kGb / bytes_per_page_));
        BITDEC_ASSERT(tier_capacity_pages_.back() > 0,
                      "tier '", t.name, "' holds zero pages");
        tier_used_pages_.push_back(0);
    }
}

double
TieredPagePool::transferCost(int t, int pages) const
{
    if (pages <= 0)
        return 0;
    const auto& tier = tiers_.at(static_cast<std::size_t>(t));
    return tier.latency_s +
           static_cast<double>(pages) * bytes_per_page_ /
               (tier.bandwidth_gbps * kGb);
}

bool
TieredPagePool::dropLruVictim(int seq, const std::vector<int>& protect)
{
    int victim = -1;
    double oldest = std::numeric_limits<double>::infinity();
    for (const auto& [id, rec] : parked_) {
        if (id == seq || rec.cold.empty())
            continue;
        if (std::find(protect.begin(), protect.end(), id) != protect.end())
            continue;
        if (rec.last_access < oldest) {
            oldest = rec.last_access;
            victim = id;
        }
    }
    if (victim < 0)
        return false;
    auto& rec = parked_.at(victim);
    stats_.dropped_pages += static_cast<long>(rec.cold.size());
    dropColdPayload(rec); // engine recomputes the victim from seeds
    stats_.lru_drops++;
    return true;
}

void
TieredPagePool::dropColdPayload(Parked& rec)
{
    for (const auto& [idx, page] : rec.cold)
        tier_used_pages_[static_cast<std::size_t>(page.tier)]--;
    rec.cold.clear();
    rec.prefetched_resident.clear();
    rec.lost = true;
}

int
TieredPagePool::makeColdRoom(int seq, const std::vector<int>& protect)
{
    for (;;) {
        // Fast path: the fastest tier has room.
        if (tier_used_pages_[0] < tier_capacity_pages_[0])
            return 0;
        // Tier 0 full. If tier 1 has room, spill the LRU sequence's
        // tier-0 pages down a level so the new (hotter) payload lands on
        // the fast tier; if nothing is spillable, place directly on
        // tier 1.
        if (numTiers() > 1 && tier_used_pages_[1] < tier_capacity_pages_[1]) {
            int victim = -1;
            double oldest = std::numeric_limits<double>::infinity();
            for (const auto& [id, rec] : parked_) {
                bool has_t0 = false;
                for (const auto& [idx, page] : rec.cold)
                    has_t0 |= page.tier == 0;
                if (has_t0 && rec.last_access < oldest) {
                    oldest = rec.last_access;
                    victim = id;
                }
            }
            if (victim < 0 || victim == seq)
                return 1; // own pages are the LRU: store straight to disk
            auto& rec = parked_.at(victim);
            for (auto& [idx, page] : rec.cold) {
                if (page.tier != 0)
                    continue;
                page.tier = 1;
                tier_used_pages_[0]--;
                tier_used_pages_[1]++;
                stats_.spilled_pages++;
                if (tier_used_pages_[0] < tier_capacity_pages_[0] ||
                    tier_used_pages_[1] >= tier_capacity_pages_[1])
                    break;
            }
            continue; // retry placement with the freed room
        }
        // Every tier full: drop a whole parked sequence, or give up.
        if (!dropLruVictim(seq, protect))
            return -1;
    }
}

OffloadResult
TieredPagePool::offloadSequence(int seq, double now,
                                const std::vector<int>& protect)
{
    OffloadResult res;
    if (!enabled()) {
        res.status = CacheStatus::Disabled;
        return res;
    }
    auto& rec = parked_[seq];
    const int pages = static_cast<int>(hot_.pageTable(seq).size());
    const std::size_t payload = static_cast<std::size_t>(hot_.pageSize()) *
                                static_cast<std::size_t>(hot_.headDim());
    std::vector<int> moved_per_tier(tier_used_pages_.size(), 0);
    for (int i = 0; i < pages; i++) {
        if (!hot_.pageResident(seq, i))
            continue; // already cold (or lost)
        const int phys = hot_.pageTable(seq)[static_cast<std::size_t>(i)];
        if (hot_.pageRefCount(phys) > 1)
            continue; // shared prefix / CoW partial: pinned hot
        ColdPage cold;
        cold.k.resize(payload);
        cold.v.resize(payload);
        hot_.evictPage(seq, i, cold.k.data(), cold.v.data());
        // A page leaving the hot pool can no longer satisfy the read its
        // prefetch anticipated — forget the pending-hit marker, or a
        // later fetch of the same page would double-count the hit.
        rec.prefetched_resident.erase(i);
        res.moved++;
        const int tier = makeColdRoom(seq, protect);
        if (tier < 0) {
            // Nowhere to put the payload: hot page is freed regardless,
            // the sequence recomputes from seeds on resume.
            rec.lost = true;
            res.dropped++;
            stats_.dropped_pages++;
            continue;
        }
        // Integrity stamps, taken over the exact bytes that cross tiers:
        // the FNV checksum detects rot, the ECC syndrome locates a single
        // flipped bit for in-place repair. Fault injection mutates the
        // payload *after* both stamps — the corruption model is "storage
        // rotted the page", and the resume fetch must catch it.
        cold.checksum = pageChecksum(cold.k, cold.v);
        cold.ecc = pageEcc(cold.k, cold.v);
        if (injector_ != nullptr &&
            injector_->roll(fault::FaultKind::PageCorruption, now,
                            static_cast<std::uint64_t>(seq),
                            static_cast<std::uint64_t>(i))) {
            Rng flip(fault::mixCoords(injector_->seed() ^ 0xB17F11Bull,
                                      fault::FaultKind::PageCorruption,
                                      static_cast<std::uint64_t>(seq),
                                      static_cast<std::uint64_t>(i)));
            const auto flipBit = [&](std::uint64_t lane, std::uint32_t b) {
                std::vector<Half>& buf = lane < payload ? cold.k : cold.v;
                Half& x = buf[static_cast<std::size_t>(lane % payload)];
                x = Half::fromBits(
                    static_cast<std::uint16_t>(x.bits() ^ (1u << b)));
            };
            const std::uint64_t lane = flip.uniformInt(2 * payload);
            const std::uint32_t b1 =
                static_cast<std::uint32_t>(flip.uniformInt(16));
            flipBit(lane, b1);
            if (flip.uniform() < injector_->multibitFraction()) {
                // Second flip at a guaranteed-different bit position:
                // the column syndrome then differs in two bits, which
                // the single-bit decoder refuses — uncorrectable by
                // construction, exercising the recompute path.
                const std::uint64_t lane2 = flip.uniformInt(2 * payload);
                const std::uint32_t b2 =
                    (b1 + 1 +
                     static_cast<std::uint32_t>(flip.uniformInt(15))) %
                    16;
                flipBit(lane2, b2);
            }
        }
        cold.tier = tier;
        tier_used_pages_[static_cast<std::size_t>(tier)]++;
        moved_per_tier[static_cast<std::size_t>(tier)]++;
        rec.cold[i] = std::move(cold);
        stats_.offloaded_pages++;
    }
    for (int t = 0; t < numTiers(); t++)
        res.writeback_s +=
            transferCost(t, moved_per_tier[static_cast<std::size_t>(t)]);
    if (res.dropped > 0) {
        res.status = CacheStatus::ContentLost;
        warn("tiered: no cold room for ", res.dropped, " page(s) of seq ",
             seq, " — payload dropped, sequence recomputes on resume");
    }
    rec.last_access = now;
    if (res.moved > 0)
        rec.resume_pending = true;
    return res;
}

FetchResult
TieredPagePool::fetchRange(int seq, int first_tok, int last_tok, double now)
{
    FetchResult res;
    if (!enabled()) {
        res.status = CacheStatus::Disabled;
        return res;
    }
    if (!tracked(seq)) {
        res.status = CacheStatus::NotTracked;
        return res;
    }
    auto& rec = parked_.at(seq);
    if (rec.lost) {
        res.status = CacheStatus::ContentLost;
        return res;
    }
    if (rec.cold.empty())
        return res; // fully resident: nothing to move
    const int pages = static_cast<int>(hot_.pageTable(seq).size());
    if (pages == 0)
        return res;
    const int ps = hot_.pageSize();
    const int first_page = std::max(0, first_tok / ps);
    const int last_page = std::min(pages - 1, last_tok / ps);
    BITDEC_ASSERT(first_page <= last_page, "empty fetch range");
    // Demand window first, then up to prefetch_pages_ more cold pages of
    // the same sequence, nearest to the demand range first (lookahead in
    // both directions: a resumed prefill's cold pages sit *behind* the
    // append point, a gated decode's ahead of the last chunk restored).
    std::vector<int> wanted;
    for (int i = first_page; i <= last_page; i++)
        if (rec.cold.count(i))
            wanted.push_back(i);
    const int demand = static_cast<int>(wanted.size());
    for (int dist = 1, budget = prefetch_pages_;
         budget > 0 && (first_page - dist >= 0 || last_page + dist < pages);
         dist++) {
        if (first_page - dist >= 0 && rec.cold.count(first_page - dist)) {
            wanted.push_back(first_page - dist);
            budget--;
        }
        if (budget > 0 && last_page + dist < pages &&
            rec.cold.count(last_page + dist)) {
            wanted.push_back(last_page + dist);
            budget--;
        }
    }
    // Fault-decision coordinate: one counter per fetchRange call, so a
    // retried fetch re-rolls every per-page fault instead of hitting the
    // same deterministic failure forever.
    const std::uint64_t attempt = ++fetch_attempts_;
    std::vector<int> moved_per_tier(tier_used_pages_.size(), 0);
    bool saw_corruption = false;
    for (std::size_t w = 0; w < wanted.size(); w++) {
        const int i = wanted[w];
        const auto it = rec.cold.find(i);
        const int tier = it->second.tier;
        // A transient per-page fault skips the page but keeps draining
        // the rest of the batch: one bad page must not abort hundreds of
        // good transfers, or a long fetch would retry itself to death.
        if (injector_ != nullptr &&
            injector_->roll(fault::FaultKind::HotAllocFailure, now, attempt,
                            static_cast<std::uint64_t>(i))) {
            // Transient allocator hiccup: distinct from genuine pool
            // exhaustion — freeing pages won't help, backing off will.
            stats_.transfer_failures++;
            res.status = CacheStatus::TransientFault;
            continue;
        }
        if (injector_ != nullptr &&
            injector_->roll(fault::FaultKind::FetchFailure, now, attempt,
                            static_cast<std::uint64_t>(i))) {
            stats_.transfer_failures++;
            res.status = CacheStatus::TransientFault;
            continue;
        }
        if (injector_ != nullptr &&
            injector_->roll(fault::FaultKind::LatencySpike, now, attempt,
                            static_cast<std::uint64_t>(i))) {
            const double base = transferCost(tier, 1);
            double spiked = base * injector_->spikeMultiplier();
            if (std::isfinite(hedge_after_mult_)) {
                // Hedged read: once the transfer has stalled for
                // hedge_after_mult x its modeled cost, a duplicate
                // request goes out and the page completes at whichever
                // finishes first. The hedge peeks its own spike fate
                // (not a new injected fault), so storms can defeat it.
                const bool hedge_spiked = injector_->peek(
                    fault::FaultKind::LatencySpike, now, attempt,
                    static_cast<std::uint64_t>(i), /*hedge=*/1);
                const double hedged =
                    hedge_after_mult_ * base +
                    base * (hedge_spiked ? injector_->spikeMultiplier()
                                         : 1.0);
                if (hedged < spiked) {
                    spiked = hedged;
                    stats_.hedged_fetches++;
                }
            }
            if (spiked > fetch_timeout_s_) {
                // Abandon rather than absorb a pathological stall: the
                // backoff delay is bounded, the spike is not.
                stats_.transfer_failures++;
                warn("tiered: fetch of seq ", seq, " page ", i, " from ",
                     tierName(tier), " timed out (", spiked, " s > ",
                     fetch_timeout_s_, " s)");
                res.status = CacheStatus::TransientFault;
                continue;
            }
            res.latency_s += spiked - base; // extra over the modeled cost
        }
        if (pageChecksum(it->second.k, it->second.v) !=
            it->second.checksum) {
            if (tryRepairPage(it->second)) {
                // Single-bit rot: the syndrome located the flipped bit
                // and the corrected payload re-verified. Restore as if
                // nothing happened.
                stats_.repaired_pages++;
            } else {
                // Multi-bit rot the ECC cannot locate. Only *this* page
                // is poison — every other page is checksum-verified — so
                // only this page is dropped, leaving a hole that is
                // neither hot nor cold. The caller rebuilds exactly that
                // page from seeds (digest-identical), a chunk-sized
                // recompute instead of a whole-sequence one.
                stats_.checksum_failures++;
                warn("tiered: uncorrectable corruption on seq ", seq,
                     " page ", i, " from ", tierName(tier),
                     " — page dropped, caller rebuilds it from seeds");
                tier_used_pages_[static_cast<std::size_t>(tier)]--;
                rec.cold.erase(it);
                saw_corruption = true;
                continue;
            }
        }
        const CacheStatus rs =
            hot_.restorePage(seq, i, it->second.k.data(),
                             it->second.v.data());
        if (rs != CacheStatus::Ok) {
            res.status = rs; // hot pool dry: caller frees pages, retries
            break;
        }
        tier_used_pages_[static_cast<std::size_t>(tier)]--;
        moved_per_tier[static_cast<std::size_t>(tier)]++;
        if (static_cast<int>(w) >= demand) {
            rec.prefetched_resident.insert(i);
            stats_.prefetched_pages++;
        } else {
            stats_.fetched_pages++;
        }
        rec.cold.erase(it);
        res.restored++;
    }
    for (int t = 0; t < numTiers(); t++)
        res.latency_s +=
            transferCost(t, moved_per_tier[static_cast<std::size_t>(t)]);
    // Corruption outranks any transient skip in the same call: the
    // caller must learn about the holes it has to rebuild, or they
    // would masquerade as retriable pages and never heal.
    if (saw_corruption)
        res.status = CacheStatus::CorruptionDetected;
    rec.last_access = now;
    return res;
}

bool
TieredPagePool::coldHas(int seq, int page) const
{
    const auto it = parked_.find(seq);
    return it != parked_.end() && it->second.cold.count(page) > 0;
}

void
TieredPagePool::touchRange(int seq, int first_tok, int last_tok, double now)
{
    const auto it = parked_.find(seq);
    if (it == parked_.end())
        return;
    auto& rec = it->second;
    const int ps = hot_.pageSize();
    const int first_page = std::max(0, first_tok / ps);
    const int last_page = last_tok / ps;
    for (int i = first_page; i <= last_page; i++) {
        if (rec.prefetched_resident.erase(i))
            stats_.prefetch_hits++; // first real read of a prefetched page
    }
    rec.last_access = now;
}

void
TieredPagePool::forgetSequence(int seq)
{
    const auto it = parked_.find(seq);
    if (it == parked_.end())
        return;
    for (const auto& [idx, page] : it->second.cold)
        tier_used_pages_[static_cast<std::size_t>(page.tier)]--;
    parked_.erase(it);
}

bool
TieredPagePool::takeResumeMark(int seq)
{
    const auto it = parked_.find(seq);
    if (it == parked_.end() || !it->second.resume_pending)
        return false;
    it->second.resume_pending = false;
    return true;
}

int
TieredPagePool::coldPages(int seq) const
{
    const auto it = parked_.find(seq);
    return it == parked_.end() ? 0 : static_cast<int>(it->second.cold.size());
}

bool
TieredPagePool::contentLost(int seq) const
{
    const auto it = parked_.find(seq);
    return it != parked_.end() && it->second.lost;
}

const std::string&
TieredPagePool::tierName(int t) const
{
    return tiers_.at(static_cast<std::size_t>(t)).name;
}

int
TieredPagePool::tierCapacityPages(int t) const
{
    return tier_capacity_pages_.at(static_cast<std::size_t>(t));
}

int
TieredPagePool::tierUsedPages(int t) const
{
    return tier_used_pages_.at(static_cast<std::size_t>(t));
}

} // namespace bitdec::kv
