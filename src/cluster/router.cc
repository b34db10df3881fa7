#include "cluster/router.h"

#include <numeric>

#include "common/logging.h"

namespace bitdec::cluster {

const char*
toString(RoutePolicy policy)
{
    switch (policy) {
      case RoutePolicy::Sticky:
        return "sticky";
      case RoutePolicy::LeastLoaded:
        return "least-loaded";
      case RoutePolicy::RoundRobin:
        return "round-robin";
    }
    return "unknown";
}

Router::Router(const RouterConfig& cfg) : cfg_(cfg)
{
    BITDEC_ASSERT(cfg_.num_shards >= 1, "Router needs >= 1 shard, got ",
                  cfg_.num_shards);
    BITDEC_ASSERT(cfg_.rebalance_factor > 1.0,
                  "RouterConfig.rebalance_factor must be > 1 (got ",
                  cfg_.rebalance_factor, "): <= 1 thrashes prefix homes");
    stats_.per_shard_requests.assign(
        static_cast<std::size_t>(cfg_.num_shards), 0);
    stats_.per_shard_tokens.assign(static_cast<std::size_t>(cfg_.num_shards),
                                   0);
}

int
Router::leastLoaded() const
{
    const std::vector<long>& load = stats_.per_shard_tokens;
    int best = 0;
    for (int s = 1; s < cfg_.num_shards; s++)
        if (load[static_cast<std::size_t>(s)] <
            load[static_cast<std::size_t>(best)])
            best = s;
    return best;
}

int
Router::route(const serving::Request& r)
{
    // Load unit: the tokens this request will hold in the page pool and
    // feed through the step clock.
    const long tokens = r.prompt_tokens + r.output_tokens;
    int shard;
    switch (cfg_.policy) {
      case RoutePolicy::RoundRobin:
        shard = next_rr_;
        next_rr_ = (next_rr_ + 1) % cfg_.num_shards;
        break;
      case RoutePolicy::LeastLoaded:
        shard = leastLoaded();
        stats_.least_loaded++;
        break;
      case RoutePolicy::Sticky:
      default: {
        // One shard keeps no prefix homes: there is nowhere else to go.
        if (r.prefix_id == 0 || r.prefix_tokens <= 0 ||
            cfg_.num_shards == 1) {
            shard = leastLoaded();
            stats_.least_loaded++;
            break;
        }
        const auto it = prefix_home_.find(r.prefix_id);
        if (it == prefix_home_.end()) {
            shard = leastLoaded();
            prefix_home_[r.prefix_id] = shard;
            stats_.cold_placements++;
            break;
        }
        const int home = it->second;
        const std::vector<long>& load = stats_.per_shard_tokens;
        const long total = std::accumulate(load.begin(), load.end(), 0L);
        const double mean =
            static_cast<double>(total) / cfg_.num_shards;
        const int lightest = leastLoaded();
        // Skew escape: pay one cold prefix prefill on a lighter shard
        // rather than queue the whole family behind a hot one.
        if (lightest != home &&
            static_cast<double>(load[static_cast<std::size_t>(home)]) >
                cfg_.rebalance_factor * mean) {
            shard = lightest;
            prefix_home_[r.prefix_id] = shard;
            stats_.rebalances++;
        } else {
            shard = home;
            stats_.sticky_hits++;
        }
        break;
      }
    }
    stats_.routed++;
    stats_.per_shard_requests[static_cast<std::size_t>(shard)]++;
    stats_.per_shard_tokens[static_cast<std::size_t>(shard)] += tokens;
    return shard;
}

long
Router::shardLoad(int shard) const
{
    BITDEC_ASSERT(shard >= 0 && shard < cfg_.num_shards, "bad shard index ",
                  shard);
    return stats_.per_shard_tokens[static_cast<std::size_t>(shard)];
}

int
Router::prefixHome(std::uint64_t prefix_id) const
{
    const auto it = prefix_home_.find(prefix_id);
    return it == prefix_home_.end() ? -1 : it->second;
}

} // namespace bitdec::cluster
