/**
 * @file
 * Prefix-aware request router for the sharded serving cluster.
 *
 * Placement policy (Sticky, the default):
 *  - A request naming a shared prefix routes to the shard that already
 *    holds that prefix's pages (its "home"), so the whole family maps
 *    the packed system prompt once instead of cold-prefilling it on
 *    every shard. The first request of a family places the home on the
 *    least-loaded shard.
 *  - Prefix-free requests always go to the least-loaded shard.
 *  - Rebalancing under skew: when a family's home shard carries more
 *    than rebalance_factor x the mean shard load and some other shard
 *    is lighter, the family's home moves there. The family's next
 *    request cold-prefills the prefix once on the new home; after that
 *    stickiness resumes. This trades one prefill for unbounded queueing
 *    behind a hot shard.
 *
 * Load is measured in submitted tokens (prompt + output budget), the
 * unit the page pool and the step clock actually charge, so a shard
 * full of 32K contexts is "loaded" even with few requests. Ties break
 * toward the lowest shard index, which keeps routing deterministic:
 * the same submission sequence always produces the same placement.
 */
#ifndef BITDEC_CLUSTER_ROUTER_H
#define BITDEC_CLUSTER_ROUTER_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "serving/request.h"

namespace bitdec::cluster {

/** Placement policy of the Router. */
enum class RoutePolicy
{
    Sticky,      //!< prefix-sticky with least-loaded fallback (default)
    LeastLoaded, //!< ignore prefixes; always the least-loaded shard
    RoundRobin,  //!< ignore load; baseline for ablations
};

/** Returns a printable policy name. */
const char* toString(RoutePolicy policy);

/** Router configuration. */
struct RouterConfig
{
    int num_shards = 1;
    RoutePolicy policy = RoutePolicy::Sticky;

    /**
     * Skew threshold: a prefix family's home shard is abandoned when
     * its load exceeds this multiple of the mean shard load while a
     * strictly lighter shard exists. <= 1 would thrash; typical ~1.25.
     */
    double rebalance_factor = 1.25;
};

/** Routing counters, cumulative over the router's lifetime. */
struct RouterStats
{
    long routed = 0;          //!< route() calls
    long sticky_hits = 0;     //!< follow-ups sent to their prefix home
    long cold_placements = 0; //!< first placement of a prefix family
    long least_loaded = 0;    //!< least-loaded placements (prefix-free,
                              //!< or any request at one shard)
    long rebalances = 0;      //!< prefix homes moved under skew
    std::vector<long> per_shard_requests; //!< requests routed per shard
    //! load tokens routed per shard: the load placement compares
    std::vector<long> per_shard_tokens;
};

/** Deterministic sticky prefix-aware shard placement. */
class Router
{
  public:
    explicit Router(const RouterConfig& cfg);

    /**
     * Picks the shard for @p r and accounts its load there.
     * @return shard index in [0, num_shards).
     */
    int route(const serving::Request& r);

    /** Current load (tokens) of one shard. */
    long shardLoad(int shard) const;

    /** Home shard of a prefix family; -1 when never placed. */
    int prefixHome(std::uint64_t prefix_id) const;

    const RouterStats& stats() const { return stats_; }

  private:
    /** Least-loaded shard, lowest index among ties. */
    int leastLoaded() const;

    RouterConfig cfg_;
    std::unordered_map<std::uint64_t, int> prefix_home_;
    int next_rr_ = 0; //!< RoundRobin cursor
    RouterStats stats_;
};

} // namespace bitdec::cluster

#endif // BITDEC_CLUSTER_ROUTER_H
