#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/** 1-based nearest rank of percentile @p p among @p n samples. */
std::size_t
rankOf(std::size_t n, double p)
{
    const double r = std::ceil(p / 100.0 * static_cast<double>(n));
    return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

} // namespace

double
nearestRank(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0;
    const std::size_t k = rankOf(xs.size(), p) - 1;
    std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k),
                     xs.end());
    return xs[k];
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - rankOf(n, p);
}

double
tailPercentile(std::size_t n)
{
    for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0})
        if (samplesBeyond(n, p) >= 10)
            return p;
    return 100.0;
}

Summary
summarize(const std::vector<double>& xs)
{
    return summarize(xs, tailPercentile(xs.size()));
}

Summary
summarize(const std::vector<double>& xs, double tail_pct)
{
    Summary s;
    s.n = xs.size();
    s.p50 = nearestRank(xs, 50);
    s.tail_pct = tail_pct;
    s.tail = nearestRank(xs, tail_pct);
    return s;
}

double
median(const std::vector<double>& xs)
{
    return nearestRank(xs, 50);
}

} // namespace perfbench
