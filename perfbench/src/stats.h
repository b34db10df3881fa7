/**
 * @file
 * Percentiles and small sample summaries for the benchmark's metrics.
 *
 * Every timing is reported as its median plus one tail, a percentile with
 * at least ten samples beyond it so a tail never rests on one or two
 * outliers. Workloads fix theirs from their sample counts; tailPercentile
 * picks one for figures whose counts vary. The chosen percentile and the
 * sample count travel with the value.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/**
 * Nearest-rank percentile: the value at rank ceil(p/100 * n) (1-based)
 * of the sorted samples, for p in (0, 100]. 0 when @p xs is empty.
 */
double nearestRank(std::vector<double> xs, double p);

/** Samples strictly above the nearest-rank position of @p p among @p n. */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * The highest percentile of the ladder {99, 95, 90, 75, 50} with at
 * least ten samples beyond it among @p n; 100 (the maximum) when even
 * the median has fewer than ten above it.
 */
double tailPercentile(std::size_t n);

/** Median, tail and the sample count they rest on. */
struct Summary
{
    double p50 = 0;
    double tail = 0;
    double tail_pct = 0; //!< which percentile `tail` is
    std::size_t n = 0;
};

/** Summarizes @p xs by the rules above. */
Summary summarize(const std::vector<double>& xs);

/**
 * Summarizes @p xs with a fixed tail percentile — a workload sized so
 * its samples always support @p tail_pct keeps one definition of its
 * tail across runs whose sample counts differ slightly.
 */
Summary summarize(const std::vector<double>& xs, double tail_pct);

/** Median of a non-empty sample; 0 when empty. */
double median(const std::vector<double>& xs);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
