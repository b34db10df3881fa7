/**
 * @file
 * What one workload phase reports, the metric catalogue the benchmark
 * prints, and the process counters every workload shares.
 */
#ifndef PERFBENCH_RESULT_H
#define PERFBENCH_RESULT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "timing.h"
#include "workloads.h"

namespace perfbench {

/** How to run one workload phase. */
struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10; //!< measured wall time to fill
    bool traced = false; //!< timing wrappers + spans on
};

/** Set-up samples a workload takes at least (median = setup_s). */
constexpr std::size_t kMinSetupSamples = 25;

/**
 * One measured repeat of a workload's unit of work: an iteration of the
 * trace, a block of chat turns, or the whole wire schedule.
 */
struct Unit
{
    double wall_s = 0;
    LatencySamples samples;

    double tokensPerS() const
    {
        return wall_s > 0 ? static_cast<double>(samples.tokens) / wall_s : 0;
    }
};

/**
 * The fastest quarter of @p units by throughput (at least one), pooled.
 *
 * On a shared host other tenants slow whole stretches of a run, 10-20 s
 * at a time, by up to 2x; a run's repeats land partly inside such spells
 * and partly outside. Reporting the fastest quarter of the repeats tracks
 * what the code costs rather than what the neighbours did, and stays
 * comparable run to run.
 */
Unit fastestQuarter(const std::vector<Unit>& units);

/** One phase's outcome. Metric maps are keyed by catalogue name. */
struct Result
{
    long attempted = 0; //!< requests (or decode steps) run
    long failed = 0;    //!< failed, refused or check-failed
    std::vector<std::string> failures; //!< first few failure messages

    //! Measured repeats, in run order (all of them are checked).
    std::vector<Unit> units;
    std::vector<double> setup_s; //!< one sample per set-up
    //! Peak RSS of the measured window (resetPeakRss() at its start,
    //! read before any reference check builds its own state).
    double peak_rss_mb = 0;

    //! Tail percentiles, fixed per workload so a typical run's reported
    //! samples leave at least ten beyond them (flagged in the record when
    //! a run falls short).
    double tail_pct = 99;     //!< TTFT and latency
    double itl_tail_pct = 99; //!< inter-token latency

    std::map<std::string, double> extra; //!< record-only figures
    std::map<std::string, double> layer; //!< per-layer figures (traced)
    std::map<std::string, std::string> info; //!< resolved names etc.

    /** Counts a failure, keeping the first few messages. */
    void fail(const std::string& message, long count = 1);
};

/** A catalogue entry: name, unit, whether higher is better. */
struct MetricDef
{
    const char* name;
    const char* unit;
    bool higher_better;
};

/** End-to-end metrics, printed by every untraced run. */
const std::vector<MetricDef>& endToEndMetrics();

/** Per-layer metrics, printed by every traced run (0 = layer idle). */
const std::vector<MetricDef>& perLayerMetrics();

/** End-to-end values of a phase, keyed by catalogue name. */
std::map<std::string, double> endToEndValues(const Result& r);

/**
 * Returns freed heap to the system and restarts the process peak-RSS
 * count from the current RSS (Linux clear_refs "5"). Returns false where
 * the kernel refuses, in which case peakRssMb() is the whole-process peak.
 */
bool resetPeakRss();

/**
 * Process peak resident set since the last resetPeakRss(), less the
 * file-backed and shared pages resident now (binary, libraries), MiB.
 * Those ~4 MiB of code are the same whatever the program does with its
 * data, so leaving them out keeps a change in the data footprint from
 * being diluted.
 */
double peakRssMb();

/** Process CPU time (user + system), seconds. */
double processCpuSeconds();

// Workload phases (wl_*.cc).
Result runLongctxDecode(const RunOptions& opt);
Result runWireChat(const RunOptions& opt);
Result runLowbitDecode(const RunOptions& opt);

/** TimedClient counters summed over a phase's clients. */
struct LayerTotals
{
    CallStats ticks;
    CallStats submits;

    void add(const TimedClient& c);
};

/**
 * Fills the serving.* / backend.* per-layer figures shared by the
 * serving workloads from the phase's wrapper counters.
 */
void addServingLayers(Result& r, const LayerTotals& totals,
                      const TimedBackend& backend);
void addBackendLayers(Result& r, const TimedBackend& backend,
                      double enclosing_busy_ms);

} // namespace perfbench

#endif // PERFBENCH_RESULT_H
