/**
 * @file
 * perfbench: the repository benchmark binary.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir>]
 *
 * Workloads: longctx-decode, wire-chat, lowbit-decode (see
 * perfbench/README.md for what each stresses and why).
 *
 * --trace 0 runs the workload once for --seconds with no wrappers and
 * prints the end-to-end metrics. --trace 1 runs it twice for half the
 * time each, first plain and then with the timing wrappers and span log
 * on, and prints the per-layer metrics together with both runs' figures
 * (the difference is the tracing overhead); the spans are written to
 * <out-dir>/spans-<workload>-seed<n>.json at exit.
 *
 * Every run checks its outputs (see each workload) and counts failures.
 * The last line of stdout is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * and the line before it is the full record (provenance, every figure).
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>

#include <malloc.h>

#include "exec/simd/dispatch.h"
#include "result.h"
#include "spans.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string out_dir = ".";
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<longctx-decode|wire-chat|lowbit-decode> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n",
                 why);
    std::exit(2);
}

Args
parse(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const char* val = argv[++i];
        char* end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
            if (!(a.seconds > 0))
                usage("--seconds must be positive");
        } else if (key == "--trace") {
            a.trace = static_cast<int>(std::strtol(val, &end, 10));
            if (a.trace != 0 && a.trace != 1)
                usage("--trace must be 0 or 1");
        } else if (key == "--out-dir") {
            a.out_dir = val;
        } else {
            usage(("unknown argument " + key).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("malformed value for " + key).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

std::function<Result(const RunOptions&)>
workloadFn(const std::string& name)
{
    if (name == "longctx-decode")
        return runLongctxDecode;
    if (name == "wire-chat")
        return runWireChat;
    if (name == "lowbit-decode")
        return runLowbitDecode;
    usage(("unknown workload '" + name + "'").c_str());
}

/** A finite number with all its digits. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quote(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
envOr(const char* name, const char* fallback)
{
    const char* v = std::getenv(name);
    return v != nullptr ? v : fallback;
}

/** Where the numbers came from: code, build, host, dispatch, inputs. */
std::string
provenance(const Args& a, const Result& r)
{
    namespace simd = bitdec::exec::simd;
    std::string s = "{";
    s += "\"commit\": " + quote(envOr("PERFBENCH_COMMIT", "unknown"));
    s += ", \"source_digest\": " +
         quote(envOr("PERFBENCH_SOURCE_DIGEST", "unknown"));
    s += ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE);
    s += ", \"compiler\": " + quote(std::string("g++ ") + __VERSION__);
    s += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
    s += ", \"cpu_features\": " + quote(simd::describeCpuFeatures());
    s += ", \"simd_level_cap\": " +
         quote(simd::toString(simd::enabledLevelCap()));
    s += ", \"BITDEC_SIMD\": " + quote(envOr("BITDEC_SIMD", ""));
    s += ", \"BITDEC_THREADS\": " + quote(envOr("BITDEC_THREADS", ""));
    for (const auto& [k, v] : r.info)
        s += ", " + quote(k) + ": " + quote(v);
    s += ", \"workload\": " + quote(a.workload);
    s += ", \"seed\": " + std::to_string(a.seed);
    s += ", \"seconds\": " + num(a.seconds);
    s += ", \"trace\": " + std::to_string(a.trace);
    return s + "}";
}

/** Record-only figures: sample counts, tail percentiles, ITL, sim. */
std::map<std::string, double>
recordFigures(const Result& r)
{
    std::map<std::string, double> f = r.extra;
    const Unit fast = fastestQuarter(r.units);
    const Summary ttft = summarize(fast.samples.ttft_ms, r.tail_pct);
    const Summary itl = summarize(fast.samples.itl_ms, r.itl_tail_pct);
    f["requests_sampled"] = static_cast<double>(ttft.n);
    f["tail_pct"] = r.tail_pct;
    // 1 when a tail rests on fewer than ten samples beyond it.
    f["tail_underpowered"] = samplesBeyond(ttft.n, r.tail_pct) < 10 ? 1 : 0;
    f["itl_tail_underpowered"] =
        samplesBeyond(itl.n, r.itl_tail_pct) < 10 ? 1 : 0;
    f["itl_p50_ms"] = itl.p50;
    f["itl_tail_ms"] = itl.tail;
    f["itl_tail_pct"] = itl.tail_pct;
    f["itl_samples"] = static_cast<double>(itl.n);
    f["tokens_reported"] = static_cast<double>(fast.samples.tokens);
    double wall = 0;
    long tokens = 0;
    std::vector<double> unit_rates;
    for (const Unit& u : r.units) {
        wall += u.wall_s;
        tokens += u.samples.tokens;
        unit_rates.push_back(u.tokensPerS());
    }
    f["units"] = static_cast<double>(r.units.size());
    f["measured_s"] = wall;
    f["all_units_tokens_per_s"] =
        wall > 0 ? static_cast<double>(tokens) / wall : 0;
    f["slowest_unit_tokens_per_s"] = nearestRank(unit_rates, 1);
    f["fastest_unit_tokens_per_s"] = nearestRank(unit_rates, 100);
    f["setup_samples"] = static_cast<double>(r.setup_s.size());
    f["failed_frac"] = r.attempted > 0 ? static_cast<double>(r.failed) /
                                             static_cast<double>(r.attempted)
                                       : 1.0;
    return f;
}

std::string
numberMap(const std::map<std::string, double>& m)
{
    std::string s = "{";
    for (const auto& [k, v] : m)
        s += (s.size() > 1 ? ", " : "") + quote(k) + ": " + num(v);
    return s + "}";
}

std::string
metricsObject(const std::vector<MetricDef>& defs,
              const std::map<std::string, double>& values)
{
    std::string s = "{";
    for (const MetricDef& d : defs) {
        const auto it = values.find(d.name);
        const double v = it == values.end() ? 0.0 : it->second;
        s += (s.size() > 1 ? ", " : "") + quote(d.name) + ": {\"value\": " +
             num(v) + ", \"unit\": " + quote(d.unit) + "}";
    }
    return s + "}";
}

void
printTable(const std::vector<MetricDef>& defs,
           const std::map<std::string, double>& values)
{
    for (const MetricDef& d : defs) {
        const auto it = values.find(d.name);
        std::printf("  %-34s %16.4f %s\n", d.name,
                    it == values.end() ? 0.0 : it->second, d.unit);
    }
}

} // namespace

int
main(int argc, char** argv)
{
    // glibc raises its mmap threshold after the first large free, so later
    // large blocks (a client's page pool) land in the heap, whose
    // high-water mark then depends on the seed's allocation order (11 vs
    // 16 MiB on longctx-decode for two seeds). Pinning the threshold at
    // its default keeps large blocks mapped on allocation and unmapped on
    // free, so peak_rss_mb follows the live data.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    const Args a = parse(argc, argv);
    const auto fn = workloadFn(a.workload);

    Result plain;
    Result traced;
    std::map<std::string, double> metrics;
    const std::vector<MetricDef>* defs = &endToEndMetrics();
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> failures;

    if (a.trace == 0) {
        plain = fn({a.seed, a.seconds, false});
        metrics = endToEndValues(plain);
        attempted = plain.attempted;
        failed = plain.failed;
        failures = plain.failures;
    } else {
        plain = fn({a.seed, a.seconds / 2, false});
        SpanLog::instance().enable(true);
        traced = fn({a.seed, a.seconds / 2, true});
        SpanLog::instance().enable(false);
        defs = &perLayerMetrics();
        metrics = traced.layer;
        const auto pe = endToEndValues(plain);
        const auto te = endToEndValues(traced);
        const auto pr = recordFigures(plain);
        metrics["e2e.itl_p50_ms"] = pr.at("itl_p50_ms");
        metrics["e2e.itl_tail_ms"] = pr.at("itl_tail_ms");
        metrics["untraced.tokens_per_s"] = pe.at("tokens_per_s");
        metrics["traced.tokens_per_s"] = te.at("tokens_per_s");
        metrics["traced.ttft_p50_ms"] = te.at("ttft_p50_ms");
        metrics["traced.latency_p50_ms"] = te.at("latency_p50_ms");
        metrics["trace.overhead_share"] =
            te.at("tokens_per_s") > 0
                ? pe.at("tokens_per_s") / te.at("tokens_per_s") - 1.0
                : 0;
        metrics["trace.spans"] =
            static_cast<double>(SpanLog::instance().size());
        attempted = plain.attempted + traced.attempted;
        failed = plain.failed + traced.failed;
        failures = plain.failures;
        failures.insert(failures.end(), traced.failures.begin(),
                        traced.failures.end());
        const std::string path = a.out_dir + "/spans-" + a.workload +
                                 "-seed" + std::to_string(a.seed) + ".json";
        if (!SpanLog::instance().write(path))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
    }

    std::printf("perfbench %s seed %llu, %s run\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed),
                a.trace ? "traced" : "untraced");
    printTable(*defs, metrics);
    for (const std::string& f : failures)
        std::printf("  FAILED: %s\n", f.c_str());

    std::string record = "{\"record\": {\"provenance\": " +
                         provenance(a, plain) + ", \"untraced\": " +
                         numberMap(endToEndValues(plain)) +
                         ", \"untraced_figures\": " +
                         numberMap(recordFigures(plain));
    if (a.trace == 1)
        record += ", \"traced\": " + numberMap(endToEndValues(traced)) +
                  ", \"traced_figures\": " + numberMap(recordFigures(traced)) +
                  ", \"layers\": " + numberMap(traced.layer);
    record += "}}";
    std::printf("%s\n", record.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": %s}\n",
                failed == 0 && attempted > 0 ? "true" : "false", attempted,
                failed, metricsObject(*defs, metrics).c_str());
    std::fflush(stdout);
    return 0;
}
