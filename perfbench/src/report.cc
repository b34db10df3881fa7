#include "result.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <malloc.h>
#include <sys/resource.h>

#include "timing.h"

namespace perfbench {

void
Result::fail(const std::string& message, long count)
{
    failed += count;
    if (failures.size() < 8)
        failures.push_back(message);
}

const std::vector<MetricDef>&
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"tokens_per_s", "1/s", true},
        {"ttft_p50_ms", "ms", false},
        {"ttft_tail_ms", "ms", false},
        {"latency_p50_ms", "ms", false},
        {"latency_tail_ms", "ms", false},
        {"setup_s", "s", false},
        {"peak_rss_mb", "MiB", false},
    };
    return defs;
}

const std::vector<MetricDef>&
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"serving.tick.count", "count", false},
        {"serving.tick.busy_ms", "ms", false},
        {"serving.tick.p50_us", "us", false},
        {"serving.tick.p99_us", "us", false},
        {"serving.tick.self_ms", "ms", false},
        {"serving.submit.busy_ms", "ms", false},
        {"serving.preemptions", "count", false},
        {"serving.decode_batch.mean", "count", true},
        {"backend.decode.count", "count", false},
        {"backend.decode.busy_ms", "ms", false},
        {"backend.decode.p99_us", "us", false},
        {"backend.decode.items", "count", true},
        {"backend.decode.kv_tokens", "count", true},
        {"backend.decode.ns_per_kv_token", "ns", false},
        {"backend.decode.bytes_read_mb", "MiB", true},
        {"backend.decode.tick_share", "share", false},
        {"kvcache.checksum.ns_per_page", "ns", false},
        {"kvcache.ecc.ns_per_page", "ns", false},
        {"kvcache.pool.peak_util", "share", true},
        {"kvcache.prefix.hit_rate", "share", true},
        {"kvcache.cow_copies", "count", false},
        {"cluster.router.sticky_share", "share", true},
        {"cluster.router.rebalances", "count", false},
        {"net.server.cpu_ms", "ms", false},
        {"net.self_ms", "ms", false},
        {"net.frames_out", "count", true},
        {"net.bytes_out", "bytes", true},
        {"net.peak_write_buffer_bytes", "bytes", false},
        {"net.busy_rejections", "count", false},
        {"net.encode.ns_per_frame", "ns", false},
        {"net.decode.ns_per_frame", "ns", false},
        {"net.gen.lag_p99_ms", "ms", false},
        {"net.gen.lag_max_ms", "ms", false},
        {"core.append.busy_ms", "ms", false},
        {"core.append.p99_us", "us", false},
        {"core.append.seals", "count", true},
        {"core.pack.ns_per_token", "ns", false},
        {"proc.cpu_util", "share", true},
        {"sim.tokens_per_s", "1/s", true},
        {"sim.ttft_p99_s", "s", false},
        {"e2e.itl_p50_ms", "ms", false},
        {"e2e.itl_tail_ms", "ms", false},
        {"untraced.tokens_per_s", "1/s", true},
        {"traced.tokens_per_s", "1/s", true},
        {"traced.ttft_p50_ms", "ms", false},
        {"traced.latency_p50_ms", "ms", false},
        {"trace.overhead_share", "share", false},
        {"trace.spans", "count", false},
    };
    return defs;
}

Unit
fastestQuarter(const std::vector<Unit>& units)
{
    std::vector<const Unit*> ranked;
    for (const Unit& u : units)
        ranked.push_back(&u);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const Unit* a, const Unit* b) {
                         return a->tokensPerS() > b->tokensPerS();
                     });
    Unit out;
    const std::size_t keep = (ranked.size() + 3) / 4;
    for (std::size_t i = 0; i < keep; i++) {
        const Unit& u = *ranked[i];
        out.wall_s += u.wall_s;
        LatencySamples& s = out.samples;
        s.ttft_ms.insert(s.ttft_ms.end(), u.samples.ttft_ms.begin(),
                         u.samples.ttft_ms.end());
        s.latency_ms.insert(s.latency_ms.end(), u.samples.latency_ms.begin(),
                            u.samples.latency_ms.end());
        s.itl_ms.insert(s.itl_ms.end(), u.samples.itl_ms.begin(),
                        u.samples.itl_ms.end());
        s.tokens += u.samples.tokens;
    }
    return out;
}

std::map<std::string, double>
endToEndValues(const Result& r)
{
    const Unit fast = fastestQuarter(r.units);
    const Summary ttft = summarize(fast.samples.ttft_ms, r.tail_pct);
    const Summary lat = summarize(fast.samples.latency_ms, r.tail_pct);
    std::map<std::string, double> v;
    v["tokens_per_s"] = fast.tokensPerS();
    v["ttft_p50_ms"] = ttft.p50;
    v["ttft_tail_ms"] = ttft.tail;
    v["latency_p50_ms"] = lat.p50;
    v["latency_tail_ms"] = lat.tail;
    v["setup_s"] = median(r.setup_s);
    v["peak_rss_mb"] = r.peak_rss_mb;
    return v;
}

bool
resetPeakRss()
{
    malloc_trim(0); // freed heap would otherwise count as resident
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    return static_cast<bool>(clear);
}

double
peakRssMb()
{
    // Lines read "VmHWM:   1234 kB".
    std::ifstream status("/proc/self/status");
    std::string line;
    double hwm_kb = -1;
    double mapped_kb = 0;
    const auto kb = [&](const char* key) {
        return line.rfind(key, 0) == 0
                   ? std::strtod(line.c_str() + std::strlen(key), nullptr)
                   : -1.0;
    };
    while (std::getline(status, line)) {
        if (const double v = kb("VmHWM:"); v >= 0)
            hwm_kb = v;
        else if (const double f = kb("RssFile:"); f >= 0)
            mapped_kb += f;
        else if (const double s = kb("RssShmem:"); s >= 0)
            mapped_kb += s;
    }
    if (hwm_kb >= 0)
        return (hwm_kb - mapped_kb) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

void
addBackendLayers(Result& r, const TimedBackend& be, double enclosing_busy_ms)
{
    const CallStats& c = be.calls();
    r.layer["backend.decode.count"] = static_cast<double>(c.count);
    r.layer["backend.decode.busy_ms"] = c.busyMs();
    r.layer["backend.decode.p99_us"] = nearestRank(c.durations_us, 99);
    r.layer["backend.decode.items"] = static_cast<double>(be.items());
    r.layer["backend.decode.kv_tokens"] = static_cast<double>(be.kvTokens());
    r.layer["backend.decode.ns_per_kv_token"] =
        be.kvTokens() > 0 ? static_cast<double>(c.busy_ns) /
                                static_cast<double>(be.kvTokens())
                          : 0;
    r.layer["backend.decode.bytes_read_mb"] = be.bytesRead() / (1024 * 1024);
    r.layer["backend.decode.tick_share"] =
        enclosing_busy_ms > 0 ? c.busyMs() / enclosing_busy_ms : 0;
}

void
LayerTotals::add(const TimedClient& c)
{
    const auto merge = [](CallStats& into, const CallStats& from) {
        into.count += from.count;
        into.busy_ns += from.busy_ns;
        into.durations_us.insert(into.durations_us.end(),
                                 from.durations_us.begin(),
                                 from.durations_us.end());
    };
    merge(ticks, c.ticks());
    merge(submits, c.submits());
}

void
addServingLayers(Result& r, const LayerTotals& totals,
                 const TimedBackend& backend)
{
    const CallStats& t = totals.ticks;
    r.layer["serving.tick.count"] = static_cast<double>(t.count);
    r.layer["serving.tick.busy_ms"] = t.busyMs();
    r.layer["serving.tick.p50_us"] = nearestRank(t.durations_us, 50);
    r.layer["serving.tick.p99_us"] = nearestRank(t.durations_us, 99);
    r.layer["serving.submit.busy_ms"] = totals.submits.busyMs();
    addBackendLayers(r, backend, t.busyMs());
    r.layer["serving.tick.self_ms"] = t.busyMs() - backend.calls().busyMs();
}

} // namespace perfbench
