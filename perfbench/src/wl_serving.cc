/**
 * @file
 * In-process serving workload: longctx-decode.
 *
 * Each iteration builds a fresh client (timed as set-up),
 * submits the whole trace through the stream API and ticks until idle —
 * the operation sequence of drain(). The first iteration is a warm-up;
 * every later one is a measured unit. A token is stamped with the wall
 * time at the end of the tick that produced it; a request is due at the
 * start of the first tick whose virtual clock has reached its arrival.
 * After the measured window one batch drain() of the same trace on an
 * unwrapped client is the reference every iteration must equal: each
 * request's output_hash and attn_hash, and the whole metrics JSON (so
 * the virtual clock is checked bit for bit as well). peak_rss_mb covers
 * the measured iterations only: it is read before the reference runs.
 */
#include <memory>
#include <unordered_map>

#include "backend/registry.h"
#include "gpusim/arch.h"
#include "model/model_config.h"
#include "result.h"
#include "serving/client.h"
#include "spans.h"
#include "timing.h"

namespace perfbench {

using namespace bitdec;
using serving::Request;
using serving::ServingClient;
using serving::ServingMetrics;

namespace {

struct StreamOutcome
{
    ServingMetrics metrics;
    std::string metrics_json;
    std::vector<RequestTiming> timing; //!< trace order
    double wall_s = 0;
};

/** Submits @p trace into an open stream and ticks until idle. */
StreamOutcome
runStream(ServingClient& client, const std::vector<Request>& trace)
{
    StreamOutcome out;
    out.timing.resize(trace.size());
    std::unordered_map<int, std::size_t> slot;
    for (std::size_t i = 0; i < trace.size(); i++) {
        slot[trace[i].id] = i;
        out.timing[i].idle_after_tokens = trace[i].idle_after_tokens;
    }
    std::vector<int> produced; // request ids with a token this tick
    client.streamBegin(
        [&](const serving::TokenEvent& ev) { produced.push_back(ev.request_id); });
    for (const Request& r : trace)
        client.streamSubmit(r);

    const std::int64_t t0 = nowNs();
    std::size_t next_due = 0; // trace is sorted by arrival
    for (;;) {
        const double clock = client.streamClock();
        const std::int64_t tick_start = nowNs();
        while (next_due < trace.size() && trace[next_due].arrival_s <= clock)
            out.timing[next_due++].due_ns = tick_start;
        const bool more = client.streamTick();
        const std::int64_t tick_end = nowNs();
        for (const int id : produced) {
            RequestTiming& t = out.timing[slot.at(id)];
            if (t.due_ns < 0) // admitted in the tick that jumped the clock
                t.due_ns = tick_start;
            t.token_ns.push_back(tick_end);
        }
        produced.clear();
        if (!more)
            break;
    }
    out.wall_s = secondsBetween(t0, nowNs());
    out.metrics = client.streamEnd();
    out.metrics_json = out.metrics.toJson();
    for (RequestTiming& t : out.timing)
        if (!t.token_ns.empty())
            t.done_ns = t.token_ns.back();
    return out;
}

/** Per-request digests of a finished run. */
struct Digests
{
    std::unordered_map<int, std::pair<std::uint64_t, std::uint64_t>> hash;
    std::string metrics_json;
};

Digests
collect(const ServingClient& client, const std::vector<Request>& trace,
        const std::string& metrics_json, Result& res, const char* what)
{
    Digests d;
    d.metrics_json = metrics_json;
    for (const Request& r : trace) {
        const Request* p = client.poll(r.id);
        if (p == nullptr || p->state != serving::RequestState::Finished ||
            p->generated != r.output_tokens) {
            res.fail(std::string(what) + ": request " + std::to_string(r.id) +
                     " did not finish its output budget");
            continue;
        }
        d.hash[r.id] = {p->output_hash, p->attn_hash};
    }
    return d;
}

/** Failures of @p got against the reference @p want. */
void
compare(const Digests& got, const Digests& want, Result& res)
{
    for (const auto& [id, h] : want.hash) {
        const auto it = got.hash.find(id);
        if (it != got.hash.end() && it->second != h)
            res.fail("request " + std::to_string(id) +
                     ": output_hash/attn_hash differ from the batch drain()");
    }
    if (got.metrics_json != want.metrics_json)
        res.fail("stream metrics JSON differs from the batch drain() "
                 "(virtual clock or outputs_digest moved)");
}

} // namespace

Result
runLongctxDecode(const RunOptions& opt)
{
    Result res;
    res.tail_pct = 75; // fastest quarter: >= 5 iterations x 8 requests
    const std::vector<Request> trace = longctxTrace(opt.seed);
    const serving::EngineConfig plain_cfg = serverShape("fused-paged");
    const sim::GpuArch& arch = sim::archA100();
    const model::ModelConfig& model = model::llama31_8b();
    const std::string plain = plain_cfg.backend;
    serving::EngineConfig cfg = plain_cfg;
    const TimedBackend* timed_be = nullptr;
    if (opt.traced) {
        timed_be = &timedBackend(plain);
        timed_be->reset();
        cfg.backend = timed_be->name();
    }
    res.info["backend"] = plain;
    res.info["backend_simd_level"] =
        backend::BackendRegistry::instance().resolve(plain).simdLevel();

    // Set-up samples beyond the one each measured iteration takes, so the
    // median rests on enough of them.
    while (res.setup_s.size() < kMinSetupSamples) {
        const std::int64_t s0 = nowNs();
        serving::makeServingClient(arch, model, cfg);
        res.setup_s.push_back(secondsBetween(s0, nowNs()));
    }
    std::vector<Digests> runs;
    ServingMetrics last;
    LayerTotals totals;
    // The first iteration warms caches and the allocator; it is checked
    // but not measured.
    bool warm = false;
    double measured_s = 0;
    res.extra["peak_rss_reset"] = resetPeakRss() ? 1 : 0;
    const double cpu0 = processCpuSeconds();
    const std::int64_t w0 = nowNs();
    while (measured_s < opt.seconds || !warm) {
        const std::int64_t s0 = nowNs();
        auto inner = serving::makeServingClient(arch, model, cfg);
        res.setup_s.push_back(secondsBetween(s0, nowNs()));
        std::unique_ptr<TimedClient> timed;
        if (opt.traced)
            timed = std::make_unique<TimedClient>(*inner);
        ServingClient& client = timed ? *timed : *inner;

        const StreamOutcome o = runStream(client, trace);
        if (warm) {
            measured_s += o.wall_s;
            Unit u;
            u.wall_s = o.wall_s;
            for (const RequestTiming& t : o.timing)
                addSamples(t, u.samples);
            res.units.push_back(std::move(u));
        }
        warm = true;
        res.attempted += static_cast<long>(trace.size());
        runs.push_back(collect(client, trace, o.metrics_json, res,
                               "stream run"));
        last = o.metrics;
        if (timed)
            totals.add(*timed);
    }
    const double cpu_s = processCpuSeconds() - cpu0;
    const double wall_s = secondsBetween(w0, nowNs());
    res.peak_rss_mb = peakRssMb();

    // Reference: batch drain() of the same trace, plain backend, no
    // decorator.
    {
        auto ref = serving::makeServingClient(arch, model, plain_cfg);
        for (const Request& r : trace)
            ref->submit(r);
        const ServingMetrics m = ref->drain();
        Result scratch;
        const Digests want =
            collect(*ref, trace, m.toJson(), scratch, "reference");
        if (scratch.failed > 0)
            res.fail("reference drain() did not finish every request",
                     scratch.failed);
        for (const Digests& d : runs)
            compare(d, want, res);
    }

    res.extra["sim_tokens_per_s"] = last.sustained_tokens_per_s;
    res.extra["sim_ttft_p99_s"] = last.ttft_p99_s;
    res.extra["iterations"] = static_cast<double>(runs.size());
    res.layer["sim.tokens_per_s"] = last.sustained_tokens_per_s;
    res.layer["sim.ttft_p99_s"] = last.ttft_p99_s;
    res.layer["proc.cpu_util"] = wall_s > 0 ? cpu_s / wall_s : 0;
    res.layer["kvcache.pool.peak_util"] = last.peak_page_utilization;
    res.layer["kvcache.prefix.hit_rate"] = last.prefix_hit_rate;
    res.layer["kvcache.cow_copies"] = static_cast<double>(last.cow_copies);
    res.layer["serving.preemptions"] = static_cast<double>(last.preemptions);
    res.layer["serving.decode_batch.mean"] = last.avg_decode_batch;
    if (opt.traced)
        addServingLayers(res, totals, *timed_be);
    return res;
}

} // namespace perfbench
