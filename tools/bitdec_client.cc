/**
 * @file
 * bitdec_client: drives a bitdec_server over the wire and proves the
 * stream honest.
 *
 * Opens --clients concurrent connections, shards a deterministic trace
 * across them (round-robin), streams every request's tokens back and
 * folds them into the per-request output digest. One client can read
 * deliberately slowly (--slow-client/--slow-ms) to exercise the
 * server's backpressure; one request can be canceled mid-stream
 * (--cancel-after-tokens: client 0's first request, given a 1024-token
 * output budget so it outlasts the pump rounds before the server reads
 * the CANCEL). With --verify-inprocess the same trace runs
 * through an in-process ServingClient built from the HELLO frame's
 * engine shape, and every request's output_hash AND attn_hash must
 * match the wire run byte for byte — the acceptance proof that the
 * socket layer is a pure driver over the deterministic engine.
 *
 * It also prints wall-clock latency as seen from the client, each as a
 * median with its sample count (plus the p95 from 200 samples on): time
 * from sending a SUBMIT to the request's first TOKEN and to its DONE
 * (finished requests only), and the gaps between a request's TOKENs.
 *
 *   bitdec_client --port=9178 --clients=8 --requests=24 \
 *       --slow-client=0 --slow-ms=2 --verify-inprocess
 *
 * Exit codes: 0 = all checks passed, 1 = digest mismatch, lost frames,
 * an unexpected protocol error or a requested cancel that did not land.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gpusim/arch.h"
#include "model/model_config.h"
#include "net/client.h"
#include "serving/client.h"
#include "serving/metrics.h"
#include "serving/options.h"
#include "serving/trace.h"

using namespace bitdec;
using namespace bitdec::serving;

namespace {

struct ClientArgs
{
    std::string host = "127.0.0.1";
    int clients = 4;
    int requests = 16;
    std::uint64_t seed = 7;
    int slow_client = -1; //!< index of the deliberately slow reader
    int slow_ms = 2;      //!< its per-read delay
    int cancel_after_tokens = 0; //!< client 0 cancels its first request
    bool verify_inprocess = false;
    std::string stats_json_path; //!< write a STATS frame here at the end
};

/** Final wire-side record of one request. */
struct WireResult
{
    bool done = false;
    bool finished = false;
    int generated = 0;
    std::uint64_t output_hash = 0;
    std::uint64_t attn_hash = 0;
    bool stream_ok = false; //!< folded TOKEN stream matched DONE digest
    std::string error;      //!< ERROR frame text, if any
};

/** Wall-clock samples of the whole run, in ms. */
struct WallSamples
{
    std::vector<double> ttft;    //!< SUBMIT sent -> first TOKEN
    std::vector<double> latency; //!< SUBMIT sent -> DONE, finished only
    std::vector<double> gap;     //!< between a request's consecutive TOKENs

    void append(const WallSamples& o)
    {
        ttft.insert(ttft.end(), o.ttft.begin(), o.ttft.end());
        latency.insert(latency.end(), o.latency.begin(), o.latency.end());
        gap.insert(gap.end(), o.gap.begin(), o.gap.end());
    }
};

using WallClock = std::chrono::steady_clock;

double
msBetween(WallClock::time_point from, WallClock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

ClientArgs
parseArgs(int argc, char** argv)
{
    ClientArgs a;
    for (int i = 1; i < argc; i++) {
        const char* arg = argv[i];
        if (std::strncmp(arg, "--host=", 7) == 0)
            a.host = arg + 7;
        else if (std::strncmp(arg, "--clients=", 10) == 0)
            a.clients = std::atoi(arg + 10);
        else if (std::strncmp(arg, "--requests=", 11) == 0)
            a.requests = std::atoi(arg + 11);
        else if (std::strncmp(arg, "--seed=", 7) == 0)
            a.seed = std::strtoull(arg + 7, nullptr, 0);
        else if (std::strncmp(arg, "--slow-client=", 14) == 0)
            a.slow_client = std::atoi(arg + 14);
        else if (std::strncmp(arg, "--slow-ms=", 10) == 0)
            a.slow_ms = std::atoi(arg + 10);
        else if (std::strncmp(arg, "--cancel-after-tokens=", 22) == 0)
            a.cancel_after_tokens = std::atoi(arg + 22);
        else if (std::strcmp(arg, "--verify-inprocess") == 0)
            a.verify_inprocess = true;
        else if (std::strncmp(arg, "--stats-json=", 13) == 0)
            a.stats_json_path = arg + 13;
    }
    return a;
}

/** The tool's canonical quick trace: small prompts, fast outputs. */
std::vector<Request>
clientTrace(const ClientArgs& a)
{
    TraceConfig tc;
    tc.seed = a.seed;
    tc.num_requests = a.requests;
    tc.arrival_rate_qps = 4.0;
    tc.prompt_median = 192;
    tc.prompt_min = 64;
    tc.prompt_max = 512;
    tc.output_median = 24;
    tc.output_min = 8;
    tc.output_max = 48;
    std::vector<Request> trace = generateTrace(tc);
    for (Request& r : trace)
        r.id += 1; // id 0 is the protocol's "no request" sentinel
    return trace;
}

net::SubmitMsg
toSubmit(const Request& r)
{
    net::SubmitMsg m;
    m.id = r.id;
    m.arrival_s = r.arrival_s;
    m.prompt_tokens = r.prompt_tokens;
    m.output_tokens = r.output_tokens;
    m.prefix_id = r.prefix_id;
    m.prefix_tokens = r.prefix_tokens;
    m.priority = r.priority;
    m.idle_after_tokens = r.idle_after_tokens;
    m.idle_wake_s = r.idle_wake_s;
    m.deadline_s = r.deadline_s;
    return m;
}

/** One wire client: submit a slice, stream everything back. */
void
runClient(const ClientArgs& a, int index, int port,
          const std::vector<Request>& slice, std::mutex& mu,
          std::map<int, WireResult>& results, WallSamples& wall,
          net::HelloMsg& hello, bool& failed)
{
    net::NetClient nc;
    if (!nc.connect(a.host, port)) {
        std::lock_guard<std::mutex> lock(mu);
        failed = true;
        return;
    }
    if (index == 0) {
        std::lock_guard<std::mutex> lock(mu);
        hello = nc.hello();
    }
    std::unordered_map<int, WallClock::time_point> sent_at, last_token_at;
    WallSamples mine;
    for (const Request& r : slice) {
        sent_at[r.id] = WallClock::now();
        nc.submit(toSubmit(r));
    }

    const int cancel_id =
        (index == 0 && a.cancel_after_tokens > 0 && !slice.empty())
            ? slice.front().id
            : -1;
    bool cancel_sent = false;

    std::size_t remaining = slice.size();
    net::NetEvent ev;
    while (remaining > 0) {
        if (index == a.slow_client && a.slow_ms > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(a.slow_ms));
        if (!nc.readEvent(ev)) {
            std::lock_guard<std::mutex> lock(mu);
            failed = true; // connection died with requests outstanding
            return;
        }
        const WallClock::time_point now = WallClock::now();
        switch (ev.type) {
        case net::FrameType::Token: {
            const auto last = last_token_at.find(ev.request_id);
            if (last == last_token_at.end())
                mine.ttft.push_back(
                    msBetween(sent_at[ev.request_id], now));
            else
                mine.gap.push_back(msBetween(last->second, now));
            last_token_at[ev.request_id] = now;
            if (!cancel_sent && ev.request_id == cancel_id &&
                nc.tokensReceived(cancel_id) >= a.cancel_after_tokens) {
                nc.cancel(cancel_id);
                cancel_sent = true;
            }
            break;
        }
        case net::FrameType::Done: {
            if (ev.done.finished != 0)
                mine.latency.push_back(
                    msBetween(sent_at[ev.request_id], now));
            std::lock_guard<std::mutex> lock(mu);
            WireResult& w = results[ev.request_id];
            w.done = true;
            w.finished = ev.done.finished != 0;
            w.generated = ev.done.generated;
            w.output_hash = ev.done.output_hash;
            w.attn_hash = ev.done.attn_hash;
            w.stream_ok = nc.streamDigestOk(ev.request_id);
            remaining--;
            break;
        }
        case net::FrameType::Error: {
            std::lock_guard<std::mutex> lock(mu);
            results[ev.request_id].error = ev.error.message;
            std::fprintf(stderr, "client %d: ERROR %s for request %d: %s\n",
                         index, net::toString(ev.error.code),
                         ev.request_id, ev.error.message.c_str());
            failed = true;
            remaining--;
            break;
        }
        default:
            break; // SubmitOk / StatsJson
        }
    }
    std::lock_guard<std::mutex> lock(mu);
    wall.append(mine);
}

/** One wall-clock figure: its median and sample count, plus the p95
 *  once 200 samples put ten of them beyond it. Reported, not gated. */
void
printWall(const char* name, const std::vector<double>& ms)
{
    std::printf("bitdec_client: wall %s median %.3f ms", name,
                percentile(ms, 50));
    if (ms.size() >= 200)
        std::printf(", p95 %.3f ms", percentile(ms, 95));
    std::printf(" (n=%zu)\n", ms.size());
}

} // namespace

int
main(int argc, char** argv)
{
    const ServingOptions opts = ServingOptions::parse(argc, argv);
    const ClientArgs a = parseArgs(argc, argv);

    std::vector<Request> trace = clientTrace(a);
    // The cancel target is client 0's first request. Its drawn budget
    // (8-48 tokens) can finish in the round after its first tokens,
    // before the server reads the CANCEL, so it gets a long one.
    const int cancel_id =
        a.cancel_after_tokens > 0 && !trace.empty() ? trace.front().id : -1;
    if (cancel_id >= 0)
        trace.front().output_tokens = 1024;
    std::vector<std::vector<Request>> slices(
        static_cast<std::size_t>(a.clients));
    for (std::size_t i = 0; i < trace.size(); i++)
        slices[i % slices.size()].push_back(trace[i]);

    std::mutex mu;
    std::map<int, WireResult> results;
    WallSamples wall;
    net::HelloMsg hello;
    bool failed = false;

    std::vector<std::thread> threads;
    for (int c = 0; c < a.clients; c++)
        threads.emplace_back([&, c] {
            runClient(a, c, opts.port, slices[static_cast<std::size_t>(c)],
                      mu, results, wall, hello, failed);
        });
    for (std::thread& t : threads)
        t.join();

    if (failed) {
        std::fprintf(stderr, "bitdec_client: wire run failed\n");
        return 1;
    }

    int finished = 0, canceled = 0, stream_bad = 0;
    std::uint64_t wire_digest = 0;
    for (const auto& [id, w] : results) {
        if (!w.stream_ok)
            stream_bad++;
        if (w.finished) {
            finished++;
            wire_digest ^= w.output_hash;
        } else {
            canceled++;
        }
    }
    std::printf("bitdec_client: %d finished, %d canceled over %d "
                "connections; wire digest %016llx\n",
                finished, canceled, a.clients,
                static_cast<unsigned long long>(wire_digest));
    printWall("TTFT", wall.ttft);
    printWall("latency", wall.latency);
    printWall("token gap", wall.gap);
    if (cancel_id >= 0 && results[cancel_id].finished) {
        std::fprintf(stderr,
                     "bitdec_client: request %d finished; the cancel after "
                     "%d tokens did not land\n",
                     cancel_id, a.cancel_after_tokens);
        return 1;
    }
    if (stream_bad > 0) {
        std::fprintf(stderr,
                     "bitdec_client: %d request(s) with lost or "
                     "reordered TOKEN frames\n",
                     stream_bad);
        return 1;
    }

    if (!a.stats_json_path.empty()) {
        net::NetClient nc;
        if (!nc.connect(a.host, opts.port))
            return 1;
        nc.requestStats();
        net::NetEvent ev;
        while (nc.readEvent(ev))
            if (ev.type == net::FrameType::StatsJson)
                break;
        if (ev.type != net::FrameType::StatsJson)
            return 1;
        std::FILE* f = std::fopen(a.stats_json_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n",
                         a.stats_json_path.c_str());
            return 1;
        }
        std::fprintf(f, "%s\n", ev.stats_json.c_str());
        std::fclose(f);
        std::printf("bitdec_client: wrote server stats to %s\n",
                    a.stats_json_path.c_str());
    }

    if (a.verify_inprocess) {
        // Rebuild the digest-relevant engine shape from HELLO and run
        // the identical trace in-process: every finished request's
        // output_hash and attn_hash must match the wire run.
        EngineConfig cfg;
        cfg.page_size = hello.page_size;
        cfg.cache_head_dim = hello.cache_head_dim;
        cfg.backend = hello.backend;
        auto local = makeServingClient(sim::archA100(),
                                       model::llama2_7b(), cfg,
                                       hello.shards > 0 ? hello.shards : 1);
        for (const Request& r : trace)
            local->submit(r);
        local->drain();

        int mismatches = 0;
        for (const auto& [id, w] : results) {
            if (!w.finished)
                continue; // wire-side cancel has no in-process twin
            const Request* l = local->poll(id);
            if (l == nullptr ||
                l->state != RequestState::Finished ||
                l->output_hash != w.output_hash ||
                l->attn_hash != w.attn_hash) {
                mismatches++;
                std::fprintf(stderr,
                             "request %d: wire (out %016llx attn %016llx)"
                             " != in-process\n",
                             id,
                             static_cast<unsigned long long>(
                                 w.output_hash),
                             static_cast<unsigned long long>(w.attn_hash));
            }
        }
        std::printf("bitdec_client: in-process verify %s (%d finished "
                    "requests compared, %d mismatches)\n",
                    mismatches == 0 ? "MATCHES" : "FAILED", finished,
                    mismatches);
        if (mismatches != 0)
            return 1;
    }
    return 0;
}
