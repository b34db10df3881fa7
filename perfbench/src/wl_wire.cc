/**
 * @file
 * wire-chat: the framed TCP server over loopback, driven open-loop.
 *
 * Server: the net::Server over a 4-shard makeServingClient that
 * bitdec_server runs (fused-paged, host+disk tiers, 2048 hot pages per
 * shard), pumped on its own thread. Load: one generator thread
 * multiplexing three connections with ppoll(), sending Poisson arrivals
 * at a fixed wall rate with arrival_s = -1 ("now"). Every request is
 * timed from when it was due, so a stalled generator or server shows up
 * as latency, and the generator's own lateness is reported.
 *
 * Checks: each request's TOKEN stream is folded client-side and must
 * reproduce the DONE output_hash with contiguous indices and the full
 * output budget; afterwards the same requests run in-process through a
 * batch drain() and every request's output_hash and attn_hash must match
 * what came over the wire.
 */
#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <memory>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "backend/registry.h"
#include "cluster/cluster.h"
#include "gpusim/arch.h"
#include "kvcache/tiered_cache.h"
#include "model/model_config.h"
#include "net/protocol.h"
#include "net/server.h"
#include "result.h"
#include "serving/client.h"
#include "spans.h"
#include "timing.h"

namespace perfbench {

using namespace bitdec;

namespace {

constexpr int kShards = 4;
constexpr int kConnections = 3;
//! Offered load, requests per wall second: about half the rate at which
//! the 4-shard server stops keeping up on the calibration host (see
//! perfbench/README.md). The seeded schedule fixes the token count, so
//! tokens_per_s here equals the offered load and only guards against the
//! server falling behind; ttft_* and latency_* are what measure it.
constexpr double kRate = 150.0;

/** bitdec_server's default engine: fused-paged, host+disk tiers. */
serving::EngineConfig
wireShape(const std::string& backend)
{
    serving::EngineConfig cfg = serverShape(backend);
    kv::TierSpec host;
    host.name = "host";
    host.capacity_gb = 8.0;
    kv::TierSpec disk;
    disk.name = "disk";
    disk.capacity_gb = 64.0;
    disk.bandwidth_gbps = 4.0;
    disk.latency_s = 100e-6;
    cfg.tiered.tiers = {host, disk};
    cfg.num_pages = 2048;
    return cfg;
}

/** Owns one client socket; closes it on destruction. */
struct GenConn
{
    int fd = -1;
    net::FrameAssembler in;
    std::string out;

    GenConn() = default;
    GenConn(const GenConn&) = delete;
    GenConn& operator=(const GenConn&) = delete;
    ~GenConn()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

bool
connectLoopback(GenConn& c, int port)
{
    c.fd = socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd < 0)
        return false;
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
        return false;
    const int flags = fcntl(c.fd, F_GETFL, 0);
    return flags >= 0 && fcntl(c.fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Per-request client-side state. */
struct WireState
{
    RequestTiming timing;
    std::uint64_t fold = 0;
    int tokens = 0;
    bool ordered = true;
    bool done = false;
    std::uint64_t output_hash = 0;
    std::uint64_t attn_hash = 0;
};

double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

/** Wire-protocol codec cost: encode and reassemble+decode TOKEN frames. */
void
probeCodec(Result& res)
{
    constexpr int kFrames = 20000;
    net::TokenMsg t;
    t.request_id = 17;
    t.fold = 0x1234567890ABCDEFull;
    t.output_hash = 0xFEDCBA0987654321ull;
    std::string wire;
    const std::int64_t e0 = nowNs();
    for (int i = 0; i < kFrames; i++) {
        t.index = i;
        wire += net::encodeToken(t);
    }
    const std::int64_t e1 = nowNs();
    // Reassemble from 4 KiB reads, as a socket would deliver them.
    net::FrameAssembler fa;
    net::FrameType type;
    std::string payload;
    long decoded = 0;
    for (std::size_t off = 0; off < wire.size(); off += 4096) {
        fa.feed(wire.data() + off, std::min<std::size_t>(4096, wire.size() - off));
        while (fa.next(type, payload))
            decoded += net::decodeToken(payload, t) ? 1 : 0;
    }
    const std::int64_t e2 = nowNs();
    res.layer["net.encode.ns_per_frame"] =
        static_cast<double>(e1 - e0) / kFrames;
    res.layer["net.decode.ns_per_frame"] =
        static_cast<double>(e2 - e1) / kFrames;
    if (decoded != kFrames)
        res.fail("codec probe: decoded " + std::to_string(decoded) + " of " +
                 std::to_string(kFrames) + " frames");
}

/** ns per call of @p fn, averaged over @p reps calls. */
template <typename Fn>
double
nsPerCall(int reps, Fn&& fn)
{
    const std::int64_t t0 = nowNs();
    for (int i = 0; i < reps; i++)
        fn();
    return static_cast<double>(nowNs() - t0) / reps;
}

/**
 * kvcache.checksum / kvcache.ecc: ns per call of the tier pool's public
 * page checksum and ECC syndrome at a @p page_size x @p head_dim page.
 */
void
probeIntegrity(Result& res, int page_size, int head_dim)
{
    const std::size_t halves = static_cast<std::size_t>(page_size * head_dim);
    std::vector<Half> k(halves), v(halves);
    for (std::size_t i = 0; i < halves; i++) {
        k[i] = Half(static_cast<float>(i % 97) * 0.01f);
        v[i] = Half(static_cast<float>(i % 89) * -0.01f);
    }
    // Each call's result perturbs the next input, so no call is dead.
    std::uint64_t sink = 0;
    res.layer["kvcache.checksum.ns_per_page"] = nsPerCall(20000, [&] {
        sink ^= kv::TieredPagePool::pageChecksum(k, v);
        k[sink % halves] = Half(static_cast<float>(sink & 7));
    });
    res.layer["kvcache.ecc.ns_per_page"] = nsPerCall(20000, [&] {
        sink ^= kv::TieredPagePool::pageEcc(k, v).column;
        k[sink % halves] = Half(static_cast<float>(sink & 7));
    });
    res.extra["probe_sink"] = static_cast<double>(sink & 1);
}

} // namespace

Result
runWireChat(const RunOptions& opt)
{
    Result res;
    // p95, not p99: with ~3000 requests a run both supports p99 and sees
    // it move with single host hiccups; p95 tracks the server.
    res.tail_pct = 95;
    const std::vector<WireRequest> schedule =
        wireSchedule(opt.seed, kRate, opt.seconds);
    const std::string plain = "fused-paged";
    serving::EngineConfig cfg = wireShape(plain);
    const TimedBackend* timed_be = nullptr;
    if (opt.traced) {
        timed_be = &timedBackend(plain);
        timed_be->reset();
        cfg.backend = timed_be->name();
    }
    res.info["backend"] = plain;
    res.info["backend_simd_level"] =
        backend::BackendRegistry::instance().resolve(plain).simdLevel();
    res.extra["rate_per_s"] = kRate;

    const sim::GpuArch& arch = sim::archA100();
    const model::ModelConfig& model = model::llama2_7b();
    net::ServerConfig sc;
    sc.port = 0;
    sc.honor_signal_drain = false;
    net::ServerInfo info;
    info.backend = cfg.backend;
    info.page_size = cfg.page_size;
    info.cache_head_dim = cfg.cache_head_dim;
    info.shards = kShards;

    // Set-up: cluster + listening server, several times; keep the last.
    std::unique_ptr<serving::ServingClient> inner;
    std::unique_ptr<TimedClient> timed;
    std::unique_ptr<net::Server> server;
    while (res.setup_s.size() < kMinSetupSamples) {
        server.reset();
        timed.reset();
        inner.reset();
        const std::int64_t s0 = nowNs();
        inner = serving::makeServingClient(arch, model, cfg, kShards);
        if (opt.traced)
            timed = std::make_unique<TimedClient>(*inner);
        serving::ServingClient& client =
            timed ? static_cast<serving::ServingClient&>(*timed) : *inner;
        server = std::make_unique<net::Server>(client, sc, info);
        res.setup_s.push_back(secondsBetween(s0, nowNs()));
    }

    // Generator bookkeeping is sized up front, so peak_rss_mb counts the
    // server and its cluster, not the per-request timestamps.
    std::vector<WireState> st(schedule.size());
    for (std::size_t i = 0; i < schedule.size(); i++)
        st[i].timing.token_ns.reserve(
            static_cast<std::size_t>(schedule[i].req.output_tokens));
    std::vector<double> lag_ms;
    lag_ms.reserve(schedule.size());
    res.extra["peak_rss_reset"] = resetPeakRss() ? 1 : 0;

    double server_cpu_ms = 0;
    serving::ServingMetrics final_metrics;
    const double cpu0 = processCpuSeconds();
    std::thread server_thread([&] {
        final_metrics = server->run();
        server_cpu_ms = threadCpuMs();
    });

    GenConn conns[kConnections];
    bool connected = true;
    for (GenConn& c : conns)
        connected = connected && connectLoopback(c, server->port());
    if (!connected)
        res.fail(std::string("cannot connect to the loopback server: ") +
                     std::strerror(errno),
                 static_cast<long>(schedule.size()));

    long frames_in = 0;
    double bytes_in = 0;
    std::size_t next = 0;
    long inflight = 0;
    const std::int64_t start = nowNs() + 20'000'000; // after HELLOs land
    const std::int64_t give_up =
        start + static_cast<std::int64_t>((opt.seconds + 60.0) * 1e9);
    std::int64_t last_done = start;

    const auto handle = [&](net::FrameType type, const std::string& payload,
                            std::int64_t now) {
        frames_in++;
        bytes_in += static_cast<double>(payload.size() + 5);
        switch (type) {
        case net::FrameType::Token: {
            net::TokenMsg t;
            if (!net::decodeToken(payload, t) || t.request_id < 1 ||
                static_cast<std::size_t>(t.request_id) > st.size()) {
                res.fail("malformed TOKEN frame");
                return;
            }
            WireState& w = st[static_cast<std::size_t>(t.request_id - 1)];
            w.ordered = w.ordered && t.index == w.tokens;
            w.tokens++;
            w.fold = net::foldOutputHash(w.fold, t.fold);
            w.timing.token_ns.push_back(now);
            return;
        }
        case net::FrameType::Done: {
            net::DoneMsg d;
            if (!net::decodeDone(payload, d) || d.request_id < 1 ||
                static_cast<std::size_t>(d.request_id) > st.size()) {
                res.fail("malformed DONE frame");
                return;
            }
            const std::size_t i = static_cast<std::size_t>(d.request_id - 1);
            WireState& w = st[i];
            w.done = true;
            w.timing.done_ns = now;
            w.output_hash = d.output_hash;
            w.attn_hash = d.attn_hash;
            inflight--;
            last_done = now;
            if (!d.finished || !w.ordered || w.fold != d.output_hash ||
                d.generated != schedule[i].req.output_tokens ||
                w.tokens != d.generated)
                res.fail("request " + std::to_string(d.request_id) +
                         ": token stream does not fold to its DONE frame");
            return;
        }
        case net::FrameType::Error: {
            net::ErrorMsg e;
            net::decodeError(payload, e);
            res.fail("request " + std::to_string(e.request_id) + " refused: " +
                     net::toString(e.code) + " " + e.message);
            if (e.request_id >= 1 &&
                static_cast<std::size_t>(e.request_id) <= st.size() &&
                !st[static_cast<std::size_t>(e.request_id - 1)].done) {
                st[static_cast<std::size_t>(e.request_id - 1)].done = true;
                inflight--;
            }
            return;
        }
        default:
            return; // HELLO, SUBMIT_OK
        }
    };

    while (connected) {
        std::int64_t now = nowNs();
        while (next < schedule.size() &&
               start + static_cast<std::int64_t>(schedule[next].due_s * 1e9) <=
                   now) {
            const WireRequest& w = schedule[next];
            net::SubmitMsg m;
            m.id = w.req.id;
            m.arrival_s = -1;
            m.prompt_tokens = w.req.prompt_tokens;
            m.output_tokens = w.req.output_tokens;
            m.prefix_id = w.req.prefix_id;
            m.prefix_tokens = w.req.prefix_tokens;
            const std::int64_t due =
                start + static_cast<std::int64_t>(w.due_s * 1e9);
            st[next].timing.due_ns = due;
            lag_ms.push_back(static_cast<double>(now - due) * 1e-6);
            conns[next % kConnections].out += net::encodeSubmit(m);
            SpanLog::instance().record("net.gen.submit", due, now, m.id);
            next++;
            inflight++;
        }
        if (next == schedule.size() && inflight == 0)
            break;
        if (now > give_up) {
            res.fail("wire run did not finish within its deadline", inflight);
            break;
        }

        pollfd fds[kConnections];
        for (int i = 0; i < kConnections; i++)
            fds[i] = {conns[i].fd,
                      static_cast<short>(POLLIN |
                                         (conns[i].out.empty() ? 0 : POLLOUT)),
                      0};
        std::int64_t wait_ns = 20'000'000;
        if (next < schedule.size())
            wait_ns = std::min<std::int64_t>(
                wait_ns, std::max<std::int64_t>(
                             0, start +
                                    static_cast<std::int64_t>(
                                        schedule[next].due_s * 1e9) -
                                    now));
        const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                          static_cast<long>(wait_ns % 1'000'000'000)};
        ppoll(fds, kConnections, &ts, nullptr);

        for (int i = 0; i < kConnections; i++) {
            GenConn& c = conns[i];
            if (fds[i].revents & POLLOUT) {
                const ssize_t n =
                    send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
                if (n > 0)
                    c.out.erase(0, static_cast<std::size_t>(n));
            }
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
                char buf[65536];
                for (;;) {
                    const ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
                    if (n <= 0)
                        break;
                    c.in.feed(buf, static_cast<std::size_t>(n));
                }
                now = nowNs();
                net::FrameType type;
                std::string payload;
                while (c.in.next(type, payload))
                    handle(type, payload, now);
            }
            if (!c.out.empty()) { // opportunistic write without waiting
                const ssize_t n =
                    send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
                if (n > 0)
                    c.out.erase(0, static_cast<std::size_t>(n));
            }
        }
    }

    server->requestDrain();
    server_thread.join();
    const double cpu_s = processCpuSeconds() - cpu0;
    const double wall_s = secondsBetween(start, nowNs());
    res.peak_rss_mb = peakRssMb();

    // One unit: the whole schedule (open loop; latency is what it
    // measures, and a stall shows up in the due-time latencies).
    Unit unit;
    unit.wall_s = secondsBetween(start, last_done);
    for (const WireState& w : st)
        if (w.done)
            addSamples(w.timing, unit.samples);
    res.units.push_back(std::move(unit));
    res.attempted = static_cast<long>(schedule.size());

    // Server and cluster figures; then both go before the reference
    // cluster is built.
    res.layer["net.peak_write_buffer_bytes"] =
        static_cast<double>(server->peakWriteBuffer());
    res.layer["net.busy_rejections"] =
        static_cast<double>(server->busyRejections());
    if (const auto* cl = dynamic_cast<const cluster::Cluster*>(inner.get())) {
        const cluster::RouterStats& rs = cl->clusterMetrics().router;
        res.layer["cluster.router.sticky_share"] =
            rs.routed > 0 ? static_cast<double>(rs.sticky_hits) /
                                static_cast<double>(rs.routed)
                          : 0;
        res.layer["cluster.router.rebalances"] =
            static_cast<double>(rs.rebalances);
    }
    if (opt.traced) {
        LayerTotals totals;
        totals.add(*timed);
        addServingLayers(res, totals, *timed_be);
        res.layer["net.server.cpu_ms"] = server_cpu_ms;
        // Framing, polling and socket work. Wall-timed ticks include any
        // time the thread was descheduled, so when that work is small the
        // difference can dip below zero; it is floored there.
        res.layer["net.self_ms"] =
            std::max(0.0, server_cpu_ms - totals.ticks.busyMs() -
                              totals.submits.busyMs());
    }
    server.reset();
    timed.reset();
    inner.reset();

    // Reference: the same requests through an in-process batch drain().
    {
        auto ref = serving::makeServingClient(arch, model, wireShape(plain),
                                              kShards);
        for (const WireRequest& w : schedule) {
            serving::Request r = w.req;
            r.arrival_s = 0;
            ref->submit(r);
        }
        ref->drain();
        for (std::size_t i = 0; i < schedule.size(); i++) {
            const serving::Request* p = ref->poll(schedule[i].req.id);
            if (!st[i].done || !connected)
                continue; // already counted
            if (p == nullptr ||
                p->state != serving::RequestState::Finished ||
                p->output_hash != st[i].output_hash ||
                p->attn_hash != st[i].attn_hash)
                res.fail("request " + std::to_string(schedule[i].req.id) +
                         ": wire digests differ from the in-process run");
        }
    }

    const Summary lag = summarize(lag_ms);
    res.extra["gen_lag_p50_ms"] = lag.p50;
    res.extra["gen_lag_tail_ms"] = lag.tail;
    res.extra["gen_lag_max_ms"] = nearestRank(lag_ms, 100);
    res.layer["net.gen.lag_p99_ms"] = nearestRank(lag_ms, 99);
    res.layer["net.gen.lag_max_ms"] = nearestRank(lag_ms, 100);
    res.layer["net.frames_out"] = static_cast<double>(frames_in);
    res.layer["net.bytes_out"] = bytes_in;
    res.layer["proc.cpu_util"] = wall_s > 0 ? cpu_s / wall_s : 0;
    res.layer["sim.tokens_per_s"] = final_metrics.sustained_tokens_per_s;
    res.layer["sim.ttft_p99_s"] = final_metrics.ttft_p99_s;
    res.layer["kvcache.pool.peak_util"] = final_metrics.peak_page_utilization;
    res.layer["kvcache.prefix.hit_rate"] = final_metrics.prefix_hit_rate;
    res.layer["kvcache.cow_copies"] =
        static_cast<double>(final_metrics.cow_copies);
    res.layer["serving.preemptions"] =
        static_cast<double>(final_metrics.preemptions);
    res.layer["serving.decode_batch.mean"] = final_metrics.avg_decode_batch;
    if (opt.traced) {
        probeCodec(res);
        probeIntegrity(res, cfg.page_size, cfg.cache_head_dim);
    }
    return res;
}

} // namespace perfbench
