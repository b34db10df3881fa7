/**
 * @file
 * Tests for the network front end: wire-protocol round trips and
 * malformed-frame rejection, the incremental stream API's byte-equality
 * with batch drains (engine and cluster), and loopback integration —
 * concurrent clients whose streamed digests match an in-process run,
 * slow-reader backpressure with bounded server buffering, mid-stream
 * CANCEL, typed error frames, busy shedding at the admission cap,
 * graceful drain under load, an accept landing in the same poll round as
 * a pending read, and wall-clock delivery: no stream waits on a delayed
 * ACK, and a first token does not wait for its pump round to end.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"

#include "gpusim/arch.h"
#include "model/model_config.h"
#include "serving/client.h"
#include "serving/engine.h"
#include "serving/metrics.h"
#include "serving/request.h"

#include "invalid_requests.h"

namespace bitdec {
namespace {

using serving::EngineConfig;
using serving::Request;
using serving::RequestState;
using serving::ServingMetrics;
using serving::TokenEvent;

/** Tiny engine with the reference backend so both output_hash and
 *  attn_hash are live in every digest comparison. */
EngineConfig
netTinyConfig(int num_pages = 64)
{
    EngineConfig cfg;
    cfg.system = model::SystemKind::BitDecoding;
    cfg.bits = 4;
    cfg.page_size = 8;
    cfg.num_pages = num_pages;
    cfg.cache_head_dim = 4;
    cfg.sched.max_batch = 8;
    cfg.sched.prefill_chunk_tokens = 16;
    cfg.backend = "reference";
    return cfg;
}

/** Workload request; ids start at 1 (0 is the wire sentinel). */
Request
workload(int id, int prompt, int output, std::uint64_t prefix = 0,
         int prefix_tokens = 0)
{
    Request r;
    r.id = id;
    r.arrival_s = 0.01 * id;
    r.prompt_tokens = prompt;
    r.output_tokens = output;
    r.prefix_id = prefix;
    r.prefix_tokens = prefix_tokens;
    return r;
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

// ---------------------------------------------------------- protocol ----

/** Strips the 5-byte frame header (u32 length + u8 type). */
std::string
payloadOf(const std::string& frame)
{
    EXPECT_GE(frame.size(), 5u);
    return frame.substr(5);
}

TEST(NetProtocol, SubmitRoundTripsEveryField)
{
    net::SubmitMsg m;
    m.id = 42;
    m.arrival_s = 1.25;
    m.prompt_tokens = 100;
    m.output_tokens = 16;
    m.prefix_id = 0xDEADBEEFCAFEull;
    m.prefix_tokens = 32;
    m.priority = -3;
    m.idle_after_tokens = 5;
    m.idle_wake_s = 2.5;
    m.deadline_s = 9.75;
    m.backend = "fused-paged";

    net::SubmitMsg out;
    ASSERT_TRUE(net::decodeSubmit(payloadOf(net::encodeSubmit(m)), out));
    EXPECT_EQ(out.id, 42);
    EXPECT_DOUBLE_EQ(out.arrival_s, 1.25);
    EXPECT_EQ(out.prompt_tokens, 100);
    EXPECT_EQ(out.output_tokens, 16);
    EXPECT_EQ(out.prefix_id, 0xDEADBEEFCAFEull);
    EXPECT_EQ(out.prefix_tokens, 32);
    EXPECT_EQ(out.priority, -3);
    EXPECT_EQ(out.idle_after_tokens, 5);
    EXPECT_DOUBLE_EQ(out.idle_wake_s, 2.5);
    EXPECT_DOUBLE_EQ(out.deadline_s, 9.75);
    EXPECT_EQ(out.backend, "fused-paged");
}

TEST(NetProtocol, ServerFramesRoundTrip)
{
    net::HelloMsg h;
    h.backend = "reference";
    h.page_size = 8;
    h.cache_head_dim = 4;
    h.shards = 4;
    net::HelloMsg h2;
    ASSERT_TRUE(net::decodeHello(payloadOf(net::encodeHello(h)), h2));
    EXPECT_EQ(h2.version, net::kProtocolVersion);
    EXPECT_EQ(h2.backend, "reference");
    EXPECT_EQ(h2.page_size, 8);
    EXPECT_EQ(h2.cache_head_dim, 4);
    EXPECT_EQ(h2.shards, 4);

    net::TokenMsg t;
    t.request_id = 7;
    t.index = 3;
    t.fold = 0x1234567890ABCDEFull;
    t.output_hash = 0xFEDCBA0987654321ull;
    t.clock_s = 0.625;
    net::TokenMsg t2;
    ASSERT_TRUE(net::decodeToken(payloadOf(net::encodeToken(t)), t2));
    EXPECT_EQ(t2.request_id, 7);
    EXPECT_EQ(t2.index, 3);
    EXPECT_EQ(t2.fold, 0x1234567890ABCDEFull);
    EXPECT_EQ(t2.output_hash, 0xFEDCBA0987654321ull);
    EXPECT_DOUBLE_EQ(t2.clock_s, 0.625);

    net::DoneMsg d;
    d.request_id = 9;
    d.finished = 1;
    d.cancel_cause = 0;
    d.generated = 12;
    d.output_hash = 0xAAull;
    d.attn_hash = 0xBBull;
    d.first_token_s = 0.5;
    d.finish_s = 1.5;
    net::DoneMsg d2;
    ASSERT_TRUE(net::decodeDone(payloadOf(net::encodeDone(d)), d2));
    EXPECT_EQ(d2.request_id, 9);
    EXPECT_EQ(d2.finished, 1);
    EXPECT_EQ(d2.generated, 12);
    EXPECT_EQ(d2.output_hash, 0xAAull);
    EXPECT_EQ(d2.attn_hash, 0xBBull);

    net::ErrorMsg e;
    e.request_id = 5;
    e.code = net::ErrorCode::OverCapacity;
    e.message = "can never fit";
    net::ErrorMsg e2;
    ASSERT_TRUE(net::decodeError(payloadOf(net::encodeError(e)), e2));
    EXPECT_EQ(e2.request_id, 5);
    EXPECT_EQ(e2.code, net::ErrorCode::OverCapacity);
    EXPECT_EQ(e2.message, "can never fit");

    std::int32_t id = 0;
    ASSERT_TRUE(
        net::decodeSubmitOk(payloadOf(net::encodeSubmitOk(31)), id));
    EXPECT_EQ(id, 31);
    ASSERT_TRUE(net::decodeCancel(payloadOf(net::encodeCancel(17)), id));
    EXPECT_EQ(id, 17);
}

TEST(NetProtocol, DecodersRejectTruncatedAndTrailingBytes)
{
    net::SubmitMsg m;
    m.id = 1;
    m.prompt_tokens = 8;
    m.output_tokens = 4;
    m.backend = "reference";
    const std::string good = payloadOf(net::encodeSubmit(m));

    net::SubmitMsg out;
    ASSERT_TRUE(net::decodeSubmit(good, out));
    // Every truncation point must be rejected, not mis-parsed.
    for (std::size_t cut = 0; cut < good.size(); cut++)
        EXPECT_FALSE(net::decodeSubmit(good.substr(0, cut), out))
            << "truncated at " << cut;
    // Trailing garbage is rejected too (complete() catches it).
    EXPECT_FALSE(net::decodeSubmit(good + "x", out));

    // A string length that lies about the remaining bytes fails safely.
    net::WireWriter w;
    w.i32(1);
    w.u32(0xFFFFFF); // claims a 16 MiB string with no bytes behind it
    net::ErrorMsg e;
    EXPECT_FALSE(net::decodeError(w.bytes(), e));
}

TEST(NetProtocol, AssemblerReassemblesSplitFramesAndRejectsOversized)
{
    const std::string frame =
        net::encodeFrame(net::FrameType::Stats, "");
    const std::string frame2 = net::encodeSubmitOk(3);

    // Byte-by-byte delivery: nothing pops until the last byte lands.
    net::FrameAssembler as;
    net::FrameType type;
    std::string payload;
    const std::string both = frame + frame2;
    for (std::size_t i = 0; i + 1 < frame.size(); i++) {
        as.feed(both.data() + i, 1);
        EXPECT_FALSE(as.next(type, payload));
    }
    as.feed(both.data() + frame.size() - 1, both.size() - frame.size() + 1);
    ASSERT_TRUE(as.next(type, payload));
    EXPECT_EQ(type, net::FrameType::Stats);
    EXPECT_TRUE(payload.empty());
    ASSERT_TRUE(as.next(type, payload));
    EXPECT_EQ(type, net::FrameType::SubmitOk);
    EXPECT_FALSE(as.next(type, payload));
    EXPECT_FALSE(as.bad());

    // A length prefix over the cap poisons the stream permanently: the
    // peer must drop the connection, not allocate.
    net::FrameAssembler poisoned;
    net::WireWriter w;
    w.u32(net::kMaxFrameBytes + 1);
    w.u8(static_cast<std::uint8_t>(net::FrameType::Submit));
    poisoned.feed(w.bytes().data(), w.bytes().size());
    EXPECT_FALSE(poisoned.next(type, payload));
    EXPECT_TRUE(poisoned.bad());
    poisoned.feed(frame.data(), frame.size());
    EXPECT_FALSE(poisoned.next(type, payload));
    EXPECT_TRUE(poisoned.bad());
}

// -------------------------------------------------------- stream api ----

/** Pumps a trace through the stream API by hand and folds every
 *  TokenEvent, per request, exactly as a wire client would. */
ServingMetrics
streamRun(serving::ServingClient& client, const std::vector<Request>& trace,
          std::map<int, std::uint64_t>& folded,
          std::map<int, int>& token_counts)
{
    client.streamBegin([&](const TokenEvent& ev) {
        folded[ev.request_id] =
            net::foldOutputHash(folded[ev.request_id], ev.fold);
        EXPECT_EQ(folded[ev.request_id], ev.output_hash);
        EXPECT_EQ(token_counts[ev.request_id]++, ev.index);
    });
    for (const Request& r : trace)
        client.streamSubmit(r);
    while (client.streamTick()) {
    }
    return client.streamEnd();
}

TEST(NetStream, EngineStreamMatchesBatchByteForByte)
{
    // The batch path is now implemented on top of the stream API; this
    // pins the equivalence from the outside: same trace, same digests,
    // same serialized metrics — and the TokenEvent folds reproduce each
    // request's final output_hash, which is what TOKEN frames carry.
    std::vector<Request> trace;
    for (int i = 1; i <= 8; i++)
        trace.push_back(workload(i, 24 + 8 * (i % 3), 6 + i % 4,
                                 0xF00ull + i % 2, 8));

    auto batch = serving::makeServingClient(
        sim::archA100(), model::llama2_7b(), netTinyConfig(), 1);
    for (const Request& r : trace)
        batch->submit(r);
    const ServingMetrics mb = batch->drain();

    auto stream = serving::makeServingClient(
        sim::archA100(), model::llama2_7b(), netTinyConfig(), 1);
    std::map<int, std::uint64_t> folded;
    std::map<int, int> token_counts;
    const ServingMetrics ms = streamRun(*stream, trace, folded,
                                        token_counts);

    EXPECT_EQ(mb.outputs_digest, ms.outputs_digest);
    EXPECT_EQ(mb.toJson(), ms.toJson());
    for (const Request& q : trace) {
        const Request* a = batch->poll(q.id);
        const Request* b = stream->poll(q.id);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(a->output_hash, b->output_hash);
        ASSERT_NE(a->attn_hash, 0u);
        EXPECT_EQ(a->attn_hash, b->attn_hash);
        EXPECT_EQ(folded[q.id], b->output_hash);
        EXPECT_EQ(token_counts[q.id], b->generated);
    }
}

TEST(NetStream, ClusterStreamMatchesBatchAcrossShards)
{
    std::vector<Request> trace;
    for (int i = 1; i <= 10; i++)
        trace.push_back(workload(i, 32, 8,
                                 0xD15C0ull + static_cast<std::uint64_t>(
                                                  i % 3),
                                 16));

    auto batch = serving::makeServingClient(
        sim::archA100(), model::llama2_7b(), netTinyConfig(), 4);
    for (const Request& r : trace)
        batch->submit(r);
    const ServingMetrics mb = batch->drain();

    auto stream = serving::makeServingClient(
        sim::archA100(), model::llama2_7b(), netTinyConfig(), 4);
    std::map<int, std::uint64_t> folded;
    std::map<int, int> token_counts;
    const ServingMetrics ms = streamRun(*stream, trace, folded,
                                        token_counts);

    EXPECT_EQ(mb.outputs_digest, ms.outputs_digest);
    EXPECT_EQ(mb.toJson(), ms.toJson());
    for (const Request& q : trace) {
        const Request* a = batch->poll(q.id);
        const Request* b = stream->poll(q.id);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(a->output_hash, b->output_hash);
        EXPECT_EQ(a->attn_hash, b->attn_hash);
        EXPECT_EQ(folded[q.id], b->output_hash);
    }
}

// ---------------------------------------------------------- loopback ----

/** A Server on an ephemeral loopback port, pumped by its own thread. */
class LoopbackServer
{
  public:
    explicit LoopbackServer(const EngineConfig& cfg, int shards = 1,
                            net::ServerConfig sc = {})
    {
        sc.port = 0;
        sc.honor_signal_drain = false; // tests drain explicitly
        client_ = serving::makeServingClient(sim::archA100(),
                                             model::llama2_7b(), cfg,
                                             shards);
        net::ServerInfo info;
        info.backend = cfg.backend;
        info.page_size = cfg.page_size;
        info.cache_head_dim = cfg.cache_head_dim;
        info.shards = shards;
        server_ = std::make_unique<net::Server>(*client_, sc, info);
        thread_ = std::thread([this] { metrics_ = server_->run(); });
    }

    ~LoopbackServer() { stop(); }

    /** Drains the server and returns its final metrics. */
    ServingMetrics stop()
    {
        if (thread_.joinable()) {
            server_->requestDrain();
            thread_.join();
        }
        return metrics_;
    }

    int port() const { return server_->port(); }
    const net::Server& server() const { return *server_; }
    void requestDrain() { server_->requestDrain(); }

  private:
    std::unique_ptr<serving::ServingClient> client_;
    std::unique_ptr<net::Server> server_;
    std::thread thread_;
    ServingMetrics metrics_;
};

TEST(NetLoopback, ConcurrentClientsDigestMatchInProcess)
{
    // Acceptance: N concurrent wire clients over a sharded server see
    // per-request digests byte-identical to the same trace run through
    // an in-process ServingClient — the socket layer adds no entropy.
    std::vector<Request> trace;
    for (int i = 1; i <= 12; i++)
        trace.push_back(workload(i, 40, 6 + i % 5,
                                 0xFACEull + static_cast<std::uint64_t>(
                                                 i % 3),
                                 16));

    LoopbackServer lb(netTinyConfig(), 2);

    constexpr int kClients = 4;
    std::mutex mu;
    std::map<int, net::DoneMsg> done;
    bool stream_bad = false;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; c++)
        threads.emplace_back([&, c] {
            net::NetClient nc;
            ASSERT_TRUE(nc.connect("127.0.0.1", lb.port()));
            std::vector<int> mine;
            for (std::size_t i = static_cast<std::size_t>(c);
                 i < trace.size(); i += kClients) {
                ASSERT_TRUE(nc.submit(toSubmit(trace[i])));
                mine.push_back(trace[i].id);
            }
            std::size_t remaining = mine.size();
            net::NetEvent ev;
            while (remaining > 0) {
                ASSERT_TRUE(nc.readEvent(ev));
                ASSERT_NE(ev.type, net::FrameType::Error)
                    << ev.error.message;
                if (ev.type != net::FrameType::Done)
                    continue;
                std::lock_guard<std::mutex> lock(mu);
                done[ev.request_id] = ev.done;
                if (!nc.streamDigestOk(ev.request_id))
                    stream_bad = true;
                remaining--;
            }
            // STATS works mid-session and returns the metrics JSON.
            if (c == 0) {
                ASSERT_TRUE(nc.requestStats());
                while (nc.readEvent(ev))
                    if (ev.type == net::FrameType::StatsJson)
                        break;
                ASSERT_EQ(ev.type, net::FrameType::StatsJson);
                EXPECT_NE(ev.stats_json.find("\"num_requests\""),
                          std::string::npos);
            }
        });
    for (std::thread& t : threads)
        t.join();

    EXPECT_FALSE(stream_bad) << "lost or reordered TOKEN frames";
    ASSERT_EQ(done.size(), trace.size());

    // The in-process twin, same engine shape and shard count.
    auto local = serving::makeServingClient(
        sim::archA100(), model::llama2_7b(), netTinyConfig(), 2);
    for (const Request& r : trace)
        local->submit(r);
    local->drain();
    for (const Request& r : trace) {
        const net::DoneMsg& d = done.at(r.id);
        const Request* l = local->poll(r.id);
        ASSERT_NE(l, nullptr);
        EXPECT_EQ(l->state, RequestState::Finished);
        EXPECT_EQ(d.finished, 1);
        EXPECT_EQ(d.generated, l->generated);
        EXPECT_EQ(d.output_hash, l->output_hash) << "request " << r.id;
        ASSERT_NE(l->attn_hash, 0u);
        EXPECT_EQ(d.attn_hash, l->attn_hash) << "request " << r.id;
    }

    const ServingMetrics m = lb.stop();
    EXPECT_EQ(m.num_requests, static_cast<int>(trace.size()));
}

TEST(NetLoopback, SlowReaderBackpressureBoundsServerBuffering)
{
    // A reader that naps between frames must not grow the server's
    // write queue without bound: the pump pauses at the watermark and
    // resumes as the reader drains, so the high-water mark stays within
    // the limit plus at most one tick's worth of frames.
    constexpr std::size_t kLimit = 1024;
    net::ServerConfig sc;
    sc.write_buffer_limit = kLimit;
    LoopbackServer lb(netTinyConfig(), 1, sc);

    std::vector<Request> trace;
    for (int i = 1; i <= 4; i++)
        trace.push_back(workload(i, 16, 64));

    net::NetClient nc;
    ASSERT_TRUE(nc.connect("127.0.0.1", lb.port()));
    for (const Request& r : trace)
        ASSERT_TRUE(nc.submit(toSubmit(r)));

    std::size_t remaining = trace.size();
    net::NetEvent ev;
    while (remaining > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_TRUE(nc.readEvent(ev));
        ASSERT_NE(ev.type, net::FrameType::Error) << ev.error.message;
        if (ev.type == net::FrameType::Done)
            remaining--;
    }
    for (const Request& r : trace) {
        EXPECT_TRUE(nc.streamDigestOk(r.id)) << "request " << r.id;
        EXPECT_EQ(nc.tokensReceived(r.id), 64);
    }
    nc.close();

    const ServingMetrics m = lb.stop();
    EXPECT_EQ(m.num_requests, 4);
    // 4 x 64 tokens ~ 12 KiB of TOKEN frames went through a 1 KiB
    // window; unbounded buffering would have peaked near the total.
    EXPECT_LE(lb.server().peakWriteBuffer(), kLimit + kLimit);
}

TEST(NetLoopback, DrainUnderLoadFinishesInFlightAndShedsNew)
{
    LoopbackServer lb(netTinyConfig(), 2);

    net::NetClient nc;
    ASSERT_TRUE(nc.connect("127.0.0.1", lb.port()));
    // Long outputs: the drain must provably overlap live decoding, not
    // win a race against work that finished in the first pump round.
    constexpr int kInFlight = 6;
    for (int i = 1; i <= kInFlight; i++)
        ASSERT_TRUE(nc.submit(toSubmit(workload(i, 24, 250))));

    // Wait for every admission so the drain provably races real work.
    // A fast request may even finish before the last SubmitOk arrives —
    // count DONEs here too so none is silently swallowed.
    int oks = 0, dones = 0;
    net::NetEvent ev;
    while (oks < kInFlight) {
        ASSERT_TRUE(nc.readEvent(ev));
        ASSERT_NE(ev.type, net::FrameType::Error) << ev.error.message;
        if (ev.type == net::FrameType::SubmitOk)
            oks++;
        else if (ev.type == net::FrameType::Done)
            dones++;
    }

    lb.requestDrain();
    ASSERT_TRUE(nc.submit(toSubmit(workload(99, 24, 8))));

    bool shed = false;
    while (dones < kInFlight || !shed) {
        ASSERT_TRUE(nc.readEvent(ev));
        if (ev.type == net::FrameType::Done) {
            EXPECT_EQ(ev.done.finished, 1) << "request " << ev.request_id;
            dones++;
        } else if (ev.type == net::FrameType::Error) {
            EXPECT_EQ(ev.error.code, net::ErrorCode::Draining);
            EXPECT_EQ(ev.request_id, 99);
            shed = true;
        }
    }
    nc.close();

    const ServingMetrics m = lb.stop();
    EXPECT_EQ(m.num_requests, kInFlight); // all in-flight work finished
}

/** Wall milliseconds since @p t0. */
double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

TEST(NetLoopback, MultiRoundStreamsDoNotWaitForDelayedAcks)
{
    // 200 output tokens span at least four pump rounds at the default 64
    // ticks, and each round's TOKEN frames leave as one small send. Under
    // Nagle a send waits while an earlier one is unacknowledged, and the
    // client delays its ACK (40 ms minimum on Linux), so this closed loop
    // would time the ACK timer instead of the engine. Attention is off:
    // delivery does not depend on it, and without it the bound also holds
    // in sanitizer builds, where the reference backend alone takes
    // ~185 ms a request.
    EngineConfig cfg = netTinyConfig();
    cfg.backend.clear();
    LoopbackServer lb(cfg);
    net::NetClient nc;
    ASSERT_TRUE(nc.connect("127.0.0.1", lb.port()));

    std::vector<double> latency_ms;
    for (int id = 1; id <= 9; id++) {
        const auto t0 = std::chrono::steady_clock::now();
        ASSERT_TRUE(nc.submit(toSubmit(workload(id, 32, 200))));
        net::NetEvent ev;
        do {
            ASSERT_TRUE(nc.readEvent(ev));
            ASSERT_NE(ev.type, net::FrameType::Error) << ev.error.message;
        } while (ev.type != net::FrameType::Done);
        latency_ms.push_back(msSince(t0));
        EXPECT_TRUE(nc.streamDigestOk(id)) << "request " << id;
    }
    EXPECT_LT(serving::percentile(latency_ms, 50), 20.0);
}

TEST(NetLoopback, FirstTokenLeavesBeforeTheRoundEnds)
{
    // A pump round long enough to run the whole request: its first token
    // must still go out when the engine produces it, not with the DONE.
    // The request is long enough (~80 ms in an optimized build) that a
    // few ms of scheduling delay under a parallel ctest cannot decide it.
    net::ServerConfig sc;
    sc.ticks_per_round = 1 << 20;
    LoopbackServer lb(netTinyConfig(160), 1, sc);
    net::NetClient nc;
    ASSERT_TRUE(nc.connect("127.0.0.1", lb.port()));

    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(nc.submit(toSubmit(workload(1, 64, 1000))));
    double first_token_ms = -1;
    net::NetEvent ev;
    do {
        ASSERT_TRUE(nc.readEvent(ev));
        ASSERT_NE(ev.type, net::FrameType::Error) << ev.error.message;
        if (ev.type == net::FrameType::Token && ev.token.index == 0)
            first_token_ms = msSince(t0);
    } while (ev.type != net::FrameType::Done);
    const double done_ms = msSince(t0);

    ASSERT_GE(first_token_ms, 0.0);
    EXPECT_LT(first_token_ms, done_ms / 4)
        << "first token at " << first_token_ms << " ms, DONE at " << done_ms
        << " ms";
    EXPECT_TRUE(nc.streamDigestOk(1));
}

// ------------------------------------------------- raw-socket drivers ----

/** A bare TCP connection for byte-level protocol abuse. */
class RawConn
{
  public:
    explicit RawConn(int port, int rcvbuf = 0)
    {
        fd_ = socket(AF_INET, SOCK_STREAM, 0);
        if (rcvbuf > 0) // before connect(), so the TCP window honors it
            setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                       sizeof(rcvbuf));
        sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                               sizeof(addr)) == 0;
    }
    ~RawConn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool connected() const { return connected_; }

    bool sendBytes(const std::string& bytes)
    {
        return send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
               static_cast<ssize_t>(bytes.size());
    }

    /** Blocks for the next frame; false on EOF or poisoned stream. */
    bool readFrame(net::FrameType& type, std::string& payload)
    {
        while (!in_.next(type, payload)) {
            if (in_.bad())
                return false;
            char buf[4096];
            const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
            if (n <= 0)
                return false;
            in_.feed(buf, static_cast<std::size_t>(n));
        }
        return true;
    }

  private:
    int fd_ = -1;
    bool connected_ = false;
    net::FrameAssembler in_;
};

TEST(NetLoopback, MidStreamCancelStopsTheStream)
{
    // Flow control makes the cancel provably land mid-stream: tiny
    // kernel buffers on both ends plus a small write watermark keep the
    // server from running more than a few hundred tokens ahead of what
    // the client has read, and the request wants 2000.
    net::ServerConfig sc;
    sc.write_buffer_limit = 1024;
    sc.so_sndbuf = 4096;
    LoopbackServer lb(netTinyConfig(320), 1, sc);

    RawConn rc(lb.port(), /*rcvbuf=*/4096);
    ASSERT_TRUE(rc.connected());
    net::FrameType type;
    std::string payload;
    ASSERT_TRUE(rc.readFrame(type, payload));
    EXPECT_EQ(type, net::FrameType::Hello);

    constexpr int kOutput = 2000;
    ASSERT_TRUE(rc.sendBytes(
        net::encodeSubmit(toSubmit(workload(1, 32, kOutput)))));

    std::uint64_t folded = 0;
    int tokens = 0;
    bool cancel_sent = false;
    net::DoneMsg done;
    for (;;) {
        ASSERT_TRUE(rc.readFrame(type, payload));
        if (type == net::FrameType::SubmitOk)
            continue;
        if (type == net::FrameType::Token) {
            net::TokenMsg t;
            ASSERT_TRUE(net::decodeToken(payload, t));
            EXPECT_EQ(t.index, tokens);
            folded = net::foldOutputHash(folded, t.fold);
            EXPECT_EQ(folded, t.output_hash);
            tokens++;
            if (!cancel_sent && tokens >= 5) {
                ASSERT_TRUE(rc.sendBytes(net::encodeCancel(1)));
                cancel_sent = true;
            }
            continue;
        }
        ASSERT_EQ(type, net::FrameType::Done);
        ASSERT_TRUE(net::decodeDone(payload, done));
        break;
    }
    ASSERT_TRUE(cancel_sent);
    EXPECT_EQ(done.finished, 0);
    EXPECT_EQ(done.cancel_cause,
              static_cast<std::uint8_t>(serving::CancelCause::Client));
    EXPECT_GE(done.generated, 5);
    EXPECT_LT(done.generated, kOutput);
    // Every generated token arrived before the DONE, and the partial
    // fold reproduces the canceled request's digest.
    EXPECT_EQ(tokens, done.generated);
    EXPECT_EQ(folded, done.output_hash);

    // Canceled requests are excluded from the serving aggregate.
    const ServingMetrics m = lb.stop();
    EXPECT_EQ(m.num_requests, 0);
}

TEST(NetLoopback, MalformedFramesGetTypedErrorThenClose)
{
    LoopbackServer lb(netTinyConfig());
    net::FrameType type;
    std::string payload;

    {
        // A well-framed SUBMIT whose payload is garbage: typed BAD_FRAME
        // error, then the server closes the connection.
        RawConn rc(lb.port());
        ASSERT_TRUE(rc.connected());
        ASSERT_TRUE(rc.readFrame(type, payload));
        EXPECT_EQ(type, net::FrameType::Hello);
        ASSERT_TRUE(rc.sendBytes(
            net::encodeFrame(net::FrameType::Submit, "garbage")));
        ASSERT_TRUE(rc.readFrame(type, payload));
        ASSERT_EQ(type, net::FrameType::Error);
        net::ErrorMsg e;
        ASSERT_TRUE(net::decodeError(payload, e));
        EXPECT_EQ(e.code, net::ErrorCode::BadFrame);
        EXPECT_NE(e.message.find("malformed SUBMIT"), std::string::npos);
        EXPECT_FALSE(rc.readFrame(type, payload)); // EOF: conn dropped
    }
    {
        // An oversized length prefix: the server must reject without
        // allocating and drop the connection.
        RawConn rc(lb.port());
        ASSERT_TRUE(rc.connected());
        ASSERT_TRUE(rc.readFrame(type, payload));
        EXPECT_EQ(type, net::FrameType::Hello);
        net::WireWriter w;
        w.u32(net::kMaxFrameBytes + 1);
        w.u8(static_cast<std::uint8_t>(net::FrameType::Submit));
        ASSERT_TRUE(rc.sendBytes(w.bytes()));
        ASSERT_TRUE(rc.readFrame(type, payload));
        ASSERT_EQ(type, net::FrameType::Error);
        net::ErrorMsg e;
        ASSERT_TRUE(net::decodeError(payload, e));
        EXPECT_EQ(e.code, net::ErrorCode::BadFrame);
        EXPECT_NE(e.message.find("oversized"), std::string::npos);
        EXPECT_FALSE(rc.readFrame(type, payload));
    }
    {
        // An unknown client frame type is equally fatal for the conn.
        RawConn rc(lb.port());
        ASSERT_TRUE(rc.connected());
        ASSERT_TRUE(rc.readFrame(type, payload));
        ASSERT_TRUE(rc.sendBytes(
            net::encodeFrame(static_cast<net::FrameType>(42), "")));
        ASSERT_TRUE(rc.readFrame(type, payload));
        ASSERT_EQ(type, net::FrameType::Error);
        net::ErrorMsg e;
        ASSERT_TRUE(net::decodeError(payload, e));
        EXPECT_EQ(e.code, net::ErrorCode::BadFrame);
        EXPECT_FALSE(rc.readFrame(type, payload));
    }

    const ServingMetrics m = lb.stop();
    EXPECT_EQ(m.num_requests, 0);
}

TEST(NetLoopback, BusySheddingAtTheAdmissionCap)
{
    net::ServerConfig sc;
    sc.max_inflight = 1;
    LoopbackServer lb(netTinyConfig(), 1, sc);

    // Both SUBMITs in one send() so they land in one read round —
    // the second is shed before the first can possibly finish.
    RawConn rc(lb.port());
    ASSERT_TRUE(rc.connected());
    net::FrameType type;
    std::string payload;
    ASSERT_TRUE(rc.readFrame(type, payload));
    EXPECT_EQ(type, net::FrameType::Hello);
    ASSERT_TRUE(
        rc.sendBytes(net::encodeSubmit(toSubmit(workload(1, 16, 200))) +
                     net::encodeSubmit(toSubmit(workload(2, 16, 8)))));

    ASSERT_TRUE(rc.readFrame(type, payload));
    ASSERT_EQ(type, net::FrameType::SubmitOk);
    std::int32_t id = 0;
    ASSERT_TRUE(net::decodeSubmitOk(payload, id));
    EXPECT_EQ(id, 1);

    ASSERT_TRUE(rc.readFrame(type, payload));
    ASSERT_EQ(type, net::FrameType::Error);
    net::ErrorMsg e;
    ASSERT_TRUE(net::decodeError(payload, e));
    EXPECT_EQ(e.code, net::ErrorCode::Busy);
    EXPECT_EQ(e.request_id, 2);
    EXPECT_NE(e.message.find("admission cap"), std::string::npos);

    // Free the slot; the canceled request still gets its DONE.
    ASSERT_TRUE(rc.sendBytes(net::encodeCancel(1)));
    do {
        ASSERT_TRUE(rc.readFrame(type, payload));
    } while (type == net::FrameType::Token);
    ASSERT_EQ(type, net::FrameType::Done);

    lb.stop();
    EXPECT_EQ(lb.server().busyRejections(), 1);
}

/**
 * Forwards to a real client, except that its first streamTick() parks
 * until release(): the server thread then sits inside pump(), so socket
 * events the test causes meanwhile are all pending at the next poll.
 */
class GatedClient final : public serving::ServingClient
{
  public:
    explicit GatedClient(std::unique_ptr<serving::ServingClient> inner)
        : inner_(std::move(inner))
    {
    }

    /** Blocks until the server thread is parked in its first tick. */
    void waitParked()
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return parked_; });
    }

    /** Lets the parked tick (and every later one) run. */
    void release()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            open_ = true;
        }
        cv_.notify_all();
    }

    bool streamTick() override
    {
        {
            std::unique_lock<std::mutex> lock(mu_);
            parked_ = true;
            cv_.notify_all();
            cv_.wait(lock, [this] { return open_; });
        }
        return inner_->streamTick();
    }

    int submit(const Request& r) override { return inner_->submit(r); }
    const Request* poll(int id) const override { return inner_->poll(id); }
    bool cancel(int id) override { return inner_->cancel(id); }
    ServingMetrics drain() override { return inner_->drain(); }
    serving::ClientStats stats() const override { return inner_->stats(); }
    std::string admissionError(const Request& r) const override
    {
        return inner_->admissionError(r);
    }
    void streamBegin(serving::TokenSink sink) override
    {
        inner_->streamBegin(std::move(sink));
    }
    int streamSubmit(const Request& r) override
    {
        return inner_->streamSubmit(r);
    }
    bool streamCancel(int id) override { return inner_->streamCancel(id); }
    bool streamIdle() const override { return inner_->streamIdle(); }
    double streamClock() const override { return inner_->streamClock(); }
    ServingMetrics streamSnapshot() const override
    {
        return inner_->streamSnapshot();
    }
    ServingMetrics streamEnd() override { return inner_->streamEnd(); }

  private:
    std::unique_ptr<serving::ServingClient> inner_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool parked_ = false;
    bool open_ = false;
};

TEST(NetLoopback, AcceptAndPendingReadInOnePollRound)
{
    // A connection arriving in the same poll round as a readable one:
    // acceptNew() appends it to the connection list, and the read loop
    // must walk only the connections that were polled (the new one has
    // no pollfd yet). The sanitizer job turns a walk past the pollfds
    // into a heap-buffer-overflow.
    GatedClient gate(serving::makeServingClient(
        sim::archA100(), model::llama2_7b(), netTinyConfig()));
    net::ServerConfig sc;
    sc.honor_signal_drain = false;
    net::ServerInfo info;
    info.backend = netTinyConfig().backend;
    net::Server server(gate, sc, info);
    std::thread pump([&server] { server.run(); });
    struct Stop
    {
        GatedClient& gate;
        net::Server& server;
        std::thread& pump;
        ~Stop()
        {
            gate.release();
            server.requestDrain();
            pump.join();
        }
    } stop{gate, server, pump};

    net::FrameType type;
    std::string payload;
    RawConn a(server.port());
    ASSERT_TRUE(a.connected());
    ASSERT_TRUE(a.readFrame(type, payload));
    EXPECT_EQ(type, net::FrameType::Hello);
    ASSERT_TRUE(a.sendBytes(net::encodeSubmit(toSubmit(workload(1, 16, 4)))));
    gate.waitParked(); // the server is in pump(), not in poll()

    RawConn b(server.port()); // queued on the listen socket
    ASSERT_TRUE(b.connected());
    ASSERT_TRUE(a.sendBytes(net::encodeStats())); // pending on a
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.release();

    // One round accepts b and reads a: b gets its HELLO, a its STATS
    // reply, and a's request still streams to its DONE.
    ASSERT_TRUE(b.readFrame(type, payload));
    EXPECT_EQ(type, net::FrameType::Hello);
    bool stats = false;
    bool done = false;
    while (!(stats && done)) {
        ASSERT_TRUE(a.readFrame(type, payload));
        stats = stats || type == net::FrameType::StatsJson;
        done = done || type == net::FrameType::Done;
    }
}

TEST(NetLoopback, TypedErrorFramesForBadSubmitsAndCancels)
{
    LoopbackServer lb(netTinyConfig()); // pool: 64 pages of 8 tokens

    net::NetClient nc;
    ASSERT_TRUE(nc.connect("127.0.0.1", lb.port()));

    net::SubmitMsg bad_backend = toSubmit(workload(1, 16, 4));
    bad_backend.backend = "definitely-not-a-backend";
    ASSERT_TRUE(nc.submit(bad_backend));

    net::SubmitMsg wrong_backend = toSubmit(workload(2, 16, 4));
    wrong_backend.backend = "fused-paged"; // registered, not this server's
    ASSERT_TRUE(nc.submit(wrong_backend));

    ASSERT_TRUE(nc.submit(toSubmit(workload(3, 0, 4))));      // no prompt
    ASSERT_TRUE(nc.submit(toSubmit(workload(4, 100000, 4)))); // never fits
    ASSERT_TRUE(nc.submit(toSubmit(workload(7, 16, 4))));     // admitted
    ASSERT_TRUE(nc.submit(toSubmit(workload(7, 16, 4))));     // duplicate
    ASSERT_TRUE(nc.cancel(99)); // never submitted on this connection

    std::map<std::int32_t, net::ErrorMsg> errors;
    bool done7 = false;
    net::NetEvent ev;
    while (errors.size() < 6 || !done7) {
        ASSERT_TRUE(nc.readEvent(ev));
        if (ev.type == net::FrameType::Error)
            errors[ev.request_id] = ev.error;
        else if (ev.type == net::FrameType::Done && ev.request_id == 7)
            done7 = true;
    }

    EXPECT_EQ(errors.at(1).code, net::ErrorCode::UnknownBackend);
    EXPECT_NE(errors.at(1).message.find(
                  "unknown attention backend 'definitely-not-a-backend'"),
              std::string::npos);
    EXPECT_EQ(errors.at(2).code, net::ErrorCode::InvalidRequest);
    EXPECT_NE(errors.at(2).message.find("cannot serve a request for"),
              std::string::npos);
    EXPECT_EQ(errors.at(3).code, net::ErrorCode::InvalidRequest);
    EXPECT_NE(errors.at(3).message.find("non-empty prompt"),
              std::string::npos);
    EXPECT_EQ(errors.at(4).code, net::ErrorCode::OverCapacity);
    EXPECT_NE(errors.at(4).message.find("can never fit"),
              std::string::npos);
    EXPECT_EQ(errors.at(7).code, net::ErrorCode::DuplicateId);
    EXPECT_NE(errors.at(7).message.find("duplicate request id 7"),
              std::string::npos);
    EXPECT_EQ(errors.at(99).code, net::ErrorCode::UnknownId);
    EXPECT_NE(errors.at(99).message.find("never submitted"),
              std::string::npos);

    const ServingMetrics m = lb.stop();
    EXPECT_EQ(m.num_requests, 1); // only request 7 ran
}

TEST(NetLoopback, BrokenTimesAndTokenCountsAreInvalidAndServingGoesOn)
{
    // Each SUBMIT below once aborted the server (a clock past
    // max_clock_s, a non-finite next-event time, a token sum that wrapped
    // int and then exhausted the pool). Each now gets INVALID_REQUEST, and
    // a valid request sent after it on the same connection finishes.
    LoopbackServer lb(netTinyConfig());
    net::NetClient nc;
    ASSERT_TRUE(nc.connect("127.0.0.1", lb.port()));
    for (const InvalidRequest& bad : invalidRequests()) {
        ASSERT_TRUE(nc.submit(toSubmit(bad.request)));
        net::SubmitMsg good = toSubmit(workload(100 + bad.request.id, 16, 4));
        good.arrival_s = -1; // now
        ASSERT_TRUE(nc.submit(good));
        bool refused = false;
        bool finished = false;
        net::NetEvent ev;
        while (!refused || !finished) {
            ASSERT_TRUE(nc.readEvent(ev));
            if (ev.type == net::FrameType::Error) {
                EXPECT_EQ(ev.request_id, bad.request.id);
                EXPECT_EQ(ev.error.code, net::ErrorCode::InvalidRequest);
                EXPECT_NE(ev.error.message.find(bad.names), std::string::npos)
                    << ev.error.message;
                refused = true;
            } else if (ev.type == net::FrameType::Done) {
                EXPECT_EQ(ev.request_id, good.id);
                EXPECT_NE(ev.done.finished, 0);
                finished = true;
            }
        }
    }
    EXPECT_EQ(lb.stop().num_requests,
              static_cast<int>(invalidRequests().size()));
}

} // namespace
} // namespace bitdec
