/**
 * @file
 * The socket front end: a single-threaded poll loop that pumps a
 * ServingClient stream between rounds of network I/O.
 *
 * One acceptor + worker: non-blocking sockets, POSIX poll(), one
 * connection per client speaking the framed protocol (protocol.h).
 * Between poll rounds the loop advances the engine's virtual clock with
 * ServingClient::streamTick(); the token sink routes each TokenEvent to
 * its connection's write queue as a TOKEN frame. Because the socket
 * layer is only a driver over the deterministic stream API, the
 * per-request digests a client receives are byte-identical to the same
 * trace run through an in-process ServingClient.
 *
 * Backpressure: write queues are bounded (ServerConfig::
 * write_buffer_limit). While any connection with unread output sits
 * over the limit the pump pauses — the engine's clock is shared, so
 * pausing one request means pausing the tick — and resumes as soon as
 * the slow reader drains; the per-connection overshoot is at most one
 * tick's worth of token frames, never unbounded. New SUBMITs beyond the
 * admission cap (max_inflight) are shed with a typed BUSY error.
 *
 * Drain: requestDrain() (or SIGINT/SIGTERM via net/drain.h) stops the
 * acceptor, rejects further SUBMITs with DRAINING, finishes every
 * in-flight request, flushes all streams and returns the final
 * metrics.
 */
#ifndef BITDEC_NET_SERVER_H
#define BITDEC_NET_SERVER_H

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/protocol.h"
#include "serving/client.h"

namespace bitdec::net {

/** Socket/backpressure knobs of one Server. */
struct ServerConfig
{
    std::string bind_host = "127.0.0.1"; //!< loopback unless told otherwise
    int port = 0;                        //!< 0 = ephemeral (see port())
    int backlog = 64;
    //! Admission cap: SUBMITs beyond this many in-flight requests get a
    //! typed BUSY error instead of a queue slot.
    int max_inflight = 64;
    //! Per-connection write-queue watermark: the pump pauses while any
    //! connection's unsent bytes sit at or above this.
    std::size_t write_buffer_limit = 256 * 1024;
    //! Kernel send-buffer size (SO_SNDBUF) for accepted sockets; 0 keeps
    //! the OS default. Together with write_buffer_limit this bounds the
    //! total memory a slow reader can pin per connection.
    int so_sndbuf = 0;
    //! Most engine ticks between poll rounds (pump granularity); a round
    //! also ends after a tick that produced some request's first token.
    int ticks_per_round = 64;
    //! Poll timeout while idle (ms); 0 while there is work to pump.
    int poll_interval_ms = 20;
    //! Also honor the process-wide SIGINT/SIGTERM drain flag.
    bool honor_signal_drain = true;
};

/** Engine shape advertised in the HELLO frame (what a client needs to
 *  reproduce digests in-process). */
struct ServerInfo
{
    std::string backend;
    int page_size = 0;
    int cache_head_dim = 0;
    int shards = 1;
};

/** The server. Owns the listen socket; borrows the ServingClient. */
class Server
{
  public:
    Server(serving::ServingClient& client, const ServerConfig& cfg,
           const ServerInfo& info);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /** The bound port (resolves an ephemeral request). */
    int port() const { return port_; }

    /** Thread-safe drain trigger: the poll loop notices it within one
     *  poll interval and begins a graceful shutdown. */
    void requestDrain() { drain_.store(true, std::memory_order_relaxed); }

    /**
     * Runs accept/read/pump/write rounds until a drain completes:
     * every in-flight request finished, every stream flushed. Returns
     * the final stream metrics (the in-process drain() equivalent).
     */
    serving::ServingMetrics run();

    /** High-water mark of any connection's write queue, in bytes —
     *  the backpressure tests assert this stays bounded. */
    std::size_t peakWriteBuffer() const
    {
        return peak_write_buffer_.load(std::memory_order_relaxed);
    }

    /** Requests shed with BUSY since construction. */
    long busyRejections() const { return busy_rejections_; }

  private:
    struct Conn
    {
        int fd = -1;
        FrameAssembler in;
        std::string out;                  //!< bytes awaiting the socket
        std::unordered_set<int> live;     //!< this conn's in-flight ids
        std::unordered_set<int> owned;    //!< every id ever submitted here
        bool closing = false;             //!< flush out, then close
    };

    void acceptNew();
    void readFrom(Conn& c);
    void handleFrame(Conn& c, FrameType type, const std::string& payload);
    void handleSubmit(Conn& c, const std::string& payload);
    void sendError(Conn& c, std::int32_t id, ErrorCode code,
                   const std::string& message);
    void enqueue(Conn& c, const std::string& bytes);
    void flush(Conn& c);
    void pump();
    void emitFinished();
    void dropConn(std::size_t idx);
    bool overWatermark() const;
    bool drainingNow() const;

    serving::ServingClient& client_;
    ServerConfig cfg_;
    ServerInfo info_;
    int listen_fd_ = -1;
    int port_ = 0;
    std::atomic<bool> drain_{false};
    std::vector<std::unique_ptr<Conn>> conns_;
    //! In-flight request id -> connection; its size is the admission
    //! count that max_inflight caps.
    std::unordered_map<int, Conn*> conn_of_;
    //! The current pump round queued a request's first TOKEN frame.
    bool first_token_queued_ = false;
    long busy_rejections_ = 0;
    std::atomic<std::size_t> peak_write_buffer_{0};
};

} // namespace bitdec::net

#endif // BITDEC_NET_SERVER_H
