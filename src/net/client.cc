#include "net/client.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.h"

namespace bitdec::net {

bool
NetClient::connect(const std::string& host, int port, int max_retries,
                   int retry_delay_ms)
{
    close();
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        warn("net: cannot parse host '", host, "'");
        return false;
    }
    for (int attempt = 0;; attempt++) {
        fd_ = socket(AF_INET, SOCK_STREAM, 0);
        BITDEC_ASSERT(fd_ >= 0, "socket() failed: ", std::strerror(errno));
        // A SUBMIT or CANCEL is one small frame the server should see at
        // once, not after Nagle waits for the previous frame's ACK.
        const int one = 1;
        setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0)
            break;
        ::close(fd_);
        fd_ = -1;
        if (attempt >= max_retries) {
            warn("net: cannot connect to ", host, ":", port, " after ",
                 attempt + 1, " attempts: ", std::strerror(errno));
            return false;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(retry_delay_ms));
    }

    NetEvent ev;
    if (!readEvent(ev) || ev.type != FrameType::Hello) {
        warn("net: server did not open with HELLO");
        close();
        return false;
    }
    if (hello_.version != kProtocolVersion) {
        warn("net: protocol version mismatch (server ", hello_.version,
             ", client ", kProtocolVersion, ")");
        close();
        return false;
    }
    return true;
}

void
NetClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
NetClient::sendAll(const std::string& bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            close();
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
NetClient::submit(const SubmitMsg& m)
{
    return connected() && sendAll(encodeSubmit(m));
}

bool
NetClient::cancel(std::int32_t request_id)
{
    return connected() && sendAll(encodeCancel(request_id));
}

bool
NetClient::requestStats()
{
    return connected() && sendAll(encodeStats());
}

bool
NetClient::readEvent(NetEvent& ev)
{
    FrameType type;
    std::string payload;
    while (!in_.next(type, payload)) {
        if (in_.bad() || !connected()) {
            close();
            return false;
        }
        char buf[65536];
        const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            close();
            return false;
        }
        in_.feed(buf, static_cast<std::size_t>(n));
    }

    ev = NetEvent{};
    ev.type = type;
    bool ok = true;
    switch (type) {
    case FrameType::Hello:
        ok = decodeHello(payload, hello_);
        break;
    case FrameType::SubmitOk:
        ok = decodeSubmitOk(payload, ev.request_id);
        break;
    case FrameType::Token:
        ok = decodeToken(payload, ev.token);
        if (ok) {
            ev.request_id = ev.token.request_id;
            Fold& f = folds_[ev.token.request_id];
            f.hash = foldOutputHash(f.hash, ev.token.fold);
            f.tokens++;
            if (ev.token.index != f.next_index)
                f.ordered = false;
            f.next_index = ev.token.index + 1;
        }
        break;
    case FrameType::Done:
        ok = decodeDone(payload, ev.done);
        if (ok) {
            ev.request_id = ev.done.request_id;
            Fold& f = folds_[ev.done.request_id];
            f.done = true;
            f.matches = f.ordered && f.tokens == ev.done.generated &&
                        f.hash == ev.done.output_hash;
        }
        break;
    case FrameType::Error:
        ok = decodeError(payload, ev.error);
        if (ok)
            ev.request_id = ev.error.request_id;
        break;
    case FrameType::StatsJson: {
        WireReader r(payload);
        ev.stats_json = r.str();
        ok = r.complete();
        break;
    }
    default:
        ok = false;
        break;
    }
    if (!ok) {
        warn("net: malformed frame of type ", static_cast<int>(type));
        close();
        return false;
    }
    return true;
}

bool
NetClient::streamDigestOk(std::int32_t request_id) const
{
    const auto it = folds_.find(request_id);
    return it != folds_.end() && it->second.done && it->second.matches;
}

int
NetClient::tokensReceived(std::int32_t request_id) const
{
    const auto it = folds_.find(request_id);
    return it == folds_.end() ? 0 : it->second.tokens;
}

} // namespace bitdec::net
