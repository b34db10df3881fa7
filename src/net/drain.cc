#include "net/drain.h"

#include <atomic>
#include <csignal>

namespace bitdec::net {

namespace {

std::atomic<bool> g_drain{false};

extern "C" void
onDrainSignal(int)
{
    // Async-signal-safe: set the flag, then restore the default
    // disposition so a second signal terminates a stuck drain.
    g_drain.store(true, std::memory_order_relaxed);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
}

} // namespace

void
installDrainSignalHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = onDrainSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // interrupt blocking calls (poll) with EINTR
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

bool
drainRequested()
{
    return g_drain.load(std::memory_order_relaxed);
}

} // namespace bitdec::net
