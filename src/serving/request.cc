#include "serving/request.h"

namespace bitdec::serving {

const char*
toString(RequestState state)
{
    switch (state) {
      case RequestState::Queued:
        return "QUEUED";
      case RequestState::Prefill:
        return "PREFILL";
      case RequestState::Decode:
        return "DECODE";
      case RequestState::Preempted:
        return "PREEMPTED";
      case RequestState::Idle:
        return "IDLE";
      case RequestState::Finished:
        return "FINISHED";
      case RequestState::Canceled:
        return "CANCELED";
    }
    return "unknown";
}

const char*
toString(CancelCause cause)
{
    switch (cause) {
      case CancelCause::None:
        return "none";
      case CancelCause::Deadline:
        return "deadline";
      case CancelCause::Shed:
        return "shed";
      case CancelCause::Client:
        return "client";
    }
    return "unknown";
}

std::uint64_t
streamSeed(std::uint64_t stream_id, int token_index)
{
    // splitmix64 finalizer over the (stream, token) pair.
    std::uint64_t z = stream_id ^ static_cast<std::uint64_t>(token_index);
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
tokenSeed(int request_id, int token_index)
{
    return streamSeed(static_cast<std::uint64_t>(request_id) << 32,
                      token_index);
}

std::uint64_t
contentSeed(const Request& r, int pos)
{
    if (pos < r.prefix_tokens)
        return streamSeed(r.prefix_id * 0x9E3779B97F4A7C15ull, pos);
    return tokenSeed(r.id, pos);
}

} // namespace bitdec::serving
