/**
 * @file
 * Outside-in layer timing: wrappers that time calls into a layer's
 * public functions without touching the layer.
 *
 *  - TimedClient decorates a serving::ServingClient and times
 *    streamTick / streamSubmit. net::Server takes a ServingClient&, so the
 *    same decorator also times the engine behind the wire.
 *  - TimedBackend is an AttentionBackend registered from the benchmark
 *    (BackendRegistry::add) that forwards to a named backend and times
 *    every decodeStep, counting items, KV tokens and the bytes the step
 *    reads (computed from tensor sizes).
 *
 * Both forward everything else unchanged, so capabilities, plans and
 * digests are the wrapped object's own — the traced run checks this by
 * comparing its digests against an unwrapped reference run.
 */
#ifndef PERFBENCH_TIMING_H
#define PERFBENCH_TIMING_H

#include <cstdint>
#include <string>
#include <vector>

#include "backend/attention_backend.h"
#include "serving/client.h"

namespace perfbench {

/** Busy-time counters of one timed entry point. */
struct CallStats
{
    long count = 0;
    std::int64_t busy_ns = 0;
    std::vector<double> durations_us; //!< one sample per call

    void add(std::int64_t ns);
    double busyMs() const { return static_cast<double>(busy_ns) * 1e-6; }
};

/** ServingClient decorator timing the stream pump. */
class TimedClient final : public bitdec::serving::ServingClient
{
  public:
    /** @param inner the client to forward to (not owned) */
    explicit TimedClient(bitdec::serving::ServingClient& inner);

    int submit(const bitdec::serving::Request& r) override;
    const bitdec::serving::Request* poll(int id) const override;
    bool cancel(int id) override;
    bitdec::serving::ServingMetrics drain() override;
    bitdec::serving::ClientStats stats() const override;

    std::string admissionError(const bitdec::serving::Request& r) const override;
    void streamBegin(bitdec::serving::TokenSink sink = {}) override;
    int streamSubmit(const bitdec::serving::Request& r) override;
    bool streamCancel(int id) override;
    bool streamTick() override;
    bool streamIdle() const override;
    double streamClock() const override;
    bitdec::serving::ServingMetrics streamSnapshot() const override;
    bitdec::serving::ServingMetrics streamEnd() override;

    const CallStats& ticks() const { return ticks_; }
    const CallStats& submits() const { return submits_; }

  private:
    bitdec::serving::ServingClient& inner_;
    CallStats ticks_;
    CallStats submits_;
};

/** Timing twin of a registered backend. */
class TimedBackend final : public bitdec::backend::AttentionBackend
{
  public:
    explicit TimedBackend(const bitdec::backend::AttentionBackend& inner);

    const char* name() const override { return name_.c_str(); }
    bitdec::backend::BackendCapabilities capabilities() const override;
    bool available() const override;
    std::string unavailableReason() const override;
    const char* simdLevel() const override;
    bitdec::backend::DecodePlan
    plan(const bitdec::attn::DecodeShape& shape) const override;
    std::vector<bitdec::Tensor<float>>
    decodeStep(const bitdec::backend::DecodeBatch& batch) const override;

    // Counters (single caller thread: the engine or decode loop).
    const CallStats& calls() const { return calls_; }
    long items() const { return items_; }
    long kvTokens() const { return kv_tokens_; }
    double bytesRead() const { return bytes_read_; }

    /** Zeroes the counters (between timed phases). */
    void reset() const;

  private:
    const bitdec::backend::AttentionBackend& inner_;
    std::string name_;
    mutable CallStats calls_;
    mutable long items_ = 0;
    mutable long kv_tokens_ = 0;
    mutable double bytes_read_ = 0;
};

/** Registry name of the timing twin of backend @p inner. */
std::string timedName(const std::string& inner);

/**
 * Registers (once per process) and returns the timing twin of the
 * registered backend @p inner.
 */
const TimedBackend& timedBackend(const std::string& inner);

} // namespace perfbench

#endif // PERFBENCH_TIMING_H
