/**
 * @file
 * In-memory span log for traced benchmark runs.
 *
 * A span is one timed call into a layer: name, wall start/end, the span
 * open on the same thread when it began (its parent) and, for wire
 * requests, the request id. Spans stay in memory while the workload runs
 * and are written once, at exit, as Chrome trace-event JSON. Recording
 * is off unless enabled, so the untraced run pays one branch per call.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock since an arbitrary process epoch. */
std::int64_t nowNs();

/** Seconds between two nowNs() readings. */
inline double
secondsBetween(std::int64_t a, std::int64_t b)
{
    return static_cast<double>(b - a) * 1e-9;
}

struct Span
{
    const char* name = ""; //!< static string: layer.operation
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  //!< index of the enclosing span; -1 = root
    int request = -1; //!< request id, -1 when not request-scoped
};

/** Process-wide span log; thread-safe. */
class SpanLog
{
  public:
    static SpanLog& instance();

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Opens a span on the calling thread; -1 when disabled or full. */
    int open(const char* name, int request = -1);
    /** Closes span @p idx (from open) and pops it off the thread's stack. */
    void close(int idx);
    /** Records an already-finished span (no parent tracking). */
    void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                int request = -1);

    std::size_t size() const;

    /** Writes every span as Chrome trace-event JSON; false on I/O error. */
    bool write(const std::string& path) const;

  private:
    SpanLog() = default;

    static constexpr std::size_t kMaxSpans = 400000;

    bool enabled_ = false;
    mutable std::mutex mu_;
    std::vector<Span> spans_; //!< guarded by mu_
    long dropped_ = 0;        //!< guarded by mu_
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char* name, int request = -1)
        : idx_(SpanLog::instance().open(name, request))
    {
    }
    ~ScopedSpan()
    {
        if (idx_ >= 0)
            SpanLog::instance().close(idx_);
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    int idx_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
