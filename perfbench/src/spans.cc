#include "spans.h"

#include <cstdio>

namespace perfbench {

namespace {

//! Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open;

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

SpanLog&
SpanLog::instance()
{
    static SpanLog log;
    return log;
}

int
SpanLog::open(const char* name, int request)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.request = request;
    s.parent = t_open.empty() ? -1 : t_open.back();
    s.start_ns = nowNs();
    int idx = -1;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (spans_.size() >= kMaxSpans) {
            dropped_++;
            return -1;
        }
        idx = static_cast<int>(spans_.size());
        spans_.push_back(s);
    }
    t_open.push_back(idx);
    return idx;
}

void
SpanLog::close(int idx)
{
    const std::int64_t end = nowNs();
    if (!t_open.empty() && t_open.back() == idx)
        t_open.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(idx)].end_ns = end;
}

void
SpanLog::record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                int request)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= kMaxSpans) {
        dropped_++;
        return;
    }
    Span s;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.request = request;
    spans_.push_back(s);
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool
SpanLog::write(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"dropped\": %ld, "
                    "\"traceEvents\": [\n",
                 dropped_);
    for (std::size_t i = 0; i < spans_.size(); i++) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %zu, \"parent\": %d, \"request\": %d}}",
                     i == 0 ? "" : ",\n", s.name,
                     static_cast<double>(s.start_ns - t0) * 1e-3,
                     static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                     s.parent, s.request);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
