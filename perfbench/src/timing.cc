#include "timing.h"

#include <map>
#include <memory>

#include "backend/registry.h"
#include "kvcache/kv_cache.h"
#include "kvcache/paged_cache.h"
#include "spans.h"

namespace perfbench {

using namespace bitdec;

void
CallStats::add(std::int64_t ns)
{
    count++;
    busy_ns += ns;
    durations_us.push_back(static_cast<double>(ns) * 1e-3);
}

// ------------------------------------------------------------ TimedClient

TimedClient::TimedClient(serving::ServingClient& inner) : inner_(inner) {}

int
TimedClient::submit(const serving::Request& r)
{
    return inner_.submit(r);
}

const serving::Request*
TimedClient::poll(int id) const
{
    return inner_.poll(id);
}

bool
TimedClient::cancel(int id)
{
    return inner_.cancel(id);
}

serving::ServingMetrics
TimedClient::drain()
{
    return inner_.drain();
}

serving::ClientStats
TimedClient::stats() const
{
    return inner_.stats();
}

std::string
TimedClient::admissionError(const serving::Request& r) const
{
    return inner_.admissionError(r);
}

void
TimedClient::streamBegin(serving::TokenSink sink)
{
    inner_.streamBegin(std::move(sink));
}

int
TimedClient::streamSubmit(const serving::Request& r)
{
    ScopedSpan span("serving.submit", r.id);
    const std::int64_t t0 = nowNs();
    const int id = inner_.streamSubmit(r);
    submits_.add(nowNs() - t0);
    return id;
}

bool
TimedClient::streamCancel(int id)
{
    return inner_.streamCancel(id);
}

bool
TimedClient::streamTick()
{
    std::int64_t ns = 0;
    bool more = false;
    {
        ScopedSpan span("serving.tick");
        const std::int64_t t0 = nowNs();
        more = inner_.streamTick();
        ns = nowNs() - t0;
    }
    ticks_.add(ns);
    return more;
}

bool
TimedClient::streamIdle() const
{
    return inner_.streamIdle();
}

double
TimedClient::streamClock() const
{
    return inner_.streamClock();
}

serving::ServingMetrics
TimedClient::streamSnapshot() const
{
    return inner_.streamSnapshot();
}

serving::ServingMetrics
TimedClient::streamEnd()
{
    return inner_.streamEnd();
}

// ----------------------------------------------------------- TimedBackend

std::string
timedName(const std::string& inner)
{
    return "perfbench-timed-" + inner;
}

TimedBackend::TimedBackend(const backend::AttentionBackend& inner)
    : inner_(inner), name_(timedName(inner.name()))
{
}

backend::BackendCapabilities
TimedBackend::capabilities() const
{
    return inner_.capabilities();
}

bool
TimedBackend::available() const
{
    return inner_.available();
}

std::string
TimedBackend::unavailableReason() const
{
    return inner_.unavailableReason();
}

const char*
TimedBackend::simdLevel() const
{
    return inner_.simdLevel();
}

backend::DecodePlan
TimedBackend::plan(const attn::DecodeShape& shape) const
{
    return inner_.plan(shape);
}

namespace {

/** KV tokens and bytes one decode item reads, from tensor sizes. */
void
itemFootprint(const backend::DecodeItem& item, long& kv_tokens, double& bytes)
{
    // K and V rows of FP16 for the FP16 bindings; the packed cache reports
    // its own device footprint (packed words + metadata + FP16 residual).
    if (item.paged != nullptr) {
        const long len = item.paged->length(item.seq);
        kv_tokens += len;
        bytes += 2.0 * 2.0 * static_cast<double>(len) *
                 static_cast<double>(item.paged->headDim());
    } else if (item.packed != nullptr) {
        kv_tokens += item.packed->length();
        bytes += item.packed->deviceBytes();
    } else if (item.fp16 != nullptr) {
        const long len = item.fp16->length();
        kv_tokens += len;
        bytes += 2.0 * 2.0 * static_cast<double>(len) *
                 static_cast<double>(item.fp16->headDim());
    }
}

} // namespace

std::vector<Tensor<float>>
TimedBackend::decodeStep(const backend::DecodeBatch& batch) const
{
    for (const backend::DecodeItem& item : batch.items)
        itemFootprint(item, kv_tokens_, bytes_read_);
    items_ += static_cast<long>(batch.items.size());
    ScopedSpan span("backend.decode");
    const std::int64_t t0 = nowNs();
    std::vector<Tensor<float>> out = inner_.decodeStep(batch);
    calls_.add(nowNs() - t0);
    return out;
}

void
TimedBackend::reset() const
{
    calls_ = {};
    items_ = 0;
    kv_tokens_ = 0;
    bytes_read_ = 0;
}

const TimedBackend&
timedBackend(const std::string& inner)
{
    static std::map<std::string, const TimedBackend*> made;
    const auto it = made.find(inner);
    if (it != made.end())
        return *it->second;
    auto& reg = backend::BackendRegistry::instance();
    auto owned = std::make_unique<TimedBackend>(reg.resolve(inner));
    const TimedBackend* raw = owned.get();
    reg.add(std::move(owned));
    made.emplace(inner, raw);
    return *raw;
}

} // namespace perfbench
