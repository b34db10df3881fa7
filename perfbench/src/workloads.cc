#include "workloads.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using namespace bitdec;
using serving::Request;

std::vector<int>
stratified(Rng& rng, int n, int lo, int hi)
{
    std::vector<int> out(static_cast<std::size_t>(n));
    const double width = static_cast<double>(hi - lo) / n;
    for (int i = 0; i < n; i++) {
        const double x = lo + width * (i + rng.uniform());
        out[static_cast<std::size_t>(i)] =
            std::clamp(static_cast<int>(std::floor(x)), lo, hi);
    }
    for (int i = n - 1; i > 0; i--) // Fisher-Yates
        std::swap(out[static_cast<std::size_t>(i)],
                  out[rng.uniformInt(static_cast<std::uint64_t>(i) + 1)]);
    return out;
}

std::vector<double>
poissonArrivals(Rng& rng, int n, double rate)
{
    std::vector<double> t(static_cast<std::size_t>(n));
    double now = 0;
    for (int i = 0; i < n; i++) {
        t[static_cast<std::size_t>(i)] = now;
        now += -std::log(1.0 - rng.uniform()) / rate;
    }
    return t;
}

serving::EngineConfig
serverShape(const std::string& backend)
{
    serving::EngineConfig cfg;
    cfg.page_size = 64;
    cfg.cache_head_dim = 4;
    cfg.sched.max_batch = 32;
    cfg.sched.prefill_chunk_tokens = 2048;
    cfg.backend = backend;
    return cfg;
}

std::vector<Request>
longctxTrace(std::uint64_t seed)
{
    constexpr int kRequests = 8;
    Rng rng(seed ^ 0x10C7C7Bull);
    const std::vector<double> arrivals = poissonArrivals(rng, kRequests, 64.0);
    const std::vector<int> prompts = stratified(rng, kRequests, 24576, 40960);
    const std::vector<int> outputs = stratified(rng, kRequests, 128, 512);
    std::vector<Request> trace(kRequests);
    for (int i = 0; i < kRequests; i++) {
        Request& r = trace[static_cast<std::size_t>(i)];
        r.id = i + 1;
        r.arrival_s = arrivals[static_cast<std::size_t>(i)];
        r.prompt_tokens = prompts[static_cast<std::size_t>(i)];
        r.output_tokens = outputs[static_cast<std::size_t>(i)];
    }
    return trace;
}

std::vector<WireRequest>
wireSchedule(std::uint64_t seed, double rate, double seconds)
{
    constexpr int kFamilies = 8;
    constexpr int kSystemPrompt = 2048;
    Rng rng(seed ^ 0x3112Eull);
    std::uint64_t family_id[kFamilies];
    for (std::uint64_t& f : family_id)
        f = rng.next() | 1; // non-zero prefix ids
    std::vector<WireRequest> out;
    double t = 0;
    for (int i = 0;; i++) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= seconds)
            break;
        WireRequest w;
        w.due_s = t;
        w.req.id = i + 1;
        w.req.arrival_s = -1;
        const int fam = static_cast<int>(rng.uniformInt(kFamilies));
        w.req.prefix_id = family_id[fam];
        w.req.prefix_tokens = kSystemPrompt;
        w.req.prompt_tokens =
            kSystemPrompt + 16 + static_cast<int>(rng.uniformInt(241));
        w.req.output_tokens = 8 + static_cast<int>(rng.uniformInt(121));
        out.push_back(w);
    }
    return out;
}

std::vector<Turn>
lowbitTurns(std::uint64_t seed, int n)
{
    // Prompt lengths stratified per block of four turns, so any prefix of
    // the list holds the same mix whatever the seed; a fixed answer length
    // keeps per-turn latency one population.
    constexpr int kBlock = 4;
    Rng rng(seed ^ 0x10B17ull);
    std::vector<Turn> turns;
    while (static_cast<int>(turns.size()) < n) {
        for (const int prompt : stratified(rng, kBlock, 16, 48))
            if (static_cast<int>(turns.size()) < n)
                turns.push_back({prompt, 3});
    }
    return turns;
}

void
addSamples(const RequestTiming& t, LatencySamples& s)
{
    if (t.token_ns.empty() || t.due_ns < 0)
        return;
    const auto ms = [](std::int64_t a, std::int64_t b) {
        return static_cast<double>(b - a) * 1e-6;
    };
    s.ttft_ms.push_back(ms(t.due_ns, t.token_ns.front()));
    s.latency_ms.push_back(
        ms(t.due_ns, t.done_ns >= 0 ? t.done_ns : t.token_ns.back()));
    for (std::size_t i = 1; i < t.token_ns.size(); i++) {
        if (t.idle_after_tokens > 0 &&
            i == static_cast<std::size_t>(t.idle_after_tokens))
            continue; // the gap across an idle park
        s.itl_ms.push_back(ms(t.token_ns[i - 1], t.token_ns[i]));
    }
    s.tokens += static_cast<long>(t.token_ns.size());
}

} // namespace perfbench
