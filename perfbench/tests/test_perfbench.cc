/**
 * @file
 * The benchmark's own tests: percentile rules, seeded generators, the
 * inter-token-latency park rule, and that the timing wrappers forward
 * capabilities, plans and digests unchanged.
 *
 *   ./perfbench_tests        # exit 0 when every check passes
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "backend/harness.h"
#include "backend/registry.h"
#include "gpusim/arch.h"
#include "model/model_config.h"
#include "serving/client.h"
#include "serving/trace.h"
#include "stats.h"
#include "timing.h"
#include "workloads.h"

using namespace perfbench;
using namespace bitdec;

namespace {

int g_failed = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::printf("    check failed: %s (%s:%d)\n", #cond, __FILE__, \
                        __LINE__);                                         \
            g_failed++;                                                    \
        }                                                                  \
    } while (0)

void
testNearestRank()
{
    std::vector<double> xs;
    for (int i = 10; i >= 1; i--)
        xs.push_back(i);
    CHECK(nearestRank(xs, 50) == 5);
    CHECK(nearestRank(xs, 90) == 9);
    CHECK(nearestRank(xs, 91) == 10);
    CHECK(nearestRank(xs, 100) == 10);
    CHECK(nearestRank(xs, 1) == 1);
    CHECK(nearestRank({}, 50) == 0);
    CHECK(nearestRank({7}, 99) == 7);
}

void
testTailRule()
{
    CHECK(samplesBeyond(1000, 99) == 10);
    CHECK(samplesBeyond(999, 99) == 9);
    CHECK(tailPercentile(1000) == 99);
    CHECK(tailPercentile(999) == 95);
    CHECK(tailPercentile(200) == 95);
    CHECK(tailPercentile(199) == 90);
    CHECK(tailPercentile(100) == 90);
    CHECK(tailPercentile(40) == 75);
    CHECK(tailPercentile(20) == 50);
    CHECK(tailPercentile(19) == 100);
    CHECK(tailPercentile(0) == 100);

    std::vector<double> xs;
    for (int i = 1; i <= 200; i++)
        xs.push_back(i);
    const Summary s = summarize(xs);
    CHECK(s.n == 200);
    CHECK(s.p50 == 100);
    CHECK(s.tail_pct == 95);
    CHECK(s.tail == 190);
}

void
testGeneratorsAreSeeded()
{
    const auto a = wireSchedule(7, 150, 3);
    const auto b = wireSchedule(7, 150, 3);
    const auto c = wireSchedule(8, 150, 3);
    CHECK(!a.empty());
    CHECK(a.size() == b.size());
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); i++)
        same = a[i].due_s == b[i].due_s && a[i].req.id == b[i].req.id &&
               a[i].req.prompt_tokens == b[i].req.prompt_tokens &&
               a[i].req.output_tokens == b[i].req.output_tokens &&
               a[i].req.prefix_id == b[i].req.prefix_id;
    CHECK(same);
    bool differs = a.size() != c.size();
    for (std::size_t i = 0; !differs && i < a.size(); i++)
        differs = a[i].due_s != c[i].due_s;
    CHECK(differs);
    for (std::size_t i = 1; i < a.size(); i++)
        CHECK(a[i].due_s >= a[i - 1].due_s);
    for (const WireRequest& w : a) {
        CHECK(w.req.arrival_s < 0);
        CHECK(w.req.prefix_tokens == 2048);
        CHECK(w.req.prompt_tokens > w.req.prefix_tokens);
        CHECK(w.req.output_tokens >= 8 && w.req.output_tokens <= 128);
    }

    const auto x = longctxTrace(3);
    const auto y = longctxTrace(3);
    CHECK(x.size() == y.size());
    for (std::size_t i = 0; i < x.size() && i < y.size(); i++) {
        CHECK(x[i].id == y[i].id);
        CHECK(x[i].arrival_s == y[i].arrival_s);
        CHECK(x[i].prompt_tokens == y[i].prompt_tokens);
        CHECK(x[i].output_tokens == y[i].output_tokens);
        if (i > 0)
            CHECK(x[i].arrival_s >= x[i - 1].arrival_s);
    }
    for (const serving::Request& r : longctxTrace(11)) {
        CHECK(r.prompt_tokens >= 24576 && r.prompt_tokens <= 40960);
        CHECK(r.output_tokens >= 128 && r.output_tokens <= 512);
    }

    // Stratified: exactly one value in each equal slice of the range.
    Rng rng(5);
    std::vector<int> v = stratified(rng, 16, 0, 1600);
    std::vector<int> per_slice(16, 0);
    for (const int x : v)
        per_slice[static_cast<std::size_t>(std::min(x / 100, 15))]++;
    for (const int n : per_slice)
        CHECK(n == 1);

    const auto t1 = lowbitTurns(9, 64);
    const auto t2 = lowbitTurns(9, 64);
    CHECK(t1.size() == 64);
    for (std::size_t i = 0; i < t1.size(); i++) {
        CHECK(t1[i].prompt == t2[i].prompt);
        CHECK(t1[i].output == 3);
    }
    for (std::size_t b = 0; b + 4 <= t1.size(); b += 4) {
        int quarters = 0; // one bit per quarter of [16, 48] seen
        for (std::size_t i = b; i < b + 4; i++)
            quarters |= 1 << std::min((t1[i].prompt - 16) / 8, 3);
        CHECK(quarters == 0b1111);
    }
}

void
testItlSkipsIdlePark()
{
    const std::int64_t ms = 1'000'000;
    RequestTiming t;
    t.due_ns = 0;
    t.idle_after_tokens = 1; // parks after its first token
    t.token_ns = {5 * ms, 60'000 * ms, 60'010 * ms, 60'030 * ms};
    t.done_ns = t.token_ns.back();
    LatencySamples s;
    addSamples(t, s);
    CHECK(s.ttft_ms.size() == 1 && s.ttft_ms[0] == 5);
    CHECK(s.latency_ms.size() == 1 && s.latency_ms[0] == 60'030);
    CHECK(s.itl_ms.size() == 2);
    CHECK(s.itl_ms.size() == 2 && s.itl_ms[0] == 10 && s.itl_ms[1] == 20);
    CHECK(s.tokens == 4);

    RequestTiming plain = t;
    plain.idle_after_tokens = 0; // no park: every gap counts
    LatencySamples p;
    addSamples(plain, p);
    CHECK(p.itl_ms.size() == 3);

    RequestTiming never; // no tokens: no samples at all
    never.due_ns = 0;
    addSamples(never, p);
    CHECK(p.ttft_ms.size() == 1);
}

void
testTimedBackendForwards()
{
    auto& reg = backend::BackendRegistry::instance();
    for (const char* name : {"fused-paged", "fused-packed"}) {
        const backend::AttentionBackend& inner = reg.resolve(name);
        const TimedBackend& timed = timedBackend(name);
        CHECK(&timedBackend(name) == &timed); // registered once
        CHECK(reg.find(timedName(name)) == &timed);
        const auto ci = inner.capabilities();
        const auto ct = timed.capabilities();
        CHECK(ci.bindings == ct.bindings);
        CHECK(ci.cache_kinds == ct.cache_kinds);
        CHECK(ci.quant_formats == ct.quant_formats);
        CHECK(ci.scenarios == ct.scenarios);
        CHECK(ci.fused_hot_path == ct.fused_hot_path);
        CHECK(std::strcmp(inner.simdLevel(), timed.simdLevel()) == 0);

        attn::DecodeShape shape;
        shape.seq_len = 2048;
        shape.scenario = std::strcmp(name, "fused-paged") == 0
                             ? attn::Scenario::Serving
                             : attn::Scenario::Single;
        const backend::DecodePlan pi = inner.plan(shape);
        const backend::DecodePlan pt = timed.plan(shape);
        CHECK(pi.supported == pt.supported);
        CHECK(pi.kv_chunk == pt.kv_chunk);
        CHECK(pi.splits == pt.splits);
        CHECK(pi.chunking == pt.chunking);

        backend::FixtureConfig fc;
        fc.context = 1000;
        const backend::DecodeFixture fx(inner, fc);
        timed.reset();
        CHECK(inner.digest(fx.batch()) == timed.digest(fx.batch()));
        CHECK(timed.calls().count == 1);
        CHECK(timed.items() == 1);
        CHECK(timed.kvTokens() == 1000);
        CHECK(timed.bytesRead() > 0);
    }
}

void
testTimedClientForwards()
{
    const sim::GpuArch& arch = sim::archA100();
    const model::ModelConfig& model = model::llama2_7b();
    serving::EngineConfig cfg = serverShape("fused-paged");
    const std::vector<serving::Request> trace = serving::smokeTrace();

    auto ref = serving::makeServingClient(arch, model, cfg);
    for (const serving::Request& r : trace)
        ref->submit(r);
    const std::string want = ref->drain().toJson();

    serving::EngineConfig tcfg = cfg;
    tcfg.backend = timedBackend("fused-paged").name();
    auto inner = serving::makeServingClient(arch, model, tcfg);
    TimedClient timed(*inner);
    int tokens = 0;
    timed.streamBegin([&](const serving::TokenEvent&) { tokens++; });
    for (const serving::Request& r : trace)
        timed.streamSubmit(r);
    while (timed.streamTick()) {
    }
    const std::string got = timed.streamEnd().toJson();
    CHECK(got == want);
    CHECK(timed.ticks().count > 0);
    CHECK(timed.submits().count == static_cast<long>(trace.size()));
    CHECK(tokens > 0);
    for (const serving::Request& r : trace) {
        const serving::Request* a = ref->poll(r.id);
        const serving::Request* b = timed.poll(r.id);
        CHECK(a != nullptr && b != nullptr);
        if (a != nullptr && b != nullptr) {
            CHECK(a->output_hash == b->output_hash);
            CHECK(a->attn_hash == b->attn_hash);
        }
    }
}

} // namespace

int
main()
{
    const struct
    {
        const char* name;
        void (*fn)();
    } tests[] = {
        {"nearest-rank percentile", testNearestRank},
        {"tail needs >= 10 samples beyond", testTailRule},
        {"generators are seeded", testGeneratorsAreSeeded},
        {"ITL skips idle-park gaps", testItlSkipsIdlePark},
        {"timed backend forwards", testTimedBackendForwards},
        {"timed client forwards", testTimedClientForwards},
    };
    for (const auto& t : tests) {
        const int before = g_failed;
        t.fn();
        std::printf("[%s] %s\n", g_failed == before ? "PASS" : "FAIL", t.name);
    }
    std::printf("%s\n", g_failed == 0 ? "all passed" : "FAILURES");
    return g_failed == 0 ? 0 : 1;
}
