/**
 * @file
 * Unified AttentionBackend API tests: registry listing/self-registration,
 * fail-fast resolution (unknown names, duplicate registration, binding
 * mismatches), the cross-backend digest parity sweep, and the engine's
 * backend-by-name configuration.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "attention/reference.h"
#include "backend/harness.h"
#include "backend/registry.h"
#include "exec/fused_attention.h"
#include "exec/simd/dispatch.h"
#include "exec/thread_pool.h"
#include "gpusim/arch.h"
#include "model/model_config.h"
#include "serving/engine.h"
#include "serving/trace.h"
#include "scoped_simd_env.h"

namespace bitdec {
namespace {

using backend::AttentionBackend;
using backend::BackendRegistry;
using backend::DecodeBatch;
using backend::DecodeFixture;
using backend::FixtureConfig;
using exec::simd::Level;

// --------------------------------------------------------- registry -----

TEST(BackendRegistry, ListsEveryBuiltinSorted)
{
    const std::vector<std::string> names = BackendRegistry::instance().names();
    const std::vector<std::string> want = {
        "flash",  "fused-fp16", "fused-packed", "fused-paged",
        "kivi",   "mx",         "qserve",       "reference"};
    EXPECT_EQ(names, want);

    // fusedNames() is the CI perf-gate set: the three hot paths, each of
    // which runs at the host's enabled SIMD level itself.
    const std::vector<std::string> want_fused = {"fused-fp16", "fused-packed",
                                                 "fused-paged"};
    EXPECT_EQ(BackendRegistry::instance().fusedNames(), want_fused);
}

TEST(BackendRegistry, UnknownNameDiesListingRegistered)
{
    EXPECT_DEATH(BackendRegistry::instance().resolve("warp-speed"),
                 "unknown attention backend 'warp-speed'.*fused-paged");
}

TEST(BackendRegistry, FindReturnsNullForUnknown)
{
    EXPECT_EQ(BackendRegistry::instance().find("warp-speed"), nullptr);
    EXPECT_NE(BackendRegistry::instance().find("reference"), nullptr);
}

/** Minimal backend used to probe duplicate registration. */
class ShadowReference : public AttentionBackend
{
  public:
    const char* name() const override { return "reference"; }
    backend::BackendCapabilities capabilities() const override { return {}; }
    std::vector<Tensor<float>> decodeStep(const DecodeBatch&) const override
    {
        return {};
    }
};

TEST(BackendRegistry, DuplicateNameRegistrationDies)
{
    EXPECT_DEATH(BackendRegistry::instance().add(
                     std::make_unique<ShadowReference>()),
                 "'reference' is already registered");
}

// ---------------------------------------------------- binding checks ----

TEST(BackendResolution, BindingMismatchDiesWithClearError)
{
    // A paged cache handed to the contiguous-only fused-packed backend
    // must fail with the backend's name and capability line, not crash.
    auto& reg = BackendRegistry::instance();
    const AttentionBackend& packed = reg.resolve("fused-packed");
    FixtureConfig fc;
    fc.context = 64;
    fc.head_dim = 16;
    fc.gq = 2;
    const DecodeFixture paged_fx(reg.resolve("fused-paged"), fc);
    EXPECT_DEATH(packed.decodeStep(paged_fx.batch()),
                 "backend 'fused-packed' cannot consume a paged-fp16 item");
}

// ------------------------------------------------------------- plans ----

TEST(BackendPlan, ReportsChunkingAndRejectsWrongScenarios)
{
    auto& reg = BackendRegistry::instance();
    attn::DecodeShape shape;
    shape.seq_len = 1000;
    shape.page_size = 64;
    shape.scenario = attn::Scenario::Serving;

    const backend::DecodePlan paged =
        reg.resolve("fused-paged").plan(shape);
    ASSERT_TRUE(paged.supported);
    EXPECT_EQ(paged.kv_chunk, 64);
    EXPECT_EQ(paged.splits, 16); // ceil(1000 / 64)

    const backend::DecodePlan flash = reg.resolve("flash").plan(shape);
    EXPECT_FALSE(flash.supported);
    EXPECT_FALSE(flash.reason.empty());

    shape.scenario = attn::Scenario::Single;
    const backend::DecodePlan flash1 = reg.resolve("flash").plan(shape);
    ASSERT_TRUE(flash1.supported);
    EXPECT_EQ(flash1.splits, 4);

    const backend::DecodePlan f16 = reg.resolve("fused-fp16").plan(shape);
    ASSERT_TRUE(f16.supported);
    EXPECT_EQ(f16.kv_chunk, exec::kChunkTokens);

    // fused-packed chunks by residual blocks, never "one pass".
    const backend::DecodePlan pk = reg.resolve("fused-packed").plan(shape);
    ASSERT_TRUE(pk.supported);
    EXPECT_GT(pk.kv_chunk, 0);
    EXPECT_GT(pk.splits, 1);

    // ... and only over heads its induced layouts can tile.
    shape.head_dim = 4;
    const backend::DecodePlan pk4 = reg.resolve("fused-packed").plan(shape);
    EXPECT_FALSE(pk4.supported);
    EXPECT_NE(pk4.reason.find("head_dim 4"), std::string::npos) << pk4.reason;
    EXPECT_TRUE(reg.resolve("fused-fp16").plan(shape).supported);
}

// ------------------------------------------------ digest parity sweep ---

/**
 * Every backend with a flat-tensor reference must match it to 1e-3 over
 * the same content stream. The sweep enumerates the registry instead of
 * hard-coding names, so a newly registered backend is covered the moment
 * it registers; only `mx` opts out (its cache is built from a different
 * content stream than the flat fixture's).
 */
TEST(BackendParity, AllBackendsMatchReferenceAt1e3)
{
    auto& reg = BackendRegistry::instance();
    FixtureConfig fc;
    // 288 tokens: divisible by the quantization group size (32), but a
    // partial last page (288 % 13 != 0) and a partial fused chunk
    // (288 % 128 != 0), so every path's tail handling is in the sweep.
    fc.context = 288;
    fc.head_dim = 32;
    fc.gq = 4;
    fc.page_size = 13;
    const float scale = 1.0f / std::sqrt(32.0f);

    int swept = 0;
    for (const std::string& name : reg.names()) {
        if (name == "mx")
            continue;
        const AttentionBackend& be = reg.resolve(name);
        const DecodeFixture fx(be, fc);
        DecodeBatch b = fx.batch();
        b.scale = scale;
        const Tensor<float> got = be.decodeStep(b)[0];
        const Tensor<float> want = fx.referenceOutput(scale);
        EXPECT_LT(attn::maxAbsDiff(got, want), 1e-3f) << name;
        swept++;
    }
    EXPECT_EQ(swept, 7);
}

/**
 * Equal chunking must mean equal bytes: at page_size == kChunkTokens the
 * paged and contiguous fused paths partition the KV identically, so
 * their digests over identical content must match bitwise.
 */
TEST(BackendParity, EqualChunkingDigestsAreBitwiseIdentical)
{
    auto& reg = BackendRegistry::instance();
    FixtureConfig fc;
    fc.context = 300; // 2 full chunks + a 44-token partial
    fc.head_dim = 32;
    fc.gq = 4;
    fc.page_size = exec::kChunkTokens;
    const AttentionBackend& fp16 = reg.resolve("fused-fp16");
    const AttentionBackend& paged = reg.resolve("fused-paged");
    const DecodeFixture fx16(fp16, fc);
    const DecodeFixture fxp(paged, fc);

    DecodeBatch b16 = fx16.batch();
    DecodeBatch bp = fxp.batch();
    b16.scale = bp.scale = 0.125f;
    EXPECT_EQ(fp16.digest(b16), paged.digest(bp));
}

TEST(BackendParity, DigestsAreThreadCountInvariant)
{
    auto& reg = BackendRegistry::instance();
    FixtureConfig fc;
    fc.context = 520;
    fc.head_dim = 32;
    fc.gq = 4;
    exec::ThreadPool pool8(8);
    for (const std::string& name : reg.fusedNames()) {
        const AttentionBackend& be = reg.resolve(name);
        const DecodeFixture fx(be, fc);
        DecodeBatch serial = fx.batch();
        serial.scale = 0.125f;
        DecodeBatch parallel = serial;
        parallel.pool = &pool8;
        EXPECT_EQ(be.digest(serial), be.digest(parallel)) << name;
    }
}

// ----------------------------------------------------- engine wiring ----

TEST(EngineBackend, UnknownNameFailsFastAtConstruction)
{
    serving::EngineConfig cfg;
    cfg.num_pages = 64;
    cfg.page_size = 16;
    cfg.backend = "definitely-not-a-backend";
    EXPECT_DEATH(serving::Engine(sim::archA100(), model::llama31_8b(), cfg),
                 "unknown attention backend.*fused-paged");
}

TEST(EngineBackend, NonPagedBackendIsRejectedWithCapabilities)
{
    serving::EngineConfig cfg;
    cfg.num_pages = 64;
    cfg.page_size = 16;
    cfg.backend = "kivi";
    EXPECT_DEATH(serving::Engine(sim::archA100(), model::llama31_8b(), cfg),
                 "backend 'kivi' cannot serve the engine's paged FP16");
}

/** The reference backend also serves pages (gather path): digests agree
 *  with fused-paged runs to the extent the hashes certify content, and
 *  every request gets a nonzero attention hash. */
TEST(EngineBackend, ReferenceBackendServesAsOracle)
{
    serving::EngineConfig cfg;
    cfg.num_pages = 64;
    cfg.page_size = 16;
    cfg.backend = "reference";
    cfg.sched.max_batch = 4;
    serving::TraceConfig tc;
    tc.num_requests = 4;
    tc.arrival_rate_qps = 100.0;
    tc.prompt_median = 20;
    tc.prompt_max = 40;
    tc.output_median = 8;
    tc.output_max = 12;
    std::vector<serving::Request> reqs = serving::generateTrace(tc);
    serving::Engine engine(sim::archA100(), model::llama31_8b(), cfg);
    engine.run(reqs);
    for (const auto& r : reqs)
        EXPECT_NE(r.attn_hash, 0u) << "request " << r.id;
}

/** Serving is byte-identical at every SIMD level and attention pool:
 *  same trace, same per-request attention and output hashes. */
TEST(EngineBackend, ServesByteIdenticallyAtEveryLevelAndPool)
{
    serving::TraceConfig tc;
    tc.num_requests = 4;
    tc.arrival_rate_qps = 100.0;
    tc.prompt_median = 20;
    tc.prompt_max = 40;
    tc.output_median = 8;
    tc.output_max = 12;
    const std::vector<serving::Request> trace = serving::generateTrace(tc);

    const auto hashesWith = [&trace](exec::ThreadPool* pool) {
        serving::EngineConfig cfg;
        cfg.num_pages = 64;
        cfg.page_size = 16;
        cfg.cache_head_dim = 4; // the serving slice's head: token slots
        cfg.backend = "fused-paged";
        cfg.sched.max_batch = 4;
        cfg.pool = pool;
        std::vector<serving::Request> reqs = trace;
        serving::Engine engine(sim::archA100(), model::llama31_8b(), cfg);
        engine.run(reqs);
        std::vector<std::uint64_t> hashes;
        for (const auto& r : reqs) {
            hashes.push_back(r.attn_hash);
            hashes.push_back(r.output_hash);
        }
        return hashes;
    };

    std::vector<std::uint64_t> scalar;
    {
        ScopedSimdEnv env("scalar");
        scalar = hashesWith(nullptr);
    }
    exec::ThreadPool pool1(1);
    exec::ThreadPool pool8(8);
    for (Level l : {Level::Scalar, Level::Avx2, Level::Avx512}) {
        if (!exec::simd::levelSupported(l))
            continue;
        ScopedSimdEnv env(exec::simd::toString(l));
        for (exec::ThreadPool* pool :
             {static_cast<exec::ThreadPool*>(nullptr), &pool1, &pool8})
            EXPECT_EQ(hashesWith(pool), scalar)
                << exec::simd::toString(l) << " threads="
                << (pool ? pool->numThreads() : 0);
    }
}

} // namespace
} // namespace bitdec
