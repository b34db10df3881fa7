/**
 * @file
 * CPU hot-path bench: decode-step latency of a registry-resolved
 * attention backend vs the legacy warp/register-emulated Packing Kernel,
 * across context lengths and thread counts. Writes machine-readable
 * BENCH_cpu_hotpath.json so the perf trajectory is tracked across PRs.
 *
 * Modes:
 *   (default)          full sweep: 4K/32K/128K contexts, 1/4/8 threads
 *   --smoke            4K only, one repetition — the CI perf gate
 *   --backend=<name>   backend to sweep (default fused-packed); CI runs
 *                      the smoke gate once per fused backend
 *   --list-backends    capability matrix; =fused prints the gated names
 *
 * The legacy path at 128K is extrapolated linearly from 32K (it is
 * O(context) and already dominates the full-sweep runtime); the JSON
 * marks it "legacy_estimated": true. The legacy kernel is the same
 * baseline for every backend — the gate is a regression tripwire for
 * the registered hot paths, not a like-for-like bandwidth comparison.
 *
 * The full sweep also times `fused-paged` at every SIMD level this host
 * supports (BITDEC_SIMD scoped per level) on a 32K context in 64-token
 * pages: the serving slice's shape (one query row, head_dim 4 and 8) and
 * a model head (gq 8, head_dim 128). It times the packed cache's
 * one-pass block seal the same way, per sealed token at every level and
 * for the kv::packBlock reference chain, at head_dim 128.
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "backend/harness.h"
#include "backend/registry.h"
#include "bench_util.h"
#include "build_commit.h"
#include "common/rng.h"
#include "serving/options.h"
#include "core/bitdecoding.h"
#include "core/packing_kernel.h"
#include "exec/simd/dispatch.h"
#include "exec/thread_pool.h"
#include "kvcache/kv_cache.h"
#include "../tests/scoped_simd_env.h"

namespace bitdec {
namespace {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best-of-N wall time of fn, in milliseconds. */
template <typename Fn>
double
timeMs(int reps, Fn&& fn)
{
    double best = 1e300;
    for (int i = 0; i < reps; i++) {
        const double t0 = nowMs();
        fn();
        best = std::min(best, nowMs() - t0);
    }
    return best;
}

struct ContextResult
{
    backend::Binding binding; //!< cache structure the backend consumed
    int context;
    double legacy_ms;
    bool legacy_estimated;
    double fused_ms_t1;
    double fused_ms_t4;
    double fused_ms_t8;
    double paged_gather_ms; //!< reference backend over pages; -1 = skipped
    double paged_fused_ms;  //!< fused-paged backend, in place
    double scalar_twin_ms;  //!< the backend's scalar baseline; -1 = N/A
    double host_bytes_per_token; //!< packed cache's host bytes; -1 = N/A
};

/** fused-paged at every SIMD level on one 32K shape. */
struct LevelRow
{
    int head_dim;
    int gq;
    double ms[3]; //!< by exec::simd::Level; -1 = unsupported here
};

constexpr int kLevelRowContext = 32768;
constexpr int kLevelRowPage = 64;

std::vector<LevelRow>
runLevelRows()
{
    namespace simd = exec::simd;
    const backend::AttentionBackend& paged =
        backend::BackendRegistry::instance().resolve("fused-paged");
    std::vector<LevelRow> rows;
    for (const auto& [d, gq] : {std::pair{4, 1}, std::pair{8, 1},
                               std::pair{128, 8}}) {
        backend::FixtureConfig fc;
        fc.context = kLevelRowContext;
        fc.head_dim = d;
        fc.gq = gq;
        fc.page_size = kLevelRowPage;
        const backend::DecodeFixture fx(paged, fc);
        backend::DecodeBatch b = fx.batch();
        b.scale = 1.0f / std::sqrt(static_cast<float>(d));
        LevelRow row{d, gq, {-1.0, -1.0, -1.0}};
        for (simd::Level l : {simd::Level::Scalar, simd::Level::Avx2,
                              simd::Level::Avx512}) {
            if (!simd::levelSupported(l))
                continue;
            const ScopedSimdEnv env(simd::toString(l));
            row.ms[static_cast<int>(l)] =
                timeMs(d == 128 ? 3 : 20, [&] { paged.decodeStep(b); });
        }
        rows.push_back(row);
    }
    return rows;
}

/** The packed cache's block seal at every SIMD level, and packBlock. */
struct SealRow
{
    quant::QuantConfig config;
    double ns[3];         //!< per sealed token by exec::simd::Level; -1 = unsupported
    double pack_block_ns; //!< per token through kv::packBlock
};

constexpr int kSealHeadDim = 128;
constexpr int kSealBlocks = 16;

std::vector<SealRow>
runSealRows()
{
    namespace simd = exec::simd;
    std::vector<SealRow> rows;
    for (const auto& [gran, bits] :
         {std::pair{quant::Granularity::ChannelWise, 4},
          std::pair{quant::Granularity::TensorWise, 4},
          std::pair{quant::Granularity::ChannelWise, 2}}) {
        SealRow row{{}, {-1.0, -1.0, -1.0}, 0};
        row.config.bits = bits;
        row.config.key_granularity = gran;
        const layout::WarpTiling tiling;
        const std::size_t d = kSealHeadDim;
        const std::size_t nr =
            static_cast<std::size_t>(layout::residualBlockSize(tiling, bits));
        const std::size_t tokens = kSealBlocks * nr;
        Tensor<Half> k({tokens, d}), v({tokens, d});
        Rng rng(7);
        for (std::size_t i = 0; i < k.numel(); i++) {
            k[i] = Half(rng.uniformRange(-1.f, 1.f));
            v[i] = Half(rng.uniformRange(-1.f, 1.f));
        }
        for (simd::Level l : {simd::Level::Scalar, simd::Level::Avx2,
                              simd::Level::Avx512}) {
            if (!simd::levelSupported(l))
                continue;
            const ScopedSimdEnv env(simd::toString(l));
            double best = 1e300;
            for (int rep = 0; rep < 3; rep++) {
                kv::PackedHeadCache cache(kSealHeadDim, row.config, tiling);
                const double t0 = nowMs();
                cache.prefill(k, v);
                best = std::min(best, nowMs() - t0);
            }
            row.ns[static_cast<int>(l)] = best * 1e6 / tokens;
        }
        const layout::InducedLayout klay(tiling, bits, kSealHeadDim,
                                         static_cast<int>(nr));
        const layout::InducedLayout vlay(tiling, bits, static_cast<int>(nr),
                                         kSealHeadDim);
        std::vector<Tensor<Half>> kbs, vbs;
        for (std::size_t b = 0; b < kSealBlocks; b++) {
            kbs.emplace_back(std::vector<std::size_t>{nr, d});
            vbs.emplace_back(std::vector<std::size_t>{nr, d});
            std::copy(k.data() + b * nr * d, k.data() + (b + 1) * nr * d,
                      kbs.back().data());
            std::copy(v.data() + b * nr * d, v.data() + (b + 1) * nr * d,
                      vbs.back().data());
        }
        row.pack_block_ns = timeMs(3, [&] {
            for (std::size_t b = 0; b < kSealBlocks; b++) {
                kv::PackedBlock kb, vb;
                kv::packBlock(kbs[b], vbs[b], row.config, klay, vlay, kb, vb);
            }
        }) * 1e6 / tokens;
        rows.push_back(row);
    }
    return rows;
}

ContextResult
runContext(const backend::AttentionBackend& be, int context, bool smoke,
           double legacy_32k_ms)
{
    const int d = 128;
    const int gq = 8;
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));

    backend::FixtureConfig fc;
    fc.context = context;
    fc.head_dim = d;
    fc.gq = gq;
    fc.seed = 2026 + static_cast<std::uint64_t>(context);
    const backend::DecodeFixture fx(be, fc);

    ContextResult r{};
    r.binding = fx.binding();
    r.context = context;

    // Legacy: the warp/register-emulated kernel (the pre-backend hot
    // path), over a packed cache holding the fixture's content. Measure
    // up to 32K; extrapolate linearly above (it is O(context)).
    if (context <= 32768) {
        core::BitDecodingConfig cfg; // KC-4, wn = 4
        core::HeadDecoder dec(d, cfg);
        dec.prefill(fx.keys(), fx.values());
        const int legacy_reps = context <= 4096 ? 3 : 1;
        r.legacy_ms = timeMs(legacy_reps, [&] {
            core::packingKernelAttention(fx.query(), dec.cache(), scale, {});
        });
        r.legacy_estimated = false;
    } else {
        r.legacy_ms = legacy_32k_ms * (static_cast<double>(context) / 32768.0);
        r.legacy_estimated = true;
    }

    const int reps = context <= 4096 ? 20 : (context <= 32768 ? 5 : 3);
    backend::DecodeBatch b = fx.batch();
    b.scale = scale;
    r.fused_ms_t1 = timeMs(reps, [&] { be.decodeStep(b); });

    // A backend running at a SIMD level also times itself under
    // BITDEC_SIMD=scalar on the same batch, recording the vectorization
    // win separately from the vs-legacy speedup.
    r.scalar_twin_ms = -1.0;
    if (std::strcmp(be.simdLevel(), "scalar") != 0) {
        const ScopedSimdEnv scalar("scalar");
        r.scalar_twin_ms = timeMs(reps, [&] { be.decodeStep(b); });
    }
    r.host_bytes_per_token = -1.0;
    if (const kv::PackedHeadCache* packed = b.items[0].packed)
        r.host_bytes_per_token = packed->hostBytes() / packed->length();

    {
        exec::ThreadPool pool4(4);
        b.pool = &pool4;
        r.fused_ms_t4 = timeMs(reps, [&] { be.decodeStep(b); });
    }
    {
        exec::ThreadPool pool8(8);
        b.pool = &pool8;
        r.fused_ms_t8 = timeMs(reps, [&] { be.decodeStep(b); });
    }

    // Paged section: the fused-paged backend in place vs the reference
    // backend gathering the sequence, both resolved through the registry.
    {
        auto& reg = backend::BackendRegistry::instance();
        const backend::AttentionBackend& paged = reg.resolve("fused-paged");
        // When the swept backend is fused-paged the main fixture already
        // holds the paged pool — don't build a second 128K one.
        std::optional<backend::DecodeFixture> alt;
        if (std::strcmp(be.name(), "fused-paged") != 0)
            alt.emplace(paged, fc);
        const backend::DecodeFixture& pfx = alt ? *alt : fx;
        backend::DecodeBatch pb = pfx.batch();
        pb.scale = scale;
        r.paged_gather_ms = -1.0; // not measured (smoke / too slow at 128K)
        if (!smoke && context <= 32768) {
            const backend::AttentionBackend& ref = reg.resolve("reference");
            r.paged_gather_ms = timeMs(1, [&] { ref.decodeStep(pb); });
        }
        r.paged_fused_ms = timeMs(reps, [&] { paged.decodeStep(pb); });
    }
    return r;
}

} // namespace
} // namespace bitdec

int
main(int argc, char** argv)
{
    using namespace bitdec;

    const serving::ServingOptions opts =
        serving::ServingOptions::parse(argc, argv);
    if (opts.maybeListBackends())
        return 0;
    const bool smoke = opts.smoke;
    const backend::AttentionBackend& be =
        opts.resolveBackend("fused-packed");

    bench::banner(std::string("CPU hot path: '") + be.name() +
                  "' backend vs legacy kernel" + (smoke ? " [smoke]" : ""));
    std::printf("hardware threads: %u, BITDEC_THREADS default pool: %d\n",
                std::thread::hardware_concurrency(),
                exec::ThreadPool::globalThreadCount());
    std::printf("cpu features: %s\nsimd level: %s\n",
                exec::simd::describeCpuFeatures().c_str(), be.simdLevel());

    std::vector<int> contexts =
        smoke ? std::vector<int>{4096}
              : std::vector<int>{4096, 32768, 131072};

    std::vector<ContextResult> results;
    double legacy_32k = 0;
    for (int ctx : contexts) {
        const ContextResult r = runContext(be, ctx, smoke, legacy_32k);
        if (ctx == 32768)
            legacy_32k = r.legacy_ms;
        results.push_back(r);
    }

    bench::head("context", {"legacy", "be-1t", "be-4t", "be-8t",
                            "speedup", "scale-8t"});
    for (const ContextResult& r : results) {
        bench::row(std::to_string(r.context / 1024) + "K" +
                       (r.legacy_estimated ? " (est.)" : ""),
                   {r.legacy_ms, r.fused_ms_t1, r.fused_ms_t4, r.fused_ms_t8,
                    r.legacy_ms / r.fused_ms_t1,
                    r.fused_ms_t1 / r.fused_ms_t8},
                   "%10.3f");
    }
    if (results[0].scalar_twin_ms >= 0) {
        bench::section("SIMD vs scalar (1 thread)");
        bench::head("context", {"scalar", "simd", "speedup"});
        for (const ContextResult& r : results)
            bench::row(std::to_string(r.context / 1024) + "K",
                       {r.scalar_twin_ms, r.fused_ms_t1,
                        r.scalar_twin_ms / r.fused_ms_t1},
                       "%10.3f");
    }
    if (results[0].host_bytes_per_token >= 0)
        std::printf("\npacked cache host bytes per token: %.1f "
                    "(FP16: %d)\n",
                    results[0].host_bytes_per_token, 2 * 2 * 128);
    bench::section("paged: fused-paged in place vs reference gather "
                   "(1 thread)");
    bench::head("context", {"gather", "fused"});
    for (const ContextResult& r : results) {
        if (r.paged_gather_ms < 0)
            std::printf("%-28s%10s%10.3f\n",
                        (std::to_string(r.context / 1024) + "K").c_str(),
                        "-", r.paged_fused_ms);
        else
            bench::row(std::to_string(r.context / 1024) + "K",
                       {r.paged_gather_ms, r.paged_fused_ms}, "%10.3f");
    }

    std::vector<LevelRow> level_rows;
    std::vector<SealRow> seal_rows;
    if (!smoke) {
        level_rows = runLevelRows();
        bench::section("fused-paged per SIMD level (1 thread, 32K, "
                       "64-token pages; ns per KV token)");
        bench::head("d / gq", {"scalar", "avx2", "avx512"});
        for (const LevelRow& r : level_rows) {
            std::printf("%-28s",
                        (std::to_string(r.head_dim) + " / " +
                         std::to_string(r.gq))
                            .c_str());
            for (double ms : r.ms) {
                if (ms < 0)
                    std::printf("%10s", "-");
                else
                    std::printf("%10.2f", ms * 1e6 / kLevelRowContext);
            }
            std::printf("\n");
        }

        seal_rows = runSealRows();
        bench::section("block seal per SIMD level (1 thread, d 128, " +
                       std::to_string(kSealBlocks) +
                       " blocks; ns per sealed token)");
        bench::head("config", {"scalar", "avx2", "avx512", "packBlock"});
        for (const SealRow& r : seal_rows) {
            std::printf("%-28s", r.config.label().c_str());
            for (double ns : r.ns) {
                if (ns < 0)
                    std::printf("%10s", "-");
                else
                    std::printf("%10.1f", ns);
            }
            std::printf("%10.1f\n", r.pack_block_ns);
        }
    }

    // Machine-readable trajectory record. Smoke runs write to a separate
    // file so a local CI-gate check never clobbers the tracked full-sweep
    // record.
    const char* json_path =
        smoke ? "BENCH_cpu_hotpath.smoke.json" : "BENCH_cpu_hotpath.json";
    FILE* f = std::fopen(json_path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", json_path);
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"cpu_hotpath\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"commit\": \"%s\",\n  \"build_type\": \"%s\",\n",
                 BITDEC_GIT_COMMIT, BITDEC_BUILD_TYPE);
    std::fprintf(f, "  \"backend\": \"%s\",\n", be.name());
    std::fprintf(f, "  \"cpu_features\": \"%s\",\n  \"simd_level\": \"%s\",\n",
                 exec::simd::describeCpuFeatures().c_str(), be.simdLevel());
    // Honest format labeling: FP16 bindings are not a 4-bit sweep; the
    // packed, quantized and MX(FP4) bindings are.
    const backend::Binding binding = results[0].binding;
    const bool fp16 = binding == backend::Binding::Fp16Contiguous ||
                      binding == backend::Binding::PagedFp16;
    std::fprintf(f, "  \"binding\": \"%s\",\n  \"bits\": %d,\n",
                 backend::toString(binding), fp16 ? 16 : 4);
    std::fprintf(f, "  \"head_dim\": 128,\n  \"gq\": 8,\n");
    std::fprintf(f, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < results.size(); i++) {
        const ContextResult& r = results[i];
        char gather[32];
        if (r.paged_gather_ms < 0)
            std::snprintf(gather, sizeof(gather), "null"); // not measured
        else
            std::snprintf(gather, sizeof(gather), "%.4f", r.paged_gather_ms);
        char host[32];
        if (r.host_bytes_per_token < 0)
            std::snprintf(host, sizeof(host), "null"); // not a packed cache
        else
            std::snprintf(host, sizeof(host), "%.1f", r.host_bytes_per_token);
        char twin[64];
        if (r.scalar_twin_ms < 0)
            std::snprintf(twin, sizeof(twin),
                          "\"scalar_twin_ms\": null"); // runs scalar
        else
            std::snprintf(twin, sizeof(twin),
                          "\"scalar_twin_ms\": %.4f, "
                          "\"simd_speedup_vs_scalar\": %.2f",
                          r.scalar_twin_ms, r.scalar_twin_ms / r.fused_ms_t1);
        std::fprintf(
            f,
            "    {\"context\": %d, \"legacy_ms\": %.4f, "
            "\"legacy_estimated\": %s,\n"
            "     \"fused_ms\": {\"t1\": %.4f, \"t4\": %.4f, \"t8\": %.4f},\n"
            "     \"speedup_vs_legacy_1t\": %.2f, "
            "\"scaling_1t_to_8t\": %.2f,\n"
            "     %s, \"host_bytes_per_token\": %s,\n"
            "     \"paged_gather_ms\": %s, \"paged_fused_ms\": %.4f}%s\n",
            r.context, r.legacy_ms, r.legacy_estimated ? "true" : "false",
            r.fused_ms_t1, r.fused_ms_t4, r.fused_ms_t8,
            r.legacy_ms / r.fused_ms_t1, r.fused_ms_t1 / r.fused_ms_t8,
            twin, host, gather, r.paged_fused_ms,
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]");
    if (!level_rows.empty()) {
        std::fprintf(f, ",\n  \"paged_levels\": {\"backend\": "
                        "\"fused-paged\", \"context\": %d, "
                        "\"page_size\": %d, \"rows\": [\n",
                     kLevelRowContext, kLevelRowPage);
        for (std::size_t i = 0; i < level_rows.size(); i++) {
            const LevelRow& r = level_rows[i];
            std::fprintf(f, "    {\"head_dim\": %d, \"gq\": %d, \"ms\": {",
                         r.head_dim, r.gq);
            bool first = true;
            for (int l = 0; l < 3; l++) {
                if (r.ms[l] < 0)
                    continue;
                std::fprintf(f, "%s\"%s\": %.4f", first ? "" : ", ",
                             exec::simd::toString(
                                 static_cast<exec::simd::Level>(l)),
                             r.ms[l]);
                first = false;
            }
            std::fprintf(f, "}}%s\n", i + 1 < level_rows.size() ? "," : "");
        }
        std::fprintf(f, "  ]}");
    }
    if (!seal_rows.empty()) {
        std::fprintf(f, ",\n  \"seal_levels\": {\"head_dim\": %d, "
                        "\"blocks\": %d, \"rows\": [\n",
                     kSealHeadDim, kSealBlocks);
        for (std::size_t i = 0; i < seal_rows.size(); i++) {
            const SealRow& r = seal_rows[i];
            std::fprintf(f, "    {\"config\": \"%s\", \"ns_per_token\": {",
                         r.config.label().c_str());
            bool first = true;
            for (int l = 0; l < 3; l++) {
                if (r.ns[l] < 0)
                    continue;
                std::fprintf(f, "%s\"%s\": %.1f", first ? "" : ", ",
                             exec::simd::toString(
                                 static_cast<exec::simd::Level>(l)),
                             r.ns[l]);
                first = false;
            }
            std::fprintf(f, "}, \"pack_block_ns_per_token\": %.1f}%s\n",
                         r.pack_block_ns,
                         i + 1 < seal_rows.size() ? "," : "");
        }
        std::fprintf(f, "  ]}");
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);

    // Smoke mode is the CI perf gate: the selected backend regressing to
    // within 5x of the legacy kernel fails the job loudly. (Measured
    // margins for the fused hot paths are ~20-30x, so this trips on real
    // regressions, not runner noise.) CI loops this once per
    // --list-backends=fused name, so a backend registered but broken
    // fails the pipeline.
    if (smoke) {
        const double speedup = results[0].legacy_ms / results[0].fused_ms_t1;
        if (speedup < 5.0) {
            std::fprintf(stderr,
                         "PERF REGRESSION: backend '%s' speedup %.2fx < 5x "
                         "floor\n",
                         be.name(), speedup);
            return 2;
        }
        std::printf("perf gate [%s]: %.1fx >= 5x floor — OK\n", be.name(),
                    speedup);
    }
    return 0;
}
