/**
 * @file
 * Accuracy ledger: each fused backend's max and mean absolute error
 * against a float64 attention oracle over the content the backend's cache
 * actually holds (raw FP16 for fused-fp16/fused-paged, the dequantized
 * round trip for fused-packed), so the figure isolates the kernel's own
 * arithmetic: accumulation order, the fold's exp, P's half rounding and
 * the split merges. Writes BENCH_accuracy.json.
 *
 * Grid: 4K and 32K tokens; a model head (head_dim 128, gq 8) and the
 * serving slice's head (head_dim 4, gq 1, 64-token pages); the fixture's
 * content and a variant with outlier key channels (FixtureConfig::
 * outlier_keys), which sharpens the softmax the way KVQuant's pre-RoPE
 * key outliers do. Each cell pools kSeeds content seeds, so a cell of the
 * 4-output serving head still takes its max over 32 outputs. Shapes a
 * backend's cache cannot hold are recorded as null with the reason.
 *
 *   ./build/bench_accuracy            full grid, BENCH_accuracy.json
 */
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "backend/harness.h"
#include "backend/registry.h"
#include "bench_util.h"
#include "build_commit.h"
#include "exec/simd/dispatch.h"

namespace bitdec {
namespace {

/** Softmax attention of one [gq x d] query tile, entirely in double. */
std::vector<double>
oracle(const Tensor<Half>& q, const Tensor<Half>& k, const Tensor<Half>& v,
       double scale)
{
    const std::size_t gq = q.dim(0), d = q.dim(1), n = k.dim(0);
    std::vector<double> out(gq * d, 0.0), logit(n);
    for (std::size_t r = 0; r < gq; r++) {
        double mx = -INFINITY;
        for (std::size_t t = 0; t < n; t++) {
            double s = 0.0;
            for (std::size_t c = 0; c < d; c++)
                s += static_cast<double>(q.at(r, c).toFloat()) *
                     static_cast<double>(k.at(t, c).toFloat());
            logit[t] = s * scale;
            mx = std::max(mx, logit[t]);
        }
        double sum = 0.0;
        for (std::size_t t = 0; t < n; t++) {
            const double p = std::exp(logit[t] - mx);
            sum += p;
            for (std::size_t c = 0; c < d; c++)
                out[r * d + c] += p * static_cast<double>(v.at(t, c).toFloat());
        }
        for (std::size_t c = 0; c < d; c++)
            out[r * d + c] /= sum;
    }
    return out;
}

/** Content seeds pooled into each cell. */
constexpr int kSeeds = 8;

struct Cell
{
    std::string backend;
    int context, head_dim, gq;
    bool outliers;
    bool measured;
    std::string why_not; //!< when !measured
    double max_abs, mean_abs;
};

/** Why @p be cannot decode one [gq x d] tile over @p context tokens, as
 *  its plan() reports it; empty when it can. */
std::string
unsupported(const backend::AttentionBackend& be, int context, int head_dim,
            int gq)
{
    attn::DecodeShape shape;
    shape.num_q_heads = gq;
    shape.num_kv_heads = 1;
    shape.head_dim = head_dim;
    shape.seq_len = context;
    shape.page_size = 64;
    shape.scenario = be.capabilities().supportsScenario(attn::Scenario::Single)
                         ? attn::Scenario::Single
                         : attn::Scenario::Pages;
    return be.plan(shape).reason;
}

Cell
measure(const backend::AttentionBackend& be, int context, int head_dim,
        int gq, bool outliers)
{
    Cell cell{be.name(), context, head_dim, gq, outliers, false, {}, 0, 0};
    cell.why_not = unsupported(be, context, head_dim, gq);
    if (!cell.why_not.empty())
        return cell;
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
    double sum = 0.0;
    std::size_t n = 0;
    for (int seed = 0; seed < kSeeds; seed++) {
        backend::FixtureConfig fc;
        fc.context = context;
        fc.head_dim = head_dim;
        fc.gq = gq;
        fc.page_size = 64;
        fc.seed = 2026 + static_cast<std::uint64_t>(seed);
        fc.outlier_keys = outliers;
        const backend::DecodeFixture fx(be, fc);
        backend::DecodeBatch b = fx.batch();
        b.scale = scale;
        const Tensor<float> got = be.decodeStep(b)[0];
        Tensor<Half> k, v;
        fx.boundKv(k, v);
        const std::vector<double> want = oracle(fx.query(), k, v, scale);
        for (std::size_t i = 0; i < want.size(); i++) {
            const double e = std::fabs(static_cast<double>(got[i]) - want[i]);
            cell.max_abs = std::max(cell.max_abs, e);
            sum += e;
        }
        n += want.size();
    }
    cell.mean_abs = sum / static_cast<double>(n);
    cell.measured = true;
    return cell;
}

} // namespace
} // namespace bitdec

int
main()
{
    using namespace bitdec;
    auto& reg = backend::BackendRegistry::instance();
    bench::banner("Accuracy ledger: fused backends vs a float64 oracle");
    std::printf("simd level: %s\n",
                exec::simd::toString(exec::simd::enabledLevelCap()));

    std::vector<Cell> cells;
    for (const std::string& name : reg.fusedNames())
        for (const auto& [d, gq] : {std::pair{128, 8}, std::pair{4, 1}})
            for (int context : {4096, 32768})
                for (bool outliers : {false, true})
                    cells.push_back(measure(reg.resolve(name), context, d, gq,
                                            outliers));

    bench::head("backend / ctx / d x gq / keys", {"max_abs", "mean_abs"});
    for (const Cell& c : cells) {
        const std::string label = c.backend + " " +
                                  std::to_string(c.context / 1024) + "K " +
                                  std::to_string(c.head_dim) + "x" +
                                  std::to_string(c.gq) +
                                  (c.outliers ? " outl" : "");
        if (c.measured)
            std::printf("%-28s%10.3e%10.3e\n", label.c_str(), c.max_abs,
                        c.mean_abs);
        else
            std::printf("%-28s  %s\n", label.c_str(), c.why_not.c_str());
    }

    const char* path = "BENCH_accuracy.json";
    FILE* f = std::fopen(path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"accuracy\",\n");
    std::fprintf(f, "  \"commit\": \"%s\",\n  \"build_type\": \"%s\",\n",
                 BITDEC_GIT_COMMIT, BITDEC_BUILD_TYPE);
    std::fprintf(f, "  \"simd_level\": \"%s\",\n",
                 exec::simd::toString(exec::simd::enabledLevelCap()));
    std::fprintf(f, "  \"oracle\": \"float64 softmax attention over the "
                    "cache's bound content\",\n  \"seeds_per_cell\": %d,\n"
                    "  \"cells\": [\n",
                 kSeeds);
    for (std::size_t i = 0; i < cells.size(); i++) {
        const Cell& c = cells[i];
        std::fprintf(f,
                     "    {\"backend\": \"%s\", \"context\": %d, "
                     "\"head_dim\": %d, \"gq\": %d, \"outlier_keys\": %s, ",
                     c.backend.c_str(), c.context, c.head_dim, c.gq,
                     c.outliers ? "true" : "false");
        if (c.measured)
            std::fprintf(f, "\"max_abs_err\": %.6e, \"mean_abs_err\": %.6e}",
                         c.max_abs, c.mean_abs);
        else
            std::fprintf(f, "\"max_abs_err\": null, \"mean_abs_err\": null, "
                            "\"unsupported\": \"%s\"}",
                         c.why_not.c_str());
        std::fprintf(f, "%s\n", i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path);
    return 0;
}
