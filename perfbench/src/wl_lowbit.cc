/**
 * @file
 * lowbit-decode: the paper's single-batch regime on the packed low-bit
 * cache (core::HeadDecoder over kv::PackedHeadCache, 4-bit, head_dim
 * 128, query group 8), the only workload that reaches the quant/pack +
 * fused-dequant kernel path.
 *
 * Set-up packs a 32K-token prompt context (seven times; the median is
 * setup_s). The measured window then runs chat turns against it: a
 * turn appends its user tokens, then decodes its output tokens, each
 * step appending the previous token's K/V (FP16 residual; a full
 * residual block seals and packs) before one fused-packed decodeStep.
 * A turn is due when the previous one ended; its first token is its
 * TTFT. The last step of the first and of the final turn is checked
 * against the `reference` backend over the cache's dequantized content
 * (1e-3 max-abs, the backend parity tolerance) — the final check covers
 * every block sealed during the run. Checks run between turns, outside
 * the measured window (a full dequantization takes about a second).
 * peak_rss_mb covers the measured turns: the decoder, its packed cache
 * and the decode scratch, not the FP16 prompt or the reference copies.
 */
#include <cmath>
#include <memory>

#include "attention/reference.h"
#include "backend/registry.h"
#include "core/bitdecoding.h"
#include "kvcache/kv_cache.h"
#include "result.h"
#include "spans.h"
#include "timing.h"

namespace perfbench {

using namespace bitdec;

namespace {

constexpr int kContext = 32768;
constexpr int kHeadDim = 128;
constexpr int kGroup = 8;
constexpr float kTolerance = 1e-3f;

void
randomize(Tensor<Half>& t, Rng& rng)
{
    for (std::size_t i = 0; i < t.numel(); i++)
        t[i] = Half(rng.uniformRange(-1.f, 1.f));
}

void
randomRow(std::vector<Half>& row, Rng& rng)
{
    for (Half& h : row)
        h = Half(rng.uniformRange(-1.f, 1.f));
}

/** Max-abs error of @p got against the reference over @p cache. */
float
referenceError(const kv::PackedHeadCache& cache, const Tensor<Half>& q,
               float scale, const Tensor<float>& got)
{
    Tensor<Half> kd, vd;
    cache.dequantizeAll(kd, vd);
    kv::Fp16HeadCache flat(kHeadDim);
    std::vector<Half> kr(kHeadDim), vr(kHeadDim);
    for (std::size_t t = 0; t < kd.dim(0); t++) {
        for (std::size_t c = 0; c < static_cast<std::size_t>(kHeadDim); c++) {
            kr[c] = kd.at(t, c);
            vr[c] = vd.at(t, c);
        }
        flat.append(kr, vr);
    }
    backend::DecodeBatch b;
    b.items.push_back(backend::fp16Item(q, flat));
    b.scale = scale;
    const backend::AttentionBackend& ref =
        backend::BackendRegistry::instance().resolve("reference");
    return attn::maxAbsDiff(got, ref.decodeStep(b).front());
}

} // namespace

Result
runLowbitDecode(const RunOptions& opt)
{
    Result res;
    res.tail_pct = 75;     // >= 40 turns in the fastest quarter of a run
    res.itl_tail_pct = 75; // >= 40 in-turn gaps likewise
    Rng rng(opt.seed ^ 0x32C0DEull);
    core::BitDecodingConfig bd; // KC-4, wn = 4
    bd.quant.bits = 4;
    std::unique_ptr<core::HeadDecoder> dec;
    {
        Tensor<Half> k({kContext, kHeadDim}), v({kContext, kHeadDim});
        randomize(k, rng);
        randomize(v, rng);
        for (int i = 0; i < 7; i++) {
            dec.reset(); // one decoder alive at a time
            const std::int64_t s0 = nowNs();
            dec = std::make_unique<core::HeadDecoder>(kHeadDim, bd);
            dec->prefill(k, v);
            res.setup_s.push_back(secondsBetween(s0, nowNs()));
        }
    } // the FP16 prompt is freed once set-up ends

    const std::string plain = "fused-packed";
    const backend::AttentionBackend& plain_be =
        backend::BackendRegistry::instance().resolve(plain);
    const backend::AttentionBackend* be = &plain_be;
    const TimedBackend* timed_be = nullptr;
    if (opt.traced) {
        timed_be = &timedBackend(plain);
        timed_be->reset();
        be = timed_be;
    }
    res.info["backend"] = plain;
    res.info["backend_simd_level"] = plain_be.simdLevel();

    const float scale = 1.0f / std::sqrt(static_cast<float>(kHeadDim));
    Tensor<Half> q({kGroup, kHeadDim});
    std::vector<Half> kr(kHeadDim), vr(kHeadDim);
    CallStats appends;
    std::int64_t seal_ns = 0;
    long sealed_tokens = 0;
    long seals = 0;
    const auto check = [&](std::size_t turn, const Tensor<float>& out) {
        const float err = referenceError(dec->cache(), q, scale, out);
        if (!(err <= kTolerance))
            res.fail("turn " + std::to_string(turn) + ": fused-packed " +
                     "differs from reference by " + std::to_string(err));
        res.extra["checks"] += 1;
    };
    const auto append = [&] {
        randomRow(kr, rng);
        randomRow(vr, rng);
        const int packed_before = dec->cache().packedTokens();
        std::int64_t ns = 0;
        {
            ScopedSpan span("core.append");
            const std::int64_t t0 = nowNs();
            dec->appendToken(kr, vr);
            ns = nowNs() - t0;
        }
        appends.add(ns);
        const int packed = dec->cache().packedTokens() - packed_before;
        if (packed > 0) {
            seals++;
            seal_ns += ns;
            sealed_tokens += packed;
        }
    };

    const std::vector<Turn> turns = lowbitTurns(opt.seed, 4096);
    const double cpu0 = processCpuSeconds();
    const std::int64_t w0 = nowNs();
    Tensor<float> last_out;
    Unit block; // four turns: one prompt length from each quarter
    double measured_s = 0;
    double all_turns_s = 0; // warm-up included, as the layer counters are
    std::size_t ti = 0;
    for (; ti < turns.size() && measured_s < opt.seconds; ti++) {
        if (ti == 4) // measured turns start; the first check is behind us
            res.extra["peak_rss_reset"] = resetPeakRss() ? 1 : 0;
        const Turn& turn = turns[ti];
        RequestTiming rt;
        {
            ScopedSpan span("lowbit.turn", static_cast<int>(ti));
            rt.due_ns = nowNs();
            for (int p = 0; p < turn.prompt; p++)
                append();
            for (int g = 0; g < turn.output; g++) {
                if (g > 0)
                    append(); // the previous output token's K/V
                randomize(q, rng);
                backend::DecodeBatch b;
                b.items.push_back(backend::packedItem(q, dec->cache()));
                b.scale = scale;
                last_out = std::move(be->decodeStep(b).front());
                rt.token_ns.push_back(nowNs());
            }
            rt.done_ns = rt.token_ns.back();
        }
        res.attempted++;
        all_turns_s += secondsBetween(rt.due_ns, rt.done_ns);
        if (ti >= 4) { // the first block of turns warms caches, unmeasured
            addSamples(rt, block.samples);
            block.wall_s += secondsBetween(rt.due_ns, rt.done_ns);
            measured_s += secondsBetween(rt.due_ns, rt.done_ns);
            if (ti % 4 == 3) {
                res.units.push_back(std::move(block));
                block = {};
            }
        }

        if (ti == 0)
            check(ti, last_out);
    }
    const double cpu_s = processCpuSeconds() - cpu0;
    const double wall_s = secondsBetween(w0, nowNs());
    res.peak_rss_mb = peakRssMb();
    if (ti > 1)
        check(ti - 1, last_out);

    res.extra["context_tokens_end"] = dec->cache().length();
    res.extra["residual_block"] = dec->cache().residualBlockSize();
    res.layer["proc.cpu_util"] = wall_s > 0 ? cpu_s / wall_s : 0;
    if (opt.traced) {
        res.layer["core.append.busy_ms"] = appends.busyMs();
        res.layer["core.append.p99_us"] = nearestRank(appends.durations_us, 99);
        res.layer["core.append.seals"] = static_cast<double>(seals);
        res.layer["core.pack.ns_per_token"] =
            sealed_tokens > 0 ? static_cast<double>(seal_ns) /
                                    static_cast<double>(sealed_tokens)
                              : 0;
        addBackendLayers(res, *timed_be, all_turns_s * 1e3);
    }
    return res;
}

} // namespace perfbench
