/**
 * @file
 * Cross-cutting property tests: invariants that must hold over swept
 * configuration spaces (warp tilings, bit widths, architectures, shapes)
 * rather than at single points.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "attention/flash_decoding.h"
#include "attention/workloads.h"
#include "backend/harness.h"
#include "backend/registry.h"
#include "common/rng.h"
#include "core/bitdecoding.h"
#include "core/residual_kernel.h"
#include "exec/fused_attention.h"
#include "exec/simd/dispatch.h"
#include "exec/thread_pool.h"
#include "gpusim/arch.h"
#include "kvcache/kv_cache.h"
#include "layout/induced_layout.h"
#include "model/decode_sim.h"
#include "model/model_config.h"
#include "quant/fast_dequant.h"
#include "scoped_simd_env.h"

namespace bitdec {
namespace {

// ---------------------------------------------- layout induction sweeps ----

struct TilingCase
{
    sim::MmaShape mma;
    int wn;
    int bits;
};

class InductionSweepP : public ::testing::TestWithParam<TilingCase>
{
};

TEST_P(InductionSweepP, ResidualBlockAlignsInducedLayout)
{
    // Eq. 1's purpose as a property: for ANY (mma, wn, bits), a block of
    // Nr tokens yields an induced layout with zero partial units, and the
    // warp-emulated Residual-Kernel pack equals the canonical pack.
    const auto [mma, wn, bits] = GetParam();
    layout::WarpTiling tiling;
    tiling.mma = mma;
    tiling.wn = wn;
    const int nr = layout::residualBlockSize(tiling, bits);
    // d must cover one full packing group along N (pn * R) for V blocks.
    const int d = 64;

    const layout::InducedLayout klay(tiling, bits, d, nr);
    const layout::InducedLayout vlay(tiling, bits, nr, d);
    EXPECT_EQ(static_cast<int>(klay.numUnits()) * klay.codesPerUnit(),
              d * nr);
    EXPECT_EQ(static_cast<int>(vlay.numUnits()) * vlay.codesPerUnit(),
              d * nr);

    quant::QuantConfig qc;
    qc.bits = bits;
    qc.key_granularity = quant::Granularity::ChannelWise;
    qc.group_size = 16;

    Rng rng(GetParam().wn * 100 + bits);
    Tensor<Half> kb({static_cast<std::size_t>(nr), static_cast<std::size_t>(d)});
    Tensor<Half> vb({static_cast<std::size_t>(nr), static_cast<std::size_t>(d)});
    for (std::size_t i = 0; i < kb.numel(); i++) {
        kb[i] = Half(rng.normal());
        vb[i] = Half(rng.normal());
    }
    kv::PackedBlock ck, cv;
    kv::packBlock(kb, vb, qc, klay, vlay, ck, cv);
    EXPECT_EQ(core::residualKernelPackKeys(kb, qc, klay).units, ck.units);
    EXPECT_EQ(core::residualKernelPackValues(vb, qc, vlay).units, cv.units);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InductionSweepP,
    ::testing::Values(TilingCase{sim::MmaShape::M16N8K16, 1, 4},
                      TilingCase{sim::MmaShape::M16N8K16, 2, 4},
                      TilingCase{sim::MmaShape::M16N8K16, 8, 4},
                      TilingCase{sim::MmaShape::M16N8K16, 2, 2},
                      TilingCase{sim::MmaShape::M16N8K8, 4, 4},
                      TilingCase{sim::MmaShape::M16N8K8, 2, 2}));

// -------------------------------------------------- fast-dequant sweeps ----

class DequantParamSweepP
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(DequantParamSweepP, FastPathBitExactOverParamGrid)
{
    // Bit-exactness must hold for every (scale magnitude, zero) corner,
    // including subnormal-scale and large-zero regions.
    const auto [bits, scale_exp] = GetParam();
    const float scale = std::ldexp(1.0f, scale_exp);
    for (float zero : {0.f, 1.f, 7.f, 15.f}) {
        quant::QuantParams p{Half(scale), Half(zero)};
        Rng rng(99);
        for (int trial = 0; trial < 50; trial++) {
            std::uint8_t codes[16];
            const int n = quant::codesPerWord(bits);
            for (int i = 0; i < n; i++)
                codes[i] =
                    static_cast<std::uint8_t>(rng.uniformInt(1u << bits));
            const std::uint32_t w =
                quant::packWord(codes, bits, quant::PackOrder::Interleaved);
            Half fast[16], ref[16];
            quant::fastDequantWord(w, bits, p, fast);
            quant::referenceDequantWord(w, bits,
                                        quant::PackOrder::Interleaved, p,
                                        ref);
            for (int i = 0; i < n; i++)
                EXPECT_EQ(fast[i].bits(), ref[i].bits())
                    << "bits=" << bits << " scale=2^" << scale_exp
                    << " zero=" << zero;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DequantParamSweepP,
                         ::testing::Values(std::pair{4, -10}, std::pair{4, -4},
                                           std::pair{4, 0}, std::pair{4, 3},
                                           std::pair{2, -8}, std::pair{2, -2},
                                           std::pair{2, 2}));

// ----------------------------------------------------- timing invariants ----

TEST(TimingProperties, FasterMemoryNeverSlowsAttention)
{
    // Across architectures ordered by bandwidth, the same memory-bound
    // decode never gets slower.
    attn::DecodeShape s;
    s.batch = 16;
    s.num_q_heads = 32;
    s.num_kv_heads = 8;
    s.seq_len = 32768;
    const double t4090 =
        attn::flashDecodingTime(sim::archRTX4090(), s, 2).total_s;
    const double t5090 =
        attn::flashDecodingTime(sim::archRTX5090(), s, 2).total_s;
    const double ta100 = attn::flashDecodingTime(sim::archA100(), s, 2).total_s;
    const double th100 = attn::flashDecodingTime(sim::archH100(), s, 2).total_s;
    EXPECT_GT(t4090, t5090); // 1.0 vs 1.8 TB/s
    EXPECT_GT(t5090, ta100); // 1.8 vs 2.0 TB/s
    EXPECT_GT(ta100, th100); // 2.0 vs 3.4 TB/s
}

TEST(TimingProperties, SpeedupMonotoneInBitWidth)
{
    // For every architecture and context length: fewer bits, never slower.
    core::BitDecodingConfig c8, c4, c2;
    c8.quant.bits = 8;
    c4.quant.bits = 4;
    c2.quant.bits = 2;
    for (const auto* arch : {&sim::archA100(), &sim::archRTX4090(),
                             &sim::archH100()}) {
        for (int len : {4096, 65536}) {
            attn::DecodeShape s;
            s.batch = 4;
            s.num_q_heads = 32;
            s.num_kv_heads = 8;
            s.seq_len = len;
            const double t8 = core::bitDecodingTime(*arch, s, c8).total_s;
            const double t4 = core::bitDecodingTime(*arch, s, c4).total_s;
            const double t2 = core::bitDecodingTime(*arch, s, c2).total_s;
            EXPECT_GE(t8, t4) << arch->name << " len=" << len;
            EXPECT_GE(t4, t2) << arch->name << " len=" << len;
        }
    }
}

TEST(TimingProperties, LatencyMonotoneInContextAndBatch)
{
    core::BitDecodingConfig cfg;
    double prev = 0;
    for (int len : {1024, 4096, 16384, 65536}) {
        attn::DecodeShape s;
        s.batch = 4;
        s.num_q_heads = 32;
        s.num_kv_heads = 8;
        s.seq_len = len;
        const double t = core::bitDecodingTime(sim::archA100(), s, cfg).total_s;
        EXPECT_GT(t, prev);
        prev = t;
    }
    prev = 0;
    for (int bs : {1, 4, 16, 64}) {
        attn::DecodeShape s;
        s.batch = bs;
        s.num_q_heads = 32;
        s.num_kv_heads = 8;
        s.seq_len = 8192;
        const double t = core::bitDecodingTime(sim::archA100(), s, cfg).total_s;
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(TimingProperties, MetadataOverheadShrinksWithGroupSize)
{
    attn::DecodeShape s;
    s.batch = 4;
    s.num_q_heads = 32;
    s.num_kv_heads = 8;
    s.seq_len = 16384;
    quant::QuantConfig a, b;
    a.group_size = 32;
    b.group_size = 128;
    EXPECT_GT(s.metadataBytes(a), s.metadataBytes(b));
}

// ------------------------------------------------- functional invariants ----

TEST(FunctionalProperties, AttentionOutputInConvexHullOfValues)
{
    // Attention output is a convex combination of value rows; this must
    // survive quantization, packing and the fused kernel path.
    core::BitDecodingConfig cfg;
    core::HeadDecoder dec(32, cfg);
    Rng rng(314);
    const int nr = dec.cache().residualBlockSize();
    Tensor<Half> k({static_cast<std::size_t>(nr), 32});
    Tensor<Half> v({static_cast<std::size_t>(nr), 32});
    float vmin = 1e9f, vmax = -1e9f;
    for (std::size_t i = 0; i < k.numel(); i++) {
        k[i] = Half(rng.normal());
        v[i] = Half(rng.normal());
        vmin = std::min(vmin, v[i].toFloat());
        vmax = std::max(vmax, v[i].toFloat());
    }
    dec.prefill(k, v);
    Tensor<Half> q({4, 32});
    for (std::size_t i = 0; i < q.numel(); i++)
        q[i] = Half(rng.normal());
    const auto res = dec.decodeStep(q, 0.18f);
    // Quantization can stretch the hull by its error bound only.
    const float slack = 0.5f;
    for (std::size_t g = 0; g < 4; g++) {
        for (std::size_t c = 0; c < 32; c++) {
            EXPECT_GE(res.out.at(g, c), vmin - slack);
            EXPECT_LE(res.out.at(g, c), vmax + slack);
        }
    }
}

TEST(FunctionalProperties, ScaleInvarianceOfArgmaxRetrieval)
{
    // Scaling all keys by a constant multiplies logits uniformly and must
    // not change which token the (packed, quantized) attention retrieves.
    const int d = 32;
    Rng rng(271);
    core::BitDecodingConfig cfg;
    for (float key_scale : {0.5f, 1.0f, 2.0f}) {
        core::HeadDecoder dec(d, cfg);
        const int nr = dec.cache().residualBlockSize();
        Tensor<Half> k({static_cast<std::size_t>(nr),
                        static_cast<std::size_t>(d)});
        Tensor<Half> v({static_cast<std::size_t>(nr),
                        static_cast<std::size_t>(d)});
        Rng local(99);
        for (std::size_t i = 0; i < k.numel(); i++) {
            k[i] = Half(local.normal() * key_scale);
            v[i] = Half(local.normal());
        }
        // Plant a strong needle at token 7 matching the query direction.
        Tensor<Half> q({1, static_cast<std::size_t>(d)});
        for (int c = 0; c < d; c++) {
            q.at(0, static_cast<std::size_t>(c)) = Half(1.0f);
            k.at(7, static_cast<std::size_t>(c)) = Half(3.0f * key_scale);
            v.at(7, static_cast<std::size_t>(c)) = Half(5.0f);
        }
        dec.prefill(k, v);
        const auto res = dec.decodeStep(q, 2.0f / key_scale);
        // Needle value dominates the output for any key scale.
        EXPECT_GT(res.out.at(0, 0), 4.0f) << "key_scale=" << key_scale;
    }
    (void)rng;
}

// -------------------------------------------------- e2e model invariants ----

TEST(ModelProperties, ThroughputMonotoneInBatchUntilOom)
{
    model::E2EConfig bd;
    bd.system = model::SystemKind::BitDecoding;
    double prev = 0;
    for (int bs = 1; bs <= 32; bs *= 2) {
        const auto r = model::decodeThroughput(
            sim::archA100(), model::llama31_8b(), 8192, bs, bd);
        if (r.oom)
            break;
        EXPECT_GT(r.tokens_per_s, prev);
        prev = r.tokens_per_s;
    }
    EXPECT_GT(prev, 0);
}

TEST(ModelProperties, LongerContextNeverRaisesThroughput)
{
    model::E2EConfig bd;
    bd.system = model::SystemKind::BitDecoding;
    double prev = 1e18;
    for (int len : {4096, 16384, 65536}) {
        const auto r = model::decodeThroughput(
            sim::archA100(), model::llama31_8b(), len, 4, bd);
        ASSERT_FALSE(r.oom);
        EXPECT_LT(r.tokens_per_s, prev);
        prev = r.tokens_per_s;
    }
}

TEST(ModelProperties, EveryModelRunsEverySystemAt4k)
{
    for (const auto* m :
         {&model::llama2_7b(), &model::llama31_8b(), &model::qwen3_8b(),
          &model::qwen3_14b()}) {
        for (auto sys : {model::SystemKind::FlashDecodingFp16,
                         model::SystemKind::Kivi, model::SystemKind::QServe,
                         model::SystemKind::BitDecoding}) {
            model::E2EConfig c;
            c.system = sys;
            const auto t =
                model::decodeStepTime(sim::archA100(), *m, 4096, 1, c);
            EXPECT_GT(t.total_s, 0) << m->name;
            EXPECT_TRUE(std::isfinite(t.total_s)) << m->name;
        }
    }
}

// ------------------------------------------------- SIMD bit-exactness ----

using exec::simd::Level;

/** Kernel tables of every level this host supports, scalar included,
 *  with their level names. */
std::vector<std::pair<const exec::simd::KernelTable*, const char*>>
supportedKernelTables()
{
    std::vector<std::pair<const exec::simd::KernelTable*, const char*>> out;
    for (Level l : {Level::Scalar, Level::Avx2, Level::Avx512})
        if (exec::simd::levelSupported(l))
            out.emplace_back(&exec::simd::kernels(l), exec::simd::toString(l));
    return out;
}

/** Float bit patterns match (the definition of "bit-exact"). */
bool
sameBits(float a, float b)
{
    std::uint32_t ba, bb;
    std::memcpy(&ba, &a, 4);
    std::memcpy(&bb, &b, 4);
    return ba == bb;
}

TEST(SimdProperties, ConvertRowsWidensEveryHalfPatternExactly)
{
    // Exhaustive: all 65536 binary16 patterns — normals, denormals,
    // zeros, infinities and NaNs — must widen exactly as the scalar LUT
    // does. NaNs compare as NaN-ness (F16C may quiet a signaling payload
    // differently); no NaN ever reaches the hot path from real caches.
    const auto tables = supportedKernelTables();
    std::vector<Half> src(65536);
    for (std::uint32_t i = 0; i < 65536; i++)
        src[i] = Half::fromBits(static_cast<std::uint16_t>(i));
    const float* lut = halfToFloatLut();
    for (const auto& [kt, name] : tables) {
        std::vector<float> dst(65536, -1.f);
        kt->convert_rows(src.data(), src.size(), dst.data());
        int mismatches = 0;
        for (std::uint32_t i = 0; i < 65536; i++) {
            const bool ok = std::isnan(lut[i])
                                ? std::isnan(dst[i])
                                : sameBits(dst[i], lut[i]);
            if (!ok && ++mismatches < 4)
                ADD_FAILURE() << name << " pattern 0x" << std::hex << i;
        }
        EXPECT_EQ(mismatches, 0) << name;
    }
}

TEST(SimdProperties, ConvertTransposeMatchesLutAtOddShapes)
{
    // The 8x8-block transpose must stay exact across both tail axes:
    // tokens % 8 != 0 and d % 8 != 0, down to a single token.
    const auto tables = supportedKernelTables();
    Rng rng(4242);
    for (const auto& [kt, name] : tables) {
        // Four-channel heads take a dedicated 8-token transpose.
        for (const auto& [tokens, d] :
             {std::pair{1, 37}, std::pair{13, 24}, std::pair{16, 16},
              std::pair{23, 129}, std::pair{9, 4}, std::pair{64, 4},
              std::pair{45, 4}}) {
            std::vector<Half> src(static_cast<std::size_t>(tokens) * d);
            for (auto& h : src)
                h = Half(rng.normal());
            std::vector<float> kT(src.size(), -1.f);
            kt->convert_transpose(src.data(), tokens, d, kT.data(), tokens);
            const float* lut = halfToFloatLut();
            for (int t = 0; t < tokens; t++)
                for (int c = 0; c < d; c++)
                    ASSERT_TRUE(sameBits(
                        kT[static_cast<std::size_t>(c) * tokens + t],
                        lut[src[static_cast<std::size_t>(t) * d + c].bits()]))
                        << name << " tokens=" << tokens << " d=" << d;
        }
    }
}

TEST(SimdProperties, LinearDequantBitExactUnderExtremeHalves)
{
    // Every level's table, scalar included, must derive a block's group
    // values from its params with quant::dequantMagicValue's exact
    // arithmetic, then dequantize through the linear plans to the
    // reference inverse bit-for-bit — including blocks quantized from
    // denormal and near-max half content, whose groups get denormal
    // scales and folded biases that overflow to -inf. Keys cover both
    // granularities (tensor-wise keys interleave groups along the
    // channel-major tile and take the gathered lookup) and the
    // channel-major destinations.
    const auto tables = supportedKernelTables();
    int inf_bias_groups = 0;
    for (int bits : {4, 2}) {
        for (auto gran : {quant::Granularity::ChannelWise,
                          quant::Granularity::TensorWise}) {
            quant::QuantConfig qc;
            qc.bits = bits;
            qc.key_granularity = gran;
            const int d = 64;
            kv::PackedHeadCache cache(d, qc, layout::WarpTiling{});
            const int nr = cache.residualBlockSize();
            Rng rng(2026 + bits);
            for (int t = 0; t < nr; t++) {
                std::vector<Half> k(static_cast<std::size_t>(d)),
                    v(static_cast<std::size_t>(d));
                for (int c = 0; c < d; c++) {
                    switch (rng.uniformInt(4)) {
                    case 0: // denormal half
                        k[static_cast<std::size_t>(c)] =
                            Half::fromBits(static_cast<std::uint16_t>(
                                1 + rng.uniformInt(0x3FF)));
                        break;
                    case 1: // near half-max
                        k[static_cast<std::size_t>(c)] = Half(
                            60000.f * (rng.normal() > 0 ? 1.f : -1.f));
                        break;
                    default:
                        k[static_cast<std::size_t>(c)] = Half(rng.normal());
                    }
                    v[static_cast<std::size_t>(c)] =
                        Half(rng.normal() * 100.f);
                }
                cache.append(k, v);
            }
            ASSERT_EQ(static_cast<int>(cache.keyBlocks().size()), 1);
            Tensor<Half> k_ref, v_ref;
            cache.dequantizeAll(k_ref, v_ref);
            const std::size_t n = static_cast<std::size_t>(nr) * d;
            for (const auto& [kt, name] : tables) {
                const auto dequant =
                    [&, kt = kt, name = name](
                        const kv::PackedBlock& blk,
                        const exec::simd::LinearDequantPlan& plan) {
                        const std::size_t groups = blk.params.numel();
                        std::vector<float> values(
                            (groups << bits) + exec::simd::kGroupValuesPad);
                        kt->group_values(blk.params.data(), groups, bits,
                                         values.data());
                        for (std::size_t g = 0; g < groups; g++) {
                            const auto p =
                                quant::QuantParams::fromHalf2(blk.params[g]);
                            inf_bias_groups +=
                                std::isinf(quant::dequantMagicValue(0, p));
                            for (int q = 0; q < (1 << bits); q++)
                                EXPECT_TRUE(sameBits(
                                    values[(g << bits) |
                                           static_cast<std::size_t>(q)],
                                    quant::dequantMagicValue(
                                        static_cast<std::uint8_t>(q), p)))
                                    << name << " bits=" << bits
                                    << " group=" << g << " code=" << q;
                        }
                        std::vector<float> out(n, -1.f);
                        kt->dequant_linear(blk.units.data(), plan.unit.data(),
                                           plan.shift.data(),
                                           plan.param.data(), plan.size(),
                                           bits, plan.group_run,
                                           values.data(), out.data());
                        return out;
                    };
                const std::vector<float> k_got =
                    dequant(cache.keyBlocks()[0], cache.keyLinearPlan());
                const std::vector<float> v_got =
                    dequant(cache.valueBlocks()[0], cache.valueLinearPlan());
                for (int t = 0; t < nr; t++)
                    for (int c = 0; c < d; c++) {
                        const std::size_t tt = static_cast<std::size_t>(t);
                        const std::size_t cc = static_cast<std::size_t>(c);
                        ASSERT_TRUE(sameBits(k_got[cc * nr + tt],
                                             k_ref.at(tt, cc).toFloat()))
                            << name << " K bits=" << bits << " t=" << t
                            << " c=" << c;
                        ASSERT_TRUE(sameBits(v_got[tt * d + cc],
                                             v_ref.at(tt, cc).toFloat()))
                            << name << " V bits=" << bits << " t=" << t
                            << " c=" << c;
                    }
            }
        }
    }
    EXPECT_GT(inf_bias_groups, 0) << "no group overflowed its folded bias";
}

/** Shapes that stress the vector tails: contexts not divisible by any
 *  vector width, single-token pages, ranges straddling page boundaries. */
struct TailShape
{
    int context, head_dim, gq, page_size;
};

TEST(SimdProperties, FusedFp16AndPagedDigestEqualAtEveryLevelAndPool)
{
    // fused-fp16 and fused-paged run at the enabled level: every level
    // this host supports, with any pool, must give the scalar level's
    // bytes — over the vector tail shapes and small heads whose gq * d <
    // 16 gives spare lanes to tokens (4 slots, 2 slots, and d = 4 at gq 3
    // with one slot and four idle lanes).
    const std::vector<TailShape> shapes = {
        {1, 32, 1, 1},     // single token, single-token pages
        {7, 24, 2, 3},     // d % 8 != 0, tiny pages
        {97, 40, 4, 13},   // page-straddling odd context
        {129, 32, 3, 64},  // one token past a 128-chunk boundary
        {333, 128, 8, 31}, // full-width head, odd everything
        {1000, 4, 1, 64},  // the serving slice: 4 token slots
        {5, 4, 1, 64},     // fewer tokens than one slot row
        {77, 4, 2, 7},     // 2 slots, two rows
        {45, 4, 3, 16},    // gq * d = 12: one slot
        {150, 8, 1, 64},   // 2 slots of 8 channels
    };
    auto& reg = backend::BackendRegistry::instance();
    exec::ThreadPool pool1(1);
    exec::ThreadPool pool8(8);
    int compared = 0;
    for (const char* name : {"fused-fp16", "fused-paged"}) {
        const backend::AttentionBackend& be = reg.resolve(name);
        std::vector<std::unique_ptr<backend::DecodeFixture>> fixtures;
        std::vector<std::uint64_t> want;
        for (const TailShape& s : shapes) {
            backend::FixtureConfig fc;
            fc.context = s.context;
            fc.head_dim = s.head_dim;
            fc.gq = s.gq;
            fc.page_size = s.page_size;
            fixtures.push_back(
                std::make_unique<backend::DecodeFixture>(be, fc));
            backend::DecodeBatch b = fixtures.back()->batch();
            b.scale = 0.17f;
            ScopedSimdEnv env("scalar");
            want.push_back(be.digest(b));
        }
        // Twice, in opposite shape orders: a tail lane read from scratch
        // another shape left behind would differ between the passes.
        for (int pass = 0; pass < 2; pass++) {
            for (std::size_t k = 0; k < shapes.size(); k++) {
                const std::size_t i = pass == 0 ? k : shapes.size() - 1 - k;
                backend::DecodeBatch b = fixtures[i]->batch();
                b.scale = 0.17f;
                for (Level l : {Level::Scalar, Level::Avx2, Level::Avx512}) {
                    if (!exec::simd::levelSupported(l))
                        continue;
                    ScopedSimdEnv env(exec::simd::toString(l));
                    for (exec::ThreadPool* pool :
                         {static_cast<exec::ThreadPool*>(nullptr), &pool1,
                          &pool8}) {
                        b.pool = pool;
                        EXPECT_EQ(be.digest(b), want[i])
                            << name << " " << exec::simd::toString(l)
                            << " context=" << shapes[i].context
                            << " d=" << shapes[i].head_dim
                            << " gq=" << shapes[i].gq
                            << " page=" << shapes[i].page_size
                            << " threads="
                            << (pool ? pool->numThreads() : 0);
                        compared++;
                    }
                }
            }
        }
    }
    EXPECT_GE(compared, static_cast<int>(2 * 2 * shapes.size() * 3));
}

TEST(SimdProperties, FusedPackedDigestEqualAtEveryLevelAndPool)
{
    // fused-packed runs at the enabled level: every level this host
    // supports, with any pool, must give the scalar level's bytes, for
    // both bit widths, over tail shapes the packed cache allows. A 2-bit
    // value unit spans 64 channels, so 2-bit heads are at least 64 wide;
    // 2-bit blocks hold 256 tokens, so short contexts are residual-only.
    const std::vector<TailShape> shapes = {
        {1, 32, 1, 1},
        {97, 32, 4, 13},
        {129, 64, 3, 64},
        {333, 128, 8, 31},
        {1100, 64, 5, 1},
    };
    const backend::AttentionBackend& be =
        backend::BackendRegistry::instance().resolve("fused-packed");
    exec::ThreadPool pool1(1);
    exec::ThreadPool pool8(8);
    int compared = 0;
    for (int bits : {4, 2}) {
        for (const TailShape& s : shapes) {
            backend::FixtureConfig fc;
            fc.context = s.context;
            fc.head_dim = bits == 2 ? std::max(s.head_dim, 64) : s.head_dim;
            fc.gq = s.gq;
            fc.bits = bits;
            const backend::DecodeFixture fx(be, fc);
            backend::DecodeBatch b = fx.batch();
            b.scale = 0.17f;
            std::uint64_t scalar = 0;
            {
                ScopedSimdEnv env("scalar");
                scalar = be.digest(b);
            }
            for (Level l : {Level::Scalar, Level::Avx2, Level::Avx512}) {
                if (!exec::simd::levelSupported(l))
                    continue;
                ScopedSimdEnv env(exec::simd::toString(l));
                for (exec::ThreadPool* pool :
                     {static_cast<exec::ThreadPool*>(nullptr), &pool1,
                      &pool8}) {
                    b.pool = pool;
                    EXPECT_EQ(be.digest(b), scalar)
                        << exec::simd::toString(l) << " bits=" << bits
                        << " context=" << s.context << " d=" << fc.head_dim
                        << " threads="
                        << (pool ? pool->numThreads() : 0);
                    compared++;
                }
            }
        }
    }
    EXPECT_GE(compared, 2 * 5 * 3);
}

TEST(SimdProperties, FoldExpWithinOneUlpAndBitEqualAcrossLevels)
{
    // exec::foldExp against double-precision exp for every float in
    // [-88, 0] (about 1.1e9 values) in optimized builds, every 4099th in
    // debug and sanitizer builds; every level's exp_rows, the scalar
    // table's included, must give foldExp's bits on the same inputs.
#ifdef NDEBUG
    constexpr std::uint32_t kStride = 1;
#else
    constexpr std::uint32_t kStride = 4099;
#endif
    constexpr std::uint32_t kChunk = 1u << 16;
    float lo_f = -0.f, hi_f = -88.f;
    std::uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, &lo_f, 4);
    std::memcpy(&hi, &hi_f, 4);
    const std::uint64_t count = (hi - lo) / kStride + 1;
    const std::size_t n_chunks =
        static_cast<std::size_t>((count + kChunk - 1) / kChunk);
    const auto tables = supportedKernelTables();
    // ulp of a float with biased exponent e (subnormals share e = 1's).
    double ulp_of_exponent[256];
    for (int e = 0; e < 256; e++)
        ulp_of_exponent[e] = std::ldexp(1.0, (e == 0 ? 1 : e) - 150);

    std::vector<double> worst(n_chunks, 0.0);
    std::vector<float> worst_x(n_chunks, 0.f);
    std::vector<long> level_mismatches(n_chunks, 0);
    exec::ThreadPool pool(0);
    exec::parallelFor(&pool, n_chunks, [&](std::size_t ci) {
        thread_local std::vector<float> x, y, yv;
        x.resize(kChunk);
        y.resize(kChunk);
        yv.resize(kChunk);
        const std::uint64_t first = static_cast<std::uint64_t>(ci) * kChunk;
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kChunk, count - first));
        for (std::size_t j = 0; j < n; j++) {
            const std::uint32_t b =
                lo + static_cast<std::uint32_t>((first + j) * kStride);
            std::memcpy(&x[j], &b, 4);
        }
        for (std::size_t j = 0; j < n; j++) {
            y[j] = exec::foldExp(x[j]);
            const double e = std::exp(static_cast<double>(x[j]));
            const float ef = static_cast<float>(e);
            std::uint32_t eb = 0;
            std::memcpy(&eb, &ef, 4);
            const double err = std::fabs(static_cast<double>(y[j]) - e) /
                               ulp_of_exponent[eb >> 23];
            if (err > worst[ci]) {
                worst[ci] = err;
                worst_x[ci] = x[j];
            }
        }
        for (const auto& [kt, name] : tables) {
            kt->exp_rows(x.data(), n, yv.data());
            for (std::size_t j = 0; j < n; j++)
                level_mismatches[ci] += !sameBits(yv[j], y[j]);
        }
    });
    const std::size_t w = static_cast<std::size_t>(
        std::max_element(worst.begin(), worst.end()) - worst.begin());
    EXPECT_LE(worst[w], 1.0) << "at x=" << worst_x[w];
    long mismatches = 0;
    for (long m : level_mismatches)
        mismatches += m;
    EXPECT_EQ(mismatches, 0);
    EXPECT_TRUE(sameBits(exec::foldExp(0.f), 1.f));
    EXPECT_TRUE(sameBits(exec::foldExp(-0.f), 1.f));
    EXPECT_TRUE(sameBits(exec::foldExp(-std::numeric_limits<float>::infinity()),
                         0.f));
}

} // namespace
} // namespace bitdec
