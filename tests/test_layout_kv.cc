/**
 * @file
 * Tests for layout induction (the paper's core claim) and the KV caches.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <set>

#include "backend/attention_backend.h"
#include "backend/registry.h"
#include "common/rng.h"
#include "core/residual_kernel.h"
#include "exec/simd/dispatch.h"
#include "kvcache/kv_cache.h"
#include "kvcache/paged_cache.h"
#include "layout/induced_layout.h"
#include "layout/tile.h"
#include "quant/int_quant.h"
#include "scoped_simd_env.h"

namespace bitdec {
namespace {

using exec::simd::Level;
using layout::InducedLayout;
using layout::residualBlockSize;
using layout::UnitId;
using layout::WarpTiling;

// ------------------------------------------------------------ Eq. 1 -------

TEST(Tile, ResidualBlockSizeEq1)
{
    WarpTiling t;
    t.wn = 4;
    EXPECT_EQ(residualBlockSize(t, 4), 8 * 4 * 4);  // Pn*Wn*R = 128
    EXPECT_EQ(residualBlockSize(t, 2), 8 * 4 * 8);  // 256
    t.wn = 2;
    EXPECT_EQ(residualBlockSize(t, 4), 64);
    t.wn = 1;
    EXPECT_EQ(residualBlockSize(t, 8), 16); // 8*1*2
}

TEST(Tile, WarpTilingExtents)
{
    WarpTiling t;
    EXPECT_EQ(t.pn(), 8);
    EXPECT_EQ(t.pk(), 16);
    EXPECT_EQ(t.pm(), 16);
    t.mma = sim::MmaShape::M16N8K8;
    EXPECT_EQ(t.pk(), 8);
    EXPECT_EQ(t.warps(), 4);
}

// ------------------------------------------------------ induced layout ----

struct LayoutParam
{
    int bits;
    int k_rows;
    int n_cols;
};

class InducedLayoutP : public ::testing::TestWithParam<LayoutParam>
{
  protected:
    WarpTiling tiling_;
};

TEST_P(InducedLayoutP, SlotsAreBijective)
{
    const auto [bits, k_rows, n_cols] = GetParam();
    const InducedLayout lay(tiling_, bits, k_rows, n_cols);
    std::set<std::size_t> slots;
    for (int kt = 0; kt < lay.numKTiles(); kt++)
        for (int ng = 0; ng < lay.numNGroups(); ng++)
            for (int lane = 0; lane < sim::kWarpSize; lane++)
                for (int pr = 0; pr < lay.pairsPerLane(); pr++)
                    slots.insert(lay.unitSlot({kt, ng, lane, pr}));
    EXPECT_EQ(slots.size(), lay.numUnits());
    EXPECT_EQ(*slots.rbegin(), lay.numUnits() - 1);
}

TEST_P(InducedLayoutP, CodeCoordsCoverTheMatrixOnce)
{
    const auto [bits, k_rows, n_cols] = GetParam();
    const InducedLayout lay(tiling_, bits, k_rows, n_cols);
    Tensor<int> hits({static_cast<std::size_t>(k_rows),
                      static_cast<std::size_t>(n_cols)});
    for (int kt = 0; kt < lay.numKTiles(); kt++) {
        for (int ng = 0; ng < lay.numNGroups(); ng++) {
            for (int lane = 0; lane < sim::kWarpSize; lane++) {
                for (int pr = 0; pr < lay.pairsPerLane(); pr++) {
                    for (int i = 0; i < lay.codesPerUnit(); i++) {
                        const auto c = lay.codeCoord({kt, ng, lane, pr}, i);
                        hits.at(static_cast<std::size_t>(c.row),
                                static_cast<std::size_t>(c.col))++;
                    }
                }
            }
        }
    }
    for (std::size_t i = 0; i < hits.numel(); i++)
        EXPECT_EQ(hits[i], 1);
}

TEST_P(InducedLayoutP, LocateInvertsCodeCoord)
{
    const auto [bits, k_rows, n_cols] = GetParam();
    const InducedLayout lay(tiling_, bits, k_rows, n_cols);
    Rng rng(51);
    for (int trial = 0; trial < 200; trial++) {
        const int row = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(k_rows)));
        const int col = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(n_cols)));
        UnitId id;
        int code;
        lay.locate(row, col, id, code);
        const auto c = lay.codeCoord(id, code);
        EXPECT_EQ(c.row, row);
        EXPECT_EQ(c.col, col);
    }
}

TEST_P(InducedLayoutP, PackUnpackIdentity)
{
    const auto [bits, k_rows, n_cols] = GetParam();
    const InducedLayout lay(tiling_, bits, k_rows, n_cols);
    Rng rng(52);
    Tensor<std::uint8_t> codes({static_cast<std::size_t>(k_rows),
                                static_cast<std::size_t>(n_cols)});
    for (std::size_t i = 0; i < codes.numel(); i++)
        codes[i] = static_cast<std::uint8_t>(rng.uniformInt(1u << bits));
    const auto units = packInduced(lay, codes);
    EXPECT_EQ(units.size(), lay.numUnits());
    const Tensor<std::uint8_t> back = unpackInduced(lay, units);
    for (std::size_t i = 0; i < codes.numel(); i++)
        EXPECT_EQ(back[i], codes[i]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InducedLayoutP,
    ::testing::Values(LayoutParam{4, 128, 128}, LayoutParam{4, 64, 256},
                      LayoutParam{2, 128, 256}, LayoutParam{2, 32, 64},
                      LayoutParam{4, 16, 32}));

TEST(InducedLayout, ContinuousPackingMisaligns)
{
    // Fig. 3b as a property: codes packed in naive row-major order, when
    // read back through the induced-layout reader, land at the wrong
    // coordinates.
    WarpTiling tiling;
    const InducedLayout lay(tiling, 4, 32, 32);
    Rng rng(53);
    Tensor<std::uint8_t> codes({32, 32});
    for (std::size_t i = 0; i < codes.numel(); i++)
        codes[i] = static_cast<std::uint8_t>(rng.uniformInt(16));
    const auto naive = layout::packContinuous(4, codes);
    ASSERT_EQ(naive.size(), lay.numUnits()); // same storage budget
    const Tensor<std::uint8_t> misread = unpackInduced(lay, naive);
    int mismatches = 0;
    for (std::size_t i = 0; i < codes.numel(); i++)
        mismatches += misread[i] != codes[i];
    EXPECT_GT(mismatches, static_cast<int>(codes.numel()) / 2);
}

TEST(InducedLayout, RejectsMisalignedShapes)
{
    WarpTiling tiling;
    EXPECT_DEATH(InducedLayout(tiling, 4, 100, 128), "multiple");
    EXPECT_DEATH(InducedLayout(tiling, 4, 128, 100), "multiple");
}

// -------------------------------------------------- fp16 / packed caches ----

TEST(Fp16Cache, AppendAndGrow)
{
    kv::Fp16HeadCache cache(8);
    for (int t = 0; t < 200; t++) {
        std::vector<Half> k(8, Half(static_cast<float>(t)));
        std::vector<Half> v(8, Half(static_cast<float>(-t)));
        cache.append(k, v);
    }
    EXPECT_EQ(cache.length(), 200);
    EXPECT_EQ(cache.keys().at(150, 0).toFloat(), 150.0f);
    EXPECT_EQ(cache.values().at(199, 7).toFloat(), -199.0f);
    EXPECT_EQ(cache.deviceBytes(), 2.0 * 200 * 8 * 2);
}

class PackedCacheP
    : public ::testing::TestWithParam<std::pair<int, quant::Granularity>>
{
};

TEST_P(PackedCacheP, PartitionInvariants)
{
    const auto [bits, gran] = GetParam();
    quant::QuantConfig qc;
    qc.bits = bits;
    qc.key_granularity = gran;
    qc.group_size = 32;
    WarpTiling tiling;
    kv::PackedHeadCache cache(64, qc, tiling);
    const int nr = cache.residualBlockSize();
    EXPECT_EQ(nr, residualBlockSize(tiling, bits));

    Rng rng(61);
    const int total = nr * 2 + nr / 2; // two full blocks and a tail
    for (int t = 0; t < total; t++) {
        std::vector<Half> k(64), v(64);
        for (int d = 0; d < 64; d++) {
            k[static_cast<std::size_t>(d)] = Half(rng.normal());
            v[static_cast<std::size_t>(d)] = Half(rng.normal());
        }
        cache.append(k, v);
        // Invariant: len = packed + residual, residual < Nr.
        EXPECT_EQ(cache.length(), t + 1);
        EXPECT_LT(cache.residualLength(), nr);
        EXPECT_EQ(cache.packedTokens() % nr, 0);
    }
    EXPECT_EQ(cache.packedTokens(), nr * 2);
    EXPECT_EQ(cache.residualLength(), nr / 2);
    EXPECT_EQ(cache.keyBlocks().size(), 2u);
}

TEST_P(PackedCacheP, DequantizeAllWithinQuantBound)
{
    const auto [bits, gran] = GetParam();
    quant::QuantConfig qc;
    qc.bits = bits;
    qc.key_granularity = gran;
    qc.group_size = 32;
    WarpTiling tiling;
    kv::PackedHeadCache cache(64, qc, tiling);
    const int nr = cache.residualBlockSize();

    Rng rng(62);
    Tensor<Half> k({static_cast<std::size_t>(nr + 16), 64});
    Tensor<Half> v({static_cast<std::size_t>(nr + 16), 64});
    for (std::size_t i = 0; i < k.numel(); i++) {
        k[i] = Half(rng.normal());
        v[i] = Half(rng.normal());
    }
    cache.prefill(k, v);

    Tensor<Half> kd, vd;
    cache.dequantizeAll(kd, vd);
    ASSERT_EQ(kd.dim(0), k.dim(0));
    const float step = 9.0f / static_cast<float>((1 << bits) - 1);
    for (std::size_t t = 0; t < k.dim(0); t++) {
        for (std::size_t d = 0; d < 64; d++) {
            EXPECT_NEAR(kd.at(t, d).toFloat(), k.at(t, d).toFloat(), step);
            EXPECT_NEAR(vd.at(t, d).toFloat(), v.at(t, d).toFloat(), step);
        }
    }
    // Residual rows are stored losslessly.
    for (std::size_t t = static_cast<std::size_t>(nr); t < k.dim(0); t++)
        for (std::size_t d = 0; d < 64; d++)
            EXPECT_EQ(kd.at(t, d).bits(), k.at(t, d).bits());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackedCacheP,
    ::testing::Values(std::pair{4, quant::Granularity::ChannelWise},
                      std::pair{4, quant::Granularity::TensorWise},
                      std::pair{2, quant::Granularity::ChannelWise},
                      std::pair{2, quant::Granularity::TensorWise}));

TEST(PackedCache, MemorySmallerThanFp16)
{
    quant::QuantConfig qc;
    qc.bits = 4;
    qc.group_size = 32;
    WarpTiling tiling;
    kv::PackedHeadCache packed(128, qc, tiling);
    kv::Fp16HeadCache fp16(128);
    Rng rng(63);
    for (int t = 0; t < 1024; t++) {
        std::vector<Half> k(128), v(128);
        for (int d = 0; d < 128; d++) {
            k[static_cast<std::size_t>(d)] = Half(rng.normal());
            v[static_cast<std::size_t>(d)] = Half(rng.normal());
        }
        packed.append(k, v);
        fp16.append(k, v);
    }
    EXPECT_LT(packed.deviceBytes(), fp16.deviceBytes() * 0.5);
    EXPECT_GT(packed.metadataBytes(), 0.0);
}

TEST(PackedCache, HostBytesEqualDeviceBytes)
{
    // A sealed block holds only what the device stores (words + params):
    // at d = 128 that is 160 B/token at 4 bits and 96 at 2 bits, against
    // 512 for FP16.
    for (const auto& [bits, per_token] : {std::pair{4, 160.0},
                                          std::pair{2, 96.0}}) {
        quant::QuantConfig qc;
        qc.bits = bits;
        kv::PackedHeadCache packed(128, qc, WarpTiling{});
        const double residual = 2.0 * packed.residualBlockSize() * 128 * 2;
        EXPECT_EQ(packed.hostBytes(), residual) << "bits=" << bits;
        Rng rng(64);
        std::vector<Half> k(128), v(128);
        for (int t = 0; t < 3 * packed.residualBlockSize() + 5; t++) {
            for (int d = 0; d < 128; d++) {
                k[static_cast<std::size_t>(d)] = Half(rng.normal());
                v[static_cast<std::size_t>(d)] = Half(rng.normal());
            }
            packed.append(k, v);
        }
        ASSERT_EQ(packed.packedTokens(), 3 * packed.residualBlockSize());
        EXPECT_EQ(packed.hostBytes(), packed.deviceBytes()) << "bits=" << bits;
        EXPECT_EQ((packed.hostBytes() - residual) / packed.packedTokens(),
                  per_token)
            << "bits=" << bits;
    }
}

TEST(PackedCache, LinearPlanGroupRunsArePinned)
{
    // The AVX-512 dequant looks a whole vector's values up with one
    // permute of its group's row only when 16 aligned destinations share
    // a group; a plan that lost its runs would silently gather instead.
    // Channel-wise keys run along tokens in the channel-major K tile and
    // values along channels; tensor-wise keys change group every token.
    // The plan's arrays start on a cache line, so no vector load of them
    // splits across two.
    const auto on_line = [](const exec::simd::LinearDequantPlan& p) {
        for (const void* a : {static_cast<const void*>(p.unit.data()),
                              static_cast<const void*>(p.shift.data()),
                              static_cast<const void*>(p.param.data())})
            if (reinterpret_cast<std::uintptr_t>(a) % kCacheLineBytes != 0)
                return false;
        return true;
    };
    for (int d : {64, 128}) {
        for (int bits : {2, 4}) {
            for (const auto& [gran, key_run] :
                 {std::pair{quant::Granularity::ChannelWise, 16},
                  std::pair{quant::Granularity::TensorWise, 1}}) {
                quant::QuantConfig qc;
                qc.bits = bits;
                qc.key_granularity = gran;
                const kv::PackedHeadCache cache(d, qc, WarpTiling{});
                EXPECT_EQ(cache.keyLinearPlan().group_run, key_run)
                    << "d=" << d << " bits=" << bits;
                EXPECT_EQ(cache.valueLinearPlan().group_run, 16)
                    << "d=" << d << " bits=" << bits;
                EXPECT_TRUE(on_line(cache.keyLinearPlan()) &&
                            on_line(cache.valueLinearPlan()));
            }
        }
    }
}

// ------------------------------------------------------ one-pass seal ----

/**
 * One [rows x d] block of pattern @p kind, each aimed at a corner of
 * quantizeMatrix's arithmetic: constant token rows (every tensor-wise
 * group constant) or channel columns (every channel-wise group), signed
 * zeros, subnormal and +-65504 halves, subnormal-only blocks (scales
 * that round to zero), ranges far from zero (zero-points outside
 * [0, qmax]), and inf/NaN, with NaN also first in some groups.
 */
Tensor<Half>
sealInput(int kind, int rows, int d, int group, Rng& rng)
{
    Tensor<Half> x({static_cast<std::size_t>(rows),
                    static_cast<std::size_t>(d)});
    const auto sub = [&] {
        const auto m = static_cast<std::uint16_t>(1 + rng.uniformInt(1023));
        return Half::fromBits(
            static_cast<std::uint16_t>(m | (rng.uniformInt(2) << 15)));
    };
    const std::uint16_t specials[] = {0x7C00, 0xFC00, 0x7E00, 0x7C01,
                                      0xFE00, 0x7D55};
    std::vector<float> row_v(static_cast<std::size_t>(rows));
    std::vector<float> col_v(static_cast<std::size_t>(d));
    for (float& r : row_v)
        r = rng.normal();
    for (float& c : col_v)
        c = rng.normal();
    for (int t = 0; t < rows; t++) {
        for (int c = 0; c < d; c++) {
            Half h;
            switch (kind) {
            case 0: h = Half(rng.normal()); break;
            case 1: h = Half(row_v[static_cast<std::size_t>(t)]); break;
            case 2: h = Half(col_v[static_cast<std::size_t>(c)]); break;
            case 3: {
                const std::uint32_t r = rng.uniformInt(10);
                h = r < 9 ? Half::fromBits(r % 2 ? 0x8000 : 0)
                          : Half(0.01f * rng.normal());
                break;
            }
            case 4: {
                const std::uint32_t r = rng.uniformInt(4);
                h = r == 0   ? sub()
                    : r == 1 ? Half(rng.uniformInt(2) ? 65504.f : -65504.f)
                             : Half(rng.normal());
                break;
            }
            case 5: h = sub(); break;
            case 6:
                h = Half(0.1f * rng.normal() +
                         (t % 2 ? 1.f : -1.f) *
                             (c % 3 == 0 ? 1000.f : 12.f));
                break;
            default: {
                const bool first = (t % group == 0 && c % 5 == 0) ||
                                   (c % group == 0 && t % 7 == 0);
                h = first || rng.uniformInt(16) == 0
                        ? Half::fromBits(specials[rng.uniformInt(6)])
                        : Half(rng.normal());
                break;
            }
            }
            x.at(static_cast<std::size_t>(t), static_cast<std::size_t>(c)) =
                h;
        }
    }
    return x;
}

struct SealCase
{
    int bits;
    quant::Granularity gran;
    int group;
    int d;
    sim::MmaShape mma;
    int wn;
};

void
PrintTo(const SealCase& c, std::ostream* os)
{
    *os << quant::granularityCode(c.gran) << "-" << c.bits << " group "
        << c.group << " d " << c.d << " k"
        << (c.mma == sim::MmaShape::M16N8K16 ? 16 : 8) << " wn " << c.wn;
}

class SealSweepP : public ::testing::TestWithParam<SealCase>
{
};

TEST_P(SealSweepP, SealedBlocksEqualPackBlockAtEveryLevel)
{
    // The cache's one-pass seal at every supported level against the
    // reference chain (quantizeMatrix + packInduced), block by block over
    // every input pattern.
    constexpr int kKinds = 8;
    const SealCase sc = GetParam();
    quant::QuantConfig qc;
    qc.bits = sc.bits;
    qc.key_granularity = sc.gran;
    qc.group_size = sc.group;
    WarpTiling tiling;
    tiling.mma = sc.mma;
    tiling.wn = sc.wn;
    const int nr = residualBlockSize(tiling, sc.bits);
    const InducedLayout klay(tiling, sc.bits, sc.d, nr);
    const InducedLayout vlay(tiling, sc.bits, nr, sc.d);

    Rng rng(static_cast<std::uint64_t>(sc.bits * 1000 + sc.d + sc.group));
    std::vector<kv::PackedBlock> want_k(kKinds), want_v(kKinds);
    Tensor<Half> k({static_cast<std::size_t>(kKinds * nr),
                    static_cast<std::size_t>(sc.d)});
    Tensor<Half> v({k.dim(0), k.dim(1)});
    const std::size_t block = static_cast<std::size_t>(nr * sc.d);
    for (int kind = 0; kind < kKinds; kind++) {
        const Tensor<Half> kb = sealInput(kind, nr, sc.d, sc.group, rng);
        const Tensor<Half> vb = sealInput(kind, nr, sc.d, sc.group, rng);
        kv::packBlock(kb, vb, qc, klay, vlay,
                      want_k[static_cast<std::size_t>(kind)],
                      want_v[static_cast<std::size_t>(kind)]);
        std::copy(kb.data(), kb.data() + block,
                  k.data() + static_cast<std::size_t>(kind) * block);
        std::copy(vb.data(), vb.data() + block,
                  v.data() + static_cast<std::size_t>(kind) * block);
    }

    const auto words = [](const Tensor<Half2>& p) {
        std::vector<std::uint32_t> w;
        for (std::size_t i = 0; i < p.numel(); i++)
            w.push_back(p[i].toWord());
        return w;
    };
    int levels = 0;
    for (Level l : {Level::Scalar, Level::Avx2, Level::Avx512}) {
        if (!exec::simd::levelSupported(l))
            continue;
        levels++;
        const ScopedSimdEnv env(exec::simd::toString(l));
        kv::PackedHeadCache cache(sc.d, qc, tiling);
        cache.prefill(k, v);
        ASSERT_EQ(cache.keyBlocks().size(), static_cast<std::size_t>(kKinds));
        for (std::size_t b = 0; b < static_cast<std::size_t>(kKinds); b++) {
            const kv::PackedBlock& gk = cache.keyBlocks()[b];
            const kv::PackedBlock& gv = cache.valueBlocks()[b];
            EXPECT_EQ(gk.units, want_k[b].units)
                << exec::simd::toString(l) << " K kind " << b;
            EXPECT_EQ(gv.units, want_v[b].units)
                << exec::simd::toString(l) << " V kind " << b;
            EXPECT_EQ(gk.params.dim(0), want_k[b].params.dim(0));
            EXPECT_EQ(gk.params.dim(1), want_k[b].params.dim(1));
            EXPECT_EQ(words(gk.params), words(want_k[b].params))
                << exec::simd::toString(l) << " K params kind " << b;
            EXPECT_EQ(words(gv.params), words(want_v[b].params))
                << exec::simd::toString(l) << " V params kind " << b;
        }
    }
    EXPECT_GE(levels, 1);
}

std::vector<SealCase>
sealCases()
{
    std::vector<SealCase> cases;
    for (int bits : {2, 4})
        for (quant::Granularity g : {quant::Granularity::ChannelWise,
                                     quant::Granularity::TensorWise})
            for (int group : {32, 64})
                for (int d : {64, 128, 256})
                    for (const auto& [mma, wn] :
                         {std::pair{sim::MmaShape::M16N8K16, 4},
                          std::pair{sim::MmaShape::M16N8K8, 2}})
                        cases.push_back({bits, g, group, d, mma, wn});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, SealSweepP, ::testing::ValuesIn(sealCases()));

TEST(PackedCache, PrefillEqualsAppends)
{
    // prefill of N tokens leaves exactly the cache N appends leave: the
    // same blocks, params and residual, and the same fused-packed bytes;
    // so does a prefill that first tops up a partly filled residual.
    const backend::AttentionBackend& be =
        backend::BackendRegistry::instance().resolve("fused-packed");
    for (int bits : {4, 2}) {
        for (quant::Granularity g : {quant::Granularity::ChannelWise,
                                     quant::Granularity::TensorWise}) {
            quant::QuantConfig qc;
            qc.bits = bits;
            qc.key_granularity = g;
            const int d = 64;
            kv::PackedHeadCache prefilled(d, qc, WarpTiling{});
            kv::PackedHeadCache appended(d, qc, WarpTiling{});
            kv::PackedHeadCache topped(d, qc, WarpTiling{});
            const int nr = prefilled.residualBlockSize();
            const int n = 3 * nr + nr / 2 + 3;
            Rng rng(static_cast<std::uint64_t>(bits) + 90);
            Tensor<Half> k({static_cast<std::size_t>(n),
                            static_cast<std::size_t>(d)});
            Tensor<Half> v({k.dim(0), k.dim(1)});
            for (std::size_t i = 0; i < k.numel(); i++) {
                k[i] = Half(rng.normal());
                v[i] = Half(rng.normal());
            }
            prefilled.prefill(k, v);
            const int head = 5;
            Tensor<Half> kt({static_cast<std::size_t>(n - head),
                             static_cast<std::size_t>(d)});
            Tensor<Half> vt({kt.dim(0), kt.dim(1)});
            for (int t = 0; t < n; t++) {
                std::vector<Half> kr(static_cast<std::size_t>(d));
                std::vector<Half> vr(kr.size());
                for (int c = 0; c < d; c++) {
                    const auto at = [&](const Tensor<Half>& x) {
                        return x.at(static_cast<std::size_t>(t),
                                    static_cast<std::size_t>(c));
                    };
                    kr[static_cast<std::size_t>(c)] = at(k);
                    vr[static_cast<std::size_t>(c)] = at(v);
                    if (t >= head) {
                        kt.at(static_cast<std::size_t>(t - head),
                              static_cast<std::size_t>(c)) = at(k);
                        vt.at(static_cast<std::size_t>(t - head),
                              static_cast<std::size_t>(c)) = at(v);
                    }
                }
                appended.append(kr, vr);
                if (t < head)
                    topped.append(kr, vr);
            }
            topped.prefill(kt, vt);

            Tensor<Half> q({4, static_cast<std::size_t>(d)});
            for (std::size_t i = 0; i < q.numel(); i++)
                q[i] = Half(rng.normal());
            const auto digest = [&](const kv::PackedHeadCache& c) {
                backend::DecodeBatch b;
                b.items.push_back(backend::packedItem(q, c));
                b.scale = 0.125f;
                return be.digest(b);
            };
            for (const kv::PackedHeadCache* c : {&prefilled, &topped}) {
                ASSERT_EQ(c->packedTokens(), appended.packedTokens());
                ASSERT_EQ(c->residualLength(), appended.residualLength());
                ASSERT_EQ(c->keyBlocks().size(), 3u);
                const auto same = [](const kv::PackedBlock& x,
                                     const kv::PackedBlock& y) {
                    EXPECT_EQ(x.units, y.units);
                    ASSERT_EQ(x.params.numel(), y.params.numel());
                    for (std::size_t i = 0; i < x.params.numel(); i++)
                        EXPECT_EQ(x.params[i].toWord(), y.params[i].toWord());
                };
                for (std::size_t b = 0; b < 3; b++) {
                    same(c->keyBlocks()[b], appended.keyBlocks()[b]);
                    same(c->valueBlocks()[b], appended.valueBlocks()[b]);
                }
                const std::size_t live = static_cast<std::size_t>(
                    appended.residualLength() * d);
                EXPECT_TRUE(std::equal(
                    c->residualKeys().data(), c->residualKeys().data() + live,
                    appended.residualKeys().data(),
                    [](Half a, Half b) { return a.bits() == b.bits(); }));
                EXPECT_TRUE(std::equal(
                    c->residualValues().data(),
                    c->residualValues().data() + live,
                    appended.residualValues().data(),
                    [](Half a, Half b) { return a.bits() == b.bits(); }));
                EXPECT_EQ(digest(*c), digest(appended))
                    << "bits=" << bits << " " << quant::granularityCode(g);
            }
        }
    }
}

// -------------------------------------------- residual kernel induction ----

TEST(ResidualKernel, WarpPackMatchesCanonicalPackBytesKC4)
{
    // THE layout-induction theorem, executable: per-lane fragment packing
    // produces byte-identical units to the canonical induced pack.
    quant::QuantConfig qc;
    qc.bits = 4;
    qc.key_granularity = quant::Granularity::ChannelWise;
    qc.group_size = 32;
    WarpTiling tiling;
    const int nr = residualBlockSize(tiling, qc.bits);
    const int d = 64;
    layout::InducedLayout klay(tiling, qc.bits, d, nr);
    layout::InducedLayout vlay(tiling, qc.bits, nr, d);

    Rng rng(71);
    Tensor<Half> kb({static_cast<std::size_t>(nr), static_cast<std::size_t>(d)});
    Tensor<Half> vb({static_cast<std::size_t>(nr), static_cast<std::size_t>(d)});
    for (std::size_t i = 0; i < kb.numel(); i++) {
        kb[i] = Half(rng.normal());
        vb[i] = Half(rng.normal());
    }

    kv::PackedBlock canon_k, canon_v;
    kv::packBlock(kb, vb, qc, klay, vlay, canon_k, canon_v);

    const kv::PackedBlock warp_k =
        core::residualKernelPackKeys(kb, qc, klay);
    const kv::PackedBlock warp_v =
        core::residualKernelPackValues(vb, qc, vlay);

    ASSERT_EQ(warp_k.units.size(), canon_k.units.size());
    EXPECT_EQ(warp_k.units, canon_k.units);
    EXPECT_EQ(warp_v.units, canon_v.units);
    for (std::size_t i = 0; i < canon_k.params.numel(); i++)
        EXPECT_EQ(warp_k.params[i].toWord(), canon_k.params[i].toWord());
}

TEST(ResidualKernel, WarpPackMatchesCanonicalPackBytesKT2)
{
    quant::QuantConfig qc;
    qc.bits = 2;
    qc.key_granularity = quant::Granularity::TensorWise;
    qc.group_size = 32;
    WarpTiling tiling;
    const int nr = residualBlockSize(tiling, qc.bits);
    const int d = 64;
    layout::InducedLayout klay(tiling, qc.bits, d, nr);
    layout::InducedLayout vlay(tiling, qc.bits, nr, d);

    Rng rng(72);
    Tensor<Half> kb({static_cast<std::size_t>(nr), static_cast<std::size_t>(d)});
    Tensor<Half> vb({static_cast<std::size_t>(nr), static_cast<std::size_t>(d)});
    for (std::size_t i = 0; i < kb.numel(); i++) {
        kb[i] = Half(rng.normal());
        vb[i] = Half(rng.normal());
    }
    kv::PackedBlock canon_k, canon_v;
    kv::packBlock(kb, vb, qc, klay, vlay, canon_k, canon_v);
    EXPECT_EQ(core::residualKernelPackKeys(kb, qc, klay).units,
              canon_k.units);
    EXPECT_EQ(core::residualKernelPackValues(vb, qc, vlay).units,
              canon_v.units);
}

TEST(ResidualKernel, WarpMinMaxMatchesDirect)
{
    sim::WarpVar<float> mn{}, mx{};
    Rng rng(73);
    for (int lane = 0; lane < sim::kWarpSize; lane++) {
        mn[static_cast<std::size_t>(lane)] = rng.normal();
        mx[static_cast<std::size_t>(lane)] =
            mn[static_cast<std::size_t>(lane)];
    }
    sim::WarpVar<float> rmin{}, rmax{};
    core::warpGroupMinMax(mn, mx, {4, 8, 16}, rmin, rmax);
    // Masks {4, 8, 16} reduce across the ldmatrix column groups: lanes
    // sharing (lane % 4) end with the group's min/max.
    for (int t = 0; t < 4; t++) {
        float want_min = 1e30f, want_max = -1e30f;
        for (int g = 0; g < 8; g++) {
            want_min = std::min(want_min,
                                mn[static_cast<std::size_t>(g * 4 + t)]);
            want_max = std::max(want_max,
                                mx[static_cast<std::size_t>(g * 4 + t)]);
        }
        for (int g = 0; g < 8; g++) {
            EXPECT_EQ(rmin[static_cast<std::size_t>(g * 4 + t)], want_min);
            EXPECT_EQ(rmax[static_cast<std::size_t>(g * 4 + t)], want_max);
        }
    }
}

// -------------------------------------------------------------- paging ----

TEST(PageAllocator, AllocateReleaseCycle)
{
    kv::PageAllocator alloc(4);
    EXPECT_EQ(alloc.freePages(), 4);
    const auto p0 = alloc.allocate();
    ASSERT_TRUE(p0.has_value());
    EXPECT_EQ(alloc.freePages(), 3);
    alloc.release(*p0);
    EXPECT_EQ(alloc.freePages(), 4);
}

TEST(PageAllocator, ExhaustionReturnsNullopt)
{
    kv::PageAllocator alloc(2);
    EXPECT_TRUE(alloc.allocate().has_value());
    EXPECT_TRUE(alloc.allocate().has_value());
    EXPECT_FALSE(alloc.allocate().has_value());
}

TEST(PageAllocator, DoubleFreePanics)
{
    kv::PageAllocator alloc(2);
    const auto p = alloc.allocate();
    alloc.release(*p);
    EXPECT_DEATH(alloc.release(*p), "double free");
}

TEST(PagedCache, GatherReconstructsSequences)
{
    kv::PagedHeadCache cache(8, 4, 16); // d=8, 4 tokens/page, 16 pages
    const int s0 = cache.addSequence();
    const int s1 = cache.addSequence();
    for (int t = 0; t < 10; t++) {
        std::vector<Half> k(8, Half(static_cast<float>(t)));
        std::vector<Half> v(8, Half(static_cast<float>(t) * 2));
        ASSERT_TRUE(cache.append(s0, k, v));
        if (t < 5) {
            std::vector<Half> k1(8, Half(static_cast<float>(100 + t)));
            ASSERT_TRUE(cache.append(s1, k1, v));
        }
    }
    EXPECT_EQ(cache.length(s0), 10);
    EXPECT_EQ(cache.length(s1), 5);
    EXPECT_EQ(cache.pageTable(s0).size(), 3u); // ceil(10/4)
    const Tensor<Half> k0 = cache.gatherKeys(s0);
    for (int t = 0; t < 10; t++)
        EXPECT_EQ(k0.at(static_cast<std::size_t>(t), 0).toFloat(),
                  static_cast<float>(t));
    const Tensor<Half> k1 = cache.gatherKeys(s1);
    EXPECT_EQ(k1.at(4, 0).toFloat(), 104.0f);
}

TEST(PagedCache, OomWhenPoolExhausted)
{
    kv::PagedHeadCache cache(4, 2, 2); // only 4 tokens total
    const int s = cache.addSequence();
    std::vector<Half> k(4), v(4);
    EXPECT_TRUE(cache.append(s, k, v));
    EXPECT_TRUE(cache.append(s, k, v));
    EXPECT_TRUE(cache.append(s, k, v));
    EXPECT_TRUE(cache.append(s, k, v));
    EXPECT_FALSE(cache.append(s, k, v)); // fifth token needs a third page
}

TEST(PagedCache, RemoveSequenceRecyclesPages)
{
    kv::PagedHeadCache cache(4, 2, 2);
    const int s = cache.addSequence();
    std::vector<Half> k(4), v(4);
    cache.append(s, k, v);
    cache.append(s, k, v);
    cache.append(s, k, v);
    EXPECT_EQ(cache.freePages(), 0);
    cache.removeSequence(s);
    EXPECT_EQ(cache.freePages(), 2);
    const int s2 = cache.addSequence();
    EXPECT_EQ(s2, s); // slot reuse
    EXPECT_TRUE(cache.append(s2, k, v));
}

} // namespace
} // namespace bitdec
