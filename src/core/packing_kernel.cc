#include "core/packing_kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "attention/reference.h"
#include "common/logging.h"
#include "core/query_transform.h"
#include "exec/dequant_plan.h"
#include "exec/fused_attention.h"
#include "exec/simd/dispatch.h"
#include "gpusim/fragment.h"
#include "quant/fast_dequant.h"

namespace bitdec::core {

namespace {

using sim::FragmentLayout;
using sim::MmaShape;
using sim::Operand;
using sim::WarpFragment;

/** Dequantizes one magic-biased half with folded scale/zero (device FMA). */
float
dequantMagic(Half magic, const quant::QuantParams& p)
{
    const float s = p.scale.toFloat();
    const Half neg_bias(-(1024.0f + p.zero.toFloat()) * s);
    return Half(magic.toFloat() * s + neg_bias.toFloat()).toFloat();
}

/** Key-tensor quantization parameters for element (token, channel). */
quant::QuantParams
keyParams(const kv::PackedBlock& blk, const quant::QuantConfig& cfg, int token,
          int channel)
{
    if (cfg.key_granularity == quant::Granularity::TensorWise) {
        return quant::QuantParams::fromHalf2(blk.params.at(
            static_cast<std::size_t>(token),
            static_cast<std::size_t>(channel / cfg.group_size)));
    }
    return quant::QuantParams::fromHalf2(blk.params.at(
        static_cast<std::size_t>(token / cfg.group_size),
        static_cast<std::size_t>(channel)));
}

/** Value-tensor parameters (always tensor-wise per token). */
quant::QuantParams
valueParams(const kv::PackedBlock& blk, const quant::QuantConfig& cfg,
            int token, int channel)
{
    return quant::QuantParams::fromHalf2(
        blk.params.at(static_cast<std::size_t>(token),
                      static_cast<std::size_t>(channel / cfg.group_size)));
}

/**
 * Builds the B fragment of one MMA tile by extracting and dequantizing the
 * packed units of the induced layout — the ldmatrix + lop3 + FMA register
 * path. Tile p of group @p ngroup at K tile @p ktile.
 *
 * @param param_of (row, col) -> QuantParams for the B operand coordinate
 */
template <typename ParamFn>
WarpFragment<Half>
dequantBFragment(const layout::InducedLayout& lay,
                 const std::vector<std::uint32_t>& units, int ktile,
                 int ngroup, int p, ParamFn param_of)
{
    WarpFragment<Half> frag = sim::makeFragment<Half>();
    for (int lane = 0; lane < sim::kWarpSize; lane++) {
        for (int pair = 0; pair < lay.pairsPerLane(); pair++) {
            const layout::UnitId id{ktile, ngroup, lane, pair};
            const std::uint32_t word = units[lay.unitSlot(id)];
            // One lop3 extraction yields the half2 register of this pair.
            const std::uint32_t h2 =
                quant::extractMagicPair(word, p, lay.bits());
            const Half lo =
                Half::fromBits(static_cast<std::uint16_t>(h2 & 0xFFFF));
            const Half hi =
                Half::fromBits(static_cast<std::uint16_t>(h2 >> 16));
            const layout::CodeCoord c_lo = lay.codeCoord(id, 2 * p);
            const layout::CodeCoord c_hi = lay.codeCoord(id, 2 * p + 1);
            // Fragment elements: (pair*2, pair*2+1) hold rows (2t, 2t+1)
            // of the 8-row half selected by 'pair' — the mma B layout.
            frag[static_cast<std::size_t>(lane)]
                [static_cast<std::size_t>(2 * pair)] =
                Half(dequantMagic(lo, param_of(c_lo.row, c_lo.col)));
            frag[static_cast<std::size_t>(lane)]
                [static_cast<std::size_t>(2 * pair + 1)] =
                Half(dequantMagic(hi, param_of(c_hi.row, c_hi.col)));
        }
    }
    return frag;
}

/** Verifies a dequantized B fragment against mma's expected coordinates. */
bool
fragmentMatchesLayout(const FragmentLayout& bl, const WarpFragment<Half>& frag,
                      const Tensor<Half>& expected, int row0, int col0)
{
    for (int lane = 0; lane < sim::kWarpSize; lane++) {
        for (int e = 0; e < bl.eltsPerLane(); e++) {
            const sim::Coord c = bl.coordOf(lane, e);
            const Half want = expected.at(static_cast<std::size_t>(row0 + c.row),
                                          static_cast<std::size_t>(col0 + c.col));
            const Half got = frag[static_cast<std::size_t>(lane)]
                                 [static_cast<std::size_t>(e)];
            if (want.bits() != got.bits())
                return false;
        }
    }
    return true;
}

/**
 * Dequantizes one packed block through a SIMD kernel table: the block's
 * group values from its params (into @p values), then the plan's walk.
 */
void
dequantLinear(const exec::simd::KernelTable& kt, const kv::PackedBlock& blk,
              const exec::simd::LinearDequantPlan& plan,
              std::vector<float>& values, float* out)
{
    const std::size_t n_groups = blk.params.numel();
    const std::size_t need =
        (n_groups << plan.bits) + exec::simd::kGroupValuesPad;
    if (values.size() < need)
        values.resize(need);
    kt.group_values(blk.params.data(), n_groups, plan.bits, values.data());
    kt.dequant_linear(blk.units.data(), plan.unit.data(), plan.shift.data(),
                      plan.param.data(), plan.size(), plan.bits,
                      plan.group_run, values.data(), out);
}

} // namespace

PackingKernelResult
packingKernelAttention(const Tensor<Half>& q_tile,
                       const kv::PackedHeadCache& cache, float scale,
                       const PackingKernelOptions& opts)
{
    const int d = cache.residualKeys().rank() == 2
                      ? static_cast<int>(cache.residualKeys().dim(1))
                      : 0;
    const int gq = static_cast<int>(q_tile.dim(0));
    BITDEC_ASSERT(gq >= 1 && gq <= 16, "query tile must fit one m16 tile");
    BITDEC_ASSERT(static_cast<int>(q_tile.dim(1)) == d, "query width mismatch");

    const layout::WarpTiling& tiling = cache.tiling();
    const quant::QuantConfig& cfg = cache.config();
    const int wn = tiling.wn;
    const int nr = cache.residualBlockSize();
    const int m_tile = 16;
    const MmaShape shape = tiling.mma;
    const FragmentLayout la(shape, Operand::A);
    const FragmentLayout lb(shape, Operand::B);
    const FragmentLayout lc(shape, Operand::C);
    const int pk = tiling.pk();
    const int pn = tiling.pn();

    const Tensor<Half> q_pad = padQueryTile(q_tile, m_tile);

    // Running online-softmax state per query row.
    std::vector<float> run_m(static_cast<std::size_t>(m_tile),
                             -std::numeric_limits<float>::infinity());
    std::vector<float> run_l(static_cast<std::size_t>(m_tile), 0.f);
    Tensor<float> run_o({static_cast<std::size_t>(m_tile),
                         static_cast<std::size_t>(d)});

    bool valid = (wn == 1) || opts.coop_softmax;
    bool layout_ok = true;

    // Pre-load Q fragments per k-tile (registers live across the loop).
    const int k_tiles_d = d / pk;
    std::vector<WarpFragment<Half>> q_frags;
    for (int kt = 0; kt < k_tiles_d; kt++)
        q_frags.push_back(loadFragment(la, q_pad, 0, kt * pk));

    const layout::InducedLayout& klay = cache.keyLayout();
    const layout::InducedLayout& vlay = cache.valueLayout();
    const int r = klay.tilesPerUnit();

    for (std::size_t blk = 0; blk < cache.keyBlocks().size(); blk++) {
        const kv::PackedBlock& kb = cache.keyBlocks()[blk];
        const kv::PackedBlock& vb = cache.valueBlocks()[blk];

        // ---- S = Q K^T over this block: [m_tile x nr]. -------------------
        Tensor<float> s_block({static_cast<std::size_t>(m_tile),
                               static_cast<std::size_t>(nr)});
        const int n_tiles = nr / pn;
        for (int nt = 0; nt < n_tiles; nt++) {
            const int ngroup = nt / r;
            const int p = nt % r;
            WarpFragment<float> acc = sim::makeFragment<float>();
            for (int kt = 0; kt < k_tiles_d; kt++) {
                auto param_of = [&](int row, int col) {
                    // B operand is K^T: row = channel, col = token.
                    return keyParams(kb, cfg, col, row);
                };
                WarpFragment<Half> bfrag = dequantBFragment(
                    klay, kb.units, kt, ngroup, p, param_of);
                if (opts.hopper_smem_path) {
                    // Hopper dataflow: wgmma requires the B operand in
                    // shared memory, so the dequantized registers are
                    // stored with STSM and re-read by wgmma_SS. The round
                    // trip must be the identity for the layout to be valid.
                    const Tensor<Half> smem = fragmentToMatrix(lb, bfrag);
                    const WarpFragment<Half> reloaded =
                        loadFragment(lb, smem, 0, 0);
                    layout_ok = layout_ok &&
                                fragmentMatchesLayout(lb, reloaded, smem, 0, 0);
                    bfrag = reloaded;
                }
                acc = mmaSync(shape, q_frags[static_cast<std::size_t>(kt)],
                              bfrag, acc);
            }
            storeAccumFragment(lc, acc, s_block, 0, nt * pn);
        }
        for (std::size_t i = 0; i < s_block.numel(); i++)
            s_block[i] *= scale;

        // ---- Softmax across warps (Algorithm 1). -------------------------
        // Warp w owns the n-tile columns with (nt % wn) == w.
        Tensor<Half> s_acc({static_cast<std::size_t>(m_tile),
                            static_cast<std::size_t>(nr)}); // sAcc in SMEM
        std::vector<float> block_l(static_cast<std::size_t>(m_tile), 0.f);
        std::vector<float> new_m(static_cast<std::size_t>(m_tile), 0.f);

        if (valid) {
            // Cooperative path: sTMP cross-warp max, then shared P.
            for (int row = 0; row < m_tile; row++) {
                float warp_max[32]; // sTMP: one slot per warp
                for (int w = 0; w < wn; w++) {
                    warp_max[w] = -std::numeric_limits<float>::infinity();
                    for (int nt = w; nt < n_tiles; nt += wn) {
                        for (int cc = 0; cc < pn; cc++) {
                            warp_max[w] = std::max(
                                warp_max[w],
                                s_block.at(static_cast<std::size_t>(row),
                                           static_cast<std::size_t>(
                                               nt * pn + cc)));
                        }
                    }
                }
                float block_max = run_m[static_cast<std::size_t>(row)];
                for (int w = 0; w < wn; w++)
                    block_max = std::max(block_max, warp_max[w]);
                new_m[static_cast<std::size_t>(row)] = block_max;

                float lsum = 0.f;
                for (int col = 0; col < nr; col++) {
                    const float pexp = std::exp(
                        s_block.at(static_cast<std::size_t>(row),
                                   static_cast<std::size_t>(col)) -
                        block_max);
                    // P is written to sAcc in half precision (tiled_copy
                    // r2s), then reloaded for the PV MMA.
                    s_acc.at(static_cast<std::size_t>(row),
                             static_cast<std::size_t>(col)) = Half(pexp);
                    lsum += Half(pexp).toFloat();
                }
                block_l[static_cast<std::size_t>(row)] = lsum;
            }
        } else {
            // Broken path (Table III row 2): each warp normalizes with its
            // own local max and the partial sums merge without rescaling.
            for (int row = 0; row < m_tile; row++) {
                float m_prev = run_m[static_cast<std::size_t>(row)];
                float best = m_prev;
                float lsum = 0.f;
                for (int w = 0; w < wn; w++) {
                    float wmax = -std::numeric_limits<float>::infinity();
                    for (int nt = w; nt < n_tiles; nt += wn)
                        for (int cc = 0; cc < pn; cc++)
                            wmax = std::max(
                                wmax, s_block.at(static_cast<std::size_t>(row),
                                                 static_cast<std::size_t>(
                                                     nt * pn + cc)));
                    best = std::max(best, wmax);
                    for (int nt = w; nt < n_tiles; nt += wn) {
                        for (int cc = 0; cc < pn; cc++) {
                            const float pexp = std::exp(
                                s_block.at(static_cast<std::size_t>(row),
                                           static_cast<std::size_t>(
                                               nt * pn + cc)) -
                                wmax); // wrong: local max, not global
                            s_acc.at(static_cast<std::size_t>(row),
                                     static_cast<std::size_t>(nt * pn + cc)) =
                                Half(pexp);
                            lsum += Half(pexp).toFloat();
                        }
                    }
                }
                new_m[static_cast<std::size_t>(row)] = best;
                block_l[static_cast<std::size_t>(row)] = lsum;
            }
        }

        // ---- O_block = P V via A fragments reloaded from sAcc. -----------
        Tensor<float> o_block({static_cast<std::size_t>(m_tile),
                               static_cast<std::size_t>(d)});
        const int k_tiles_tok = nr / pk;
        const int n_tiles_d = d / pn;
        for (int ntd = 0; ntd < n_tiles_d; ntd++) {
            const int vgroup = ntd / r;
            const int vp = ntd % r;
            WarpFragment<float> acc = sim::makeFragment<float>();
            for (int ktt = 0; ktt < k_tiles_tok; ktt++) {
                const WarpFragment<Half> p_frag =
                    loadFragment(la, s_acc, 0, ktt * pk);
                auto vparam_of = [&](int row, int col) {
                    // B operand is V: row = token, col = channel.
                    return valueParams(vb, cfg, row, col);
                };
                const WarpFragment<Half> v_frag = dequantBFragment(
                    vlay, vb.units, ktt, vgroup, vp, vparam_of);
                acc = mmaSync(shape, p_frag, v_frag, acc);
            }
            storeAccumFragment(lc, acc, o_block, 0, ntd * pn);
        }

        // ---- Online merge with the running state. ------------------------
        for (int row = 0; row < m_tile; row++) {
            const std::size_t rr = static_cast<std::size_t>(row);
            const float rescale =
                run_m[rr] == -std::numeric_limits<float>::infinity()
                    ? 0.f
                    : std::exp(run_m[rr] - new_m[rr]);
            run_l[rr] = run_l[rr] * rescale + block_l[rr];
            for (int c = 0; c < d; c++) {
                run_o.at(rr, static_cast<std::size_t>(c)) =
                    run_o.at(rr, static_cast<std::size_t>(c)) * rescale +
                    o_block.at(rr, static_cast<std::size_t>(c));
            }
            run_m[rr] = new_m[rr];
        }
    }

    // ---- Residual tail: FP16 FlashDecoding-style pass, merged online. ----
    const int res_len = cache.residualLength();
    if (res_len > 0) {
        const Tensor<Half>& kr = cache.residualKeys();
        const Tensor<Half>& vr = cache.residualValues();
        for (int row = 0; row < m_tile; row++) {
            const std::size_t rr = static_cast<std::size_t>(row);
            float bmax = -std::numeric_limits<float>::infinity();
            std::vector<float> logits(static_cast<std::size_t>(res_len));
            for (int t = 0; t < res_len; t++) {
                float s = 0.f;
                for (int c = 0; c < d; c++) {
                    s += q_pad.at(rr, static_cast<std::size_t>(c)).toFloat() *
                         kr.at(static_cast<std::size_t>(t),
                               static_cast<std::size_t>(c))
                             .toFloat();
                }
                logits[static_cast<std::size_t>(t)] = s * scale;
                bmax = std::max(bmax, logits[static_cast<std::size_t>(t)]);
            }
            const float nm = std::max(run_m[rr], bmax);
            const float rescale =
                run_m[rr] == -std::numeric_limits<float>::infinity()
                    ? 0.f
                    : std::exp(run_m[rr] - nm);
            run_l[rr] *= rescale;
            for (int c = 0; c < d; c++)
                run_o.at(rr, static_cast<std::size_t>(c)) *= rescale;
            for (int t = 0; t < res_len; t++) {
                const float pexp =
                    std::exp(logits[static_cast<std::size_t>(t)] - nm);
                run_l[rr] += pexp;
                for (int c = 0; c < d; c++) {
                    run_o.at(rr, static_cast<std::size_t>(c)) +=
                        pexp * vr.at(static_cast<std::size_t>(t),
                                     static_cast<std::size_t>(c))
                                   .toFloat();
                }
            }
            run_m[rr] = nm;
        }
    }

    PackingKernelResult result;
    result.out.reset({static_cast<std::size_t>(m_tile),
                      static_cast<std::size_t>(d)});
    for (int row = 0; row < m_tile; row++) {
        const std::size_t rr = static_cast<std::size_t>(row);
        const float inv = run_l[rr] > 0.f ? 1.0f / run_l[rr] : 0.f;
        for (int c = 0; c < d; c++) {
            result.out.at(rr, static_cast<std::size_t>(c)) =
                run_o.at(rr, static_cast<std::size_t>(c)) * inv;
        }
    }
    result.valid = valid && layout_ok;
    return result;
}

Tensor<float>
fusedPackedAttention(const Tensor<Half>& q_tile,
                     const kv::PackedHeadCache& cache, float scale,
                     exec::ThreadPool* pool)
{
    namespace simd = exec::simd;
    // The host's enabled level (BITDEC_SIMD caps it), resolved once per
    // call; null at scalar, which dequantizes through the route tables.
    const simd::KernelTable* kt = simd::kernels(simd::enabledLevelCap());
    const simd::FoldTileFn fold =
        kt != nullptr ? kt->fold_tile : exec::foldTile;

    const int d = cache.headDim();
    const int gq = static_cast<int>(q_tile.dim(0));
    BITDEC_ASSERT(gq >= 1 && gq <= 16, "query tile must fit one m16 tile");
    BITDEC_ASSERT(static_cast<int>(q_tile.dim(1)) == d, "query width mismatch");
    const int nr = cache.residualBlockSize();
    const int bits = cache.config().bits;
    const std::size_t dd = static_cast<std::size_t>(d);

    // Q converts once, in bulk.
    std::vector<float> qf(static_cast<std::size_t>(gq) * dd);
    toFloat(q_tile.data(), qf.data(), qf.size());

    const auto& k_blocks = cache.keyBlocks();
    const auto& v_blocks = cache.valueBlocks();
    const int n_blocks = static_cast<int>(k_blocks.size());
    const int n_chunks = (n_blocks + kChunkBlocks - 1) / kChunkBlocks;

    exec::SoftmaxPartial run = exec::foldChunks(
        gq, d, static_cast<std::size_t>(n_chunks), pool,
        [&](std::size_t ci, float* m, float* l, float* acc) {
            // Reusable scratch: one dequantized [Nr x d] tile each for K
            // (channel-major) and V, the scalar path's token-major K, the
            // SIMD path's group values and the fold's scratch.
            // Thread-local, grow-only — zero allocations in steady state.
            thread_local std::vector<float> kd, vd, krows, values, s;
            const std::size_t tile = static_cast<std::size_t>(nr) * dd;
            if (kd.size() < tile) {
                kd.resize(tile);
                vd.resize(tile);
            }
            if (kt == nullptr && krows.size() < tile)
                krows.resize(tile);
            const std::size_t scratch = exec::foldScratchFloats(gq, nr);
            if (s.size() < scratch)
                s.resize(scratch);

            const int b0 = static_cast<int>(ci) * kChunkBlocks;
            const int b1 = std::min(n_blocks, b0 + kChunkBlocks);
            for (int blk = b0; blk < b1; blk++) {
                const kv::PackedBlock& kb =
                    k_blocks[static_cast<std::size_t>(blk)];
                const kv::PackedBlock& vb =
                    v_blocks[static_cast<std::size_t>(blk)];
                if (kt == nullptr) {
                    // Token-major K and V through the route tables.
                    exec::dequantBlock(kb.units, cache.keyRoutes(),
                                       kb.params, bits, krows.data());
                    exec::transposeTile(krows.data(), nr, d, kd.data(), nr);
                    exec::dequantBlock(vb.units, cache.valueRoutes(),
                                       vb.params, bits, vd.data());
                } else {
                    // K dequantizes channel-major ([d x Nr]) straight
                    // through the remapped linear plan — no transpose.
                    dequantLinear(*kt, kb, cache.keyLinearPlan(), values,
                                  kd.data());
                    dequantLinear(*kt, vb, cache.valueLinearPlan(), values,
                                  vd.data());
                }
                // P rounds through half precision exactly like the sAcc
                // round trip (round_p = true).
                fold(qf.data(), gq, d, kd.data(), nr, vd.data(), nr, scale,
                     m, l, acc, s.data(), /*round_p=*/true);
            }
        });

    // FP16 residual tail, folded into the merged state — plain float P,
    // no half rounding.
    const int res_len = cache.residualLength();
    if (res_len > 0)
        exec::foldHalfTile(kt, qf.data(), gq, d,
                           cache.residualKeys().data(),
                           cache.residualValues().data(), res_len, scale,
                           run.m.data(), run.l.data(), run.acc.data());

    return exec::finalizePartial(run, gq, d);
}

} // namespace bitdec::core
