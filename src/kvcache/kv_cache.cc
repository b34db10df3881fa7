#include "kvcache/kv_cache.h"

#include <algorithm>

#include "common/logging.h"
#include "quant/fast_dequant.h"

namespace bitdec::kv {

namespace {

/** Transposes a [rows x cols] half matrix. */
Tensor<std::uint8_t>
transposeCodes(const Tensor<std::uint8_t>& m)
{
    Tensor<std::uint8_t> out({m.dim(1), m.dim(0)});
    for (std::size_t r = 0; r < m.dim(0); r++)
        for (std::size_t c = 0; c < m.dim(1); c++)
            out.at(c, r) = m.at(r, c);
    return out;
}

} // namespace

Fp16HeadCache::Fp16HeadCache(int head_dim) : head_dim_(head_dim)
{
    BITDEC_ASSERT(head_dim > 0, "head_dim must be positive");
}

void
Fp16HeadCache::grow(int needed)
{
    if (needed <= cap_)
        return;
    int new_cap = std::max(cap_ * 2, 64);
    while (new_cap < needed)
        new_cap *= 2;
    Tensor<Half> nk({static_cast<std::size_t>(new_cap),
                     static_cast<std::size_t>(head_dim_)});
    Tensor<Half> nv({static_cast<std::size_t>(new_cap),
                     static_cast<std::size_t>(head_dim_)});
    for (int t = 0; t < len_; t++) {
        for (int d = 0; d < head_dim_; d++) {
            nk.at(static_cast<std::size_t>(t), static_cast<std::size_t>(d)) =
                k_.at(static_cast<std::size_t>(t), static_cast<std::size_t>(d));
            nv.at(static_cast<std::size_t>(t), static_cast<std::size_t>(d)) =
                v_.at(static_cast<std::size_t>(t), static_cast<std::size_t>(d));
        }
    }
    k_ = std::move(nk);
    v_ = std::move(nv);
    cap_ = new_cap;
}

void
Fp16HeadCache::append(const std::vector<Half>& k, const std::vector<Half>& v)
{
    BITDEC_ASSERT(static_cast<int>(k.size()) == head_dim_ &&
                  static_cast<int>(v.size()) == head_dim_,
                  "K/V vector length must equal head_dim");
    grow(len_ + 1);
    for (int d = 0; d < head_dim_; d++) {
        k_.at(static_cast<std::size_t>(len_), static_cast<std::size_t>(d)) =
            k[static_cast<std::size_t>(d)];
        v_.at(static_cast<std::size_t>(len_), static_cast<std::size_t>(d)) =
            v[static_cast<std::size_t>(d)];
    }
    len_++;
}

double
Fp16HeadCache::deviceBytes() const
{
    return 2.0 * len_ * head_dim_ * 2.0; // K and V, 2 bytes per half
}

std::string
PackedHeadCache::headDimMisfit(int head_dim, int bits,
                               const layout::WarpTiling& tiling)
{
    const int nr = layout::residualBlockSize(tiling, bits);
    const std::string k = layout::InducedLayout::misfit(tiling, bits,
                                                         head_dim, nr);
    return k.empty() ? layout::InducedLayout::misfit(tiling, bits, nr,
                                                     head_dim)
                     : k;
}

PackedHeadCache::PackedHeadCache(int head_dim, const quant::QuantConfig& config,
                                 const layout::WarpTiling& tiling)
    : head_dim_(head_dim),
      config_(config),
      tiling_(tiling),
      nr_(layout::residualBlockSize(tiling, config.bits)),
      k_layout_(tiling, config.bits, head_dim, nr_),
      v_layout_(tiling, config.bits, nr_, head_dim),
      k_res_({static_cast<std::size_t>(nr_), static_cast<std::size_t>(head_dim)}),
      v_res_({static_cast<std::size_t>(nr_), static_cast<std::size_t>(head_dim)})
{
    BITDEC_ASSERT(head_dim % tiling.pk() == 0,
                  "head_dim must be a multiple of the MMA K extent");
    BITDEC_ASSERT(nr_ % tiling.pk() == 0,
                  "residual block must be a multiple of the MMA K extent");

    // Dequant routing shared by every block: both K and V land in a
    // token-major [Nr x d] scratch tile; the parameter-group indices match
    // the flat order of the blocks' params tensors.
    const std::uint32_t d = static_cast<std::uint32_t>(head_dim);
    const std::uint32_t gs = static_cast<std::uint32_t>(config.group_size);
    // Keys pack transposed ([d x Nr]): row = channel, col = token.
    const auto k_dest = [d](int row, int col) {
        return static_cast<std::uint32_t>(col) * d +
               static_cast<std::uint32_t>(row);
    };
    const auto k_param =
        config.key_granularity == quant::Granularity::TensorWise
            ? std::function<std::uint32_t(int, int)>(
                  [d, gs](int row, int col) {
                      // params [Nr x d/gs] at (token, channel/gs)
                      return static_cast<std::uint32_t>(col) * (d / gs) +
                             static_cast<std::uint32_t>(row) / gs;
                  })
            : std::function<std::uint32_t(int, int)>(
                  [d, gs](int row, int col) {
                      // params [Nr/gs x d] at (token/gs, channel)
                      return (static_cast<std::uint32_t>(col) / gs) * d +
                             static_cast<std::uint32_t>(row);
                  });
    k_routes_ = exec::buildDequantRoutes(k_layout_, k_dest, k_param);
    // Values pack natural ([Nr x d]): row = token, col = channel;
    // params are always tensor-wise, [Nr x d/gs] at (token, channel/gs).
    const auto v_dest = [d](int row, int col) {
        return static_cast<std::uint32_t>(row) * d +
               static_cast<std::uint32_t>(col);
    };
    const auto v_param = [d, gs](int row, int col) {
        return static_cast<std::uint32_t>(row) * (d / gs) +
               static_cast<std::uint32_t>(col) / gs;
    };
    v_routes_ = exec::buildDequantRoutes(v_layout_, v_dest, v_param);

    // SoA plans for the SIMD dequant kernel. The key plan remaps every
    // token-major destination t*d+c to the channel-major slot c*Nr+t, so
    // the vector path dequantizes keys directly into QK's preferred layout.
    const std::size_t n_elems =
        static_cast<std::size_t>(nr_) * static_cast<std::size_t>(head_dim);
    const std::uint32_t du = static_cast<std::uint32_t>(head_dim);
    const std::uint32_t nru = static_cast<std::uint32_t>(nr_);
    k_linear_ = exec::simd::buildLinearDequantPlan(
        k_routes_, config.bits, n_elems,
        [du, nru](std::uint32_t dest) { return (dest % du) * nru + dest / du; });
    v_linear_ = exec::simd::buildLinearDequantPlan(v_routes_, config.bits,
                                                   n_elems);
}

void
PackedHeadCache::append(const std::vector<Half>& k, const std::vector<Half>& v)
{
    BITDEC_ASSERT(static_cast<int>(k.size()) == head_dim_ &&
                  static_cast<int>(v.size()) == head_dim_,
                  "K/V vector length must equal head_dim");
    for (int d = 0; d < head_dim_; d++) {
        k_res_.at(static_cast<std::size_t>(res_len_),
                  static_cast<std::size_t>(d)) = k[static_cast<std::size_t>(d)];
        v_res_.at(static_cast<std::size_t>(res_len_),
                  static_cast<std::size_t>(d)) = v[static_cast<std::size_t>(d)];
    }
    res_len_++;
    if (res_len_ == nr_)
        packResidual();
}

void
PackedHeadCache::prefill(const Tensor<Half>& k, const Tensor<Half>& v)
{
    BITDEC_ASSERT(k.rank() == 2 && v.rank() == 2 && k.dim(0) == v.dim(0) &&
                  static_cast<int>(k.dim(1)) == head_dim_ &&
                  static_cast<int>(v.dim(1)) == head_dim_,
                  "prefill tensors must be [len x head_dim]");
    std::vector<Half> kv(static_cast<std::size_t>(head_dim_));
    std::vector<Half> vv(static_cast<std::size_t>(head_dim_));
    for (std::size_t t = 0; t < k.dim(0); t++) {
        for (int d = 0; d < head_dim_; d++) {
            kv[static_cast<std::size_t>(d)] =
                k.at(t, static_cast<std::size_t>(d));
            vv[static_cast<std::size_t>(d)] =
                v.at(t, static_cast<std::size_t>(d));
        }
        append(kv, vv);
    }
}

void
PackedHeadCache::packResidual()
{
    PackedBlock kb, vb;
    packBlock(k_res_, v_res_, config_, k_layout_, v_layout_, kb, vb);
    k_blocks_.push_back(std::move(kb));
    v_blocks_.push_back(std::move(vb));
    packed_tokens_ += nr_;
    res_len_ = 0;
}

double
PackedHeadCache::deviceBytes() const
{
    double bytes = 0;
    for (const auto& b : k_blocks_)
        bytes += b.units.size() * 4.0 + b.params.numel() * 4.0;
    for (const auto& b : v_blocks_)
        bytes += b.units.size() * 4.0 + b.params.numel() * 4.0;
    bytes += 2.0 * nr_ * head_dim_ * 2.0; // residual K and V buffers
    return bytes;
}

double
PackedHeadCache::hostBytes() const
{
    double bytes = 0;
    for (const auto* blocks : {&k_blocks_, &v_blocks_})
        for (const PackedBlock& b : *blocks)
            bytes += b.units.capacity() * sizeof(std::uint32_t) +
                     b.params.numel() * sizeof(Half2);
    bytes += (k_res_.numel() + v_res_.numel()) * sizeof(Half);
    return bytes;
}

double
PackedHeadCache::metadataBytes() const
{
    double bytes = 0;
    for (const auto& b : k_blocks_)
        bytes += b.params.numel() * 4.0;
    for (const auto& b : v_blocks_)
        bytes += b.params.numel() * 4.0;
    return bytes;
}

void
PackedHeadCache::dequantizeAll(Tensor<Half>& k_out, Tensor<Half>& v_out) const
{
    const int len = length();
    k_out.reset({static_cast<std::size_t>(len),
                 static_cast<std::size_t>(head_dim_)});
    v_out.reset({static_cast<std::size_t>(len),
                 static_cast<std::size_t>(head_dim_)});

    for (std::size_t blk = 0; blk < k_blocks_.size(); blk++) {
        // Keys were packed transposed ([d x Nr]); params stay in K-natural
        // (token, channel) indexing.
        const Tensor<std::uint8_t> kc =
            unpackInduced(k_layout_, k_blocks_[blk].units);
        const Tensor<std::uint8_t> vc =
            unpackInduced(v_layout_, v_blocks_[blk].units);
        for (int t = 0; t < nr_; t++) {
            const std::size_t tok = blk * static_cast<std::size_t>(nr_) +
                                    static_cast<std::size_t>(t);
            for (int d = 0; d < head_dim_; d++) {
                // Key params: granularity per config over [Nr x d].
                quant::QuantParams kp;
                if (config_.key_granularity ==
                    quant::Granularity::TensorWise) {
                    kp = quant::QuantParams::fromHalf2(
                        k_blocks_[blk].params.at(
                            static_cast<std::size_t>(t),
                            static_cast<std::size_t>(d / config_.group_size)));
                } else {
                    kp = quant::QuantParams::fromHalf2(
                        k_blocks_[blk].params.at(
                            static_cast<std::size_t>(t / config_.group_size),
                            static_cast<std::size_t>(d)));
                }
                const quant::QuantParams vp = quant::QuantParams::fromHalf2(
                    v_blocks_[blk].params.at(
                        static_cast<std::size_t>(t),
                        static_cast<std::size_t>(d / config_.group_size)));
                // Magic-folded arithmetic: what the Packing Kernel's lop3
                // fast path computes on device.
                k_out.at(tok, static_cast<std::size_t>(d)) =
                    Half(quant::dequantMagicValue(
                        kc.at(static_cast<std::size_t>(d),
                              static_cast<std::size_t>(t)),
                        kp));
                v_out.at(tok, static_cast<std::size_t>(d)) =
                    Half(quant::dequantMagicValue(
                        vc.at(static_cast<std::size_t>(t),
                              static_cast<std::size_t>(d)),
                        vp));
            }
        }
    }
    for (int t = 0; t < res_len_; t++) {
        const std::size_t tok =
            static_cast<std::size_t>(packed_tokens_ + t);
        for (int d = 0; d < head_dim_; d++) {
            k_out.at(tok, static_cast<std::size_t>(d)) =
                k_res_.at(static_cast<std::size_t>(t),
                          static_cast<std::size_t>(d));
            v_out.at(tok, static_cast<std::size_t>(d)) =
                v_res_.at(static_cast<std::size_t>(t),
                          static_cast<std::size_t>(d));
        }
    }
}

void
packBlock(const Tensor<Half>& k_block, const Tensor<Half>& v_block,
          const quant::QuantConfig& config,
          const layout::InducedLayout& k_layout,
          const layout::InducedLayout& v_layout, PackedBlock& k_out,
          PackedBlock& v_out)
{
    std::vector<std::uint32_t> k_units, v_units;
    Tensor<Half2> k_params, v_params;
    {
        // Quantize in K-natural [Nr x d] coordinates. TensorWise groups
        // run along the hidden dimension, ChannelWise along the token
        // dimension.
        const quant::QuantizedMatrix kq = quant::quantizeMatrix(
            k_block, config.bits, config.key_granularity,
            config.group_size);
        // Values always use tensor-wise scaling (Section V-C).
        const quant::QuantizedMatrix vq = quant::quantizeMatrix(
            v_block, config.bits, quant::Granularity::TensorWise,
            config.group_size);
        // Keys feed Q*K^T as the B operand, so codes pack transposed.
        k_units = packInduced(k_layout, transposeCodes(kq.codes));
        v_units = packInduced(v_layout, vq.codes);
        k_params = kq.params;
        v_params = vq.params;
    }
    // Allocator workaround, kept for the benchmark's peak_rss_mb bound
    // (perfbench): under glibc malloc, a sealed block allocated while the
    // quantization temporaries are live lands above them and pins the
    // holes they leave. Copying it into storage allocated only after they
    // are freed lets it fill those holes instead. It costs one copy of the
    // packed block per seal and depends on the allocator's placement; drop
    // it once the benchmark stops growing its per-iteration records with
    // throughput (ROADMAP.md).
    k_out.units.assign(k_units.begin(), k_units.end());
    v_out.units.assign(v_units.begin(), v_units.end());
    k_out.params = k_params;
    v_out.params = v_params;
}

} // namespace bitdec::kv
