#include "kvcache/kv_cache.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/simd/dispatch.h"
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
      v_res_({static_cast<std::size_t>(nr_), static_cast<std::size_t>(head_dim)}),
      seal_scratch_(static_cast<std::size_t>(nr_) *
                    static_cast<std::size_t>(head_dim))
{
    BITDEC_ASSERT(head_dim % tiling.pk() == 0,
                  "head_dim must be a multiple of the MMA K extent");
    BITDEC_ASSERT(nr_ % tiling.pk() == 0,
                  "residual block must be a multiple of the MMA K extent");

    // Dequant plans shared by every block; the parameter-group indices
    // match the flat order of the blocks' params tensors.
    const std::uint32_t d = static_cast<std::uint32_t>(head_dim);
    const std::uint32_t gs = static_cast<std::uint32_t>(config.group_size);
    // Keys pack transposed ([d x Nr]): row = channel, col = token.
    // Tensor-wise params are [Nr x d/gs] at (token, channel/gs),
    // channel-wise ones [Nr/gs x d] at (token/gs, channel).
    const bool tensor_wise =
        config.key_granularity == quant::Granularity::TensorWise;
    BITDEC_ASSERT(config.group_size > 0 && d % gs == 0 &&
                      (tensor_wise || nr_ % config.group_size == 0),
                  "group size ", config.group_size, " must divide head_dim ",
                  head_dim, " and, for channel-wise keys, the ", nr_,
                  "-token residual block");
    k_linear_ = exec::simd::buildLinearDequantPlan(
        k_layout_, [d, gs, tensor_wise](int row, int col) {
            const auto c = static_cast<std::uint32_t>(row);
            const auto t = static_cast<std::uint32_t>(col);
            return tensor_wise ? t * (d / gs) + c / gs : (t / gs) * d + c;
        });
    // Values pack natural ([Nr x d]): row = token, col = channel;
    // params are always tensor-wise, [Nr x d/gs] at (token, channel/gs).
    v_linear_ = exec::simd::buildLinearDequantPlan(
        v_layout_, [d, gs](int row, int col) {
            return static_cast<std::uint32_t>(row) * (d / gs) +
                   static_cast<std::uint32_t>(col) / gs;
        });
}

void
PackedHeadCache::append(const std::vector<Half>& k, const std::vector<Half>& v)
{
    BITDEC_ASSERT(static_cast<int>(k.size()) == head_dim_ &&
                  static_cast<int>(v.size()) == head_dim_,
                  "K/V vector length must equal head_dim");
    appendRow(k.data(), v.data());
}

void
PackedHeadCache::prefill(const Tensor<Half>& k, const Tensor<Half>& v)
{
    BITDEC_ASSERT(k.rank() == 2 && v.rank() == 2 && k.dim(0) == v.dim(0) &&
                  static_cast<int>(k.dim(1)) == head_dim_ &&
                  static_cast<int>(v.dim(1)) == head_dim_,
                  "prefill tensors must be [len x head_dim]");
    const std::size_t len = k.dim(0);
    const std::size_t d = static_cast<std::size_t>(head_dim_);
    const std::size_t nr = static_cast<std::size_t>(nr_);
    std::size_t t = 0;
    for (; t < len && res_len_ > 0; t++)
        appendRow(k.data() + t * d, v.data() + t * d);
    for (; t + nr <= len; t += nr)
        seal(k.data() + t * d, v.data() + t * d);
    for (; t < len; t++)
        appendRow(k.data() + t * d, v.data() + t * d);
}

void
PackedHeadCache::appendRow(const Half* k, const Half* v)
{
    const std::size_t d = static_cast<std::size_t>(head_dim_);
    const std::size_t at = static_cast<std::size_t>(res_len_) * d;
    std::copy(k, k + d, k_res_.data() + at);
    std::copy(v, v + d, v_res_.data() + at);
    if (++res_len_ == nr_) {
        seal(k_res_.data(), v_res_.data());
        res_len_ = 0;
    }
}

void
PackedHeadCache::seal(const Half* k, const Half* v)
{
    const exec::simd::KernelTable& kt =
        exec::simd::kernels(exec::simd::enabledLevelCap());
    const std::size_t d = static_cast<std::size_t>(head_dim_);
    const std::size_t nr = static_cast<std::size_t>(nr_);
    const std::size_t gs = static_cast<std::size_t>(config_.group_size);
    const bool kc =
        config_.key_granularity == quant::Granularity::ChannelWise;
    // Params shaped as quantizeMatrix's: tensor-wise [Nr x d/gs],
    // channel-wise [Nr/gs x d]. Values are always tensor-wise.
    PackedBlock& kb = k_blocks_.emplace_back();
    kb.units.resize(k_layout_.numUnits());
    kb.params.reset(kc ? std::vector<std::size_t>{nr / gs, d}
                       : std::vector<std::size_t>{nr, d / gs});
    PackedBlock& vb = v_blocks_.emplace_back();
    vb.units.resize(v_layout_.numUnits());
    vb.params.reset({nr, d / gs});
    kt.seal_operand({k, nr_, head_dim_, config_.bits, config_.group_size,
                     true, kc, k_linear_.unit.data(), k_linear_.shift.data(),
                     k_linear_.param.data(), k_linear_.group_run,
                     kb.units.data(), kb.params.data(),
                     seal_scratch_.data()});
    kt.seal_operand({v, nr_, head_dim_, config_.bits, config_.group_size,
                     false, false, v_linear_.unit.data(),
                     v_linear_.shift.data(), v_linear_.param.data(),
                     v_linear_.group_run, vb.units.data(), vb.params.data(),
                     seal_scratch_.data()});
    packed_tokens_ += nr_;
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
    // Quantize in K-natural [Nr x d] coordinates. TensorWise groups run
    // along the hidden dimension, ChannelWise along the token dimension.
    const quant::QuantizedMatrix kq = quant::quantizeMatrix(
        k_block, config.bits, config.key_granularity, config.group_size);
    // Values always use tensor-wise scaling (Section V-C).
    const quant::QuantizedMatrix vq = quant::quantizeMatrix(
        v_block, config.bits, quant::Granularity::TensorWise,
        config.group_size);
    // Keys feed Q*K^T as the B operand, so codes pack transposed.
    k_out.units = packInduced(k_layout, transposeCodes(kq.codes));
    v_out.units = packInduced(v_layout, vq.codes);
    k_out.params = kq.params;
    v_out.params = vq.params;
}

} // namespace bitdec::kv
