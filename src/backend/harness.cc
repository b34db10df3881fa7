#include "backend/harness.h"

#include "attention/reference.h"
#include "common/logging.h"
#include "common/rng.h"

namespace bitdec::backend {

namespace {

void
randomize(Tensor<Half>& t, Rng& rng)
{
    for (std::size_t i = 0; i < t.numel(); i++)
        t[i] = Half(rng.uniformRange(-1.f, 1.f));
}

/** The backend's native structure: the lowest Binding bit it supports. */
Binding
nativeBinding(const BackendCapabilities& caps)
{
    for (Binding b : {Binding::Fp16Contiguous, Binding::PackedLowBit,
                      Binding::PagedFp16, Binding::QuantizedMatrices,
                      Binding::MxBlocks})
        if (caps.supportsBinding(b))
            return b;
    BITDEC_PANIC("backend declares no bindings");
}

} // namespace

DecodeFixture::DecodeFixture(const AttentionBackend& be,
                             const FixtureConfig& cfg)
    : cfg_(cfg),
      binding_(nativeBinding(be.capabilities())),
      k_({static_cast<std::size_t>(cfg.context),
          static_cast<std::size_t>(cfg.head_dim)}),
      v_({static_cast<std::size_t>(cfg.context),
          static_cast<std::size_t>(cfg.head_dim)}),
      q_({static_cast<std::size_t>(cfg.gq),
          static_cast<std::size_t>(cfg.head_dim)})
{
    Rng rng(cfg.seed);
    randomize(k_, rng);
    randomize(v_, rng);
    randomize(q_, rng);

    const int d = cfg.head_dim;
    if (cfg.outlier_keys)
        for (int t = 0; t < cfg.context; t++)
            for (int c = 0; c < d; c += 16) {
                Half& h = k_.at(static_cast<std::size_t>(t),
                                static_cast<std::size_t>(c));
                h = Half(h.toFloat() * 16.f); // exact: a power of two
            }
    DecodeItem item;
    switch (binding_) {
    case Binding::Fp16Contiguous: {
        fp16_ = std::make_unique<kv::Fp16HeadCache>(d);
        std::vector<Half> kr(static_cast<std::size_t>(d));
        std::vector<Half> vr(static_cast<std::size_t>(d));
        for (int t = 0; t < cfg.context; t++) {
            for (int c = 0; c < d; c++) {
                kr[static_cast<std::size_t>(c)] =
                    k_.at(static_cast<std::size_t>(t),
                          static_cast<std::size_t>(c));
                vr[static_cast<std::size_t>(c)] =
                    v_.at(static_cast<std::size_t>(t),
                          static_cast<std::size_t>(c));
            }
            fp16_->append(kr, vr);
        }
        item = fp16Item(q_, *fp16_);
        break;
    }
    case Binding::PackedLowBit: {
        core::BitDecodingConfig bd;
        bd.quant.bits = cfg.bits;
        decoder_ = std::make_unique<core::HeadDecoder>(d, bd);
        decoder_->prefill(k_, v_);
        item = packedItem(q_, decoder_->cache());
        break;
    }
    case Binding::PagedFp16: {
        paged_ = std::make_unique<kv::PagedHeadCache>(
            d, cfg.page_size, cfg.context / cfg.page_size + 2);
        seq_ = paged_->addSequence();
        std::vector<Half> kr(static_cast<std::size_t>(d));
        std::vector<Half> vr(static_cast<std::size_t>(d));
        for (int t = 0; t < cfg.context; t++) {
            for (int c = 0; c < d; c++) {
                kr[static_cast<std::size_t>(c)] =
                    k_.at(static_cast<std::size_t>(t),
                          static_cast<std::size_t>(c));
                vr[static_cast<std::size_t>(c)] =
                    v_.at(static_cast<std::size_t>(t),
                          static_cast<std::size_t>(c));
            }
            const bool ok = paged_->append(seq_, kr, vr);
            BITDEC_ASSERT(ok, "fixture page pool sized too small");
        }
        item = pagedItem(q_, *paged_, seq_);
        break;
    }
    case Binding::QuantizedMatrices: {
        // KIVI's configuration: keys channel-wise, values tensor-wise.
        kq_ = std::make_unique<quant::QuantizedMatrix>(quant::quantizeMatrix(
            k_, cfg.bits, quant::Granularity::ChannelWise, 32));
        vq_ = std::make_unique<quant::QuantizedMatrix>(quant::quantizeMatrix(
            v_, cfg.bits, quant::Granularity::TensorWise, 32));
        item = quantizedItem(q_, *kq_, *vq_);
        break;
    }
    case Binding::MxBlocks: {
        mx_ = std::make_unique<core::MxKvCache>(
            core::mxEncodeKv(k_, v_, cfg.mx_kind));
        item = mxItem(q_, *mx_);
        break;
    }
    }
    batch_.items.push_back(item);
}

void
DecodeFixture::boundKv(Tensor<Half>& k, Tensor<Half>& v) const
{
    switch (binding_) {
    case Binding::Fp16Contiguous:
    case Binding::PagedFp16:
        k = k_;
        v = v_;
        return;
    case Binding::PackedLowBit:
        decoder_->cache().dequantizeAll(k, v);
        return;
    case Binding::QuantizedMatrices:
        k = quant::dequantizeMatrix(*kq_);
        v = quant::dequantizeMatrix(*vq_);
        return;
    case Binding::MxBlocks:
        break;
    }
    BITDEC_PANIC("no flat-tensor reference for the MX binding");
}

Tensor<float>
DecodeFixture::referenceOutput(float scale) const
{
    Tensor<Half> k, v;
    boundKv(k, v);
    return attn::referenceAttention(q_, k, v, scale);
}

} // namespace bitdec::backend
