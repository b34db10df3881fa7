/**
 * @file
 * Decode fixture: builds, from one seeded random K/V/Q stream, whatever
 * cache structure a backend consumes and binds a ready-to-run
 * DecodeBatch. This is the glue the benches, tests and examples used to
 * duplicate per entry point — construct caches by hand for each kernel
 * family — collapsed behind the capability mask.
 */
#ifndef BITDEC_BACKEND_HARNESS_H
#define BITDEC_BACKEND_HARNESS_H

#include <memory>

#include "backend/attention_backend.h"
#include "core/bitdecoding.h"
#include "kvcache/kv_cache.h"
#include "kvcache/paged_cache.h"
#include "quant/int_quant.h"

namespace bitdec::backend {

/**
 * Workload shape one fixture realizes. The quantized-matrices binding
 * (kivi/qserve) groups channel-wise along the sequence and tensor-wise
 * along the hidden dim, so it needs context and head_dim divisible by
 * the group size (32).
 */
struct FixtureConfig
{
    int context = 4096;          //!< KV tokens
    int head_dim = 128;          //!< d
    int gq = 8;                  //!< query rows (group size)
    int page_size = 64;          //!< paged binding: tokens per page
    int bits = 4;                //!< low-bit bindings: 4 or 2
    std::uint64_t seed = 2026;   //!< content stream seed
    quant::MxKind mx_kind = quant::MxKind::MXFP4;
    /**
     * Outlier key channels, as KVQuant reports them for pre-RoPE keys:
     * every 16th key channel (channel 0 at d < 16) scaled by 16. Applied
     * after the content stream is drawn, so the other values are those
     * of the plain fixture.
     */
    bool outlier_keys = false;
};

/**
 * Owns the K/V/Q content and the one cache structure the given backend
 * natively consumes (the lowest Binding bit it supports), bound into a
 * single-item DecodeBatch. Two fixtures with equal configs hold
 * bitwise-equal content regardless of backend, so cross-backend parity
 * checks compare like with like.
 */
class DecodeFixture
{
  public:
    DecodeFixture(const AttentionBackend& be, const FixtureConfig& cfg);

    // Not movable: batch_ holds pointers into the fixture's own members,
    // so a relocation would leave the bound items dangling. Construct in
    // place (std::optional::emplace, map::try_emplace) instead.
    DecodeFixture(DecodeFixture&&) = delete;
    DecodeFixture& operator=(DecodeFixture&&) = delete;

    /** The bound single-item batch; copy it to set a pool. */
    const DecodeBatch& batch() const { return batch_; }

    /** The binding the fixture realized. */
    Binding binding() const { return binding_; }

    /** Raw FP16 keys fed into the cache, [context x d]. */
    const Tensor<Half>& keys() const { return k_; }

    /** Raw FP16 values. */
    const Tensor<Half>& values() const { return v_; }

    /** Query tile, [gq x d]. */
    const Tensor<Half>& query() const { return q_; }

    /**
     * The K/V content the fixture actually bound: raw K/V for FP16
     * bindings, the dequantized round trip for the low-bit ones. Panics
     * for the MX binding (block-scale semantics have no flat-tensor
     * equivalent; use mxAttention parity instead).
     */
    void boundKv(Tensor<Half>& k, Tensor<Half>& v) const;

    /** FP32 reference attention over boundKv(). */
    Tensor<float> referenceOutput(float scale) const;

  private:
    FixtureConfig cfg_;
    Binding binding_;
    Tensor<Half> k_;
    Tensor<Half> v_;
    Tensor<Half> q_;

    std::unique_ptr<kv::Fp16HeadCache> fp16_;
    std::unique_ptr<core::HeadDecoder> decoder_; //!< owns the packed cache
    std::unique_ptr<kv::PagedHeadCache> paged_;
    int seq_ = -1;
    std::unique_ptr<quant::QuantizedMatrix> kq_;
    std::unique_ptr<quant::QuantizedMatrix> vq_;
    std::unique_ptr<core::MxKvCache> mx_;

    DecodeBatch batch_;
};

} // namespace bitdec::backend

#endif // BITDEC_BACKEND_HARNESS_H
