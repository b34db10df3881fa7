/**
 * @file
 * KV-cache containers: full-precision, packed low-bit with residual
 * partition, and the byte-accounting both feed into the timing model.
 *
 * The functional containers operate per KV head: a cache is a growing
 * [len x head_dim] matrix for K and V. BitDecoding partitions it as
 * X = Xpack ∪ Xres (Section V-B): all full residual blocks are quantized
 * and packed; the tail (< Nr tokens) stays in half precision and is
 * re-processed each step until it fills a block.
 */
#ifndef BITDEC_KVCACHE_KV_CACHE_H
#define BITDEC_KVCACHE_KV_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/half.h"
#include "common/tensor.h"
#include "exec/dequant_plan.h"
#include "exec/simd/dequant_linear.h"
#include "layout/induced_layout.h"
#include "layout/tile.h"
#include "quant/int_quant.h"
#include "quant/quant_params.h"

namespace bitdec::kv {

/** Growing FP16 K/V store for one head (the FlashDecoding baseline view). */
class Fp16HeadCache
{
  public:
    /** @param head_dim per-head hidden size d */
    explicit Fp16HeadCache(int head_dim);

    /** Appends one token's key and value vectors (length head_dim). */
    void append(const std::vector<Half>& k, const std::vector<Half>& v);

    /** Tokens currently cached. */
    int length() const { return len_; }

    /** Per-head hidden size. */
    int headDim() const { return head_dim_; }

    /** Key matrix view [len x d]. */
    const Tensor<Half>& keys() const { return k_; }

    /** Value matrix view [len x d]. */
    const Tensor<Half>& values() const { return v_; }

    /** Bytes this cache occupies in device memory. */
    double deviceBytes() const;

  private:
    void grow(int needed);

    int head_dim_;
    int len_ = 0;
    int cap_ = 0;
    Tensor<Half> k_;
    Tensor<Half> v_;
};

/**
 * One quantized+packed residual block of K or V: exactly the bytes the
 * device stores. The fused CPU kernels derive each group's dequantized
 * values from params at use, as the device does in registers.
 */
struct PackedBlock
{
    std::vector<std::uint32_t> units; //!< induced-layout packed words
    Tensor<Half2> params;             //!< per-group scale/zero metadata
};

/**
 * BitDecoding's partitioned low-bit cache for one head.
 *
 * Tokens enter the FP16 residual buffer; every time the residual reaches
 * Nr tokens the block is handed to the Residual Kernel path: quantized
 * (key granularity per config, values tensor-wise), packed through the
 * induced layout, and appended to the packed region.
 */
class PackedHeadCache
{
  public:
    /**
     * @param head_dim   per-head hidden size d
     * @param config     bit width / granularity / group size
     * @param tiling     warp tiling that induces the packing layout
     */
    PackedHeadCache(int head_dim, const quant::QuantConfig& config,
                    const layout::WarpTiling& tiling);

    /**
     * Why a head of @p head_dim cannot be packed at @p bits under
     * @p tiling (empty when it can): the K block ([d x Nr], transposed)
     * and the V block ([Nr x d]) must both fit their induced layouts.
     */
    static std::string headDimMisfit(int head_dim, int bits,
                                     const layout::WarpTiling& tiling);

    /** Appends one token; may trigger packing of a full residual block. */
    void append(const std::vector<Half>& k, const std::vector<Half>& v);

    /** Bulk-loads a prefill context, packing all complete blocks. */
    void prefill(const Tensor<Half>& k, const Tensor<Half>& v);

    /** Total tokens (packed + residual). */
    int length() const { return packed_tokens_ + res_len_; }

    /** Tokens in the packed low-bit region (Npack). */
    int packedTokens() const { return packed_tokens_; }

    /** Tokens in the FP16 residual buffer (res_len). */
    int residualLength() const { return res_len_; }

    /** Residual block capacity Nr from Eq. 1. */
    int residualBlockSize() const { return nr_; }

    /** Packed key blocks, oldest first. */
    const std::vector<PackedBlock>& keyBlocks() const { return k_blocks_; }

    /** Packed value blocks, oldest first. */
    const std::vector<PackedBlock>& valueBlocks() const { return v_blocks_; }

    /** Residual FP16 keys, [Nr x d]; only the first res_len rows are live. */
    const Tensor<Half>& residualKeys() const { return k_res_; }

    /** Residual FP16 values. */
    const Tensor<Half>& residualValues() const { return v_res_; }

    /** Layout used to pack key blocks (B operand of QK^T: d x Nr). */
    const layout::InducedLayout& keyLayout() const { return k_layout_; }

    /** Layout used to pack value blocks (B operand of PV: Nr x d). */
    const layout::InducedLayout& valueLayout() const { return v_layout_; }

    /** Quantization configuration. */
    const quant::QuantConfig& config() const { return config_; }

    /** Warp tiling. */
    const layout::WarpTiling& tiling() const { return tiling_; }

    /** Per-head hidden size. */
    int headDim() const { return head_dim_; }

    /**
     * Dequant routing for key blocks: scratch destinations index a
     * token-major [Nr x d] tile. Shared by all blocks of this cache.
     */
    const std::vector<exec::CodeRoute>& keyRoutes() const { return k_routes_; }

    /** Dequant routing for value blocks (token-major [Nr x d] scratch). */
    const std::vector<exec::CodeRoute>&
    valueRoutes() const
    {
        return v_routes_;
    }

    /**
     * Dest-ordered (SoA) inversion of keyRoutes() for the SIMD dequant
     * kernel, remapped to a channel-major [d x Nr] scratch tile — the
     * layout the vector QK loop reads, so packed keys dequantize straight
     * into it with no transpose pass.
     */
    const exec::simd::LinearDequantPlan&
    keyLinearPlan() const
    {
        return k_linear_;
    }

    /** SoA inversion of valueRoutes() (token-major [Nr x d], as scalar). */
    const exec::simd::LinearDequantPlan&
    valueLinearPlan() const
    {
        return v_linear_;
    }

    /** Device bytes: packed words + metadata + residual. */
    double deviceBytes() const;

    /**
     * Host heap bytes holding the cache's data: every block's allocated
     * words and params plus the residual buffers. Equals deviceBytes()
     * while blocks hold nothing the device does not.
     */
    double hostBytes() const;

    /** Metadata bytes only (scales/zeros), for traffic accounting. */
    double metadataBytes() const;

    /**
     * Reference dequantization of the full cache back to [len x d]
     * matrices; used by tests to bound end-to-end quantization error.
     */
    void dequantizeAll(Tensor<Half>& k_out, Tensor<Half>& v_out) const;

  private:
    void packResidual();

    int head_dim_;
    quant::QuantConfig config_;
    layout::WarpTiling tiling_;
    int nr_;

    layout::InducedLayout k_layout_; //!< for one block: [d x Nr]
    layout::InducedLayout v_layout_; //!< for one block: [Nr x d]

    std::vector<exec::CodeRoute> k_routes_; //!< shared key dequant routing
    std::vector<exec::CodeRoute> v_routes_; //!< shared value dequant routing

    exec::simd::LinearDequantPlan k_linear_; //!< SoA keys, channel-major
    exec::simd::LinearDequantPlan v_linear_; //!< SoA values, token-major

    std::vector<PackedBlock> k_blocks_;
    std::vector<PackedBlock> v_blocks_;
    int packed_tokens_ = 0;

    Tensor<Half> k_res_; //!< [Nr x d]
    Tensor<Half> v_res_;
    int res_len_ = 0;
};

/**
 * Quantizes one residual block (k_block [Nr x d], v_block [Nr x d]) the way
 * the Residual Kernel does and packs it through the induced layouts.
 * Exposed for tests and for the Residual Kernel implementation.
 *
 * Keys are packed as the B operand of Q*K^T, i.e. transposed to [d x Nr];
 * values as the B operand of P*V, i.e. [Nr x d].
 */
void packBlock(const Tensor<Half>& k_block, const Tensor<Half>& v_block,
               const quant::QuantConfig& config,
               const layout::InducedLayout& k_layout,
               const layout::InducedLayout& v_layout, PackedBlock& k_out,
               PackedBlock& v_out);

} // namespace bitdec::kv

#endif // BITDEC_KVCACHE_KV_CACHE_H
