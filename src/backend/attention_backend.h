/**
 * @file
 * The unified decode-attention backend interface.
 *
 * BitDecoding's core systems claim is that one decoding loop can swap
 * low-bit KV layouts and kernels behind the same decode step. This module
 * is that seam: every functional decode path in the repo — the reference
 * oracle, FlashDecoding, the fused FP16/paged/packed hot paths, the
 * KIVI/QServe baselines and the Blackwell MX path — is an
 * `AttentionBackend` registered by name in the `BackendRegistry`
 * (registry.h). The serving engine, the benches and the examples resolve
 * backends through the registry instead of hard-coding kernel entry
 * points, so adding a backend is one self-registering translation unit.
 *
 * Digest contract: a backend's chunking and merge order are part of its
 * identity. For a fixed batch, `decodeStep` must return bitwise-identical
 * outputs for any thread pool (including none) — fixed KV chunk sizes,
 * partials merged sequentially in chunk order, batch fan-out with one
 * task per item. `digest()` folds the outputs in item order, so equal
 * digests mean equal bytes, and two backends with equal chunking (e.g.
 * `fused-fp16` at chunk 128 vs `fused-paged` at page size 128) must
 * digest identically over identical cache content.
 */
#ifndef BITDEC_BACKEND_ATTENTION_BACKEND_H
#define BITDEC_BACKEND_ATTENTION_BACKEND_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "attention/workloads.h"
#include "common/half.h"
#include "common/tensor.h"

namespace bitdec::kv {
class Fp16HeadCache;
class PackedHeadCache;
class PagedHeadCache;
} // namespace bitdec::kv

namespace bitdec::quant {
struct QuantizedMatrix;
} // namespace bitdec::quant

namespace bitdec::core {
struct MxKvCache;
} // namespace bitdec::core

namespace bitdec::exec {
class ThreadPool;
} // namespace bitdec::exec

namespace bitdec::backend {

/** Coarse cache organization a backend can traverse. */
enum class CacheKind : unsigned
{
    Contiguous = 1u << 0, //!< one growing [len x d] region per head
    Paged = 1u << 1,      //!< page-table indirection over a shared pool
};

/** KV storage format a backend can consume. */
enum class QuantFormat : unsigned
{
    Fp16 = 1u << 0, //!< half-precision K/V
    Int4 = 1u << 1, //!< 4-bit quantized K/V
    Int2 = 1u << 2, //!< 2-bit quantized K/V
    Mx = 1u << 3,   //!< block-scaled MX formats (MXFP4/NVFP4/...)
};

/**
 * Concrete cache structure a DecodeItem binds. Finer than CacheKind x
 * QuantFormat: two 4-bit containers (the induced-layout packed cache and
 * the pre-packing QuantizedMatrix pair) are different structures even
 * though they share the coarse axes.
 */
enum class Binding : unsigned
{
    Fp16Contiguous = 1u << 0,    //!< kv::Fp16HeadCache
    PackedLowBit = 1u << 1,      //!< kv::PackedHeadCache (induced layout)
    PagedFp16 = 1u << 2,         //!< kv::PagedHeadCache + sequence id
    QuantizedMatrices = 1u << 3, //!< quant::QuantizedMatrix K/V pair
    MxBlocks = 1u << 4,          //!< core::MxKvCache
};

/** Printable names (capability matrix, error messages). */
const char* toString(CacheKind k);
const char* toString(QuantFormat f);
const char* toString(Binding b);

/** One scenario's capability bit. */
constexpr unsigned
scenarioBit(attn::Scenario s)
{
    return 1u << static_cast<unsigned>(s);
}

/** Every scenario (the reference oracle's coverage). */
constexpr unsigned kAllScenarios =
    scenarioBit(attn::Scenario::Single) | scenarioBit(attn::Scenario::Batches) |
    scenarioBit(attn::Scenario::Pages) | scenarioBit(attn::Scenario::Serving);

/** The contiguous-cache scenarios (no page-table traversal). */
constexpr unsigned kContiguousScenarios =
    scenarioBit(attn::Scenario::Single) | scenarioBit(attn::Scenario::Batches);

/**
 * What one backend supports. The registry resolves capability queries
 * over (cache kind, quant format, scenario); `bindings` is the concrete
 * structure check `decodeStep` enforces per item.
 */
struct BackendCapabilities
{
    unsigned bindings = 0;      //!< Binding mask decodeStep consumes
    unsigned cache_kinds = 0;   //!< CacheKind mask
    unsigned quant_formats = 0; //!< QuantFormat mask
    unsigned scenarios = 0;     //!< attn::Scenario mask (scenarioBit)
    /**
     * True for the tile-fused execution-backend hot paths whose perf the
     * CI smoke gate (`bench_cpu_hotpath --smoke --backend=<name>`) holds
     * to a speedup floor over the legacy emulated kernel.
     */
    bool fused_hot_path = false;

    /** True when every bit of @p mask is supported on that axis. */
    bool supportsCache(CacheKind k) const
    {
        return (cache_kinds & static_cast<unsigned>(k)) != 0;
    }
    bool supportsFormat(QuantFormat f) const
    {
        return (quant_formats & static_cast<unsigned>(f)) != 0;
    }
    bool supportsScenario(attn::Scenario s) const
    {
        return (scenarios & scenarioBit(s)) != 0;
    }
    bool supportsBinding(Binding b) const
    {
        return (bindings & static_cast<unsigned>(b)) != 0;
    }
};

/** One-line "caches | formats | scenarios" summary for listings. */
std::string describe(const BackendCapabilities& caps);

/**
 * One decode work item: a query tile bound to exactly one cache
 * structure. Pointers must stay valid for the duration of the call; use
 * the factory functions, not direct field fills.
 */
struct DecodeItem
{
    const Tensor<Half>* q = nullptr; //!< [gq x d] transformed queries

    const kv::Fp16HeadCache* fp16 = nullptr;
    const kv::PackedHeadCache* packed = nullptr;
    const kv::PagedHeadCache* paged = nullptr;
    int seq = -1; //!< sequence id for the paged binding
    const quant::QuantizedMatrix* kq = nullptr;
    const quant::QuantizedMatrix* vq = nullptr;
    const core::MxKvCache* mx = nullptr;

    /** The one structure this item binds; panics when none/ambiguous. */
    Binding binding() const;
};

/** Binds a query tile to a contiguous FP16 cache. */
DecodeItem fp16Item(const Tensor<Half>& q, const kv::Fp16HeadCache& cache);

/** Binds a query tile to a packed low-bit cache. */
DecodeItem packedItem(const Tensor<Half>& q, const kv::PackedHeadCache& cache);

/** Binds a query tile to one sequence of a paged FP16 pool. */
DecodeItem pagedItem(const Tensor<Half>& q, const kv::PagedHeadCache& cache,
                     int seq);

/** Binds a query tile to a pre-packing quantized K/V matrix pair. */
DecodeItem quantizedItem(const Tensor<Half>& q,
                         const quant::QuantizedMatrix& kq,
                         const quant::QuantizedMatrix& vq);

/** Binds a query tile to an MX block-scaled K/V cache. */
DecodeItem mxItem(const Tensor<Half>& q, const core::MxKvCache& kv);

/**
 * One decode step's full batch. Every backend consumes this one shape:
 * the serving engine hands it all decoding requests of a tick, the
 * benches a single item, `model::batchedFusedDecode` one item per
 * (sequence, head).
 */
struct DecodeBatch
{
    std::vector<DecodeItem> items;
    float scale = 1.0f;               //!< logit scale
    exec::ThreadPool* pool = nullptr; //!< optional; null = inline
};

/**
 * How a backend would execute one decode shape. Chunking is part of the
 * digest contract: two runs with the same plan produce the same bytes.
 */
struct DecodePlan
{
    bool supported = false;
    std::string reason;   //!< why not, when unsupported
    int kv_chunk = 0;     //!< fixed KV tokens per partial (0 = one pass)
    int splits = 1;       //!< partial states merged sequentially in order
    std::string chunking; //!< human-readable chunk/merge contract
};

/**
 * Abstract decode-attention backend. Implementations adapt one kernel
 * family; they live in src/backend/backends_*.cc and self-register with
 * the BackendRegistry under their `name()`.
 */
class AttentionBackend
{
  public:
    virtual ~AttentionBackend() = default;

    /** Registry key, e.g. "fused-paged". */
    virtual const char* name() const = 0;

    /** What this backend supports (resolution + listings). */
    virtual BackendCapabilities capabilities() const = 0;

    /**
     * True when this host can execute the backend right now. Every
     * builtin backend runs on every host (the fused ones dispatch on the
     * enabled SIMD level themselves); decorators forward their inner
     * backend's answer.
     */
    virtual bool available() const { return true; }

    /** Why available() is false (empty when it is true). */
    virtual std::string unavailableReason() const { return {}; }

    /** SIMD level the hot loops run at: "scalar", "avx2" or "avx512"
     *  (for the fused backends, the enabled level at the time of the
     *  call). Recorded in the bench JSON next to the detected CPU
     *  features. */
    virtual const char* simdLevel() const { return "scalar"; }

    /**
     * Chunking/split decisions for one decode shape. The default derives
     * support from capabilities() (scenario bit, paged-cache requirement)
     * and reports a single-pass plan.
     */
    virtual DecodePlan plan(const attn::DecodeShape& shape) const;

    /**
     * Runs one decode step for every item of the batch and returns the
     * [gq x d] outputs in item order.
     *
     * Contract:
     *  - every item's binding must be in capabilities().bindings — a
     *    mismatch is a fatal error naming the backend and both sides;
     *  - outputs are bitwise identical for any batch.pool (fixed chunk
     *    sizes, sequential merges, one task per item);
     *  - a single-item batch hands the pool to the kernel's KV chunks
     *    instead of the (empty) batch fan-out.
     */
    virtual std::vector<Tensor<float>> decodeStep(
        const DecodeBatch& batch) const = 0;

    /**
     * Deterministic digest of decodeStep(batch): FNV-1a over the output
     * float bit patterns, folded in item order. Equal digests certify
     * bitwise-equal outputs; backends with equal chunking must digest
     * identically over identical cache content.
     */
    std::uint64_t digest(const DecodeBatch& batch) const;

  protected:
    /** Panics unless every item's binding is supported (clear message). */
    void requireBindings(const DecodeBatch& batch) const;
};

/** FNV-1a fold of a float tensor's bit patterns into @p h. */
std::uint64_t fnv1aFold(const Tensor<float>& t, std::uint64_t h);

/**
 * Fatal unless @p be can run the serving engine's per-step attention
 * (paged FP16 binding + Serving scenario). One shared check for the
 * engine constructor and the backend-selecting benches, so the error
 * wording can never drift between them.
 */
void requireServingCapable(const AttentionBackend& be);

/**
 * Shared batch fan-out of the backend adapters: one task per item across
 * @p batch.pool (each inner kernel serial), except a single-item batch,
 * which hands the pool to the kernel's KV chunks instead. Bitwise
 * identical either way because every kernel is thread-count invariant.
 */
std::vector<Tensor<float>> runBatch(
    const DecodeBatch& batch,
    const std::function<Tensor<float>(const DecodeItem&, exec::ThreadPool*)>&
        kernel);

/** FNV-1a offset basis shared by the digest helpers. */
constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;

} // namespace bitdec::backend

#endif // BITDEC_BACKEND_ATTENTION_BACKEND_H
