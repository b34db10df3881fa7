#include "core/bitdecoding.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "attention/reference.h"
#include "common/logging.h"
#include "core/residual_kernel.h"
#include "quant/fast_dequant.h"

namespace bitdec::core {

std::string
BitDecodingConfig::label() const
{
    if (use_mx) {
        return std::string("BitDecoding-") +
               (mx_kind == quant::MxKind::MXFP4 ? "mxfp4" : "nvfp4");
    }
    std::string l = "BitDecoding-" + quant.label();
    if (version == 3)
        l += " (v3)";
    return l;
}

HeadDecoder::HeadDecoder(int head_dim, const BitDecodingConfig& config)
    : config_(config), cache_(head_dim, config.quant, config.tiling)
{
}

void
HeadDecoder::prefill(const Tensor<Half>& k, const Tensor<Half>& v)
{
    cache_.prefill(k, v);
}

void
HeadDecoder::appendToken(const std::vector<Half>& k, const std::vector<Half>& v)
{
    cache_.append(k, v);
}

PackingKernelResult
HeadDecoder::decodeStep(const Tensor<Half>& q_tile, float scale)
{
    PackingKernelOptions opts;
    opts.coop_softmax = config_.coop_softmax;
    opts.hopper_smem_path = config_.version == 3;
    return packingKernelAttention(q_tile, cache_, scale, opts);
}

namespace {

/** Builds the fused Packing-Kernel workload for the timing model. */
sim::KernelWorkload
packingKernelWorkload(const sim::GpuArch& arch, const attn::DecodeShape& shape,
                      const BitDecodingConfig& config,
                      const BitDecodingAblation& ab)
{
    const quant::QuantConfig& qc = config.quant;
    const int splits = attn::chooseNumSplits(arch, shape);

    sim::KernelWorkload wl;
    wl.label = config.label();
    wl.dram_read_bytes = shape.packedKvBytes(qc.bits) +
                         shape.metadataBytes(qc) + shape.qoBytes() / 2;
    wl.dram_write_bytes =
        shape.qoBytes() / 2 + attn::splitWorkspaceBytes(shape, splits) / 2;

    if (config.use_mx && arch.has_mxfp4_mma) {
        // Native block-scaled MMA: no dequantization, but P re-quantizes
        // after softmax before the PV MMA.
        wl.tc_flops_lowbit = attn::tcFlopsIssued(shape);
        wl.lowbit_width = 4;
        const double scores = static_cast<double>(shape.batch) *
                              shape.num_q_heads * shape.seq_len;
        wl.cuda = attn::softmaxOps(shape);
        wl.cuda.alu += scores * 2.0; // Quant(P): encode + scale extraction
        wl.cuda.fma += scores * 0.5;
    } else {
        wl.tc_flops_fp16 = attn::tcFlopsIssued(shape);
        const double elems = 2.0 * shape.batch * shape.num_kv_heads *
                             static_cast<double>(shape.seq_len) *
                             shape.head_dim;
        const quant::DequantCost cost =
            quant::dequantWordCost(qc.bits, /*fast_path=*/ab.layout);
        const double words = elems / quant::codesPerWord(qc.bits);
        wl.cuda.alu = words * cost.alu;
        wl.cuda.fma = words * cost.fma;
        wl.cuda += attn::softmaxOps(shape);
    }

    // Tiles stage through shared memory; the cooperative softmax adds the
    // sAcc round trip (P written and re-read once, in half precision).
    const double p_roundtrip = 2.0 * shape.batch * shape.num_q_heads *
                               static_cast<double>(shape.seq_len) * 2.0;
    wl.smem_bytes = 2.0 * (shape.packedKvBytes(qc.bits) +
                           shape.metadataBytes(qc)) +
                    p_roundtrip;
    wl.smem_conflict_factor = 1.0; // XOR-swizzled (Eq. 2)

    wl.ctas = shape.batch * shape.num_kv_heads * splits;
    wl.warps_per_cta = ab.warps ? config.tiling.warps() : 1;
    wl.wn = ab.warps ? config.tiling.wn : 1;
    wl.overlappable_cuda_fraction = ab.pipeline ? 0.9 : 0.0;
    wl.serialize_pipes = !ab.pipeline;
    wl.pipeline_fill_overhead = config.version == 3 ? 0.01 : 0.02;

    if (config.version == 3 && arch.has_wgmma) {
        wl.tc_flops_fp16 /= 1.35; // wgmma sustains a higher peak fraction
        wl.smem_bytes *= 0.75;    // TMA feeds smem without register bounce
    } else if (config.version == 2 && arch.has_wgmma) {
        // Legacy SM80 instruction stream on Hopper: dequant-heavy kernels
        // lose more sustained throughput than plain FP16 ones.
        wl.dram_derate = 1.5;
    }
    if (attn::isPaged(shape.scenario)) {
        const double pages = 2.0 * shape.batch * shape.num_kv_heads *
                             (static_cast<double>(shape.seq_len) /
                              shape.page_size);
        wl.cuda.alu += pages * 2.0;
        wl.dram_read_bytes += pages * 8.0;
    }
    return wl;
}

} // namespace

sim::SequenceTiming
bitDecodingTime(const sim::GpuArch& arch, const attn::DecodeShape& shape,
                const BitDecodingConfig& config,
                const BitDecodingAblation& ablation)
{
    std::vector<sim::KernelWorkload> seq;

    if (!ablation.layout) {
        // Continuous-packing baseline (Fig. 16): re-quantize and re-pack
        // the whole cache every step in a standalone pass, with manual
        // layout maintenance.
        const double fp16_kv = shape.fp16KvBytes();
        sim::KernelWorkload pack;
        pack.label = "continuous-packing";
        pack.dram_read_bytes = fp16_kv;
        pack.dram_write_bytes = shape.packedKvBytes(config.quant.bits) +
                                shape.metadataBytes(config.quant);
        const double elems = 2.0 * shape.batch * shape.num_kv_heads *
                             static_cast<double>(shape.seq_len) *
                             shape.head_dim;
        pack.cuda.alu = elems * 3.0; // min/max, quantize, pack shifts
        pack.cuda.fma = elems;
        pack.ctas = arch.num_sms * 4;
        pack.wn = 4;
        seq.push_back(pack);
    }

    seq.push_back(packingKernelWorkload(arch, shape, config, ablation));

    // Residual Kernel launch: attention over the FP16 tail (average fill
    // Nr/2); the block quantize+pack amortizes to noise across Nr steps.
    {
        const int nr =
            layout::residualBlockSize(config.tiling, config.quant.bits);
        sim::KernelWorkload res_wl;
        res_wl.label = "residual-kernel";
        res_wl.dram_read_bytes = 2.0 * shape.batch * shape.num_kv_heads *
                                 (nr / 2.0) * shape.head_dim * 2.0;
        res_wl.dram_write_bytes = shape.qoBytes() / 2;
        attn::DecodeShape rs = shape;
        rs.seq_len = nr / 2;
        res_wl.tc_flops_fp16 = attn::tcFlopsIssued(rs);
        res_wl.cuda = attn::softmaxOps(rs);
        res_wl.ctas = shape.batch * shape.num_kv_heads;
        res_wl.wn = 4;
        seq.push_back(res_wl);
    }

    const int splits = attn::chooseNumSplits(arch, shape);
    if (splits > 1) {
        sim::KernelWorkload combine;
        combine.label = "split-combine";
        combine.dram_read_bytes = attn::splitWorkspaceBytes(shape, splits) / 2;
        combine.dram_write_bytes = shape.qoBytes() / 2;
        combine.cuda.fma = static_cast<double>(shape.batch) *
                           shape.num_q_heads * shape.head_dim * splits;
        combine.ctas = shape.batch * shape.num_q_heads;
        combine.wn = 4;
        seq.push_back(combine);
    }
    return resolveSequence(arch, seq);
}

KernelBreakdown
bitDecodingBreakdown(const sim::GpuArch& arch, const attn::DecodeShape& shape,
                     const BitDecodingConfig& config)
{
    const sim::SequenceTiming t = bitDecodingTime(arch, shape, config);

    KernelBreakdown b;
    b.total_s = t.total_s;
    b.tc_utilization = t.tcUtilization();
    b.mem_utilization = t.memUtilization();

    // Standalone dequant/quant op time: rebuild the main workload and
    // isolate the non-softmax CUDA-core ops.
    const sim::KernelWorkload main =
        packingKernelWorkload(arch, shape, config, {});
    const sim::CudaCoreOps softmax = attn::softmaxOps(shape);
    sim::CudaCoreOps dq = main.cuda;
    dq.alu = std::max(0.0, dq.alu - softmax.alu);
    dq.fma = std::max(0.0, dq.fma - softmax.fma);
    dq.sfu = std::max(0.0, dq.sfu - softmax.sfu);
    const double cta_cover = std::min(
        1.0, static_cast<double>(main.ctas) / arch.num_sms);
    b.dequant_s = dq.weighted() / (arch.cudaOps() * std::max(1e-3, cta_cover));

    const double slots = std::max(1e-9, main.cuda.weighted());
    b.fma_share = main.cuda.fma / slots;
    b.alu_share = main.cuda.alu / slots;
    return b;
}

MxKvCache
mxEncodeKv(const Tensor<Half>& k, const Tensor<Half>& v, quant::MxKind kind)
{
    MxKvCache kv;
    kv.len = k.dim(0);
    kv.d = k.dim(1);
    // K rows feed QK^T along d: blocks along d. V feeds PV along tokens;
    // encode V^T so blocks run along the MMA K dimension (tokens). The
    // transpose is a single raw-storage pass (bit moves, no conversion).
    kv.k = quant::mxEncodeMatrix(k, kind);
    Tensor<Half> vt({v.dim(1), v.dim(0)});
    const Half* src = v.data();
    Half* dst = vt.data();
    const std::size_t rows = v.dim(0);
    const std::size_t cols = v.dim(1);
    for (std::size_t t = 0; t < rows; t++)
        for (std::size_t c = 0; c < cols; c++)
            dst[c * rows + t] = src[t * cols + c];
    kv.vt = quant::mxEncodeMatrix(vt, kind);
    return kv;
}

Tensor<float>
mxAttention(const Tensor<Half>& q, const MxKvCache& kv, float scale,
            bool requantize_p, exec::ThreadPool* pool)
{
    const std::size_t gq = q.dim(0);
    const std::size_t d = q.dim(1);
    const std::size_t len = kv.len;
    BITDEC_ASSERT(d == kv.d, "query width mismatch");
    const std::size_t block =
        static_cast<std::size_t>(quant::mxBlockSize(kv.k.kind));
    const std::size_t padded_len = len == 0
                                       ? 0
                                       : (len + block - 1) / block * block;

    // Bulk-convert Q once; per-row buffers hoist out of the row loop and
    // are reused across rows (thread-local under the pool).
    std::vector<float> qf(gq * d);
    toFloat(q.data(), qf.data(), qf.size());

    Tensor<float> out({gq, d});
    exec::parallelFor(pool, gq, [&](std::size_t r) {
        thread_local std::vector<float> logits, p, padded;
        if (logits.size() < len) {
            logits.resize(len);
            p.resize(len);
        }

        const float* qrow = qf.data() + r * d;
        float m = -std::numeric_limits<float>::infinity();
        for (std::size_t t = 0; t < len; t++) {
            float s = 0.f;
            for (std::size_t c = 0; c < d; c++)
                s += qrow[c] * kv.k.valueAt(t, c);
            logits[t] = s * scale;
            m = std::max(m, logits[t]);
        }
        float l = 0.f;
        for (std::size_t t = 0; t < len; t++) {
            p[t] = std::exp(logits[t] - m);
            l += p[t];
        }
        if (requantize_p && len > 0) {
            // Quant(P): the PV MMA consumes P in the low-precision format,
            // re-quantized on the fly per block of tokens. resize() only
            // trims/extends within retained capacity — no reallocation in
            // steady state.
            padded.resize(padded_len);
            std::fill(padded.begin(), padded.end(), 0.f);
            std::copy(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(len),
                      padded.begin());
            const quant::MxVector pq = quant::mxEncode(padded, kv.k.kind);
            for (std::size_t t = 0; t < len; t++)
                p[t] = pq.valueAt(t);
        }
        for (std::size_t c = 0; c < d; c++) {
            float acc = 0.f;
            for (std::size_t t = 0; t < len; t++)
                acc += p[t] * kv.vt.valueAt(c, t);
            out.at(r, c) = l > 0.f ? acc / l : 0.f;
        }
    });
    return out;
}

Tensor<float>
mxAttention(const Tensor<Half>& q, const Tensor<Half>& k, const Tensor<Half>& v,
            quant::MxKind kind, float scale, bool requantize_p)
{
    return mxAttention(q, mxEncodeKv(k, v, kind), scale, requantize_p);
}

} // namespace bitdec::core
