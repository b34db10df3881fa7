/**
 * @file
 * Numerically trustworthy attention references and online-softmax
 * primitives shared by the functional kernels.
 */
#ifndef BITDEC_ATTENTION_REFERENCE_H
#define BITDEC_ATTENTION_REFERENCE_H

#include <vector>

#include "common/half.h"
#include "common/tensor.h"

namespace bitdec::attn {

/**
 * FP32 reference attention for one KV head group.
 *
 * @param q     [gq x d] query rows (after query transformation)
 * @param k     [L x d] keys
 * @param v     [L x d] values
 * @param scale logit scale (usually 1/sqrt(d))
 * @return      [gq x d] output in FP32
 */
Tensor<float> referenceAttention(const Tensor<Half>& q, const Tensor<Half>& k,
                                 const Tensor<Half>& v, float scale);

/**
 * Running state of one online-softmax row (FlashAttention recurrence):
 * m = running max, l = running exp-sum, acc = unnormalized output row.
 */
struct OnlineSoftmaxRow
{
    float m;
    float l;
    std::vector<float> acc;

    /** Initializes an empty row of width @p d. */
    explicit OnlineSoftmaxRow(int d);

    /**
     * Folds one block of scores and value rows into the state.
     * @param scores block logits (already scaled)
     * @param v      [block x d] value rows
     */
    void update(const std::vector<float>& scores, const Tensor<Half>& v,
                int v_row0);

    /** Final normalized output row. */
    std::vector<float> finalize() const;
};

/**
 * Merges two online-softmax partial states (split-KV combine step):
 * the standard (m, l, acc) log-sum-exp merge.
 */
OnlineSoftmaxRow mergeSoftmaxRows(const OnlineSoftmaxRow& a,
                                  const OnlineSoftmaxRow& b);

/** Largest |a - b| over two same-shaped FP32 matrices. */
float maxAbsDiff(const Tensor<float>& a, const Tensor<float>& b);

} // namespace bitdec::attn

#endif // BITDEC_ATTENTION_REFERENCE_H
