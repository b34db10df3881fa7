#include "attention/reference.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace bitdec::attn {

Tensor<float>
referenceAttention(const Tensor<Half>& q, const Tensor<Half>& k,
                   const Tensor<Half>& v, float scale)
{
    BITDEC_ASSERT(q.rank() == 2 && k.rank() == 2 && v.rank() == 2,
                  "attention operands must be 2-D");
    const std::size_t gq = q.dim(0);
    const std::size_t d = q.dim(1);
    const std::size_t len = k.dim(0);
    BITDEC_ASSERT(k.dim(1) == d && v.dim(1) == d && v.dim(0) == len,
                  "attention operand shapes disagree");

    Tensor<float> out({gq, d});
    std::vector<float> logits(len);
    for (std::size_t r = 0; r < gq; r++) {
        float m = -std::numeric_limits<float>::infinity();
        for (std::size_t t = 0; t < len; t++) {
            float s = 0.f;
            for (std::size_t c = 0; c < d; c++)
                s += q.at(r, c).toFloat() * k.at(t, c).toFloat();
            logits[t] = s * scale;
            m = std::max(m, logits[t]);
        }
        float l = 0.f;
        for (std::size_t t = 0; t < len; t++) {
            logits[t] = std::exp(logits[t] - m);
            l += logits[t];
        }
        for (std::size_t c = 0; c < d; c++) {
            float acc = 0.f;
            for (std::size_t t = 0; t < len; t++)
                acc += logits[t] * v.at(t, c).toFloat();
            out.at(r, c) = acc / l;
        }
    }
    return out;
}

OnlineSoftmaxRow::OnlineSoftmaxRow(int d)
    : m(-std::numeric_limits<float>::infinity()),
      l(0.f),
      acc(static_cast<std::size_t>(d), 0.f)
{
}

void
OnlineSoftmaxRow::update(const std::vector<float>& scores, const Tensor<Half>& v,
                         int v_row0)
{
    float block_max = m;
    for (float s : scores)
        block_max = std::max(block_max, s);
    if (block_max == -std::numeric_limits<float>::infinity())
        return;
    const float rescale = std::exp(m - block_max);
    m = block_max;
    l *= rescale;
    for (auto& a : acc)
        a *= rescale;
    for (std::size_t i = 0; i < scores.size(); i++) {
        const float p = std::exp(scores[i] - m);
        l += p;
        for (std::size_t c = 0; c < acc.size(); c++) {
            acc[c] += p * v.at(static_cast<std::size_t>(v_row0) + i, c)
                              .toFloat();
        }
    }
}

std::vector<float>
OnlineSoftmaxRow::finalize() const
{
    std::vector<float> out(acc.size());
    const float inv = l > 0.f ? 1.0f / l : 0.f;
    for (std::size_t i = 0; i < acc.size(); i++)
        out[i] = acc[i] * inv;
    return out;
}

OnlineSoftmaxRow
mergeSoftmaxRows(const OnlineSoftmaxRow& a, const OnlineSoftmaxRow& b)
{
    BITDEC_ASSERT(a.acc.size() == b.acc.size(), "merge width mismatch");
    OnlineSoftmaxRow out(static_cast<int>(a.acc.size()));
    out.m = std::max(a.m, b.m);
    if (out.m == -std::numeric_limits<float>::infinity())
        return out;
    const float ra = std::exp(a.m - out.m);
    const float rb = std::exp(b.m - out.m);
    out.l = a.l * ra + b.l * rb;
    for (std::size_t i = 0; i < out.acc.size(); i++)
        out.acc[i] = a.acc[i] * ra + b.acc[i] * rb;
    return out;
}

float
maxAbsDiff(const Tensor<float>& a, const Tensor<float>& b)
{
    BITDEC_ASSERT(a.numel() == b.numel(), "shape mismatch");
    float err = 0.f;
    for (std::size_t i = 0; i < a.numel(); i++)
        err = std::max(err, std::fabs(a[i] - b[i]));
    return err;
}

} // namespace bitdec::attn
