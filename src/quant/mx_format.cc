#include "quant/mx_format.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace bitdec::quant {

namespace {

/** The eight non-negative E2M1 magnitudes. */
constexpr float kE2m1Values[8] = {0.0f, 0.5f, 1.0f, 1.5f, 2.0f, 3.0f, 4.0f,
                                  6.0f};

} // namespace

float
e2m1Decode(std::uint8_t code)
{
    const float mag = kE2m1Values[code & 0x7];
    return (code & 0x8) ? -mag : mag;
}

std::uint8_t
e2m1Encode(float x)
{
    if (std::isnan(x))
        return 0x7; // saturate NaN to max magnitude, as the hardware does
    const std::uint8_t sign = std::signbit(x) ? 0x8 : 0x0;
    const float a = std::fabs(x);
    // Round to nearest value; ties go to the code with an even mantissa
    // bit, matching round-to-nearest-even on device.
    int best = 0;
    float best_err = std::numeric_limits<float>::infinity();
    for (int i = 0; i < 8; i++) {
        const float err = std::fabs(a - kE2m1Values[i]);
        if (err < best_err) {
            best = i;
            best_err = err;
        } else if (err == best_err && (i & 1) == 0 && (best & 1) == 1) {
            best = i;
        }
    }
    return sign | static_cast<std::uint8_t>(best);
}

float
e8m0Decode(std::uint8_t bits)
{
    if (bits == 0xFF)
        return std::numeric_limits<float>::quiet_NaN();
    return std::ldexp(1.0f, static_cast<int>(bits) - 127);
}

std::uint8_t
e8m0Encode(float x)
{
    if (x <= 0.f || !std::isfinite(x))
        return 127; // scale 1.0 for degenerate inputs
    int e = static_cast<int>(std::floor(std::log2(x)));
    e = std::clamp(e + 127, 0, 254);
    return static_cast<std::uint8_t>(e);
}

float
e4m3Decode(std::uint8_t bits)
{
    const int sign = (bits & 0x80) ? -1 : 1;
    const int exp = (bits >> 3) & 0xF;
    const int man = bits & 0x7;
    if (exp == 0xF && man == 0x7)
        return std::numeric_limits<float>::quiet_NaN();
    float v;
    if (exp == 0) {
        v = std::ldexp(static_cast<float>(man) / 8.0f, -6); // subnormal
    } else {
        v = std::ldexp(1.0f + static_cast<float>(man) / 8.0f, exp - 7);
    }
    return static_cast<float>(sign) * v;
}

std::uint8_t
e4m3Encode(float x)
{
    if (std::isnan(x))
        return 0x7F;
    std::uint8_t sign = 0;
    if (std::signbit(x)) {
        sign = 0x80;
        x = -x;
    }
    if (x >= 448.f)
        return sign | 0x7E; // saturate to max finite (448)
    if (x < std::ldexp(1.0f, -9)) // below half the smallest subnormal
        return sign;
    // Search the 127 finite magnitudes for the nearest; format is tiny.
    std::uint8_t best = 0;
    float best_err = std::numeric_limits<float>::infinity();
    for (std::uint8_t b = 0; b <= 0x7E; b++) {
        const float v = e4m3Decode(b);
        const float err = std::fabs(x - v);
        if (err < best_err) {
            best_err = err;
            best = b;
        }
    }
    return sign | best;
}

float
MxVector::valueAt(std::size_t i) const
{
    const std::size_t block = i / static_cast<std::size_t>(mxBlockSize(kind));
    const float s = kind == MxKind::MXFP4 ? e8m0Decode(scales[block])
                                          : e4m3Decode(scales[block]);
    return s * e2m1Decode(codes[i]);
}

MxVector
mxEncode(const std::vector<float>& x, MxKind kind)
{
    const std::size_t bs = static_cast<std::size_t>(mxBlockSize(kind));
    BITDEC_ASSERT(x.size() % bs == 0,
                  "MX vector length must be a multiple of the block size");
    MxVector v;
    v.kind = kind;
    v.codes.resize(x.size());
    v.scales.resize(x.size() / bs);

    for (std::size_t b = 0; b < v.scales.size(); b++) {
        float amax = 0.f;
        for (std::size_t i = 0; i < bs; i++)
            amax = std::max(amax, std::fabs(x[b * bs + i]));

        float scale;
        if (kind == MxKind::MXFP4) {
            // Hardware rule: 2^(floor(log2(amax)) - emax_elem), emax=2 for
            // E2M1 (largest magnitude 6 = 1.5 * 2^2).
            const std::uint8_t sbits =
                amax > 0.f ? e8m0Encode(amax / 4.0f) : 127;
            v.scales[b] = sbits;
            scale = e8m0Decode(sbits);
        } else {
            const std::uint8_t sbits =
                amax > 0.f ? e4m3Encode(amax / 6.0f) : e4m3Encode(1.0f);
            v.scales[b] = sbits;
            scale = e4m3Decode(sbits);
            if (scale == 0.f)
                scale = 1.f;
        }
        for (std::size_t i = 0; i < bs; i++)
            v.codes[b * bs + i] = e2m1Encode(x[b * bs + i] / scale);
    }
    return v;
}

float
MxMatrix::valueAt(std::size_t r, std::size_t c) const
{
    const std::size_t bs = static_cast<std::size_t>(mxBlockSize(kind));
    const std::uint8_t sbits = scales.at(r, c / bs);
    const float s =
        kind == MxKind::MXFP4 ? e8m0Decode(sbits) : e4m3Decode(sbits);
    return s * e2m1Decode(codes.at(r, c));
}

MxMatrix
mxEncodeMatrix(const Tensor<Half>& x, MxKind kind)
{
    BITDEC_ASSERT(x.rank() == 2, "mxEncodeMatrix expects a 2-D tensor");
    const std::size_t rows = x.dim(0);
    const std::size_t cols = x.dim(1);
    const std::size_t bs = static_cast<std::size_t>(mxBlockSize(kind));
    BITDEC_ASSERT(cols % bs == 0, "columns must be a multiple of block size");

    MxMatrix m;
    m.kind = kind;
    m.rows = rows;
    m.cols = cols;
    m.codes.reset({rows, cols});
    m.scales.reset({rows, cols / bs});

    std::vector<float> row(cols);
    for (std::size_t r = 0; r < rows; r++) {
        // Rows are contiguous: one bulk LUT conversion per row.
        toFloat(x.data() + r * cols, row.data(), cols);
        const MxVector v = mxEncode(row, kind);
        for (std::size_t c = 0; c < cols; c++)
            m.codes.at(r, c) = v.codes[c];
        for (std::size_t b = 0; b < cols / bs; b++)
            m.scales.at(r, b) = v.scales[b];
    }
    return m;
}

Tensor<Half>
mxDecodeMatrix(const MxMatrix& m)
{
    Tensor<Half> out({m.rows, m.cols});
    std::vector<float> row(m.cols);
    for (std::size_t r = 0; r < m.rows; r++) {
        for (std::size_t c = 0; c < m.cols; c++)
            row[c] = m.valueAt(r, c);
        // Rows are contiguous: one bulk narrowing pass per row.
        fromFloat(row.data(), out.data() + r * m.cols, m.cols);
    }
    return out;
}

} // namespace bitdec::quant
