/**
 * @file
 * Micro-scaling (MX) floating-point formats for Blackwell's native
 * low-precision Tensor Cores: MXFP4 (E2M1 elements, E8M0 power-of-two
 * scale per 32 elements) and NVFP4 (E2M1 elements, E4M3 scale per 16
 * elements), per the OCP MX specification and NVIDIA's Blackwell ISA.
 */
#ifndef BITDEC_QUANT_MX_FORMAT_H
#define BITDEC_QUANT_MX_FORMAT_H

#include <cstdint>
#include <vector>

#include "common/half.h"
#include "common/tensor.h"

namespace bitdec::quant {

/** Decodes a 4-bit E2M1 code (sign, 2-bit exp, 1-bit mantissa). */
float e2m1Decode(std::uint8_t code);

/** Encodes a float to the nearest E2M1 code (ties to even mantissa). */
std::uint8_t e2m1Encode(float x);

/** Decodes an 8-bit E8M0 scale (2^(e-127); 0xFF is NaN -> returns NaN). */
float e8m0Decode(std::uint8_t bits);

/** Encodes the largest power of two <= |x| as E8M0 (clamped to range). */
std::uint8_t e8m0Encode(float x);

/** Decodes an 8-bit E4M3 value (bias 7, max 448, 0x7F/0xFF are NaN). */
float e4m3Decode(std::uint8_t bits);

/** Encodes a float to the nearest E4M3 value. */
std::uint8_t e4m3Encode(float x);

/** MX block-scaled format selector. */
enum class MxKind
{
    MXFP4, //!< E2M1 x 32, E8M0 scale
    NVFP4, //!< E2M1 x 16, E4M3 scale
};

/** Elements sharing one scale in the given format. */
constexpr int
mxBlockSize(MxKind kind)
{
    return kind == MxKind::MXFP4 ? 32 : 16;
}

/** A block-scaled low-precision vector. */
struct MxVector
{
    MxKind kind;
    std::vector<std::uint8_t> codes;  //!< one E2M1 code per element
    std::vector<std::uint8_t> scales; //!< one scale per block

    /** Decoded value of element @p i. */
    float valueAt(std::size_t i) const;

    /** Number of elements. */
    std::size_t size() const { return codes.size(); }
};

/**
 * Encodes a float vector into the block-scaled format. The length must be
 * a multiple of the block size. Scale selection follows the hardware rule:
 * MXFP4 uses 2^(floor(log2(amax)) - 2) so the largest magnitude maps into
 * E2M1's range; NVFP4 uses amax/6 rounded to E4M3.
 */
MxVector mxEncode(const std::vector<float>& x, MxKind kind);

/**
 * Encodes a row-major matrix row-by-row (blocks run along columns, the K
 * dimension of the MMA, as the hardware requires).
 */
struct MxMatrix
{
    MxKind kind;
    std::size_t rows = 0;
    std::size_t cols = 0;
    Tensor<std::uint8_t> codes;  //!< [rows x cols]
    Tensor<std::uint8_t> scales; //!< [rows x cols/block]

    float valueAt(std::size_t r, std::size_t c) const;
};

/** Encodes a half matrix into MX format with blocks along rows. */
MxMatrix mxEncodeMatrix(const Tensor<Half>& x, MxKind kind);

/** Decodes an MX matrix back to half precision. */
Tensor<Half> mxDecodeMatrix(const MxMatrix& m);

} // namespace bitdec::quant

#endif // BITDEC_QUANT_MX_FORMAT_H
