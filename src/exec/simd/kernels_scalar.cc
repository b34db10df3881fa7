/**
 * @file
 * Scalar kernel table: the bottom rung of the level ladder, compiled with
 * the library's baseline flags. The 16-lane fold and its exp are
 * fold16.h's template over ScalarLanes (sixteen plain floats); conversion
 * goes through the exact LUT, group values through
 * quant::dequantMagicGroup, and the dequant walks the plan's arrays one
 * destination at a time. Every entry gives the bytes of the SIMD tables.
 */
#include "exec/simd/kernel_table.h"

#include "exec/simd/fold16.h"
#include "quant/fast_dequant.h"

namespace bitdec::exec::simd {

namespace {

void
convertRowsScalar(const Half* src, std::size_t n, float* dst)
{
    toFloat(src, dst, n);
}

void
convertTransposeScalar(const Half* src, int tokens, int d, float* kT,
                       int t_stride)
{
    const float* lut = halfToFloatLut();
    const std::size_t dd = static_cast<std::size_t>(d);
    const std::size_t ts = static_cast<std::size_t>(t_stride);
    for (int t = 0; t < tokens; t++)
        for (int c = 0; c < d; c++)
            kT[static_cast<std::size_t>(c) * ts +
               static_cast<std::size_t>(t)] =
                lut[src[static_cast<std::size_t>(t) * dd +
                        static_cast<std::size_t>(c)]
                        .bits()];
}

void
groupValuesScalar(const Half2* params, std::size_t n_groups, int bits,
                  float* values)
{
    for (std::size_t g = 0; g < n_groups; g++)
        quant::dequantMagicGroup(quant::QuantParams::fromHalf2(params[g]),
                                 bits, values + (g << bits));
}

void
dequantLinearScalar(const std::uint32_t* units, const std::uint32_t* unit_of,
                    const std::uint32_t* shift_of,
                    const std::uint32_t* param_of, std::size_t n, int bits,
                    int /*group_run*/, const float* values, float* out)
{
    const std::uint32_t mask = (1u << bits) - 1u;
    for (std::size_t i = 0; i < n; i++)
        out[i] = values[param_of[i] |
                        ((units[unit_of[i]] >> shift_of[i]) & mask)];
}

const KernelTable kTable = {
    convertRowsScalar,
    convertTransposeScalar,
    foldTile<ScalarLanes>,
    expRows<ScalarLanes>,
    groupValuesScalar,
    dequantLinearScalar,
};

} // namespace

const KernelTable*
scalarKernels()
{
    return &kTable;
}

} // namespace bitdec::exec::simd
