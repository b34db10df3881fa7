/**
 * @file
 * Scalar kernel table: the bottom rung of the level ladder, compiled with
 * the library's baseline flags. The 16-lane fold and its exp are
 * fold16.h's template over ScalarLanes (sixteen plain floats); conversion
 * goes through the exact LUT, group values through
 * quant::dequantMagicGroup, the dequant walks the plan's arrays one
 * destination at a time, and the seal is quant::quantizeMatrix's
 * arithmetic written straight into the words. Every entry gives the
 * bytes of the SIMD tables.
 */
#include "exec/simd/kernel_table.h"

#include <algorithm>

#include "exec/simd/fold16.h"
#include "quant/fast_dequant.h"
#include "quant/int_quant.h"

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

/** The reference arithmetic over raw arrays, group after group in
 *  quantizeMatrix's params order: the std::min/std::max chain,
 *  quant::computeParams, quant::quantizeValue per element, and each code
 *  ORed into its word through the plan arrays. */
void
sealOperandScalar(const SealOperand& op)
{
    const float* lut = halfToFloatLut();
    const std::size_t nt = static_cast<std::size_t>(op.tokens);
    const std::size_t d = static_cast<std::size_t>(op.d);
    const std::size_t gs = static_cast<std::size_t>(op.group_size);
    for (std::size_t g = 0; g < nt * d / gs; g++) {
        // First element of group g and the step to its next one.
        const std::size_t t0 = op.channel_wise ? g / d * gs : g / (d / gs);
        const std::size_t c0 = op.channel_wise ? g % d : g % (d / gs) * gs;
        const std::size_t dt = op.channel_wise ? 1 : 0;
        const std::size_t dc = 1 - dt;
        const auto x = [&](std::size_t i) {
            return lut[op.src[(t0 + i * dt) * d + c0 + i * dc].bits()];
        };
        float mn = x(0);
        float mx = mn;
        for (std::size_t i = 1; i < gs; i++) {
            const float v = x(i);
            mn = std::min(mn, v);
            mx = std::max(mx, v);
        }
        const quant::QuantParams p = quant::computeParams(mn, mx, op.bits);
        op.params[g] = p.asHalf2();
        for (std::size_t i = 0; i < gs; i++) {
            const std::size_t t = t0 + i * dt;
            const std::size_t c = c0 + i * dc;
            const std::size_t k = op.keys ? c * nt + t : t * d + c;
            op.units[op.unit_of[k]] |=
                std::uint32_t{quant::quantizeValue(x(i), p, op.bits)}
                << op.shift_of[k];
        }
    }
}

const KernelTable kTable = {
    convertRowsScalar,
    convertTransposeScalar,
    foldTile<ScalarLanes>,
    expRows<ScalarLanes>,
    groupValuesScalar,
    dequantLinearScalar,
    sealOperandScalar,
};

} // namespace

const KernelTable*
scalarKernels()
{
    return &kTable;
}

} // namespace bitdec::exec::simd
