#include "core/kernels/quant_kernel.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/check.h"

namespace mx {
namespace core {

double
Pow2BlockEncoding::decode(const BdrFormat& fmt, std::size_t i) const
{
    MX_CHECK_ARG(i < mantissa.size(), "decode: index out of range");
    std::size_t sub = i / static_cast<std::size_t>(fmt.k2);
    int tau = sub < sub_shift.size() ? sub_shift[sub] : 0;
    return static_cast<double>(mantissa[i]) *
           std::ldexp(1.0, shared_exp - tau - (fmt.m - 1));
}

namespace kernels {

namespace {

/** Sentinel for an all-zero (sub-)block, mirroring kAllZeroExponent. */
constexpr int kZeroExp = -100000;

/** floor(log2(max|x_i|)) over [p, p+n), or kZeroExp when all zero. */
int
span_exponent(const float* p, std::size_t n)
{
    float amax = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
        amax = std::max(amax, std::fabs(p[i]));
    if (amax == 0.0f)
        return kZeroExp;
    int ex;
    std::frexp(amax, &ex);
    return ex - 1; // 2^(ex-1) <= amax < 2^ex
}

/**
 * 2^e as a double: the shared detail::pow2_double (every step/inv_step
 * of a nonzero block lands in the normal range: shared_e is bounded by
 * the float exponent range, so e stays within [-427, 427]; the ldexp
 * fallback covers the decode of all-zero blocks, whose e_min-based
 * exponent can leave the normal range for wide d1).
 */
inline double
pow2d(int e)
{
    return detail::pow2_double(e);
}

} // namespace

QuantPlan
make_quant_plan(const BdrFormat& fmt)
{
    // Exactly the BdrFormat::validate() domain for this family — the
    // plan must accept every format validate() accepts.
    MX_CHECK_ARG(fmt.elem == ElementKind::SignMagnitude &&
                 fmt.s_kind == ScaleKind::Pow2Hw,
                 fmt.name << ": the block kernels need a pow2 HW format");
    MX_CHECK_ARG(fmt.m >= 0 && fmt.m <= 23, fmt.name << ": bad mantissa width");
    MX_CHECK_ARG(fmt.d1 >= 1 && fmt.d1 <= 11, fmt.name << ": bad d1");
    MX_CHECK_ARG(fmt.k1 >= 1 && fmt.k2 >= 1 && fmt.k1 % fmt.k2 == 0,
                 fmt.name << ": bad block granularities");
    MX_CHECK_ARG(fmt.d2 >= 0 && fmt.d2 <= 4, fmt.name << ": bad d2");

    QuantPlan p;
    p.m = fmt.m;
    p.d1 = fmt.d1;
    p.k1 = fmt.k1;
    p.d2 = fmt.d2;
    p.k2 = fmt.k2;
    p.e_max = (1 << (fmt.d1 - 1)) - 1;
    p.e_min = 1 - (1 << (fmt.d1 - 1));
    p.beta = (1 << fmt.d2) - 1;
    p.mant_max = (1 << fmt.m) - 1;
    p.mant_max_d = static_cast<double>(p.mant_max);
    return p;
}

namespace {

/**
 * The reference block quantizer behind reference_quantize_block and
 * reference_encode_block.  kGrid writes the dequantized floats to
 * @p out; Mant is the mantissa type (narrowed from int32 exactly as a
 * static_cast of the int32 encoding would be).
 */
template <bool kGrid, typename Mant>
int
quantize_block_impl(const QuantPlan& plan, const float* in, std::size_t n,
                    float* out, const Rounder& rounder,
                    std::uint8_t* tau_out, Mant* mant_out)
{
    MX_CHECK_ARG(n <= static_cast<std::size_t>(plan.k1),
                 "quantize_block: block larger than k1");
    const std::size_t k2 = static_cast<std::size_t>(plan.k2);
    const std::size_t n_sub = plan.num_sub_blocks(n);

    const int raw_e = span_exponent(in, n);
    if (raw_e == kZeroExp) {
        if constexpr (kGrid)
            std::fill(out, out + n, 0.0f);
        if (tau_out)
            std::fill(tau_out, tau_out + n_sub,
                      static_cast<std::uint8_t>(plan.beta));
        if (mant_out)
            std::fill(mant_out, mant_out + n, Mant{0});
        return plan.e_min;
    }
    const int shared_e = std::clamp(raw_e, plan.e_min, plan.e_max);

    for (std::size_t sub = 0; sub < n_sub; ++sub) {
        const std::size_t lo = sub * k2;
        const std::size_t hi = std::min(n, lo + k2);
        const int sub_e = span_exponent(in + lo, hi - lo);
        const int tau = sub_e == kZeroExp
            ? plan.beta
            : std::clamp(shared_e - sub_e, 0, plan.beta);
        if (tau_out)
            tau_out[sub] = static_cast<std::uint8_t>(tau);

        // step is a power of two, so multiplying by its inverse is the
        // exact same real value as the division the seed code used.
        const int shift = shared_e - tau - (plan.m - 1);
        const double step = pow2d(shift);
        const double inv_step = pow2d(-shift);
        for (std::size_t i = lo; i < hi; ++i) {
            const double a = std::fabs(static_cast<double>(in[i]));
            double q = rounder.round(a * inv_step);
            q = std::min(q, plan.mant_max_d); // hardware saturation
            const bool neg = std::signbit(in[i]);
            if constexpr (kGrid) {
                const double deq = q * step;
                out[i] = static_cast<float>(neg ? -deq : deq);
            }
            if (mant_out)
                mant_out[i] = static_cast<Mant>(
                    static_cast<std::int32_t>(neg ? -q : q));
        }
    }
    return shared_e;
}

} // namespace

int
reference_quantize_block(const QuantPlan& plan, const float* in,
                         std::size_t n, float* out, const Rounder& rounder,
                         std::uint8_t* tau_out, std::int32_t* mant_out)
{
    return quantize_block_impl<true>(plan, in, n, out, rounder, tau_out,
                                     mant_out);
}

int
reference_encode_block(const QuantPlan& plan, const float* in, std::size_t n,
                       const Rounder& rounder, std::uint8_t* tau_out,
                       std::int16_t* mant_out)
{
    return quantize_block_impl<false>(plan, in, n, nullptr, rounder,
                                      tau_out, mant_out);
}

void
reference_dequantize_block(const QuantPlan& plan, int shared_exp,
                           const std::uint8_t* taus, const std::int32_t* mant,
                           std::size_t n, float* out)
{
    const std::size_t k2 = static_cast<std::size_t>(plan.k2);
    const std::size_t n_sub = plan.num_sub_blocks(n);
    for (std::size_t sub = 0; sub < n_sub; ++sub) {
        const std::size_t lo = sub * k2;
        const std::size_t hi = std::min(n, lo + k2);
        const double step = pow2d(shared_exp - taus[sub] - (plan.m - 1));
        for (std::size_t i = lo; i < hi; ++i)
            out[i] = static_cast<float>(static_cast<double>(mant[i]) * step);
    }
}

void
QuantKernel::quantize_rows(const QuantPlan& plan, const float* in,
                           float* out, std::size_t rows, std::size_t cols,
                           const Rounder& rounder) const
{
    const std::size_t k1 = static_cast<std::size_t>(plan.k1);
    if (cols % k1 == 0) {
        // Blocks cannot straddle a row boundary, so the whole matrix is
        // one contiguous span and one kernel call.
        quantize(plan, std::span<const float>(in, rows * cols),
                 std::span<float>(out, rows * cols), rounder);
        return;
    }
    for (std::size_t r = 0; r < rows; ++r)
        quantize(plan, std::span<const float>(in + r * cols, cols),
                 std::span<float>(out + r * cols, cols), rounder);
}

void
QuantKernel::quantize_pack_rows(const QuantPlan& plan, const float* in,
                                std::size_t rows, std::size_t cols,
                                const Rounder& rounder,
                                BitWriter& writer) const
{
    const std::size_t k1 = static_cast<std::size_t>(plan.k1);
    if (cols % k1 == 0) {
        quantize_pack(plan, std::span<const float>(in, rows * cols),
                      rounder, writer);
        return;
    }
    for (std::size_t r = 0; r < rows; ++r)
        quantize_pack(plan, std::span<const float>(in + r * cols, cols),
                      rounder, writer);
}

} // namespace kernels
} // namespace core
} // namespace mx
