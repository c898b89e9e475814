#include "gemm/gemm_plan.h"

#include <numeric>

#include "core/check.h"

namespace mx {
namespace gemm {

using core::kernels::QuantPlan;

namespace {

/** ceil(log2(n)) for n >= 1. */
int
ceil_log2(std::size_t n)
{
    int bits = 0;
    std::size_t v = 1;
    while (v < n) {
        v <<= 1;
        ++bits;
    }
    return bits;
}

/**
 * Bits needed by one k1-block pair's integer accumulator: per-element
 * products reach 2^(ma + mb), the tau alignment left-shifts by up to
 * budget, and k1 shifted products sum — plus one sign bit.
 */
int
block_accumulator_bits(const QuantPlan& a, const QuantPlan& b)
{
    const int budget = ((1 << a.d2) - 1) + ((1 << b.d2) - 1);
    return a.m + b.m + budget + ceil_log2(static_cast<std::size_t>(a.k1)) +
           1;
}

} // namespace

bool
operand_eligible(const QuantPlan& plan)
{
    // int16 mantissa lanes: |M| <= 2^m - 1 must fit, and the AVX2
    // madd_epi16 pair products must not overflow int32 when paired with
    // any other eligible operand (15 + 15 + 1 = 31 bits).
    return plan.m <= 15;
}

/** An operand's mantissas shifted left by up to beta fit int32 (the
 *  scalar kernel's aligned lanes). */
bool
aligned_fits_int32(const QuantPlan& plan)
{
    return plan.m + plan.beta <= 31;
}

bool
gemm_compatible(const QuantPlan& a, const QuantPlan& b)
{
    return operand_eligible(a) && operand_eligible(b) && a.k1 == b.k1 &&
           aligned_fits_int32(a) && aligned_fits_int32(b) &&
           block_accumulator_bits(a, b) <= 62;
}

GemmPlan
make_gemm_plan(const QuantPlan& a, const QuantPlan& b)
{
    MX_CHECK_ARG(a.k1 == b.k1,
                 "make_gemm_plan: operand block granularities differ (k1="
                     << a.k1 << " vs " << b.k1 << ")");
    MX_CHECK_ARG(operand_eligible(a) && operand_eligible(b),
                 "make_gemm_plan: mantissa too wide for the int16 "
                 "execution view (m=" << a.m << ", " << b.m << ")");
    MX_CHECK_ARG(aligned_fits_int32(a) && aligned_fits_int32(b),
                 "make_gemm_plan: a mantissa shifted by beta would "
                 "overflow int32");
    MX_CHECK_ARG(block_accumulator_bits(a, b) <= 62,
                 "make_gemm_plan: shifted block accumulator would "
                 "overflow int64");

    GemmPlan p;
    p.a = a;
    p.b = b;
    // A side without sub-shifts (d2 == 0) has a block-constant shift, so
    // the pairwise-constant granularity is governed by the other side.
    const int ga = a.d2 > 0 ? a.k2 : a.k1;
    const int gb = b.d2 > 0 ? b.k2 : b.k1;
    p.g = std::gcd(ga, gb);
    p.budget = a.beta + b.beta;
    p.exp_bias = (a.m - 1) + (b.m - 1) + p.budget;
    return p;
}

} // namespace gemm
} // namespace mx
