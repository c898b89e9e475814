#pragma once

/**
 * @file
 * The pairwise plan of a packed-domain dot product (Figure 6).
 *
 * A packed MX/BFP dot product multiplies two quantized operands whose
 * elements are integer mantissas under two-level power-of-two scaling:
 *
 *   a_k = Ma_k * 2^(Ea - taua_s - (ma - 1))
 *   b_k = Mb_k * 2^(Eb - taub_s - (mb - 1))
 *
 * so the product of any aligned k2 sub-block pair is one integer dot
 * product times one power of two.  A GemmPlan captures everything the
 * execution kernels need to run that pipeline without consulting the
 * format descriptors again: the two QuantPlans, the pairwise sub-step
 * granularity over which the combined shift is constant, the total
 * shift budget (so sub-block partial sums can be aligned with integer
 * left shifts — "a little shifting"), and the combined exponent bias
 * applied once per k1-block pair.
 *
 * The two operands may use different formats (Table IV serves (w, a)
 * pairs like (MX4, MX9)) as long as their k1 block granularities agree,
 * so a block pair shares one boundary and one combined exponent.
 */

#include "core/kernels/quant_kernel.h"

namespace mx {
namespace gemm {

/** Execution constants of one packed A x B^T contraction. */
struct GemmPlan
{
    /** Operand plans: a = left/activations, b = right/weights. */
    core::kernels::QuantPlan a, b;

    /**
     * Pairwise sub-step granularity: the combined shift
     * (taua + taub) is constant over g consecutive elements.  With
     * d2 > 0 on both sides this is gcd(k2_a, k2_b); a side with d2 == 0
     * contributes a block-constant (zero) shift, so only the other
     * side's k2 matters.
     */
    int g = 0;

    /** Total shift budget beta_a + beta_b: the left shift that aligns
     *  the least-shifted sub-block pair with the most-shifted one. */
    int budget = 0;

    /**
     * Combined exponent bias (ma - 1) + (mb - 1) + budget: one
     * k1-block pair's integer accumulator holds its partial dot product
     * in units of 2^(Ea + Eb - exp_bias).
     */
    int exp_bias = 0;

    /** Blocks covering a row of @p cols elements. */
    std::size_t
    blocks_per_row(std::size_t cols) const
    {
        return (cols + static_cast<std::size_t>(a.k1) - 1) /
               static_cast<std::size_t>(a.k1);
    }
};

/**
 * True when the packed-GEMM kernels can execute an (a, b) operand pair:
 * matching k1 block granularity, mantissas narrow enough for the int16
 * execution view, each side's mantissa shifted by its beta within
 * int32, and enough int64 headroom to accumulate a whole shifted
 * k1-block pair exactly.
 */
bool gemm_compatible(const core::kernels::QuantPlan& a,
                     const core::kernels::QuantPlan& b);

/**
 * True when a single operand can be decoded into the int16 execution
 * view at all (m <= 15); pairing constraints are gemm_compatible's job.
 */
bool operand_eligible(const core::kernels::QuantPlan& plan);

/** Build the pairwise plan; throws mx::ArgumentError when
 *  !gemm_compatible(a, b). */
GemmPlan make_gemm_plan(const core::kernels::QuantPlan& a,
                        const core::kernels::QuantPlan& b);

} // namespace gemm
} // namespace mx
