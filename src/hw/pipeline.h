#pragma once

/**
 * @file
 * Bit-exact functional simulation of the Figure 6 dot-product pipeline.
 *
 * The pipeline consumes two quantized input vectors of length r and
 * produces one scalar:
 *
 *   1. per element: sign XOR, m x m mantissa multiply, two's-complement;
 *   2. (k2 > 1) sub-scale exponents added, products conditionally
 *      right-shifted by the combined microexponent shift while the k1
 *      elements of each block are summed (done here by exact arithmetic
 *      on a 2*beta-expanded grid — identical results, simpler code);
 *   3. per block: the two shared exponents are added;
 *   4. blocks are normalized to the largest block result and reduced in
 *      f-bit fixed point — bits shifted below the f-bit window are
 *      truncated, which is the pipeline's only inexactness;
 *   5. FP32 convert / accumulate.  The model stops one step short of
 *      it: run() returns the exact fixed-point sum as a double
 *      (double(sum) * 2^grid, no float rounding), and a caller that
 *      compares against FP32 hardware rounds it to float itself, as
 *      the PipelineOracle suites in tests/test_gemm.cpp do.
 *
 * Setting k1 = k2 = 1 degenerates to a scalar floating-point unit and
 * d2 = 0 to classic block floating point, as in the paper.  The test
 * suite checks the simulator against an exact reference dot product of
 * the dequantized inputs: equal when f is wide enough, and within the
 * f-bit truncation bound otherwise.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "core/bdr_format.h"
#include "core/quantize.h"

namespace mx {
namespace hw {

/** Static configuration of one pipeline instance. */
struct PipelineConfig
{
    /** The element format (SignMagnitude/Pow2Hw or FloatingPoint). */
    core::BdrFormat format;
    /** Reduction length r; must be a positive multiple of format.k1. */
    int r = 64;
    /** Fixed-point accumulation width f. */
    int f = 25;
};

/** Result of one pipeline evaluation, with observability for tests. */
struct PipelineResult
{
    /** The pipeline's output before the FP32 convert: the f-bit
     *  fixed-point sum as a double, with no float rounding (round it
     *  to float to get what FP32 hardware produces). */
    double value = 0;
    /** Exact dot product of the dequantized (quantized-grid) inputs. */
    double exact_quantized_dot = 0;
    /** Number of mantissa bits truncated by the f-bit alignment (max
     *  over blocks; 0 means the evaluation was exact). */
    int truncated_bits = 0;
};

/**
 * Functional model of one dot-product unit.
 *
 * The unit quantizes its FP32 inputs on ingest (as a hardware unit's
 * load path would) and then performs all arithmetic on integer codes.
 */
class DotProductPipeline
{
  public:
    explicit DotProductPipeline(PipelineConfig cfg);

    /**
     * Run the pipeline on two length-r input vectors.
     * @throws mx::ArgumentError if sizes differ from r.
     */
    PipelineResult run(std::span<const float> a,
                       std::span<const float> b) const;

    /** Convenience: just run().value (not yet rounded to float). */
    double dot(std::span<const float> a, std::span<const float> b) const;

    /** The configuration. */
    const PipelineConfig& config() const { return cfg_; }

  private:
    struct BlockProduct
    {
        /** Integer block sum on the 2*(m-1)+2*beta fractional grid. */
        std::int64_t mant = 0;
        /** Grid exponent: value = mant * 2^grid_exp. */
        int grid_exp = 0;
        bool zero = true;
    };

    BlockProduct reduce_block(const core::Pow2BlockEncoding& ea,
                              const core::Pow2BlockEncoding& eb,
                              std::size_t n) const;

    PipelineConfig cfg_;
};

} // namespace hw
} // namespace mx
