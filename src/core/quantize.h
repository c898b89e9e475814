#pragma once

/**
 * @file
 * The BDR two-level quantization function (paper Figure 5):
 *
 *   X = U_i chi_i,   chi_Qi = RoundToInt(chi_i / (s * ss_i), m),
 *   chi_Ri = s * ss_i * chi_Qi
 *
 * This header provides both the stateless hardware-scaled primitives
 * (shared-exponent blocks for BFP and MX) and a stateful Quantizer
 * front-end that also covers the software-scaled formats (scaled INT,
 * scalar FP with delayed scaling, VSQ) so that any BdrFormat can be
 * fake-quantized through one interface.
 */

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/bdr_format.h"
#include "core/delayed_scaler.h"
#include "core/kernels/quant_kernel.h"
#include "core/rounding.h"
#include "stats/rng.h"

namespace mx {
namespace core {

/**
 * Exponent of the largest magnitude in @p x: floor(log2(max|x_i|)).
 * Returns kAllZeroExponent when every element is zero.
 */
int max_abs_exponent(std::span<const float> x);

/** Sentinel returned by max_abs_exponent for all-zero input. */
constexpr int kAllZeroExponent = -100000;

// Pow2BlockEncoding (the integer encoding of one k1-block) now lives in
// core/kernels/quant_kernel.h with the plan/execute kernel layer; it is
// re-exported here unchanged for the existing call sites.

/**
 * Quantize one block (n <= k1 elements) of a SignMagnitude pow2-scaled
 * format (BFP when d2 == 0, MX when d2 > 0), through the runtime-
 * dispatched kernel (kernels/dispatch.h).
 *
 * The shared exponent is the max element exponent in the block; each
 * sub-block of k2 elements gets a shift tau = min(E - E_sub, 2^d2 - 1);
 * mantissas are rounded to m bits and saturate at 2^m - 1 (hardware
 * behaviour; see MSFP [24]).
 *
 * @param fmt  SignMagnitude format with s_kind == Pow2Hw
 * @param in   the block (size may be smaller than k1 at a tensor tail)
 * @param out  dequantized values, same size as @p in
 * @param rounder rounding policy for the mantissa
 * @param enc  optional: receives the integer encoding
 */
void quantize_pow2_block(const BdrFormat& fmt, std::span<const float> in,
                         std::span<float> out, const Rounder& rounder,
                         Pow2BlockEncoding* enc = nullptr);

/**
 * Quantize a whole span by splitting it into k1-blocks (tail block may be
 * short); one plan + one kernel dispatch for the whole span.
 */
void quantize_pow2(const BdrFormat& fmt, std::span<const float> in,
                   std::span<float> out, const Rounder& rounder);

/** How software-managed FP32 scale factors are derived. */
enum class ScalingPolicy
{
    /**
     * Transformer-Engine-style delayed scaling [40]: the scale applied to
     * the current tensor comes from an amax history of past tensors.
     * This is what Figure 7 uses for INT/FP/VSQ during training.
     */
    Delayed,
    /**
     * Just-in-time scaling from the current tensor's own amax — the
     * offline/static approach typical for inference (Fig 7 caption).
     */
    JustInTime,
};

/**
 * Stateful fake-quantizer for any BdrFormat.
 *
 * "Fake" quantization maps FP32 input to the exact value grid of the
 * target format and back, which is numerically identical to what native
 * hardware would store/compute (the paper's own evaluations use the same
 * emulation strategy, Section VI).  Software-scaled formats carry a
 * DelayedScaler per Quantizer instance, so one Quantizer should be bound
 * to one tensor role (weights / activations / gradients of one layer),
 * exactly as Transformer Engine binds scaling state per tensor.
 */
class Quantizer
{
  public:
    /**
     * @param fmt    any validated BdrFormat
     * @param mode   mantissa rounding mode
     * @param policy scale-factor derivation for SW-scaled formats
     * @param seed   seed for stochastic rounding (unused otherwise)
     */
    explicit Quantizer(BdrFormat fmt,
                       RoundingMode mode = RoundingMode::NearestEven,
                       ScalingPolicy policy = ScalingPolicy::Delayed,
                       std::uint64_t seed = 0x5eed);

    /** Fake-quantize @p in into @p out (sizes must match). */
    void operator()(std::span<const float> in, std::span<float> out);

    /** Convenience: returns a fake-quantized copy. */
    std::vector<float> quantize(const std::vector<float>& in);

    /** The format this quantizer targets. */
    const BdrFormat& format() const { return fmt_; }

    /** Drop all delayed-scaling history. */
    void reset_state() { scaler_.reset(); }

  private:
    void quantize_int(std::span<const float> in, std::span<float> out,
                      double scale);
    void quantize_vsq(std::span<const float> in, std::span<float> out,
                      double scale);
    void quantize_fp(std::span<const float> in, std::span<float> out,
                     double scale);

    BdrFormat fmt_;
    stats::Rng rng_;
    Rounder rounder_;
    ScalingPolicy policy_;
    DelayedScaler scaler_;
    /** Cached kernel plan (engaged only for Pow2Hw formats). */
    std::optional<kernels::QuantPlan> plan_;
};

/**
 * One-shot fake quantization with just-in-time scaling — the stateless
 * path used for direct-cast inference and most tests.
 */
std::vector<float> fake_quantize(const BdrFormat& fmt,
                                 const std::vector<float>& in,
                                 RoundingMode mode =
                                     RoundingMode::NearestEven);

} // namespace core
} // namespace mx
