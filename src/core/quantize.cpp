#include "core/quantize.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/kernels/dispatch.h"
#include "core/scalar_fp.h"

namespace mx {
namespace core {

int
max_abs_exponent(std::span<const float> x)
{
    float amax = 0.0f;
    for (float v : x)
        amax = std::max(amax, std::fabs(v));
    if (amax == 0.0f)
        return kAllZeroExponent;
    int ex;
    std::frexp(amax, &ex);
    return ex - 1; // 2^ex_ <= amax < 2^(ex_+1) with ex_ = ex - 1
}

void
quantize_pow2_block(const BdrFormat& fmt, std::span<const float> in,
                    std::span<float> out, const Rounder& rounder,
                    Pow2BlockEncoding* enc)
{
    const kernels::QuantPlan plan = kernels::make_quant_plan(fmt);
    MX_CHECK_ARG(in.size() == out.size(), "quantize_pow2_block: size mismatch");
    MX_CHECK_ARG(in.size() <= static_cast<std::size_t>(fmt.k1),
                 "quantize_pow2_block: block larger than k1");
    kernels::active_kernel().quantize_block(plan, in, out, rounder, enc);
}

void
quantize_pow2(const BdrFormat& fmt, std::span<const float> in,
              std::span<float> out, const Rounder& rounder)
{
    MX_CHECK_ARG(in.size() == out.size(), "quantize_pow2: size mismatch");
    const kernels::QuantPlan plan = kernels::make_quant_plan(fmt);
    kernels::active_kernel().quantize(plan, in, out, rounder);
}

Quantizer::Quantizer(BdrFormat fmt, RoundingMode mode, ScalingPolicy policy,
                     std::uint64_t seed)
    : fmt_(std::move(fmt)),
      rng_(seed),
      rounder_(mode, &rng_),
      policy_(policy),
      scaler_()
{
    fmt_.validate();
    if (fmt_.s_kind == ScaleKind::Pow2Hw &&
        fmt_.elem == ElementKind::SignMagnitude)
        plan_ = kernels::make_quant_plan(fmt_);
}

void
Quantizer::operator()(std::span<const float> in, std::span<float> out)
{
    MX_CHECK_ARG(in.size() == out.size(), "Quantizer: size mismatch");
    if (in.empty())
        return;

    if (fmt_.s_kind == ScaleKind::Pow2Hw) {
        MX_CHECK_ARG(plan_.has_value(),
                     fmt_.name << ": pow2 HW scale needs sign-magnitude "
                                  "elements");
        // Plan built once in the constructor; one dispatch per call.
        kernels::active_kernel().quantize(*plan_, in, out, rounder_);
        return;
    }

    // Software-scaled families need the call's amax for the scale factor.
    float amax = 0.0f;
    for (float v : in)
        amax = std::max(amax, std::fabs(v));

    switch (fmt_.elem) {
      case ElementKind::TwosComplement: {
        if (fmt_.ss_kind == ScaleKind::IntHw) {
            // VSQ: the delayed scale targets the per-vector scale factors,
            // which are at most amax / mant_max, encoded in d2-bit ints.
            const double mant_max = static_cast<double>((1 << fmt_.m) - 1);
            double max_sv = amax / mant_max;
            double s = policy_ == ScalingPolicy::Delayed
                ? scaler_.update(max_sv, (1 << fmt_.d2) - 1)
                : max_sv / ((1 << fmt_.d2) - 1);
            if (s <= 0)
                s = 1.0;
            quantize_vsq(in, out, s);
        } else {
            const double mant_max = static_cast<double>((1 << fmt_.m) - 1);
            double s = policy_ == ScalingPolicy::Delayed
                ? scaler_.update(amax, mant_max)
                : (amax > 0 ? amax / mant_max : 1.0);
            if (s <= 0)
                s = 1.0;
            quantize_int(in, out, s);
        }
        return;
      }
      case ElementKind::FloatingPoint: {
        double s = policy_ == ScalingPolicy::Delayed
            ? scaler_.update(amax, fmt_.fp_max_finite())
            : (amax > 0 ? amax / fmt_.fp_max_finite() : 1.0);
        if (s <= 0)
            s = 1.0;
        quantize_fp(in, out, s);
        return;
      }
      case ElementKind::SignMagnitude:
        MX_CHECK(false, fmt_.name << ": sign-magnitude needs Pow2Hw scale");
    }
}

void
Quantizer::quantize_int(std::span<const float> in, std::span<float> out,
                        double scale)
{
    const double mant_max = static_cast<double>((1 << fmt_.m) - 1);
    for (std::size_t i = 0; i < in.size(); ++i) {
        double q = rounder_.round(in[i] / scale);
        q = std::clamp(q, -mant_max, mant_max);
        out[i] = static_cast<float>(q * scale);
    }
}

void
Quantizer::quantize_vsq(std::span<const float> in, std::span<float> out,
                        double scale)
{
    // VS-Quant [23]: per-vector (k2 = 16) scale factor encoded as a d2-bit
    // unsigned integer multiple of the global FP32 scale.
    const double mant_max = static_cast<double>((1 << fmt_.m) - 1);
    const double ss_max = static_cast<double>((1 << fmt_.d2) - 1);
    const std::size_t k2 = static_cast<std::size_t>(fmt_.k2);

    for (std::size_t lo = 0; lo < in.size(); lo += k2) {
        std::size_t hi = std::min(in.size(), lo + k2);
        double sub_amax = 0;
        for (std::size_t i = lo; i < hi; ++i)
            sub_amax = std::max<double>(sub_amax, std::fabs(in[i]));
        double sv = sub_amax / mant_max; // ideal per-vector scale
        double ssi = std::clamp(std::nearbyint(sv / scale), 1.0, ss_max);
        double eff = ssi * scale;
        for (std::size_t i = lo; i < hi; ++i) {
            double q = rounder_.round(in[i] / eff);
            q = std::clamp(q, -mant_max, mant_max);
            out[i] = static_cast<float>(q * eff);
        }
    }
}

void
Quantizer::quantize_fp(std::span<const float> in, std::span<float> out,
                       double scale)
{
    for (std::size_t i = 0; i < in.size(); ++i) {
        double q = fp_cast(fmt_, in[i] / scale, rounder_);
        out[i] = static_cast<float>(q * scale);
    }
}

std::vector<float>
Quantizer::quantize(const std::vector<float>& in)
{
    std::vector<float> out(in.size());
    (*this)(in, out);
    return out;
}

std::vector<float>
fake_quantize(const BdrFormat& fmt, const std::vector<float>& in,
              RoundingMode mode)
{
    Quantizer q(fmt, mode, ScalingPolicy::JustInTime);
    return q.quantize(in);
}

} // namespace core
} // namespace mx
