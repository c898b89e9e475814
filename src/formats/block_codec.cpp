#include "formats/block_codec.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/check.h"
#include "core/kernels/dispatch.h"
#include "core/scalar_fp.h"
#include "formats/packed.h"

namespace mx {
namespace formats {

namespace {

using core::BdrFormat;
using core::ElementKind;
using core::Pow2BlockEncoding;
using core::Rounder;
using core::ScaleKind;

std::uint32_t
float_bits(float f)
{
    return std::bit_cast<std::uint32_t>(f);
}

float
bits_float(std::uint32_t u)
{
    return std::bit_cast<float>(u);
}

void
pack_pow2(const BdrFormat& fmt, std::span<const float> values,
          const Rounder& rounder, BitWriter& w)
{
    // Fused quantize+pack: one kernel dispatch for the whole span, no
    // per-block heap encodings (see kernels/quant_kernel.h).
    const core::kernels::QuantPlan plan = core::kernels::make_quant_plan(fmt);
    core::kernels::active_kernel().quantize_pack(plan, values, rounder, w);
}

void
unpack_pow2(const BdrFormat& fmt, std::size_t n, BitReader& r,
            std::vector<float>& out)
{
    const core::kernels::QuantPlan plan = core::kernels::make_quant_plan(fmt);
    const core::kernels::QuantKernel& kernel = core::kernels::active_kernel();
    const std::size_t k1 = static_cast<std::size_t>(fmt.k1);
    out.resize(n);
    Pow2BlockEncoding enc; // reused across blocks (resize keeps capacity)
    for (std::size_t off = 0; off < n; off += k1) {
        const std::size_t len = std::min(k1, n - off);
        enc.sub_shift.resize(plan.num_sub_blocks(len));
        enc.mantissa.resize(len);
        enc.shared_exp = core::kernels::detail::read_block_bits(
            plan, r, len, enc.sub_shift.data(), enc.mantissa.data());
        kernel.dequantize_block(plan, enc,
                                std::span<float>(out.data() + off, len));
    }
}

void
pack_int(const BdrFormat& fmt, std::span<const float> values,
         const Rounder& rounder, BitWriter& w)
{
    const double mant_max = static_cast<double>((1 << fmt.m) - 1);
    float amax = 0;
    for (float v : values)
        amax = std::max(amax, std::fabs(v));
    float scale = amax > 0 ? static_cast<float>(amax / mant_max) : 1.0f;
    w.write(float_bits(scale), 32);
    for (float v : values) {
        double q = std::clamp(rounder.round(v / scale), -mant_max, mant_max);
        std::int64_t code = static_cast<std::int64_t>(q);
        // Two's complement in (m+1) bits.
        std::uint64_t enc = static_cast<std::uint64_t>(code) &
                            ((1ull << (fmt.m + 1)) - 1);
        w.write(enc, fmt.m + 1);
    }
}

void
unpack_int(const BdrFormat& fmt, std::size_t n, BitReader& r,
           std::vector<float>& out)
{
    out.resize(n);
    float scale = bits_float(static_cast<std::uint32_t>(r.read(32)));
    const int bits = fmt.m + 1;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t enc = r.read(bits);
        // Sign-extend.
        std::int64_t code = static_cast<std::int64_t>(enc << (64 - bits)) >>
                            (64 - bits);
        out[i] = static_cast<float>(code) * scale;
    }
}

void
pack_vsq(const BdrFormat& fmt, std::span<const float> values,
         const Rounder& rounder, BitWriter& w)
{
    const double mant_max = static_cast<double>((1 << fmt.m) - 1);
    const double ss_max = static_cast<double>((1 << fmt.d2) - 1);
    const std::size_t k2 = static_cast<std::size_t>(fmt.k2);

    float amax = 0;
    for (float v : values)
        amax = std::max(amax, std::fabs(v));
    float scale = amax > 0
        ? static_cast<float>(amax / mant_max / ss_max)
        : 1.0f;
    w.write(float_bits(scale), 32);

    for (std::size_t lo = 0; lo < values.size(); lo += k2) {
        std::size_t hi = std::min(values.size(), lo + k2);
        double sub_amax = 0;
        for (std::size_t i = lo; i < hi; ++i)
            sub_amax = std::max<double>(sub_amax, std::fabs(values[i]));
        double sv = sub_amax / mant_max;
        double ssi = std::clamp(std::nearbyint(sv / scale), 1.0, ss_max);
        w.write(static_cast<std::uint64_t>(ssi), fmt.d2);
        double eff = ssi * scale;
        for (std::size_t i = lo; i < hi; ++i) {
            double q = std::clamp(rounder.round(values[i] / eff), -mant_max,
                                  mant_max);
            std::uint64_t enc = static_cast<std::uint64_t>(
                                    static_cast<std::int64_t>(q)) &
                                ((1ull << (fmt.m + 1)) - 1);
            w.write(enc, fmt.m + 1);
        }
    }
}

void
unpack_vsq(const BdrFormat& fmt, std::size_t n, BitReader& r,
           std::vector<float>& out)
{
    out.resize(n);
    const std::size_t k2 = static_cast<std::size_t>(fmt.k2);
    const int bits = fmt.m + 1;
    float scale = bits_float(static_cast<std::uint32_t>(r.read(32)));
    for (std::size_t lo = 0; lo < n; lo += k2) {
        std::size_t hi = std::min(n, lo + k2);
        double ssi = static_cast<double>(r.read(fmt.d2));
        double eff = ssi * scale;
        for (std::size_t i = lo; i < hi; ++i) {
            std::uint64_t enc = r.read(bits);
            std::int64_t code =
                static_cast<std::int64_t>(enc << (64 - bits)) >> (64 - bits);
            out[i] = static_cast<float>(code * eff);
        }
    }
}

void
pack_fp(const BdrFormat& fmt, std::span<const float> values,
        const Rounder& rounder, BitWriter& w)
{
    float amax = 0;
    for (float v : values)
        amax = std::max(amax, std::fabs(v));
    float scale = amax > 0
        ? static_cast<float>(amax / fmt.fp_max_finite())
        : 1.0f;
    w.write(float_bits(scale), 32);
    for (float v : values)
        w.write(core::fp_encode(fmt, v / scale, rounder),
                core::fp_code_bits(fmt));
}

void
unpack_fp(const BdrFormat& fmt, std::size_t n, BitReader& r,
          std::vector<float>& out)
{
    out.resize(n);
    float scale = bits_float(static_cast<std::uint32_t>(r.read(32)));
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t code =
            static_cast<std::uint32_t>(r.read(core::fp_code_bits(fmt)));
        out[i] = static_cast<float>(core::fp_decode(fmt, code) * scale);
    }
}

} // namespace

PackedTensor
pack(const BdrFormat& fmt, std::span<const float> values,
     core::RoundingMode rounding)
{
    fmt.validate();
    MX_CHECK_ARG(rounding != core::RoundingMode::Stochastic,
                 "pack: stochastic rounding is a training-side policy; "
                 "packed storage uses deterministic rounding");
    Rounder rounder(rounding);
    BitWriter w;
    switch (fmt.elem) {
      case ElementKind::SignMagnitude:
        pack_pow2(fmt, values, rounder, w);
        break;
      case ElementKind::TwosComplement:
        if (fmt.ss_kind == ScaleKind::IntHw)
            pack_vsq(fmt, values, rounder, w);
        else
            pack_int(fmt, values, rounder, w);
        break;
      case ElementKind::FloatingPoint:
        pack_fp(fmt, values, rounder, w);
        break;
    }
    PackedTensor p;
    p.format = fmt;
    p.num_elements = values.size();
    p.bit_size = w.bit_count();
    p.bytes = w.take();
    return p;
}

std::vector<float>
unpack(const PackedTensor& packed)
{
    BitReader r(packed.bytes);
    std::vector<float> out;
    const BdrFormat& fmt = packed.format;
    switch (fmt.elem) {
      case ElementKind::SignMagnitude:
        unpack_pow2(fmt, packed.num_elements, r, out);
        break;
      case ElementKind::TwosComplement:
        if (fmt.ss_kind == ScaleKind::IntHw)
            unpack_vsq(fmt, packed.num_elements, r, out);
        else
            unpack_int(fmt, packed.num_elements, r, out);
        break;
      case ElementKind::FloatingPoint:
        unpack_fp(fmt, packed.num_elements, r, out);
        break;
    }
    return out;
}

std::size_t
packed_bits(const BdrFormat& fmt, std::size_t n)
{
    switch (fmt.elem) {
      case ElementKind::SignMagnitude: {
        std::size_t k1 = static_cast<std::size_t>(fmt.k1);
        std::size_t k2 = static_cast<std::size_t>(fmt.k2);
        std::size_t bits = 0;
        for (std::size_t off = 0; off < n; off += k1) {
            std::size_t len = std::min(k1, n - off);
            bits += fmt.d1 + ((len + k2 - 1) / k2) * fmt.d2 +
                    len * (1 + fmt.m);
        }
        return bits;
      }
      case ElementKind::TwosComplement:
        if (fmt.ss_kind == ScaleKind::IntHw) {
            std::size_t k2 = static_cast<std::size_t>(fmt.k2);
            return 32 + ((n + k2 - 1) / k2) * fmt.d2 + n * (fmt.m + 1);
        }
        return 32 + n * (fmt.m + 1);
      case ElementKind::FloatingPoint:
        return 32 + n * static_cast<std::size_t>(core::fp_code_bits(fmt));
    }
    return 0;
}

} // namespace formats
} // namespace mx
