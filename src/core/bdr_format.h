#pragma once

/**
 * @file
 * The Block Data Representations (BDR) format descriptor — the paper's
 * unifying abstraction (Section III, Figure 5, Table I).
 *
 * A BDR point divides a tensor into blocks of k1 elements carrying a
 * first-level scale factor s (d1 bits when hardware-managed), and each
 * block into sub-blocks of k2 elements carrying a sub-scale factor ss_i
 * (d2 bits).  The per-element payload is a sign bit plus an m-bit explicit
 * mantissa.  Choosing the scale encodings and granularities reproduces
 * every format the paper studies:
 *
 *   - scaled INT:   s = FP32 in software over ~1K elements, no sub-scale.
 *   - MSFP / BFP:   s = power-of-two in hardware over ~16, no sub-scale.
 *   - scalar FP8:   s = FP32 in software over a tensor, per-element
 *                   power-of-two sub-scale (the private exponent, k2 = 1).
 *   - VSQ:          s = FP32 in software, INT sub-scale over 16 elements.
 *   - MX (ours):    s = 8-bit power-of-two over 16 elements, 1-bit
 *                   power-of-two microexponent shared by 2 elements.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mx {
namespace core {

/** How a (sub-)scale factor is encoded and who manages it (Table I). */
enum class ScaleKind
{
    None,    ///< This level of scaling is absent.
    Pow2Hw,  ///< Power-of-two exponent, set by hardware (BFP / MX).
    Fp32Sw,  ///< FP32 scalar managed by software (INT / FP8 / VSQ level 1).
    IntHw,   ///< Unsigned integer scale set in hardware (VSQ level 2).
};

/** How the per-element payload encodes a number. */
enum class ElementKind
{
    SignMagnitude,  ///< Sign bit + m-bit integer mantissa (BFP / MX).
    TwosComplement, ///< Symmetric two's-complement integer (INT / VSQ).
    FloatingPoint,  ///< Scalar float: sign + e-bit exponent + m-bit mantissa
                    ///< with implicit leading one and subnormals.
};

/** Handling of the top exponent code in scalar floating-point elements. */
enum class FpSpecials
{
    None,       ///< All codes are finite (OCP FP4/FP6 style); saturate.
    MaxNan,     ///< Top-exponent all-ones mantissa is NaN (FP8 E4M3): the
                ///< largest finite value is (2 - 2^(1-m)) * 2^emax.
    InfAndNan,  ///< IEEE: the whole top exponent is reserved (E5M2, FP16,
                ///< BF16); the largest finite uses the second-top exponent.
};

/** Names scale-kind values for reports. */
const char* to_string(ScaleKind kind);
/** Names element-kind values for reports. */
const char* to_string(ElementKind kind);

/**
 * A point in the BDR design space.
 *
 * Invariants (validated by validate()): k2 divides k1; d2 == 0 iff
 * ss_kind == None; FloatingPoint elements use k1 == k2 == 1 within the
 * hardware block (their software scale granularity is sw_granularity).
 */
struct BdrFormat
{
    /** Display name, e.g. "MX9" or "FP8 (E4M3)". */
    std::string name;

    /** Per-element payload encoding. */
    ElementKind elem = ElementKind::SignMagnitude;

    /** Explicit mantissa bits (magnitude; excludes sign and, for
     *  FloatingPoint, the implicit leading one — paper footnote 1). */
    int m = 7;

    /** Exponent bits of a FloatingPoint element (0 otherwise). */
    int e = 0;

    /** Special-value policy for FloatingPoint elements. */
    FpSpecials specials = FpSpecials::None;

    /** First-level scale: encoding, bit-width, block granularity. */
    ScaleKind s_kind = ScaleKind::Pow2Hw;
    int d1 = 8;
    int k1 = 16;

    /** Second-level sub-scale: encoding, bit-width, sub-block granularity. */
    ScaleKind ss_kind = ScaleKind::Pow2Hw;
    int d2 = 1;
    int k2 = 2;

    /**
     * Amortization granularity of a software-managed FP32 first-level
     * scale (Table I lists ~1K for INT/VSQ and ~10K for FP8).  Used by
     * the QSNR harness to decide how many elements share one delayed
     * scale factor; 0 means "the whole tensor".
     */
    int sw_granularity = 0;

    /** Throws mx::ArgumentError if the descriptor is inconsistent. */
    void validate() const;

    /**
     * Average storage bits per element:
     * (m + 1) + d1/k1 + d2/k2 for block formats (paper Section III), and
     * 1 + e + m for scalar floating point (the software scale is amortized
     * over sw_granularity elements and counted when it is finite).
     */
    double bits_per_element() const;

    /** True when the first-level scale factor is software-managed FP32. */
    bool has_sw_scale() const { return s_kind == ScaleKind::Fp32Sw; }

    /** Largest finite magnitude a FloatingPoint element can encode. */
    double fp_max_finite() const;

    /** Exponent bias of a FloatingPoint element: 2^(e-1) - 1 (min 0). */
    int fp_bias() const;

    /** beta = 2^d2 - 1: the maximum sub-block shift (Theorem 1). */
    int beta() const { return (1 << d2) - 1; }

    /** One-line summary, e.g. "MX9 {m=7 d1=8 k1=16 d2=1 k2=2}". */
    std::string summary() const;
};

/** @name Format catalog
 * Named instances of every format evaluated in the paper (Figure 7,
 * Tables I and II) plus wide scalar reference formats.
 * @{
 */
BdrFormat mx9();    ///< Table II: m=7, d1=8/k1=16, d2=1/k2=2 (9 bits/elem).
BdrFormat mx6();    ///< Table II: m=4 (6 bits/elem).
BdrFormat mx4();    ///< Table II: m=2 (4 bits/elem).
/** General MX-family point: pow2/pow2 two-level HW scaling. */
BdrFormat mx_custom(int m, int d1, int k1, int d2, int k2);
BdrFormat msfp16(); ///< [24]: sign+7-bit mantissa, shared 8-bit exp, k=16.
BdrFormat msfp12(); ///< [24]: sign+3-bit mantissa, shared 8-bit exp, k=16.
/** General BFP point (d2 = 0). */
BdrFormat bfp_custom(int m, int d1, int k1);
BdrFormat fp8_e4m3();  ///< FP8 with 4-bit exponent, NaN-on-max (max 448).
BdrFormat fp8_e5m2();  ///< FP8 with 5-bit exponent, IEEE inf/NaN.
BdrFormat fp8_e3m4();  ///< FP8 with 3-bit exponent.
BdrFormat fp6_e3m2();  ///< FP6 (max 28).
BdrFormat fp6_e2m3();  ///< FP6 (max 7.5).
BdrFormat fp4_e2m1();  ///< FP4 (max 6).
BdrFormat fp4_e1m2();  ///< FP4 variant.
BdrFormat fp4_e3m0();  ///< FP4 with zero mantissa bits (log-style).
BdrFormat fp16();      ///< IEEE binary16 (reference / elementwise ops).
BdrFormat bf16();      ///< bfloat16 (reference / elementwise ops).
BdrFormat scaled_int(int total_bits); ///< "scaled INT4/8": SW FP32 scale.
BdrFormat vsq(int elem_bits, int d2); ///< VSQ [23]: INT elems + INT sub-scale.
/** @} */

/**
 * The named design points plotted in Figure 7 (excluding the FP8* dual
 * baseline, which is an area-model construct rather than a numeric
 * format).  VSQ entries appear once per d2 in {4, 6, 8, 10}; the Figure 7
 * bench reports the best per element-width as the paper does.
 */
std::vector<BdrFormat> figure7_formats();

} // namespace core
} // namespace mx
