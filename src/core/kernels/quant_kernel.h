#pragma once

/**
 * @file
 * The plan/execute split of the BDR pow2-block quantization hot path.
 *
 * A QuantPlan captures every per-format constant of a SignMagnitude /
 * Pow2Hw format (BFP when d2 == 0, MX when d2 > 0) once, so the
 * per-element kernels run without touching the BdrFormat descriptor.
 * QuantKernel is the execute side: an implementation provides contiguous
 * quantize (fake quantization of a whole span), per-block quantize with
 * integer encoding output, fused quantize+pack straight into an LSB-first
 * bit stream, quantize straight into the packed GEMM's int16 execution
 * view, and block dequantize.
 *
 * Implementations:
 *  - scalar_kernel(): the portable reference, numerically identical to
 *    the historical core::quantize_pow2_block loop.
 *  - avx2_kernel():   AVX2 vectorization of the same arithmetic; the
 *    test suite (tests/test_kernels.cpp) asserts its output — floats,
 *    encodings, and packed bit streams — is bit-identical to the scalar
 *    kernel for every format, size, and rounding mode.
 *
 * Selection happens at runtime in kernels/dispatch.h (CPU feature probe,
 * overridable with MX_FORCE_SCALAR=1).
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/bdr_format.h"
#include "core/bitstream.h"
#include "core/check.h"
#include "core/rounding.h"

namespace mx {
namespace core {

/**
 * Integer encoding of one k1-block under power-of-two two-level scaling
 * (the in-memory form consumed by the hardware dot-product pipeline).
 */
struct Pow2BlockEncoding
{
    /** Unbiased shared exponent E (clamped to the d1-bit biased range). */
    int shared_exp = 0;
    /** Per-sub-block shift tau_i in [0, 2^d2 - 1]; size = ceil(n/k2). */
    std::vector<std::uint8_t> sub_shift;
    /** Signed mantissas, |M_i| <= 2^m - 1; size = n. */
    std::vector<std::int32_t> mantissa;

    /** Dequantized value of element @p i given the format's m. */
    double decode(const BdrFormat& fmt, std::size_t i) const;
};

namespace kernels {

/**
 * Precomputed per-format constants of the pow2-block quantization
 * function — the "plan" half of the plan/execute split.  Building a plan
 * is cheap (a handful of integer ops), but hoisting it out of the block
 * loop lets front-ends amortize the format checks over whole tensors.
 */
struct QuantPlan
{
    int m = 0;         ///< Explicit mantissa bits.
    int d1 = 0;        ///< Shared-exponent field width.
    int k1 = 0;        ///< Block granularity.
    int d2 = 0;        ///< Sub-shift field width (0 = plain BFP).
    int k2 = 0;        ///< Sub-block granularity.
    int e_min = 0;     ///< Smallest encodable shared exponent.
    int e_max = 0;     ///< Largest encodable shared exponent (= bias).
    int beta = 0;      ///< Maximum sub-block shift, 2^d2 - 1.
    std::int32_t mant_max = 0;  ///< Mantissa saturation value, 2^m - 1.
    double mant_max_d = 0;      ///< mant_max as a double (saturation compare).

    /** Sub-blocks covering @p n elements. */
    std::size_t
    num_sub_blocks(std::size_t n) const
    {
        return (n + static_cast<std::size_t>(k2) - 1) /
               static_cast<std::size_t>(k2);
    }
};

/**
 * Build the plan for @p fmt.  Throws mx::ArgumentError unless the format
 * is a SignMagnitude element with a Pow2Hw first-level scale (the only
 * family the block kernels implement).
 */
QuantPlan make_quant_plan(const BdrFormat& fmt);

/**
 * Reference block quantization (the semantics every kernel must match
 * bit-for-bit).  Quantizes @p n <= k1 elements, writing dequantized
 * values to @p out and, when the pointers are non-null, the raw integer
 * encoding: @p tau_out receives num_sub_blocks(n) sub-shifts and
 * @p mant_out receives n signed mantissas.
 *
 * @return the block's shared exponent (e_min for an all-zero block).
 */
int reference_quantize_block(const QuantPlan& plan, const float* in,
                             std::size_t n, float* out,
                             const Rounder& rounder,
                             std::uint8_t* tau_out, std::int32_t* mant_out);

/**
 * reference_quantize_block's encoding alone, with the mantissas
 * narrowed to int16 (the packed-GEMM execution view) and no dequantized
 * floats written.  Same values, same RNG draws.
 */
int reference_encode_block(const QuantPlan& plan, const float* in,
                           std::size_t n, const Rounder& rounder,
                           std::uint8_t* tau_out, std::int16_t* mant_out);

/**
 * Reference block dequantization: @p mant / @p taus / @p shared_exp as
 * produced by reference_quantize_block, written back as floats.
 */
void reference_dequantize_block(const QuantPlan& plan, int shared_exp,
                                const std::uint8_t* taus,
                                const std::int32_t* mant, std::size_t n,
                                float* out);

/**
 * The execute side: one virtual call per span (or per block for the
 * _block entry points), dispatched once at the tensor level.
 */
class QuantKernel
{
  public:
    virtual ~QuantKernel() = default;

    /** Implementation name for reports and tests ("scalar", "avx2"). */
    virtual const char* name() const = 0;

    /**
     * Fake-quantize a whole contiguous span: split into k1-blocks (the
     * tail block may be short) and quantize each.  in/out may alias.
     */
    virtual void quantize(const QuantPlan& plan, std::span<const float> in,
                          std::span<float> out,
                          const Rounder& rounder) const = 0;

    /**
     * Quantize one block (n <= k1), optionally capturing the integer
     * encoding.
     */
    virtual void quantize_block(const QuantPlan& plan,
                                std::span<const float> in,
                                std::span<float> out, const Rounder& rounder,
                                Pow2BlockEncoding* enc) const = 0;

    /**
     * Fused quantize+pack: quantize a whole span and emit the packed
     * block stream ([biased shared exp][sub-shifts][sign|mantissa codes]
     * per block, LSB-first) without materializing per-block heap
     * encodings.  This is the formats::pack fast path.
     */
    virtual void quantize_pack(const QuantPlan& plan,
                               std::span<const float> in,
                               const Rounder& rounder,
                               BitWriter& writer) const = 0;

    /**
     * Quantize a row-major [rows x cols] matrix (no block straddles a
     * row) straight into the integer execution view: @p mant receives
     * rows * cols int16 mantissas, @p tau rows * num_sub_blocks(cols)
     * sub-shifts and @p exp rows * ceil(cols / k1) shared exponents,
     * all row-major.  The encodings and the RNG draw order are those of
     * quantize_block over each row's blocks in turn; no dequantized
     * float, heap encoding or int32 mantissa is written.  Throws
     * mx::ArgumentError unless m <= 15 (int16 mantissas).
     */
    virtual void quantize_encode_rows(const QuantPlan& plan,
                                      const float* in, std::size_t rows,
                                      std::size_t cols,
                                      const Rounder& rounder,
                                      std::int16_t* mant, std::uint8_t* tau,
                                      std::int16_t* exp) const = 0;

    /** Dequantize one encoded block into @p out (size = mantissa count). */
    virtual void dequantize_block(const QuantPlan& plan,
                                  const Pow2BlockEncoding& enc,
                                  std::span<float> out) const = 0;

    /**
     * Fake-quantize a row-major [rows x cols] matrix whose blocks must
     * not straddle row boundaries (the nn::quantize_rows contract).
     * When cols is a whole number of k1 blocks the matrix collapses to
     * one contiguous quantize() call; ragged widths run one call per
     * row, each ending in its own short tail block — the same kernel
     * fast path either way, with the plan hoisted out of the loop.
     * in/out may alias row-for-row.
     */
    void quantize_rows(const QuantPlan& plan, const float* in, float* out,
                       std::size_t rows, std::size_t cols,
                       const Rounder& rounder) const;

    /**
     * Fused quantize+pack of a [rows x cols] matrix under the same
     * no-block-straddles-a-row contract, emitting one bit-contiguous
     * stream (row r's blocks directly follow row r-1's).  For aligned
     * widths this is byte-for-byte the flat quantize_pack stream.
     */
    void quantize_pack_rows(const QuantPlan& plan, const float* in,
                            std::size_t rows, std::size_t cols,
                            const Rounder& rounder, BitWriter& writer) const;
};

namespace detail {

/**
 * 2^e as a double.  Exponent-field assembly for the normal range; ldexp
 * handles the extremes (all-zero-block decode exponents and combined
 * packed-GEMM block exponents can leave the normal range for wide d1).
 * Shared by every kernel implementation — quantize, dequantize, and the
 * packed-GEMM block alignment — so scale arithmetic is bit-identical
 * across the scalar, AVX2, and gemm execution paths by construction.
 */
inline double
pow2_double(int e)
{
    if (e >= -1022 && e <= 1023)
        return std::bit_cast<double>(
            static_cast<std::uint64_t>(e + 1023) << 52);
    return std::ldexp(1.0, e);
}

/**
 * Emit one quantized block's fields into the packed stream — the layout
 * documented in formats/block_codec.h ([d1-bit biased shared exponent]
 * [n_sub x d2-bit sub-shifts][n x (sign | mantissa << 1) codes]).
 * Shared by every kernel's fused quantize+pack path so the bit stream
 * is implementation-invariant by construction.
 */
inline void
write_block_bits(const QuantPlan& plan, int shared_exp,
                 const std::uint8_t* taus, std::size_t n_sub,
                 const std::int32_t* mant, std::size_t n, BitWriter& w)
{
    w.write(static_cast<std::uint64_t>(shared_exp + plan.e_max), plan.d1);
    for (std::size_t s = 0; s < n_sub; ++s)
        w.write(taus[s], plan.d2);
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t man = mant[i];
        const std::uint64_t sign = man < 0 ? 1 : 0;
        const std::uint64_t mag =
            static_cast<std::uint64_t>(man < 0 ? -man : man);
        w.write(sign | (mag << 1), 1 + plan.m);
    }
}

/**
 * Read one block's fields back from the packed stream — the inverse of
 * write_block_bits, shared by every decoder (formats::unpack, the
 * frozen-weight grid rebuild, gemm::PackedOperand::decode) so they
 * cannot drift apart.  Fills num_sub_blocks(n) sub-shifts (zeros when
 * d2 == 0) and n two's-complement mantissas (the sign|magnitude code
 * converts without a branch: (mag ^ -s) + s).
 *
 * @return the unbiased shared exponent.
 */
template <typename Mant>
int
read_block_bits(const QuantPlan& plan, BitReader& r, std::size_t n,
                std::uint8_t* taus, Mant* mant)
{
    const int shared_exp = static_cast<int>(r.read(plan.d1)) - plan.e_max;
    r.read_run(plan.d2, plan.num_sub_blocks(n),
               [taus](std::size_t s, std::uint64_t t) {
                   taus[s] = static_cast<std::uint8_t>(t);
               });
    r.read_run(1 + plan.m, n, [mant](std::size_t i, std::uint64_t code) {
        const auto c = static_cast<std::uint32_t>(code);
        const std::uint32_t sign = c & 1u;
        mant[i] = static_cast<Mant>(
            static_cast<std::int32_t>(((c >> 1) ^ (0u - sign)) + sign));
    });
    return shared_exp;
}

/**
 * The row/block walk behind every quantize_encode_rows: calls
 * @p block(x, n, tau, mant) for each row's k1-blocks in order (the
 * last may be a short tail) and stores the shared exponent it returns.
 */
template <typename BlockFn>
void
encode_rows_blockwise(const QuantPlan& plan, const float* in,
                      std::size_t rows, std::size_t cols, std::int16_t* mant,
                      std::uint8_t* tau, std::int16_t* exp, BlockFn&& block)
{
    MX_CHECK_ARG(plan.m <= 15, "quantize_encode_rows: mantissa too wide "
                               "for int16 (m=" << plan.m << ")");
    const std::size_t k1 = static_cast<std::size_t>(plan.k1);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t off = 0; off < cols; off += k1) {
            const std::size_t n = std::min(k1, cols - off);
            *exp++ = static_cast<std::int16_t>(
                block(in + off, n, tau, mant + off));
            tau += plan.num_sub_blocks(n);
        }
        in += cols;
        mant += cols;
    }
}

} // namespace detail

} // namespace kernels
} // namespace core
} // namespace mx
