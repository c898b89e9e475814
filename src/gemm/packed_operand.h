#pragma once

/**
 * @file
 * The integer execution view of a packed MX/BFP matrix operand.
 *
 * The packed bit stream (formats/block_codec.h layout) is the storage
 * form; a PackedOperand is the same information laid out for the
 * Figure 6 dot-product pipeline to consume directly: int16 mantissas
 * (row-major, SIMD-friendly), per-sub-block shifts at the operand's own
 * k2 granularity, and per-block shared exponents.  Nothing here is a
 * dequantized float — the view stays in the integer domain, which is
 * what lets the packed GEMM run without ever materializing an FP32
 * copy of the operand.
 *
 * Two builders cover both GEMM operands, and both run at kernel speed:
 *  - decode() / decode_rows(): bit stream -> view (weights at freeze
 *                and load, the native K/V cache every decode step).
 *                Fields come off core::BitReader's 64-bit window via
 *                core::kernels::detail::read_block_bits, the same
 *                block reader formats::unpack uses;
 *  - quantize(): floats -> view through the dispatched QuantKernel's
 *                quantize_encode_rows (activations, built per call —
 *                the same quantization the fake-quant path applies,
 *                written straight into the view's int16 mantissas,
 *                shifts and exponents: no FP32 grid, no per-block heap
 *                encoding, no int32 -> int16 copy).
 *
 * Rows are independent: blocks never straddle a row boundary (the
 * nn::quantize_rows contract), every row occupies the same number of
 * stream bits, and row_bit_offset() exposes the per-row offsets so
 * ragged widths (rows ending in a short tail block) need no re-plan.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/kernels/quant_kernel.h"
#include "core/rounding.h"

namespace mx {
namespace gemm {

/** Decoded [rows x cols] operand in the packed-GEMM execution layout. */
class PackedOperand
{
  public:
    PackedOperand() = default;

    /**
     * Decode a packed pow2-block stream (the exact
     * formats/block_codec.h layout quantize_pack_rows emits) into the
     * execution view.  @p bytes must hold rows * row_bits(plan, cols)
     * bits (checked up front; mx::ArgumentError otherwise), and no
     * byte outside it is read.  The span is only read during the call —
     * a view into a read-only artifact mapping works (the operand owns
     * its arrays).
     */
    static PackedOperand decode(const core::kernels::QuantPlan& plan,
                                std::span<const std::uint8_t> bytes,
                                std::size_t rows, std::size_t cols);

    /**
     * Decode a *byte-aligned* row stream: row r starts at byte offset
     * r * row_stream_bytes(plan, cols), with the final partial byte of
     * each row zero-padded (the pack_rows_aligned layout).  This is the
     * storage form of the native MX K/V cache — byte alignment is what
     * makes per-token append a memcpy and prefix truncation a resize,
     * at a cost of at most 7 pad bits per row.  @p bytes must hold
     * rows * row_stream_bytes(plan, cols) bytes (checked up front).
     */
    static PackedOperand decode_rows(const core::kernels::QuantPlan& plan,
                                     std::span<const std::uint8_t> bytes,
                                     std::size_t rows, std::size_t cols);

    /**
     * Quantize a float matrix straight into the execution view through
     * the dispatched QuantKernel — the activation-side builder, one
     * quantize_encode_rows call.  The integer encodings are identical
     * to what quantize_rows would produce before its final
     * dequantize-to-grid step, and stochastic rounding draws in the
     * same order.
     */
    static PackedOperand quantize(const core::kernels::QuantPlan& plan,
                                  const float* x, std::size_t rows,
                                  std::size_t cols,
                                  const core::Rounder& rounder);

    /** True once a builder has run. */
    bool valid() const { return rows_ > 0 && cols_ > 0; }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    const core::kernels::QuantPlan& plan() const { return plan_; }

    /** k1-blocks per row (the last may be a short tail). */
    std::size_t blocks_per_row() const { return blocks_per_row_; }
    /** k2 sub-blocks per row (zero-filled when d2 == 0). */
    std::size_t subs_per_row() const { return subs_per_row_; }

    /** Row @p r's mantissas (cols entries, |M| <= 2^m - 1). */
    const std::int16_t*
    row_mantissa(std::size_t r) const
    {
        return mantissa_.get() + r * cols_;
    }

    /** Row @p r's sub-block shifts (subs_per_row() entries). */
    const std::uint8_t*
    row_tau(std::size_t r) const
    {
        return tau_.get() + r * subs_per_row_;
    }

    /** Row @p r's shared exponents (blocks_per_row() entries). */
    const std::int16_t*
    row_exp(std::size_t r) const
    {
        return exp_.get() + r * blocks_per_row_;
    }

    /** Bit offset of row @p r inside the source packed stream (every
     *  row occupies the same number of bits, ragged tail included). */
    std::size_t row_bit_offset(std::size_t r) const;

    /** Heap bytes held by the view (the serving-memory number the
     *  bench reports next to 32-bit floats and the packed stream). */
    std::size_t memory_bytes() const;

  private:
    PackedOperand(const core::kernels::QuantPlan& plan, std::size_t rows,
                  std::size_t cols);

    core::kernels::QuantPlan plan_;
    std::size_t rows_ = 0, cols_ = 0;
    std::size_t blocks_per_row_ = 0, subs_per_row_ = 0;
    // Allocated unwritten: every builder writes each element (tau
    // included, zeros when d2 == 0).
    std::unique_ptr<std::int16_t[]> mantissa_; ///< rows x cols
    std::unique_ptr<std::uint8_t[]> tau_;      ///< rows x subs_per_row
    std::unique_ptr<std::int16_t[]> exp_;      ///< rows x blocks_per_row
};

/** Stream bits of one row of @p cols elements under @p plan (the
 *  per-row stride behind PackedOperand::row_bit_offset). */
std::size_t row_bits(const core::kernels::QuantPlan& plan,
                     std::size_t cols);

/** Byte stride of one row in a byte-aligned row stream (the
 *  pack_rows_aligned / decode_rows layout): ceil(row_bits / 8). */
std::size_t row_stream_bytes(const core::kernels::QuantPlan& plan,
                             std::size_t cols);

/**
 * Quantize+pack @p rows rows of @p cols floats, appending each row's
 * packed bits to @p out at a byte-aligned offset (zero-padding the
 * row's final partial byte).  The append form of the native MX K/V
 * cache: quantize once when a token arrives, then only bytes move.
 * Grows @p out by rows * row_stream_bytes(plan, cols), reallocating
 * at most once (never when its capacity already suffices); the rows are
 * packed straight into it.  On a throw @p out is valid but unspecified.
 */
void pack_rows_aligned(const core::kernels::QuantPlan& plan,
                       const float* x, std::size_t rows, std::size_t cols,
                       const core::Rounder& rounder,
                       std::vector<std::uint8_t>& out);

} // namespace gemm
} // namespace mx
