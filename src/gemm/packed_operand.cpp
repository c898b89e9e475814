#include "gemm/packed_operand.h"

#include <algorithm>

#include "core/bitstream.h"
#include "core/check.h"
#include "core/kernels/dispatch.h"
#include "gemm/gemm_plan.h"

namespace mx {
namespace gemm {

using core::kernels::QuantPlan;

std::size_t
row_bits(const QuantPlan& plan, std::size_t cols)
{
    const std::size_t k1 = static_cast<std::size_t>(plan.k1);
    const std::size_t blocks = (cols + k1 - 1) / k1;
    const std::size_t subs = plan.num_sub_blocks(cols);
    return blocks * static_cast<std::size_t>(plan.d1) +
           subs * static_cast<std::size_t>(plan.d2) +
           cols * static_cast<std::size_t>(1 + plan.m);
}

PackedOperand::PackedOperand(const QuantPlan& plan, std::size_t rows,
                             std::size_t cols)
    : plan_(plan), rows_(rows), cols_(cols)
{
    MX_CHECK_ARG(rows > 0 && cols > 0,
                 "PackedOperand: empty operand [" << rows << " x " << cols
                                                  << "]");
    MX_CHECK_ARG(operand_eligible(plan),
                 "PackedOperand: mantissa too wide for the int16 "
                 "execution view (m=" << plan.m << ")");
    blocks_per_row_ = (cols + static_cast<std::size_t>(plan.k1) - 1) /
                      static_cast<std::size_t>(plan.k1);
    subs_per_row_ = plan.num_sub_blocks(cols);
    mantissa_ = std::make_unique_for_overwrite<std::int16_t[]>(rows * cols);
    tau_ = std::make_unique_for_overwrite<std::uint8_t[]>(rows *
                                                          subs_per_row_);
    exp_ = std::make_unique_for_overwrite<std::int16_t[]>(rows *
                                                          blocks_per_row_);
}

std::size_t
row_stream_bytes(const QuantPlan& plan, std::size_t cols)
{
    return (row_bits(plan, cols) + 7) / 8;
}

void
pack_rows_aligned(const QuantPlan& plan, const float* x, std::size_t rows,
                  std::size_t cols, const core::Rounder& rounder,
                  std::vector<std::uint8_t>& out)
{
    const core::kernels::QuantKernel& kernel =
        core::kernels::active_kernel();
    const std::size_t stride = row_stream_bytes(plan, cols);
    const std::size_t want = out.size() + rows * stride;
    // One growth at most; the writer then packs every row in place.
    out.reserve(want);
    core::BitWriter w(std::move(out));
    for (std::size_t r = 0; r < rows; ++r) {
        kernel.quantize_pack_rows(plan, x + r * cols, 1, cols, rounder, w);
        // The zero-padded partial byte is the byte-aligned row boundary.
        w.pad_to_byte();
    }
    out = w.take();
    MX_CHECK(out.size() == want, "pack_rows_aligned: rows packed to "
                                     << out.size() << " bytes, expected "
                                     << want);
}

std::size_t
PackedOperand::row_bit_offset(std::size_t r) const
{
    MX_CHECK_ARG(r < rows_, "PackedOperand: row out of range");
    return r * row_bits(plan_, cols_);
}

std::size_t
PackedOperand::memory_bytes() const
{
    return rows_ * (cols_ * sizeof(std::int16_t) + subs_per_row_ +
                    blocks_per_row_ * sizeof(std::int16_t));
}

namespace {

/** Decode one row's blocks from @p reader into the view's row arrays. */
void
decode_row(const QuantPlan& plan, core::BitReader& reader, std::size_t cols,
           std::int16_t* mant, std::uint8_t* tau, std::int16_t* exp)
{
    const std::size_t k1 = static_cast<std::size_t>(plan.k1);
    for (std::size_t off = 0; off < cols; off += k1) {
        const std::size_t n = std::min(k1, cols - off);
        const int e = core::kernels::detail::read_block_bits(
            plan, reader, n, tau, mant + off);
        *exp++ = static_cast<std::int16_t>(e);
        tau += plan.num_sub_blocks(n);
    }
}

} // namespace

PackedOperand
PackedOperand::decode(const QuantPlan& plan,
                      std::span<const std::uint8_t> bytes,
                      std::size_t rows, std::size_t cols)
{
    PackedOperand op(plan, rows, cols);
    MX_CHECK_ARG(bytes.size() * 8 >= rows * row_bits(plan, cols),
                 "PackedOperand::decode: stream too short for ["
                     << rows << " x " << cols << "]");
    core::BitReader reader(bytes);
    for (std::size_t r = 0; r < rows; ++r)
        decode_row(plan, reader, cols, op.mantissa_.get() + r * cols,
                   op.tau_.get() + r * op.subs_per_row_,
                   op.exp_.get() + r * op.blocks_per_row_);
    return op;
}

PackedOperand
PackedOperand::decode_rows(const QuantPlan& plan,
                           std::span<const std::uint8_t> bytes,
                           std::size_t rows, std::size_t cols)
{
    PackedOperand op(plan, rows, cols);
    const std::size_t stride = row_stream_bytes(plan, cols);
    MX_CHECK_ARG(bytes.size() >= rows * stride,
                 "PackedOperand::decode_rows: stream holds "
                     << bytes.size() << " bytes, [" << rows << " x " << cols
                     << "] needs " << rows * stride);
    // Each row's reader spans the rest of the stream, not just its
    // stride, so only the final row refills from its last 8 bytes one
    // byte at a time; the size check above keeps every row in bounds.
    for (std::size_t r = 0; r < rows; ++r) {
        core::BitReader reader(bytes.subspan(r * stride));
        decode_row(plan, reader, cols, op.mantissa_.get() + r * cols,
                   op.tau_.get() + r * op.subs_per_row_,
                   op.exp_.get() + r * op.blocks_per_row_);
    }
    return op;
}

PackedOperand
PackedOperand::quantize(const QuantPlan& plan, const float* x,
                        std::size_t rows, std::size_t cols,
                        const core::Rounder& rounder)
{
    PackedOperand op(plan, rows, cols);
    core::kernels::active_kernel().quantize_encode_rows(
        plan, x, rows, cols, rounder, op.mantissa_.get(), op.tau_.get(),
        op.exp_.get());
    return op;
}

} // namespace gemm
} // namespace mx
