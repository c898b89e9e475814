#include "nn/frozen.h"

#include <algorithm>

#include "core/bitstream.h"
#include "core/check.h"
#include "core/kernels/dispatch.h"
#include "gemm/gemm_plan.h"
#include "nn/quant.h"

namespace mx {
namespace nn {

using tensor::Tensor;

namespace {

/** True for the pow2 hardware-scaled block family (BFP/MX). */
bool
is_pow2_block(const core::BdrFormat& fmt)
{
    return fmt.s_kind == core::ScaleKind::Pow2Hw &&
           fmt.elem == core::ElementKind::SignMagnitude;
}

/**
 * Row-aware pow2 pack: one bit-contiguous stream whose blocks never
 * straddle a row boundary — exactly the block layout quantize_rows
 * produces.  For aligned widths this is byte-identical to
 * formats::pack on the flat span.
 */
formats::PackedTensor
pack_rows_pow2(const core::BdrFormat& fmt,
               const core::kernels::QuantPlan& plan, const Tensor& w,
               core::RoundingMode rounding)
{
    core::Rounder rounder(rounding);
    core::BitWriter writer;
    core::kernels::active_kernel().quantize_pack_rows(
        plan, w.data(), static_cast<std::size_t>(w.dim(0)),
        static_cast<std::size_t>(w.dim(1)), rounder, writer);
    formats::PackedTensor p;
    p.format = fmt;
    p.num_elements = static_cast<std::size_t>(w.numel());
    p.bit_size = writer.bit_count();
    p.bytes = writer.take();
    return p;
}

/** Row-aware pow2 decode, mirroring pack_rows_pow2's block layout. */
void
unpack_rows_pow2(std::span<const std::uint8_t> bytes,
                 const core::kernels::QuantPlan& plan, std::int64_t rows,
                 std::int64_t cols, Tensor& out)
{
    const core::kernels::QuantKernel& kernel =
        core::kernels::active_kernel();
    const std::size_t k1 = static_cast<std::size_t>(plan.k1);
    core::BitReader reader(bytes);
    core::Pow2BlockEncoding enc; // reused; resize keeps capacity
    for (std::int64_t r = 0; r < rows; ++r) {
        float* row = out.data() + r * cols;
        const std::size_t n = static_cast<std::size_t>(cols);
        for (std::size_t off = 0; off < n; off += k1) {
            const std::size_t len = std::min(k1, n - off);
            enc.sub_shift.resize(plan.num_sub_blocks(len));
            enc.mantissa.resize(len);
            enc.shared_exp = core::kernels::detail::read_block_bits(
                plan, reader, len, enc.sub_shift.data(),
                enc.mantissa.data());
            kernel.dequantize_block(plan, enc,
                                    std::span<float>(row + off, len));
        }
    }
}

} // namespace

FrozenTensor
FrozenTensor::build(const Tensor& w,
                    const std::optional<core::BdrFormat>& fmt,
                    core::RoundingMode rounding,
                    const std::optional<core::BdrFormat>& act)
{
    MX_CHECK_ARG(w.ndim() == 2, "FrozenTensor: needs a 2-d weight, got "
                                    << w.shape_string());
    FrozenTensor f;
    Payload& p = *f.p_;
    p.built = true;
    p.rows = w.dim(0);
    p.cols = w.dim(1);
    if (!fmt.has_value()) {
        p.values = w;
        return f;
    }
    MX_CHECK_ARG(rounding != core::RoundingMode::Stochastic,
                 "FrozenTensor: freezing needs deterministic rounding — "
                 "a stochastic snapshot cannot reproduce per-call "
                 "fake quantization");
    p.format = *fmt;
    if (is_pow2_block(*fmt)) {
        p.plan = core::kernels::make_quant_plan(*fmt);
        p.packed = pack_rows_pow2(*fmt, *p.plan, w, rounding);
        // The gemm-ready execution view, decoded straight from the bit
        // stream (the stream, not the grid tensor, is the source of
        // truth a native serving stack would hold).
        if (gemm::operand_eligible(*p.plan))
            p.operand = gemm::PackedOperand::decode(
                *p.plan, p.packed->bytes,
                static_cast<std::size_t>(p.rows),
                static_cast<std::size_t>(p.cols));
    } else {
        // Software-scaled families use one per-tensor JIT scale in both
        // quantize_rows and the codec, so the flat pack matches.
        p.packed = formats::pack(*fmt, w.span(), rounding);
    }
    if (!f.pairs_with(act))
        p.values = quantize_rows(w, *fmt, rounding);
    return f;
}

FrozenTensor
FrozenTensor::from_packed(const core::BdrFormat& fmt,
                          std::span<const std::uint8_t> bytes,
                          std::size_t bit_size, std::int64_t rows,
                          std::int64_t cols,
                          std::shared_ptr<const void> keepalive,
                          const std::optional<core::BdrFormat>& act)
{
    MX_CHECK_ARG(rows > 0 && cols > 0,
                 "FrozenTensor: from_packed needs a non-empty shape, got "
                     << rows << " x " << cols);
    MX_CHECK_ARG(bytes.size() * 8 >= bit_size,
                 "FrozenTensor: from_packed stream shorter than its "
                 "declared bit size");
    FrozenTensor f;
    Payload& p = *f.p_;
    p.built = true;
    p.rows = rows;
    p.cols = cols;
    p.format = fmt;
    if (is_pow2_block(fmt)) {
        p.plan = core::kernels::make_quant_plan(fmt);
        const std::size_t expect =
            static_cast<std::size_t>(rows) *
            gemm::row_bits(*p.plan, static_cast<std::size_t>(cols));
        MX_CHECK_ARG(bit_size == expect,
                     "FrozenTensor: packed stream carries "
                         << bit_size << " bits but [" << rows << " x "
                         << cols << "] under " << fmt.name << " needs "
                         << expect);
        // Zero-copy: the payload views the caller's stream (an mmap'd
        // artifact) and pins it via `backing`; no stream copy exists.
        p.view = bytes;
        p.view_bits = bit_size;
        p.backing = std::move(keepalive);
        if (gemm::operand_eligible(*p.plan))
            p.operand = gemm::PackedOperand::decode(
                *p.plan, bytes, static_cast<std::size_t>(rows),
                static_cast<std::size_t>(cols));
        if (!f.pairs_with(act)) {
            p.values = Tensor({rows, cols});
            unpack_rows_pow2(bytes, *p.plan, rows, cols, p.values);
        }
        return f;
    }
    // Software-scaled families: the layer serves on decoded values, so
    // own a copy of the stream and always materialize.
    formats::PackedTensor packed;
    packed.format = fmt;
    packed.num_elements = static_cast<std::size_t>(rows * cols);
    packed.bit_size = bit_size;
    packed.bytes.assign(bytes.begin(), bytes.end());
    p.packed = std::move(packed);
    std::vector<float> flat = formats::unpack(*p.packed);
    MX_CHECK_ARG(static_cast<std::int64_t>(flat.size()) == rows * cols,
                 "FrozenTensor: packed stream decodes "
                     << flat.size() << " elements, expected "
                     << rows * cols);
    p.values = Tensor({rows, cols});
    std::copy(flat.begin(), flat.end(), p.values.data());
    return f;
}

bool
FrozenTensor::pairs_with(const std::optional<core::BdrFormat>& act) const
{
    return p_->operand.has_value() && act.has_value() &&
           is_pow2_block(*act) &&
           gemm::gemm_compatible(core::kernels::make_quant_plan(*act),
                                 p_->operand->plan());
}

double
FrozenTensor::bits_per_element() const
{
    const std::size_t bits = packed_bit_size();
    if (bits == 0)
        return 32.0;
    return static_cast<double>(bits) /
           static_cast<double>(p_->rows * p_->cols);
}

Tensor
FrozenTensor::unpacked() const
{
    MX_CHECK_ARG(valid(), "FrozenTensor: unpacked() before build()");
    const Payload& p = *p_;
    if (!p.packed.has_value() && p.view.empty())
        return p.values;
    Tensor out({p.rows, p.cols});
    if (p.plan.has_value()) {
        unpack_rows_pow2(packed_bytes(), *p.plan, p.rows, p.cols, out);
        return out;
    }
    std::vector<float> flat = formats::unpack(*p.packed);
    MX_CHECK(static_cast<std::int64_t>(flat.size()) == out.numel(),
             "FrozenTensor: packed element count drifted");
    std::copy(flat.begin(), flat.end(), out.data());
    return out;
}

} // namespace nn
} // namespace mx
