#pragma once

/**
 * @file
 * Prequantized weight snapshots for direct-cast inference.
 *
 * The paper's deployment story (Section V, Table IV) quantizes weights
 * **once** and then serves them, but the fake-quant compute flow in
 * nn/quant.h re-quantizes `weight_.value` on every forward call.  A
 * FrozenTensor is the freeze half of that split: it captures the exact
 * value-grid tensor `quantize_rows(w, fmt)` would produce — so a frozen
 * forward on the dequantized-values path is bit-identical to the
 * fake-quant forward by construction — plus, for the pow2 block family
 * (BFP/MX), the packed bit stream and QuantPlan a native serving stack
 * would hold in memory, and the gemm-ready integer execution view
 * (gemm::PackedOperand) the packed-domain GEMM consumes directly.
 *
 * A FrozenTensor is a *shareable handle*: the snapshot artifacts live
 * in one immutable payload behind a shared_ptr, so copying a
 * FrozenTensor is O(1) and copies alias the same packed weight bytes.
 * This is what makes model clones cheap: N clones (or N models loaded
 * from one artifact) share every frozen artifact and own only their
 * mutable eval scratch.  The payload is immutable after construction.
 *
 * The FP32 grid tensor is decoded only where a layer reads it.  A
 * frozen Linear whose activation format pairs with the gemm view always
 * runs the packed GEMM, on every kernel, so a snapshot built for it
 * skips the grid: its weight memory is the packed artifact alone.
 * Conv2d, Lstm and Embedding read the grid, and so does a Linear that
 * cannot pair.
 *
 * Freezing requires deterministic rounding: a stochastic-rounding
 * snapshot could never reproduce the per-call result.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "core/bdr_format.h"
#include "core/kernels/quant_kernel.h"
#include "core/rounding.h"
#include "formats/block_codec.h"
#include "gemm/packed_operand.h"
#include "tensor/tensor.h"

namespace mx {
namespace nn {

/** A shareable handle onto an immutable quantized snapshot of one 2-d
 *  weight tensor (copies alias one payload; see the file header). */
class FrozenTensor
{
  public:
    /** Invalid (unfrozen) snapshot. */
    FrozenTensor() : p_(std::make_shared<Payload>()) {}

    /**
     * Snapshot @p w under @p fmt.
     *
     * @param w        2-d weight, rows along the contraction layout the
     *                 layer feeds to its matmuls
     * @param fmt      target format; nullopt freezes the FP32 values
     *                 as-is (no packed artifact)
     * @param rounding mantissa rounding; must be deterministic
     * @param act      activation format of the packed-capable matmul
     *                 that reads the snapshot (a Linear's spec.forward);
     *                 nullopt for layers that read only the grid.  The
     *                 FP32 grid is skipped when @p act pairs with the
     *                 gemm view (pairs_with): that matmul always runs
     *                 packed.
     */
    static FrozenTensor build(const tensor::Tensor& w,
                              const std::optional<core::BdrFormat>& fmt,
                              core::RoundingMode rounding =
                                  core::RoundingMode::NearestEven,
                              const std::optional<core::BdrFormat>& act =
                                  std::nullopt);

    /**
     * Rehydrate a snapshot from an existing packed bit stream — the
     * artifact-load half of the freeze/serve split (artifact/reader.h).
     *
     * For the pow2 block family (MX/BFP) the payload keeps @p bytes as
     * a *non-owning view*: no copy of the stream is made, so handles
     * materialized from a read-only mmap point straight into the
     * mapping, and N models loaded from one artifact share that single
     * mapping.  @p keepalive pins the backing storage (the mapping) for
     * the payload's lifetime.  Software-scaled formats fall back to an
     * owned copy (their only execution form is decoded values).
     *
     * @param fmt        the stream's format (must round-trip the layout
     *                   the stream was packed under)
     * @param bytes      the packed stream, rows * row_bits each row
     * @param bit_size   exact payload bits (trailing pad bits excluded)
     * @param rows,cols  snapshot shape
     * @param keepalive  shared handle keeping @p bytes alive
     * @param act        as for build()
     */
    static FrozenTensor from_packed(const core::BdrFormat& fmt,
                                    std::span<const std::uint8_t> bytes,
                                    std::size_t bit_size,
                                    std::int64_t rows, std::int64_t cols,
                                    std::shared_ptr<const void> keepalive,
                                    const std::optional<core::BdrFormat>&
                                        act = std::nullopt);

    /**
     * True when a matmul quantizing its activations under @p act can
     * run the packed GEMM on this snapshot: the snapshot has a gemm
     * view and @p act is a pow2-block format whose plan pairs with it.
     * build() and from_packed() keep the FP32 grid exactly when this is
     * false for their @p act.
     */
    bool pairs_with(const std::optional<core::BdrFormat>& act) const;

    /** True once build() has run. */
    bool valid() const { return p_->built; }

    /** True when the snapshot went through a quantization format. */
    bool quantized() const { return p_->format.has_value(); }

    /** The cached serving tensor: bit-identical to
     *  quantize_rows(w, fmt) (or w itself for nullopt).  Empty when
     *  the snapshot pairs with its activation format; unpacked()
     *  rebuilds it on demand. */
    const tensor::Tensor& values() const { return p_->values; }

    /** The freeze format (nullopt = FP32 passthrough). */
    const std::optional<core::BdrFormat>& format() const
    {
        return p_->format;
    }

    /** The packed bit stream a native stack would store (engaged for
     *  every quantized snapshot *owned* by this payload; a
     *  from_packed() view payload leaves it empty — use packed_bytes()
     *  for the mode-agnostic stream). */
    const std::optional<formats::PackedTensor>& packed() const
    {
        return p_->packed;
    }

    /** The packed stream bytes regardless of payload mode: the owned
     *  vector (build()) or the non-owning view into the artifact
     *  mapping (from_packed()).  Empty when not quantized. */
    std::span<const std::uint8_t> packed_bytes() const
    {
        if (!p_->view.empty())
            return p_->view;
        if (p_->packed.has_value())
            return std::span<const std::uint8_t>(p_->packed->bytes);
        return {};
    }

    /** Exact stream bits behind packed_bytes() (0 when not quantized). */
    std::size_t packed_bit_size() const
    {
        if (!p_->view.empty())
            return p_->view_bits;
        return p_->packed.has_value() ? p_->packed->bit_size : 0;
    }

    /** True when the payload is a non-owning view into external
     *  storage (an mmap'd artifact) rather than an owned stream. */
    bool zero_copy() const { return !p_->view.empty(); }

    /** The kernel plan (engaged for the pow2 block family only). */
    const std::optional<core::kernels::QuantPlan>& plan() const
    {
        return p_->plan;
    }

    /**
     * The gemm-ready execution view of the packed stream: int16
     * mantissas + sub-shifts + shared exponents with per-row block
     * offsets (ragged widths need no re-plan).  Engaged for pow2 block
     * formats whose mantissas fit the view (every MX/MSFP format);
     * nullopt otherwise — the layer then serves on the values() path.
     */
    const std::optional<gemm::PackedOperand>& gemm_operand() const
    {
        return p_->operand;
    }

    /** Snapshot shape (valid even without the grid). */
    std::int64_t rows() const { return p_->rows; }
    std::int64_t cols() const { return p_->cols; }

    /** True when this handle and @p other alias one payload (model
     *  clones sharing the packed artifacts). */
    bool shares_payload_with(const FrozenTensor& other) const
    {
        return p_ == other.p_;
    }

    /** Storage bits per element of the packed artifact (32 when not
     *  quantized). */
    double bits_per_element() const;

    /**
     * Decode the packed stream back to a tensor.  The codec property
     * `decode(encode(x)) == fake_quantize(x)` makes this bit-identical
     * to the grid values — the test suite asserts it, proving the
     * snapshot is a real container, not just cached rounding.
     */
    tensor::Tensor unpacked() const;

  private:
    /** The snapshot itself; immutable once built. */
    struct Payload
    {
        tensor::Tensor values;
        std::optional<core::BdrFormat> format;
        std::optional<formats::PackedTensor> packed;
        std::optional<core::kernels::QuantPlan> plan;
        std::optional<gemm::PackedOperand> operand;
        /** from_packed() mode: the stream lives in external storage
         *  (artifact mmap) pinned by `backing`; `packed` stays empty. */
        std::span<const std::uint8_t> view;
        std::size_t view_bits = 0;
        std::shared_ptr<const void> backing;
        std::int64_t rows = 0, cols = 0;
        bool built = false;
    };

    std::shared_ptr<Payload> p_;
};

} // namespace nn
} // namespace mx
