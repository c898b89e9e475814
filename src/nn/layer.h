#pragma once

/**
 * @file
 * Layer abstraction for the training substrate.
 *
 * Layers own their parameters and implement explicit forward/backward
 * passes (no tape autograd): forward caches whatever backward needs,
 * backward consumes the output gradient, accumulates parameter gradients
 * and returns the input gradient.  This mirrors how a quantization-aware
 * training framework like the paper's CUDA emulation library slots Q ops
 * into individual tensor contractions.
 */

#include <optional>
#include <string>
#include <vector>

#include "core/bdr_format.h"
#include "tensor/tensor.h"

namespace mx {
namespace nn {

struct QuantSpec;   // nn/quant.h
class FrozenTensor; // nn/frozen.h

/** A trainable parameter: value plus accumulated gradient. */
struct Param
{
    std::string name;
    tensor::Tensor value;
    tensor::Tensor grad;

    Param() = default;
    Param(std::string n, tensor::Tensor v)
        : name(std::move(n)), value(std::move(v)), grad(value.shape())
    {
    }

    /** Clear the accumulated gradient. */
    void zero_grad() { grad.fill(0.0f); }
};

/**
 * A non-owning reference to one serializable state slot of a layer: the
 * parameter plus (when the layer freezes that parameter) the frozen
 * snapshot, quantization-policy, and freeze-flag slots that restoring
 * the layer from an artifact must fill.  Collected by
 * Layer::collect_state in a stable, position-significant order — the
 * artifact writer (artifact/writer.h) emits entries in this order and
 * the reader loads them back positionally.
 *
 * Slot semantics (null = the layer has no such slot):
 *  - param          always set; the FP32 parameter tensor
 *  - frozen         the layer's FrozenTensor for this parameter; the
 *                   reader installs a rehydrated handle here
 *  - spec           the layer's QuantSpec; saved per entry so
 *                   mixed-precision recipes (keep-first/last-FP32)
 *                   survive the round trip
 *  - storage_format independent storage format slot (Embedding)
 *  - frozen_flag    layers whose frozen() is a bare flag with no
 *                   snapshot (LayerNorm, Embedding)
 *  - packed_matmul  the slot's snapshot feeds a matmul that can run
 *                   the packed GEMM under spec->forward (Linear); the
 *                   reader then decodes its FP32 grid only when the
 *                   snapshot cannot pair with spec->forward
 *                   (FrozenTensor::pairs_with)
 */
struct FrozenStateRef
{
    std::string name;
    Param* param = nullptr;
    FrozenTensor* frozen = nullptr;
    QuantSpec* spec = nullptr;
    std::optional<core::BdrFormat>* storage_format = nullptr;
    bool* frozen_flag = nullptr;
    bool packed_matmul = false;
};

/** Base class of all layers. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * Compute the layer output.
     * @param x     input activations
     * @param train when true, caches for backward and enables dropout
     */
    virtual tensor::Tensor forward(const tensor::Tensor& x, bool train) = 0;

    /**
     * Back-propagate.  Must be called after a forward(x, true).
     * @param grad_out gradient w.r.t. the forward output
     * @return gradient w.r.t. the forward input
     */
    virtual tensor::Tensor backward(const tensor::Tensor& grad_out) = 0;

    /** Append non-owning pointers to this layer's parameters. */
    virtual void collect_params(std::vector<Param*>& out) { (void)out; }

    /**
     * Append this layer's serializable state slots, names prefixed with
     * @p prefix, in a stable order (the artifact save/load contract —
     * see FrozenStateRef).  The default wraps collect_params: every
     * parameter becomes a raw slot with no frozen/spec attachments,
     * which is exactly right for layers whose freeze() snapshots
     * nothing.  Parameter-freezing layers override to attach their
     * FrozenTensor/QuantSpec slots.
     */
    virtual void
    collect_state(const std::string& prefix,
                  std::vector<FrozenStateRef>& out)
    {
        std::vector<Param*> ps;
        collect_params(ps);
        for (Param* p : ps) {
            FrozenStateRef r;
            r.name = prefix + p->name;
            r.param = p;
            out.push_back(r);
        }
    }

    /**
     * Freeze for inference under the layer's *current* quantization
     * policy: parameter-owning layers snapshot their quantized weights
     * once (nn/frozen.h) so eval-mode forwards stop re-quantizing them
     * per call — the direct-cast serving split.  Stateless layers need
     * no snapshot, so the default is a no-op.  A frozen layer rejects
     * forward(x, train=true) until unfreeze().
     */
    virtual void freeze() {}

    /** Re-point the layer's quantization policy at @p spec, then
     *  freeze.  The default ignores the spec (stateless layers). */
    virtual void
    freeze(const QuantSpec& spec)
    {
        (void)spec;
        freeze();
    }

    /** Drop the frozen snapshot and return to the trainable
     *  fake-quant path (weights re-quantized per forward). */
    virtual void unfreeze() {}

    /** True while a frozen snapshot is active. */
    virtual bool frozen() const { return false; }

    /** Zero all parameter gradients. */
    void
    zero_grad()
    {
        std::vector<Param*> ps;
        collect_params(ps);
        for (Param* p : ps)
            p->zero_grad();
    }
};

} // namespace nn
} // namespace mx
