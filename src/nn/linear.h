#pragma once

/**
 * @file
 * Fully-connected layer with MX-quantized contractions (Figure 8).
 */

#include "nn/frozen.h"
#include "nn/layer.h"
#include "nn/quant.h"
#include "stats/rng.h"

namespace mx {
namespace gemm {
class PackedOperand;
}
namespace nn {

/**
 * y = x W^T + b with x[B, in], W[out, in].
 *
 * All three contractions (forward, dX, dW) follow the paper's compute
 * flow: each operand is quantized along the contraction's reduction
 * dimension, with transposes applied *before* quantization.
 */
class Linear : public Layer
{
  public:
    /**
     * @param in        input features
     * @param out       output features
     * @param spec      quantization policy for this layer's matmuls
     * @param rng       weight init stream (Kaiming-uniform)
     * @param with_bias include the additive bias
     */
    Linear(std::int64_t in, std::int64_t out, QuantSpec spec,
           stats::Rng& rng, bool with_bias = true);

    tensor::Tensor forward(const tensor::Tensor& x, bool train) override;
    tensor::Tensor backward(const tensor::Tensor& grad_out) override;
    void collect_params(std::vector<Param*>& out) override;
    void collect_state(const std::string& prefix,
                       std::vector<FrozenStateRef>& out) override;

    /** Snapshot Q(W) under the current spec's weight format; the FP32
     *  grid is kept only if the frozen forward reads it (the weight
     *  cannot pair with the activation format). */
    void freeze() override;
    /** Adopt @p spec, then freeze. */
    void freeze(const QuantSpec& spec) override;
    void unfreeze() override;
    bool frozen() const override { return frozen_weight_.valid(); }

    /** The frozen weight snapshot (valid only while frozen). */
    const FrozenTensor& frozen_weight() const { return frozen_weight_; }

    /**
     * True when this layer's frozen forward runs the packed GEMM:
     * frozen, and the activation format pairs with the packed weight
     * (FrozenTensor::pairs_with), whatever kernel is active.
     * Callers that feed one activation matrix to several layers
     * (attention's wq/wk/wv share the post-LN input) check this on
     * each, quantize once, and hand the packed view to all of them —
     * the PackedOperand handoff.
     */
    bool packed_activation_ready() const;

    /**
     * The frozen forward on a pre-quantized activation view: y = xq W^T
     * (+ bias) in the packed domain.  Bit-identical to forward() on the
     * floats @p xq was quantized from, because quantization is a pure
     * per-row function of the input — the only difference is that the
     * quantization ran once in the caller instead of once per layer.
     */
    tensor::Tensor forward_packed_activation(const gemm::PackedOperand& xq);

    /** The layer's quantization policy (mutable for cast experiments). */
    QuantSpec& spec() { return spec_; }

    /** Weight parameter [out, in]. */
    Param& weight() { return weight_; }
    /** Bias parameter [out] (valid only when constructed with bias). */
    Param& bias() { return bias_; }

    /** Feature dimensions (artifact config round-trips need them). */
    std::int64_t in_features() const { return in_; }
    std::int64_t out_features() const { return out_; }

  private:
    /** The frozen weight matmul: packed-domain mx_gemm when the
     *  snapshot pairs with the activation format, grid values
     *  otherwise. */
    tensor::Tensor frozen_matmul(const tensor::Tensor& x) const;

    std::int64_t in_, out_;
    QuantSpec spec_;
    bool with_bias_;
    Param weight_;
    Param bias_;
    FrozenTensor frozen_weight_;
    tensor::Tensor cached_input_;
};

} // namespace nn
} // namespace mx
