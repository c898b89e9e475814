#include "nn/linear.h"

#include <cmath>

#include "core/check.h"
#include "gemm/packed_gemm.h"

namespace mx {
namespace nn {

using tensor::Tensor;

Linear::Linear(std::int64_t in, std::int64_t out, QuantSpec spec,
               stats::Rng& rng, bool with_bias)
    : in_(in), out_(out), spec_(std::move(spec)), with_bias_(with_bias)
{
    MX_CHECK_ARG(in >= 1 && out >= 1, "Linear: bad dimensions");
    float bound = 1.0f / std::sqrt(static_cast<float>(in));
    weight_ = Param("linear.weight",
                    Tensor::rand_uniform({out, in}, rng, bound));
    if (with_bias_)
        bias_ = Param("linear.bias",
                      Tensor::rand_uniform({out}, rng, bound));
}

Tensor
Linear::forward(const Tensor& x, bool train)
{
    MX_CHECK_ARG(x.ndim() == 2 && x.dim(1) == in_,
                 "Linear: input " << x.shape_string() << " expects [*, "
                                  << in_ << "]");
    if (frozen()) {
        MX_CHECK_ARG(!train, "Linear: frozen layers serve eval-mode "
                             "forwards only; unfreeze() to train");
        Tensor y = frozen_matmul(x);
        if (with_bias_)
            y = tensor::add_row_bias(y, bias_.value);
        return y;
    }
    if (train)
        cached_input_ = x;
    // Y = Q(X along K) Q(W along K)^T: both row dims are the reduction.
    Tensor y = qmatmul_nt2(x, spec_.forward, weight_.value,
                           spec_.weight_format(), spec_.rounding);
    if (with_bias_)
        y = tensor::add_row_bias(y, bias_.value);
    return y;
}

Tensor
Linear::frozen_matmul(const Tensor& x) const
{
    // Packed-domain path (Figure 6): when the activation format pairs
    // with the snapshot's gemm-ready view, the weight matmul runs on the
    // MX bit stream's integer mantissas on every kernel — no dequantized
    // FP32 weight copy exists.
    if (packed_activation_ready())
        return gemm::matmul_nt_packed(
            x, core::kernels::make_quant_plan(*spec_.forward),
            *frozen_weight_.gemm_operand(), spec_.rounding);
    // Formats that cannot pair serve on the freeze-time grid tensor;
    // only the activations are quantized per call — bit-identical to
    // the fake-quant path because quantize_rows is deterministic.
    MX_CHECK_ARG(frozen_weight_.values().numel() > 0,
                 "Linear: the snapshot holds no FP32 grid and the spec "
                 "changed to an activation format that cannot pair "
                 "with the packed weight; freeze() again");
    return spec_.forward
        ? tensor::matmul_nt(quantize_rows(x, *spec_.forward,
                                          spec_.rounding),
                            frozen_weight_.values())
        : tensor::matmul_nt(x, frozen_weight_.values());
}

bool
Linear::packed_activation_ready() const
{
    return frozen() && frozen_weight_.pairs_with(spec_.forward);
}

Tensor
Linear::forward_packed_activation(const gemm::PackedOperand& xq)
{
    MX_CHECK_ARG(packed_activation_ready(),
                 "Linear: forward_packed_activation needs a frozen "
                 "layer whose weight pairs with the activation format");
    MX_CHECK_ARG(xq.cols() == static_cast<std::size_t>(in_),
                 "Linear: packed activation is " << xq.cols()
                     << " wide, layer expects " << in_);
    const gemm::GemmPlan plan = gemm::make_gemm_plan(
        xq.plan(), frozen_weight_.gemm_operand()->plan());
    Tensor y = gemm::matmul_nt_prequant(plan, xq,
                                        *frozen_weight_.gemm_operand());
    if (with_bias_)
        y = tensor::add_row_bias(y, bias_.value);
    return y;
}

void
Linear::freeze()
{
    frozen_weight_ = FrozenTensor::build(weight_.value,
                                         spec_.weight_format(),
                                         spec_.rounding, spec_.forward);
}

void
Linear::freeze(const QuantSpec& spec)
{
    spec_ = spec;
    freeze();
}

void
Linear::unfreeze()
{
    frozen_weight_ = FrozenTensor();
}

Tensor
Linear::backward(const Tensor& grad_out)
{
    MX_CHECK_ARG(cached_input_.numel() > 0,
                 "Linear: backward before forward(train=true)");
    MX_CHECK_ARG(grad_out.ndim() == 2 && grad_out.dim(1) == out_,
                 "Linear: grad shape mismatch");

    // dX[B, in] = E[B, out] * W[out, in]: reduce over `out`.
    // Per Figure 8 the weight is transposed *before* quantization.
    Tensor w_t = tensor::transpose2d(weight_.value); // [in, out]
    Tensor dx = qmatmul_nt(grad_out, w_t, spec_.backward, spec_.rounding);

    // dW[out, in] = E^T[out, B] * X[B, in]: reduce over the batch.
    Tensor e_t = tensor::transpose2d(grad_out);          // [out, B]
    Tensor x_t = tensor::transpose2d(cached_input_);     // [in, B]
    Tensor dw = qmatmul_nt(e_t, x_t, spec_.backward, spec_.rounding);
    tensor::axpy(weight_.grad, 1.0f, dw);

    if (with_bias_) {
        Tensor db = tensor::sum_rows(grad_out);
        tensor::axpy(bias_.grad, 1.0f, db);
    }
    return dx;
}

void
Linear::collect_params(std::vector<Param*>& out)
{
    out.push_back(&weight_);
    if (with_bias_)
        out.push_back(&bias_);
}

void
Linear::collect_state(const std::string& prefix,
                      std::vector<FrozenStateRef>& out)
{
    FrozenStateRef w;
    w.name = prefix + weight_.name;
    w.param = &weight_;
    w.frozen = &frozen_weight_;
    w.spec = &spec_;
    w.packed_matmul = true;
    out.push_back(w);
    if (with_bias_) {
        FrozenStateRef b;
        b.name = prefix + bias_.name;
        b.param = &bias_;
        out.push_back(b);
    }
}

} // namespace nn
} // namespace mx
