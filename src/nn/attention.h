#pragma once

/**
 * @file
 * Multi-head self-attention with MX-quantized contractions.
 *
 * All four projections and both attention matmuls (Q K^T and P V) go
 * through the Figure 8 quantization discipline; softmax itself is an
 * element-wise op and stays in scalar float, matching the paper's
 * compute flow.
 */

#include <memory>
#include <vector>

#include "gemm/packed_operand.h"
#include "nn/linear.h"

namespace mx {
namespace nn {

/**
 * Cached K/V state for the visible prefix of one decode stream — the
 * state MultiHeadAttention::forward_suffix reuses instead of
 * recomputing every position each step (serve/session_cache.h owns the
 * per-stream lifecycle).
 *
 * Two storage modes:
 *
 *  - Native MX (`native == true`, engaged whenever the forward
 *    activation format is a pow2-block family the packed GEMM can
 *    execute): the prefix is held as packed MX bit streams — the exact
 *    quantization blocks the causal-visibility discipline defines, so
 *    appending a token quantizes it ONCE and nothing is ever
 *    re-quantized.  K keeps one byte-aligned packed row per (head,
 *    key), quantized along head_dim; V keeps one packed [d_model, k1]
 *    slab per COMPLETED k1-key block of transposed V (quantized along
 *    keys — the reduction dim of P V), plus the raw FP32 rows of the
 *    still-open tail block.  At ~(1 + m + overhead) bits per element
 *    this is ~4x smaller than FP32 rows, and the packed kernels
 *    consume the streams directly — warm decode never dequantizes the
 *    prefix.
 *
 *  - Legacy FP32 (`native == false`): [prefix, d_model] rows of the
 *    post-projection activations, re-quantized on use (FP32 specs and
 *    formats outside the packed family).
 */
struct AttnPrefixCache
{
    tensor::Tensor k; ///< [prefix, d_model] rows of Wk x (legacy mode).
    tensor::Tensor v; ///< [prefix, d_model] rows of Wv x (legacy mode).
    std::int64_t prefix = 0; ///< Cached key count (both modes).

    bool native = false; ///< Packed-stream storage engaged.
    core::kernels::QuantPlan plan; ///< Activation plan (valid if native).
    std::int64_t d_model = 0, head_dim = 0; ///< Shape (valid if native).
    /// Per head: prefix byte-aligned packed rows of head_dim elements.
    std::vector<std::vector<std::uint8_t>> k_heads;
    /// Per completed k1-key block: a packed [d_model, k1] slab of
    /// transposed V (one slab serves every head via row offsets).
    std::vector<std::vector<std::uint8_t>> v_slabs;
    /// Raw FP32 V rows [prefix - k1 * v_slabs.size(), d_model] of the
    /// still-open tail block (completed slabs drop their raw floats).
    std::vector<float> v_tail;

    /**
     * Keep at most the first @p rows keys (stream diverged
     * mid-window); returns the count actually retained.  Native V
     * retreats to a k1 block boundary when the cut falls inside a
     * completed slab — the slab's raw floats are gone, and a shorter
     * tail would need re-quantization, which the native cache never
     * does.
     */
    std::int64_t truncate(std::int64_t rows);

    /** Heap bytes held by the cached prefix (the capacity-planning
     *  number serve::SessionCache accounts per session). */
    std::size_t memory_bytes() const;
};

/**
 * Self-attention over fixed-length sequences.
 *
 * Inputs are packed [B*T, D]; the batch/sequence factorization is given
 * at construction (fixed-shape training, as all our benchmarks use).
 */
class MultiHeadAttention : public Layer
{
  public:
    /**
     * @param d_model model width (divisible by heads)
     * @param heads   number of attention heads
     * @param seq_len fixed sequence length T
     * @param causal  apply a causal (autoregressive) mask
     * @param spec    quantization policy for every contraction
     * @param rng     weight init stream
     */
    MultiHeadAttention(std::int64_t d_model, std::int64_t heads,
                       std::int64_t seq_len, bool causal, QuantSpec spec,
                       stats::Rng& rng);

    tensor::Tensor forward(const tensor::Tensor& x, bool train) override;
    tensor::Tensor backward(const tensor::Tensor& grad_out) override;
    void collect_params(std::vector<Param*>& out) override;

    /** The four projections' state under "wq."/"wk."/"wv."/"wo."
     *  prefixes; the attention-internal spec (Q K^T, P V) is model
     *  config state, not per-entry state. */
    void
    collect_state(const std::string& prefix,
                  std::vector<FrozenStateRef>& out) override
    {
        wq_->collect_state(prefix + "wq.", out);
        wk_->collect_state(prefix + "wk.", out);
        wv_->collect_state(prefix + "wv.", out);
        wo_->collect_state(prefix + "wo.", out);
    }

    /**
     * Eval-only incremental decode forward for one stream (batch 1) —
     * the KV-cache compute discipline, carried into the quantized
     * domain.  @p x_suffix holds the block input rows for the stream's
     * newly appended positions [cache.prefix, n); the cached K/V rows
     * stand in for positions [0, cache.prefix) and only the suffix is
     * projected.  Returns the attention output rows [cache.prefix, n)
     * and advances the cache to cover all n visible positions.
     *
     * Numerics: each position's P V contraction quantizes transposed V
     * over EXACTLY that position's visible keys (causal-visibility
     * quantization) — the blocks a native MX KV cache would hold,
     * appended as tokens arrive and never re-quantized.  The
     * fixed-window forward() instead lets every key in the window
     * share quantization blocks, which couples a position's output to
     * keys it cannot attend; under that discipline no cached row is
     * ever stable.  Causal visibility makes position j's output a pure
     * function of the stream's first j+1 tokens, so incremental and
     * from-scratch decode agree bit for bit — the property
     * tests/test_serve.cpp pins warm against cold.
     *
     * Requires a causal mask and a spec whose forward format quantizes
     * rows independently (pow2 block family or FP32 — see
     * prefix_reusable()).
     */
    tensor::Tensor forward_suffix(const tensor::Tensor& x_suffix,
                                  AttnPrefixCache& cache);

    /** True when forward_suffix may reuse a prefix under the current
     *  spec: causal, and the forward activation format (if any)
     *  quantizes rows independently. */
    bool prefix_reusable() const;

    /** Freeze all four projections; the activation-activation
     *  contractions (Q K^T, P V) keep their per-call quantization.
     *  Frozen projection matmuls ride the packed-domain mx_gemm path
     *  through Linear when the routing policy engages it. */
    void freeze() override;
    void freeze(const QuantSpec& spec) override;
    void unfreeze() override;
    bool frozen() const override;

    /** Mutable access to the shared quantization policy. */
    void set_spec(const QuantSpec& spec);

  private:
    /** Per-(batch, head) cached activations for backward. */
    struct HeadCache
    {
        tensor::Tensor q, k, v; // [T, dh]
        tensor::Tensor probs;   // [T, T] post-softmax
    };

    tensor::Tensor slice_head(const tensor::Tensor& packed, std::int64_t b,
                              std::int64_t h) const;
    void scatter_head(tensor::Tensor& packed, const tensor::Tensor& head,
                      std::int64_t b, std::int64_t h) const;

    /** True when a prefix cache for this layer stores packed MX streams
     *  (causal + pow2-block forward format the packed GEMM can pair
     *  with itself).  Storage is native whenever the format permits;
     *  the active gemm kernel only picks the execution engine. */
    bool native_cache_format() const;

    /** True when this eval forward's activation-activation contractions
     *  (Q K^T, P V) run on the packed kernels: frozen layer, native
     *  format, and a SIMD gemm kernel is active (gemm::route_packed). */
    bool packed_act_act() const;

    /** The three input projections, through the quantize-once
     *  PackedOperand handoff when every projection can take it. */
    void project_qkv(const tensor::Tensor& x, tensor::Tensor& q,
                     tensor::Tensor& k, tensor::Tensor& v);

    std::int64_t d_model_, heads_, head_dim_, seq_len_;
    bool causal_;
    QuantSpec spec_;
    std::unique_ptr<Linear> wq_, wk_, wv_, wo_;
    std::vector<HeadCache> cache_;
    std::int64_t cached_batch_ = 0;
};

} // namespace nn
} // namespace mx
