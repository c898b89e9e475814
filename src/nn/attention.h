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
#include <span>
#include <vector>

#include "gemm/packed_operand.h"
#include "nn/linear.h"

namespace mx {
namespace nn {

/**
 * Cached K/V state for the visible prefix of one decode stream — the
 * state MultiHeadAttention::decode_step reuses instead of
 * recomputing every position each step (serve/session_cache.h owns the
 * per-stream lifecycle).
 *
 * Two storage modes:
 *
 *  - Native MX (`native == true`, engaged for a frozen layer whose
 *    forward activation format is a pow2-block family the packed GEMM
 *    can execute): the prefix is held as packed MX bit streams — the exact
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
 *    post-projection activations, re-quantized on use (unfrozen
 *    layers, FP32 specs and formats outside the packed family).
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
    /// Its capacity stays at k1 + 1 rows across warm s = 1 steps, so
    /// they append without reallocating (a longer step's extra room
    /// is released after it); memory_bytes() counts the rows held.
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

/** One stream's share of a fused decode step (see
 *  MultiHeadAttention::decode_step): rows [row0, row0 + rows) of the
 *  step's stacked matrices are the stream's newly appended positions,
 *  and @p cache holds its visible prefix. */
struct DecodeRows
{
    AttnPrefixCache* cache = nullptr;
    std::int64_t row0 = 0;
    std::int64_t rows = 0;
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
     * Eval-only fused decode step — the KV-cache compute discipline,
     * carried into the quantized domain and batched across streams.
     * @p x stacks the block input rows (post-LN) of every stream's newly
     * appended positions; @p streams says which rows are whose: stream
     * i owns rows [row0, row0 + rows) and its cache stands in for the
     * visible prefix [0, cache->prefix).  Returns the attention output
     * rows (after wo) in the same order and advances every cache to
     * cover its new positions.
     *
     * Three phases: the wq/wk/wv projections run once over all rows
     * (one quantized view of @p x feeds all three); each (stream, head)
     * pair then runs its attention — K append, V-slab commit, Q K^T,
     * softmax, per-position P V — as one task of a single
     * core::ThreadPool::shared() parallel_for (the tasks' own small
     * GEMMs run inline on their lane: nested parallel_for calls do);
     * wo runs once over all rows.  Rows never couple: every projection
     * is row-wise under a row-independent activation format, and each
     * task touches only its stream's cache and its own output slots,
     * so the result is bit-identical to running the streams one at a
     * time, on any lane count.
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
     * Requires a causal mask and distinct caches.  Reusing a cached
     * prefix, or fusing more than one stream, requires a spec whose
     * forward format quantizes rows independently (pow2 block family
     * or FP32 — see prefix_reusable()).
     */
    tensor::Tensor decode_step(const tensor::Tensor& x,
                               std::span<const DecodeRows> streams);

    /** True when decode_step may reuse a prefix (or fuse streams)
     *  under the current spec: causal, and the forward activation
     *  format (if any) quantizes rows independently. */
    bool prefix_reusable() const;

    /** Freeze all four projections; the activation-activation
     *  contractions (Q K^T, P V) keep their per-call quantization.
     *  Frozen projection matmuls ride the packed-domain mx_gemm path
     *  through Linear whenever the weight pairs with the activation
     *  format. */
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

    /** True when a prefix cache for this layer stores packed MX streams:
     *  causal, and packed_act_act().  An unfrozen layer's decode keeps
     *  FP32 rows and re-quantizes them on use, as fake quantization
     *  does everywhere else. */
    bool native_cache_format() const;

    /** True when this eval forward's activation-activation contractions
     *  (Q K^T, P V) run on the packed kernels: a frozen layer whose
     *  forward format is a pow2-block format that pairs with itself,
     *  whatever kernel is active. */
    bool packed_act_act() const;

    /** The three input projections, through the quantize-once
     *  PackedOperand handoff when every projection can take it. */
    void project_qkv(const tensor::Tensor& x, tensor::Tensor& q,
                     tensor::Tensor& k, tensor::Tensor& v);

    /** One stream's bookkeeping for a decode step, fixed on the caller
     *  before the fan-out; the (stream, head) tasks only read it. */
    struct StepStream
    {
        AttnPrefixCache* cache = nullptr;
        std::int64_t row0 = 0;      ///< First row in the stacked matrices.
        std::int64_t p = 0;         ///< Cached keys before the step.
        std::int64_t s = 0;         ///< Keys the step appends.
        std::int64_t slabs_old = 0; ///< Native: V slabs before the step.
    };

    /** Caller-side half of a stream's cache advance: pick or check the
     *  storage mode, then append the new keys' V rows and size every
     *  buffer the tasks write (K streams, new V slabs), so no task
     *  grows a shared container. */
    StepStream begin_step(const DecodeRows& rows, const tensor::Tensor& k,
                          const tensor::Tensor& v);

    /** One (stream, head) task over native packed storage: pack the
     *  head's new K rows and its rows of every V slab the step
     *  completes, then Q K^T, softmax and per-position P V into
     *  @p concat's rows of this stream and columns of this head. */
    void attend_native(const StepStream& st, std::int64_t h,
                       const tensor::Tensor& q, const tensor::Tensor& k,
                       tensor::Tensor& concat) const;

    /** The same task over legacy FP32 rows (re-quantized on use). */
    void attend_fp32(const StepStream& st, std::int64_t h,
                     const tensor::Tensor& q, tensor::Tensor& concat) const;

    std::int64_t d_model_, heads_, head_dim_, seq_len_;
    bool causal_;
    QuantSpec spec_;
    std::unique_ptr<Linear> wq_, wk_, wv_, wo_;
    std::vector<HeadCache> cache_;
    std::int64_t cached_batch_ = 0;
};

} // namespace nn
} // namespace mx
