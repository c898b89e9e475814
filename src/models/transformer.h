#pragma once

/**
 * @file
 * Transformer miniatures: a pre-LN block, an encoder-only model with
 * classification and QA heads (BERT stand-ins, Tables III/V), and a
 * decoder-only LM (GPT stand-in, Tables IV/VII, Figure 9).
 */

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "artifact/reader.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/layernorm.h"
#include "nn/linear.h"
#include "nn/losses.h"

namespace mx {
namespace models {

/** Pre-LN transformer block: x + Attn(LN(x)), then x + FFN(LN(x)). */
class TransformerBlock : public nn::Layer
{
  public:
    TransformerBlock(std::int64_t d_model, std::int64_t heads,
                     std::int64_t seq_len, bool causal, nn::QuantSpec spec,
                     bool bf16_vector, stats::Rng& rng);

    tensor::Tensor forward(const tensor::Tensor& x, bool train) override;
    tensor::Tensor backward(const tensor::Tensor& grad_out) override;
    void collect_params(std::vector<nn::Param*>& out) override;

    void
    collect_state(const std::string& prefix,
                  std::vector<nn::FrozenStateRef>& out) override
    {
        ln1_->collect_state(prefix + "ln1.", out);
        ln2_->collect_state(prefix + "ln2.", out);
        attn_->collect_state(prefix + "attn.", out);
        ff1_->collect_state(prefix + "ff1.", out);
        ff2_->collect_state(prefix + "ff2.", out);
    }

    void freeze() override;
    void freeze(const nn::QuantSpec& spec) override;
    void unfreeze() override;
    bool frozen() const override { return ff1_->frozen(); }

    /** Re-point every contraction at a new quantization policy. */
    void set_spec(const nn::QuantSpec& spec);

    /**
     * Eval-only fused decode step over several streams: @p x stacks
     * the block input rows of every stream's newly appended positions
     * (stream i owns rows [row0, row0 + rows) and its layer cache);
     * returns the same rows' block outputs and advances every cache
     * past them.  LayerNorm, the FFN, the activation and the residuals
     * are all position-wise and run once over the stacked rows; only
     * attention works per (stream, head) — see
     * nn::MultiHeadAttention::decode_step for the phases and the
     * numerics contract.
     */
    tensor::Tensor decode_step(const tensor::Tensor& x,
                               std::span<const nn::DecodeRows> streams);

    /** True when decode_step may reuse a prefix or fuse streams
     *  (causal attention + row-independent activation format). */
    bool prefix_reusable() const;

  private:
    std::unique_ptr<nn::LayerNorm> ln1_, ln2_;
    std::unique_ptr<nn::MultiHeadAttention> attn_;
    std::unique_ptr<nn::Linear> ff1_, ff2_;
    std::unique_ptr<nn::ActivationLayer> act_;
};

/** Shared sizing/precision knobs for the transformer miniatures. */
struct TransformerConfig
{
    int vocab = 64;
    int d_model = 64;
    int heads = 4;
    int layers = 2;
    int seq_len = 16;
    nn::QuantSpec spec;        ///< contraction quantization policy
    bool bf16_vector = true;   ///< BF16-round element-wise ops (Fig 8)
    std::uint64_t seed = 7;
};

/** Encoder-only model with a [CLS]-style classification head and a
 *  span-extraction QA head (both heads always exist; use either). */
class BertMini
{
  public:
    /** @param num_classes classification head width */
    BertMini(TransformerConfig cfg, int num_classes);

    /** Per-sequence class logits [n, num_classes]. */
    tensor::Tensor class_logits(const data::SequenceBatch& batch,
                                bool train);
    /** Backward from class-logit gradients. */
    void class_backward(const tensor::Tensor& grad);

    /** QA span logits: [n*T, 2] (column 0 start, column 1 end). */
    tensor::Tensor qa_logits(const data::SequenceBatch& batch, bool train);
    /** Backward from QA-logit gradients. */
    void qa_backward(const tensor::Tensor& grad);

    /** Greedy span predictions from QA logits. */
    std::vector<std::pair<int, int>>
    predict_spans(const data::SequenceBatch& batch);

    /** All trainable parameters. */
    std::vector<nn::Param*> params();
    /** Total parameter count. */
    std::int64_t param_count();
    /** Swap the quantization policy on every contraction. */
    void set_spec(const nn::QuantSpec& spec);
    /** Freeze every block/head under its current spec. */
    void freeze();
    /** set_spec() then freeze() (direct-cast serving). */
    void freeze(const nn::QuantSpec& spec);
    void unfreeze();
    bool frozen() const;
    /** The configuration. */
    const TransformerConfig& config() const { return cfg_; }

    /** Serializable state slots in artifact order. */
    void collect_state(const std::string& prefix,
                       std::vector<nn::FrozenStateRef>& out);

    /** Write the frozen model as an MXFROZEN artifact. */
    void save_frozen(const std::string& path);

    /** Rebuild a serve-ready model from an opened artifact. */
    static BertMini load_frozen(const artifact::ArtifactReader& reader);

    /** Open @p path and load. */
    static BertMini load_frozen(const std::string& path);

  private:
    tensor::Tensor encode(const data::SequenceBatch& batch, bool train);
    tensor::Tensor encode_backward(const tensor::Tensor& grad);

    TransformerConfig cfg_;
    stats::Rng rng_;
    std::unique_ptr<nn::Embedding> tok_emb_, pos_emb_;
    std::vector<std::unique_ptr<TransformerBlock>> blocks_;
    std::unique_ptr<nn::LayerNorm> final_ln_;
    std::unique_ptr<nn::Linear> cls_head_; // [d_model -> classes]
    std::unique_ptr<nn::Linear> qa_head_;  // [d_model -> 2]
    std::int64_t cached_n_ = 0;
    int last_head_ = 0; // 1 = cls, 2 = qa
};

/**
 * One decode stream's prefix-reuse state: the token prefix whose
 * per-layer K/V projections are cached (serve/session_cache.h owns the
 * per-stream LRU lifecycle; GptMini::decode_step consumes and
 * advances it).
 */
struct GptDecodeSession
{
    std::vector<int> tokens; ///< Prefix covered by the layer caches.
    std::vector<nn::AttnPrefixCache> layers; ///< One per block.
};

/** Heap bytes a decode session pins while resident (token prefix plus
 *  every layer's K/V state — packed MX streams in native mode, FP32
 *  rows in legacy mode); serve::SessionCache accounts this per
 *  session. */
std::size_t decode_session_bytes(const GptDecodeSession& session);

/** Decoder-only causal LM. */
class GptMini
{
  public:
    explicit GptMini(TransformerConfig cfg);

    /** Next-token logits [n*T, vocab]. */
    tensor::Tensor logits(const data::SequenceBatch& batch, bool train);
    /** Backward from logit gradients. */
    void backward(const tensor::Tensor& grad);

    /**
     * Serving adapter: each request row is one token window encoded as
     * floats ([B, seq_len]); returns the last position's next-token
     * logits [B, vocab] from an eval-mode forward.  This is the batch
     * function handed to serve::InferenceEngine for decode serving;
     * once frozen, its weight matmuls (projections + FFNs) run in the
     * packed domain via mx_gemm on every kernel.
     */
    tensor::Tensor window_logits(const tensor::Tensor& windows);

    /**
     * One fused decode step over a batch of streams: @p contexts[i] is
     * stream i's context (1..seq_len tokens in [0, vocab)); returns
     * the [B, vocab] next-token logits at each context's last
     * position.
     *
     * With a session (@p sessions[i] non-null) the per-layer K/V rows
     * of the longest shared token prefix are reused and only the newly
     * appended positions recompute — the per-token decode win — and
     * the session advances to cover the context.  With a null session
     * (or an empty/diverged one, or a spec whose activations do not
     * quantize rows independently) every position recomputes.  Both
     * paths are bit-identical: attention runs under causal-visibility
     * quantization (each position's P V contraction spans exactly its
     * visible keys — nn::MultiHeadAttention::decode_step), which makes
     * position j's output a pure function of tokens [0, j].
     *
     * Fusion: consecutive streams share one pass while their summed
     * new rows fit one packed-GEMM A tile (gemm::kTileRowsA), so every
     * weight GEMM — QKV, wo, the FFN, then the LM head on the streams'
     * last rows — runs once per group at M = the group's rows and
     * reuses each decoded weight panel across them; past one tile no
     * panel is shared and only the temporaries would grow.  Attention
     * fans out over the group's (stream, head) pairs on the shared
     * pool.  Fusion cannot change a bit: every op outside attention is
     * row-wise, and each GEMM output element is computed wholly inside
     * one tile.  Specs whose activations couple rows (per-tensor
     * scales) run every stream alone.
     *
     * Sessions must be distinct.  If the step throws, the sessions
     * passed in may be partially advanced: drop them.
     *
     * Note this deliberately differs from window_logits' numerics:
     * the fixed-window forward lets all seq_len keys share V
     * quantization blocks, coupling each position's output to keys it
     * cannot attend — which is also why no cache could ever be exact
     * there.  decode_step is the serving path whose numerics an MX KV
     * cache reproduces natively.
     */
    tensor::Tensor decode_step(const std::vector<std::vector<int>>& contexts,
                               const std::vector<GptDecodeSession*>& sessions);

    /** One stream's decode_step: the [1, vocab] next-token logits of
     *  @p tokens, reusing and advancing @p session when given. */
    tensor::Tensor decode_logits(const std::vector<int>& tokens,
                                 GptDecodeSession* session = nullptr);

    /** Encode a decode context as a serve request row: tokens, then
     *  -1 padding up to seq_len (serve rows have fixed width). */
    static std::vector<float>
    pack_decode_row(const std::vector<int>& tokens, std::int64_t seq_len);

    /**
     * Inverse of pack_decode_row, validating: throws ArgumentError
     * unless the row is 1..seq_len integer tokens in [0, @p vocab)
     * followed only by -1 padding (a fractional value, an id out of
     * range, or a token after the first -1 is a malformed request, not
     * something to round or truncate).
     */
    static std::vector<int> unpack_decode_row(const float* row,
                                              std::int64_t seq_len,
                                              std::int64_t vocab);

    /** Mean LM loss (natural log) of a batch, no caching. */
    double eval_loss(const data::SequenceBatch& batch);

    /** One training step's loss + gradient accumulation (caller steps
     *  the optimizer). */
    double train_loss(const data::SequenceBatch& batch);

    std::vector<nn::Param*> params();
    std::int64_t param_count();
    void set_spec(const nn::QuantSpec& spec);
    /** Freeze every block and the LM head under the current spec. */
    void freeze();
    /** set_spec() then freeze() (direct-cast serving). */
    void freeze(const nn::QuantSpec& spec);
    void unfreeze();
    bool frozen() const;
    const TransformerConfig& config() const { return cfg_; }

    /** Serializable state slots in artifact order. */
    void collect_state(const std::string& prefix,
                       std::vector<nn::FrozenStateRef>& out);

    /** Write the frozen model as an MXFROZEN artifact. */
    void save_frozen(const std::string& path);

    /** Rebuild a serve-ready model from an opened artifact: every
     *  FrozenTensor handle views the reader's single mapping, so N
     *  models loaded from one reader share it. */
    static GptMini load_frozen(const artifact::ArtifactReader& reader);

    /** Open @p path and load. */
    static GptMini load_frozen(const std::string& path);

  private:
    tensor::Tensor encode(const data::SequenceBatch& batch, bool train);

    TransformerConfig cfg_;
    stats::Rng rng_;
    std::unique_ptr<nn::Embedding> tok_emb_, pos_emb_;
    std::vector<std::unique_ptr<TransformerBlock>> blocks_;
    std::unique_ptr<nn::LayerNorm> final_ln_;
    std::unique_ptr<nn::Linear> lm_head_;
    std::int64_t cached_n_ = 0;
};

} // namespace models
} // namespace mx
