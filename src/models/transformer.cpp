#include "models/transformer.h"

#include <cmath>

#include "artifact/writer.h"
#include "core/check.h"
#include "gemm/packed_gemm.h"

namespace mx {
namespace models {

using tensor::Tensor;

TransformerBlock::TransformerBlock(std::int64_t d_model, std::int64_t heads,
                                   std::int64_t seq_len, bool causal,
                                   nn::QuantSpec spec, bool bf16_vector,
                                   stats::Rng& rng)
{
    ln1_ = std::make_unique<nn::LayerNorm>(d_model, bf16_vector);
    ln2_ = std::make_unique<nn::LayerNorm>(d_model, bf16_vector);
    attn_ = std::make_unique<nn::MultiHeadAttention>(d_model, heads, seq_len,
                                                     causal, spec, rng);
    ff1_ = std::make_unique<nn::Linear>(d_model, 4 * d_model, spec, rng);
    ff2_ = std::make_unique<nn::Linear>(4 * d_model, d_model, spec, rng);
    act_ = std::make_unique<nn::ActivationLayer>(nn::Activation::GELU,
                                                 bf16_vector);
}

void
TransformerBlock::set_spec(const nn::QuantSpec& spec)
{
    attn_->set_spec(spec);
    ff1_->spec() = spec;
    ff2_->spec() = spec;
}

void
TransformerBlock::freeze()
{
    ln1_->freeze();
    ln2_->freeze();
    attn_->freeze();
    ff1_->freeze();
    ff2_->freeze();
}

void
TransformerBlock::freeze(const nn::QuantSpec& spec)
{
    set_spec(spec);
    freeze();
}

void
TransformerBlock::unfreeze()
{
    ln1_->unfreeze();
    ln2_->unfreeze();
    attn_->unfreeze();
    ff1_->unfreeze();
    ff2_->unfreeze();
}

Tensor
TransformerBlock::forward(const Tensor& x, bool train)
{
    // PackedOperand handoff boundaries: inside attention the wq/wk/wv
    // projections share one quantized view of the post-LN input (see
    // MultiHeadAttention::project_qkv).  Between the attention
    // out-projection and ff1 no handoff is possible — the residual
    // add, LayerNorm, and (for ff2) GELU rewrite every element, so the
    // downstream layer quantizes a genuinely different matrix; the
    // FP32 activation passed here is the correct (and bit-identical)
    // form.
    Tensor h = x;
    Tensor a = attn_->forward(ln1_->forward(h, train), train);
    tensor::axpy(h, 1.0f, a); // residual

    Tensor f = ff2_->forward(
        act_->forward(ff1_->forward(ln2_->forward(h, train), train), train),
        train);
    tensor::axpy(h, 1.0f, f); // residual
    return h;
}

bool
TransformerBlock::prefix_reusable() const
{
    return attn_->prefix_reusable();
}

Tensor
TransformerBlock::decode_step(const Tensor& x,
                              std::span<const nn::DecodeRows> streams)
{
    // Same op sequence as forward(x, false) restricted to the streams'
    // new positions: every non-attention op is position-wise, so
    // stacking several streams' rows cannot change any row's bits.
    Tensor h = x;
    Tensor a = attn_->decode_step(ln1_->forward(h, /*train=*/false),
                                  streams);
    tensor::axpy(h, 1.0f, a); // residual

    Tensor f = ff2_->forward(
        act_->forward(
            ff1_->forward(ln2_->forward(h, /*train=*/false),
                          /*train=*/false),
            /*train=*/false),
        /*train=*/false);
    tensor::axpy(h, 1.0f, f); // residual
    return h;
}

Tensor
TransformerBlock::backward(const Tensor& grad_out)
{
    // Second residual: dh = g + dFFN(g).
    Tensor g = grad_out;
    Tensor df = ln2_->backward(
        ff1_->backward(act_->backward(ff2_->backward(g))));
    Tensor dh = g;
    tensor::axpy(dh, 1.0f, df);

    // First residual: dx = dh + dAttn(dh).
    Tensor da = ln1_->backward(attn_->backward(dh));
    Tensor dx = dh;
    tensor::axpy(dx, 1.0f, da);
    return dx;
}

void
TransformerBlock::collect_params(std::vector<nn::Param*>& out)
{
    ln1_->collect_params(out);
    attn_->collect_params(out);
    ln2_->collect_params(out);
    ff1_->collect_params(out);
    ff2_->collect_params(out);
}

namespace {

/** Position index vector [0..T-1] repeated for each row of a batch. */
std::vector<int>
position_ids(std::int64_t n, std::int64_t seq_len)
{
    std::vector<int> ids(static_cast<std::size_t>(n * seq_len));
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t t = 0; t < seq_len; ++t)
            ids[static_cast<std::size_t>(i * seq_len + t)] =
                static_cast<int>(t);
    return ids;
}

} // namespace

BertMini::BertMini(TransformerConfig cfg, int num_classes)
    : cfg_(cfg), rng_(cfg.seed)
{
    tok_emb_ = std::make_unique<nn::Embedding>(cfg_.vocab, cfg_.d_model,
                                               rng_);
    pos_emb_ = std::make_unique<nn::Embedding>(cfg_.seq_len, cfg_.d_model,
                                               rng_);
    for (int l = 0; l < cfg_.layers; ++l)
        blocks_.push_back(std::make_unique<TransformerBlock>(
            cfg_.d_model, cfg_.heads, cfg_.seq_len, /*causal=*/false,
            cfg_.spec, cfg_.bf16_vector, rng_));
    final_ln_ = std::make_unique<nn::LayerNorm>(cfg_.d_model,
                                                cfg_.bf16_vector);
    cls_head_ = std::make_unique<nn::Linear>(cfg_.d_model, num_classes,
                                             cfg_.spec, rng_);
    qa_head_ = std::make_unique<nn::Linear>(cfg_.d_model, 2, cfg_.spec,
                                            rng_);
}

Tensor
BertMini::encode(const data::SequenceBatch& batch, bool train)
{
    MX_CHECK_ARG(batch.seq_len == cfg_.seq_len,
                 "BertMini: sequence length mismatch");
    if (train)
        cached_n_ = batch.n; // eval forwards stay mutation-free
    Tensor h = tok_emb_->forward(batch.tokens, train);
    Tensor p = pos_emb_->forward(position_ids(batch.n, cfg_.seq_len), train);
    tensor::axpy(h, 1.0f, p);
    for (auto& b : blocks_)
        h = b->forward(h, train);
    return final_ln_->forward(h, train);
}

Tensor
BertMini::encode_backward(const Tensor& grad)
{
    Tensor g = final_ln_->backward(grad);
    for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it)
        g = (*it)->backward(g);
    tok_emb_->backward(g);
    pos_emb_->backward(g);
    return g;
}

Tensor
BertMini::class_logits(const data::SequenceBatch& batch, bool train)
{
    Tensor h = encode(batch, train); // [n*T, d]
    // Pool position 0 of each sequence ([CLS]-style).
    Tensor pooled({batch.n, cfg_.d_model});
    for (std::int64_t i = 0; i < batch.n; ++i) {
        const float* src = h.data() + (i * cfg_.seq_len) * cfg_.d_model;
        std::copy(src, src + cfg_.d_model,
                  pooled.data() + i * cfg_.d_model);
    }
    if (train)
        last_head_ = 1;
    return cls_head_->forward(pooled, train);
}

void
BertMini::class_backward(const Tensor& grad)
{
    MX_CHECK_ARG(last_head_ == 1, "BertMini: class_backward head mismatch");
    Tensor dpooled = cls_head_->backward(grad);
    Tensor dh = Tensor::zeros({cached_n_ * cfg_.seq_len, cfg_.d_model});
    for (std::int64_t i = 0; i < cached_n_; ++i) {
        float* dst = dh.data() + (i * cfg_.seq_len) * cfg_.d_model;
        const float* src = dpooled.data() + i * cfg_.d_model;
        std::copy(src, src + cfg_.d_model, dst);
    }
    encode_backward(dh);
}

Tensor
BertMini::qa_logits(const data::SequenceBatch& batch, bool train)
{
    Tensor h = encode(batch, train);
    if (train)
        last_head_ = 2;
    return qa_head_->forward(h, train); // [n*T, 2]
}

void
BertMini::qa_backward(const Tensor& grad)
{
    MX_CHECK_ARG(last_head_ == 2, "BertMini: qa_backward head mismatch");
    encode_backward(qa_head_->backward(grad));
}

std::vector<std::pair<int, int>>
BertMini::predict_spans(const data::SequenceBatch& batch)
{
    Tensor logits = qa_logits(batch, /*train=*/false);
    std::vector<std::pair<int, int>> spans;
    spans.reserve(static_cast<std::size_t>(batch.n));
    for (std::int64_t i = 0; i < batch.n; ++i) {
        int best_s = 0, best_e = 0;
        float bs = -1e30f, be = -1e30f;
        for (std::int64_t t = 0; t < cfg_.seq_len; ++t) {
            float s = logits.data()[(i * cfg_.seq_len + t) * 2 + 0];
            float e = logits.data()[(i * cfg_.seq_len + t) * 2 + 1];
            if (s > bs) {
                bs = s;
                best_s = static_cast<int>(t);
            }
            if (e > be) {
                be = e;
                best_e = static_cast<int>(t);
            }
        }
        if (best_e < best_s)
            best_e = best_s;
        spans.emplace_back(best_s, best_e);
    }
    return spans;
}

std::vector<nn::Param*>
BertMini::params()
{
    std::vector<nn::Param*> ps;
    tok_emb_->collect_params(ps);
    pos_emb_->collect_params(ps);
    for (auto& b : blocks_)
        b->collect_params(ps);
    final_ln_->collect_params(ps);
    cls_head_->collect_params(ps);
    qa_head_->collect_params(ps);
    return ps;
}

std::int64_t
BertMini::param_count()
{
    std::int64_t n = 0;
    for (nn::Param* p : params())
        n += p->value.numel();
    return n;
}

void
BertMini::set_spec(const nn::QuantSpec& spec)
{
    cfg_.spec = spec;
    for (auto& b : blocks_)
        b->set_spec(spec);
    cls_head_->spec() = spec;
    qa_head_->spec() = spec;
}

void
BertMini::freeze()
{
    tok_emb_->freeze();
    pos_emb_->freeze();
    for (auto& b : blocks_)
        b->freeze();
    final_ln_->freeze();
    cls_head_->freeze();
    qa_head_->freeze();
}

void
BertMini::freeze(const nn::QuantSpec& spec)
{
    set_spec(spec);
    freeze();
}

void
BertMini::unfreeze()
{
    tok_emb_->unfreeze();
    pos_emb_->unfreeze();
    for (auto& b : blocks_)
        b->unfreeze();
    final_ln_->unfreeze();
    cls_head_->unfreeze();
    qa_head_->unfreeze();
}

bool
BertMini::frozen() const
{
    return cls_head_->frozen();
}

GptMini::GptMini(TransformerConfig cfg) : cfg_(cfg), rng_(cfg.seed)
{
    tok_emb_ = std::make_unique<nn::Embedding>(cfg_.vocab, cfg_.d_model,
                                               rng_);
    pos_emb_ = std::make_unique<nn::Embedding>(cfg_.seq_len, cfg_.d_model,
                                               rng_);
    for (int l = 0; l < cfg_.layers; ++l)
        blocks_.push_back(std::make_unique<TransformerBlock>(
            cfg_.d_model, cfg_.heads, cfg_.seq_len, /*causal=*/true,
            cfg_.spec, cfg_.bf16_vector, rng_));
    final_ln_ = std::make_unique<nn::LayerNorm>(cfg_.d_model,
                                                cfg_.bf16_vector);
    lm_head_ = std::make_unique<nn::Linear>(cfg_.d_model, cfg_.vocab,
                                            cfg_.spec, rng_, false);
}

Tensor
GptMini::encode(const data::SequenceBatch& batch, bool train)
{
    MX_CHECK_ARG(batch.seq_len == cfg_.seq_len,
                 "GptMini: sequence length mismatch");
    if (train)
        cached_n_ = batch.n; // eval forwards stay mutation-free
    Tensor h = tok_emb_->forward(batch.tokens, train);
    Tensor p = pos_emb_->forward(position_ids(batch.n, cfg_.seq_len), train);
    tensor::axpy(h, 1.0f, p);
    for (auto& b : blocks_)
        h = b->forward(h, train);
    return final_ln_->forward(h, train);
}

Tensor
GptMini::logits(const data::SequenceBatch& batch, bool train)
{
    return lm_head_->forward(encode(batch, train), train);
}

Tensor
GptMini::window_logits(const Tensor& windows)
{
    MX_CHECK_ARG(windows.ndim() == 2 && windows.dim(1) == cfg_.seq_len,
                 "GptMini: windows " << windows.shape_string()
                                     << " expects [*, " << cfg_.seq_len
                                     << "]");
    data::SequenceBatch b;
    b.n = windows.dim(0);
    b.seq_len = cfg_.seq_len;
    b.tokens.resize(static_cast<std::size_t>(b.n * b.seq_len));
    for (std::size_t i = 0; i < b.tokens.size(); ++i)
        b.tokens[i] = static_cast<int>(windows.data()[i]);
    // Only the last position feeds a next-token decision, so slice it
    // out *before* the LM head: quantize_rows and Linear's eval
    // forward are row-wise, so projecting the kept rows alone is
    // bit-identical to projecting all n*T positions.
    Tensor h = encode(b, /*train=*/false); // [n*T, d_model]
    Tensor last({b.n, static_cast<std::int64_t>(cfg_.d_model)});
    for (std::int64_t r = 0; r < b.n; ++r)
        std::copy(h.data() + ((r + 1) * cfg_.seq_len - 1) * cfg_.d_model,
                  h.data() + (r + 1) * cfg_.seq_len * cfg_.d_model,
                  last.data() + r * cfg_.d_model);
    return lm_head_->forward(last, /*train=*/false); // [n, vocab]
}

std::vector<float>
GptMini::pack_decode_row(const std::vector<int>& tokens,
                         std::int64_t seq_len)
{
    MX_CHECK_ARG(!tokens.empty() &&
                 static_cast<std::int64_t>(tokens.size()) <= seq_len,
                 "GptMini: decode context of " << tokens.size()
                     << " tokens does not fit a " << seq_len
                     << "-position window");
    std::vector<float> row(static_cast<std::size_t>(seq_len), -1.0f);
    for (std::size_t i = 0; i < tokens.size(); ++i)
        row[i] = static_cast<float>(tokens[i]);
    return row;
}

std::vector<int>
GptMini::unpack_decode_row(const float* row, std::int64_t seq_len,
                           std::int64_t vocab)
{
    std::vector<int> tokens;
    tokens.reserve(static_cast<std::size_t>(seq_len));
    std::int64_t i = 0;
    for (; i < seq_len && row[i] != -1.0f; ++i) {
        const float v = row[i];
        MX_CHECK_ARG(v >= 0.0f && v < static_cast<float>(vocab) &&
                     v == std::floor(v),
                     "GptMini: decode row position " << i << " holds " << v
                         << ", not a token id in [0, " << vocab << ")");
        tokens.push_back(static_cast<int>(v));
    }
    MX_CHECK_ARG(!tokens.empty(), "GptMini: decode row holds no tokens");
    for (; i < seq_len; ++i)
        MX_CHECK_ARG(row[i] == -1.0f,
                     "GptMini: decode row position " << i << " holds "
                         << row[i] << " after the -1 padding began");
    return tokens;
}

std::size_t
decode_session_bytes(const GptDecodeSession& session)
{
    std::size_t total = session.tokens.size() * sizeof(int);
    for (const nn::AttnPrefixCache& c : session.layers)
        total += c.memory_bytes();
    return total;
}

Tensor
GptMini::decode_logits(const std::vector<int>& tokens,
                       GptDecodeSession* session)
{
    return decode_step({tokens}, {session});
}

Tensor
GptMini::decode_step(const std::vector<std::vector<int>>& contexts,
                     const std::vector<GptDecodeSession*>& sessions)
{
    const std::size_t B = contexts.size();
    const std::int64_t T = cfg_.seq_len;
    const std::int64_t d = cfg_.d_model;
    MX_CHECK_ARG(B >= 1 && sessions.size() == B,
                 "GptMini: decode_step needs one session slot per "
                 "context (" << B << " contexts, " << sessions.size()
                             << " sessions)");
    for (std::size_t i = 0; i < B; ++i) {
        const std::int64_t n =
            static_cast<std::int64_t>(contexts[i].size());
        MX_CHECK_ARG(n >= 1 && n <= T,
                     "GptMini: decode context of " << n
                         << " tokens does not fit a " << T
                         << "-position window");
        for (int t : contexts[i])
            MX_CHECK_ARG(t >= 0 && t < cfg_.vocab,
                         "GptMini: token " << t << " outside the "
                                           << cfg_.vocab << "-word vocab");
        for (std::size_t j = 0; j < i; ++j)
            MX_CHECK_ARG(sessions[i] == nullptr || sessions[i] != sessions[j],
                         "GptMini: one session passed for contexts "
                             << j << " and " << i);
    }

    // Prefix reuse and stream fusion both need activation quantization
    // that treats rows independently.
    const bool rows_independent =
        !blocks_.empty() && blocks_.front()->prefix_reusable();

    // Per stream: the reusable prefix p (the longest shared token
    // prefix with the session, capped so at least the newest token's
    // row recomputes) and the layer caches the step advances.
    std::vector<std::int64_t> prefix(B, 0);
    std::vector<std::vector<nn::AttnPrefixCache>> scratch(B);
    std::vector<std::vector<nn::AttnPrefixCache>*> caches(B);
    for (std::size_t i = 0; i < B; ++i) {
        GptDecodeSession* session = rows_independent ? sessions[i] : nullptr;
        if (session == nullptr) {
            // Scratch caches: same code path with p = 0 and nothing
            // kept — the bit-identical fallback (each position is a
            // pure function of its visible tokens, so computing the
            // stream from scratch reproduces the incremental bits).
            scratch[i].resize(blocks_.size());
            caches[i] = &scratch[i];
            continue;
        }
        const std::vector<int>& tokens = contexts[i];
        const std::int64_t n = static_cast<std::int64_t>(tokens.size());
        if (session->layers.empty()) {
            session->layers.resize(blocks_.size());
        } else {
            MX_CHECK_ARG(session->layers.size() == blocks_.size(),
                         "GptMini: session was built for a "
                             << session->layers.size()
                             << "-layer model, this one has "
                             << blocks_.size());
            const std::int64_t cached =
                static_cast<std::int64_t>(session->tokens.size());
            std::int64_t p = 0;
            while (p < std::min(cached, n - 1) &&
                   session->tokens[static_cast<std::size_t>(p)] ==
                       tokens[static_cast<std::size_t>(p)])
                ++p;
            // A diverged stream keeps its still-valid prefix: under
            // causal-visibility quantization, K/V row j depends only on
            // tokens [0, j], so rows [0, p) survive.  A native MX cache
            // may retain fewer (it retreats to a V-slab boundary when
            // the cut falls inside a committed block), so clamp p to
            // what every layer actually kept.
            for (nn::AttnPrefixCache& c : session->layers)
                p = std::min(p, c.truncate(p));
            prefix[i] = p;
        }
        caches[i] = &session->layers;
    }

    Tensor out({static_cast<std::int64_t>(B),
                static_cast<std::int64_t>(cfg_.vocab)});
    std::vector<int> ids, positions;
    std::vector<nn::DecodeRows> rows;
    for (std::size_t g0 = 0; g0 < B;) {
        // Fuse consecutive streams while their new rows fit one A tile.
        std::size_t g1 = g0 + 1;
        std::int64_t total =
            static_cast<std::int64_t>(contexts[g0].size()) - prefix[g0];
        while (rows_independent && g1 < B) {
            const std::int64_t s =
                static_cast<std::int64_t>(contexts[g1].size()) - prefix[g1];
            if (total + s > static_cast<std::int64_t>(gemm::kTileRowsA))
                break;
            total += s;
            ++g1;
        }

        // Block-0 input rows: token + position embeddings of every
        // stream's newly appended positions, stacked in stream order.
        ids.clear();
        positions.clear();
        rows.clear();
        for (std::size_t i = g0; i < g1; ++i) {
            const std::int64_t n =
                static_cast<std::int64_t>(contexts[i].size());
            rows.push_back({nullptr, static_cast<std::int64_t>(ids.size()),
                            n - prefix[i]});
            for (std::int64_t t = prefix[i]; t < n; ++t) {
                ids.push_back(contexts[i][static_cast<std::size_t>(t)]);
                positions.push_back(static_cast<int>(t));
            }
        }
        Tensor h = tok_emb_->forward(ids, /*train=*/false);
        tensor::axpy(h, 1.0f, pos_emb_->forward(positions, /*train=*/false));
        for (std::size_t l = 0; l < blocks_.size(); ++l) {
            for (std::size_t i = g0; i < g1; ++i)
                rows[i - g0].cache = &(*caches[i])[l];
            h = blocks_[l]->decode_step(h, rows);
        }

        // Only each stream's last position feeds its next-token
        // decision; final LN and the LM head are row-wise, so
        // projecting the kept rows alone is bit-identical to
        // projecting every position.
        Tensor last({static_cast<std::int64_t>(g1 - g0), d});
        for (std::size_t i = g0; i < g1; ++i) {
            const nn::DecodeRows& r = rows[i - g0];
            std::copy(h.data() + (r.row0 + r.rows - 1) * d,
                      h.data() + (r.row0 + r.rows) * d,
                      last.data() + static_cast<std::int64_t>(i - g0) * d);
        }
        const Tensor logits = lm_head_->forward(
            final_ln_->forward(last, /*train=*/false), /*train=*/false);
        std::copy(logits.data(), logits.data() + logits.numel(),
                  out.data() + static_cast<std::int64_t>(g0) * cfg_.vocab);
        g0 = g1;
    }

    for (std::size_t i = 0; i < B; ++i)
        if (rows_independent && sessions[i] != nullptr)
            sessions[i]->tokens = contexts[i];
    return out;
}

void
GptMini::backward(const Tensor& grad)
{
    Tensor g = final_ln_->backward(lm_head_->backward(grad));
    for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it)
        g = (*it)->backward(g);
    tok_emb_->backward(g);
    pos_emb_->backward(g);
}

double
GptMini::eval_loss(const data::SequenceBatch& batch)
{
    Tensor l = logits(batch, /*train=*/false);
    return nn::softmax_cross_entropy(l, batch.labels).loss;
}

double
GptMini::train_loss(const data::SequenceBatch& batch)
{
    Tensor l = logits(batch, /*train=*/true);
    nn::LossResult res = nn::softmax_cross_entropy(l, batch.labels);
    backward(res.grad);
    return res.loss;
}

std::vector<nn::Param*>
GptMini::params()
{
    std::vector<nn::Param*> ps;
    tok_emb_->collect_params(ps);
    pos_emb_->collect_params(ps);
    for (auto& b : blocks_)
        b->collect_params(ps);
    final_ln_->collect_params(ps);
    lm_head_->collect_params(ps);
    return ps;
}

std::int64_t
GptMini::param_count()
{
    std::int64_t n = 0;
    for (nn::Param* p : params())
        n += p->value.numel();
    return n;
}

void
GptMini::set_spec(const nn::QuantSpec& spec)
{
    cfg_.spec = spec;
    for (auto& b : blocks_)
        b->set_spec(spec);
    lm_head_->spec() = spec;
}

void
GptMini::freeze()
{
    tok_emb_->freeze();
    pos_emb_->freeze();
    for (auto& b : blocks_)
        b->freeze();
    final_ln_->freeze();
    lm_head_->freeze();
}

void
GptMini::freeze(const nn::QuantSpec& spec)
{
    set_spec(spec);
    freeze();
}

void
GptMini::unfreeze()
{
    tok_emb_->unfreeze();
    pos_emb_->unfreeze();
    for (auto& b : blocks_)
        b->unfreeze();
    final_ln_->unfreeze();
    lm_head_->unfreeze();
}

bool
GptMini::frozen() const
{
    return lm_head_->frozen();
}

namespace {

/** TransformerConfig <-> config-blob serialization shared by the BERT
 *  and GPT artifacts. */
void
write_transformer_config(artifact::ByteWriter& w,
                         const TransformerConfig& cfg)
{
    w.u32(static_cast<std::uint32_t>(cfg.vocab));
    w.u32(static_cast<std::uint32_t>(cfg.d_model));
    w.u32(static_cast<std::uint32_t>(cfg.heads));
    w.u32(static_cast<std::uint32_t>(cfg.layers));
    w.u32(static_cast<std::uint32_t>(cfg.seq_len));
    w.spec(cfg.spec);
    w.u8(cfg.bf16_vector ? 1 : 0);
    w.u64(cfg.seed);
}

TransformerConfig
read_transformer_config(artifact::ByteReader& r)
{
    TransformerConfig cfg;
    cfg.vocab = static_cast<int>(r.u32());
    cfg.d_model = static_cast<int>(r.u32());
    cfg.heads = static_cast<int>(r.u32());
    cfg.layers = static_cast<int>(r.u32());
    cfg.seq_len = static_cast<int>(r.u32());
    cfg.spec = r.spec();
    cfg.bf16_vector = r.u8() != 0;
    cfg.seed = r.u64();
    return cfg;
}

void
check_family(const artifact::ArtifactReader& reader,
             artifact::ModelFamily expect, const char* what)
{
    if (reader.family() != expect)
        throw artifact::SchemaError(
            "artifact: not a " + std::string(what) +
            " artifact (family tag " +
            std::to_string(static_cast<std::uint32_t>(reader.family())) +
            ")");
}

} // namespace

void
BertMini::collect_state(const std::string& prefix,
                        std::vector<nn::FrozenStateRef>& out)
{
    tok_emb_->collect_state(prefix + "tok_emb.", out);
    pos_emb_->collect_state(prefix + "pos_emb.", out);
    for (std::size_t i = 0; i < blocks_.size(); ++i)
        blocks_[i]->collect_state(
            prefix + "block" + std::to_string(i) + ".", out);
    final_ln_->collect_state(prefix + "final_ln.", out);
    cls_head_->collect_state(prefix + "cls_head.", out);
    qa_head_->collect_state(prefix + "qa_head.", out);
}

void
BertMini::save_frozen(const std::string& path)
{
    MX_CHECK_ARG(frozen(), "BertMini: save_frozen() needs freeze()");
    artifact::ByteWriter cfg;
    write_transformer_config(cfg, cfg_);
    cfg.u32(static_cast<std::uint32_t>(cls_head_->out_features()));
    artifact::ArtifactWriter w(artifact::ModelFamily::Bert, cfg.take());
    std::vector<nn::FrozenStateRef> refs;
    collect_state("", refs);
    w.add_all(refs);
    w.write(path);
}

BertMini
BertMini::load_frozen(const artifact::ArtifactReader& reader)
{
    check_family(reader, artifact::ModelFamily::Bert, "BERT");
    artifact::ByteReader r = reader.config();
    const TransformerConfig cfg = read_transformer_config(r);
    const int num_classes = static_cast<int>(r.u32());
    BertMini m(cfg, num_classes);
    std::vector<nn::FrozenStateRef> refs;
    m.collect_state("", refs);
    reader.load_into(refs);
    return m;
}

BertMini
BertMini::load_frozen(const std::string& path)
{
    return load_frozen(artifact::ArtifactReader(path));
}

void
GptMini::collect_state(const std::string& prefix,
                       std::vector<nn::FrozenStateRef>& out)
{
    tok_emb_->collect_state(prefix + "tok_emb.", out);
    pos_emb_->collect_state(prefix + "pos_emb.", out);
    for (std::size_t i = 0; i < blocks_.size(); ++i)
        blocks_[i]->collect_state(
            prefix + "block" + std::to_string(i) + ".", out);
    final_ln_->collect_state(prefix + "final_ln.", out);
    lm_head_->collect_state(prefix + "lm_head.", out);
}

void
GptMini::save_frozen(const std::string& path)
{
    MX_CHECK_ARG(frozen(), "GptMini: save_frozen() needs freeze()");
    artifact::ByteWriter cfg;
    write_transformer_config(cfg, cfg_);
    artifact::ArtifactWriter w(artifact::ModelFamily::Gpt, cfg.take());
    std::vector<nn::FrozenStateRef> refs;
    collect_state("", refs);
    w.add_all(refs);
    w.write(path);
}

GptMini
GptMini::load_frozen(const artifact::ArtifactReader& reader)
{
    check_family(reader, artifact::ModelFamily::Gpt, "GPT");
    artifact::ByteReader r = reader.config();
    GptMini m(read_transformer_config(r));
    std::vector<nn::FrozenStateRef> refs;
    m.collect_state("", refs);
    reader.load_into(refs);
    return m;
}

GptMini
GptMini::load_frozen(const std::string& path)
{
    return load_frozen(artifact::ArtifactReader(path));
}

} // namespace models
} // namespace mx
