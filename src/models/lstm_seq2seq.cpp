#include "models/lstm_seq2seq.h"

#include "artifact/writer.h"
#include "core/check.h"
#include "stats/metrics.h"

namespace mx {
namespace models {

using tensor::Tensor;

namespace {

/** Teacher-forcing input: target shifted right, position 0 = BOS (0). */
std::vector<int>
shift_right(const std::vector<int>& labels, std::int64_t n,
            std::int64_t seq_len)
{
    std::vector<int> in(labels.size());
    for (std::int64_t i = 0; i < n; ++i) {
        in[static_cast<std::size_t>(i * seq_len)] = 0;
        for (std::int64_t t = 1; t < seq_len; ++t)
            in[static_cast<std::size_t>(i * seq_len + t)] =
                labels[static_cast<std::size_t>(i * seq_len + t - 1)];
    }
    return in;
}

} // namespace

LstmSeq2Seq::LstmSeq2Seq(Seq2SeqConfig cfg) : cfg_(cfg), rng_(cfg.seed)
{
    src_emb_ = std::make_unique<nn::Embedding>(cfg_.vocab, cfg_.embed_dim,
                                               rng_);
    tgt_emb_ = std::make_unique<nn::Embedding>(cfg_.vocab, cfg_.embed_dim,
                                               rng_);
    encoder_ = std::make_unique<nn::Lstm>(cfg_.embed_dim, cfg_.hidden_dim,
                                          cfg_.seq_len, cfg_.spec, rng_);
    decoder_ = std::make_unique<nn::Lstm>(cfg_.embed_dim, cfg_.hidden_dim,
                                          cfg_.seq_len, cfg_.spec, rng_);
    proj_ = std::make_unique<nn::Linear>(cfg_.hidden_dim, cfg_.vocab,
                                         cfg_.spec, rng_);
}

Tensor
LstmSeq2Seq::forward(const data::SequenceBatch& batch, bool train)
{
    MX_CHECK_ARG(batch.seq_len == cfg_.seq_len,
                 "LstmSeq2Seq: sequence length mismatch");
    if (train)
        cached_n_ = batch.n; // eval forwards stay mutation-free

    Tensor src = src_emb_->forward(batch.tokens, train);
    nn::LstmState enc_state = encoder_->initial_state(batch.n);
    encoder_->forward_seq(src, enc_state, train);

    std::vector<int> dec_inputs =
        shift_right(batch.labels, batch.n, cfg_.seq_len);
    Tensor tgt = tgt_emb_->forward(dec_inputs, train);
    if (train)
        cached_dec_inputs_ = std::move(dec_inputs);
    nn::LstmState dec_state = enc_state; // decoder starts where enc ended
    Tensor hidden = decoder_->forward_seq(tgt, dec_state, train);
    return proj_->forward(hidden, train);
}

void
LstmSeq2Seq::backward(const Tensor& dlogits)
{
    Tensor dh_seq = proj_->backward(dlogits);
    nn::LstmState dec_initial_grad;
    Tensor dtgt = decoder_->backward_seq(dh_seq, nn::LstmState{},
                                         dec_initial_grad);
    tgt_emb_->backward(dtgt);

    // The decoder's initial state is the encoder's final state.
    Tensor zero_h = Tensor::zeros({cached_n_ * cfg_.seq_len,
                                   cfg_.hidden_dim});
    nn::LstmState enc_initial_grad;
    Tensor dsrc = encoder_->backward_seq(zero_h, dec_initial_grad,
                                         enc_initial_grad);
    src_emb_->backward(dsrc);
}

double
LstmSeq2Seq::train_loss(const data::SequenceBatch& batch)
{
    Tensor logits = forward(batch, /*train=*/true);
    nn::LossResult res = nn::softmax_cross_entropy(logits, batch.labels);
    backward(res.grad);
    return res.loss;
}

double
LstmSeq2Seq::eval_loss(const data::SequenceBatch& batch)
{
    Tensor logits = forward(batch, /*train=*/false);
    return nn::softmax_cross_entropy(logits, batch.labels).loss;
}

std::vector<int>
LstmSeq2Seq::decode(const std::vector<int>& source)
{
    MX_CHECK_ARG(static_cast<std::int64_t>(source.size()) == cfg_.seq_len,
                 "decode: source length mismatch");
    Tensor src = src_emb_->forward(source, /*train=*/false);
    nn::LstmState enc_state = encoder_->initial_state(1);
    encoder_->forward_seq(src, enc_state, /*train=*/false);

    // Greedy, one token at a time.  The LSTM consumes fixed-length
    // sequences, so re-run with the generated prefix each step (state at
    // position t only depends on the prefix, so the padding is inert).
    std::vector<int> out;
    std::vector<int> dec_in(static_cast<std::size_t>(cfg_.seq_len), 0);
    for (std::int64_t t = 0; t < cfg_.seq_len; ++t) {
        for (std::int64_t j = 0; j < static_cast<std::int64_t>(out.size());
             ++j)
            dec_in[static_cast<std::size_t>(j + 1)] =
                out[static_cast<std::size_t>(j)];
        Tensor emb = tgt_emb_->forward(dec_in, /*train=*/false);
        nn::LstmState st = enc_state;
        Tensor hidden = decoder_->forward_seq(emb, st, /*train=*/false);
        Tensor logits = proj_->forward(hidden, /*train=*/false);
        const float* row = logits.data() + t * cfg_.vocab;
        int best = 0;
        for (int v = 1; v < cfg_.vocab; ++v)
            if (row[v] > row[best])
                best = v;
        out.push_back(best);
    }
    return out;
}

double
LstmSeq2Seq::bleu(const data::SequenceBatch& batch,
                  const data::TranslationPairs& task)
{
    std::vector<std::vector<int>> cands, refs;
    for (std::int64_t i = 0; i < batch.n; ++i) {
        std::vector<int> src = batch.row(i);
        cands.push_back(decode(src));
        refs.push_back(task.translate(src));
    }
    return stats::bleu(cands, refs);
}

std::vector<nn::Param*>
LstmSeq2Seq::params()
{
    std::vector<nn::Param*> ps;
    src_emb_->collect_params(ps);
    tgt_emb_->collect_params(ps);
    encoder_->collect_params(ps);
    decoder_->collect_params(ps);
    proj_->collect_params(ps);
    return ps;
}

void
LstmSeq2Seq::set_spec(const nn::QuantSpec& spec)
{
    cfg_.spec = spec;
    encoder_->spec() = spec;
    decoder_->spec() = spec;
    proj_->spec() = spec;
}

void
LstmSeq2Seq::freeze()
{
    src_emb_->freeze();
    tgt_emb_->freeze();
    encoder_->freeze();
    decoder_->freeze();
    proj_->freeze();
}

void
LstmSeq2Seq::freeze(const nn::QuantSpec& spec)
{
    set_spec(spec);
    freeze();
}

void
LstmSeq2Seq::unfreeze()
{
    src_emb_->unfreeze();
    tgt_emb_->unfreeze();
    encoder_->unfreeze();
    decoder_->unfreeze();
    proj_->unfreeze();
}

void
LstmSeq2Seq::collect_state(const std::string& prefix,
                           std::vector<nn::FrozenStateRef>& out)
{
    src_emb_->collect_state(prefix + "src_emb.", out);
    tgt_emb_->collect_state(prefix + "tgt_emb.", out);
    encoder_->collect_state(prefix + "encoder.", out);
    decoder_->collect_state(prefix + "decoder.", out);
    proj_->collect_state(prefix + "proj.", out);
}

void
LstmSeq2Seq::save_frozen(const std::string& path)
{
    MX_CHECK_ARG(frozen(), "LstmSeq2Seq: save_frozen() needs freeze()");
    artifact::ByteWriter cfg;
    cfg.u32(static_cast<std::uint32_t>(cfg_.vocab));
    cfg.u32(static_cast<std::uint32_t>(cfg_.embed_dim));
    cfg.u32(static_cast<std::uint32_t>(cfg_.hidden_dim));
    cfg.u32(static_cast<std::uint32_t>(cfg_.seq_len));
    cfg.spec(cfg_.spec);
    cfg.u64(cfg_.seed);
    artifact::ArtifactWriter w(artifact::ModelFamily::Seq2Seq, cfg.take());
    std::vector<nn::FrozenStateRef> refs;
    collect_state("", refs);
    w.add_all(refs);
    w.write(path);
}

LstmSeq2Seq
LstmSeq2Seq::load_frozen(const artifact::ArtifactReader& reader)
{
    if (reader.family() != artifact::ModelFamily::Seq2Seq)
        throw artifact::SchemaError(
            "artifact: not a seq2seq artifact (family tag " +
            std::to_string(static_cast<std::uint32_t>(reader.family())) +
            ")");
    artifact::ByteReader r = reader.config();
    Seq2SeqConfig cfg;
    cfg.vocab = static_cast<int>(r.u32());
    cfg.embed_dim = static_cast<int>(r.u32());
    cfg.hidden_dim = static_cast<int>(r.u32());
    cfg.seq_len = static_cast<int>(r.u32());
    cfg.spec = r.spec();
    cfg.seed = r.u64();
    LstmSeq2Seq m(std::move(cfg));
    std::vector<nn::FrozenStateRef> refs;
    m.collect_state("", refs);
    reader.load_into(refs);
    return m;
}

LstmSeq2Seq
LstmSeq2Seq::load_frozen(const std::string& path)
{
    return load_frozen(artifact::ArtifactReader(path));
}

} // namespace models
} // namespace mx
