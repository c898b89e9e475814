#pragma once

/**
 * @file
 * LSTM encoder-decoder (GNMT stand-in for the Table III translation
 * rows).  The encoder consumes the source sequence; its final (h, c)
 * seeds the decoder, which is trained with teacher forcing and evaluated
 * by greedy decoding + BLEU.
 */

#include <memory>
#include <string>
#include <vector>

#include "artifact/reader.h"
#include "data/synthetic.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/losses.h"

namespace mx {
namespace models {

/** Sizing/precision of the seq2seq model. */
struct Seq2SeqConfig
{
    int vocab = 32;
    int embed_dim = 32;
    int hidden_dim = 64;
    int seq_len = 8;
    nn::QuantSpec spec;
    std::uint64_t seed = 11;
};

/** Encoder-decoder LSTM translator. */
class LstmSeq2Seq
{
  public:
    explicit LstmSeq2Seq(Seq2SeqConfig cfg);

    /**
     * Teacher-forced loss on a batch (tokens = source, labels = target)
     * with gradient accumulation.
     */
    double train_loss(const data::SequenceBatch& batch);

    /** Teacher-forced eval loss (no gradients). */
    double eval_loss(const data::SequenceBatch& batch);

    /** Greedy decode of one source row. */
    std::vector<int> decode(const std::vector<int>& source);

    /** Corpus BLEU of greedy decodes against gold targets. */
    double bleu(const data::SequenceBatch& batch,
                const data::TranslationPairs& task);

    std::vector<nn::Param*> params();
    void set_spec(const nn::QuantSpec& spec);

    /** Freeze both LSTMs, the projection and the embeddings under
     *  their current specs (greedy decoding stops re-quantizing the
     *  gate weights every step). */
    void freeze();
    /** set_spec() then freeze(). */
    void freeze(const nn::QuantSpec& spec);
    void unfreeze();
    bool frozen() const { return proj_->frozen(); }

    const Seq2SeqConfig& config() const { return cfg_; }

    /** Serializable state slots in artifact order. */
    void collect_state(const std::string& prefix,
                       std::vector<nn::FrozenStateRef>& out);

    /** Write the frozen model as an MXFROZEN artifact. */
    void save_frozen(const std::string& path);

    /** Rebuild a serve-ready model from an opened artifact. */
    static LstmSeq2Seq
    load_frozen(const artifact::ArtifactReader& reader);

    /** Open @p path and load. */
    static LstmSeq2Seq load_frozen(const std::string& path);

  private:
    /** Shared forward; returns decoder logits [n*T, vocab]. */
    tensor::Tensor forward(const data::SequenceBatch& batch, bool train);
    void backward(const tensor::Tensor& dlogits);

    Seq2SeqConfig cfg_;
    stats::Rng rng_;
    std::unique_ptr<nn::Embedding> src_emb_, tgt_emb_;
    std::unique_ptr<nn::Lstm> encoder_, decoder_;
    std::unique_ptr<nn::Linear> proj_;
    std::int64_t cached_n_ = 0;
    std::vector<int> cached_dec_inputs_;
};

} // namespace models
} // namespace mx
