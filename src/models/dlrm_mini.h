#pragma once

/**
 * @file
 * Miniature DLRM (the Table III/VI recommendation stand-in): per-feature
 * embedding tables, a bottom MLP over dense features, pairwise dot
 * interactions, and a top MLP producing a click logit.  Both the compute
 * (MLPs) and the storage (embedding tables) can be MX-quantized, as the
 * paper does for memory-bound recommendation inference (Section V).
 */

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "artifact/reader.h"
#include "data/synthetic.h"
#include "models/mlp.h"
#include "nn/embedding.h"
#include "nn/losses.h"

namespace mx {
namespace models {

/** Sizing/precision of the DLRM miniature. */
struct DlrmConfig
{
    int num_tables = 8;
    int vocab_per_table = 64;
    int embed_dim = 16;
    int dense_dim = 8;
    std::vector<std::int64_t> bottom_hidden = {32, 16};
    std::vector<std::int64_t> top_hidden = {64, 32};
    nn::QuantSpec spec;
    /** Quantize embedding-table storage (memory-bound inference). */
    std::optional<core::BdrFormat> embedding_storage;
    std::uint64_t seed = 13;
};

/** DLRM: embeddings + bottom MLP + dot interaction + top MLP. */
class DlrmMini
{
  public:
    explicit DlrmMini(DlrmConfig cfg);

    /** Click logits [n]. */
    tensor::Tensor logits(const data::ClickBatch& batch, bool train);
    /** Backward from the logit gradient [n]. */
    void backward(const tensor::Tensor& grad);

    /** Convenience: loss + backward in one call. */
    double train_loss(const data::ClickBatch& batch);
    /** Predicted click probabilities. */
    std::vector<double> predict(const data::ClickBatch& batch);

    std::vector<nn::Param*> params();
    /** Swap precision; optionally keep first/last MLP layers in FP32
     *  (the paper's mixed-precision production recipe, Table VI). */
    void set_spec(const nn::QuantSpec& spec,
                  bool keep_first_last_fp32 = false);
    /** Change embedding storage format. */
    void set_embedding_storage(std::optional<core::BdrFormat> fmt);

    /** Freeze both MLPs and snapshot every embedding table (the
     *  memory-bound recommendation-serving path). */
    void freeze();
    /** set_spec() then freeze(). */
    void freeze(const nn::QuantSpec& spec,
                bool keep_first_last_fp32 = false);
    void unfreeze();
    bool frozen() const { return top_->frozen(); }

    const DlrmConfig& config() const { return cfg_; }

    /** Serializable state slots in artifact order. */
    void collect_state(const std::string& prefix,
                       std::vector<nn::FrozenStateRef>& out);

    /** Write the frozen model as an MXFROZEN artifact. */
    void save_frozen(const std::string& path);

    /** Rebuild a serve-ready model from an opened artifact. */
    static DlrmMini load_frozen(const artifact::ArtifactReader& reader);

    /** Open @p path and load. */
    static DlrmMini load_frozen(const std::string& path);

  private:
    DlrmConfig cfg_;
    stats::Rng rng_;
    std::vector<std::unique_ptr<nn::Embedding>> tables_;
    std::unique_ptr<MlpClassifier> bottom_; // dense -> embed_dim
    std::unique_ptr<MlpClassifier> top_;    // interactions -> 1 logit
    // Caches for the interaction backward.
    tensor::Tensor cached_features_; // [n, F+1, D] stacked feature vectors
    std::int64_t cached_n_ = 0;
};

} // namespace models
} // namespace mx
