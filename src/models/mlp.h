#pragma once

/**
 * @file
 * MLP classifier (the simplest Table III family; also the bottom/top
 * stacks reused by DLRM).
 */

#include <memory>
#include <string>
#include <vector>

#include "artifact/reader.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/sequential.h"

namespace mx {
namespace models {

/** Feed-forward classifier: Linear/ReLU stack ending in class logits. */
class MlpClassifier
{
  public:
    /**
     * @param input_dim    input feature width
     * @param hidden_dims  one entry per hidden layer
     * @param num_classes  logit width
     * @param spec         quantization policy for every Linear
     * @param seed         init seed
     */
    MlpClassifier(std::int64_t input_dim,
                  const std::vector<std::int64_t>& hidden_dims,
                  std::int64_t num_classes, nn::QuantSpec spec,
                  std::uint64_t seed);

    /** Class logits [n, classes]. */
    tensor::Tensor logits(const tensor::Tensor& x, bool train);
    /** Backward from logit gradients; returns the input gradient (used
     *  when the MLP is embedded in a larger model, e.g. DLRM). */
    tensor::Tensor backward(const tensor::Tensor& grad);

    std::vector<nn::Param*> params();
    /** Swap the quantization policy everywhere.  When
     *  @p keep_first_last_fp32 is set, the first and last Linear keep
     *  FP32 (the paper's mixed-precision recipe, Table VI). */
    void set_spec(const nn::QuantSpec& spec,
                  bool keep_first_last_fp32 = false);

    /** Freeze every layer under its current spec (direct-cast serving:
     *  weights quantized once, not per request). */
    void freeze();
    /** set_spec() then freeze(). */
    void freeze(const nn::QuantSpec& spec,
                bool keep_first_last_fp32 = false);
    void unfreeze();
    bool frozen() const;

    /** Serializable state slots in artifact order. */
    void collect_state(const std::string& prefix,
                       std::vector<nn::FrozenStateRef>& out);

    /** Write the frozen model as an MXFROZEN artifact (requires
     *  frozen(); per-layer specs — e.g. keep-first/last-FP32 — are
     *  stored per entry and survive the round trip). */
    void save_frozen(const std::string& path);

    /** Rebuild a serve-ready model from an already-opened artifact;
     *  loaded FrozenTensor handles view (and share) its mapping. */
    static MlpClassifier
    load_frozen(const artifact::ArtifactReader& reader);

    /** Open @p path and load. */
    static MlpClassifier load_frozen(const std::string& path);

  private:
    std::int64_t input_dim_, classes_;
    std::vector<std::int64_t> hidden_dims_;
    std::uint64_t seed_;
    stats::Rng rng_;
    nn::Sequential net_;
    std::vector<nn::Linear*> linears_;
};

} // namespace models
} // namespace mx
