#pragma once

/**
 * @file
 * Miniature residual CNN (ResNet / MobileNet family stand-in for the
 * Table III image-classification rows).  Stem conv, two residual blocks,
 * global average pooling, linear classifier — every convolution lowered
 * to an MX-quantized matmul.
 */

#include <memory>
#include <string>
#include <vector>

#include "artifact/reader.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"

namespace mx {
namespace models {

/** Two-conv residual block with ReLU. */
class ResidualBlock : public nn::Layer
{
  public:
    ResidualBlock(std::int64_t channels, nn::QuantSpec spec,
                  stats::Rng& rng);

    tensor::Tensor forward(const tensor::Tensor& x, bool train) override;
    tensor::Tensor backward(const tensor::Tensor& grad_out) override;
    void collect_params(std::vector<nn::Param*>& out) override;

    void
    collect_state(const std::string& prefix,
                  std::vector<nn::FrozenStateRef>& out) override
    {
        c1_->collect_state(prefix + "c1.", out);
        c2_->collect_state(prefix + "c2.", out);
    }

    void freeze() override;
    void freeze(const nn::QuantSpec& spec) override;
    void unfreeze() override;
    bool frozen() const override { return c1_->frozen(); }

    /** The two convolutions (for spec rewiring). */
    nn::Conv2d& conv1() { return *c1_; }
    nn::Conv2d& conv2() { return *c2_; }

  private:
    std::unique_ptr<nn::Conv2d> c1_, c2_;
    std::unique_ptr<nn::ActivationLayer> a1_, a2_;
};

/** The full miniature CNN classifier. */
class ResNetMini
{
  public:
    /**
     * @param image_size input is [n, 1, image_size, image_size]
     * @param channels   trunk width
     * @param num_classes logit width
     */
    ResNetMini(std::int64_t image_size, std::int64_t channels,
               std::int64_t num_classes, nn::QuantSpec spec,
               std::uint64_t seed);

    /** Class logits [n, classes] from images [n, 1, S, S]. */
    tensor::Tensor logits(const tensor::Tensor& images, bool train);
    void backward(const tensor::Tensor& grad);

    std::vector<nn::Param*> params();
    void set_spec(const nn::QuantSpec& spec,
                  bool keep_first_last_fp32 = false);

    /** Freeze every conv/linear under its current spec. */
    void freeze();
    /** set_spec() then freeze(). */
    void freeze(const nn::QuantSpec& spec,
                bool keep_first_last_fp32 = false);
    void unfreeze();
    bool frozen() const { return head_->frozen(); }

    /** Serializable state slots in artifact order. */
    void collect_state(const std::string& prefix,
                       std::vector<nn::FrozenStateRef>& out);

    /** Write the frozen model as an MXFROZEN artifact. */
    void save_frozen(const std::string& path);

    /** Rebuild a serve-ready model from an opened artifact. */
    static ResNetMini
    load_frozen(const artifact::ArtifactReader& reader);

    /** Open @p path and load. */
    static ResNetMini load_frozen(const std::string& path);

  private:
    std::int64_t image_size_, channels_, classes_;
    std::uint64_t seed_;
    stats::Rng rng_;
    std::unique_ptr<nn::Conv2d> stem_;
    std::unique_ptr<nn::ActivationLayer> stem_act_;
    std::vector<std::unique_ptr<ResidualBlock>> blocks_;
    std::unique_ptr<nn::Linear> head_;
    std::int64_t cached_n_ = 0;
};

} // namespace models
} // namespace mx
