#include "models/resnet_mini.h"

#include "artifact/writer.h"
#include "core/check.h"

namespace mx {
namespace models {

using tensor::Tensor;

ResidualBlock::ResidualBlock(std::int64_t channels, nn::QuantSpec spec,
                             stats::Rng& rng)
{
    c1_ = std::make_unique<nn::Conv2d>(channels, channels, 3, 1, 1, spec,
                                       rng);
    c2_ = std::make_unique<nn::Conv2d>(channels, channels, 3, 1, 1, spec,
                                       rng);
    a1_ = std::make_unique<nn::ActivationLayer>(nn::Activation::ReLU);
    a2_ = std::make_unique<nn::ActivationLayer>(nn::Activation::ReLU);
}

Tensor
ResidualBlock::forward(const Tensor& x, bool train)
{
    Tensor h = a1_->forward(c1_->forward(x, train), train);
    Tensor y = c2_->forward(h, train);
    tensor::axpy(y, 1.0f, x); // residual
    return a2_->forward(y, train);
}

Tensor
ResidualBlock::backward(const Tensor& grad_out)
{
    Tensor g = a2_->backward(grad_out);
    Tensor dx = c1_->backward(a1_->backward(c2_->backward(g)));
    tensor::axpy(dx, 1.0f, g); // residual path
    return dx;
}

void
ResidualBlock::collect_params(std::vector<nn::Param*>& out)
{
    c1_->collect_params(out);
    c2_->collect_params(out);
}

void
ResidualBlock::freeze()
{
    c1_->freeze();
    c2_->freeze();
}

void
ResidualBlock::freeze(const nn::QuantSpec& spec)
{
    c1_->freeze(spec);
    c2_->freeze(spec);
}

void
ResidualBlock::unfreeze()
{
    c1_->unfreeze();
    c2_->unfreeze();
}

ResNetMini::ResNetMini(std::int64_t image_size, std::int64_t channels,
                       std::int64_t num_classes, nn::QuantSpec spec,
                       std::uint64_t seed)
    : image_size_(image_size),
      channels_(channels),
      classes_(num_classes),
      seed_(seed),
      rng_(seed)
{
    stem_ = std::make_unique<nn::Conv2d>(1, channels, 3, 1, 1, spec, rng_);
    stem_act_ = std::make_unique<nn::ActivationLayer>(nn::Activation::ReLU);
    for (int i = 0; i < 2; ++i)
        blocks_.push_back(
            std::make_unique<ResidualBlock>(channels, spec, rng_));
    head_ = std::make_unique<nn::Linear>(channels, num_classes, spec, rng_);
}

Tensor
ResNetMini::logits(const Tensor& images, bool train)
{
    MX_CHECK_ARG(images.ndim() == 4 && images.dim(1) == 1 &&
                 images.dim(2) == image_size_,
                 "ResNetMini: input " << images.shape_string());
    if (train)
        cached_n_ = images.dim(0);
    Tensor h = stem_act_->forward(stem_->forward(images, train), train);
    for (auto& b : blocks_)
        h = b->forward(h, train);

    // Global average pool [n, C, S, S] -> [n, C].
    const std::int64_t n = h.dim(0), c = h.dim(1),
                       hw = h.dim(2) * h.dim(3);
    Tensor pooled({n, c});
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t ch = 0; ch < c; ++ch) {
            double acc = 0;
            const float* src = h.data() + (i * c + ch) * hw;
            for (std::int64_t k = 0; k < hw; ++k)
                acc += src[k];
            pooled.data()[i * c + ch] =
                static_cast<float>(acc / static_cast<double>(hw));
        }
    return head_->forward(pooled, train);
}

void
ResNetMini::backward(const Tensor& grad)
{
    Tensor dpooled = head_->backward(grad); // [n, C]
    const std::int64_t hw = image_size_ * image_size_;
    Tensor dh({cached_n_, channels_, image_size_, image_size_});
    float inv = 1.0f / static_cast<float>(hw);
    for (std::int64_t i = 0; i < cached_n_; ++i)
        for (std::int64_t ch = 0; ch < channels_; ++ch) {
            float g = dpooled.data()[i * channels_ + ch] * inv;
            float* dst = dh.data() + (i * channels_ + ch) * hw;
            for (std::int64_t k = 0; k < hw; ++k)
                dst[k] = g;
        }
    for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it)
        dh = (*it)->backward(dh);
    stem_->backward(stem_act_->backward(dh));
}

std::vector<nn::Param*>
ResNetMini::params()
{
    std::vector<nn::Param*> ps;
    stem_->collect_params(ps);
    for (auto& b : blocks_)
        b->collect_params(ps);
    head_->collect_params(ps);
    return ps;
}

void
ResNetMini::set_spec(const nn::QuantSpec& spec, bool keep_first_last_fp32)
{
    stem_->spec() = keep_first_last_fp32 ? nn::QuantSpec::fp32() : spec;
    for (auto& b : blocks_) {
        b->conv1().spec() = spec;
        b->conv2().spec() = spec;
    }
    head_->spec() = keep_first_last_fp32 ? nn::QuantSpec::fp32() : spec;
}

void
ResNetMini::freeze()
{
    stem_->freeze();
    for (auto& b : blocks_)
        b->freeze();
    head_->freeze();
}

void
ResNetMini::freeze(const nn::QuantSpec& spec, bool keep_first_last_fp32)
{
    set_spec(spec, keep_first_last_fp32);
    freeze();
}

void
ResNetMini::unfreeze()
{
    stem_->unfreeze();
    for (auto& b : blocks_)
        b->unfreeze();
    head_->unfreeze();
}

void
ResNetMini::collect_state(const std::string& prefix,
                          std::vector<nn::FrozenStateRef>& out)
{
    stem_->collect_state(prefix + "stem.", out);
    for (std::size_t i = 0; i < blocks_.size(); ++i)
        blocks_[i]->collect_state(
            prefix + "block" + std::to_string(i) + ".", out);
    head_->collect_state(prefix + "head.", out);
}

void
ResNetMini::save_frozen(const std::string& path)
{
    MX_CHECK_ARG(frozen(), "ResNetMini: save_frozen() needs freeze()");
    artifact::ByteWriter cfg;
    cfg.u64(static_cast<std::uint64_t>(image_size_));
    cfg.u64(static_cast<std::uint64_t>(channels_));
    cfg.u64(static_cast<std::uint64_t>(classes_));
    cfg.u64(seed_);
    artifact::ArtifactWriter w(artifact::ModelFamily::ResNet, cfg.take());
    std::vector<nn::FrozenStateRef> refs;
    collect_state("", refs);
    w.add_all(refs);
    w.write(path);
}

ResNetMini
ResNetMini::load_frozen(const artifact::ArtifactReader& reader)
{
    if (reader.family() != artifact::ModelFamily::ResNet)
        throw artifact::SchemaError(
            "artifact: not a ResNet artifact (family tag " +
            std::to_string(static_cast<std::uint32_t>(reader.family())) +
            ")");
    artifact::ByteReader cfg = reader.config();
    const std::int64_t image_size = static_cast<std::int64_t>(cfg.u64());
    const std::int64_t channels = static_cast<std::int64_t>(cfg.u64());
    const std::int64_t classes = static_cast<std::int64_t>(cfg.u64());
    const std::uint64_t seed = cfg.u64();
    ResNetMini m(image_size, channels, classes, nn::QuantSpec::fp32(),
                 seed);
    std::vector<nn::FrozenStateRef> refs;
    m.collect_state("", refs);
    reader.load_into(refs);
    return m;
}

ResNetMini
ResNetMini::load_frozen(const std::string& path)
{
    return load_frozen(artifact::ArtifactReader(path));
}

} // namespace models
} // namespace mx
