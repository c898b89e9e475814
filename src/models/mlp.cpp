#include "models/mlp.h"

#include "artifact/writer.h"
#include "core/check.h"

namespace mx {
namespace models {

using tensor::Tensor;

MlpClassifier::MlpClassifier(std::int64_t input_dim,
                             const std::vector<std::int64_t>& hidden_dims,
                             std::int64_t num_classes, nn::QuantSpec spec,
                             std::uint64_t seed)
    : input_dim_(input_dim), classes_(num_classes),
      hidden_dims_(hidden_dims), seed_(seed), rng_(seed)
{
    std::int64_t prev = input_dim;
    for (std::int64_t h : hidden_dims) {
        linears_.push_back(net_.emplace<nn::Linear>(prev, h, spec, rng_));
        net_.emplace<nn::ActivationLayer>(nn::Activation::ReLU);
        prev = h;
    }
    linears_.push_back(
        net_.emplace<nn::Linear>(prev, num_classes, spec, rng_));
}

Tensor
MlpClassifier::logits(const Tensor& x, bool train)
{
    return net_.forward(x, train);
}

Tensor
MlpClassifier::backward(const Tensor& grad)
{
    return net_.backward(grad);
}

std::vector<nn::Param*>
MlpClassifier::params()
{
    std::vector<nn::Param*> ps;
    net_.collect_params(ps);
    return ps;
}

void
MlpClassifier::freeze()
{
    net_.freeze();
}

void
MlpClassifier::freeze(const nn::QuantSpec& spec, bool keep_first_last_fp32)
{
    set_spec(spec, keep_first_last_fp32);
    freeze();
}

void
MlpClassifier::unfreeze()
{
    net_.unfreeze();
}

bool
MlpClassifier::frozen() const
{
    return net_.frozen();
}

void
MlpClassifier::collect_state(const std::string& prefix,
                             std::vector<nn::FrozenStateRef>& out)
{
    net_.collect_state(prefix + "net.", out);
}

void
MlpClassifier::save_frozen(const std::string& path)
{
    MX_CHECK_ARG(frozen(), "MlpClassifier: save_frozen() needs freeze()");
    artifact::ByteWriter cfg;
    cfg.u64(static_cast<std::uint64_t>(input_dim_));
    cfg.u32(static_cast<std::uint32_t>(hidden_dims_.size()));
    for (std::int64_t h : hidden_dims_)
        cfg.u64(static_cast<std::uint64_t>(h));
    cfg.u64(static_cast<std::uint64_t>(classes_));
    cfg.u64(seed_);
    artifact::ArtifactWriter w(artifact::ModelFamily::Mlp, cfg.take());
    std::vector<nn::FrozenStateRef> refs;
    collect_state("", refs);
    w.add_all(refs);
    w.write(path);
}

MlpClassifier
MlpClassifier::load_frozen(const artifact::ArtifactReader& reader)
{
    if (reader.family() != artifact::ModelFamily::Mlp)
        throw artifact::SchemaError(
            "artifact: not an MLP artifact (family tag " +
            std::to_string(static_cast<std::uint32_t>(reader.family())) +
            ")");
    artifact::ByteReader cfg = reader.config();
    const std::int64_t input_dim =
        static_cast<std::int64_t>(cfg.u64());
    std::vector<std::int64_t> hidden(cfg.u32());
    for (std::int64_t& h : hidden)
        h = static_cast<std::int64_t>(cfg.u64());
    const std::int64_t classes = static_cast<std::int64_t>(cfg.u64());
    const std::uint64_t seed = cfg.u64();
    // Per-layer specs are restored entry-by-entry by load_into.
    MlpClassifier m(input_dim, hidden, classes, nn::QuantSpec::fp32(),
                    seed);
    std::vector<nn::FrozenStateRef> refs;
    m.collect_state("", refs);
    reader.load_into(refs);
    return m;
}

MlpClassifier
MlpClassifier::load_frozen(const std::string& path)
{
    return load_frozen(artifact::ArtifactReader(path));
}

void
MlpClassifier::set_spec(const nn::QuantSpec& spec,
                        bool keep_first_last_fp32)
{
    for (std::size_t i = 0; i < linears_.size(); ++i) {
        bool edge = i == 0 || i + 1 == linears_.size();
        linears_[i]->spec() = (edge && keep_first_last_fp32)
            ? nn::QuantSpec::fp32()
            : spec;
    }
}

} // namespace models
} // namespace mx
