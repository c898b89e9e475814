#include "models/dlrm_mini.h"

#include "artifact/writer.h"
#include "core/check.h"

namespace mx {
namespace models {

using tensor::Tensor;

DlrmMini::DlrmMini(DlrmConfig cfg) : cfg_(std::move(cfg)), rng_(cfg_.seed)
{
    for (int t = 0; t < cfg_.num_tables; ++t) {
        tables_.push_back(std::make_unique<nn::Embedding>(
            cfg_.vocab_per_table, cfg_.embed_dim, rng_));
        if (cfg_.embedding_storage)
            tables_.back()->set_storage_format(cfg_.embedding_storage);
    }
    bottom_ = std::make_unique<MlpClassifier>(
        cfg_.dense_dim, cfg_.bottom_hidden, cfg_.embed_dim, cfg_.spec,
        rng_.next_u64());
    const int f = cfg_.num_tables + 1;
    const std::int64_t pairs = static_cast<std::int64_t>(f) * (f - 1) / 2;
    top_ = std::make_unique<MlpClassifier>(
        cfg_.embed_dim + pairs, cfg_.top_hidden, 1, cfg_.spec,
        rng_.next_u64());
}

Tensor
DlrmMini::logits(const data::ClickBatch& batch, bool train)
{
    const std::int64_t n = batch.n;
    const std::int64_t d = cfg_.embed_dim;
    const int f = cfg_.num_tables + 1;
    if (train)
        cached_n_ = n; // eval forwards stay mutation-free

    // Gather per-table ids and run lookups + the bottom MLP.
    Tensor features({n, f, d});
    Tensor dense_vec = bottom_->logits(batch.dense, train); // [n, D]
    for (std::int64_t i = 0; i < n; ++i)
        std::copy(dense_vec.data() + i * d, dense_vec.data() + (i + 1) * d,
                  features.data() + (i * f) * d);
    for (int t = 0; t < cfg_.num_tables; ++t) {
        std::vector<int> ids(static_cast<std::size_t>(n));
        for (std::int64_t i = 0; i < n; ++i)
            ids[static_cast<std::size_t>(i)] =
                batch.categorical[static_cast<std::size_t>(
                    i * cfg_.num_tables + t)];
        Tensor emb = tables_[static_cast<std::size_t>(t)]->forward(ids,
                                                                   train);
        for (std::int64_t i = 0; i < n; ++i)
            std::copy(emb.data() + i * d, emb.data() + (i + 1) * d,
                      features.data() + (i * f + (t + 1)) * d);
    }
    if (train)
        cached_features_ = features;

    // Interactions: dense vector concat pairwise dots.
    const std::int64_t pairs = static_cast<std::int64_t>(f) * (f - 1) / 2;
    Tensor top_in({n, d + pairs});
    for (std::int64_t i = 0; i < n; ++i) {
        float* row = top_in.data() + i * (d + pairs);
        const float* feat = features.data() + i * f * d;
        std::copy(feat, feat + d, row); // the bottom vector itself
        std::int64_t p = 0;
        for (int a = 0; a < f; ++a) {
            for (int b = a + 1; b < f; ++b) {
                double dot = 0;
                for (std::int64_t j = 0; j < d; ++j)
                    dot += static_cast<double>(feat[a * d + j]) *
                           feat[b * d + j];
                row[d + p++] = static_cast<float>(dot);
            }
        }
    }
    Tensor out = top_->logits(top_in, train); // [n, 1]
    return out.reshape({n});
}

void
DlrmMini::backward(const Tensor& grad)
{
    const std::int64_t n = cached_n_;
    const std::int64_t d = cfg_.embed_dim;
    const int f = cfg_.num_tables + 1;
    const std::int64_t pairs = static_cast<std::int64_t>(f) * (f - 1) / 2;
    MX_CHECK_ARG(grad.numel() == n, "DlrmMini: grad shape mismatch");

    // Into the top MLP; its returned input gradient feeds the
    // interaction backward.
    Tensor dtop_in = top_->backward(grad.reshape({n, 1}));

    Tensor dfeat = Tensor::zeros({n, f, d});
    for (std::int64_t i = 0; i < n; ++i) {
        const float* feat = cached_features_.data() + i * f * d;
        float* dfrow = dfeat.data() + i * f * d;
        const float* drow = dtop_in.data() + i * (d + pairs);
        // Bottom-vector passthrough part.
        for (std::int64_t j = 0; j < d; ++j)
            dfrow[j] += drow[j];
        std::int64_t p = 0;
        for (int a = 0; a < f; ++a) {
            for (int b = a + 1; b < f; ++b) {
                float gp = drow[d + p++];
                for (std::int64_t j = 0; j < d; ++j) {
                    dfrow[a * d + j] += gp * feat[b * d + j];
                    dfrow[b * d + j] += gp * feat[a * d + j];
                }
            }
        }
    }

    // Split gradients back to the bottom MLP and the tables.
    Tensor ddense({n, d});
    for (std::int64_t i = 0; i < n; ++i)
        std::copy(dfeat.data() + (i * f) * d, dfeat.data() + (i * f + 1) * d,
                  ddense.data() + i * d);
    bottom_->backward(ddense);
    for (int t = 0; t < cfg_.num_tables; ++t) {
        Tensor demb({n, d});
        for (std::int64_t i = 0; i < n; ++i)
            std::copy(dfeat.data() + (i * f + t + 1) * d,
                      dfeat.data() + (i * f + t + 2) * d,
                      demb.data() + i * d);
        tables_[static_cast<std::size_t>(t)]->backward(demb);
    }
}

double
DlrmMini::train_loss(const data::ClickBatch& batch)
{
    Tensor l = logits(batch, /*train=*/true);
    nn::LossResult res = nn::bce_with_logits(l, batch.labels);
    backward(res.grad);
    return res.loss;
}

std::vector<double>
DlrmMini::predict(const data::ClickBatch& batch)
{
    Tensor l = logits(batch, /*train=*/false);
    std::vector<double> probs(static_cast<std::size_t>(l.numel()));
    for (std::int64_t i = 0; i < l.numel(); ++i)
        probs[static_cast<std::size_t>(i)] =
            1.0 / (1.0 + std::exp(-static_cast<double>(l.data()[i])));
    return probs;
}

std::vector<nn::Param*>
DlrmMini::params()
{
    std::vector<nn::Param*> ps;
    for (auto& t : tables_)
        t->collect_params(ps);
    for (nn::Param* p : bottom_->params())
        ps.push_back(p);
    for (nn::Param* p : top_->params())
        ps.push_back(p);
    return ps;
}

void
DlrmMini::set_spec(const nn::QuantSpec& spec, bool keep_first_last_fp32)
{
    cfg_.spec = spec;
    bottom_->set_spec(spec, keep_first_last_fp32);
    top_->set_spec(spec, keep_first_last_fp32);
}

void
DlrmMini::set_embedding_storage(std::optional<core::BdrFormat> fmt)
{
    cfg_.embedding_storage = fmt;
    for (auto& t : tables_)
        t->set_storage_format(fmt);
}

void
DlrmMini::freeze()
{
    bottom_->freeze();
    top_->freeze();
    for (auto& t : tables_)
        t->freeze();
}

void
DlrmMini::freeze(const nn::QuantSpec& spec, bool keep_first_last_fp32)
{
    set_spec(spec, keep_first_last_fp32);
    freeze();
}

void
DlrmMini::unfreeze()
{
    bottom_->unfreeze();
    top_->unfreeze();
    for (auto& t : tables_)
        t->unfreeze();
}

void
DlrmMini::collect_state(const std::string& prefix,
                        std::vector<nn::FrozenStateRef>& out)
{
    for (std::size_t i = 0; i < tables_.size(); ++i)
        tables_[i]->collect_state(
            prefix + "table" + std::to_string(i) + ".", out);
    bottom_->collect_state(prefix + "bottom.", out);
    top_->collect_state(prefix + "top.", out);
}

void
DlrmMini::save_frozen(const std::string& path)
{
    MX_CHECK_ARG(frozen(), "DlrmMini: save_frozen() needs freeze()");
    artifact::ByteWriter cfg;
    cfg.u32(static_cast<std::uint32_t>(cfg_.num_tables));
    cfg.u32(static_cast<std::uint32_t>(cfg_.vocab_per_table));
    cfg.u32(static_cast<std::uint32_t>(cfg_.embed_dim));
    cfg.u32(static_cast<std::uint32_t>(cfg_.dense_dim));
    cfg.u32(static_cast<std::uint32_t>(cfg_.bottom_hidden.size()));
    for (std::int64_t h : cfg_.bottom_hidden)
        cfg.u64(static_cast<std::uint64_t>(h));
    cfg.u32(static_cast<std::uint32_t>(cfg_.top_hidden.size()));
    for (std::int64_t h : cfg_.top_hidden)
        cfg.u64(static_cast<std::uint64_t>(h));
    cfg.spec(cfg_.spec);
    cfg.opt_format(cfg_.embedding_storage);
    cfg.u64(cfg_.seed);
    artifact::ArtifactWriter w(artifact::ModelFamily::Dlrm, cfg.take());
    std::vector<nn::FrozenStateRef> refs;
    collect_state("", refs);
    w.add_all(refs);
    w.write(path);
}

DlrmMini
DlrmMini::load_frozen(const artifact::ArtifactReader& reader)
{
    if (reader.family() != artifact::ModelFamily::Dlrm)
        throw artifact::SchemaError(
            "artifact: not a DLRM artifact (family tag " +
            std::to_string(static_cast<std::uint32_t>(reader.family())) +
            ")");
    artifact::ByteReader r = reader.config();
    DlrmConfig cfg;
    cfg.num_tables = static_cast<int>(r.u32());
    cfg.vocab_per_table = static_cast<int>(r.u32());
    cfg.embed_dim = static_cast<int>(r.u32());
    cfg.dense_dim = static_cast<int>(r.u32());
    cfg.bottom_hidden.resize(r.u32());
    for (std::int64_t& h : cfg.bottom_hidden)
        h = static_cast<std::int64_t>(r.u64());
    cfg.top_hidden.resize(r.u32());
    for (std::int64_t& h : cfg.top_hidden)
        h = static_cast<std::int64_t>(r.u64());
    cfg.spec = r.spec();
    cfg.embedding_storage = r.opt_format();
    cfg.seed = r.u64();
    DlrmMini m(std::move(cfg));
    std::vector<nn::FrozenStateRef> refs;
    m.collect_state("", refs);
    reader.load_into(refs);
    return m;
}

DlrmMini
DlrmMini::load_frozen(const std::string& path)
{
    return load_frozen(artifact::ArtifactReader(path));
}

} // namespace models
} // namespace mx
