/**
 * @file
 * MXFROZEN artifact format battery.
 *
 * Three layers of defense for the freeze-once / mmap-serve-anywhere
 * split (src/artifact/):
 *
 *  1. Round-trip property: every model family (and through them every
 *     layer type), across MX9/MX6/MX4 and both kernel dispatch legs
 *     forwards bit-identically after freeze -> save -> mmap-load, and
 *     a pairable model serves the same bits whichever leg froze,
 *     loaded and served it — including ragged row widths, the Table IV
 *     weight/activation split specs, the mixed-precision
 *     keep-edges-FP32 recipe — and a load decodes the FP32 grid only
 *     for the layers that read it.
 *
 *  2. Corruption matrix: every distinct way a file can be bad —
 *     truncation, bad magic, unknown version, a flipped bit in each
 *     checksummed section, out-of-range offsets, malformed manifest
 *     fields, a smuggled stochastic plan — raises its own typed error
 *     from the format.h taxonomy, before any payload is interpreted.
 *
 *  3. Golden artifact: a version-1 file committed under tests/data/
 *     must keep decoding bit-exactly, and today's writer must keep
 *     producing those exact bytes — the format-stability pin.  Any
 *     intentional layout change bumps kVersion, regenerates the golden
 *     (MX_REGEN_GOLDEN=1), and keeps the old reader rejecting the new
 *     generation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "artifact/format.h"
#include "artifact/reader.h"
#include "artifact/writer.h"
#include "core/env.h"
#include "core/kernels/dispatch.h"
#include "gemm/packed_gemm.h"
#include "models/dlrm_mini.h"
#include "models/lstm_seq2seq.h"
#include "models/mlp.h"
#include "models/resnet_mini.h"
#include "models/serve_adapters.h"
#include "models/transformer.h"
#include "nn/frozen.h"
#include "nn/linear.h"
#include "serve/engine.h"
#include "stats/rng.h"

using namespace mx;
using namespace mx::artifact;
using tensor::Tensor;

namespace {

/** Run @p body once per kernel dispatch leg, restoring the default. */
template <typename Fn>
void
for_each_dispatch(Fn&& body)
{
    for (int leg = 0; leg < 2; ++leg) {
        core::kernels::set_force_scalar(leg == 1);
        body(leg == 1 ? "scalar" : "default");
    }
    core::kernels::set_force_scalar(false);
}

std::vector<core::BdrFormat>
mx_formats()
{
    return {core::mx9(), core::mx6(), core::mx4()};
}

std::string
tmp_path(const std::string& name)
{
    return ::testing::TempDir() + "mx_artifact_" + name;
}

std::vector<std::uint8_t>
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string& path, const std::vector<std::uint8_t>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

std::uint64_t
get_u64(const std::vector<std::uint8_t>& b, std::size_t off)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | b[off + static_cast<std::size_t>(i)];
    return v;
}

void
put_u32(std::vector<std::uint8_t>& b, std::size_t off, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        b[off + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
}

void
put_u64(std::vector<std::uint8_t>& b, std::size_t off, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        b[off + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
}

/** Recompute header_crc (bytes 72..75, computed with the field zeroed)
 *  after a deliberate header patch. */
void
refix_header_crc(std::vector<std::uint8_t>& b)
{
    put_u32(b, 72, 0);
    put_u32(b, 72, crc32(b.data(), kHeaderSize));
}

/** Recompute the config/manifest section CRCs from the (patched) bytes
 *  and then the header CRC — used to push a corruption PAST the
 *  checksum layer so the deeper typed checks are reachable. */
void
refix_all_crcs(std::vector<std::uint8_t>& b)
{
    const std::uint64_t coff = get_u64(b, 24), csz = get_u64(b, 32);
    const std::uint64_t moff = get_u64(b, 40), msz = get_u64(b, 48);
    put_u32(b, 64, crc32(b.data() + coff, csz));
    put_u32(b, 68, crc32(b.data() + moff, msz));
    refix_header_crc(b);
}

/** A small frozen-MX6 MLP with a ragged (19-wide) input, saved to
 *  @p name; returns the artifact path. */
std::string
write_mlp_artifact(const std::string& name)
{
    models::MlpClassifier mlp(19, {16}, 4,
                              nn::QuantSpec::forward_only(core::mx6()),
                              51);
    mlp.freeze();
    const std::string path = tmp_path(name);
    mlp.save_frozen(path);
    return path;
}

Tensor
fixed_input(std::int64_t n, std::int64_t dim)
{
    Tensor x({n, dim});
    for (std::int64_t i = 0; i < x.numel(); ++i)
        x.data()[i] =
            0.25f * static_cast<float>((i * 7) % 13) - 1.5f;
    return x;
}

data::SequenceBatch
token_batch(int n, int seq_len, int vocab, std::uint64_t seed)
{
    data::SequenceBatch batch;
    batch.n = n;
    batch.seq_len = seq_len;
    stats::Rng rng(seed);
    for (int i = 0; i < n * seq_len; ++i) {
        batch.tokens.push_back(
            static_cast<int>(rng.next_u64() % vocab));
        batch.labels.push_back(
            static_cast<int>(rng.next_u64() % vocab));
    }
    return batch;
}

} // namespace

// =====================================================================
// 1. Round-trip property: freeze -> save -> mmap-load -> bit-identical.
// =====================================================================

TEST(ArtifactRoundTrip, MlpAllFormatsBothLegsBothServePaths)
{
    // The original frozen model and its loaded twin hold the same bit
    // streams, so on either dispatch leg they must agree exactly.
    for_each_dispatch([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            models::MlpClassifier mlp(
                19, {24, 16}, 4, nn::QuantSpec::forward_only(fmt), 61);
            mlp.freeze();
            const std::string path = tmp_path("rt_mlp");
            mlp.save_frozen(path);

            models::MlpClassifier loaded =
                models::MlpClassifier::load_frozen(path);
            ASSERT_TRUE(loaded.frozen());
            Tensor x = fixed_input(5, 19);
            EXPECT_EQ(tensor::max_abs_diff(mlp.logits(x, false),
                                           loaded.logits(x, false)),
                      0.0)
                << fmt.name << " leg=" << leg;
            // Loaded models are serve-only.
            EXPECT_THROW(loaded.logits(x, true), ArgumentError);
        }
    });
}

TEST(ArtifactRoundTrip, SplitSpecAndMixedPrecisionSurviveTheFile)
{
    for_each_dispatch([&](const char* leg) {
        // Table IV (w, a) split: weights MX4, activations MX9.
        {
            models::MlpClassifier mlp(
                32, {16}, 4,
                nn::QuantSpec::weights_activations(core::mx4(),
                                                   core::mx9()),
                62);
            mlp.freeze();
            const std::string path = tmp_path("rt_split");
            mlp.save_frozen(path);
            ArtifactReader reader(path);
            EXPECT_EQ(reader.entries()[0].format->name, "MX4");
            models::MlpClassifier loaded =
                models::MlpClassifier::load_frozen(reader);
            Tensor x = fixed_input(4, 32);
            EXPECT_EQ(tensor::max_abs_diff(mlp.logits(x, false),
                                           loaded.logits(x, false)),
                      0.0)
                << leg;
        }
        // Mixed-precision recipe: edge layers frozen as FP32
        // passthrough snapshots, stored RawF32 + Snapshot and rebuilt
        // at load.
        {
            models::MlpClassifier mlp(16, {24}, 4,
                                      nn::QuantSpec::fp32(), 63);
            mlp.set_spec(nn::QuantSpec::forward_only(core::mx4()),
                         /*keep_first_last_fp32=*/true);
            mlp.freeze();
            const std::string path = tmp_path("rt_mixed");
            mlp.save_frozen(path);
            ArtifactReader reader(path);
            EXPECT_EQ(reader.entries()[0].kind, EntryKind::RawF32);
            EXPECT_EQ(reader.entries()[0].frozen, FrozenState::Snapshot);
            models::MlpClassifier loaded =
                models::MlpClassifier::load_frozen(reader);
            Tensor x = fixed_input(3, 16);
            EXPECT_EQ(tensor::max_abs_diff(mlp.logits(x, false),
                                           loaded.logits(x, false)),
                      0.0)
                << leg;
        }
    });
}

TEST(ArtifactRoundTrip, ResNetConvStackBothLegs)
{
    for_each_dispatch([&](const char* leg) {
        models::ResNetMini net(
            8, 4, 3, nn::QuantSpec::forward_only(core::mx6()), 65);
        net.freeze();
        const std::string path = tmp_path("rt_resnet");
        net.save_frozen(path);
        models::ResNetMini loaded = models::ResNetMini::load_frozen(path);
        ASSERT_TRUE(loaded.frozen());
        stats::Rng rng(66);
        Tensor imgs = Tensor::randn({2, 1, 8, 8}, rng);
        EXPECT_EQ(tensor::max_abs_diff(net.logits(imgs, false),
                                       loaded.logits(imgs, false)),
                  0.0)
            << leg;
    });
}

TEST(ArtifactRoundTrip, GptZeroCopyReplicasShareOneMapping)
{
    models::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.d_model = 32;
    cfg.heads = 2;
    cfg.layers = 1;
    cfg.seq_len = 8;
    cfg.spec = nn::QuantSpec::forward_only(core::mx9());
    models::GptMini model(cfg);
    model.freeze();
    const std::string path = tmp_path("rt_gpt");
    model.save_frozen(path);

    ArtifactReader reader(path);
    EXPECT_EQ(reader.family(), ModelFamily::Gpt);
    EXPECT_EQ(reader.version(), kVersion);

    // Pow2 packed entries view the mapping directly — no copies.
    std::size_t packed = 0;
    for (std::size_t i = 0; i < reader.entry_count(); ++i)
        if (reader.entries()[i].kind == EntryKind::PackedPow2) {
            ++packed;
            EXPECT_EQ(reader.frozen(i).zero_copy(), reader.mmapped())
                << reader.entries()[i].name;
        }
    EXPECT_GT(packed, 0u);

    // Two replicas from ONE reader share the cached handles (and so
    // the single mapping): shares_payload_with holds slot for slot.
    models::GptMini a = models::GptMini::load_frozen(reader);
    models::GptMini b = models::GptMini::load_frozen(reader);
    std::vector<nn::FrozenStateRef> ra, rb;
    a.collect_state("", ra);
    b.collect_state("", rb);
    ASSERT_EQ(ra.size(), rb.size());
    std::size_t shared = 0;
    for (std::size_t i = 0; i < ra.size(); ++i)
        if (ra[i].frozen != nullptr && ra[i].frozen->valid() &&
            ra[i].frozen->quantized()) {
            EXPECT_TRUE(ra[i].frozen->shares_payload_with(*rb[i].frozen))
                << ra[i].name;
            ++shared;
        }
    EXPECT_EQ(shared, packed);

    // And both serve bit-identically to the original frozen model
    // through a replicated engine (one replica per loaded model).
    for_each_dispatch([&](const char* leg) {
        data::SequenceBatch batch = token_batch(2, cfg.seq_len,
                                                cfg.vocab, 67);
        Tensor expect = model.logits(batch, false);
        EXPECT_EQ(tensor::max_abs_diff(expect, a.logits(batch, false)),
                  0.0)
            << leg;
        EXPECT_EQ(tensor::max_abs_diff(expect, b.logits(batch, false)),
                  0.0)
            << leg;
    });

    std::vector<models::GptMini*> replicas = {&a, &b};
    serve::EngineConfig ecfg;
    ecfg.replicas = 2;
    ecfg.max_batch = 2;
    serve::InferenceEngine engine(
        [&replicas](std::size_t r) -> serve::InferenceEngine::BatchFn {
            models::GptMini* m = replicas[r % replicas.size()];
            return [m](const Tensor& rows) {
                return m->window_logits(rows);
            };
        },
        cfg.seq_len, ecfg);

    std::vector<int> tokens(static_cast<std::size_t>(cfg.seq_len));
    for (std::size_t i = 0; i < tokens.size(); ++i)
        tokens[i] = static_cast<int>(i) % cfg.vocab;
    const std::vector<float> row =
        models::GptMini::pack_decode_row(tokens, cfg.seq_len);
    Tensor window({1, cfg.seq_len});
    std::copy(row.begin(), row.end(), window.data());
    Tensor direct = model.window_logits(window);
    std::vector<std::future<serve::Reply>> futures;
    for (int r = 0; r < 6; ++r)
        futures.push_back(engine.submit(row));
    for (auto& f : futures) {
        serve::Reply reply = f.get();
        ASSERT_EQ(reply.output.size(),
                  static_cast<std::size_t>(cfg.vocab));
        for (std::int64_t j = 0; j < cfg.vocab; ++j)
            EXPECT_EQ(reply.output[static_cast<std::size_t>(j)],
                      direct.data()[j]);
    }
}

TEST(ArtifactRoundTrip, BertBothHeads)
{
    models::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.d_model = 32;
    cfg.heads = 2;
    cfg.layers = 1;
    cfg.seq_len = 8;
    cfg.spec = nn::QuantSpec::forward_only(core::mx6());
    models::BertMini model(cfg, 3);
    model.freeze();
    const std::string path = tmp_path("rt_bert");
    model.save_frozen(path);
    models::BertMini loaded = models::BertMini::load_frozen(path);
    ASSERT_TRUE(loaded.frozen());
    data::SequenceBatch batch = token_batch(2, cfg.seq_len, cfg.vocab, 68);
    EXPECT_EQ(tensor::max_abs_diff(model.class_logits(batch, false),
                                   loaded.class_logits(batch, false)),
              0.0);
    EXPECT_EQ(tensor::max_abs_diff(model.qa_logits(batch, false),
                                   loaded.qa_logits(batch, false)),
              0.0);
}

TEST(ArtifactRoundTrip, DlrmPackedEmbeddingTables)
{
    models::DlrmConfig cfg;
    cfg.num_tables = 3;
    cfg.vocab_per_table = 8;
    cfg.embed_dim = 8;
    cfg.dense_dim = 4;
    cfg.bottom_hidden = {8};
    cfg.top_hidden = {8};
    cfg.spec = nn::QuantSpec::forward_only(core::mx6());
    cfg.embedding_storage = core::mx6();
    models::DlrmMini model(cfg);
    model.freeze();
    const std::string path = tmp_path("rt_dlrm");
    model.save_frozen(path);

    ArtifactReader reader(path);
    // The quantized tables travel as packed streams, not FP32 copies.
    EXPECT_EQ(reader.entries()[0].kind, EntryKind::PackedPow2);
    models::DlrmMini loaded = models::DlrmMini::load_frozen(reader);
    ASSERT_TRUE(loaded.frozen());
    EXPECT_TRUE(loaded.config().embedding_storage.has_value());

    data::ClickBatch batch;
    batch.n = 4;
    stats::Rng rng(69);
    batch.dense = Tensor::randn({batch.n, cfg.dense_dim}, rng);
    for (int i = 0; i < batch.n * cfg.num_tables; ++i)
        batch.categorical.push_back(
            static_cast<int>(rng.next_u64() % cfg.vocab_per_table));
    batch.labels = {0, 1, 1, 0};
    std::vector<double> expect = model.predict(batch);
    std::vector<double> got = loaded.predict(batch);
    ASSERT_EQ(expect.size(), got.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(expect[i], got[i]);
}

TEST(ArtifactRoundTrip, Seq2SeqEvalLossAndGreedyDecode)
{
    models::Seq2SeqConfig cfg;
    cfg.vocab = 12;
    cfg.embed_dim = 8;
    cfg.hidden_dim = 12;
    cfg.seq_len = 6;
    cfg.spec = nn::QuantSpec::forward_only(core::mx9());
    models::LstmSeq2Seq model(cfg);
    model.freeze();
    const std::string path = tmp_path("rt_s2s");
    model.save_frozen(path);
    models::LstmSeq2Seq loaded = models::LstmSeq2Seq::load_frozen(path);
    ASSERT_TRUE(loaded.frozen());
    data::SequenceBatch batch = token_batch(2, cfg.seq_len, cfg.vocab, 70);
    EXPECT_EQ(model.eval_loss(batch), loaded.eval_loss(batch));
    EXPECT_EQ(model.decode(batch.row(0)), loaded.decode(batch.row(0)));
}

namespace {

/**
 * Check a frozen or loaded model's FP32-grid memory shape and return
 * how many packed slots hold no grid.  A Linear slot whose activation
 * format pairs with its packed weight holds no grid, whichever leg
 * froze or loaded it; every other packed slot — Conv2d, Lstm,
 * Embedding, a Linear that cannot pair — holds one.
 */
template <typename Model>
std::size_t
expect_grid_shape(Model& model, const std::string& what)
{
    std::vector<nn::FrozenStateRef> refs;
    model.collect_state("", refs);
    std::size_t packed_only = 0;
    for (const nn::FrozenStateRef& ref : refs) {
        if (ref.frozen == nullptr || !ref.frozen->valid() ||
            !ref.frozen->gemm_operand().has_value())
            continue;
        const bool pairs =
            ref.packed_matmul && ref.spec->forward.has_value();
        const bool grid = ref.frozen->values().numel() > 0;
        EXPECT_EQ(grid, !pairs) << what << " " << ref.name;
        packed_only += grid ? 0 : 1;
    }
    return packed_only;
}

/**
 * Freeze a model from @p make on each dispatch leg, save it, load it,
 * and check the grid shape of both; then @p serve must find the two
 * bit-identical on both legs.  @p pairable says whether the family has
 * a Linear that pairs with its weight (and so holds no grid).
 */
template <typename Model, typename Make, typename Serve>
void
check_load_keeps_grid_only_where_read(const std::string& family,
                                      bool pairable, Make make,
                                      Serve serve)
{
    using core::kernels::SimdLevel;
    for (SimdLevel freeze_leg : {SimdLevel::Avx512, SimdLevel::Scalar}) {
        core::kernels::set_simd_level(freeze_leg);
        const std::string ctx =
            family + " frozen on level " +
            std::to_string(static_cast<int>(
                core::kernels::active_simd_level()));
        Model model = make();
        model.freeze();
        const std::string path = tmp_path("grid_" + family);
        model.save_frozen(path);
        Model loaded = Model::load_frozen(path);
        ASSERT_TRUE(loaded.frozen()) << ctx;

        EXPECT_EQ(expect_grid_shape(model, ctx + " original") > 0, pairable)
            << ctx;
        EXPECT_EQ(expect_grid_shape(loaded, ctx + " loaded") > 0, pairable)
            << ctx;

        for (SimdLevel serve_leg : {SimdLevel::Avx512, SimdLevel::Scalar}) {
            core::kernels::set_simd_level(serve_leg);
            serve(model, loaded,
                  ctx + " served on level " +
                      std::to_string(static_cast<int>(
                          core::kernels::active_simd_level())));
        }
    }
    core::kernels::set_force_scalar(false);
}

/** The small single-layer transformer the grid-shape tests share. */
models::TransformerConfig
grid_transformer_config()
{
    models::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.d_model = 32;
    cfg.heads = 2;
    cfg.layers = 1;
    cfg.seq_len = 8;
    cfg.spec = nn::QuantSpec::forward_only(core::mx9());
    return cfg;
}

data::ClickBatch
click_batch(const models::DlrmConfig& cfg, std::uint64_t seed)
{
    data::ClickBatch batch;
    batch.n = 4;
    stats::Rng rng(seed);
    batch.dense = Tensor::randn({batch.n, cfg.dense_dim}, rng);
    for (int i = 0; i < batch.n * cfg.num_tables; ++i)
        batch.categorical.push_back(
            static_cast<int>(rng.next_u64() % cfg.vocab_per_table));
    batch.labels = {0, 1, 1, 0};
    return batch;
}

} // namespace

// Every family loads and serves bit-identically to its frozen
// original, and only the layers that read the FP32 grid (Conv2d, Lstm,
// Embedding, a Linear that cannot pair) get it from freeze or load.

TEST(ArtifactGridShape, Mlp)
{
    const Tensor x = fixed_input(5, 19);
    check_load_keeps_grid_only_where_read<models::MlpClassifier>(
        "mlp", true,
        [] {
            return models::MlpClassifier(
                19, {24, 16}, 4,
                nn::QuantSpec::forward_only(core::mx6()), 71);
        },
        [&](models::MlpClassifier& a, models::MlpClassifier& b,
            const std::string& ctx) {
            EXPECT_EQ(tensor::max_abs_diff(a.logits(x, false),
                                           b.logits(x, false)),
                      0.0)
                << ctx;
        });
}

TEST(ArtifactGridShape, MlpWeightsOnlyKeepsEveryGrid)
{
    // MX9 weights under FP32 activations: the Linears cannot pair, so
    // they keep and serve on their grids even with a SIMD kernel.
    const Tensor x = fixed_input(5, 19);
    check_load_keeps_grid_only_where_read<models::MlpClassifier>(
        "mlp_weights_only", false,
        [] {
            nn::QuantSpec spec;
            spec.weight_forward = core::mx9();
            return models::MlpClassifier(19, {24, 16}, 4, spec, 72);
        },
        [&](models::MlpClassifier& a, models::MlpClassifier& b,
            const std::string& ctx) {
            EXPECT_EQ(tensor::max_abs_diff(a.logits(x, false),
                                           b.logits(x, false)),
                      0.0)
                << ctx;
        });
}

TEST(ArtifactGridShape, Gpt)
{
    const models::TransformerConfig cfg = grid_transformer_config();
    const data::SequenceBatch batch =
        token_batch(2, cfg.seq_len, cfg.vocab, 73);
    check_load_keeps_grid_only_where_read<models::GptMini>(
        "gpt", true, [&] { return models::GptMini(cfg); },
        [&](models::GptMini& a, models::GptMini& b,
            const std::string& ctx) {
            EXPECT_EQ(tensor::max_abs_diff(a.logits(batch, false),
                                           b.logits(batch, false)),
                      0.0)
                << ctx;
        });
}

TEST(ArtifactGridShape, Bert)
{
    const models::TransformerConfig cfg = grid_transformer_config();
    const data::SequenceBatch batch =
        token_batch(2, cfg.seq_len, cfg.vocab, 74);
    check_load_keeps_grid_only_where_read<models::BertMini>(
        "bert", true, [&] { return models::BertMini(cfg, 3); },
        [&](models::BertMini& a, models::BertMini& b,
            const std::string& ctx) {
            EXPECT_EQ(tensor::max_abs_diff(a.class_logits(batch, false),
                                           b.class_logits(batch, false)),
                      0.0)
                << ctx;
            EXPECT_EQ(tensor::max_abs_diff(a.qa_logits(batch, false),
                                           b.qa_logits(batch, false)),
                      0.0)
                << ctx;
        });
}

TEST(ArtifactGridShape, ResNet)
{
    stats::Rng rng(75);
    const Tensor imgs = Tensor::randn({2, 1, 8, 8}, rng);
    check_load_keeps_grid_only_where_read<models::ResNetMini>(
        "resnet", true,
        [] {
            return models::ResNetMini(
                8, 4, 3, nn::QuantSpec::forward_only(core::mx6()), 76);
        },
        [&](models::ResNetMini& a, models::ResNetMini& b,
            const std::string& ctx) {
            EXPECT_EQ(tensor::max_abs_diff(a.logits(imgs, false),
                                           b.logits(imgs, false)),
                      0.0)
                << ctx;
        });
}

TEST(ArtifactGridShape, Lstm)
{
    models::Seq2SeqConfig cfg;
    cfg.vocab = 12;
    cfg.embed_dim = 8;
    cfg.hidden_dim = 12;
    cfg.seq_len = 6;
    cfg.spec = nn::QuantSpec::forward_only(core::mx9());
    const data::SequenceBatch batch =
        token_batch(2, cfg.seq_len, cfg.vocab, 77);
    check_load_keeps_grid_only_where_read<models::LstmSeq2Seq>(
        "lstm", true, [&] { return models::LstmSeq2Seq(cfg); },
        [&](models::LstmSeq2Seq& a, models::LstmSeq2Seq& b,
            const std::string& ctx) {
            EXPECT_EQ(a.eval_loss(batch), b.eval_loss(batch)) << ctx;
            EXPECT_EQ(a.decode(batch.row(0)), b.decode(batch.row(0)))
                << ctx;
        });
}

TEST(ArtifactGridShape, DlrmWithMxEmbeddingStorage)
{
    models::DlrmConfig cfg;
    cfg.num_tables = 3;
    cfg.vocab_per_table = 8;
    cfg.embed_dim = 8;
    cfg.dense_dim = 4;
    cfg.bottom_hidden = {8};
    cfg.top_hidden = {8};
    cfg.spec = nn::QuantSpec::forward_only(core::mx6());
    cfg.embedding_storage = core::mx6();
    const data::ClickBatch batch = click_batch(cfg, 78);
    check_load_keeps_grid_only_where_read<models::DlrmMini>(
        "dlrm", true, [&] { return models::DlrmMini(cfg); },
        [&](models::DlrmMini& a, models::DlrmMini& b,
            const std::string& ctx) {
            EXPECT_EQ(a.predict(batch), b.predict(batch)) << ctx;
        });
}

// One numerics per artifact: a pairable model serves the same bits
// whichever leg froze, saved, loaded or serves it.  The inputs spread
// per-block magnitudes over 2^+-20 at K >= 1024, where an FP64
// single-rounding matmul and the packed pipeline's per-block FP32
// accumulation disagree on most outputs — so a leg that served on a
// different route would show here.

namespace {

using core::kernels::SimdLevel;

/** The SIMD levels this build and host can run (scalar always). */
std::vector<SimdLevel>
host_levels()
{
    std::vector<SimdLevel> levels = {SimdLevel::Scalar};
    if (core::kernels::avx2_supported())
        levels.push_back(SimdLevel::Avx2);
    if (core::kernels::avx512_supported())
        levels.push_back(SimdLevel::Avx512);
    return levels;
}

std::string
level_name(SimdLevel level)
{
    return level == SimdLevel::Scalar ? "scalar"
           : level == SimdLevel::Avx2 ? "avx2"
                                      : "avx512";
}

bool
same_bits(const Tensor& a, const Tensor& b)
{
    return a.same_shape(b) &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) *
                           sizeof(float)) == 0;
}

/** Scale each 16-element block of each row of @p t by its own 2^u,
 *  u ~ U(-span, span). */
void
spread_blocks(Tensor& t, double span, stats::Rng& rng)
{
    const std::int64_t cols = t.dim(t.ndim() - 1);
    for (std::int64_t i = 0; i < t.numel(); i += 16) {
        const float s = static_cast<float>(
            std::exp2(rng.uniform(-span, span)));
        for (std::int64_t c = i; c < std::min(i + 16, t.numel()) &&
                                 c / cols == i / cols;
             ++c)
            t.data()[c] *= s;
    }
}

/** spread_blocks over 2^+-8 on every 2-d parameter (Linear weights
 *  and embedding tables): every GEMM then sees wide per-block ranges,
 *  layer outputs included, which re-quantization would otherwise
 *  narrow. */
void
spread_weights(const std::vector<nn::Param*>& params, std::uint64_t seed)
{
    stats::Rng rng(seed);
    for (nn::Param* p : params)
        if (p->value.ndim() == 2)
            spread_blocks(p->value, 8.0, rng);
}

/** An N(0, 1) [rows x cols] input with spread_blocks over 2^+-20. */
Tensor
wide_input(std::int64_t rows, std::int64_t cols, std::uint64_t seed)
{
    stats::Rng rng(seed);
    Tensor x = Tensor::randn({rows, cols}, rng);
    spread_blocks(x, 20.0, rng);
    return x;
}

/**
 * Freeze a model from @p make on every leg and serve it on every leg;
 * save it on that leg, then load and serve the artifact on every leg.
 * Every output must carry the first one's bits.
 */
template <typename Model, typename Make, typename Serve>
void
expect_one_numerics_per_artifact(const std::string& what, Make make,
                                 Serve serve)
{
    const std::vector<SimdLevel> levels = host_levels();
    Tensor first;
    const auto serve_everywhere = [&](Model& model, const std::string& at) {
        for (SimdLevel serve_leg : levels) {
            core::kernels::set_simd_level(serve_leg);
            const Tensor y = serve(model);
            if (first.numel() == 0) {
                first = y;
                for (std::int64_t i = 0; i < y.numel(); ++i)
                    ASSERT_TRUE(std::isfinite(y.data()[i])) << what;
            }
            EXPECT_TRUE(same_bits(first, y))
                << what << " " << at << ", served on "
                << level_name(serve_leg);
        }
    };
    for (SimdLevel freeze_leg : levels) {
        core::kernels::set_simd_level(freeze_leg);
        Model model = make();
        model.freeze();
        const std::string path = tmp_path("legs_" + what);
        model.save_frozen(path);
        serve_everywhere(model, "frozen on " + level_name(freeze_leg));
        for (SimdLevel load_leg : levels) {
            core::kernels::set_simd_level(load_leg);
            Model loaded = Model::load_frozen(path);
            serve_everywhere(loaded, "saved on " + level_name(freeze_leg) +
                                         ", loaded on " +
                                         level_name(load_leg));
        }
    }
    core::kernels::reset_simd_level();
}

} // namespace

TEST(OneNumericsPerArtifact, LinearFreezeLegTimesServeLeg)
{
    const Tensor x = wide_input(16, 1024, 90);
    for (const auto& fmt : mx_formats()) {
        Tensor first;
        for (SimdLevel freeze_leg : host_levels()) {
            core::kernels::set_simd_level(freeze_leg);
            stats::Rng rng(91);
            nn::Linear layer(1024, 64, nn::QuantSpec::forward_only(fmt),
                             rng);
            layer.freeze();
            for (SimdLevel serve_leg : host_levels()) {
                core::kernels::set_simd_level(serve_leg);
                const Tensor y = layer.forward(x, false);
                if (first.numel() == 0)
                    first = y;
                EXPECT_TRUE(same_bits(first, y))
                    << fmt.name << " frozen on " << level_name(freeze_leg)
                    << ", served on " << level_name(serve_leg);
            }
        }
    }
    core::kernels::reset_simd_level();
}

TEST(OneNumericsPerArtifact, MlpFreezeLoadAndServeLegs)
{
    const Tensor x = wide_input(8, 1024, 92);
    for (const auto& fmt : mx_formats())
        expect_one_numerics_per_artifact<models::MlpClassifier>(
            "mlp_" + fmt.name,
            [&] {
                models::MlpClassifier mlp(
                    1024, {1024}, 8, nn::QuantSpec::forward_only(fmt), 93);
                spread_weights(mlp.params(), 96);
                return mlp;
            },
            [&](models::MlpClassifier& m) { return m.logits(x, false); });
}

TEST(OneNumericsPerArtifact, GptFreezeLoadAndServeLegs)
{
    // d_model = 256, so the FFN's down projection contracts K = 1024.
    // The spread embeddings keep wide per-block ranges through every
    // LayerNorm (it rescales a row, not its blocks).  Both serving
    // paths run: the fixed-window forward and the fused decode step
    // over the native K/V cache.
    models::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.d_model = 256;
    cfg.heads = 4;
    cfg.layers = 1;
    cfg.seq_len = 8;
    cfg.spec = nn::QuantSpec::forward_only(core::mx9());
    const data::SequenceBatch batch =
        token_batch(2, cfg.seq_len, cfg.vocab, 94);
    const std::vector<std::vector<int>> contexts = {
        {1, 5, 9, 2, 7}, {3, 3, 8, 0, 11, 4, 6, 15}};
    expect_one_numerics_per_artifact<models::GptMini>(
        "gpt",
        [&] {
            models::GptMini model(cfg);
            spread_weights(model.params(), 95);
            return model;
        },
        [&](models::GptMini& m) {
            const Tensor window = m.logits(batch, false);
            const Tensor step = m.decode_step(
                contexts, std::vector<models::GptDecodeSession*>(
                              contexts.size(), nullptr));
            Tensor both({window.numel() + step.numel()});
            std::copy(window.data(), window.data() + window.numel(),
                      both.data());
            std::copy(step.data(), step.data() + step.numel(),
                      both.data() + window.numel());
            return both;
        });
}

// =====================================================================
// 2. Corruption matrix: each failure mode -> its own typed error.
// =====================================================================

TEST(ArtifactCorruption, TruncatedBeforeAndAfterTheHeader)
{
    const std::string path = write_mlp_artifact("c_trunc");
    std::vector<std::uint8_t> good = slurp(path);

    std::vector<std::uint8_t> shorter(good.begin(), good.begin() + 40);
    spit(path, shorter);
    EXPECT_THROW(ArtifactReader r(path), TruncatedError);

    std::vector<std::uint8_t> clipped(good.begin(), good.end() - 1);
    spit(path, clipped);
    EXPECT_THROW(ArtifactReader r(path), TruncatedError);
}

TEST(ArtifactCorruption, WrongMagicIsNotAnArtifact)
{
    const std::string path = write_mlp_artifact("c_magic");
    std::vector<std::uint8_t> bytes = slurp(path);
    bytes[0] ^= 0xFF;
    spit(path, bytes);
    EXPECT_THROW(ArtifactReader r(path), BadMagicError);
}

TEST(ArtifactCorruption, UnknownVersionRejectedBeforeChecksums)
{
    const std::string path = write_mlp_artifact("c_ver");
    std::vector<std::uint8_t> bytes = slurp(path);
    // Deliberately do NOT refix the header CRC: the version gate must
    // fire first, so a future generation reads as "unsupported
    // version", never as "corrupt".
    put_u32(bytes, 8, kVersion + 7);
    spit(path, bytes);
    EXPECT_THROW(ArtifactReader r(path), UnsupportedVersionError);
}

TEST(ArtifactCorruption, FlippedBitInEachChecksummedSection)
{
    const std::string path = write_mlp_artifact("c_flip");
    const std::vector<std::uint8_t> good = slurp(path);
    const std::uint64_t coff = get_u64(good, 24);
    const std::uint64_t moff = get_u64(good, 40);

    // Header field (entry_count), config byte, manifest byte, payload
    // byte (the file's last byte lies inside the last payload).
    const std::size_t spots[] = {20, static_cast<std::size_t>(coff),
                                 static_cast<std::size_t>(moff),
                                 good.size() - 1};
    for (std::size_t spot : spots) {
        std::vector<std::uint8_t> bytes = good;
        bytes[spot] ^= 0x40;
        spit(path, bytes);
        EXPECT_THROW(ArtifactReader r(path), ChecksumError)
            << "flipped byte " << spot;
    }
}

TEST(ArtifactCorruption, SectionOffsetOutOfRange)
{
    const std::string path = write_mlp_artifact("c_range");
    std::vector<std::uint8_t> bytes = slurp(path);
    put_u64(bytes, 40, bytes.size() + 64); // manifest offset past EOF
    refix_header_crc(bytes);               // checksum layer passes
    spit(path, bytes);
    EXPECT_THROW(ArtifactReader r(path), RangeError);
}

TEST(ArtifactCorruption, PayloadOffsetOutOfRange)
{
    const std::string path = write_mlp_artifact("c_prange");
    std::vector<std::uint8_t> bytes = slurp(path);

    // Entry 0's fixed-width tail is offset|size|bits (u64 each) + crc
    // (u32); locate it by re-serializing the parsed entry.
    ArtifactReader good(path);
    ByteWriter entry0;
    write_entry(entry0, good.entries()[0]);
    const std::uint64_t moff = get_u64(bytes, 40);
    const std::size_t field =
        static_cast<std::size_t>(moff) + entry0.data().size() - 28;
    ASSERT_EQ(get_u64(bytes, field), good.entries()[0].payload_offset);

    put_u64(bytes, field, bytes.size()); // offset+size reaches past EOF
    refix_all_crcs(bytes);               // corruption survives checksums
    spit(path, bytes);
    EXPECT_THROW(ArtifactReader r(path), RangeError);
}

TEST(ArtifactCorruption, ManifestEnumAndPlanGates)
{
    const std::string path = write_mlp_artifact("c_schema");
    const std::vector<std::uint8_t> good = slurp(path);
    const std::uint64_t moff = get_u64(good, 40);
    // Entry record: u32 name_len | name | u8 kind | u8 frozen |
    // u8 has_spec | u8 rounding | ...
    const std::uint64_t name_len = get_u64(good, moff) & 0xFFFFFFFFu;
    const std::size_t kind_at =
        static_cast<std::size_t>(moff + 4 + name_len);

    // Unknown EntryKind code -> SchemaError (CRCs all pass).
    {
        std::vector<std::uint8_t> bytes = good;
        bytes[kind_at] = 9;
        refix_all_crcs(bytes);
        spit(path, bytes);
        EXPECT_THROW(ArtifactReader r(path), SchemaError);
    }

    // A hand-crafted stochastic rounding plan -> UnsupportedPlanError:
    // the load half of the freeze-time rejection (format.h invariant).
    {
        std::vector<std::uint8_t> bytes = good;
        bytes[kind_at + 3] =
            static_cast<std::uint8_t>(core::RoundingMode::Stochastic);
        refix_all_crcs(bytes);
        spit(path, bytes);
        EXPECT_THROW(ArtifactReader r(path), UnsupportedPlanError);
    }
}

TEST(ArtifactCorruption, WrongFamilyAndWrongArchitecture)
{
    const std::string path = write_mlp_artifact("c_family");
    // An MLP artifact is not a GPT artifact...
    EXPECT_THROW(models::GptMini::load_frozen(path), SchemaError);

    // ...and an MLP with a different layer stack collects a different
    // slot count than the file holds.
    ArtifactReader reader(path);
    models::MlpClassifier other(19, {16, 8}, 4, nn::QuantSpec::fp32(),
                                51);
    std::vector<nn::FrozenStateRef> refs;
    other.collect_state("", refs);
    EXPECT_THROW(reader.load_into(refs), SchemaError);
}

TEST(ArtifactCorruption, MissingFileIsAnIoError)
{
    EXPECT_THROW(ArtifactReader r(tmp_path("does_not_exist")),
                 ArtifactIoError);
}

// =====================================================================
// 3. Golden artifact: the version-1 bytes are pinned forever.
// =====================================================================

namespace {

/** The exact model the committed golden artifact froze. */
models::MlpClassifier
golden_model()
{
    models::MlpClassifier mlp(12, {8}, 3,
                              nn::QuantSpec::forward_only(core::mx6()),
                              77);
    mlp.freeze();
    return mlp;
}

std::string
golden_path()
{
    return std::string(MX_TEST_DATA_DIR) + "/golden_mlp_mx6.mxfrozen";
}

} // namespace

TEST(GoldenArtifact, DecodesBitExactly)
{
    // Regeneration escape hatch for INTENTIONAL format changes:
    //   MX_REGEN_GOLDEN=1 ./test_artifact
    //       --gtest_filter=GoldenArtifact.DecodesBitExactly
    if (core::env::flag_knob("MX_REGEN_GOLDEN", false))
        golden_model().save_frozen(golden_path());

    models::MlpClassifier loaded =
        models::MlpClassifier::load_frozen(golden_path());
    ASSERT_TRUE(loaded.frozen());
    models::MlpClassifier expect = golden_model();
    Tensor x = fixed_input(4, 12);
    EXPECT_EQ(tensor::max_abs_diff(expect.logits(x, false),
                                   loaded.logits(x, false)),
              0.0);
}

TEST(GoldenArtifact, WriterStillProducesTheExactBytes)
{
    // Byte-for-byte writer stability: any layout drift fails here and
    // must come with a kVersion bump + golden regeneration.
    models::MlpClassifier mlp = golden_model();
    const std::string path = tmp_path("golden_rewrite");
    mlp.save_frozen(path);
    EXPECT_EQ(slurp(path), slurp(golden_path()));
}
