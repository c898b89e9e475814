/**
 * @file
 * Freeze-and-serve property tests: a frozen layer/model's eval forward
 * on the dequantized-values path must be bit-identical to the
 * fake-quant forward for every layer type, across MX9/MX6/MX4; the
 * FrozenTensor packed artifact must decode back to exactly the cached
 * grid values (including ragged row widths whose blocks end in short
 * tails).
 *
 * A frozen Linear whose weight pairs with its activation format serves
 * on the packed-domain mx_gemm path on every kernel; that path is
 * pinned separately in tests/test_gemm.cpp (it accumulates across
 * blocks in FP32, so its general contract is FP32-accumulation
 * agreement plus QSNR floors), and its freeze-leg x serve-leg bit
 * identity in tests/test_artifact.cpp.  The pairable-Linear cases here
 * use shapes of at most a few blocks, where both paths give the same
 * bits.  A suite-wide environment pins the scalar kernels; layers that
 * read their grid (Conv2d, Lstm, Embedding) run both dispatch legs.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/kernels/dispatch.h"
#include "core/quantize.h"
#include "formats/block_codec.h"
#include "gemm/packed_gemm.h"
#include "models/dlrm_mini.h"
#include "models/lstm_seq2seq.h"
#include "models/mlp.h"
#include "models/resnet_mini.h"
#include "models/transformer.h"
#include "nn/frozen.h"
#include "nn/layernorm.h"
#include "nn/quant.h"
#include "obs/obs.h"
#include "stats/rng.h"

using namespace mx;
using namespace mx::nn;
using tensor::Tensor;

namespace {

/** Pin the scalar kernels for the whole suite. */
class ValuesPathEnvironment : public ::testing::Environment
{
  public:
    void SetUp() override { core::kernels::set_force_scalar(true); }
    void TearDown() override { core::kernels::set_force_scalar(false); }
};

[[maybe_unused]] const ::testing::Environment* const kValuesPath =
    ::testing::AddGlobalTestEnvironment(new ValuesPathEnvironment);

/** Run @p body once per kernel dispatch leg, ending on the suite's
 *  scalar pin. */
template <typename Fn>
void
for_each_dispatch(Fn&& body)
{
    for (int leg = 0; leg < 2; ++leg) {
        core::kernels::set_force_scalar(leg == 1);
        body(leg == 1 ? "scalar" : "default");
    }
}

/** Packed GEMMs executed so far (proves which route a forward took). */
std::uint64_t
gemm_calls()
{
    return obs::counter("gemm.calls").value();
}

std::vector<core::BdrFormat>
mx_formats()
{
    return {core::mx9(), core::mx6(), core::mx4()};
}

} // namespace

TEST(FrozenTensor, SnapshotMatchesQuantizeRowsAndPackedRoundTrips)
{
    stats::Rng rng(11);
    for_each_dispatch([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            // 48 is a whole number of k1=16 blocks; 19 forces a ragged
            // 3-element tail block on every row.
            for (std::int64_t cols : {48, 19}) {
                Tensor w = Tensor::randn({5, cols}, rng, 2.0f);
                FrozenTensor f = FrozenTensor::build(w, fmt);
                ASSERT_TRUE(f.valid());
                EXPECT_TRUE(f.quantized());
                ASSERT_TRUE(f.packed().has_value());
                ASSERT_TRUE(f.plan().has_value());

                Tensor q = quantize_rows(w, fmt);
                EXPECT_EQ(tensor::max_abs_diff(f.values(), q), 0.0)
                    << fmt.name << " cols=" << cols << " leg=" << leg;

                // The packed stream is a real container: decode gives
                // back exactly the cached grid values, and its size is
                // the per-row codec size (blocks never straddle rows).
                EXPECT_EQ(tensor::max_abs_diff(f.unpacked(), f.values()),
                          0.0)
                    << fmt.name << " cols=" << cols << " leg=" << leg;
                EXPECT_EQ(f.packed()->bit_size,
                          5 * formats::packed_bits(
                                  fmt, static_cast<std::size_t>(cols)));
                EXPECT_LT(f.bits_per_element(), 32.0);
            }
        }
    });
}

TEST(FrozenTensor, Fp32PassthroughAndStochasticRejected)
{
    stats::Rng rng(12);
    Tensor w = Tensor::randn({3, 8}, rng);
    FrozenTensor f = FrozenTensor::build(w, std::nullopt);
    ASSERT_TRUE(f.valid());
    EXPECT_FALSE(f.quantized());
    EXPECT_FALSE(f.packed().has_value());
    EXPECT_EQ(tensor::max_abs_diff(f.values(), w), 0.0);
    EXPECT_EQ(f.bits_per_element(), 32.0);
    EXPECT_EQ(tensor::max_abs_diff(f.unpacked(), w), 0.0);

    EXPECT_THROW(FrozenTensor::build(w, core::mx9(),
                                     core::RoundingMode::Stochastic),
                 ArgumentError);
}

TEST(RaggedQuantizeRows, KernelPathMatchesPerRowReferenceAndIsRowLocal)
{
    stats::Rng rng(13);
    const std::int64_t rows = 4, cols = 19; // 16 + 3-element tail
    for_each_dispatch([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            Tensor t = Tensor::randn({rows, cols}, rng, 3.0f);
            t.at(0, 0) = 1e4f; // must not disturb other rows' scaling
            Tensor q = quantize_rows(t, fmt);
            core::Rounder rounder;
            for (std::int64_t r = 0; r < rows; ++r) {
                std::vector<float> row(t.data() + r * cols,
                                       t.data() + (r + 1) * cols);
                std::vector<float> expect(static_cast<std::size_t>(cols));
                core::quantize_pow2(fmt, row, expect, rounder);
                for (std::int64_t j = 0; j < cols; ++j)
                    EXPECT_EQ(q.at(r, j),
                              expect[static_cast<std::size_t>(j)])
                        << fmt.name << " row " << r << " col " << j
                        << " leg=" << leg;
            }
        }
    });
}

TEST(FrozenLinear, BitIdenticalEvalForward)
{
    for (const auto& fmt : mx_formats()) {
        // 19 inputs exercise the ragged row-tail end to end.
        for (std::int64_t in : {32, 19}) {
            stats::Rng rng(21);
            Linear layer(in, 8, QuantSpec::forward_only(fmt), rng);
            Tensor x = Tensor::randn({4, in}, rng, 2.0f);
            Tensor fake = layer.forward(x, false);
            layer.freeze();
            ASSERT_TRUE(layer.frozen());
            Tensor frozen = layer.forward(x, false);
            EXPECT_EQ(tensor::max_abs_diff(fake, frozen), 0.0)
                << fmt.name << " in=" << in;
        }
    }
}

TEST(FrozenLinear, WeightActivationSplitBitIdentical)
{
    // Table IV (w, a) pairs: weights MX4, activations MX9.
    stats::Rng rng(22);
    Linear layer(32, 8,
                 QuantSpec::weights_activations(core::mx4(),
                                                core::mx9()),
                 rng);
    Tensor x = Tensor::randn({4, 32}, rng);
    Tensor fake = layer.forward(x, false);
    layer.freeze();
    EXPECT_EQ(layer.frozen_weight().format()->name, "MX4");
    Tensor frozen = layer.forward(x, false);
    EXPECT_EQ(tensor::max_abs_diff(fake, frozen), 0.0);
}

TEST(FrozenConv2d, BitIdenticalEvalForward)
{
    for_each_dispatch([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            stats::Rng rng(23);
            Conv2d conv(3, 5, 3, 1, 1, QuantSpec::forward_only(fmt), rng);
            Tensor x = Tensor::randn({2, 3, 6, 6}, rng);
            Tensor fake = conv.forward(x, false);
            conv.freeze();
            Tensor frozen = conv.forward(x, false);
            EXPECT_EQ(tensor::max_abs_diff(fake, frozen), 0.0)
                << fmt.name << " leg=" << leg;
        }
    });
}

TEST(FrozenAttention, BitIdenticalEvalForward)
{
    for (const auto& fmt : mx_formats()) {
        stats::Rng rng(24);
        MultiHeadAttention attn(32, 2, 8, /*causal=*/true,
                                QuantSpec::forward_only(fmt), rng);
        Tensor x = Tensor::randn({2 * 8, 32}, rng);
        Tensor fake = attn.forward(x, false);
        attn.freeze();
        ASSERT_TRUE(attn.frozen());
        Tensor frozen = attn.forward(x, false);
        EXPECT_EQ(tensor::max_abs_diff(fake, frozen), 0.0)
            << fmt.name;
    }
}

TEST(FrozenAttention, PackedRouteBitMatchesFakeQuantAtSingleBlockShapes)
{
    // At single-block shapes (d_model = head_dim = 16, seq_len <= 16)
    // every contraction in the layer — all four projections, Q K^T,
    // and P V — spans one k1 block, where the packed kernels are exact
    // (one shared scale, one double->float rounding on either path).
    // So the frozen forward on the packed route must match the
    // unfrozen fake-quant forward bit-for-bit, not merely to
    // accumulation tolerance, on every gemm kernel.
    using core::kernels::SimdLevel;
    for (SimdLevel level :
         {SimdLevel::Avx512, SimdLevel::Avx2, SimdLevel::Scalar}) {
        for (const auto& fmt : mx_formats()) {
            core::kernels::set_simd_level(SimdLevel::Avx512);
            stats::Rng rng(41);
            MultiHeadAttention attn(16, 1, 8, /*causal=*/true,
                                    QuantSpec::forward_only(fmt), rng);
            Tensor x = Tensor::randn({2 * 8, 16}, rng);
            Tensor fake = attn.forward(x, false);
            attn.freeze();
            ASSERT_TRUE(attn.frozen());
            core::kernels::set_simd_level(level);
            const std::uint64_t before = gemm_calls();
            Tensor packed = attn.forward(x, false);
            EXPECT_GT(gemm_calls(), before)
                << "packed route did not engage (" << fmt.name << ")";
            EXPECT_EQ(tensor::max_abs_diff(fake, packed), 0.0)
                << fmt.name << " level=" << static_cast<int>(level);
        }
    }
    core::kernels::set_force_scalar(true); // restore the suite pin
}

TEST(FrozenLstm, BitIdenticalEvalForward)
{
    for_each_dispatch([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            stats::Rng rng(25);
            Lstm lstm(12, 16, 6, QuantSpec::forward_only(fmt), rng);
            Tensor x = Tensor::randn({2 * 6, 12}, rng);
            LstmState s1 = lstm.initial_state(2);
            Tensor fake = lstm.forward_seq(x, s1, false);
            lstm.freeze();
            ASSERT_TRUE(lstm.frozen());
            LstmState s2 = lstm.initial_state(2);
            Tensor frozen = lstm.forward_seq(x, s2, false);
            EXPECT_EQ(tensor::max_abs_diff(fake, frozen), 0.0)
                << fmt.name << " leg=" << leg;
            EXPECT_EQ(tensor::max_abs_diff(s1.h, s2.h), 0.0);
            EXPECT_EQ(tensor::max_abs_diff(s1.c, s2.c), 0.0);
        }
    });
}

TEST(FrozenEmbedding, BitIdenticalLookupsAndTrainGuard)
{
    for_each_dispatch([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            stats::Rng rng(26);
            Embedding emb(16, 19, rng); // ragged width on purpose
            emb.set_storage_format(fmt);
            std::vector<int> ids = {0, 3, 15, 3};
            Tensor fake = emb.forward(ids, false);
            emb.freeze();
            ASSERT_TRUE(emb.frozen());
            ASSERT_TRUE(emb.frozen_table().valid());
            Tensor frozen = emb.forward(ids, false);
            EXPECT_EQ(tensor::max_abs_diff(fake, frozen), 0.0)
                << fmt.name << " leg=" << leg;
            EXPECT_THROW(emb.forward(ids, true), ArgumentError);
            emb.unfreeze();
            emb.forward(ids, true); // trainable again
        }
    });
}

TEST(FrozenLayerNorm, MarkerOnlyButTrainRejected)
{
    stats::Rng rng(27);
    LayerNorm ln(8);
    Tensor x = Tensor::randn({3, 8}, rng);
    Tensor before = ln.forward(x, false);
    ln.freeze();
    EXPECT_TRUE(ln.frozen());
    Tensor after = ln.forward(x, false);
    EXPECT_EQ(tensor::max_abs_diff(before, after), 0.0);
    EXPECT_THROW(ln.forward(x, true), ArgumentError);
    ln.unfreeze();
    ln.forward(x, true);
}

TEST(FrozenGuard, TrainForwardRejectedUntilUnfreeze)
{
    stats::Rng rng(28);
    Linear layer(8, 4, QuantSpec::uniform(core::mx9()), rng);
    Tensor x = Tensor::randn({2, 8}, rng);
    layer.freeze();
    EXPECT_THROW(layer.forward(x, true), ArgumentError);
    layer.unfreeze();
    EXPECT_FALSE(layer.frozen());
    Tensor y = layer.forward(x, true);
    layer.backward(Tensor::full(y.shape(), 1.0f)); // trains again
}

TEST(FrozenGuard, RefreezeAfterWeightUpdateResnapshots)
{
    stats::Rng rng(29);
    Linear layer(16, 4, QuantSpec::forward_only(core::mx6()), rng);
    layer.freeze();
    Tensor x = Tensor::randn({2, 16}, rng);
    Tensor before = layer.forward(x, false);
    // Mutate the weights (as an optimizer step would after unfreeze).
    layer.unfreeze();
    for (std::int64_t i = 0; i < layer.weight().value.numel(); ++i)
        layer.weight().value.data()[i] += 0.25f;
    layer.freeze();
    Tensor after = layer.forward(x, false);
    EXPECT_GT(tensor::max_abs_diff(before, after), 0.0);
    // And the refreshed snapshot matches the fake-quant path exactly.
    layer.unfreeze();
    Tensor fake = layer.forward(x, false);
    EXPECT_EQ(tensor::max_abs_diff(fake, after), 0.0);
}

TEST(FrozenModels, MlpBitIdenticalEval)
{
    models::MlpClassifier mlp(19, {24, 16}, 4,
                              QuantSpec::forward_only(core::mx6()),
                              31);
    stats::Rng rng(32);
    Tensor x = Tensor::randn({5, 19}, rng);
    Tensor fake = mlp.logits(x, false);
    mlp.freeze();
    ASSERT_TRUE(mlp.frozen());
    Tensor frozen = mlp.logits(x, false);
    EXPECT_EQ(tensor::max_abs_diff(fake, frozen), 0.0);
    EXPECT_THROW(mlp.logits(x, true), ArgumentError);
    mlp.unfreeze();
    EXPECT_FALSE(mlp.frozen());
}

TEST(FrozenModels, MlpMixedPrecisionRecipeSurvivesFreeze)
{
    // keep_first_last_fp32 freezes edge layers as FP32 passthroughs.
    models::MlpClassifier mlp(16, {24}, 4, QuantSpec::fp32(), 33);
    stats::Rng rng(34);
    Tensor x = Tensor::randn({3, 16}, rng);
    mlp.set_spec(QuantSpec::forward_only(core::mx4()),
                 /*keep_first_last_fp32=*/true);
    Tensor fake = mlp.logits(x, false);
    mlp.freeze(); // freeze under the current (mixed) specs
    Tensor frozen = mlp.logits(x, false);
    EXPECT_EQ(tensor::max_abs_diff(fake, frozen), 0.0);
}

TEST(FrozenModels, ResNetBitIdenticalEval)
{
    models::ResNetMini net(8, 4, 3,
                           QuantSpec::forward_only(core::mx6()), 35);
    stats::Rng rng(36);
    Tensor imgs = Tensor::randn({2, 1, 8, 8}, rng);
    Tensor fake = net.logits(imgs, false);
    net.freeze();
    ASSERT_TRUE(net.frozen());
    Tensor frozen = net.logits(imgs, false);
    EXPECT_EQ(tensor::max_abs_diff(fake, frozen), 0.0);
}

TEST(FrozenModels, GptBitIdenticalEval)
{
    models::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.d_model = 32;
    cfg.heads = 2;
    cfg.layers = 1;
    cfg.seq_len = 8;
    cfg.spec = QuantSpec::forward_only(core::mx9());
    models::GptMini model(cfg);
    data::SequenceBatch batch;
    batch.n = 2;
    batch.seq_len = cfg.seq_len;
    stats::Rng rng(37);
    for (int i = 0; i < batch.n * cfg.seq_len; ++i) {
        batch.tokens.push_back(
            static_cast<int>(rng.next_u64() % cfg.vocab));
        batch.labels.push_back(
            static_cast<int>(rng.next_u64() % cfg.vocab));
    }
    Tensor fake = model.logits(batch, false);
    model.freeze();
    ASSERT_TRUE(model.frozen());
    Tensor frozen = model.logits(batch, false);
    EXPECT_EQ(tensor::max_abs_diff(fake, frozen), 0.0);
    EXPECT_EQ(model.eval_loss(batch), model.eval_loss(batch));
    model.unfreeze();
    model.train_loss(batch); // trainable again
}

TEST(FrozenModels, BertBitIdenticalEvalBothHeads)
{
    models::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.d_model = 32;
    cfg.heads = 2;
    cfg.layers = 1;
    cfg.seq_len = 8;
    cfg.spec = QuantSpec::forward_only(core::mx6());
    models::BertMini model(cfg, 3);
    data::SequenceBatch batch;
    batch.n = 2;
    batch.seq_len = cfg.seq_len;
    stats::Rng rng(38);
    for (int i = 0; i < batch.n * cfg.seq_len; ++i) {
        batch.tokens.push_back(
            static_cast<int>(rng.next_u64() % cfg.vocab));
        batch.labels.push_back(0);
    }
    Tensor cls_fake = model.class_logits(batch, false);
    Tensor qa_fake = model.qa_logits(batch, false);
    model.freeze();
    ASSERT_TRUE(model.frozen());
    EXPECT_EQ(tensor::max_abs_diff(cls_fake,
                                   model.class_logits(batch, false)),
              0.0);
    EXPECT_EQ(tensor::max_abs_diff(qa_fake, model.qa_logits(batch, false)),
              0.0);
}

TEST(FrozenModels, DlrmBitIdenticalPredictions)
{
    models::DlrmConfig cfg;
    cfg.num_tables = 3;
    cfg.vocab_per_table = 8;
    cfg.embed_dim = 8;
    cfg.dense_dim = 4;
    cfg.bottom_hidden = {8};
    cfg.top_hidden = {8};
    cfg.spec = QuantSpec::forward_only(core::mx6());
    cfg.embedding_storage = core::mx6();
    models::DlrmMini model(cfg);
    data::ClickBatch batch;
    batch.n = 4;
    stats::Rng rng(39);
    batch.dense = Tensor::randn({batch.n, cfg.dense_dim}, rng);
    for (int i = 0; i < batch.n * cfg.num_tables; ++i)
        batch.categorical.push_back(
            static_cast<int>(rng.next_u64() % cfg.vocab_per_table));
    batch.labels = {0, 1, 1, 0};
    std::vector<double> fake = model.predict(batch);
    model.freeze();
    ASSERT_TRUE(model.frozen());
    std::vector<double> frozen = model.predict(batch);
    ASSERT_EQ(fake.size(), frozen.size());
    for (std::size_t i = 0; i < fake.size(); ++i)
        EXPECT_EQ(fake[i], frozen[i]);
}

TEST(FrozenModels, Seq2SeqBitIdenticalEvalAndDecode)
{
    models::Seq2SeqConfig cfg;
    cfg.vocab = 12;
    cfg.embed_dim = 8;
    cfg.hidden_dim = 12;
    cfg.seq_len = 6;
    cfg.spec = QuantSpec::forward_only(core::mx9());
    models::LstmSeq2Seq model(cfg);
    data::SequenceBatch batch;
    batch.n = 2;
    batch.seq_len = cfg.seq_len;
    stats::Rng rng(40);
    for (int i = 0; i < batch.n * cfg.seq_len; ++i) {
        batch.tokens.push_back(
            static_cast<int>(rng.next_u64() % cfg.vocab));
        batch.labels.push_back(
            static_cast<int>(rng.next_u64() % cfg.vocab));
    }
    double fake_loss = model.eval_loss(batch);
    std::vector<int> fake_decode = model.decode(batch.row(0));
    model.freeze();
    ASSERT_TRUE(model.frozen());
    EXPECT_EQ(model.eval_loss(batch), fake_loss);
    EXPECT_EQ(model.decode(batch.row(0)), fake_decode);
}

TEST(FrozenTensor, CopiesAreSharedHandlesOntoOnePayload)
{
    // Replica serving leans on this: copying a FrozenTensor is O(1)
    // and shares the packed weight artifacts instead of duplicating
    // them, so N model clones cost N sets of eval scratch, not N
    // copies of every frozen weight.
    stats::Rng rng(151);
    Tensor w = Tensor::randn({12, 24}, rng);
    FrozenTensor a = FrozenTensor::build(w, core::mx9());
    FrozenTensor b = a; // a handle, not a deep copy

    EXPECT_TRUE(b.shares_payload_with(a));
    EXPECT_EQ(a.values().data(), b.values().data());
    ASSERT_TRUE(a.packed().has_value() && b.packed().has_value());
    EXPECT_EQ(a.packed()->bytes.data(), b.packed()->bytes.data());

    // Fresh snapshots of the same weight do NOT share.
    FrozenTensor c = FrozenTensor::build(w, core::mx9());
    EXPECT_FALSE(c.shares_payload_with(a));
}
