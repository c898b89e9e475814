/**
 * @file
 * Focused component tests not covered elsewhere: the delayed scaler's
 * window semantics, MX-resident embedding storage, dropout statistics,
 * the synthetic data generators' planted structure, and failure paths.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/delayed_scaler.h"
#include "core/env.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/embedding.h"
#include "nn/quant.h"
#include "stats/metrics.h"

using namespace mx;
using tensor::Tensor;

TEST(DelayedScaler, FirstCallUsesCurrentAmax)
{
    core::DelayedScaler s(4);
    EXPECT_DOUBLE_EQ(s.update(10.0, 5.0), 2.0); // 10 / 5, just-in-time
}

TEST(DelayedScaler, SubsequentCallsUseHistoryMax)
{
    core::DelayedScaler s(4);
    s.update(10.0, 5.0);
    // Current amax 100 is ignored; history max is 10.
    EXPECT_DOUBLE_EQ(s.update(100.0, 5.0), 2.0);
    // Now 100 is in the window.
    EXPECT_DOUBLE_EQ(s.update(1.0, 5.0), 20.0);
}

TEST(DelayedScaler, WindowEvictsOldObservations)
{
    core::DelayedScaler s(2);
    s.update(100.0, 1.0); // history: {100}
    s.update(1.0, 1.0);   // history: {100, 1}
    s.update(1.0, 1.0);   // history: {1, 1} — 100 evicted
    EXPECT_DOUBLE_EQ(s.peek(5.0, 1.0), 1.0);
}

TEST(DelayedScaler, MarginAndResetAndValidation)
{
    core::DelayedScaler s(4, 2.0);
    EXPECT_DOUBLE_EQ(s.update(8.0, 4.0), 4.0); // 8 * 2 / 4
    s.reset();
    EXPECT_EQ(s.history_size(), 0u);
    EXPECT_THROW(core::DelayedScaler(0), ArgumentError);
    EXPECT_THROW(core::DelayedScaler(4, 0.0), ArgumentError);
}

TEST(DelayedScaler, AllZeroHistoryFallsBackToOne)
{
    core::DelayedScaler s(4);
    EXPECT_DOUBLE_EQ(s.update(0.0, 4.0), 1.0);
}

TEST(Embedding, StorageFormatQuantizesLookups)
{
    stats::Rng rng(1);
    nn::Embedding emb(8, 16, rng);
    std::vector<int> ids = {3};
    Tensor fp = emb.forward(ids, false);
    emb.set_storage_format(core::mx4());
    Tensor q = emb.forward(ids, false);
    // Same row but on the MX4 grid: different values, bounded error.
    EXPECT_GT(tensor::max_abs_diff(fp, q), 0.0);
    EXPECT_GT(stats::qsnr_db(fp.vec(), q.vec()), 10.0);
    emb.set_storage_format(std::nullopt);
    Tensor back = emb.forward(ids, false);
    EXPECT_EQ(tensor::max_abs_diff(fp, back), 0.0);
    EXPECT_THROW(emb.forward({9}, false), ArgumentError);
}

TEST(Embedding, BackwardScattersIntoRows)
{
    stats::Rng rng(2);
    nn::Embedding emb(4, 3, rng);
    std::vector<int> ids = {1, 1, 3};
    emb.forward(ids, true);
    Tensor g({3, 3});
    g.fill(1.0f);
    emb.backward(g);
    // Row 1 hit twice, row 3 once, rows 0/2 never.
    EXPECT_FLOAT_EQ(emb.table().grad.at(1, 0), 2.0f);
    EXPECT_FLOAT_EQ(emb.table().grad.at(3, 2), 1.0f);
    EXPECT_FLOAT_EQ(emb.table().grad.at(0, 0), 0.0f);
}

TEST(Dropout, KeepsExpectationAndMasksBackward)
{
    nn::Dropout drop(0.5, 7);
    Tensor x = Tensor::full({64, 64}, 1.0f);
    Tensor y = drop.forward(x, true);
    double mean = 0;
    std::int64_t zeros = 0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
        mean += y.data()[i];
        zeros += y.data()[i] == 0.0f;
    }
    mean /= static_cast<double>(y.numel());
    EXPECT_NEAR(mean, 1.0, 0.05);           // inverted scaling
    EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.5, 0.05);
    // Backward uses the identical mask.
    Tensor g = drop.backward(x);
    for (std::int64_t i = 0; i < y.numel(); ++i)
        EXPECT_EQ(g.data()[i], y.data()[i]);
    // Eval mode is the identity.
    Tensor e = drop.forward(x, false);
    EXPECT_EQ(tensor::max_abs_diff(e, x), 0.0);
}

TEST(SyntheticData, MarkovStreamIsCompressible)
{
    // The planted order-2 structure must make bigram prediction beat the
    // uniform baseline by a wide margin (that is what the LM learns).
    data::MarkovText corpus(16, 99);
    stats::Rng rng(1);
    auto s = corpus.stream(60000, rng);
    std::vector<std::vector<int>> counts(
        16 * 16, std::vector<int>(16, 0));
    for (std::size_t i = 2; i < s.size(); ++i)
        ++counts[static_cast<std::size_t>(s[i - 2] * 16 + s[i - 1])]
                [static_cast<std::size_t>(s[i])];
    double nll = 0;
    std::int64_t n = 0;
    for (const auto& row : counts) {
        int total = 0;
        for (int c : row)
            total += c;
        if (total == 0)
            continue;
        for (int c : row) {
            if (c == 0)
                continue;
            nll -= c * std::log(static_cast<double>(c) / total);
            n += c;
        }
    }
    double entropy = nll / static_cast<double>(n);
    EXPECT_LT(entropy, 1.8);               // far below log(16) = 2.77
}

TEST(SyntheticData, TranslationIsDeterministicBijection)
{
    data::TranslationPairs task(12, 5, 3);
    std::vector<int> src = {1, 5, 9, 0, 3};
    auto t1 = task.translate(src);
    auto t2 = task.translate(src);
    EXPECT_EQ(t1, t2);
    // Reversal structure: translating the first token lands at the end.
    data::TranslationPairs id_check(12, 5, 3);
    EXPECT_EQ(id_check.translate(src).size(), src.size());
}

TEST(SyntheticData, ClickLogsHaveLearnableSignal)
{
    data::ClickLogs task(4, 32, 4, 11);
    stats::Rng rng(2);
    auto b = task.sample(4000, rng);
    // The planted logistic model itself must beat random AUC by a lot;
    // approximate with a single dense feature's correlation direction.
    double pos = 0;
    for (int l : b.labels)
        pos += l;
    EXPECT_GT(pos, 400);             // not degenerate
    EXPECT_LT(pos, 3600);
}

TEST(SyntheticData, SpanQaLabelsInsideSequence)
{
    data::SpanQa task(4, 24, 16, 5);
    stats::Rng rng(3);
    auto b = task.sample(200, rng);
    for (std::int64_t i = 0; i < b.n; ++i) {
        int s = b.labels[static_cast<std::size_t>(2 * i)];
        int e = b.labels[static_cast<std::size_t>(2 * i + 1)];
        ASSERT_GE(s, 1);
        ASSERT_LE(e, 15);
        ASSERT_LE(s, e);
        // The answer tokens really are the question's alphabet.
        int q = b.tokens[static_cast<std::size_t>(i * 16)];
        for (int p = s; p <= e; ++p)
            ASSERT_EQ(b.tokens[static_cast<std::size_t>(i * 16 + p)],
                      4 + q);
    }
}

TEST(QuantizeRows, RejectsNon2d)
{
    Tensor t({2, 2, 2});
    EXPECT_THROW(nn::quantize_rows(t, core::mx9()), ArgumentError);
}

TEST(EnvKnobs, SizeAndFlagShareOneRuleSet)
{
    // Unset/empty -> fallback, silently.
    ::unsetenv("MX_TEST_KNOB");
    EXPECT_EQ(core::env::size_knob("MX_TEST_KNOB", 7), 7u);
    EXPECT_TRUE(core::env::flag_knob("MX_TEST_KNOB", true));
    ::setenv("MX_TEST_KNOB", "", 1);
    EXPECT_EQ(core::env::size_knob("MX_TEST_KNOB", 7), 7u);

    // Sizes: plain decimals, trimmed; non-numeric junk falls back (with
    // one stderr warning per variable, not asserted here), but a
    // NUMERIC value below the floor clamps to min_value — an operator
    // asking for "0 threads" means the minimum, not the pool-sized
    // default (MX_GEMM_THREADS=0 silently configuring full fan-out
    // would be the exact inversion of the request).
    ::setenv("MX_TEST_KNOB", " 42 ", 1);
    EXPECT_EQ(core::env::size_knob("MX_TEST_KNOB", 7), 42u);
    ::setenv("MX_TEST_KNOB", "42x", 1);
    EXPECT_EQ(core::env::size_knob("MX_TEST_KNOB", 7), 7u);
    ::setenv("MX_TEST_KNOB", "-3", 1);
    EXPECT_EQ(core::env::size_knob("MX_TEST_KNOB", 7), 1u)
        << "negative clamps to the default min_value of 1";
    ::setenv("MX_TEST_KNOB", "0", 1);
    EXPECT_EQ(core::env::size_knob("MX_TEST_KNOB", 7), 1u)
        << "0 clamps to the default min_value of 1";
    EXPECT_EQ(core::env::size_knob("MX_TEST_KNOB", 7, /*min_value=*/0),
              0u);
    ::setenv("MX_TEST_KNOB", "2", 1);
    EXPECT_EQ(core::env::size_knob("MX_TEST_KNOB", 7, /*min_value=*/4),
              4u)
        << "the floor applies to any numeric value, not just signs";

    // Flags: 1/true/on/yes and 0/false/off/no, any case; the old
    // MX_FORCE_SCALAR parser treated "false" as true — pinned fixed.
    ::setenv("MX_TEST_KNOB", "TRUE", 1);
    EXPECT_TRUE(core::env::flag_knob("MX_TEST_KNOB", false));
    ::setenv("MX_TEST_KNOB", "off", 1);
    EXPECT_FALSE(core::env::flag_knob("MX_TEST_KNOB", true));
    ::setenv("MX_TEST_KNOB", "false", 1);
    EXPECT_FALSE(core::env::flag_knob("MX_TEST_KNOB", true));
    ::setenv("MX_TEST_KNOB", "maybe", 1);
    EXPECT_TRUE(core::env::flag_knob("MX_TEST_KNOB", true));
    EXPECT_FALSE(core::env::flag_knob("MX_TEST_KNOB", false));

    ::unsetenv("MX_TEST_KNOB");
}
