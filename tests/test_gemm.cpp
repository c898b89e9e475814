/**
 * @file
 * Packed-domain GEMM property tests (the Figure 6 execution pipeline):
 *
 *  - the FP32 matmul oracle the packed GEMM's QSNR is measured against
 *    (tensor::matmul_nt / nn::qmatmul_nt pinned to a naive
 *    double-accumulation reference across random shapes, ragged k1
 *    tails included, on both kernel dispatch legs);
 *  - scalar, AVX2 and AVX-512/VNNI packed kernels bit-identical for
 *    every MX format pair across shapes, ragged widths, and magnitude
 *    spreads (the AVX-512 suite auto-skips where the host lacks the
 *    ISA), and every entry point bit-identical across MX_GEMM_THREADS
 *    lane counts on tile-crossing shapes;
 *  - PackedOperand::decode / decode_rows equal a field-by-field,
 *    byte-at-a-time oracle (codec_oracle.h) on random streams of every
 *    pow2 format with a gemm view, every exponent code, and ragged,
 *    bit-contiguous and truncated streams;
 *  - packed execution agrees with the dequantized reference matmul to
 *    FP32-accumulation tolerance, and QSNR vs the FP32 oracle clears
 *    the pinned per-format floor;
 *  - a frozen nn::Linear / nn::MultiHeadAttention whose weight pairs
 *    with its activation format routes through mx_gemm on every kernel
 *    and holds no dequantized weight copy, whichever leg froze it;
 *  - hw::DotProductPipeline, an independently written Figure 6 model,
 *    agrees bit for bit with single-block GEMMs of every pow2 format in
 *    the design-space sweep that has a gemm view.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/kernels/dispatch.h"
#include "core/thread_pool.h"
#include "gemm/gemm_plan.h"
#include "gemm/packed_gemm.h"
#include "gemm/packed_operand.h"
#include "hw/pipeline.h"
#include "nn/attention.h"
#include "nn/frozen.h"
#include "nn/linear.h"
#include "nn/quant.h"
#include "obs/obs.h"
#include "stats/rng.h"
#include "sweep/design_space.h"
#include "tensor/tensor.h"

#include "codec_oracle.h"

using namespace mx;
using core::kernels::QuantPlan;
using core::kernels::make_quant_plan;
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

/** Run @p body once per SIMD level this host/build can execute,
 *  pinned via the dispatch test hook; restores the env resolution. */
template <typename Fn>
void
for_each_simd_level(Fn&& body)
{
    namespace ck = core::kernels;
    ck::set_simd_level(ck::SimdLevel::Scalar);
    body("scalar");
    if (ck::avx2_supported()) {
        ck::set_simd_level(ck::SimdLevel::Avx2);
        body("avx2");
    }
    if (ck::avx512_supported()) {
        ck::set_simd_level(ck::SimdLevel::Avx512);
        body("avx512");
    }
    ck::reset_simd_level();
}

std::vector<core::BdrFormat>
mx_formats()
{
    return {core::mx9(), core::mx6(), core::mx4()};
}

/** Random [rows x cols] with per-row magnitude spread: some rows pick
 *  up a large scale so block exponents differ across the row walk. */
Tensor
spread_randn(std::int64_t rows, std::int64_t cols, stats::Rng& rng)
{
    Tensor t = Tensor::randn({rows, cols}, rng, 1.0f);
    for (std::int64_t r = 0; r < rows; ++r) {
        const double s = std::pow(10.0, rng.uniform(-3.0, 3.0));
        for (std::int64_t c = 0; c < cols; ++c)
            t.data()[r * cols + c] *= static_cast<float>(s);
    }
    // An all-zero row exercises the e_min / tau=beta encoding.
    if (rows > 2)
        for (std::int64_t c = 0; c < cols; ++c)
            t.data()[2 * cols + c] = 0.0f;
    return t;
}

/** Random [rows x cols] whose scale changes per k1 block inside each
 *  row: every 16-element block draws its own 2^u, u ~ U(-20, 20), so
 *  each output's FP32 block chain crosses exponents (spread_randn only
 *  spreads per row, so a row's blocks share one magnitude). */
Tensor
block_spread_randn(std::int64_t rows, std::int64_t cols, stats::Rng& rng)
{
    Tensor t = Tensor::randn({rows, cols}, rng, 1.0f);
    for (std::int64_t r = 0; r < rows; ++r)
        for (std::int64_t c0 = 0; c0 < cols; c0 += 16) {
            const float s =
                static_cast<float>(std::exp2(rng.uniform(-20.0, 20.0)));
            for (std::int64_t c = c0; c < std::min(cols, c0 + 16); ++c)
                t.data()[r * cols + c] *= s;
        }
    return t;
}

/** The input generators the bit-identity and oracle suites sweep. */
using Generator = Tensor (*)(std::int64_t, std::int64_t, stats::Rng&);
struct NamedGenerator
{
    const char* name;
    Generator make;
};
const NamedGenerator kGenerators[] = {{"row_spread", spread_randn},
                                      {"block_spread", block_spread_randn}};

/** First flat index where @p a and @p b differ bit for bit (any NaN
 *  matches any NaN), or -1 when they are identical. */
std::int64_t
first_bit_mismatch(const Tensor& a, const Tensor& b)
{
    if (a.numel() != b.numel())
        return 0;
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        const float x = a.data()[i], y = b.data()[i];
        if (std::bit_cast<std::uint32_t>(x) !=
                std::bit_cast<std::uint32_t>(y) &&
            !(std::isnan(x) && std::isnan(y)))
            return i;
    }
    return -1;
}

/** Naive triple-loop double-accumulation reference for C = A * B^T. */
Tensor
matmul_nt_reference(const Tensor& a, const Tensor& b)
{
    const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    Tensor c({m, n});
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t kk = 0; kk < k; ++kk)
                acc += static_cast<double>(a.data()[i * k + kk]) *
                       b.data()[j * k + kk];
            c.data()[i * n + j] = static_cast<float>(acc);
        }
    return c;
}

double
max_abs(const Tensor& t)
{
    double m = 0.0;
    for (std::int64_t i = 0; i < t.numel(); ++i)
        m = std::max(m, std::fabs(static_cast<double>(t.data()[i])));
    return m;
}

} // namespace

// ---------------------------------------------------------------------------
// The FP32 matmul oracle (satellite): pin tensor::matmul_nt and
// nn::qmatmul_nt to the naive double-accumulation reference.
// ---------------------------------------------------------------------------

TEST(MatmulOracle, MatmulNtMatchesNaiveDoubleReference)
{
    stats::Rng rng(101);
    const std::int64_t shapes[][3] = {
        {1, 1, 1}, {3, 19, 5}, {8, 16, 8}, {7, 35, 11}, {16, 64, 16}};
    for (const auto& s : shapes) {
        Tensor a = spread_randn(s[0], s[1], rng);
        Tensor b = spread_randn(s[2], s[1], rng);
        Tensor got = tensor::matmul_nt(a, b);
        Tensor want = matmul_nt_reference(a, b);
        EXPECT_EQ(tensor::max_abs_diff(got, want), 0.0)
            << "[" << s[0] << "," << s[1] << "," << s[2] << "]";
    }
}

TEST(MatmulOracle, QmatmulNtMatchesQuantizeThenOracleBothLegs)
{
    stats::Rng rng(102);
    for_each_dispatch([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            // 19 and 35 end every row in a ragged k1 tail block.
            for (std::int64_t k : {16, 19, 35, 64}) {
                Tensor a = spread_randn(4, k, rng);
                Tensor b = spread_randn(6, k, rng);
                Tensor got = nn::qmatmul_nt(a, b, fmt);
                Tensor want = matmul_nt_reference(
                    nn::quantize_rows(a, fmt), nn::quantize_rows(b, fmt));
                EXPECT_EQ(tensor::max_abs_diff(got, want), 0.0)
                    << fmt.name << " k=" << k << " leg=" << leg;
            }
        }
    });
}

// ---------------------------------------------------------------------------
// GemmPlan pairing rules.
// ---------------------------------------------------------------------------

TEST(GemmPlan, MxPairsAreCompatibleAndPlanned)
{
    for (const auto& fa : mx_formats()) {
        for (const auto& fb : mx_formats()) {
            const QuantPlan a = make_quant_plan(fa), b = make_quant_plan(fb);
            ASSERT_TRUE(gemm::gemm_compatible(a, b))
                << fa.name << " x " << fb.name;
            const gemm::GemmPlan p = gemm::make_gemm_plan(a, b);
            EXPECT_EQ(p.g, 2);
            EXPECT_EQ(p.budget, 2);
            EXPECT_EQ(p.exp_bias, (a.m - 1) + (b.m - 1) + 2);
        }
    }
}

TEST(GemmPlan, BfpSideUsesBlockConstantShift)
{
    const QuantPlan mx = make_quant_plan(core::mx9());
    const QuantPlan bfp = make_quant_plan(core::msfp16());
    ASSERT_TRUE(gemm::gemm_compatible(mx, bfp));
    const gemm::GemmPlan p = gemm::make_gemm_plan(mx, bfp);
    EXPECT_EQ(p.g, 2);       // governed by the MX side's k2
    EXPECT_EQ(p.budget, 1);  // only the MX side shifts
}

TEST(GemmPlan, MismatchedK1AndWideMantissaRejected)
{
    const QuantPlan a = make_quant_plan(core::mx9());
    const QuantPlan b32 = make_quant_plan(core::mx_custom(7, 8, 32, 1, 2));
    EXPECT_FALSE(gemm::gemm_compatible(a, b32));
    EXPECT_THROW(gemm::make_gemm_plan(a, b32), ArgumentError);

    const QuantPlan wide = make_quant_plan(core::bfp_custom(23, 8, 16));
    EXPECT_FALSE(gemm::operand_eligible(wide));
    EXPECT_FALSE(gemm::gemm_compatible(a, wide));

    // A shift budget whose aligned mantissas would not fit int32 (no
    // format reaches it: pow2 sub-scales stop at d2 = 4, beta = 15).
    QuantPlan steep = make_quant_plan(core::mx_custom(2, 8, 16, 4, 2));
    steep.beta = 30;
    EXPECT_FALSE(gemm::gemm_compatible(a, steep));
    EXPECT_THROW(gemm::make_gemm_plan(a, steep), ArgumentError);
}

// ---------------------------------------------------------------------------
// PackedOperand: the decoded view equals the quantize-time encodings
// and exposes per-row stream offsets.
// ---------------------------------------------------------------------------

TEST(PackedOperand, DecodeEqualsQuantizeAndRowOffsetsAreUniform)
{
    stats::Rng rng(103);
    for (const auto& fmt : mx_formats()) {
        for (std::int64_t cols : {48, 19}) {
            Tensor w = spread_randn(5, cols, rng);
            nn::FrozenTensor f = nn::FrozenTensor::build(w, fmt);
            ASSERT_TRUE(f.gemm_operand().has_value()) << fmt.name;
            const gemm::PackedOperand& dec = *f.gemm_operand();

            const QuantPlan plan = make_quant_plan(fmt);
            core::Rounder rounder;
            const gemm::PackedOperand enc = gemm::PackedOperand::quantize(
                plan, w.data(), 5, static_cast<std::size_t>(cols),
                rounder);

            ASSERT_EQ(dec.rows(), enc.rows());
            ASSERT_EQ(dec.cols(), enc.cols());
            for (std::size_t r = 0; r < dec.rows(); ++r) {
                for (std::size_t c = 0; c < dec.cols(); ++c)
                    EXPECT_EQ(dec.row_mantissa(r)[c], enc.row_mantissa(r)[c])
                        << fmt.name << " [" << r << "," << c << "]";
                for (std::size_t s = 0; s < dec.subs_per_row(); ++s)
                    EXPECT_EQ(dec.row_tau(r)[s], enc.row_tau(r)[s]);
                for (std::size_t b = 0; b < dec.blocks_per_row(); ++b)
                    EXPECT_EQ(dec.row_exp(r)[b], enc.row_exp(r)[b]);
                EXPECT_EQ(dec.row_bit_offset(r),
                          r * gemm::row_bits(plan,
                                             static_cast<std::size_t>(
                                                 cols)));
            }
            // The view is an integer artifact: smaller than the FP32
            // tensor it replaces.
            EXPECT_LT(dec.memory_bytes(),
                      static_cast<std::size_t>(w.numel()) * sizeof(float));
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel semantics: dequantized-reference agreement, QSNR floors, and
// scalar/AVX2 bit-identity.
// ---------------------------------------------------------------------------

namespace {

struct GemmCase
{
    std::int64_t m, k, n;
};

const GemmCase kCases[] = {
    {1, 16, 1},    {4, 19, 6},    {8, 64, 16},  {5, 35, 9},
    {16, 128, 24}, {3, 256, 7},
    // The column-group kernels' shapes: full 16-column groups plus a
    // ragged remainder; an odd full-block count with a ragged K tail
    // (the tail pairs with a full block); a lone full trailing block;
    // K past kPanelBlocks * 16 = 512, so the second panel reloads C;
    // and the decode / prefill projection shapes.
    {4, 64, 40},   {3, 87, 20},   {4, 56, 17},  {2, 80, 33},
    {8, 1024, 40}, {8, 256, 1024}, {48, 1024, 256}};

/** Per-format QSNR floor of a packed GEMM against the FP32 oracle on
 *  Gaussian operands — dominated by the quantization error of the two
 *  operands (measured ~43/~25/~13 dB), pinned with generous margin so
 *  only a real execution bug can trip it. */
double
qsnr_floor(const core::BdrFormat& fmt)
{
    if (fmt.name == "MX9")
        return 35.0;
    if (fmt.name == "MX6")
        return 18.0;
    return 8.0; // MX4
}

} // namespace

TEST(PackedGemm, MatchesDequantizedReference)
{
    stats::Rng rng(104);
    for_each_dispatch([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            for (const GemmCase& cs : kCases) {
                Tensor x = spread_randn(cs.m, cs.k, rng);
                Tensor w = spread_randn(cs.n, cs.k, rng);
                const QuantPlan plan = make_quant_plan(fmt);
                nn::FrozenTensor f = nn::FrozenTensor::build(w, fmt);
                Tensor got =
                    gemm::matmul_nt_packed(x, plan, *f.gemm_operand());

                // Dequantized reference: the same operands through the
                // fake-quant FP32 path.  The packed path accumulates
                // across blocks in FP32 where the reference uses FP64,
                // so agreement is to float-accumulation tolerance.
                Tensor ref = tensor::matmul_nt(nn::quantize_rows(x, fmt),
                                               f.values());
                EXPECT_LE(tensor::max_abs_diff(got, ref),
                          1e-5 * std::max(max_abs(ref), 1e-20))
                    << fmt.name << " [" << cs.m << "," << cs.k << ","
                    << cs.n << "] leg=" << leg;
            }
        }
    });
}

TEST(PackedGemm, QsnrAgainstFp32OracleClearsPinnedFloor)
{
    stats::Rng rng(113);
    for_each_dispatch([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            const QuantPlan plan = make_quant_plan(fmt);
            double sig = 0.0, noise = 0.0;
            for (std::int64_t k : {16, 64, 256}) {
                Tensor x = Tensor::randn({8, k}, rng, 1.0f);
                Tensor w = Tensor::randn({16, k}, rng, 0.3f);
                nn::FrozenTensor f = nn::FrozenTensor::build(w, fmt);
                Tensor got =
                    gemm::matmul_nt_packed(x, plan, *f.gemm_operand());
                Tensor oracle = matmul_nt_reference(x, w);
                for (std::int64_t i = 0; i < oracle.numel(); ++i) {
                    const double r = oracle.data()[i];
                    const double d =
                        r - static_cast<double>(got.data()[i]);
                    sig += r * r;
                    noise += d * d;
                }
            }
            const double db = 10.0 * std::log10(sig / noise);
            EXPECT_GE(db, qsnr_floor(fmt))
                << fmt.name << " leg=" << leg;
        }
    });
}

TEST(PackedGemm, ScalarAndAvx2BitIdentical)
{
    if (gemm::avx2_gemm_kernel() == nullptr ||
        !core::kernels::avx2_supported())
        GTEST_SKIP() << "no AVX2 on this host/build";
    stats::Rng rng(105);
    for (const auto& fa : mx_formats()) {
        for (const auto& fb : mx_formats()) {
            for (const GemmCase& cs : kCases) {
                Tensor x = spread_randn(cs.m, cs.k, rng);
                Tensor w = spread_randn(cs.n, cs.k, rng);
                const QuantPlan pa = make_quant_plan(fa);
                const QuantPlan pb = make_quant_plan(fb);
                core::Rounder rounder;
                const auto a = gemm::PackedOperand::quantize(
                    pa, x.data(), static_cast<std::size_t>(cs.m),
                    static_cast<std::size_t>(cs.k), rounder);
                const auto b = gemm::PackedOperand::quantize(
                    pb, w.data(), static_cast<std::size_t>(cs.n),
                    static_cast<std::size_t>(cs.k), rounder);
                const gemm::GemmPlan plan = gemm::make_gemm_plan(pa, pb);
                Tensor cs_out({cs.m, cs.n}), cv_out({cs.m, cs.n});
                gemm::scalar_gemm_kernel().gemm(plan, a, b, cs_out.data());
                gemm::avx2_gemm_kernel()->gemm(plan, a, b, cv_out.data());
                EXPECT_EQ(tensor::max_abs_diff(cs_out, cv_out), 0.0)
                    << fa.name << " x " << fb.name << " [" << cs.m << ","
                    << cs.k << "," << cs.n << "]";
            }
        }
    }
}

TEST(PackedGemm, DispatchLegsProduceIdenticalResults)
{
    stats::Rng rng(106);
    for (const auto& fmt : mx_formats()) {
        Tensor x = spread_randn(6, 67, rng); // ragged tail
        Tensor w = spread_randn(9, 67, rng);
        const QuantPlan plan = make_quant_plan(fmt);
        nn::FrozenTensor f = nn::FrozenTensor::build(w, fmt);
        core::kernels::set_force_scalar(false);
        Tensor deflt = gemm::matmul_nt_packed(x, plan, *f.gemm_operand());
        core::kernels::set_force_scalar(true);
        Tensor scalar = gemm::matmul_nt_packed(x, plan, *f.gemm_operand());
        core::kernels::set_force_scalar(false);
        EXPECT_EQ(tensor::max_abs_diff(deflt, scalar), 0.0) << fmt.name;
    }
}

TEST(PackedGemm, MixedWeightActivationFormats)
{
    // Table IV (w, a) splits: weights MX4, activations MX9.
    stats::Rng rng(107);
    Tensor x = spread_randn(5, 48, rng);
    Tensor w = spread_randn(7, 48, rng);
    const QuantPlan pa = make_quant_plan(core::mx9());
    nn::FrozenTensor f = nn::FrozenTensor::build(w, core::mx4());
    Tensor got = gemm::matmul_nt_packed(x, pa, *f.gemm_operand());
    Tensor ref = tensor::matmul_nt(nn::quantize_rows(x, core::mx9()),
                                   f.values());
    EXPECT_LE(tensor::max_abs_diff(got, ref),
              1e-5 * std::max(max_abs(ref), 1e-20));
}

TEST(PackedGemm, DeterministicAcrossRepeatedCalls)
{
    stats::Rng rng(108);
    Tensor x = spread_randn(4, 35, rng);
    Tensor w = spread_randn(6, 35, rng);
    const QuantPlan plan = make_quant_plan(core::mx9());
    nn::FrozenTensor f = nn::FrozenTensor::build(w, core::mx9());
    Tensor first = gemm::matmul_nt_packed(x, plan, *f.gemm_operand());
    for (int i = 0; i < 3; ++i) {
        Tensor again = gemm::matmul_nt_packed(x, plan, *f.gemm_operand());
        EXPECT_EQ(tensor::max_abs_diff(first, again), 0.0);
    }
}

// ---------------------------------------------------------------------------
// The serving path: frozen layers route through mx_gemm and need no
// dequantized FP32 weight copy.
// ---------------------------------------------------------------------------

namespace {

/** Packed GEMMs executed so far (proves which route a forward took). */
std::uint64_t
gemm_calls()
{
    return obs::counter("gemm.calls").value();
}

/** Pin the widest SIMD level this host runs. */
void
pin_widest_simd()
{
    core::kernels::set_simd_level(core::kernels::SimdLevel::Avx512);
}

} // namespace

TEST(FrozenGemmRouting, PairableLinearHoldsNoGridAndServesPackedOnEveryLeg)
{
    // One rule, whatever the kernel: a frozen Linear whose weight pairs
    // with its activation format keeps no FP32 grid and serves through
    // mx_gemm — so every freeze leg and serve leg give the same bits.
    stats::Rng rng(114);
    Tensor x = spread_randn(4, 80, rng);
    Tensor first;
    for_each_simd_level([&](const char* freeze_leg) {
        stats::Rng wrng(116);
        nn::Linear layer(80, 24, nn::QuantSpec::forward_only(core::mx9()),
                         wrng);
        layer.freeze();
        EXPECT_TRUE(layer.packed_activation_ready()) << freeze_leg;
        EXPECT_EQ(layer.frozen_weight().values().numel(), 0) << freeze_leg;
        for_each_simd_level([&](const char* serve_leg) {
            const std::uint64_t before = gemm_calls();
            const Tensor y = layer.forward(x, false);
            EXPECT_EQ(gemm_calls(), before + 1)
                << "froze on " << freeze_leg << ", served on " << serve_leg;
            if (first.numel() == 0)
                first = y;
            EXPECT_EQ(first_bit_mismatch(first, y), -1)
                << "froze on " << freeze_leg << ", served on " << serve_leg;
        });
    });
}

TEST(FrozenGemmRouting, LinearWithoutTheGridServesPackedOnEveryKernel)
{
    for (const auto& fmt : mx_formats()) {
        for (std::int64_t in : {32, 19}) {
            pin_widest_simd();
            stats::Rng rng(109);
            nn::Linear layer(in, 8, nn::QuantSpec::forward_only(fmt),
                             rng);
            Tensor x = Tensor::randn({4, in}, rng, 2.0f);
            Tensor fake = layer.forward(x, false);
            layer.freeze();
            // The packed artifact is the only weight container.
            EXPECT_EQ(layer.frozen_weight().values().numel(), 0);

            Tensor first;
            for_each_dispatch([&](const char* leg) {
                const std::uint64_t before = gemm_calls();
                Tensor frozen = layer.forward(x, false);
                EXPECT_GT(gemm_calls(), before)
                    << "frozen forward did not route through mx_gemm ("
                    << fmt.name << " leg=" << leg << ")";
                EXPECT_LE(tensor::max_abs_diff(fake, frozen),
                          1e-5 * std::max(max_abs(fake), 1e-20))
                    << fmt.name << " in=" << in << " leg=" << leg;
                // Every kernel runs the same packed contract.
                if (first.numel() == 0)
                    first = frozen;
                EXPECT_EQ(tensor::max_abs_diff(first, frozen), 0.0)
                    << fmt.name << " in=" << in << " leg=" << leg;
            });

            // A spec that can no longer pair leaves the layer with no
            // execution form: fail loudly, never dequantize silently.
            layer.spec().forward = core::fp8_e4m3();
            EXPECT_THROW(layer.forward(x, false), ArgumentError);
        }
    }
}

TEST(FrozenGemmRouting, AttentionProjectionsRideThePackedPath)
{
    stats::Rng rng(111);
    nn::MultiHeadAttention attn(32, 2, 8, /*causal=*/true,
                                nn::QuantSpec::forward_only(core::mx9()),
                                rng);
    Tensor x = Tensor::randn({2 * 8, 32}, rng);
    Tensor fake = attn.forward(x, false);
    attn.freeze();
    for_each_dispatch([&](const char* leg) {
        const std::uint64_t before = gemm_calls();
        Tensor frozen = attn.forward(x, false);
        // All four projections (Q, K, V, O) run packed.
        EXPECT_GE(gemm_calls(), before + 4) << "leg=" << leg;
        EXPECT_LE(tensor::max_abs_diff(fake, frozen),
                  1e-5 * std::max(max_abs(fake), 1e-20))
            << "leg=" << leg;
    });
}

TEST(FrozenGemmRouting, NonPackableFormatsFallBackToValues)
{
    // FP8 weights have no pow2-block packed artifact: the frozen path
    // must keep the grid and serve on it, not through mx_gemm.
    stats::Rng rng(112);
    nn::Linear layer(32, 8,
                     nn::QuantSpec::forward_only(core::fp8_e4m3()), rng);
    Tensor x = Tensor::randn({4, 32}, rng);
    Tensor fake = layer.forward(x, false);
    layer.freeze();
    EXPECT_FALSE(layer.frozen_weight().gemm_operand().has_value());
    EXPECT_GT(layer.frozen_weight().values().numel(), 0);
    const std::uint64_t before = gemm_calls();
    Tensor frozen = layer.forward(x, false);
    EXPECT_EQ(gemm_calls(), before);
    EXPECT_EQ(tensor::max_abs_diff(fake, frozen), 0.0);
}

TEST(FrozenGemmRouting, UnpairableActivationsKeepTheGrid)
{
    // A weights-only quantization spec (FP32 activations over packed
    // MX9 weights) produces a gemm view, but the packed path can never
    // engage without a pow2-block activation format — so the grid is
    // kept even with a SIMD kernel active, and the layer serves on it.
    pin_widest_simd();
    stats::Rng rng(115);
    nn::QuantSpec spec;
    spec.weight_forward = core::mx9();
    nn::Linear layer(32, 8, spec, rng);
    Tensor x = Tensor::randn({4, 32}, rng);
    Tensor fake = layer.forward(x, false);
    layer.freeze();
    ASSERT_TRUE(layer.frozen_weight().gemm_operand().has_value());
    EXPECT_GT(layer.frozen_weight().values().numel(), 0);
    const std::uint64_t before = gemm_calls();
    Tensor frozen = layer.forward(x, false);
    EXPECT_EQ(gemm_calls(), before);
    EXPECT_EQ(tensor::max_abs_diff(fake, frozen), 0.0);
    core::kernels::set_force_scalar(false);
}

// ---------------------------------------------------------------------------
// Activation-activation GEMM (the Q K^T / P V legs) and the byte-aligned
// row streams behind the native MX K/V cache.
// ---------------------------------------------------------------------------

TEST(PackedActAct, SingleBlockNtLegBitMatchesFakeQuant)
{
    // K <= k1 means one block pair per output element: the block's
    // grid products share one scale, so both paths hold the exact sum
    // in double and round to float exactly once.  The packed act-act
    // contraction must therefore equal the fake-quant reference
    // bit-for-bit — this is the exactness the native K/V cache's
    // warm==cold pins stand on (head_dim and decode windows are
    // single-block in every miniature).
    stats::Rng rng(120);
    for_each_dispatch([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            for (std::int64_t k : {16, 11}) {
                Tensor x = spread_randn(3, k, rng);
                Tensor y = spread_randn(5, k, rng);
                const QuantPlan plan = make_quant_plan(fmt);
                Tensor got = gemm::matmul_nt_packed2(x, plan, y, plan);
                Tensor ref = nn::qmatmul_nt(x, y, fmt);
                EXPECT_EQ(tensor::max_abs_diff(got, ref), 0.0)
                    << fmt.name << " k=" << k << " leg=" << leg;
            }
        }
    });
}

TEST(PackedActAct, MultiBlockNtLegMatchesDequantizedReference)
{
    // Across blocks the packed path accumulates in FP32 where the
    // reference uses FP64, so the contract widens to float-accumulation
    // tolerance — but the two dispatch legs must still agree exactly.
    stats::Rng rng(121);
    for (const auto& fmt : mx_formats()) {
        for (std::int64_t k : {48, 35}) {
            Tensor x = spread_randn(5, k, rng);
            Tensor y = spread_randn(7, k, rng);
            const QuantPlan plan = make_quant_plan(fmt);
            core::kernels::set_force_scalar(false);
            Tensor deflt = gemm::matmul_nt_packed2(x, plan, y, plan);
            core::kernels::set_force_scalar(true);
            Tensor scalar = gemm::matmul_nt_packed2(x, plan, y, plan);
            core::kernels::set_force_scalar(false);
            EXPECT_EQ(tensor::max_abs_diff(deflt, scalar), 0.0)
                << fmt.name << " k=" << k;
            Tensor ref = tensor::matmul_nt(nn::quantize_rows(x, fmt),
                                           nn::quantize_rows(y, fmt));
            EXPECT_LE(tensor::max_abs_diff(deflt, ref),
                      1e-5 * std::max(max_abs(ref), 1e-20))
                << fmt.name << " k=" << k;
        }
    }
}

TEST(PackedActAct, NnLegBitMatchesNtOnEquivalentOperands)
{
    // The NN kernel leg consumes B as one packed chunk per k1-block
    // (how P V reads the native V cache).  Block quantization is
    // self-contained per k1 block, so quantizing each contraction
    // slice separately yields the same encodings as slicing a full
    // quantization — the NN result must equal the NT result
    // bit-for-bit, ragged tail chunks and nonzero row_off included.
    stats::Rng rng(122);
    constexpr std::size_t k1 = 16;
    for_each_dispatch([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            for (std::int64_t k : {16, 48, 40}) {
                const std::int64_t m = 4, n = 6, pad = 3;
                Tensor x = spread_randn(m, k, rng);
                Tensor b = spread_randn(n, k, rng);
                const QuantPlan plan = make_quant_plan(fmt);
                core::Rounder rounder;
                const auto aop = gemm::PackedOperand::quantize(
                    plan, x.data(), static_cast<std::size_t>(m),
                    static_cast<std::size_t>(k), rounder);
                const auto bop = gemm::PackedOperand::quantize(
                    plan, b.data(), static_cast<std::size_t>(n),
                    static_cast<std::size_t>(k), rounder);
                const gemm::GemmPlan gp =
                    gemm::make_gemm_plan(plan, plan);
                Tensor nt = gemm::matmul_nt_prequant(gp, aop, bop);

                // One chunk per k1-block: rows run along output
                // columns, cols are the contraction slice.  Chunks are
                // embedded at row_off = pad inside taller operands to
                // pin the offset plumbing (a V slab serves every head
                // through its row_off).
                const std::size_t nblocks =
                    (static_cast<std::size_t>(k) + k1 - 1) / k1;
                std::vector<gemm::PackedOperand> chunks(nblocks);
                for (std::size_t kb = 0; kb < nblocks; ++kb) {
                    const std::size_t w = std::min(
                        k1, static_cast<std::size_t>(k) - kb * k1);
                    Tensor slab({pad + n, static_cast<std::int64_t>(w)});
                    for (std::int64_t r = 0; r < pad + n; ++r)
                        for (std::size_t c = 0; c < w; ++c)
                            slab.data()[r * static_cast<std::int64_t>(w) +
                                        static_cast<std::int64_t>(c)] =
                                r < pad ? static_cast<float>(r + 1)
                                        : b.data()[(r - pad) * k +
                                                   static_cast<
                                                       std::int64_t>(
                                                       kb * k1 + c)];
                    chunks[kb] = gemm::PackedOperand::quantize(
                        plan, slab.data(),
                        static_cast<std::size_t>(pad + n), w, rounder);
                }
                std::vector<gemm::NnBlockRef> refs;
                for (const auto& c : chunks)
                    refs.push_back({&c, static_cast<std::size_t>(pad)});
                Tensor nn_out = gemm::matmul_nn_packed(
                    gp, aop, refs, static_cast<std::size_t>(n));
                EXPECT_EQ(tensor::max_abs_diff(nn_out, nt), 0.0)
                    << fmt.name << " k=" << k << " leg=" << leg;
            }
        }
    });
}

TEST(PackedOperand, AlignedRowStreamAppendsAndDecodesExactly)
{
    // The native K/V cache's storage form: appending rows in two calls
    // must produce the same byte stream as one call (append is a pure
    // memcpy at byte-aligned offsets), and decode_rows must recover
    // the exact execution view PackedOperand::quantize builds.
    stats::Rng rng(123);
    for (const auto& fmt : mx_formats()) {
        for (std::int64_t cols : {16, 19, 48}) {
            const std::size_t rows = 5, ucols =
                static_cast<std::size_t>(cols);
            Tensor x = spread_randn(static_cast<std::int64_t>(rows),
                                    cols, rng);
            const QuantPlan plan = make_quant_plan(fmt);
            core::Rounder rounder;
            std::vector<std::uint8_t> one, two;
            gemm::pack_rows_aligned(plan, x.data(), rows, ucols, rounder,
                                    one);
            gemm::pack_rows_aligned(plan, x.data(), 3, ucols, rounder,
                                    two);
            gemm::pack_rows_aligned(plan, x.data() + 3 * cols, rows - 3,
                                    ucols, rounder, two);
            EXPECT_EQ(one, two) << fmt.name << " cols=" << cols;
            EXPECT_EQ(one.size(),
                      rows * gemm::row_stream_bytes(plan, ucols));

            const gemm::PackedOperand dec =
                gemm::PackedOperand::decode_rows(plan, one, rows, ucols);
            const gemm::PackedOperand enc = gemm::PackedOperand::quantize(
                plan, x.data(), rows, ucols, rounder);
            ASSERT_EQ(dec.rows(), enc.rows());
            ASSERT_EQ(dec.cols(), enc.cols());
            for (std::size_t r = 0; r < rows; ++r) {
                for (std::size_t c = 0; c < ucols; ++c)
                    EXPECT_EQ(dec.row_mantissa(r)[c],
                              enc.row_mantissa(r)[c])
                        << fmt.name << " [" << r << "," << c << "]";
                for (std::size_t s = 0; s < dec.subs_per_row(); ++s)
                    EXPECT_EQ(dec.row_tau(r)[s], enc.row_tau(r)[s]);
                for (std::size_t b = 0; b < dec.blocks_per_row(); ++b)
                    EXPECT_EQ(dec.row_exp(r)[b], enc.row_exp(r)[b]);
            }
        }
    }
}

TEST(PackedOperand, AlignedRowPackWritesInPlaceWhenCapacitySuffices)
{
    // The K/V append path packs into a reused buffer: with room
    // reserved, packing must not reallocate, and it must append the same
    // bytes a fresh buffer receives.
    stats::Rng rng(124);
    const QuantPlan plan = make_quant_plan(core::mx9());
    core::Rounder rounder;
    const std::size_t rows = 4, cols = 19;
    Tensor x = spread_randn(static_cast<std::int64_t>(rows),
                            static_cast<std::int64_t>(cols), rng);
    std::vector<std::uint8_t> fresh;
    gemm::pack_rows_aligned(plan, x.data(), rows, cols, rounder, fresh);

    std::vector<std::uint8_t> reused = {0xAB};
    reused.reserve(1 + fresh.size());
    const std::uint8_t* before = reused.data();
    gemm::pack_rows_aligned(plan, x.data(), rows, cols, rounder, reused);
    EXPECT_EQ(reused.data(), before);
    ASSERT_EQ(reused.size(), 1 + fresh.size());
    EXPECT_EQ(reused[0], 0xAB);
    EXPECT_TRUE(std::equal(fresh.begin(), fresh.end(), reused.begin() + 1));
}

// ---------------------------------------------------------------------------
// The stream decoder against an independent oracle: decode / decode_rows
// must read exactly what a field-by-field, byte-at-a-time reader reads
// (tests/codec_oracle.h), for every pow2 format with a gemm view.
// Random bytes reach every field value a stream can hold, including
// sign|magnitude codes no quantizer emits (negative zero).
// ---------------------------------------------------------------------------

namespace {

std::vector<std::uint8_t>
random_bytes(std::size_t n, stats::Rng& rng)
{
    std::vector<std::uint8_t> bytes(n);
    for (std::uint8_t& b : bytes)
        b = static_cast<std::uint8_t>(rng.next_u64());
    return bytes;
}

/** Decode @p bytes both ways the view can be built and compare each with
 *  the oracle; returns the number of non-byte-aligned row starts seen. */
std::size_t
expect_decodes_match_oracle(const QuantPlan& plan, std::size_t rows,
                            std::size_t cols, stats::Rng& rng,
                            const std::string& what)
{
    const std::size_t bits = test::oracle_row_bits(plan, cols);
    EXPECT_EQ(gemm::row_bits(plan, cols), bits) << what;
    test::OracleView ref;

    // Bit-contiguous rows: row r starts at bit r * bits.  The stream is
    // sized exactly, so a read past it is an out-of-bounds access.
    const std::vector<std::uint8_t> flat =
        random_bytes((rows * bits + 7) / 8, rng);
    EXPECT_TRUE(test::oracle_decode(plan, flat, rows, cols, false, ref));
    const gemm::PackedOperand op =
        gemm::PackedOperand::decode(plan, flat, rows, cols);
    EXPECT_EQ(test::first_mismatch(op, ref), "") << what << " decode";

    // Byte-aligned rows.
    const std::vector<std::uint8_t> aligned =
        random_bytes(rows * ((bits + 7) / 8), rng);
    EXPECT_TRUE(test::oracle_decode(plan, aligned, rows, cols, true, ref));
    const gemm::PackedOperand op_rows =
        gemm::PackedOperand::decode_rows(plan, aligned, rows, cols);
    EXPECT_EQ(test::first_mismatch(op_rows, ref), "")
        << what << " decode_rows";
    return rows > 1 && bits % 8 != 0 ? rows - 1 : 0;
}

} // namespace

TEST(PackedOperandCodec, DecodeMatchesTheFieldByFieldOracleOnEveryGemmFormat)
{
    stats::Rng rng(2207);
    std::size_t formats = 0, unaligned_rows = 0;
    for (const core::BdrFormat& fmt :
         sweep::enumerate_formats(sweep::SweepSpec{})) {
        if (fmt.elem != core::ElementKind::SignMagnitude ||
            fmt.s_kind != core::ScaleKind::Pow2Hw)
            continue;
        const QuantPlan plan = make_quant_plan(fmt);
        if (!gemm::operand_eligible(plan))
            continue;
        ++formats;
        const std::size_t k1 = static_cast<std::size_t>(plan.k1);
        // Whole blocks, a short tail after full blocks, and a lone
        // short block: the ragged widths are multiples of neither k1
        // nor k2 (> 1).
        for (std::size_t cols : {k1, 2 * k1 + 1, std::size_t{3}})
            for (std::size_t rows : {std::size_t{1}, std::size_t{3}})
                unaligned_rows += expect_decodes_match_oracle(
                    plan, rows, cols, rng,
                    fmt.summary() + " [" + std::to_string(rows) + " x " +
                        std::to_string(cols) + "]");
    }
    EXPECT_GE(formats, 800u) << "the sweep lost its pow2 formats";
    EXPECT_GT(unaligned_rows, 0u) << "no row started off a byte boundary";
}

TEST(PackedOperandCodec, EveryD1CodeDecodesToItsExponent)
{
    // One block per row, row r's exponent field = r: every code of
    // every legal d1 width, written with the library's own writer.
    stats::Rng rng(2208);
    for (int d1 = 1; d1 <= 11; ++d1) {
        const QuantPlan plan =
            make_quant_plan(core::mx_custom(7, d1, 16, 1, 2));
        const std::size_t rows = std::size_t{1} << d1, cols = 16;
        core::BitWriter flat, aligned;
        for (std::size_t r = 0; r < rows; ++r) {
            const std::uint64_t taus = rng.next_u64(); // 8 sub-shifts
            std::vector<std::uint64_t> codes(cols);
            for (std::uint64_t& c : codes)
                c = rng.next_u64();
            for (core::BitWriter* w : {&flat, &aligned}) {
                w->write(r, plan.d1);
                w->write(taus, 8 * plan.d2);
                for (std::uint64_t c : codes)
                    w->write(c, 1 + plan.m);
            }
            aligned.pad_to_byte();
        }
        const gemm::PackedOperand a =
            gemm::PackedOperand::decode(plan, flat.bytes(), rows, cols);
        const gemm::PackedOperand b = gemm::PackedOperand::decode_rows(
            plan, aligned.bytes(), rows, cols);
        test::OracleView ref;
        ASSERT_TRUE(
            test::oracle_decode(plan, flat.bytes(), rows, cols, false, ref));
        EXPECT_EQ(test::first_mismatch(a, ref), "") << "d1=" << d1;
        EXPECT_EQ(test::first_mismatch(b, ref), "") << "d1=" << d1;
        for (std::size_t r = 0; r < rows; ++r) {
            ASSERT_EQ(a.row_exp(r)[0], static_cast<int>(r) - plan.e_max)
                << "d1=" << d1 << " code " << r;
            ASSERT_EQ(b.row_exp(r)[0], a.row_exp(r)[0]);
        }
    }
}

TEST(PackedOperandCodec, TruncatedStreamsThrow)
{
    stats::Rng rng(2209);
    for (const auto& fmt : mx_formats()) {
        const QuantPlan plan = make_quant_plan(fmt);
        for (std::size_t cols : {std::size_t{16}, std::size_t{19}}) {
            const std::size_t rows = 3;
            const std::size_t flat_bytes =
                (rows * gemm::row_bits(plan, cols) + 7) / 8;
            const std::size_t aligned_bytes =
                rows * gemm::row_stream_bytes(plan, cols);
            const std::vector<std::uint8_t> bytes =
                random_bytes(aligned_bytes, rng);
            const std::span<const std::uint8_t> all(bytes);
            EXPECT_NO_THROW(gemm::PackedOperand::decode(
                plan, all.first(flat_bytes), rows, cols));
            EXPECT_THROW(gemm::PackedOperand::decode(
                             plan, all.first(flat_bytes - 1), rows, cols),
                         ArgumentError)
                << fmt.name << " cols=" << cols;
            EXPECT_THROW(gemm::PackedOperand::decode_rows(
                             plan, all.first(aligned_bytes - 1), rows,
                             cols),
                         ArgumentError)
                << fmt.name << " cols=" << cols;
            EXPECT_THROW(gemm::PackedOperand::decode(plan, {}, 1, cols),
                         ArgumentError);
        }
    }
}

// ---------------------------------------------------------------------------
// Blocked + threaded execution: the output-tile grid is fixed by shape
// alone, so every entry point is bit-identical for any MX_GEMM_THREADS
// and any SIMD leg — and the serial tile walk equals the old streaming
// order by the exact-roundtrip argument in packed_gemm.h.
// ---------------------------------------------------------------------------

namespace {

/** Pin a GEMM lane count for one scope; re-resolve from env after. */
class ScopedGemmThreads
{
  public:
    explicit ScopedGemmThreads(std::size_t t)
    {
        gemm::set_gemm_threads(t);
    }
    ~ScopedGemmThreads() { gemm::set_gemm_threads(0); }
};

/** Shapes that cross the tile grid: rows past kTileRowsA = 64, cols
 *  past kTileRowsB = 32, ragged contraction tails, exact boundaries —
 *  all below the MAC floor, so they run inline at every pin — and one
 *  ragged shape big enough for 7 shares. */
const GemmCase kTiledCases[] = {{70, 67, 70},
                                {64, 48, 32},
                                {9, 256, 33},
                                {65, 80, 4},
                                {130, 260, 230}};

std::size_t
case_macs(const GemmCase& cs)
{
    return static_cast<std::size_t>(cs.m * cs.k * cs.n);
}

static_assert(130 * 260 * 230 >= 7 * gemm::kMinMacsPerShare,
              "kTiledCases' last shape must reach 7 shares");

/** Shares the threaded GEMMs have run so far (every share, on any
 *  lane, counts once when it finishes). */
std::uint64_t
shares_run()
{
    return obs::counter("gemm.shares").value();
}

} // namespace

TEST(PackedGemmThreading, NtEntryPointsBitIdenticalAcrossThreadCounts)
{
    stats::Rng rng(130);
    for_each_simd_level([&](const char* leg) {
        for (const auto& fmt : {core::mx9(), core::mx4()}) {
            for (const GemmCase& cs : kTiledCases) {
                Tensor x = spread_randn(cs.m, cs.k, rng);
                Tensor w = spread_randn(cs.n, cs.k, rng);
                const QuantPlan plan = make_quant_plan(fmt);
                nn::FrozenTensor f = nn::FrozenTensor::build(w, fmt);
                Tensor base_nt, base_aa;
                {
                    ScopedGemmThreads serial(1);
                    base_nt = gemm::matmul_nt_packed(x, plan,
                                                     *f.gemm_operand());
                    base_aa = gemm::matmul_nt_packed2(x, plan, w, plan);
                }
                // Small shapes stay inline at every pin; the big one
                // fans out into exactly the pinned share count.
                const bool big =
                    case_macs(cs) >= 7 * gemm::kMinMacsPerShare;
                EXPECT_TRUE(big ||
                            case_macs(cs) < 2 * gemm::kMinMacsPerShare);
                for (std::size_t t : {std::size_t{2}, std::size_t{7}}) {
                    ScopedGemmThreads threads(t);
                    const std::uint64_t before = shares_run();
                    Tensor nt = gemm::matmul_nt_packed(x, plan,
                                                       *f.gemm_operand());
                    EXPECT_EQ(shares_run() - before, big ? t : 0)
                        << "[" << cs.m << "," << cs.k << "," << cs.n
                        << "] t=" << t;
                    Tensor aa = gemm::matmul_nt_packed2(x, plan, w, plan);
                    EXPECT_EQ(tensor::max_abs_diff(nt, base_nt), 0.0)
                        << fmt.name << " [" << cs.m << "," << cs.k << ","
                        << cs.n << "] t=" << t << " leg=" << leg;
                    EXPECT_EQ(tensor::max_abs_diff(aa, base_aa), 0.0)
                        << fmt.name << " [" << cs.m << "," << cs.k << ","
                        << cs.n << "] t=" << t << " leg=" << leg;
                }
                // The kernel's own serial tile walk (the direct-call
                // convenience wrapper) agrees with the threaded driver.
                core::Rounder rounder;
                const auto a = gemm::PackedOperand::quantize(
                    plan, x.data(), static_cast<std::size_t>(cs.m),
                    static_cast<std::size_t>(cs.k), rounder);
                const auto b = gemm::PackedOperand::quantize(
                    plan, w.data(), static_cast<std::size_t>(cs.n),
                    static_cast<std::size_t>(cs.k), rounder);
                const gemm::GemmPlan gp = gemm::make_gemm_plan(plan, plan);
                Tensor direct({cs.m, cs.n});
                gemm::active_gemm_kernel().gemm(gp, a, b, direct.data());
                EXPECT_EQ(tensor::max_abs_diff(direct, base_aa), 0.0)
                    << fmt.name << " [" << cs.m << "," << cs.k << ","
                    << cs.n << "] leg=" << leg;
            }
        }
    });
}

TEST(PackedGemmThreading, NnLegBitIdenticalAcrossThreadCounts)
{
    // One chunk per k1-block with a nonzero row_off, n past the tile
    // width so the j grid really shards (the decode P V shape).
    stats::Rng rng(131);
    constexpr std::size_t k1 = 16;
    const std::int64_t m = 5, n = 70, k = 48, pad = 2;
    for_each_simd_level([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            Tensor x = spread_randn(m, k, rng);
            Tensor b = spread_randn(n, k, rng);
            const QuantPlan plan = make_quant_plan(fmt);
            core::Rounder rounder;
            const auto aop = gemm::PackedOperand::quantize(
                plan, x.data(), static_cast<std::size_t>(m),
                static_cast<std::size_t>(k), rounder);
            const gemm::GemmPlan gp = gemm::make_gemm_plan(plan, plan);
            const std::size_t nblocks =
                (static_cast<std::size_t>(k) + k1 - 1) / k1;
            std::vector<gemm::PackedOperand> chunks(nblocks);
            for (std::size_t kb = 0; kb < nblocks; ++kb) {
                const std::size_t w =
                    std::min(k1, static_cast<std::size_t>(k) - kb * k1);
                Tensor slab({pad + n, static_cast<std::int64_t>(w)});
                for (std::int64_t r = 0; r < pad + n; ++r)
                    for (std::size_t c = 0; c < w; ++c)
                        slab.data()[r * static_cast<std::int64_t>(w) +
                                    static_cast<std::int64_t>(c)] =
                            r < pad ? static_cast<float>(r + 1)
                                    : b.data()[(r - pad) * k +
                                               static_cast<std::int64_t>(
                                                   kb * k1 + c)];
                chunks[kb] = gemm::PackedOperand::quantize(
                    plan, slab.data(), static_cast<std::size_t>(pad + n),
                    w, rounder);
            }
            std::vector<gemm::NnBlockRef> refs;
            for (const auto& c : chunks)
                refs.push_back({&c, static_cast<std::size_t>(pad)});
            Tensor base;
            {
                ScopedGemmThreads serial(1);
                base = gemm::matmul_nn_packed(
                    gp, aop, refs, static_cast<std::size_t>(n));
            }
            for (std::size_t t : {std::size_t{2}, std::size_t{7}}) {
                ScopedGemmThreads threads(t);
                Tensor got = gemm::matmul_nn_packed(
                    gp, aop, refs, static_cast<std::size_t>(n));
                EXPECT_EQ(tensor::max_abs_diff(got, base), 0.0)
                    << fmt.name << " t=" << t << " leg=" << leg;
            }
        }
    });
}

TEST(PackedGemmThreading, BelowFloorGemmsNeverEnterThePool)
{
    // A decode-step projection (16 rows x 256 x 256 = 1 M MACs) sits
    // below two shares' worth of MACs: even pinned to 7 shares it runs
    // inline on the caller, with no pool job at all.  A 7-share GEMM
    // next to it shows the trace would see one.
    static_assert(16 * 256 * 256 < 2 * gemm::kMinMacsPerShare);
    stats::Rng rng(132);
    const QuantPlan plan = make_quant_plan(core::mx9());
    const gemm::GemmPlan gp = gemm::make_gemm_plan(plan, plan);
    core::Rounder rounder;
    const auto operand = [&](std::size_t rows, std::size_t cols) {
        Tensor t = spread_randn(static_cast<std::int64_t>(rows),
                                static_cast<std::int64_t>(cols), rng);
        return gemm::PackedOperand::quantize(plan, t.data(), rows, cols,
                                             rounder);
    };
    const auto small_a = operand(16, 256), small_b = operand(256, 256);
    const auto big_a = operand(130, 260), big_b = operand(230, 260);
    const auto pool_spans = [&](const gemm::PackedOperand& a,
                                const gemm::PackedOperand& b) {
        obs::clear_trace();
        obs::set_trace_enabled(true);
        gemm::matmul_nt_prequant(gp, a, b);
        obs::set_trace_enabled(false);
        std::ostringstream os;
        obs::write_trace(os);
        const std::string trace = os.str();
        EXPECT_NE(trace.find("\"gemm.nt_prequant\""), std::string::npos);
        std::size_t spans = 0;
        for (std::size_t at = trace.find("\"pool.parallel_for\"");
             at != std::string::npos;
             at = trace.find("\"pool.parallel_for\"", at + 1))
            ++spans;
        return spans;
    };
    ScopedGemmThreads threads(7);
    const std::uint64_t before = shares_run();
    EXPECT_EQ(pool_spans(small_a, small_b), 0u);
    EXPECT_EQ(shares_run(), before);
    const std::size_t big_spans = pool_spans(big_a, big_b);
    EXPECT_EQ(shares_run() - before, 7u);
    // A one-lane shared pool runs every job inline, without a span.
    if (core::ThreadPool::shared().thread_count() > 1) {
        EXPECT_EQ(big_spans, 1u);
    }
    obs::clear_trace();
}

TEST(PackedGemmThreading, EnvKnobResolvesAndClamps)
{
    ::setenv("MX_GEMM_THREADS", "7", 1);
    gemm::set_gemm_threads(0); // drop the cache, re-resolve
    EXPECT_EQ(gemm::gemm_threads(), 7u);
    // 0 is numeric nonsense for a lane count: the shared knob parser
    // clamps to the floor of 1 (serial) instead of silently falling
    // back to full pool fan-out — the opposite of what was asked.
    ::setenv("MX_GEMM_THREADS", "0", 1);
    gemm::set_gemm_threads(0);
    EXPECT_EQ(gemm::gemm_threads(), 1u);
    ::unsetenv("MX_GEMM_THREADS");
    gemm::set_gemm_threads(0);
    EXPECT_EQ(gemm::gemm_threads(),
              core::ThreadPool::default_thread_count());
    gemm::set_gemm_threads(5); // runtime override wins over env
    EXPECT_EQ(gemm::gemm_threads(), 5u);
    gemm::set_gemm_threads(0);
}

// ---------------------------------------------------------------------------
// The AVX-512/VNNI leg: bit-identical to the scalar reference wherever
// the host can run it; auto-skip (not fail) elsewhere.
// ---------------------------------------------------------------------------

TEST(PackedGemmAvx512, ScalarAndAvx512BitIdentical)
{
    if (gemm::avx512_gemm_kernel() == nullptr ||
        !core::kernels::avx512_supported())
        GTEST_SKIP() << "no AVX-512/VNNI on this host/build";
    stats::Rng rng(132);
    for (const auto& fa : mx_formats()) {
        for (const auto& fb : mx_formats()) {
            for (const GemmCase& cs : kCases) {
                Tensor x = spread_randn(cs.m, cs.k, rng);
                Tensor w = spread_randn(cs.n, cs.k, rng);
                const QuantPlan pa = make_quant_plan(fa);
                const QuantPlan pb = make_quant_plan(fb);
                core::Rounder rounder;
                const auto a = gemm::PackedOperand::quantize(
                    pa, x.data(), static_cast<std::size_t>(cs.m),
                    static_cast<std::size_t>(cs.k), rounder);
                const auto b = gemm::PackedOperand::quantize(
                    pb, w.data(), static_cast<std::size_t>(cs.n),
                    static_cast<std::size_t>(cs.k), rounder);
                const gemm::GemmPlan plan = gemm::make_gemm_plan(pa, pb);
                Tensor cs_out({cs.m, cs.n}), cv_out({cs.m, cs.n});
                gemm::scalar_gemm_kernel().gemm(plan, a, b,
                                                cs_out.data());
                gemm::avx512_gemm_kernel()->gemm(plan, a, b,
                                                 cv_out.data());
                EXPECT_EQ(tensor::max_abs_diff(cs_out, cv_out), 0.0)
                    << fa.name << " x " << fb.name << " [" << cs.m << ","
                    << cs.k << "," << cs.n << "]";
            }
        }
    }
}

TEST(PackedGemmAvx512, NnLegBitIdenticalToScalar)
{
    if (gemm::avx512_gemm_kernel() == nullptr ||
        !core::kernels::avx512_supported())
        GTEST_SKIP() << "no AVX-512/VNNI on this host/build";
    // k = 80 gives 5 full chunks (an odd count); k = 40 ends in a
    // ragged tail chunk.
    stats::Rng rng(133);
    constexpr std::size_t k1 = 16;
    for (const auto& fmt : mx_formats()) {
        for (std::int64_t k : {80, 40}) {
            const std::int64_t m = 4, n = 9, pad = 1;
            Tensor x = spread_randn(m, k, rng);
            Tensor b = spread_randn(n, k, rng);
            const QuantPlan plan = make_quant_plan(fmt);
            core::Rounder rounder;
            const auto aop = gemm::PackedOperand::quantize(
                plan, x.data(), static_cast<std::size_t>(m),
                static_cast<std::size_t>(k), rounder);
            const gemm::GemmPlan gp = gemm::make_gemm_plan(plan, plan);
            const std::size_t nblocks =
                (static_cast<std::size_t>(k) + k1 - 1) / k1;
            std::vector<gemm::PackedOperand> chunks(nblocks);
            for (std::size_t kb = 0; kb < nblocks; ++kb) {
                const std::size_t w =
                    std::min(k1, static_cast<std::size_t>(k) - kb * k1);
                Tensor slab({pad + n, static_cast<std::int64_t>(w)});
                for (std::int64_t r = 0; r < pad + n; ++r)
                    for (std::size_t c = 0; c < w; ++c)
                        slab.data()[r * static_cast<std::int64_t>(w) +
                                    static_cast<std::int64_t>(c)] =
                            r < pad ? 2.0f
                                    : b.data()[(r - pad) * k +
                                               static_cast<std::int64_t>(
                                                   kb * k1 + c)];
                chunks[kb] = gemm::PackedOperand::quantize(
                    plan, slab.data(), static_cast<std::size_t>(pad + n),
                    w, rounder);
            }
            std::vector<gemm::NnBlockRef> refs;
            for (const auto& c : chunks)
                refs.push_back({&c, static_cast<std::size_t>(pad)});
            Tensor sc({m, n}), vn({m, n});
            gemm::scalar_gemm_kernel().gemm_nn(
                gp, aop, refs, static_cast<std::size_t>(n), sc.data());
            gemm::avx512_gemm_kernel()->gemm_nn(
                gp, aop, refs, static_cast<std::size_t>(n), vn.data());
            EXPECT_EQ(tensor::max_abs_diff(sc, vn), 0.0)
                << fmt.name << " k=" << k;
        }
    }
}

// ---------------------------------------------------------------------------
// The column-group kernels on every leg and thread count: scalar ==
// AVX2 == AVX-512 bit for bit on the shapes the vector loops add (full
// and ragged column groups, ragged K tails, panel reloads, decode and
// prefill shapes), under both per-row and per-block magnitude spreads.
// ---------------------------------------------------------------------------

namespace {

/** (activation, weight) format pairs: each MX format with itself, plus
 *  a Table IV split. */
std::vector<std::pair<core::BdrFormat, core::BdrFormat>>
leg_format_pairs()
{
    return {{core::mx9(), core::mx9()},
            {core::mx6(), core::mx6()},
            {core::mx4(), core::mx4()},
            {core::mx9(), core::mx4()}};
}

/** Run @p body on every SIMD level this host runs, each at
 *  MX_GEMM_THREADS 1, 2 and 7. */
template <typename Fn>
void
for_each_leg_and_threads(Fn&& body)
{
    for_each_simd_level([&](const char* leg) {
        for (std::size_t t :
             {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
            ScopedGemmThreads threads(t);
            body(leg, t);
        }
    });
}

/**
 * B [n x k] as one packed chunk per k1 block — rows along the output
 * columns, each chunk embedded at row_off = pad inside a taller operand
 * — the way P·V reads the native V cache.
 */
struct NnChunks
{
    std::vector<gemm::PackedOperand> ops;
    std::vector<gemm::NnBlockRef> refs;
};

NnChunks
make_nn_chunks(const QuantPlan& plan, const Tensor& b, std::size_t pad)
{
    constexpr std::size_t k1 = 16;
    const std::size_t n = static_cast<std::size_t>(b.dim(0));
    const std::size_t k = static_cast<std::size_t>(b.dim(1));
    core::Rounder rounder;
    NnChunks out;
    for (std::size_t c0 = 0; c0 < k; c0 += k1) {
        const std::size_t w = std::min(k1, k - c0);
        std::vector<float> slab((pad + n) * w);
        for (std::size_t r = 0; r < pad + n; ++r)
            for (std::size_t c = 0; c < w; ++c)
                slab[r * w + c] = r < pad ? static_cast<float>(r + 1)
                                          : b.data()[(r - pad) * k + c0 + c];
        out.ops.push_back(gemm::PackedOperand::quantize(
            plan, slab.data(), pad + n, w, rounder));
    }
    for (const gemm::PackedOperand& op : out.ops)
        out.refs.push_back({&op, pad});
    return out;
}

/** NN-leg shapes {m, k, n}: an odd chunk count, a ragged tail chunk
 *  with a ragged column group, decode P·V rows, K past one panel with
 *  and without a tail, and n past the tile width. */
const GemmCase kNnCases[] = {{4, 80, 9},     {4, 40, 40},  {1, 200, 32},
                             {8, 1024, 64},  {5, 1030, 40}, {16, 48, 70}};

} // namespace

TEST(PackedGemmLegs, NtBitIdenticalAcrossLegsAndThreadCounts)
{
    stats::Rng rng(140);
    core::Rounder rounder;
    for (const NamedGenerator& gen : kGenerators) {
        for (const auto& [fa, fb] : leg_format_pairs()) {
            const QuantPlan pa = make_quant_plan(fa);
            const QuantPlan pb = make_quant_plan(fb);
            const gemm::GemmPlan plan = gemm::make_gemm_plan(pa, pb);
            for (const GemmCase& cs : kCases) {
                Tensor x = gen.make(cs.m, cs.k, rng);
                Tensor w = gen.make(cs.n, cs.k, rng);
                const auto a = gemm::PackedOperand::quantize(
                    pa, x.data(), static_cast<std::size_t>(cs.m),
                    static_cast<std::size_t>(cs.k), rounder);
                const auto b = gemm::PackedOperand::quantize(
                    pb, w.data(), static_cast<std::size_t>(cs.n),
                    static_cast<std::size_t>(cs.k), rounder);
                Tensor ref({cs.m, cs.n});
                gemm::scalar_gemm_kernel().gemm(plan, a, b, ref.data());
                for_each_leg_and_threads([&](const char* leg,
                                             std::size_t t) {
                    Tensor got = gemm::matmul_nt_prequant(plan, a, b);
                    EXPECT_EQ(first_bit_mismatch(got, ref), -1)
                        << gen.name << " " << fa.name << " x " << fb.name
                        << " [" << cs.m << "," << cs.k << "," << cs.n
                        << "] leg=" << leg << " t=" << t;
                });
            }
        }
    }
}

TEST(PackedGemmLegs, NnBitIdenticalAcrossLegsAndThreadCounts)
{
    stats::Rng rng(141);
    core::Rounder rounder;
    for (const NamedGenerator& gen : kGenerators) {
        for (const auto& fmt : mx_formats()) {
            const QuantPlan plan = make_quant_plan(fmt);
            const gemm::GemmPlan gp = gemm::make_gemm_plan(plan, plan);
            for (const GemmCase& cs : kNnCases) {
                Tensor x = gen.make(cs.m, cs.k, rng);
                Tensor b = gen.make(cs.n, cs.k, rng);
                const auto a = gemm::PackedOperand::quantize(
                    plan, x.data(), static_cast<std::size_t>(cs.m),
                    static_cast<std::size_t>(cs.k), rounder);
                const NnChunks chunks = make_nn_chunks(plan, b, 3);
                const std::size_t n = static_cast<std::size_t>(cs.n);
                Tensor ref({cs.m, cs.n});
                gemm::scalar_gemm_kernel().gemm_nn(gp, a, chunks.refs, n,
                                                   ref.data());
                for_each_leg_and_threads([&](const char* leg,
                                             std::size_t t) {
                    Tensor got =
                        gemm::matmul_nn_packed(gp, a, chunks.refs, n);
                    EXPECT_EQ(first_bit_mismatch(got, ref), -1)
                        << gen.name << " " << fmt.name << " [" << cs.m
                        << "," << cs.k << "," << cs.n << "] leg=" << leg
                        << " t=" << t;
                });
            }
        }
    }
}

TEST(PackedGemmLegs, PinnedThreadCountsFanOutBitIdentically)
{
    // kCases and kNnCases sit below the MAC floor, so the sweeps above
    // run them inline at every pin.  One ragged shape per leg above
    // 7 shares' worth of MACs makes each pin really split the grid.
    static_assert(130 * 260 * 230 >= 7 * gemm::kMinMacsPerShare);
    stats::Rng rng(143);
    core::Rounder rounder;
    const QuantPlan plan = make_quant_plan(core::mx9());
    const gemm::GemmPlan gp = gemm::make_gemm_plan(plan, plan);
    const std::int64_t m = 130, k = 260, n = 230;
    const std::size_t cols = static_cast<std::size_t>(n);
    Tensor x = spread_randn(m, k, rng);
    Tensor w = spread_randn(n, k, rng);
    const auto a = gemm::PackedOperand::quantize(
        plan, x.data(), static_cast<std::size_t>(m),
        static_cast<std::size_t>(k), rounder);
    const auto b = gemm::PackedOperand::quantize(
        plan, w.data(), cols, static_cast<std::size_t>(k), rounder);
    const NnChunks chunks = make_nn_chunks(plan, w, 3);
    Tensor ref_nt({m, n}), ref_nn({m, n});
    gemm::scalar_gemm_kernel().gemm(gp, a, b, ref_nt.data());
    gemm::scalar_gemm_kernel().gemm_nn(gp, a, chunks.refs, cols,
                                       ref_nn.data());
    for_each_leg_and_threads([&](const char* leg, std::size_t t) {
        const std::size_t want = t == 1 ? 0 : t;
        std::uint64_t before = shares_run();
        Tensor nt = gemm::matmul_nt_prequant(gp, a, b);
        EXPECT_EQ(shares_run() - before, want) << "nt leg=" << leg;
        EXPECT_EQ(first_bit_mismatch(nt, ref_nt), -1)
            << "nt leg=" << leg << " t=" << t;
        before = shares_run();
        Tensor nn = gemm::matmul_nn_packed(gp, a, chunks.refs, cols);
        EXPECT_EQ(shares_run() - before, want) << "nn leg=" << leg;
        EXPECT_EQ(first_bit_mismatch(nn, ref_nn), -1)
            << "nn leg=" << leg << " t=" << t;
    });
}

TEST(PackedGemmLegs, DecodedExponentFieldExtremesBitIdentical)
{
    // Random bytes decode to valid operands whose exponent fields span
    // the whole d1 range — including the e_max + 1 code quantize never
    // emits — so the combined block exponents reach both ends of
    // simd_fast_path's range proof (d1 = 8 and 9 stay on the vector
    // path; d1 = 11 falls back to the scalar tile kernel).  Outputs
    // overflow and cancel freely here, hence the NaN-tolerant match.
    stats::Rng rng(142);
    const std::size_t m = 5, n = 37, k = 87;
    for (const auto& fmt : {core::mx9(), core::mx4(),
                            core::mx_custom(7, 9, 16, 1, 2),
                            core::mx_custom(7, 11, 16, 1, 2)}) {
        const QuantPlan plan = make_quant_plan(fmt);
        const gemm::GemmPlan gp = gemm::make_gemm_plan(plan, plan);
        const auto random_operand = [&](std::size_t rows) {
            std::vector<std::uint8_t> bytes(
                (rows * gemm::row_bits(plan, k) + 7) / 8);
            for (std::uint8_t& byte : bytes)
                byte = static_cast<std::uint8_t>(rng.next_u32());
            return gemm::PackedOperand::decode(plan, bytes, rows, k);
        };
        const gemm::PackedOperand a = random_operand(m);
        const gemm::PackedOperand b = random_operand(n);
        Tensor ref({static_cast<std::int64_t>(m),
                    static_cast<std::int64_t>(n)});
        gemm::scalar_gemm_kernel().gemm(gp, a, b, ref.data());
        for_each_simd_level([&](const char* leg) {
            Tensor got = gemm::matmul_nt_prequant(gp, a, b);
            EXPECT_EQ(first_bit_mismatch(got, ref), -1)
                << fmt.name << " leg=" << leg;
        });
    }
}

TEST(GemmPlan, SimdFastPathProvesTheBlockExponentRange)
{
    for (const auto& fa : mx_formats())
        for (const auto& fb : mx_formats())
            EXPECT_TRUE(gemm::detail::simd_fast_path(gemm::make_gemm_plan(
                make_quant_plan(fa), make_quant_plan(fb))))
                << fa.name << " x " << fb.name;
    // d1 = 9: Ea + Eb - exp_bias spans [-524, 498], inside [-1022, 1023].
    // d1 = 10 and 11 can leave the normal double range, so they take the
    // scalar tile kernel instead of a per-block check.
    for (int d1 : {9, 10, 11}) {
        const QuantPlan p = make_quant_plan(core::mx_custom(7, d1, 16, 1, 2));
        EXPECT_EQ(gemm::detail::simd_fast_path(gemm::make_gemm_plan(p, p)),
                  d1 == 9)
            << "d1=" << d1;
    }
}

// ---------------------------------------------------------------------------
// An independent oracle: hw::DotProductPipeline, a separately written
// bit-exact Figure 6 model with its own ingest quantizer.  One block
// pair is one pipeline evaluation (exact at a wide f), and a multi-block
// GEMM output is the ascending FP32 sum of its blocks' pipeline values.
// ---------------------------------------------------------------------------

namespace {

/** The pipeline's FP32 output for one k1 block of two rows; a ragged
 *  block is zero-padded to k1 (zeros change neither the shared exponent
 *  nor any sub-block's shift, and contribute no product). */
float
pipeline_block(const hw::DotProductPipeline& pipe, const float* x,
               const float* y, std::size_t n)
{
    std::vector<float> xa(16, 0.0f), ya(16, 0.0f);
    std::copy(x, x + n, xa.begin());
    std::copy(y, y + n, ya.begin());
    const hw::PipelineResult r = pipe.run(xa, ya);
    EXPECT_EQ(r.truncated_bits, 0);
    return static_cast<float>(r.value);
}

} // namespace

TEST(PipelineOracle, SingleBlockGemmEqualsThePipelineBitForBit)
{
    stats::Rng rng(150);
    for_each_simd_level([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            const hw::DotProductPipeline pipe({fmt, 16, 52});
            const QuantPlan plan = make_quant_plan(fmt);
            for (const NamedGenerator& gen : kGenerators) {
                const std::int64_t m = 3, n = 17, k = 16;
                Tensor x = gen.make(m, k, rng);
                Tensor y = gen.make(n, k, rng);
                Tensor got = gemm::matmul_nt_packed2(x, plan, y, plan);
                Tensor want({m, n});
                for (std::int64_t i = 0; i < m; ++i)
                    for (std::int64_t j = 0; j < n; ++j)
                        want.data()[i * n + j] = pipeline_block(
                            pipe, x.data() + i * k, y.data() + j * k, 16);
                EXPECT_EQ(first_bit_mismatch(got, want), -1)
                    << gen.name << " " << fmt.name << " leg=" << leg;
            }
        }
    });
}

TEST(PipelineOracle, MultiBlockGemmEqualsTheAscendingSumOfPipelineBlocks)
{
    stats::Rng rng(151);
    for_each_simd_level([&](const char* leg) {
        for (const auto& fmt : mx_formats()) {
            const hw::DotProductPipeline pipe({fmt, 16, 52});
            const QuantPlan plan = make_quant_plan(fmt);
            for (const NamedGenerator& gen : kGenerators) {
                for (std::int64_t k : {64, 87, 1024}) {
                    const std::int64_t m = 2, n = 17;
                    Tensor x = gen.make(m, k, rng);
                    Tensor y = gen.make(n, k, rng);
                    Tensor got = gemm::matmul_nt_packed2(x, plan, y, plan);
                    Tensor want({m, n});
                    for (std::int64_t i = 0; i < m; ++i)
                        for (std::int64_t j = 0; j < n; ++j) {
                            float acc = 0.0f;
                            for (std::int64_t c0 = 0; c0 < k; c0 += 16)
                                acc += pipeline_block(
                                    pipe, x.data() + i * k + c0,
                                    y.data() + j * k + c0,
                                    static_cast<std::size_t>(
                                        std::min<std::int64_t>(16, k - c0)));
                            want.data()[i * n + j] = acc;
                        }
                    EXPECT_EQ(first_bit_mismatch(got, want), -1)
                        << gen.name << " " << fmt.name << " k=" << k
                        << " leg=" << leg;
                }
            }
        }
    });
}

TEST(PipelineOracle, SingleBlockGemmOfEverySweepFormatEqualsThePipeline)
{
    // The scalar kernel is the reference every leg matches, and it is
    // what SIMD legs fall back to off their fast path (k1 != 16, d2 = 0
    // sides, wide mantissas).  So check it against the pipeline across
    // the whole design-space sweep: one k1 block per output, where the
    // pipeline's value rounded to float is the GEMM contract's result.
    core::kernels::set_simd_level(core::kernels::SimdLevel::Scalar);
    stats::Rng rng(152);
    std::size_t formats = 0;
    for (const core::BdrFormat& fmt :
         sweep::enumerate_formats(sweep::SweepSpec{})) {
        if (fmt.elem != core::ElementKind::SignMagnitude ||
            fmt.s_kind != core::ScaleKind::Pow2Hw)
            continue;
        const QuantPlan plan = make_quant_plan(fmt);
        if (!gemm::gemm_compatible(plan, plan))
            continue;
        ++formats;
        const hw::DotProductPipeline pipe({fmt, plan.k1, 56});
        const std::int64_t m = 2, n = 3, k = plan.k1;
        for (const NamedGenerator& gen : kGenerators) {
            Tensor x = gen.make(m, k, rng);
            Tensor y = gen.make(n, k, rng);
            Tensor got = gemm::matmul_nt_packed2(x, plan, y, plan);
            Tensor want({m, n});
            for (std::int64_t i = 0; i < m; ++i)
                for (std::int64_t j = 0; j < n; ++j) {
                    const hw::PipelineResult r = pipe.run(
                        std::span<const float>(x.data() + i * k,
                                               static_cast<std::size_t>(k)),
                        std::span<const float>(y.data() + j * k,
                                               static_cast<std::size_t>(k)));
                    EXPECT_EQ(r.truncated_bits, 0) << fmt.summary();
                    want.data()[i * n + j] = static_cast<float>(r.value);
                }
            EXPECT_EQ(first_bit_mismatch(got, want), -1)
                << gen.name << " " << fmt.summary();
        }
    }
    EXPECT_GE(formats, 800u) << "the sweep lost its pow2 formats";
    core::kernels::reset_simd_level();
}

TEST(KernelDispatch, SimdLevelSelectsTheGemmKernel)
{
    namespace ck = core::kernels;
    ck::set_simd_level(ck::SimdLevel::Scalar);
    EXPECT_STREQ(gemm::active_gemm_kernel().name(), "scalar");
    if (ck::avx2_supported()) {
        ck::set_simd_level(ck::SimdLevel::Avx2);
        EXPECT_STREQ(gemm::active_gemm_kernel().name(), "avx2");
    }
    if (ck::avx512_supported()) {
        ck::set_simd_level(ck::SimdLevel::Avx512);
        EXPECT_STREQ(gemm::active_gemm_kernel().name(), "avx512");
    }
    // The hook caps at the host ceiling: asking for AVX-512 anywhere
    // resolves to a kernel this machine can actually execute.
    ck::set_simd_level(ck::SimdLevel::Avx512);
    const char* capped = gemm::active_gemm_kernel().name();
    EXPECT_TRUE(ck::avx512_supported() ? std::string(capped) == "avx512"
                : ck::avx2_supported() ? std::string(capped) == "avx2"
                                       : std::string(capped) == "scalar");
    ck::reset_simd_level();
    // The legacy pin still works on top of the level machinery.
    ck::set_force_scalar(true);
    EXPECT_STREQ(gemm::active_gemm_kernel().name(), "scalar");
    ck::set_force_scalar(false);
}
