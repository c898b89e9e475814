/**
 * @file
 * Property tests for the plan/execute quantization kernel layer:
 * the SIMD kernel must be bit-identical to the scalar reference for
 * every format, block size (including short tails), magnitude regime,
 * and rounding mode — across dequantized floats, integer encodings,
 * and fused-packed bit streams — and that quantize_encode_rows writes
 * the same encodings as quantize_block on every leg.  Also covers the
 * BitWriter / windowed BitReader and the runtime dispatch override.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/env.h"
#include "core/kernels/dispatch.h"
#include "core/quantize.h"
#include "formats/block_codec.h"
#include "stats/rng.h"

using namespace mx;
using namespace mx::core;

namespace {

std::vector<float>
random_vec(std::size_t n, stats::Rng& rng, double sigma)
{
    std::vector<float> v(n);
    for (auto& x : v) {
        x = static_cast<float>(rng.normal(0.0, sigma));
        if (rng.bernoulli(0.05))
            x = 0.0f; // exercise zero sub-blocks
        if (rng.bernoulli(0.02))
            x = -x;
    }
    return v;
}

void
expect_bits_equal(std::span<const float> a, std::span<const float> b,
                  const std::string& what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(a[i]),
                  std::bit_cast<std::uint32_t>(b[i]))
            << what << " index " << i << ": " << a[i] << " vs " << b[i];
}

/** The format grid the parity suite sweeps (m, k1, d2, k2 variety). */
std::vector<BdrFormat>
parity_formats()
{
    std::vector<BdrFormat> fmts = {mx9(), mx6(), mx4(), msfp16(), msfp12()};
    for (int m : {1, 3, 7, 10}) {
        fmts.push_back(bfp_custom(m, 8, 16));
        fmts.push_back(mx_custom(m, 8, 8, 1, 2));
        fmts.push_back(mx_custom(m, 8, 32, 2, 4));
        fmts.push_back(mx_custom(m, 8, 128, 3, 8));
        fmts.push_back(mx_custom(m, 8, 16, 4, 16));
        fmts.push_back(mx_custom(m, 8, 64, 1, 1));
    }
    return fmts;
}

const std::size_t kSizes[] = {1, 5, 15, 16, 17, 37, 128, 333, 1024};
const double kSigmas[] = {1.0, 1e-20, 1e20, 0x1p-120, 0x1p+60};
const RoundingMode kModes[] = {RoundingMode::NearestEven,
                               RoundingMode::NearestAway,
                               RoundingMode::TowardZero,
                               RoundingMode::Stochastic};

class KernelParity : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!kernels::avx2_supported())
            GTEST_SKIP() << "AVX2 kernel not available on this host";
    }

    const kernels::QuantKernel& scalar_ = kernels::scalar_kernel();
    const kernels::QuantKernel& simd_ = *kernels::avx2_kernel();
};

TEST_F(KernelParity, QuantizeSpansBitIdentical)
{
    stats::Rng data_rng(2024);
    for (const auto& fmt : parity_formats()) {
        const kernels::QuantPlan plan = kernels::make_quant_plan(fmt);
        for (std::size_t n : kSizes) {
            for (double sigma : kSigmas) {
                for (RoundingMode mode : kModes) {
                    SCOPED_TRACE(fmt.summary() + " n=" + std::to_string(n) +
                                 " sigma=" + std::to_string(sigma) + " " +
                                 to_string(mode));
                    auto x = random_vec(n, data_rng, sigma);
                    std::vector<float> a(n), b(n);
                    stats::Rng r1(7), r2(7);
                    Rounder ra(mode, &r1), rb(mode, &r2);
                    scalar_.quantize(plan, x, a, ra);
                    simd_.quantize(plan, x, b, rb);
                    expect_bits_equal(a, b, "quantize");
                }
            }
        }
    }
}

TEST_F(KernelParity, BlockEncodingsIdentical)
{
    stats::Rng data_rng(77);
    for (const auto& fmt : parity_formats()) {
        const kernels::QuantPlan plan = kernels::make_quant_plan(fmt);
        const std::size_t k1 = static_cast<std::size_t>(fmt.k1);
        for (std::size_t n : {k1, k1 / 2 + 1, std::size_t{1}}) {
            for (double sigma : kSigmas) {
                SCOPED_TRACE(fmt.summary() + " n=" + std::to_string(n) +
                             " sigma=" + std::to_string(sigma));
                auto x = random_vec(n, data_rng, sigma);
                std::vector<float> a(n), b(n);
                Pow2BlockEncoding ea, eb;
                Rounder r;
                scalar_.quantize_block(plan, x, a, r, &ea);
                simd_.quantize_block(plan, x, b, r, &eb);
                expect_bits_equal(a, b, "quantize_block");
                EXPECT_EQ(ea.shared_exp, eb.shared_exp);
                ASSERT_EQ(ea.sub_shift, eb.sub_shift);
                ASSERT_EQ(ea.mantissa, eb.mantissa);

                // Dequantize through both kernels as well.
                std::vector<float> da(n), db(n);
                scalar_.dequantize_block(plan, ea, da);
                simd_.dequantize_block(plan, ea, db);
                expect_bits_equal(da, db, "dequantize_block");
            }
        }
    }
}

TEST_F(KernelParity, FusedPackStreamsIdentical)
{
    stats::Rng data_rng(4242);
    for (const auto& fmt : parity_formats()) {
        const kernels::QuantPlan plan = kernels::make_quant_plan(fmt);
        for (std::size_t n : {std::size_t{37}, std::size_t{1024}}) {
            for (double sigma : {1.0, 0x1p-120}) {
                SCOPED_TRACE(fmt.summary() + " n=" + std::to_string(n));
                auto x = random_vec(n, data_rng, sigma);
                BitWriter wa, wb;
                Rounder r;
                scalar_.quantize_pack(plan, x, r, wa);
                simd_.quantize_pack(plan, x, r, wb);
                EXPECT_EQ(wa.bit_count(), wb.bit_count());
                EXPECT_EQ(wa.bytes(), wb.bytes());
            }
        }
    }
}

TEST_F(KernelParity, ExactTiesRoundIdentically)
{
    // Craft values that land exactly between two mantissa codes so the
    // ties-to-even policy itself is compared, not just generic data.
    // Every k2=2 sub-block carries a 64.0 anchor, pinning tau = 0 and
    // the quantization step to exactly 1.
    const BdrFormat fmt = mx9(); // m = 7: step 1 when the sub-max is 2^6
    const kernels::QuantPlan plan = kernels::make_quant_plan(fmt);
    std::vector<float> x = {64.0f, 2.5f,  -3.5f, 64.0f, 4.5f,  64.0f,
                            64.0f, -0.5f, 1.5f,  64.0f, 64.0f, 126.5f,
                            -6.5f, 64.0f, 0.0f,  -0.0f};
    std::vector<float> a(x.size()), b(x.size());
    Rounder r;
    scalar_.quantize(plan, x, a, r);
    simd_.quantize(plan, x, b, r);
    expect_bits_equal(a, b, "ties");
    // And the ties really did go to even.
    EXPECT_EQ(a[1], 2.0f);    // 2.5 -> 2
    EXPECT_EQ(a[2], -4.0f);   // -3.5 -> -4
    EXPECT_EQ(a[4], 4.0f);    // 4.5 -> 4
    EXPECT_EQ(a[7], -0.0f);   // -0.5 -> -0
    EXPECT_EQ(a[8], 2.0f);    // 1.5 -> 2
    EXPECT_EQ(a[11], 126.0f); // 126.5 -> 126
    EXPECT_EQ(a[12], -6.0f);  // -6.5 -> -6
}

TEST_F(KernelParity, NanBlocksMatchReference)
{
    // Garbage in must at least be the SAME garbage out under either
    // kernel: a NaN-bearing block delegates to the reference, keeping
    // dispatch invariance on malformed training data.
    const kernels::QuantPlan plan = kernels::make_quant_plan(mx9());
    std::vector<float> x(32, 1.0f);
    x[3] = std::numeric_limits<float>::quiet_NaN();
    x[20] = -std::numeric_limits<float>::quiet_NaN();
    std::vector<float> a(x.size()), b(x.size());
    Rounder r;
    scalar_.quantize(plan, x, a, r);
    simd_.quantize(plan, x, b, r);
    expect_bits_equal(a, b, "nan block");
    // The NaN-free second half of block 0 still quantizes sanely.
    EXPECT_EQ(a[0], 1.0f);
}

TEST_F(KernelParity, DegenerateValidFormatsStillWork)
{
    // validate() admits m == 0 (sign-only elements) and d1 == 1; the
    // plan and both kernels must accept everything validate() accepts.
    stats::Rng rng(5150);
    for (BdrFormat fmt : {bfp_custom(0, 8, 16), bfp_custom(3, 1, 16),
                          mx_custom(0, 1, 16, 1, 2)}) {
        ASSERT_NO_THROW(fmt.validate()) << fmt.summary();
        const kernels::QuantPlan plan = kernels::make_quant_plan(fmt);
        auto x = random_vec(100, rng, 1.0);
        std::vector<float> a(x.size()), b(x.size());
        Rounder r;
        scalar_.quantize(plan, x, a, r);
        simd_.quantize(plan, x, b, r);
        expect_bits_equal(a, b, fmt.summary());
    }
}

TEST(KernelEncode, EncodeRowsEqualsQuantizeBlockOnEveryLeg)
{
    // quantize_encode_rows (the packed GEMM's activation builder) must
    // write exactly the encodings the scalar reference's quantize_block
    // produces block by block, drawing stochastic-rounding randomness
    // in the same order, on every kernel leg.
    std::vector<const kernels::QuantKernel*> legs = {
        &kernels::scalar_kernel()};
    if (kernels::avx2_supported())
        legs.push_back(kernels::avx2_kernel());
    const kernels::QuantKernel& ref = kernels::scalar_kernel();
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {1, 1}, {3, 17}, {2, 128}, {4, 37}, {1, 333}};
    stats::Rng data_rng(8080);
    for (const kernels::QuantKernel* kernel : legs) {
        for (const auto& fmt : parity_formats()) {
            const kernels::QuantPlan plan = kernels::make_quant_plan(fmt);
            const std::size_t k1 = static_cast<std::size_t>(plan.k1);
            for (const auto& [rows, cols] : shapes) {
                for (double sigma : {1.0, 1e-20, 0x1p-120, 0x1p+60}) {
                    for (RoundingMode mode : kModes) {
                        SCOPED_TRACE(std::string(kernel->name()) + " " +
                                     fmt.summary() + " [" +
                                     std::to_string(rows) + " x " +
                                     std::to_string(cols) + "] sigma=" +
                                     std::to_string(sigma) + " " +
                                     to_string(mode));
                        const auto x = random_vec(rows * cols, data_rng,
                                                  sigma);
                        const std::size_t subs = plan.num_sub_blocks(cols);
                        const std::size_t blocks = (cols + k1 - 1) / k1;
                        std::vector<std::int16_t> mant(rows * cols);
                        std::vector<std::uint8_t> tau(rows * subs);
                        std::vector<std::int16_t> exp(rows * blocks);
                        stats::Rng r1(11), r2(11);
                        kernel->quantize_encode_rows(
                            plan, x.data(), rows, cols, Rounder(mode, &r1),
                            mant.data(), tau.data(), exp.data());

                        Rounder rb(mode, &r2);
                        Pow2BlockEncoding enc;
                        std::vector<float> grid(k1);
                        std::size_t b = 0, t = 0;
                        for (std::size_t r = 0; r < rows; ++r) {
                            for (std::size_t off = 0; off < cols;
                                 off += k1) {
                                const std::size_t n =
                                    std::min(k1, cols - off);
                                ref.quantize_block(
                                    plan,
                                    std::span<const float>(
                                        x.data() + r * cols + off, n),
                                    std::span<float>(grid.data(), n), rb,
                                    &enc);
                                ASSERT_EQ(exp[b++], enc.shared_exp);
                                for (std::uint8_t s : enc.sub_shift)
                                    ASSERT_EQ(tau[t++], s);
                                for (std::size_t i = 0; i < n; ++i)
                                    ASSERT_EQ(mant[r * cols + off + i],
                                              enc.mantissa[i])
                                        << "element " << r * cols + off + i;
                            }
                        }
                        // Same number of random draws, in the same order.
                        EXPECT_EQ(r1.next_u64(), r2.next_u64());
                    }
                }
            }
        }
    }
}

TEST(KernelEncode, EncodeRowsRejectsMantissasWiderThanInt16)
{
    const kernels::QuantPlan plan =
        kernels::make_quant_plan(bfp_custom(16, 8, 16));
    std::vector<float> x(16, 1.0f);
    std::vector<std::int16_t> mant(16), exp(1);
    std::vector<std::uint8_t> tau(16);
    Rounder r;
    EXPECT_THROW(kernels::scalar_kernel().quantize_encode_rows(
                     plan, x.data(), 1, 16, r, mant.data(), tau.data(),
                     exp.data()),
                 ArgumentError);
    if (kernels::avx2_supported()) {
        EXPECT_THROW(kernels::avx2_kernel()->quantize_encode_rows(
                         plan, x.data(), 1, 16, r, mant.data(), tau.data(),
                         exp.data()),
                     ArgumentError);
    }
}

TEST(KernelDispatch, ForceScalarPinsReference)
{
    kernels::set_force_scalar(true);
    EXPECT_STREQ(kernels::active_kernel().name(), "scalar");
    kernels::set_force_scalar(false);
    // Releasing the override re-resolves from the environment, so the
    // expectation depends on MX_FORCE_SCALAR (the CI matrix exercises
    // both values of the knob).
    // Same parser dispatch itself uses, so the expectation cannot
    // drift from resolve()'s reading of the knob.
    const bool env_scalar = core::env::flag_knob("MX_FORCE_SCALAR", false);
    if (kernels::avx2_supported() && !env_scalar)
        EXPECT_STREQ(kernels::active_kernel().name(), "avx2");
    else
        EXPECT_STREQ(kernels::active_kernel().name(), "scalar");
}

TEST(KernelDispatch, PackedBytesInvariantUnderDispatch)
{
    // The packed stream is part of the storage format: it must not
    // depend on which kernel produced it.
    stats::Rng rng(9);
    std::vector<float> x(1000);
    for (auto& v : x)
        v = static_cast<float>(rng.normal());
    kernels::set_force_scalar(true);
    auto p_scalar = formats::pack(mx9(), x);
    kernels::set_force_scalar(false);
    auto p_active = formats::pack(mx9(), x);
    EXPECT_EQ(p_scalar.bytes, p_active.bytes);
    EXPECT_EQ(p_scalar.bit_size, p_active.bit_size);
}

TEST(BitStream, RandomFieldsRoundTrip)
{
    stats::Rng rng(31337);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::pair<std::uint64_t, int>> fields;
        BitWriter w;
        std::size_t bits = 0;
        for (int i = 0; i < 50; ++i) {
            int width = static_cast<int>(rng.uniform_int(0, 64));
            std::uint64_t value = rng.next_u64();
            if (width < 64)
                value &= (1ull << width) - 1;
            fields.emplace_back(value, width);
            w.write(value, width);
            bits += static_cast<std::size_t>(width);
        }
        ASSERT_EQ(w.bit_count(), bits);
        BitReader r(w.bytes());
        for (const auto& [value, width] : fields)
            ASSERT_EQ(r.read(width), value) << "width " << width;
        ASSERT_EQ(r.bit_position(), bits);
    }
}

TEST(BitStream, ReadPastEndThrows)
{
    BitWriter w;
    w.write(0x2a, 6);
    BitReader r(w.bytes());
    EXPECT_EQ(r.read(6), 0x2au);
    // The final partial byte zero-pads to 8 bits; past that is an error.
    EXPECT_EQ(r.read(2), 0u);
    EXPECT_THROW(r.read(1), ArgumentError);
}

TEST(BitStream, WindowedReadsMatchBitExtractionAtEveryLength)
{
    // The 64-bit window refills by whole words except in the last 8
    // bytes: every stream length from 0 to 40 bytes, read with random
    // widths through read() and read_run(), must return exactly the
    // bits a one-bit-at-a-time extraction sees, and run out exactly at
    // the end.  Streams are sized exactly, so an overread is an
    // out-of-bounds access under the sanitizers.
    stats::Rng rng(4711);
    const auto bits_at = [](const std::vector<std::uint8_t>& b,
                            std::size_t pos, int width) {
        std::uint64_t v = 0;
        for (int i = 0; i < width; ++i, ++pos)
            v |= static_cast<std::uint64_t>((b[pos / 8] >> (pos % 8)) & 1u)
                 << i;
        return v;
    };
    for (std::size_t len = 0; len <= 40; ++len) {
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<std::uint8_t> bytes(len);
            for (std::uint8_t& b : bytes)
                b = static_cast<std::uint8_t>(rng.next_u64());
            BitReader r(bytes);
            std::size_t pos = 0;
            const std::size_t total = len * 8;
            while (true) {
                const int width = static_cast<int>(rng.uniform_int(0, 64));
                const std::size_t count = rng.bernoulli(0.5)
                    ? 1
                    : static_cast<std::size_t>(rng.uniform_int(1, 9));
                if (pos + count * static_cast<std::size_t>(width) > total) {
                    if (width > 0 && count == 1) {
                        EXPECT_THROW(r.read(width), ArgumentError);
                        break;
                    }
                    continue;
                }
                if (count == 1) {
                    ASSERT_EQ(r.read(width), bits_at(bytes, pos, width))
                        << "len " << len << " bit " << pos;
                    pos += static_cast<std::size_t>(width);
                } else {
                    r.read_run(width, count,
                               [&](std::size_t, std::uint64_t v) {
                                   ASSERT_EQ(v, bits_at(bytes, pos, width))
                                       << "len " << len << " bit " << pos;
                                   pos += static_cast<std::size_t>(width);
                               });
                }
                ASSERT_EQ(r.bit_position(), pos);
            }
        }
    }
}

TEST(BitStream, ReadRunPastEndThrows)
{
    std::vector<std::uint8_t> bytes(11, 0xA5); // 88 bits = 11 x 8
    BitReader r(bytes);
    std::size_t seen = 0;
    EXPECT_THROW(r.read_run(8, 12,
                            [&](std::size_t, std::uint64_t v) {
                                EXPECT_EQ(v, 0xA5u);
                                ++seen;
                            }),
                 ArgumentError);
    EXPECT_EQ(seen, 11u);
}

TEST(QuantPlan, RejectsNonPow2Formats)
{
    EXPECT_THROW(kernels::make_quant_plan(fp8_e4m3()), ArgumentError);
    EXPECT_THROW(kernels::make_quant_plan(scaled_int(8)), ArgumentError);
    const kernels::QuantPlan p = kernels::make_quant_plan(mx9());
    EXPECT_EQ(p.m, 7);
    EXPECT_EQ(p.k1, 16);
    EXPECT_EQ(p.k2, 2);
    EXPECT_EQ(p.beta, 1);
    EXPECT_EQ(p.mant_max, 127);
    EXPECT_EQ(p.e_max, 127);
    EXPECT_EQ(p.e_min, -127);
}

} // namespace
