/**
 * @file
 * Tests for the packed format codecs: bit-level roundtrip, agreement with
 * fake quantization, and exact storage accounting.
 */

#include <gtest/gtest.h>

#include <cctype>

#include "core/check.h"

#include <cmath>

#include "formats/block_codec.h"
#include "formats/packed.h"
#include "stats/rng.h"

using namespace mx;
using namespace mx::core;
using namespace mx::formats;

TEST(BitStream, WriteReadRoundTrip)
{
    BitWriter w;
    w.write(0b101, 3);
    w.write(0xabcd, 16);
    w.write(1, 1);
    w.write(0x123456789abcdef0ull, 64);
    EXPECT_EQ(w.bit_count(), 84u);

    auto bytes = w.bytes();
    BitReader r(bytes);
    EXPECT_EQ(r.read(3), 0b101u);
    EXPECT_EQ(r.read(16), 0xabcdu);
    EXPECT_EQ(r.read(1), 1u);
    EXPECT_EQ(r.read(64), 0x123456789abcdef0ull);
}

namespace {

/** The byte-at-a-time writer BitWriter replaced: one bit per loop
 *  iteration, so it shares no shortcut with the word accumulator. */
class ReferenceBitWriter
{
  public:
    explicit ReferenceBitWriter(std::vector<std::uint8_t> bytes = {})
        : bytes_(std::move(bytes))
    {
    }

    void
    write(std::uint64_t value, int bits)
    {
        for (int i = 0; i < bits; ++i) {
            if (bit_pos_ == 0)
                bytes_.push_back(0);
            bytes_.back() = static_cast<std::uint8_t>(
                bytes_.back() | (((value >> i) & 1u) << bit_pos_));
            bit_pos_ = (bit_pos_ + 1) & 7;
        }
    }

    void pad_to_byte() { bit_pos_ = 0; }

    std::size_t
    bit_count() const
    {
        return bytes_.size() * 8 -
               (bit_pos_ == 0 ? 0 : 8 - static_cast<std::size_t>(bit_pos_));
    }

    const std::vector<std::uint8_t>& bytes() const { return bytes_; }

  private:
    std::vector<std::uint8_t> bytes_;
    int bit_pos_ = 0;
};

} // namespace

TEST(BitStream, MatchesAByteAtATimeReferenceWriter)
{
    // Random widths 0-64 (values carry garbage above their width) with
    // pads interleaved, bytes() read mid-stream, and writers that
    // append after existing bytes: every view must match the reference.
    stats::Rng rng(4242);
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<std::uint8_t> prefix(
            static_cast<std::size_t>(rng.uniform_int(0, 3)));
        for (std::uint8_t& b : prefix)
            b = static_cast<std::uint8_t>(rng.next_u32());
        BitWriter w(prefix);
        ReferenceBitWriter ref(prefix);
        for (int i = 0; i < 60; ++i) {
            const std::uint64_t roll = rng.uniform_int(0, 9);
            if (roll == 0) {
                w.pad_to_byte();
                ref.pad_to_byte();
            } else if (roll == 1) {
                ASSERT_EQ(w.bytes(), ref.bytes()) << "trial " << trial;
            } else {
                const int width = static_cast<int>(rng.uniform_int(0, 64));
                const std::uint64_t value = rng.next_u64();
                w.write(value, width);
                ref.write(value, width);
            }
            ASSERT_EQ(w.bit_count(), ref.bit_count()) << "trial " << trial;
        }
        ASSERT_EQ(w.bytes(), ref.bytes()) << "trial " << trial;
        const std::size_t bits = w.bit_count();
        const std::vector<std::uint8_t> taken = w.take();
        ASSERT_EQ(taken, ref.bytes()) << "trial " << trial;
        ASSERT_EQ(taken.size(), (bits + 7) / 8);
        EXPECT_EQ(w.bit_count(), 0u);
    }
}

TEST(BitStream, ReaderThrowsPastEnd)
{
    BitWriter w;
    w.write(0xff, 8);
    auto bytes = w.bytes();
    BitReader r(bytes);
    r.read(8);
    EXPECT_THROW(r.read(1), ArgumentError);
}

namespace {

std::vector<float>
random_values(std::size_t n, std::uint64_t seed)
{
    stats::Rng rng(seed);
    std::vector<float> v(n);
    for (auto& x : v)
        x = static_cast<float>(rng.normal(0.0, std::exp(rng.normal())));
    return v;
}

} // namespace

class CodecRoundTrip : public ::testing::TestWithParam<BdrFormat>
{
};

TEST_P(CodecRoundTrip, UnpackMatchesFakeQuantize)
{
    const BdrFormat fmt = GetParam();
    auto x = random_values(333, 2024); // deliberately not a k1 multiple
    PackedTensor p = pack(fmt, x);
    auto decoded = unpack(p);
    auto reference = fake_quantize(fmt, x);
    ASSERT_EQ(decoded.size(), reference.size());
    for (std::size_t i = 0; i < decoded.size(); ++i) {
        if (fmt.s_kind == ScaleKind::Pow2Hw) {
            EXPECT_EQ(decoded[i], reference[i])
                << fmt.name << " index " << i;
        } else {
            // SW-scaled paths store the FP32 scale; tiny rounding of the
            // stored scale vs the double-precision reference is allowed.
            EXPECT_NEAR(decoded[i], reference[i],
                        2e-5f * (std::fabs(reference[i]) + 1e-4f))
                << fmt.name << " index " << i;
        }
    }
}

TEST_P(CodecRoundTrip, BitSizeMatchesAccounting)
{
    const BdrFormat fmt = GetParam();
    auto x = random_values(512, 99);
    PackedTensor p = pack(fmt, x);
    EXPECT_EQ(p.bit_size, packed_bits(fmt, x.size())) << fmt.name;
    EXPECT_EQ(p.bytes.size(), (p.bit_size + 7) / 8) << fmt.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, CodecRoundTrip,
    ::testing::Values(mx9(), mx6(), mx4(), msfp16(), msfp12(),
                      mx_custom(5, 8, 32, 2, 4), fp8_e4m3(), fp8_e5m2(),
                      fp4_e2m1(), fp6_e2m3(), scaled_int(4), scaled_int(8),
                      vsq(4, 4), vsq(8, 8)),
    [](const ::testing::TestParamInfo<BdrFormat>& info) {
        std::string n = info.param.name;
        for (char& c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(Codec, Mx9TileIs2304Bits)
{
    // 256 elements: 16 blocks x (8-bit exp + 8 x 1-bit micro-exp +
    // 16 x 8-bit elements) = 2304 bits — the Section IV-B packing input.
    EXPECT_EQ(packed_bits(mx9(), 256), 2304u);
    EXPECT_EQ(packed_bits(mx6(), 256), 1536u);
    EXPECT_EQ(packed_bits(mx4(), 256), 1024u);
    EXPECT_EQ(packed_bits(msfp16(), 256), 2176u);
}

TEST(Codec, EmptyTensor)
{
    PackedTensor p = pack(mx9(), std::vector<float>{});
    EXPECT_EQ(p.bit_size, 0u);
    EXPECT_TRUE(unpack(p).empty());
}

TEST(Codec, RejectsStochasticRounding)
{
    auto x = random_values(16, 1);
    EXPECT_THROW(pack(mx9(), x, RoundingMode::Stochastic), ArgumentError);
}
