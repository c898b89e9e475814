#pragma once

/**
 * @file
 * A field-by-field reference decoder for the packed pow2-block stream
 * (the formats/block_codec.h layout), the oracle that
 * tests/test_gemm.cpp and tests/fuzz/fuzz_mx.cpp hold
 * gemm::PackedOperand::decode / decode_rows to.
 *
 * It reads one field at a time, one byte at a time, with a bounds check
 * per byte, and shares no code with core::BitReader's 64-bit window or
 * core::kernels::detail::read_block_bits: the point is an independent
 * second reading of the same bits.
 */

#include <cstddef>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/kernels/quant_kernel.h"
#include "gemm/packed_operand.h"

namespace mx {
namespace test {

/** LSB-first field reader over a byte span; read() reports running out
 *  of bytes instead of throwing. */
class ByteReader
{
  public:
    explicit ByteReader(std::span<const std::uint8_t> bytes)
        : bytes_(bytes)
    {
    }

    /** Read @p bits (0..64) into @p out; false when the span runs out. */
    bool
    read(int bits, std::uint64_t& out)
    {
        out = 0;
        for (int got = 0; got < bits; ++got, ++pos_) {
            const std::size_t byte = pos_ / 8;
            if (byte >= bytes_.size())
                return false;
            const std::uint64_t bit = (bytes_[byte] >> (pos_ % 8)) & 1u;
            out |= bit << got;
        }
        return true;
    }

  private:
    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
};

/** The execution view's three arrays, row-major. */
struct OracleView
{
    std::vector<std::int16_t> mant;
    std::vector<std::uint8_t> tau;
    std::vector<std::int16_t> exp;
};

/** Stream bits of one row of @p cols elements, summed block by block. */
inline std::size_t
oracle_row_bits(const core::kernels::QuantPlan& plan, std::size_t cols)
{
    const std::size_t k1 = static_cast<std::size_t>(plan.k1);
    const std::size_t k2 = static_cast<std::size_t>(plan.k2);
    std::size_t bits = 0;
    for (std::size_t off = 0; off < cols; off += k1) {
        const std::size_t n = cols - off < k1 ? cols - off : k1;
        bits += static_cast<std::size_t>(plan.d1) +
                (n + k2 - 1) / k2 * static_cast<std::size_t>(plan.d2) +
                n * static_cast<std::size_t>(1 + plan.m);
    }
    return bits;
}

/** Decode one row's blocks field by field; false when out of data. */
inline bool
oracle_decode_row(const core::kernels::QuantPlan& plan, ByteReader& r,
                  std::size_t cols, OracleView& out)
{
    const std::size_t k1 = static_cast<std::size_t>(plan.k1);
    const std::size_t k2 = static_cast<std::size_t>(plan.k2);
    std::uint64_t v = 0;
    for (std::size_t off = 0; off < cols; off += k1) {
        const std::size_t n = cols - off < k1 ? cols - off : k1;
        if (!r.read(plan.d1, v))
            return false;
        out.exp.push_back(
            static_cast<std::int16_t>(static_cast<int>(v) - plan.e_max));
        for (std::size_t s = 0; s < (n + k2 - 1) / k2; ++s) {
            if (!r.read(plan.d2, v))
                return false;
            out.tau.push_back(static_cast<std::uint8_t>(v));
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (!r.read(1 + plan.m, v))
                return false;
            const auto mag = static_cast<std::int16_t>(v >> 1);
            out.mant.push_back((v & 1) != 0
                                   ? static_cast<std::int16_t>(-mag)
                                   : mag);
        }
    }
    return true;
}

/**
 * Decode @p rows rows of @p cols elements.  Bit-contiguous rows
 * (PackedOperand::decode's layout) when @p aligned_rows is false;
 * otherwise row r starts at byte r * ceil(row_bits / 8) and the stream
 * must hold every row's whole stride (decode_rows' layout).  False when
 * the stream is too short.
 */
inline bool
oracle_decode(const core::kernels::QuantPlan& plan,
              std::span<const std::uint8_t> bytes, std::size_t rows,
              std::size_t cols, bool aligned_rows, OracleView& out)
{
    out = OracleView{};
    if (!aligned_rows) {
        ByteReader r(bytes);
        for (std::size_t row = 0; row < rows; ++row)
            if (!oracle_decode_row(plan, r, cols, out))
                return false;
        return true;
    }
    const std::size_t stride = (oracle_row_bits(plan, cols) + 7) / 8;
    if (bytes.size() < rows * stride)
        return false;
    for (std::size_t row = 0; row < rows; ++row) {
        ByteReader r(bytes.subspan(row * stride, stride));
        if (!oracle_decode_row(plan, r, cols, out))
            return false;
    }
    return true;
}

/** The first difference between @p op and @p ref, or "" when equal. */
inline std::string
first_mismatch(const gemm::PackedOperand& op, const OracleView& ref)
{
    std::ostringstream os;
    const std::size_t subs = op.subs_per_row(), blocks = op.blocks_per_row();
    if (ref.mant.size() != op.rows() * op.cols() ||
        ref.tau.size() != op.rows() * subs ||
        ref.exp.size() != op.rows() * blocks) {
        os << "shape: oracle holds " << ref.mant.size() << "/"
           << ref.tau.size() << "/" << ref.exp.size() << " fields";
        return os.str();
    }
    for (std::size_t r = 0; r < op.rows(); ++r) {
        for (std::size_t c = 0; c < op.cols(); ++c)
            if (op.row_mantissa(r)[c] != ref.mant[r * op.cols() + c]) {
                os << "mantissa [" << r << "," << c << "]: "
                   << op.row_mantissa(r)[c] << " vs oracle "
                   << ref.mant[r * op.cols() + c];
                return os.str();
            }
        for (std::size_t s = 0; s < subs; ++s)
            if (op.row_tau(r)[s] != ref.tau[r * subs + s]) {
                os << "tau [" << r << "," << s << "]: "
                   << int(op.row_tau(r)[s]) << " vs oracle "
                   << int(ref.tau[r * subs + s]);
                return os.str();
            }
        for (std::size_t b = 0; b < blocks; ++b)
            if (op.row_exp(r)[b] != ref.exp[r * blocks + b]) {
                os << "exp [" << r << "," << b << "]: " << op.row_exp(r)[b]
                   << " vs oracle " << ref.exp[r * blocks + b];
                return os.str();
            }
    }
    return {};
}

} // namespace test
} // namespace mx
