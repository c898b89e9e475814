#pragma once

/**
 * @file
 * Bit-granular serialization shared by the packed format codecs and the
 * fused quantize+pack kernels.
 *
 * BDR formats are not byte-aligned (an MX9 element is 8 bits but its
 * block carries 8 + 8x1 extra scale bits; an MX4 element is 3 bits), so
 * fields are written LSB-first into a byte stream.  The memory model's
 * packing-efficiency numbers (Fig 7 x-axis) come from the exact same
 * field widths.
 *
 * Writes and reads move whole bytes at a time (at most 9 touches for a
 * 64-bit field instead of 64), which is what makes the fused
 * quantize+pack kernel path competitive with plain quantization; see
 * BENCH_perf_quantize.json's pack_* metrics.
 *
 * This header lives in core (not formats) so the kernel layer can emit
 * packed blocks without inverting the core -> formats dependency;
 * formats/packed.h re-exports the two classes under mx::formats for
 * existing call sites.
 */

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/check.h"

namespace mx {
namespace core {

/** Appends bit fields (LSB-first within the stream) to a byte vector. */
class BitWriter
{
  public:
    BitWriter() = default;

    /** Append after the contents of @p bytes (moved in; take() hands the
     *  vector back): fields land in its spare capacity first, so a
     *  caller that reserved enough pays no reallocation. */
    explicit BitWriter(std::vector<std::uint8_t> bytes)
        : bytes_(std::move(bytes))
    {
    }

    /** Append the low @p bits of @p value (bits in [0, 64]). */
    void
    write(std::uint64_t value, int bits)
    {
        MX_CHECK_ARG(bits >= 0 && bits <= 64, "BitWriter: bad field width");
        while (bits > 0) {
            if (bit_pos_ == 0)
                bytes_.push_back(0);
            const int take = std::min(bits, 8 - bit_pos_);
            const std::uint32_t mask = (1u << take) - 1u;
            bytes_.back() |= static_cast<std::uint8_t>(
                (static_cast<std::uint32_t>(value) & mask) << bit_pos_);
            value >>= take;
            bits -= take;
            bit_pos_ = (bit_pos_ + take) & 7;
        }
    }

    /** Close the current byte: the next field starts on a byte
     *  boundary, and the closed byte's unused high bits stay zero. */
    void pad_to_byte() { bit_pos_ = 0; }

    /** Total number of bits written. */
    std::size_t
    bit_count() const
    {
        if (bytes_.empty())
            return 0;
        return bytes_.size() * 8 -
               (bit_pos_ == 0 ? 0 : 8 - static_cast<std::size_t>(bit_pos_));
    }

    /** The accumulated byte stream (final partial byte zero-padded). */
    const std::vector<std::uint8_t>& bytes() const { return bytes_; }

    /** Move the stream out. */
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<std::uint8_t> bytes_;
    int bit_pos_ = 0;
};

/** Reads bit fields written by BitWriter, in the same order.  Holds a
 *  non-owning view: works equally over an owned byte vector or a
 *  read-only mapping (artifact/reader.h) — the caller keeps the bytes
 *  alive for the reader's lifetime. */
class BitReader
{
  public:
    explicit BitReader(const std::vector<std::uint8_t>& bytes)
        : data_(bytes.data()), size_(bytes.size())
    {
    }

    explicit BitReader(std::span<const std::uint8_t> bytes)
        : data_(bytes.data()), size_(bytes.size())
    {
    }

    /** Read the next @p bits as an unsigned value. */
    std::uint64_t
    read(int bits)
    {
        MX_CHECK_ARG(bits >= 0 && bits <= 64, "BitReader: bad field width");
        std::uint64_t v = 0;
        int got = 0;
        while (got < bits) {
            const std::size_t byte = pos_ >> 3;
            MX_CHECK_ARG(byte < size_, "BitReader: out of data");
            const int off = static_cast<int>(pos_ & 7);
            const int take = std::min(bits - got, 8 - off);
            const std::uint32_t mask = (1u << take) - 1u;
            const std::uint64_t chunk =
                (static_cast<std::uint32_t>(data_[byte]) >> off) & mask;
            v |= chunk << got;
            got += take;
            pos_ += static_cast<std::size_t>(take);
        }
        return v;
    }

    /** Bits consumed so far. */
    std::size_t bit_position() const { return pos_; }

  private:
    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace core
} // namespace mx
