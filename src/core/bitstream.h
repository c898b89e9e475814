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
 * Writes accumulate in a 64-bit word that is flushed eight bytes at a
 * time, so a field costs a mask, a shift and an OR.  Reads go through a 64-bit window refilled one
 * little-endian word at a time, so a field costs a mask and a shift;
 * only the stream's last 8 bytes are loaded byte by byte, which keeps
 * every load inside the caller's span.  The window is what lets the
 * packed operand decode (gemm/packed_operand.h) and the unpackers run
 * at kernel speed; see BENCH_perf_quantize.json's unpack_* and
 * operand_decode_* metrics.
 *
 * This header lives in core (not formats) so the kernel layer can emit
 * packed blocks without inverting the core -> formats dependency;
 * formats/packed.h re-exports the two classes under mx::formats for
 * existing call sites.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
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
        // No message building on the hot path, so write() inlines into
        // the fused quantize+pack loops.
        if (static_cast<unsigned>(bits) > 64)
            bad_width();
        if (bits < 64)
            value &= (std::uint64_t{1} << bits) - 1;
        acc_ |= value << pending_;
        pending_ += bits;
        if (pending_ >= 64) {
            pending_ -= 64;
            put(8);
            tail_ = 0;
            // What is left of value: its top pending_ bits.
            acc_ = pending_ == 0 ? 0 : value >> (bits - pending_);
        }
    }

    /** Close the current byte: the next field starts on a byte
     *  boundary, and the closed byte's unused high bits stay zero. */
    void
    pad_to_byte()
    {
        pending_ = (pending_ + 7) & ~7;
        if (pending_ == 64) {
            put(8);
            *this = BitWriter(std::move(bytes_));
        }
    }

    /** Total number of bits written. */
    std::size_t
    bit_count() const
    {
        return (bytes_.size() - tail_) * 8 +
               static_cast<std::size_t>(pending_);
    }

    /** The accumulated byte stream (final partial byte zero-padded). */
    const std::vector<std::uint8_t>&
    bytes() const
    {
        const std::size_t n = (static_cast<std::size_t>(pending_) + 7) / 8;
        put(n);
        tail_ = n;
        return bytes_;
    }

    /** Move the stream out. */
    std::vector<std::uint8_t>
    take()
    {
        bytes();
        std::vector<std::uint8_t> out = std::move(bytes_);
        *this = BitWriter();
        return out;
    }

  private:
    [[noreturn, gnu::noinline, gnu::cold]] static void
    bad_width()
    {
        throw ArgumentError("BitWriter: bad field width");
    }

    /** Append the low @p n bytes of acc_, little-endian, over the copy
     *  of the pending bits an earlier bytes() left at the end. */
    void
    put(std::size_t n) const
    {
        bytes_.resize(bytes_.size() - tail_);
        for (std::size_t i = 0; i < n; ++i)
            bytes_.push_back(static_cast<std::uint8_t>(acc_ >> (8 * i)));
    }

    /** Flushed words, then tail_ bytes that bytes() copied from acc_. */
    mutable std::vector<std::uint8_t> bytes_;
    mutable std::size_t tail_ = 0;
    std::uint64_t acc_ = 0; ///< Pending bits, the next one at pending_.
    int pending_ = 0;       ///< Valid bits in acc_, in [0, 64).
};

/** Reads bit fields written by BitWriter, in the same order.  Holds a
 *  non-owning view: works equally over an owned byte vector or a
 *  read-only mapping (artifact/reader.h) — the caller keeps the bytes
 *  alive for the reader's lifetime.  Never loads a byte outside the
 *  view. */
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

    /** Read the next @p bits as an unsigned value; throws
     *  mx::ArgumentError ("out of data") when fewer remain. */
    std::uint64_t
    read(int bits)
    {
        // The hot path carries no message building, so it inlines into
        // the decode loops; widths outside [0, 56] and a short stream
        // take the out-of-line paths below.
        if (static_cast<unsigned>(bits) > kMaxFast)
            return read_wide(bits);
        if (avail_ < bits) {
            refill();
            if (avail_ < bits)
                out_of_data(bits);
        }
        const std::uint64_t v = window_ & ((std::uint64_t{1} << bits) - 1);
        window_ >>= bits;
        avail_ -= bits;
        return v;
    }

    /**
     * Read @p count consecutive @p bits-wide fields (bits in [0, 64]),
     * handing each to @p sink(i, value) in order — the bulk form of
     * read() behind the block decoders.  The window stays in locals
     * across the run, so a field costs a compare, a mask and a shift.
     */
    template <typename Sink>
    void
    read_run(int bits, std::size_t count, Sink&& sink)
    {
        if (static_cast<unsigned>(bits) > kMaxFast) {
            for (std::size_t i = 0; i < count; ++i)
                sink(i, read(bits));
            return;
        }
        const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
        std::uint64_t window = window_;
        int avail = avail_;
        for (std::size_t i = 0; i < count; ++i) {
            if (avail < bits) {
                window_ = window;
                avail_ = avail;
                refill();
                if (avail_ < bits)
                    out_of_data(bits);
                window = window_;
                avail = avail_;
            }
            sink(i, window & mask);
            window >>= bits;
            avail -= bits;
        }
        window_ = window;
        avail_ = avail;
    }

    /** Bits consumed so far. */
    std::size_t
    bit_position() const
    {
        return next_ * 8 - static_cast<std::size_t>(avail_);
    }

  private:
    /** Widest field one refill is guaranteed to cover. */
    static constexpr int kMaxFast = 56;

    /** Fields wider than one refill covers (and bad widths). */
    [[gnu::noinline]] std::uint64_t
    read_wide(int bits)
    {
        MX_CHECK_ARG(bits >= 0 && bits <= 64, "BitReader: bad field width");
        const std::uint64_t lo = read(32);
        return lo | (read(bits - 32) << 32);
    }

    [[noreturn, gnu::noinline, gnu::cold]] void
    out_of_data(int bits) const
    {
        MX_CHECK_ARG(avail_ >= bits, "BitReader: out of data");
        throw InternalError("BitReader: unreachable");
    }

    /** Top the window up to at least 56 bits (fewer only at the end of
     *  the stream).  Bits above avail_ may already hold the next
     *  bytes from an earlier word load; OR-ing the same bytes back in
     *  at the same positions leaves them unchanged. */
    void
    refill()
    {
        if (size_ - next_ >= 8) {
            std::uint64_t word = 0;
            if constexpr (std::endian::native == std::endian::little) {
                std::memcpy(&word, data_ + next_, sizeof(word));
            } else {
                for (int i = 0; i < 8; ++i)
                    word |= static_cast<std::uint64_t>(data_[next_ + i])
                            << (8 * i);
            }
            window_ |= word << avail_;
            next_ += static_cast<std::size_t>((63 - avail_) >> 3);
            avail_ |= 56;
            return;
        }
        while (avail_ <= 56 && next_ < size_) {
            window_ |= static_cast<std::uint64_t>(data_[next_++]) << avail_;
            avail_ += 8;
        }
    }

    const std::uint8_t* data_;
    std::size_t size_;
    std::size_t next_ = 0;     ///< First byte not yet in the window.
    std::uint64_t window_ = 0; ///< Unread bits, next bit at bit 0.
    int avail_ = 0;            ///< Valid bits in window_.
};

} // namespace core
} // namespace mx
