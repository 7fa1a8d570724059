/**
 * @file
 * LSB-first bit-level writer/reader used by the Huffman codecs.
 */

#ifndef XFM_COMPRESS_BITSTREAM_HH
#define XFM_COMPRESS_BITSTREAM_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/logging.hh"
#include "compress/compressor.hh"

namespace xfm
{
namespace compress
{

/**
 * Append bits LSB-first to a byte vector.
 *
 * Bits collect in a 64-bit accumulator and leave it as whole 32-bit
 * words, least significant byte first, so most put()s append
 * nothing and the rest append four bytes at once; the bytes are
 * those a byte-at-a-time writer would emit. Bytes written since the
 * last word are held back until flush(), so @p out is complete only
 * after flush().
 */
class BitWriter
{
  public:
    explicit BitWriter(Bytes &out) : out_(out) {}

    /** Write the low @p nbits of @p value (nbits <= 32). */
    void
    put(std::uint32_t value, unsigned nbits)
    {
        XFM_ASSERT(nbits <= 32, "BitWriter::put nbits too large");
        acc_ |= static_cast<std::uint64_t>(value & mask(nbits)) << fill_;
        fill_ += nbits;
        if (fill_ >= 32) {
            const auto w = static_cast<std::uint32_t>(acc_);
            const std::uint8_t word[4] = {
                static_cast<std::uint8_t>(w),
                static_cast<std::uint8_t>(w >> 8),
                static_cast<std::uint8_t>(w >> 16),
                static_cast<std::uint8_t>(w >> 24)};
            out_.insert(out_.end(), word, word + 4);
            acc_ >>= 32;
            fill_ -= 32;
        }
    }

    /** Write out the held bits, the last byte zero padded. */
    void
    flush()
    {
        while (fill_ > 0) {
            out_.push_back(static_cast<std::uint8_t>(acc_ & 0xFF));
            acc_ >>= 8;
            fill_ = fill_ > 8 ? fill_ - 8 : 0;
        }
    }

  private:
    static constexpr std::uint32_t
    mask(unsigned nbits)
    {
        return nbits >= 32 ? 0xFFFFFFFFu : ((1u << nbits) - 1);
    }

    Bytes &out_;
    std::uint64_t acc_ = 0;   ///< pending bits, oldest in bit 0
    unsigned fill_ = 0;       ///< pending bit count, < 32 between puts
};

/**
 * Append an LZ match to @p out: copy @p len bytes starting @p dist
 * bytes before the current end of @p out.
 *
 * Overlap-aware block copy shared by every decoder. When the match
 * does not overlap its source (dist >= len) it is a single memcpy.
 * When it does overlap (dist < len) the output is periodic with
 * period dist, so we seed one period and then double the copied
 * region; `filled` stays a multiple of dist until the final partial
 * chunk, which keeps every memcpy source fully written and
 * non-overlapping with its destination.
 */
inline void
appendMatch(Bytes &out, std::size_t dist, std::size_t len)
{
    XFM_ASSERT(dist >= 1 && dist <= out.size(),
               "appendMatch: distance outside produced output");
    if (len == 0)
        return;
    const std::size_t start = out.size() - dist;
    out.resize(out.size() + len);
    std::uint8_t *dst = out.data() + out.size() - len;
    const std::uint8_t *src = out.data() + start;
    if (len <= dist) {
        std::memcpy(dst, src, len);
        return;
    }
    std::memcpy(dst, src, dist);
    std::size_t filled = dist;
    while (filled < len) {
        const std::size_t chunk = std::min(filled, len - filled);
        std::memcpy(dst + filled, dst, chunk);
        filled += chunk;
    }
}

/** Read bits LSB-first from a byte span. */
class BitReader
{
  public:
    explicit BitReader(ByteSpan in) : in_(in) {}

    /** Read @p nbits (<= 32); throws on truncation. */
    std::uint32_t
    get(unsigned nbits)
    {
        XFM_ASSERT(nbits <= 32, "BitReader::get nbits too large");
        while (fill_ < nbits) {
            if (pos_ >= in_.size())
                fatal("bitstream truncated at byte ", pos_);
            acc_ |= static_cast<std::uint64_t>(in_[pos_++]) << fill_;
            fill_ += 8;
        }
        const auto v = static_cast<std::uint32_t>(
            acc_ & ((nbits >= 32) ? ~std::uint64_t(0)
                                  : ((std::uint64_t(1) << nbits) - 1)));
        acc_ >>= nbits;
        fill_ -= nbits;
        return v;
    }

    /** Peek up to @p nbits without consuming; pads with zeros. */
    std::uint32_t
    peek(unsigned nbits)
    {
        if (fill_ < nbits) {
            // Bulk refill: one unaligned 64-bit load replaces the
            // byte loop whenever 8 input bytes remain. Only whole
            // bytes that fit the accumulator are consumed, so the
            // bit-for-bit stream position matches the byte loop.
            if constexpr (std::endian::native == std::endian::little) {
                if (pos_ + 8 <= in_.size()) {
                    std::uint64_t w;
                    std::memcpy(&w, in_.data() + pos_, 8);
                    const unsigned take = (64 - fill_) >> 3;
                    if (take < 8)
                        w &= (std::uint64_t(1) << (take * 8)) - 1;
                    acc_ |= w << fill_;
                    fill_ += take * 8;
                    pos_ += take;
                }
            }
            while (fill_ < nbits && pos_ < in_.size()) {
                acc_ |= static_cast<std::uint64_t>(in_[pos_++]) << fill_;
                fill_ += 8;
            }
        }
        return static_cast<std::uint32_t>(
            acc_ & ((nbits >= 32) ? ~std::uint64_t(0)
                                  : ((std::uint64_t(1) << nbits) - 1)));
    }

    /** Consume @p nbits previously peeked. */
    void
    skip(unsigned nbits)
    {
        if (fill_ < nbits)
            fatal("bitstream truncated mid-code");
        acc_ >>= nbits;
        fill_ -= nbits;
    }

    /**
     * Byte offset of the next unread datum assuming the writer
     * flushed to a byte boundary here. Accounts for bits that were
     * buffered by peek() but never consumed.
     */
    std::size_t
    alignedByteOffset() const
    {
        const std::size_t bits_consumed = pos_ * 8 - fill_;
        return (bits_consumed + 7) / 8;
    }

  private:
    ByteSpan in_;
    std::size_t pos_ = 0;
    std::uint64_t acc_ = 0;
    unsigned fill_ = 0;
};

} // namespace compress
} // namespace xfm

#endif // XFM_COMPRESS_BITSTREAM_HH
