/**
 * @file
 * Canonical Huffman coding over arbitrary symbol alphabets.
 *
 * Code lengths are limited to maxCodeLength (15) using the standard
 * length-limited adjustment, and codes are assigned canonically so a
 * decoder only needs the length array.
 *
 * Blocks here are mostly 512 B shards, so building the code is a
 * per-block fixed cost comparable to coding the bytes: a shard's
 * literal table uses a few dozen of its 256 symbols. The builder is
 * the linear two-queue (van Leeuwen) construction over leaves
 * sorted once, working in leased per-thread scratch. Code
 * assignment and the encoder and decoder tables walk only the live
 * symbols, found by one compaction pass that skips unused symbols
 * eight at a time, and the code-length RLE finds its run ends a
 * word at a time. Encoders and decoders can be re-assigned in place
 * so a codec that keeps one per thread allocates nothing per block.
 */

#ifndef XFM_COMPRESS_HUFFMAN_HH
#define XFM_COMPRESS_HUFFMAN_HH

#include <cstdint>
#include <span>
#include <vector>

#include "compress/bitstream.hh"
#include "compress/compressor.hh"

namespace xfm
{
namespace compress
{

/** Upper bound on any Huffman code length we emit. */
constexpr unsigned maxCodeLength = 15;

/**
 * Compute length-limited Huffman code lengths from symbol counts.
 *
 * Symbols with zero count get length 0 (no code). If only one
 * symbol has nonzero count it receives length 1 so the bitstream
 * format stays uniform.
 *
 * The tree is the one a (weight, creation order) min-heap builds:
 * leaves sorted by (count, symbol), internal nodes in creation
 * order, and a leaf wins a weight tie against an internal node.
 * Codes deeper than maxCodeLength are clamped, then the Kraft
 * inequality is repaired by lengthening the deepest unclamped
 * code, lowest symbol first, one bit at a time.
 *
 * @param counts frequency per symbol.
 * @param lengths out: per-symbol code length, each <=
 *        maxCodeLength (resized to counts.size(); capacity reused).
 */
void huffmanCodeLengths(std::span<const std::uint64_t> counts,
                        std::vector<std::uint8_t> &lengths);

/**
 * Canonical codes for @p lengths (RFC 1951 §3.2.2), bit-reversed
 * for LSB-first emission: codes[s] is symbol s's code, 0 for a
 * symbol of length 0 (resized to lengths.size(); capacity reused).
 * Every length must be <= maxCodeLength.
 */
void canonicalCodes(std::span<const std::uint8_t> lengths,
                    std::vector<std::uint32_t> &codes);

/** Encoder table built from canonical code lengths. */
class HuffmanEncoder
{
  public:
    HuffmanEncoder() = default;
    explicit HuffmanEncoder(std::span<const std::uint8_t> lengths)
    {
        assign(lengths);
    }

    /** Rebuild for @p lengths, reusing this encoder's storage. */
    void assign(std::span<const std::uint8_t> lengths);

    /** Emit the code for @p symbol. */
    void
    encode(BitWriter &bw, std::uint32_t symbol) const
    {
        XFM_ASSERT(symbol < lengths_.size() && lengths_[symbol] > 0,
                   "encoding symbol without a code: ", symbol);
        bw.put(codes_[symbol], lengths_[symbol]);
    }

  private:
    std::vector<std::uint8_t> lengths_;
    std::vector<std::uint32_t> codes_;
};

/**
 * Table-driven decoder for canonical codes.
 *
 * Two-level layout: a root table of min(rootBits, longest code)
 * bits resolves the common short codes in one lookup; the rare
 * codes longer than the root spill into per-prefix subtables. The
 * blocks decoded here are mostly 512 B shards, so table BUILD cost
 * is on the hot path — a root of 2^11 entries is ~16x cheaper to
 * build than the 2^15 flat table a 15-bit code bound would need,
 * and that build-time saving dwarfs the extra indirection long
 * codes pay. The root is only as wide as the longest code, and the
 * fill walks the live symbols alone.
 */
class HuffmanDecoder
{
  public:
    HuffmanDecoder() = default;
    explicit HuffmanDecoder(std::span<const std::uint8_t> lengths)
    {
        assign(lengths);
    }

    /** Rebuild for @p lengths, reusing this decoder's table. */
    void assign(std::span<const std::uint8_t> lengths);

    /** Decode one symbol from the reader. */
    std::uint32_t decode(BitReader &br) const;

  private:
    /** Root-table budget; codes longer than this use a subtable. */
    static constexpr unsigned rootBits = 11;
    /** len value marking a subtable link (real codes are <= 15). */
    static constexpr std::uint8_t subLink = 0xFF;

    struct TableEntry
    {
        std::uint16_t sym;      ///< symbol, or subtable offset
        std::uint16_t subBits;  ///< subtable index width (links)
        std::uint8_t len;       ///< full code length; 0 invalid,
                                ///  subLink = subtable link
    };

    std::vector<TableEntry> table_;  ///< root, then subtables
    unsigned root_bits_ = 1;         ///< actual root width used
};

/**
 * Emit a code-length array with RFC1951-style run-length codes
 * (16 = repeat previous 3..6, 17 = zeros 3..10, 18 = zeros 11..138),
 * each RLE symbol written as raw 5 bits.
 */
void writeCodeLengthsRle(BitWriter &bw,
                         std::span<const std::uint8_t> lengths);

/**
 * Inverse of writeCodeLengthsRle; reads exactly @p count lengths
 * into @p lengths (resized to @p count; capacity reused). A run
 * that would pass @p count is fatal before any of it is written.
 */
void readCodeLengthsRle(BitReader &br, std::size_t count,
                        std::vector<std::uint8_t> &lengths);

} // namespace compress
} // namespace xfm

#endif // XFM_COMPRESS_HUFFMAN_HH
