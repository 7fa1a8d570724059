/**
 * @file
 * Abstract lossless compressor interface and algorithm registry.
 *
 * Three LZ-family codecs are provided, standing in for the
 * algorithms the paper deploys:
 *  - LzFast:   byte-aligned fast LZ (lzo/lz4 class),
 *  - Deflate:  LZ77 + canonical Huffman (deflate class),
 *  - ZstdLike: larger-window LZ77 with repeat offsets and
 *              Huffman-coded literals (zstd class).
 *
 * Every codec also carries a CPU cost model (cycles/byte) used by
 * the SFM cost model and the interference experiments.
 *
 * Every block of every codec has the same frame, written and
 * checked once, in Compressor:
 *
 *   [mode u8][raw length u32 LE][body]
 *
 * Mode 0 is a stored block whose body is the raw bytes; any other
 * mode is the codec's own body format (LzFast 1, Deflate 1,
 * ZstdLike 2). The raw length counts the input only, never a
 * preset dictionary. A coded block that would not be smaller than
 * the stored one is replaced by it, and so is the empty input. A
 * codec supplies only its mode byte, encodeBody() and decodeBody().
 */

#ifndef XFM_COMPRESS_COMPRESSOR_HH
#define XFM_COMPRESS_COMPRESSOR_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace xfm
{

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;

namespace compress
{

/** Supported compression algorithms. */
enum class Algorithm
{
    LzFast,
    Deflate,
    ZstdLike,
};

/** Human-readable algorithm name. */
std::string algorithmName(Algorithm a);

/**
 * Per-algorithm CPU cost (cycles per byte), averaged over
 * compression and decompression as in the paper's EQ3.4, which uses
 * 7.65e9 cycles/GB averaged across zstd and lzo.
 */
struct CpuCost
{
    double compressCyclesPerByte;
    double decompressCyclesPerByte;
};

CpuCost cpuCost(Algorithm a);

/**
 * A lossless block compressor.
 *
 * Implementations are pure functions of the input bytes: no state
 * is carried between calls, matching page-granular SFM usage.
 */
class Compressor
{
  public:
    virtual ~Compressor() = default;

    /** Algorithm identifier. */
    virtual Algorithm algorithm() const = 0;

    /**
     * Compress @p input into a self-describing block.
     *
     * The output always round-trips through decompress(); if the
     * data is incompressible the output may be larger than the
     * input (a stored-block header is added).
     *
     * Thin wrapper over compressInto() that allocates a fresh
     * buffer; hot paths should hold a reusable member buffer and
     * call compressInto() directly.
     */
    Bytes compress(ByteSpan input) const;

    /**
     * Decompress a block produced by compress(). Wrapper over
     * decompressInto(), see compress().
     *
     * @throws FatalError on a corrupt or truncated block.
     */
    Bytes decompress(ByteSpan block) const;

    /**
     * Compress @p input into @p out, which is cleared first. The
     * buffer's capacity is reused across calls, so steady-state
     * page operations allocate nothing once the buffer has grown to
     * its working size. @p out must not alias @p input.
     */
    void compressInto(ByteSpan input, Bytes &out) const;

    /**
     * Decompress @p block into @p out (cleared first); capacity is
     * reused as in compressInto(). @p out must not alias @p block.
     */
    void decompressInto(ByteSpan block, Bytes &out) const;

    /**
     * Compress @p input with @p dict preloaded as shared history:
     * matches may reach back into the dictionary as if it preceded
     * the input, but no tokens are emitted for it (the multi-channel
     * preset-dictionary mode, DESIGN.md §16). An empty @p dict is
     * exactly compressInto(). The output block only round-trips
     * through decompressWithDictInto() with the same dictionary.
     */
    void compressWithDictInto(ByteSpan dict, ByteSpan input,
                              Bytes &out) const;

    /** Inverse of compressWithDictInto() under the same @p dict. */
    void decompressWithDictInto(ByteSpan dict, ByteSpan block,
                                Bytes &out) const;

    /**
     * Conservative upper bound on the bytes a codec may emit while
     * compressing @p raw input bytes, *including* transient growth
     * before the stored-block fallback truncates oversized output.
     * Suitable as a reserve() hint that avoids reallocation during
     * emission.
     */
    static constexpr std::size_t
    maxCompressedSize(std::size_t raw)
    {
        // Huffman emission is bounded by ~9 bits/byte plus code
        // tables and the block header; LzFast literal runs add at
        // most 1 control byte per 15 literals.
        return raw + raw / 8 + 256;
    }

  protected:
    /** @param body_mode this codec's frame mode byte (nonzero). */
    explicit Compressor(std::uint8_t body_mode);

    /** Append @p v little-endian. */
    static void putU32(Bytes &out, std::uint32_t v);

    /** Read a little-endian u32 at @p off; fatal past the end. */
    std::uint32_t getU32(ByteSpan in, std::size_t off) const;

  private:
    /** Bytes of the frame ahead of every body: mode, raw length. */
    static constexpr std::size_t frameBytes = 5;

    /**
     * Append the body for full[start..) to @p out, with
     * full[0..start) as shared history: the prefix may be matched
     * but is not emitted. @p out already holds the frame.
     */
    virtual void encodeBody(ByteSpan full, std::size_t start,
                            Bytes &out) const = 0;

    /**
     * Append the @p raw_len bytes @p body decodes to onto @p out,
     * which holds the history (the dictionary, or nothing) that
     * matches may reach into. The frame checks the final size.
     */
    virtual void decodeBody(ByteSpan body, std::size_t raw_len,
                            Bytes &out) const = 0;

    /** Frame full[start..) into @p out; see encodeBody(). */
    void encodeFrame(ByteSpan full, std::size_t start,
                     Bytes &out) const;

    std::uint8_t body_mode_;
};

/** Construct a compressor for the given algorithm. */
std::unique_ptr<Compressor> makeCompressor(Algorithm a);

/** Compression ratio (uncompressed / compressed); >= 0. */
inline double
ratio(std::size_t uncompressed, std::size_t compressed)
{
    return compressed == 0
        ? 0.0
        : static_cast<double>(uncompressed)
            / static_cast<double>(compressed);
}

} // namespace compress
} // namespace xfm

#endif // XFM_COMPRESS_COMPRESSOR_HH
