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
    virtual void compressInto(ByteSpan input, Bytes &out) const = 0;

    /**
     * Decompress @p block into @p out (cleared first); capacity is
     * reused as in compressInto(). @p out must not alias @p block.
     */
    virtual void decompressInto(ByteSpan block, Bytes &out) const = 0;

    /**
     * Compress @p input with @p dict preloaded as shared history:
     * matches may reach back into the dictionary as if it preceded
     * the input, but no tokens are emitted for it (the multi-channel
     * preset-dictionary mode, DESIGN.md §16). An empty @p dict is
     * exactly compressInto(). The output block only round-trips
     * through decompressWithDictInto() with the same dictionary.
     */
    virtual void compressWithDictInto(ByteSpan dict, ByteSpan input,
                                      Bytes &out) const;

    /** Inverse of compressWithDictInto() under the same @p dict. */
    virtual void decompressWithDictInto(ByteSpan dict, ByteSpan block,
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

    /**
     * Maximum window the match finder may reference, in bytes.
     * Multi-channel mode shrinks effective windows; Fig. 8 sweeps
     * this.
     */
    virtual std::size_t windowBytes() const = 0;
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
