/**
 * @file
 * Preset-dictionary shard containers (DESIGN.md §16).
 *
 * Multi-channel placement shrinks each shard's effective window to
 * pageSize/numDimms, costing compression ratio on spatially
 * correlated data (Fig. 8). A preset dictionary sampled from the
 * *whole* page restores cross-shard redundancy: each shard is
 * compressed with the dictionary preloaded as match history.
 *
 * Dictionary-referencing container (integers little-endian):
 *
 *   [0xD2][u16 rawDictLen][payload]
 *
 * The dictionary itself is stored ONCE per page — packDict() output
 * water-filled across the tails of the page's same-offset slots
 * (dictStripes()) — because replicating it into every shard costs
 * more than the cross-shard matches save (a ~2 KiB dictionary
 * compresses to more bytes than a 1 KiB shard recovers). The
 * 3-byte header only records the raw dictionary length, so decode
 * can validate the externally supplied dictionary.
 *
 * The magic cannot collide with a plain block: every codec's first
 * byte is a block mode in {0, 1, 2}, and any other first byte fails
 * as an unknown block mode. The encoder falls back to the plain
 * block whenever the dict form is not strictly smaller, so dict
 * mode never loses bytes per shard and the engine's worst-case SPM
 * reservation stays valid.
 */

#ifndef XFM_COMPRESS_DICT_HH
#define XFM_COMPRESS_DICT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "compress/compressor.hh"

namespace xfm
{
namespace compress
{

/** First byte of a dict-referencing container (dictionary stored
 *  out-of-band, once per page; see packDict()). */
constexpr std::uint8_t dictRefMagic = 0xD2;

/** True if @p block starts with the dict-referencing magic. */
bool isDictRefBlock(ByteSpan block);

/**
 * Sample a preset dictionary from a full page.
 *
 * Takes whole interleave-sized chunks at a stride across the page
 * (k = dict_bytes/interleave of them), so the dictionary carries
 * material that placement scattered to *other* DIMMs' shards.
 * Whole-chunk samples beat smaller scattered segments measurably:
 * match candidates survive with their full local context. The
 * result is deterministic in (page, interleave, dict_bytes).
 *
 * @param page       full logical page bytes (pre-split layout)
 * @param interleave shard interleave chunk size in bytes
 * @param dict_bytes target dictionary size; result is <= this
 */
Bytes buildPresetDictionary(ByteSpan page, std::size_t interleave,
                            std::size_t dict_bytes);

/**
 * Compress @p shard with @p dict into a dict-referencing container
 * ([0xD2][u16 rawDictLen][payload]) — the dictionary itself is NOT
 * stored; the caller must keep it recoverable (packDict()).
 *
 * Adaptive: @p out holds the plain block when that is not larger.
 * Returns true when the 0xD2 container was used.
 */
bool encodeShardRef(const Compressor &codec, ByteSpan dict,
                    ByteSpan shard, Bytes &out);

/**
 * Decompress a plain or 0xD2 shard block (the latter needs @p dict;
 * fatal if the supplied dictionary is of the wrong length).
 */
void decodeShard(const Compressor &codec, ByteSpan block,
                 ByteSpan dict, Bytes &out);

/** Overload for a plain block (no dictionary); 0xD2 is fatal. */
void decodeShard(const Compressor &codec, ByteSpan block, Bytes &out);

/**
 * Serialise the page dictionary for out-of-band storage:
 *
 *   [u16 rawLen][u16 storedLen][body]
 *
 * where body is the compressed dictionary when that is smaller,
 * else the raw bytes (storedLen == rawLen means raw). Storing this
 * once per page amortises the dictionary across all of the page's
 * shards.
 */
void packDict(const Compressor &codec, ByteSpan dict, Bytes &out);

/** Recover the dictionary serialised by packDict(). */
Bytes unpackDict(const Compressor &codec, ByteSpan packed);

/**
 * Minimal same-offset slot size covering every shard block plus a
 * packed dictionary of @p packed_len bytes water-filled into the
 * slot tails. Same-offset placement already pads every DIMM to the
 * largest shard, so the dictionary rides in internal fragmentation
 * for free until that padding is exhausted; only the excess (if
 * any) grows the slot, spread evenly across DIMMs.
 */
std::uint32_t dictSlotSize(const std::vector<std::uint32_t> &shard_sizes,
                           std::uint32_t packed_len);

/**
 * Water-filled split of a packed dictionary across the page's slot
 * tails: stripe d occupies [shard_sizes[d], shard_sizes[d] +
 * stripe[d]) of DIMM d's slot, in DIMM order. A pure function of
 * (shard_sizes, packed_len), so swap-in recomputes the same split
 * from the page entry without storing per-stripe lengths.
 */
std::vector<std::uint32_t>
dictStripes(const std::vector<std::uint32_t> &shard_sizes,
            std::uint32_t packed_len);

/** Upper bound of packDict() output for a dict_bytes dictionary. */
constexpr std::size_t
packedDictBound(std::size_t dict_bytes)
{
    return 4 + dict_bytes;
}

} // namespace compress
} // namespace xfm

#endif // XFM_COMPRESS_DICT_HH
