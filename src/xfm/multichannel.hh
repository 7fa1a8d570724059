/**
 * @file
 * Multi-channel mode support (paper Sec. 6, Fig. 9).
 *
 * With channel interleaving, a 4 KiB page physically lands on
 * several DIMMs as alternating 256 B chunks. Each DIMM's NMA
 * compresses only its own chunks ("reordered data"), and the
 * compressed shards are placed at the *same offset* of every
 * DIMM's SFM region so no DIMM-side address translation is needed
 * — at the price of internal fragmentation, since shard sizes
 * differ across DIMMs.
 */

#ifndef XFM_XFM_MULTICHANNEL_HH
#define XFM_XFM_MULTICHANNEL_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "compress/compressor.hh"

namespace xfm
{
namespace xfmsys
{

/** Default interleave granularity (Skylake: 256 B). */
constexpr std::size_t defaultInterleave = 256;

/**
 * Sampled preset-dictionary size in bytes (XfmSystemConfig::shardDict
 * mode). Half a page samples enough cross-shard context to recover
 * most of the 4-DIMM ratio loss while packing into a few hundred
 * stored bytes on correlated data.
 */
constexpr std::size_t pageDictBytes = 2048;

/**
 * Split a page into per-DIMM shards.
 *
 * Chunk i of the page (interleave-sized) goes to DIMM i % D, in
 * page order — the byte layout each DIMM physically observes.
 */
std::vector<Bytes> splitPage(ByteSpan page, std::size_t num_dimms,
                             std::size_t interleave = defaultInterleave);

/**
 * splitPage() into caller-owned shard buffers (resized to
 * num_dimms; capacities reused across calls).
 */
void splitPageInto(ByteSpan page, std::size_t num_dimms,
                   std::size_t interleave, std::vector<Bytes> &shards);

/** Inverse of splitPage(). */
Bytes gatherPage(const std::vector<Bytes> &shards,
                 std::size_t interleave = defaultInterleave);

/** gatherPage() into a caller-owned buffer (capacity reused). */
void gatherPageInto(const std::vector<Bytes> &shards,
                    std::size_t interleave, Bytes &page);

/**
 * Same-offset slot allocator over D equally-sized SFM regions.
 *
 * One allocation reserves [offset, offset + slot) in *every* DIMM
 * region. A slot is a run of whole @c alignment-byte granules,
 * placed first fit: at the lowest offset whose gap holds it. A gap
 * index finds that offset in O(log n) (DESIGN.md §11): a bitmap
 * with one bit per free granule and a tree over the bitmap's 64-bit
 * words, each node holding the free run at its start, the one at its
 * end and the longest one inside it.
 */
class SameOffsetAllocator
{
  public:
    /** Slot granule in bytes; every offset and size is a multiple. */
    static constexpr std::uint32_t alignment = 64;

    explicit SameOffsetAllocator(std::uint64_t region_bytes);

    /**
     * Allocate a slot of at least @p bytes.
     * @return slot offset, or UINT64_MAX when the region is full.
     */
    std::uint64_t allocate(std::uint32_t bytes);

    /** Release a slot previously returned by allocate(). */
    void release(std::uint64_t offset);

    /** End of the highest live slot. */
    std::uint64_t highWaterMark() const;

    /**
     * Compact the region: slide slots toward offset zero in order.
     * @p move is invoked as move(old_off, new_off, size) for each
     * relocated slot so the caller can copy the bytes and update
     * its records. Slots for which @p pinned returns true are left
     * in place (their bytes are referenced by in-flight offloads).
     */
    void repack(const std::function<void(std::uint64_t, std::uint64_t,
                                         std::uint32_t)> &move,
                const std::function<bool(std::uint64_t)> &pinned =
                    nullptr);

    /** Rounded size of the slot at @p offset. */
    std::uint32_t slotSize(std::uint64_t offset) const;

    std::uint64_t regionBytes() const { return region_; }
    std::uint64_t usedBytes() const { return used_; }
    std::uint64_t freeBytes() const { return region_ - used_; }
    std::size_t slotCount() const { return slots_.size(); }

    static constexpr std::uint64_t invalidOffset = ~std::uint64_t(0);

  private:
    /** Free runs in one tree node's span, counted in granules. */
    struct FreeRuns
    {
        std::uint32_t prefix = 0;   ///< run at the low end
        std::uint32_t suffix = 0;   ///< run at the high end
        std::uint32_t longest = 0;  ///< longest run anywhere
    };

    /** Free runs of one bitmap word. */
    static FreeRuns summarise(std::uint64_t word);
    /** Parent of two siblings that span @p half granules each. */
    static FreeRuns combine(const FreeRuns &l, const FreeRuns &r,
                            std::uint64_t half);
    /** Mark every granule inside the region free, the rest used. */
    void resetFree();
    /** Set granules [first, first + count) free or used. */
    void mark(std::uint64_t first, std::uint64_t count, bool free);
    /** Re-summarise leaves [first, last] and their ancestors. */
    void refresh(std::size_t first, std::size_t last);
    /** Lowest granule starting @p count free ones, or invalid. */
    std::uint64_t firstFit(std::uint64_t count) const;

    const std::uint64_t region_;
    std::uint64_t used_ = 0;
    /** offset -> slot size, both aligned. */
    std::map<std::uint64_t, std::uint32_t> slots_;
    /** Word count, a power of two; words past the region are 0. */
    std::size_t leaves_ = 1;
    /** Bit g % 64 of word g / 64 is set while granule g is free. */
    std::vector<std::uint64_t> free_;
    /** Heap-ordered tree; word w's leaf is tree_[leaves_ + w]. */
    std::vector<FreeRuns> tree_;
};

/** Result of a multi-channel compression measurement (Fig. 8). */
struct MultiChannelResult
{
    std::size_t dimms = 1;
    std::uint64_t rawBytes = 0;
    std::uint64_t compressedBytes = 0;    ///< sum of shard blocks
    std::uint64_t placedBytes = 0;        ///< with same-offset padding
    std::uint64_t dictBytes = 0;          ///< packed dicts (included
                                          ///< in compressedBytes)

    /** Pure compression ratio of the interleaved layout. */
    double
    ratio() const
    {
        return compressedBytes
            ? static_cast<double>(rawBytes) / compressedBytes
            : 0.0;
    }

    /** Ratio after same-offset placement fragmentation. */
    double
    placedRatio() const
    {
        return placedBytes
            ? static_cast<double>(rawBytes) / placedBytes
            : 0.0;
    }
};

/**
 * Compress @p pages in D-DIMM multi-channel mode and report the
 * Fig. 8 metrics. Each shard is compressed independently with
 * @p codec; placement assumes same-offset slots sized by the
 * largest shard of each page.
 */
MultiChannelResult
measureMultiChannel(const std::vector<Bytes> &pages,
                    const compress::Compressor &codec,
                    std::size_t num_dimms,
                    std::size_t interleave = defaultInterleave);

/**
 * measureMultiChannel() with preset dictionaries (DESIGN.md §16),
 * using the backend's accounting: each page samples one
 * cross-shard dictionary, shards are encoded against it when that
 * wins (dict-referencing container, 3-byte header, plain block
 * otherwise), and the packed dictionary is stored ONCE per page,
 * water-filled into the slot tails (compress::dictStripes()) so it
 * occupies same-offset padding before growing the slot.
 * Every page is decoded back and verified against the original.
 */
MultiChannelResult
measureMultiChannelDict(const std::vector<Bytes> &pages,
                        const compress::Compressor &codec,
                        std::size_t num_dimms, std::size_t dict_bytes,
                        std::size_t interleave = defaultInterleave);

} // namespace xfmsys
} // namespace xfm

#endif // XFM_XFM_MULTICHANNEL_HH
