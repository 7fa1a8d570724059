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
 * region. First-fit over a sorted free list; slots are aligned to
 * @c alignment so compressed shards never straddle host pages
 * unnecessarily.
 */
class SameOffsetAllocator
{
  public:
    SameOffsetAllocator(std::uint64_t region_bytes,
                        std::uint32_t alignment = 64);

    /**
     * Allocate a slot of at least @p bytes.
     * @return slot offset, or UINT64_MAX when the region is full.
     */
    std::uint64_t allocate(std::uint32_t bytes);

    /** Release a slot previously returned by allocate(). */
    void release(std::uint64_t offset);

    /**
     * Resize the region (SFM elasticity, paper G3/Sec. 4.2).
     * Growing always succeeds. Shrinking requires every live slot
     * to fit below the new size — compact (repack) first.
     *
     * @retval false the shrink would cut live slots; nothing
     *         changed.
     */
    bool resize(std::uint64_t new_region_bytes);

    /** End of the highest live slot (smallest legal shrink size). */
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
    std::uint64_t region_;
    std::uint32_t alignment_;
    std::uint64_t used_ = 0;
    /** offset -> slot size, both aligned. */
    std::map<std::uint64_t, std::uint32_t> slots_;
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
