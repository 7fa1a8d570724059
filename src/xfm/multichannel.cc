#include "multichannel.hh"

#include <algorithm>

#include "common/logging.hh"
#include "compress/dict.hh"

namespace xfm
{
namespace xfmsys
{

void
splitPageInto(ByteSpan page, std::size_t num_dimms,
              std::size_t interleave, std::vector<Bytes> &shards)
{
    XFM_ASSERT(num_dimms >= 1, "need at least one DIMM");
    XFM_ASSERT(interleave > 0, "interleave must be positive");
    shards.resize(num_dimms);
    const std::size_t reserve = page.size() / num_dimms + interleave;
    for (auto &s : shards) {
        s.clear();
        s.reserve(reserve);
    }
    std::size_t chunk = 0;
    for (std::size_t off = 0; off < page.size();
         off += interleave, ++chunk) {
        const std::size_t len =
            std::min(interleave, page.size() - off);
        Bytes &dst = shards[chunk % num_dimms];
        dst.insert(dst.end(), page.begin() + off,
                   page.begin() + off + len);
    }
}

std::vector<Bytes>
splitPage(ByteSpan page, std::size_t num_dimms, std::size_t interleave)
{
    std::vector<Bytes> shards;
    splitPageInto(page, num_dimms, interleave, shards);
    return shards;
}

void
gatherPageInto(const std::vector<Bytes> &shards, std::size_t interleave,
               Bytes &page)
{
    XFM_ASSERT(!shards.empty(), "gather with no shards");
    std::size_t total = 0;
    for (const auto &s : shards)
        total += s.size();
    page.clear();
    page.reserve(total);

    std::vector<std::size_t> cursor(shards.size(), 0);
    std::size_t chunk = 0;
    while (page.size() < total) {
        const std::size_t d = chunk % shards.size();
        const Bytes &src = shards[d];
        XFM_ASSERT(cursor[d] < src.size(),
                   "gather: shard ", d, " exhausted early");
        const std::size_t len =
            std::min(interleave, src.size() - cursor[d]);
        page.insert(page.end(), src.begin() + cursor[d],
                    src.begin() + cursor[d] + len);
        cursor[d] += len;
        ++chunk;
    }
}

Bytes
gatherPage(const std::vector<Bytes> &shards, std::size_t interleave)
{
    Bytes page;
    gatherPageInto(shards, interleave, page);
    return page;
}

SameOffsetAllocator::SameOffsetAllocator(std::uint64_t region_bytes,
                                         std::uint32_t alignment)
    : region_(region_bytes), alignment_(alignment)
{
    XFM_ASSERT(region_ > 0, "empty region");
    XFM_ASSERT(alignment_ > 0, "alignment must be positive");
}

std::uint64_t
SameOffsetAllocator::allocate(std::uint32_t bytes)
{
    XFM_ASSERT(bytes > 0, "zero-size slot");
    const std::uint32_t size =
        (bytes + alignment_ - 1) / alignment_ * alignment_;

    // First fit in the gaps between existing slots.
    std::uint64_t prev_end = 0;
    for (const auto &[off, len] : slots_) {
        if (off - prev_end >= size) {
            slots_.emplace(prev_end, size);
            used_ += size;
            return prev_end;
        }
        prev_end = off + len;
    }
    if (region_ - prev_end >= size) {
        slots_.emplace(prev_end, size);
        used_ += size;
        return prev_end;
    }
    return invalidOffset;
}

void
SameOffsetAllocator::release(std::uint64_t offset)
{
    auto it = slots_.find(offset);
    XFM_ASSERT(it != slots_.end(), "release: unknown slot ", offset);
    used_ -= it->second;
    slots_.erase(it);
}

std::uint64_t
SameOffsetAllocator::highWaterMark() const
{
    if (slots_.empty())
        return 0;
    const auto &[off, len] = *slots_.rbegin();
    return off + len;
}

void
SameOffsetAllocator::repack(
    const std::function<void(std::uint64_t, std::uint64_t,
                             std::uint32_t)> &move,
    const std::function<bool(std::uint64_t)> &pinned)
{
    // Immovable intervals, in offset order.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pins;
    if (pinned) {
        for (const auto &[off, len] : slots_)
            if (pinned(off))
                pins.emplace_back(off, off + len);
    }

    std::map<std::uint64_t, std::uint32_t> packed;
    std::uint64_t next = 0;
    for (const auto &[off, len] : slots_) {
        if (pinned && pinned(off)) {
            packed.emplace(off, len);
            continue;
        }
        // Earliest placement at or after `next` that avoids every
        // pinned interval.
        std::uint64_t target = next;
        for (const auto &[ps, pe] : pins) {
            if (target + len <= ps)
                break;
            if (target < pe)
                target = pe;
        }
        if (target > off)
            target = off;  // never move a slot toward higher offsets
        if (off != target)
            move(off, target, len);
        packed.emplace(target, len);
        next = target + len;
    }
    slots_ = std::move(packed);
}

std::uint32_t
SameOffsetAllocator::slotSize(std::uint64_t offset) const
{
    auto it = slots_.find(offset);
    XFM_ASSERT(it != slots_.end(), "slotSize: unknown slot ", offset);
    return it->second;
}

MultiChannelResult
measureMultiChannel(const std::vector<Bytes> &pages,
                    const compress::Compressor &codec,
                    std::size_t num_dimms, std::size_t interleave)
{
    MultiChannelResult res;
    res.dimms = num_dimms;
    std::vector<Bytes> shards;
    std::vector<Bytes> blocks(num_dimms);
    for (const auto &page : pages) {
        res.rawBytes += page.size();
        splitPageInto(page, num_dimms, interleave, shards);
        for (std::size_t d = 0; d < num_dimms; ++d)
            codec.compressInto(shards[d], blocks[d]);
        std::uint64_t max_shard = 0;
        for (const auto &block : blocks) {
            res.compressedBytes += block.size();
            max_shard = std::max<std::uint64_t>(max_shard, block.size());
        }
        // Same-offset placement: every DIMM reserves the largest
        // shard's extent.
        res.placedBytes += max_shard * num_dimms;
    }
    return res;
}

MultiChannelResult
measureMultiChannelDict(const std::vector<Bytes> &pages,
                        const compress::Compressor &codec,
                        std::size_t num_dimms, std::size_t dict_bytes,
                        std::size_t interleave)
{
    MultiChannelResult res;
    res.dimms = num_dimms;
    std::vector<Bytes> shards;
    std::vector<Bytes> blocks(num_dimms);
    Bytes dict;
    Bytes packed;
    std::vector<Bytes> restored(num_dimms);
    Bytes roundtrip;
    for (const auto &page : pages) {
        res.rawBytes += page.size();
        splitPageInto(page, num_dimms, interleave, shards);
        dict = compress::buildPresetDictionary(page, interleave,
                                               dict_bytes);
        compress::packDict(codec, dict, packed);
        for (std::size_t d = 0; d < num_dimms; ++d)
            compress::encodeShardRef(codec, dict, shards[d], blocks[d]);
        std::vector<std::uint32_t> sizes(num_dimms);
        for (std::size_t d = 0; d < num_dimms; ++d) {
            sizes[d] = static_cast<std::uint32_t>(blocks[d].size());
            res.compressedBytes += blocks[d].size();
        }
        // The packed dictionary is stored once per page,
        // water-filled into the slot tails (it rides in the
        // same-offset padding until that is exhausted).
        res.compressedBytes += packed.size();
        res.dictBytes += packed.size();
        const std::uint64_t slot = compress::dictSlotSize(
            sizes, static_cast<std::uint32_t>(packed.size()));
        res.placedBytes += slot * num_dimms;
        // Integrity gate: the dict-mode blocks must restore the
        // exact page through the shared decode path.
        for (std::size_t d = 0; d < num_dimms; ++d)
            compress::decodeShard(codec, blocks[d], dict,
                                  restored[d]);
        gatherPageInto(restored, interleave, roundtrip);
        XFM_ASSERT(roundtrip == page,
                   "dict-mode multichannel round-trip mismatch");
    }
    return res;
}

} // namespace xfmsys
} // namespace xfm
