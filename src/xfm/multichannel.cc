#include "multichannel.hh"

#include <algorithm>
#include <bit>

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

namespace
{

constexpr std::uint64_t allFree = ~std::uint64_t(0);

} // namespace

SameOffsetAllocator::FreeRuns
SameOffsetAllocator::summarise(std::uint64_t word)
{
    std::uint32_t longest = 0;
    for (std::uint64_t w = word; w != 0;) {
        w >>= std::countr_zero(w);
        const int run = std::countr_one(w);
        longest = std::max<std::uint32_t>(longest, run);
        if (run == 64)
            break;
        w >>= run;
    }
    return {static_cast<std::uint32_t>(std::countr_one(word)),
            static_cast<std::uint32_t>(std::countl_one(word)), longest};
}

SameOffsetAllocator::FreeRuns
SameOffsetAllocator::combine(const FreeRuns &l, const FreeRuns &r,
                             std::uint64_t half)
{
    return {static_cast<std::uint32_t>(
                l.prefix == half ? half + r.prefix : l.prefix),
            static_cast<std::uint32_t>(
                r.suffix == half ? half + l.suffix : r.suffix),
            std::max({l.longest, r.longest, l.suffix + r.prefix})};
}

SameOffsetAllocator::SameOffsetAllocator(std::uint64_t region_bytes)
    : region_(region_bytes)
{
    XFM_ASSERT(region_ > 0, "empty region");
    const std::uint64_t granules = region_ / alignment;
    XFM_ASSERT(granules <= UINT32_MAX, "SFM region too large: ",
               region_);
    while (leaves_ * 64 < granules)
        leaves_ *= 2;
    free_.resize(leaves_);
    tree_.resize(2 * leaves_);
    resetFree();
    refresh(0, leaves_ - 1);
}

void
SameOffsetAllocator::resetFree()
{
    const std::uint64_t granules = region_ / alignment;
    std::fill(free_.begin(), free_.end(), 0);
    std::fill_n(free_.begin(), granules / 64, allFree);
    if (granules % 64)
        free_[granules / 64] = (std::uint64_t(1) << granules % 64) - 1;
}

void
SameOffsetAllocator::mark(std::uint64_t first, std::uint64_t count,
                          bool free)
{
    const std::uint64_t end = first + count;
    for (std::uint64_t g = first; g < end;) {
        const std::uint64_t lo = g % 64;
        const std::uint64_t n = std::min<std::uint64_t>(64 - lo, end - g);
        const std::uint64_t bits =
            (n == 64 ? allFree : (std::uint64_t(1) << n) - 1) << lo;
        std::uint64_t &word = free_[g / 64];
        XFM_ASSERT((word & bits) == (free ? 0 : bits),
                   "slot index out of step at granule ", g);
        word ^= bits;
        g += n;
    }
}

void
SameOffsetAllocator::refresh(std::size_t first, std::size_t last)
{
    for (std::size_t w = first; w <= last; ++w)
        tree_[leaves_ + w] = summarise(free_[w]);
    std::size_t lo = leaves_ + first;
    std::size_t hi = leaves_ + last;
    for (std::uint64_t half = 64; lo > 1; half *= 2) {
        lo /= 2;
        hi /= 2;
        for (std::size_t i = lo; i <= hi; ++i)
            tree_[i] = combine(tree_[2 * i], tree_[2 * i + 1], half);
    }
}

std::uint64_t
SameOffsetAllocator::firstFit(std::uint64_t count) const
{
    if (tree_[1].longest < count)
        return invalidOffset;
    // Descend to the leftmost run of count: a fit inside the left
    // child starts lowest, then one across the middle, then right.
    std::size_t i = 1;
    std::uint64_t base = 0;
    std::uint64_t span = leaves_ * 64;
    while (i < leaves_) {
        span /= 2;
        const FreeRuns &l = tree_[2 * i];
        const FreeRuns &r = tree_[2 * i + 1];
        if (l.longest >= count) {
            i = 2 * i;
        } else if (std::uint64_t(l.suffix) + r.prefix >= count) {
            return base + span - l.suffix;
        } else {
            i = 2 * i + 1;
            base += span;
        }
    }
    // The run lies inside one word (count <= 64): bit p of starts
    // survives while granules [p, p + len) are all free.
    std::uint64_t starts = free_[i - leaves_];
    for (std::uint64_t len = 1; len < count;) {
        const std::uint64_t s = std::min(len, count - len);
        starts &= starts >> s;
        len += s;
    }
    return base + std::countr_zero(starts);
}

std::uint64_t
SameOffsetAllocator::allocate(std::uint32_t bytes)
{
    XFM_ASSERT(bytes > 0, "zero-size slot");
    const std::uint64_t granules =
        (std::uint64_t(bytes) + alignment - 1) / alignment;
    XFM_ASSERT(granules * alignment <= UINT32_MAX, "slot too large: ",
               bytes);
    const std::uint64_t first = firstFit(granules);
    if (first == invalidOffset)
        return invalidOffset;
    mark(first, granules, false);
    refresh(first / 64, (first + granules - 1) / 64);
    const std::uint64_t offset = first * alignment;
    const auto size = static_cast<std::uint32_t>(granules * alignment);
    slots_.emplace(offset, size);
    used_ += size;
    return offset;
}

void
SameOffsetAllocator::release(std::uint64_t offset)
{
    auto it = slots_.find(offset);
    XFM_ASSERT(it != slots_.end(), "release: unknown slot ", offset);
    const std::uint64_t first = offset / alignment;
    const std::uint64_t granules = it->second / alignment;
    mark(first, granules, true);
    refresh(first / 64, (first + granules - 1) / 64);
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
    resetFree();
    for (const auto &[off, len] : slots_)
        mark(off / alignment, len / alignment, false);
    refresh(0, leaves_ - 1);
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
