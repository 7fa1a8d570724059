/**
 * @file
 * Linear first-fit oracle for xfmsys::SameOffsetAllocator.
 *
 * LinearSameOffsetAllocator places slots the way the allocator did
 * before its gap index: allocate() walks every live slot in offset
 * order and takes the first gap that holds the rounded size, or the
 * tail after the highest slot. repack() is the allocator's own
 * algorithm. The gap index must return exactly the offsets this
 * walk returns, for every sequence of calls.
 */

#ifndef XFM_TESTS_SAME_OFFSET_ORACLE_HH
#define XFM_TESTS_SAME_OFFSET_ORACLE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "xfm/multichannel.hh"

namespace xfm
{
namespace xfmsys
{

class LinearSameOffsetAllocator
{
  public:
    static constexpr std::uint32_t alignment =
        SameOffsetAllocator::alignment;

    explicit LinearSameOffsetAllocator(std::uint64_t region_bytes)
        : region_(region_bytes)
    {
    }

    std::uint64_t
    allocate(std::uint32_t bytes)
    {
        XFM_ASSERT(bytes > 0, "zero-size slot");
        const std::uint32_t size =
            (bytes + alignment - 1) / alignment * alignment;
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
        return SameOffsetAllocator::invalidOffset;
    }

    void
    release(std::uint64_t offset)
    {
        auto it = slots_.find(offset);
        XFM_ASSERT(it != slots_.end(), "release: unknown slot ",
                   offset);
        used_ -= it->second;
        slots_.erase(it);
    }

    std::uint64_t
    highWaterMark() const
    {
        if (slots_.empty())
            return 0;
        const auto &[off, len] = *slots_.rbegin();
        return off + len;
    }

    void
    repack(const std::function<void(std::uint64_t, std::uint64_t,
                                    std::uint32_t)> &move,
           const std::function<bool(std::uint64_t)> &pinned)
    {
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
            std::uint64_t target = next;
            for (const auto &[ps, pe] : pins) {
                if (target + len <= ps)
                    break;
                if (target < pe)
                    target = pe;
            }
            if (target > off)
                target = off;
            if (off != target)
                move(off, target, len);
            packed.emplace(target, len);
            next = target + len;
        }
        slots_ = std::move(packed);
    }

    std::uint64_t usedBytes() const { return used_; }
    std::size_t slotCount() const { return slots_.size(); }

  private:
    const std::uint64_t region_;
    std::uint64_t used_ = 0;
    std::map<std::uint64_t, std::uint32_t> slots_;
};

} // namespace xfmsys
} // namespace xfm

#endif // XFM_TESTS_SAME_OFFSET_ORACLE_HH
