#include "spm.hh"

namespace xfm
{
namespace nma
{

bool
ScratchPad::reserve(OffloadId id, OffloadKind kind, std::uint32_t bytes,
                    std::uint32_t partition)
{
    XFM_ASSERT(id != invalidOffloadId, "invalid offload id");
    XFM_ASSERT(entries_.find(id) == entries_.end(),
               "duplicate SPM reservation for id ", id);
    if (used_ + bytes > capacity_)
        return false;
    if (injector_ && injector_->armed()) {
        if (injector_->shouldInject(fault::FaultSite::SpmReserveFail))
            return false;
        const double watermark =
            injector_->plan().spmHighWatermark
            * static_cast<double>(capacity_);
        if (static_cast<double>(used_) >= watermark
            && injector_->shouldInject(
                   fault::FaultSite::SpmHighWatermark))
            return false;
    }
    if (!partitionFits(partition, bytes))
        return false;
    SpmEntry e;
    e.id = id;
    e.kind = kind;
    e.tag = SpmTag::Pending;
    e.reserved = bytes;
    e.partition = partition;
    used_ += bytes;
    if (partition != 0)
        partition_used_[partition] += bytes;
    entries_.emplace(id, std::move(e));
    return true;
}

void
ScratchPad::setPartitionCap(std::uint32_t partition, std::size_t bytes)
{
    XFM_ASSERT(partition != 0, "partition 0 cannot be capped");
    if (bytes == 0)
        partition_caps_.erase(partition);
    else
        partition_caps_[partition] = bytes;
}

std::size_t
ScratchPad::partitionUsed(std::uint32_t partition) const
{
    const auto it = partition_used_.find(partition);
    return it != partition_used_.end() ? it->second : 0;
}

std::size_t
ScratchPad::partitionCap(std::uint32_t partition) const
{
    const auto it = partition_caps_.find(partition);
    return it != partition_caps_.end() ? it->second : 0;
}

void
ScratchPad::uncharge(const SpmEntry &e, std::size_t bytes)
{
    used_ -= bytes;
    if (e.partition != 0) {
        auto it = partition_used_.find(e.partition);
        XFM_ASSERT(it != partition_used_.end() && it->second >= bytes,
                   "partition accounting underflow");
        it->second -= bytes;
    }
}

void
ScratchPad::complete(OffloadId id, Bytes output, Tick when)
{
    auto it = entries_.find(id);
    XFM_ASSERT(it != entries_.end(), "complete: unknown id ", id);
    SpmEntry &e = it->second;
    XFM_ASSERT(e.tag == SpmTag::Pending, "complete: entry not pending");
    XFM_ASSERT(output.size() <= e.reserved,
               "engine output exceeds reservation: ", output.size(),
               " > ", e.reserved);
    // Trim the pessimistic reservation to the actual output size.
    uncharge(e, e.reserved - output.size());
    e.reserved = static_cast<std::uint32_t>(output.size());
    e.data = std::move(output);
    e.tag = SpmTag::Completed;
    e.stagedAt = when;
}

void
ScratchPad::setDestination(OffloadId id, std::uint64_t dst_addr,
                           std::uint32_t dst_row, std::uint32_t dst_bank)
{
    auto it = entries_.find(id);
    XFM_ASSERT(it != entries_.end(), "setDestination: unknown id ", id);
    it->second.dstAddr = dst_addr;
    it->second.dstRow = dst_row;
    it->second.dstBank = dst_bank;
    it->second.writebackReady = true;
}

const SpmEntry &
ScratchPad::entry(OffloadId id) const
{
    auto it = entries_.find(id);
    XFM_ASSERT(it != entries_.end(), "entry: unknown id ", id);
    return it->second;
}

bool
ScratchPad::popWriteback(SpmEntry &out)
{
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.tag == SpmTag::Completed
            && it->second.writebackReady) {
            out = std::move(it->second);
            uncharge(out, out.reserved);
            entries_.erase(it);
            return true;
        }
    }
    return false;
}

void
ScratchPad::writebackIds(std::vector<OffloadId> &out) const
{
    out.clear();
    for (const auto &[id, e] : entries_)
        if (e.tag == SpmTag::Completed && e.writebackReady)
            out.push_back(id);
}

SpmEntry
ScratchPad::take(OffloadId id)
{
    auto it = entries_.find(id);
    XFM_ASSERT(it != entries_.end(), "take: unknown id ", id);
    SpmEntry out = std::move(it->second);
    uncharge(out, out.reserved);
    entries_.erase(it);
    return out;
}

void
ScratchPad::release(OffloadId id)
{
    auto it = entries_.find(id);
    XFM_ASSERT(it != entries_.end(), "release: unknown id ", id);
    uncharge(it->second, it->second.reserved);
    entries_.erase(it);
}

} // namespace nma
} // namespace xfm
