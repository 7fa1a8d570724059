#include "event_queue.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace xfm
{

std::uint32_t
EventQueue::acquireSlot()
{
    if (!free_slots_.empty()) {
        const std::uint32_t slot = free_slots_.back();
        free_slots_.pop_back();
        return slot;
    }
    if (slot_count_ % chunkSize == 0)
        chunks_.emplace_back(std::make_unique<EventCallback[]>(chunkSize));
    XFM_ASSERT(slot_count_ < std::numeric_limits<std::uint32_t>::max(),
               "event slot space exhausted");
    return slot_count_++;
}

void
EventQueue::schedule(Tick when, Callback cb, int priority)
{
    XFM_ASSERT(when >= now_, "scheduling event in the past: when=", when,
               " now=", now_);
    const std::uint32_t slot = acquireSlot();
    entry(slot) = std::move(cb);
    heap_.push_back(HeapNode{when, priority, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void
EventQueue::fireTop()
{
    const HeapNode node = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    XFM_ASSERT(node.when >= now_, "event queue time went backwards");
    now_ = node.when;
    EventCallback cb = std::move(entry(node.slot));
    // Release before invoking so a callback that reschedules can
    // reuse the slot.
    free_slots_.push_back(node.slot);
    cb();
    ++executed_;
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    fireTop();
    return true;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t n = 0;
    while (!heap_.empty() && heap_.front().when <= limit) {
        fireTop();
        ++n;
    }
    return n;
}

} // namespace xfm
