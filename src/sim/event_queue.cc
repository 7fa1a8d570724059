#include "event_queue.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace xfm
{
namespace
{

// EventId layout: [ gen:32 | slot+1:32 ]. The +1 keeps the low word
// nonzero so no id ever collides with invalidEventId.
EventId
makeId(std::uint32_t gen, std::uint32_t slot)
{
    return (static_cast<EventId>(gen) << 32) |
           (static_cast<EventId>(slot) + 1);
}

} // namespace

std::uint32_t
EventQueue::acquireSlot()
{
    if (!free_slots_.empty()) {
        const std::uint32_t slot = free_slots_.back();
        free_slots_.pop_back();
        return slot;
    }
    if (slot_count_ % chunkSize == 0)
        chunks_.emplace_back(std::make_unique<Entry[]>(chunkSize));
    XFM_ASSERT(slot_count_ < std::numeric_limits<std::uint32_t>::max(),
               "event slot space exhausted");
    return slot_count_++;
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    Entry &e = entry(slot);
    e.cb = EventCallback();
    e.cancelled = false;
    // Invalidate every EventId handed out for this incarnation.
    ++e.gen;
    free_slots_.push_back(slot);
}

EventId
EventQueue::schedule(Tick when, Callback cb, int priority)
{
    XFM_ASSERT(when >= now_, "scheduling event in the past: when=", when,
               " now=", now_);
    const std::uint32_t slot = acquireSlot();
    Entry &e = entry(slot);
    e.cb = std::move(cb);
    heap_.push_back(HeapNode{when, priority, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return makeId(e.gen, slot);
}

bool
EventQueue::deschedule(EventId id)
{
    if (id == invalidEventId)
        return false;
    const std::uint32_t slot = static_cast<std::uint32_t>(id) - 1;
    if (slot >= slot_count_)
        return false;
    Entry &e = entry(slot);
    if (e.gen != static_cast<std::uint32_t>(id >> 32) || e.cancelled)
        return false;
    e.cancelled = true;
    // Drop the callback now so captured resources free promptly; the
    // node stays behind as a tombstone until popped or swept.
    e.cb = EventCallback();
    ++descheduled_;
    ++cancelled_;
    if (cancelled_ > heap_.size() / 2 && heap_.size() >= compactMinHeap)
        compact();
    return true;
}

void
EventQueue::compact()
{
    // Sweep tombstones in one pass instead of letting them trickle
    // through pops; keeps long soaks with heavy deschedule traffic
    // (retry ladders, watchdogs) from growing the heap unboundedly.
    auto keep = heap_.begin();
    for (auto &node : heap_) {
        if (entry(node.slot).cancelled) {
            releaseSlot(node.slot);
        } else {
            *keep++ = node;
        }
    }
    heap_.erase(keep, heap_.end());
    cancelled_ = 0;
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    ++compactions_;
}

EventQueue::HeapNode
EventQueue::popTop()
{
    const HeapNode node = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    return node;
}

bool
EventQueue::dropCancelledTop()
{
    const std::uint32_t slot = heap_.front().slot;
    if (!entry(slot).cancelled)
        return false;
    popTop();
    --cancelled_;
    releaseSlot(slot);
    return true;
}

void
EventQueue::fireTop()
{
    const HeapNode node = popTop();
    XFM_ASSERT(node.when >= now_, "event queue time went backwards");
    now_ = node.when;
    EventCallback cb = std::move(entry(node.slot).cb);
    // Release before invoking so a callback that reschedules sees the
    // slot free and a self-deschedule returns false.
    releaseSlot(node.slot);
    cb();
    ++executed_;
}

bool
EventQueue::step()
{
    while (!heap_.empty()) {
        if (dropCancelledTop())
            continue;
        fireTop();
        return true;
    }
    return false;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    std::uint64_t n = 0;
    while (!heap_.empty()) {
        // Tombstones are reaped even past the limit.
        if (dropCancelledTop())
            continue;
        if (heap_.front().when > limit)
            break;
        fireTop();
        ++n;
    }
    return n;
}

} // namespace xfm
