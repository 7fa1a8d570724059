#include "ring.hh"

#include <algorithm>

#include "common/logging.hh"

namespace xfm
{
namespace nma
{

// ------------------------------------------------- SubmissionQueue

SubmissionQueue::SubmissionQueue(std::uint32_t depth,
                                 RingStats &stats)
    : depth_(depth), stats_(stats), slab_(depth)
{
    XFM_ASSERT(depth >= 1, "submission queue needs at least 1 slot");
    XFM_ASSERT(depth <= maxCommandSlots,
               "submission queue deeper than the tag slot field");
    free_.reserve(depth);
    for (std::uint32_t s = depth; s > 0; --s) {
        slab_[s - 1].slot = s - 1;
        free_.push_back(s - 1);  // back() is the lowest index
    }
}

CommandTag
SubmissionQueue::push(const OffloadRequest &req, Tick now)
{
    if (free_.empty()) {
        ++stats_.sqFullRejects;
        return 0;
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    CommandDescriptor &d = slab_[slot];
    const CommandTag tag = makeTag(d.generation, slot);
    d.req = req;
    d.req.id = tag;
    d.enqueued = now;
    d.doorbelled = 0;
    d.inUse = true;
    d.visible = false;
    d.consumed = false;
    staged_.push_back(slot);
    ++tail_;
    ++stats_.sqEnqueues;
    return tag;
}

void
SubmissionQueue::ringDoorbell(Tick now)
{
    ++stats_.doorbells;
    while (!staged_.empty()) {
        const std::uint32_t slot = staged_.front();
        staged_.pop_front();
        slab_[slot].visible = true;
        slab_[slot].doorbelled = now;
        pending_.push_back(slot);
    }
}

bool
SubmissionQueue::consume(CommandDescriptor &out)
{
    if (pending_.empty())
        return false;
    const std::uint32_t slot = pending_.front();
    pending_.pop_front();
    slab_[slot].consumed = true;
    ++stats_.consumed;
    out = slab_[slot];
    return true;
}

bool
SubmissionQueue::validTag(CommandTag tag) const
{
    const std::uint32_t slot = slotOf(tag);
    if (slot >= depth_)
        return false;
    const CommandDescriptor &d = slab_[slot];
    return d.inUse && d.generation == generationOf(tag);
}

bool
SubmissionQueue::retire(CommandTag tag)
{
    if (!validTag(tag))
        return false;
    const std::uint32_t slot = slotOf(tag);
    CommandDescriptor &d = slab_[slot];
    d.inUse = false;
    d.visible = false;
    d.consumed = false;
    ++d.generation;
    // Keep the free list sorted with the lowest slot at the back so
    // allocation order (and thus every tag ever issued) is a pure
    // function of the submission sequence.
    free_.insert(std::lower_bound(free_.begin(), free_.end(), slot,
                                  std::greater<std::uint32_t>()),
                 slot);
    return true;
}

bool
SubmissionQueue::cancel(CommandTag tag)
{
    if (!validTag(tag))
        return false;
    const std::uint32_t slot = slotOf(tag);
    if (slab_[slot].consumed)
        return false;  // device already owns it
    std::erase(staged_, slot);
    std::erase(pending_, slot);
    retire(tag);
    return true;
}

void
SubmissionQueue::stagedTags(std::vector<CommandTag> &out) const
{
    out.clear();
    for (std::uint32_t slot : staged_)
        out.push_back(makeTag(slab_[slot].generation, slot));
}

// ------------------------------------------------- CompletionQueue

CompletionQueue::CompletionQueue(std::uint32_t depth,
                                 RingStats &stats)
    : stats_(stats), ring_(depth)
{
    XFM_ASSERT(depth >= 2, "completion ring needs >= 2 entries");
    // Freshly initialised entries carry phase = false while both
    // sides expect true, so an empty ring can never be reaped.
}

bool
CompletionQueue::post(CompletionRecord rec, Tick now)
{
    if (pending_ == ring_.size())
        return false;
    rec.tick = now;
    rec.phase = dev_phase_;
    ring_[tail_] = rec;
    if (++tail_ == ring_.size()) {
        tail_ = 0;
        dev_phase_ = !dev_phase_;
        ++stats_.phaseFlips;
    }
    ++pending_;
    ++stats_.cqPosts;
    return true;
}

bool
CompletionQueue::reap(CompletionRecord &out)
{
    if (ring_[head_].phase != drv_phase_)
        return false;  // no new record at the head position
    out = ring_[head_];
    if (++head_ == ring_.size()) {
        head_ = 0;
        drv_phase_ = !drv_phase_;
    }
    ++head_count_;
    XFM_ASSERT(pending_ > 0, "reaped a record the device never posted");
    --pending_;
    ++stats_.reaped;
    return true;
}

// ----------------------------------------------------- CommandRing

CommandRing::CommandRing(std::uint32_t sq_depth)
    : sq_(sq_depth, stats_), cq_(2 * sq_depth + 2, stats_),
      occupancy_(0.0, static_cast<double>(sq_depth) + 1.0,
                 sq_depth + 1)
{
}

void
CommandRing::registerMetrics(obs::MetricRegistry &r,
                             const std::string &prefix)
{
    const std::string p = prefix + ".ring.";
    r.counter(p + "sqEnqueues", &stats_.sqEnqueues,
              "descriptors written into the submission queue");
    r.counter(p + "sqFullRejects", &stats_.sqFullRejects,
              "submissions refused by full-SQ backpressure");
    r.counter(p + "doorbells", &stats_.doorbells,
              "SQ tail doorbell MMIO writes (batched)");
    r.counter(p + "consumed", &stats_.consumed);
    r.counter(p + "cqPosts", &stats_.cqPosts);
    r.counter(p + "reapBatches", &stats_.reapBatches,
              "coalesced completion reap rounds");
    r.counter(p + "reaped", &stats_.reaped);
    r.counter(p + "staleRejected", &stats_.staleRejected,
              "completion records with a stale generation tag");
    r.counter(p + "phaseFlips", &stats_.phaseFlips,
              "completion-ring wraps");
    r.counter(p + "phaseCorruptions", &stats_.phaseCorruptions,
              "injected phase-bit misreads (reap round skipped)");
    r.derived(p + "sqOccupancy",
              [this] {
                  return static_cast<double>(sq_.inFlight());
              },
              "submission-queue slots owned by live commands");
    r.derived(p + "cqPending",
              [this] { return static_cast<double>(cq_.pending()); });
    r.histogram(p + "occupancy", &occupancy_,
                "SQ occupancy sampled at each enqueue");
}

} // namespace nma
} // namespace xfm
