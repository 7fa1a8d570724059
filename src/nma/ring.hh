/**
 * @file
 * Async NMA command rings: per-DIMM submission/completion queue
 * pairs (NVMe-style) over slab-allocated command descriptors.
 *
 * Submission side: the driver writes descriptors into free slab
 * slots, then makes a batch of them device-visible with ONE MMIO
 * write of the SQ tail doorbell per tREFI batch. The device
 * consumes visible descriptors in doorbell order at the next
 * refresh window. A slot stays owned by its command until the
 * driver reaps the command's final completion record, so full-SQ
 * backpressure is exact: no descriptor reuse while in flight.
 *
 * Completion side: the device posts records into a ring whose
 * validity is carried by a phase bit that flips on every wrap
 * (NVMe CQ protocol) — the driver never reads a tail pointer, it
 * reaps records whose phase matches its expectation, in post
 * order, and acknowledges a whole batch with one CQ head doorbell
 * write. Completions may be posted out of order with respect to
 * submission; the driver dispatches them in post order, which the
 * event queue makes deterministic, so metrics and traces stay
 * byte-identical across runs.
 */

#ifndef XFM_NMA_RING_HH
#define XFM_NMA_RING_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.hh"
#include "nma/command.hh"
#include "obs/registry.hh"

namespace xfm
{
namespace nma
{

/** Ring-layer statistics. */
struct RingStats
{
    std::uint64_t sqEnqueues = 0;     ///< descriptors written
    std::uint64_t sqFullRejects = 0;  ///< push() found no free slot
    std::uint64_t doorbells = 0;      ///< SQ tail MMIO writes
    std::uint64_t consumed = 0;       ///< descriptors pulled by device
    std::uint64_t cqPosts = 0;        ///< completion records posted
    std::uint64_t reapBatches = 0;    ///< driver reap rounds
    std::uint64_t reaped = 0;         ///< records consumed
    std::uint64_t staleRejected = 0;  ///< stale generation tags seen
    std::uint64_t phaseFlips = 0;     ///< CQ wraps (phase inversions)
    std::uint64_t phaseCorruptions = 0;  ///< injected misread reaps
};

/**
 * Slab-backed submission queue.
 *
 * Free slots are handed out lowest-index first; the pending FIFO
 * preserves doorbell order for the device's consume side.
 */
class SubmissionQueue
{
  public:
    SubmissionQueue(std::uint32_t depth, RingStats &stats);

    std::uint32_t depth() const { return depth_; }
    bool full() const { return free_.empty(); }
    /** Slots currently owned by live commands. */
    std::uint32_t
    inFlight() const
    {
        return depth_ - static_cast<std::uint32_t>(free_.size());
    }
    /** Descriptors written but not yet covered by a doorbell. */
    std::uint32_t
    stagedCount() const
    {
        return static_cast<std::uint32_t>(staged_.size());
    }
    /** Free-running tail index (doorbell register payload). */
    std::uint64_t tailIndex() const { return tail_; }

    /**
     * Write a descriptor into a free slot (not yet device-visible).
     * Assigns req.id = the slot's generation tag.
     * @return the tag, or 0 when the SQ is full (backpressure).
     */
    CommandTag push(const OffloadRequest &req, Tick now);

    /** Deliver the tail doorbell: staged entries become visible. */
    void ringDoorbell(Tick now);

    /** Device side: pull the oldest visible unconsumed descriptor. */
    bool consume(CommandDescriptor &out);

    /** True while @p tag names the live generation of its slot. */
    bool validTag(CommandTag tag) const;

    /**
     * Return the slot to the free list and bump its generation, so
     * later completion records carrying this tag read as stale.
     * @retval false the tag was already stale (no-op).
     */
    bool retire(CommandTag tag);

    /**
     * Cancel a not-yet-consumed command (abort path): drop it from
     * the staged/pending queues and retire the slot.
     * @retval false the descriptor was already consumed (or stale).
     */
    bool cancel(CommandTag tag);

    /** Refill @p out with the tags of the staged commands, oldest
     *  first (the batch the next doorbell would cover). */
    void stagedTags(std::vector<CommandTag> &out) const;

    const CommandDescriptor &descriptor(std::uint32_t slot) const
    {
        return slab_[slot];
    }

  private:
    std::uint32_t depth_;
    RingStats &stats_;
    std::vector<CommandDescriptor> slab_;
    std::vector<std::uint32_t> free_;     ///< sorted, lowest first
    std::deque<std::uint32_t> staged_;    ///< written, no doorbell yet
    std::deque<std::uint32_t> pending_;   ///< visible, unconsumed
    std::uint64_t tail_ = 0;              ///< free-running tail index
};

/**
 * Phase-bit completion ring.
 *
 * The device writes records with its current phase bit and flips it
 * after each wrap; the driver reaps entries whose phase matches its
 * own expectation and flips in lockstep. An entry left over from
 * the previous lap carries the old phase and is never misread.
 */
class CompletionQueue
{
  public:
    CompletionQueue(std::uint32_t depth, RingStats &stats);

    std::uint32_t depth() const
    {
        return static_cast<std::uint32_t>(ring_.size());
    }
    std::uint32_t pending() const { return pending_; }
    /** Free-running head index (head doorbell payload). */
    std::uint64_t headIndex() const { return head_count_; }

    /** Device side: post a record. @retval false ring full (bug —
     *  the CQ is sized so this cannot happen in normal operation). */
    bool post(CompletionRecord rec, Tick now);

    /** Driver side: reap the oldest record whose phase matches. */
    bool reap(CompletionRecord &out);

  private:
    RingStats &stats_;
    std::vector<CompletionRecord> ring_;
    std::uint32_t head_ = 0;  ///< driver read position
    std::uint32_t tail_ = 0;  ///< device write position
    bool dev_phase_ = true;   ///< phase of the device's next post
    bool drv_phase_ = true;   ///< phase the driver expects next
    std::uint32_t pending_ = 0;
    std::uint64_t head_count_ = 0;
};

/**
 * One DIMM's queue pair plus its shared stats and occupancy
 * telemetry. The CQ is sized at 2 * sqDepth + 2: a command posts at
 * most two records (Complete then Writeback/Drop), so the ring can
 * never overflow even if the driver defers reaping indefinitely.
 */
class CommandRing
{
  public:
    explicit CommandRing(std::uint32_t sq_depth);

    SubmissionQueue &sq() { return sq_; }
    CompletionQueue &cq() { return cq_; }
    RingStats &stats() { return stats_; }
    const RingStats &stats() const { return stats_; }

    /** Sample the SQ occupancy histogram (at enqueue time). */
    void
    sampleOccupancy()
    {
        occupancy_.sample(static_cast<double>(sq_.inFlight()));
    }

    /** Register ring counters/gauges under `<prefix>.ring.*`. */
    void registerMetrics(obs::MetricRegistry &r,
                         const std::string &prefix);

  private:
    RingStats stats_;
    SubmissionQueue sq_;
    CompletionQueue cq_;
    stats::Histogram occupancy_;
};

} // namespace nma
} // namespace xfm

#endif // XFM_NMA_RING_HH
