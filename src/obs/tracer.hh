/**
 * @file
 * Tick-accurate swap-request tracing.
 *
 * A Tracer records spans of a swap request's lifecycle — submit,
 * queue wait, refresh-window scheduling, conditional/random
 * classification, engine compute, SPM staging, write-back, or the
 * CPU-fallback path — stamped with event-queue ticks. Events land in
 * a bounded ring buffer (oldest dropped first, drops accounted) and
 * export as JSON-lines or Chrome trace format.
 *
 * Tracing disabled is a null-pointer check on the hot path: layers
 * hold an `obs::Tracer *` that defaults to nullptr and allocate
 * nothing when it is unset.
 */

#ifndef XFM_OBS_TRACER_HH
#define XFM_OBS_TRACER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace xfm
{
namespace obs
{

/** Lifecycle stage a trace event belongs to. */
enum class Stage : std::uint8_t
{
    SwapOut,     ///< whole swap-out request (backend scope)
    SwapIn,      ///< whole swap-in request (backend scope)
    Submit,      ///< handoff to a driver/device (arg = dimm)
    Queue,       ///< wait in the Compress_Request_Queue
    WindowWait,  ///< wait for a refresh (tRFC) window slot
    Classify,    ///< access class decision (arg: 0=cond, 1=random)
    Engine,      ///< (de)compression engine busy time
    SpmStage,    ///< output resident in the scratchpad
    Writeback,   ///< SPM -> DRAM write-back transfer
    CpuCompute,  ///< CPU-fallback (de)compression
    DfmLink,     ///< disaggregated-far-memory link transfer
    Fallback,    ///< instantaneous: NMA declined (arg = reason)
    Complete,    ///< instantaneous: request settled (arg = outcome)
    Health,      ///< instantaneous: breaker transition (arg = state)
    SqEnqueue,   ///< ring: descriptor written -> doorbell covered
    CqReap,      ///< ring: completion posted -> reaped by the driver
    TierShift,   ///< instantaneous: tier transition committed
                 ///  (arg = from << 2 | to, Tier enum values)
    RefPb,       ///< instantaneous: per-bank REFpb window opened
                 ///  (arg = bank)
    Rfm,         ///< instantaneous: RFM rode a refresh slot
                 ///  (arg = bank, or rank for all-bank REF)
    SlotSteal,   ///< instantaneous: RFM stole NMA service slots
                 ///  (arg = slots lost)
};

const char *stageName(Stage s);

/** Fallback reason codes (Stage::Fallback arg). */
enum : std::uint64_t
{
    fallbackCapacity = 0,  ///< SPM occupancy bound exceeded
    fallbackDeadline = 1,  ///< queue admission deadline infeasible
    fallbackAlloc = 2,     ///< far pool allocation failed
    fallbackWatchdog = 3,  ///< device watchdog forced an error
    fallbackBreaker = 4,   ///< circuit breaker open (component Failed)
    fallbackDoorbell = 5,  ///< doorbell batch lost: one shard redone
};

/** Outcome codes (Stage::Complete arg). */
enum : std::uint64_t
{
    outcomeOffloaded = 0,  ///< serviced by the NMA
    outcomeCpu = 1,        ///< serviced by the CPU fallback
    outcomeFailed = 2,     ///< rejected / quarantined / aborted
};

/** One recorded span (start == end for instantaneous events). */
struct TraceEvent
{
    std::uint64_t req = 0;  ///< request id (Tracer::begin)
    Stage stage = Stage::SwapOut;
    Tick start = 0;
    Tick end = 0;
    std::uint64_t arg = 0;  ///< stage-specific detail
};

/**
 * Bounded, deterministic trace sink.
 *
 * Request ids are handed out sequentially so same-seed runs produce
 * byte-identical exports. The ring keeps the most recent `capacity`
 * events; everything older is dropped and counted.
 */
class Tracer
{
  public:
    explicit Tracer(std::size_t capacity = 65536);

    /** Start a new request; returns its id (never 0). */
    std::uint64_t begin();

    /** Record a span [start, end] for request @p req. */
    void record(std::uint64_t req, Stage stage, Tick start, Tick end,
                std::uint64_t arg = 0);

    /** Record an instantaneous event at @p at. */
    void
    point(std::uint64_t req, Stage stage, Tick at,
          std::uint64_t arg = 0)
    {
        record(req, stage, at, at, arg);
    }

    std::size_t capacity() const { return capacity_; }
    /** Events currently retained (<= capacity). */
    std::size_t size() const { return ring_.size(); }
    /** Total events ever recorded, including dropped ones. */
    std::uint64_t recorded() const { return recorded_; }
    /** Events evicted because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }
    std::uint64_t requestsBegun() const { return next_req_ - 1; }

    /** Retained events, oldest first. */
    std::vector<TraceEvent> events() const;

    /** One JSON object per line, oldest first. */
    std::string toJsonLines() const;

    /** Chrome trace-event format ("X" complete events, ts in us). */
    std::string toChromeTrace() const;

    void clear();

  private:
    std::size_t capacity_;
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;  ///< next overwrite slot once full
    std::uint64_t recorded_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t next_req_ = 1;
};

} // namespace obs
} // namespace xfm

#endif // XFM_OBS_TRACER_HH
