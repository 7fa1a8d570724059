/**
 * @file
 * XfmDevice: the near-memory accelerator on one DRAM rank.
 *
 * Implements the paper's core mechanism: all NMA accesses to DRAM
 * are batched during each tREFI interval and executed inside the
 * tRFC all-bank refresh window, invisible to the CPU memory
 * controller. Accesses whose target row is being refreshed in the
 * window ride along as *conditional* accesses (the row is already
 * activated); a bounded number of *random* accesses reach other
 * rows through SALP-style parallel subarray access.
 *
 * Capacity pressure propagates exactly as in Fig. 10/12: engine
 * output staged in the SPM -> SPM full -> the submission queue's
 * slots stay owned -> submit() fails -> the driver falls back to
 * the CPU.
 */

#ifndef XFM_NMA_XFM_DEVICE_HH
#define XFM_NMA_XFM_DEVICE_HH

#include <deque>
#include <functional>
#include <set>

#include "common/config.hh"
#include "common/random.hh"
#include "dram/address_map.hh"
#include "dram/bank.hh"
#include "dram/phys_mem.hh"
#include "dram/refresh.hh"
#include "nma/engine.hh"
#include "nma/mmio.hh"
#include "nma/offload.hh"
#include "nma/ring.hh"
#include "nma/spm.hh"
#include "obs/registry.hh"
#include "obs/tracer.hh"
#include "sim/sim_object.hh"

namespace xfm
{
namespace nma
{

/** Static configuration of one XFM DIMM device. */
struct XfmDeviceConfig
{
    std::uint32_t rank = 0;     ///< rank within the channel

    std::size_t spmBytes = mib(2);          ///< prototype SPM size
    std::size_t queueDepth = 64;  ///< unused; perfbench still sets it
    /**
     * Total accesses per tRFC window. 0 = derive from the device's
     * timing (dram::maxAccessesPerTrfc: 2/3/4 for 8/16/32 Gb).
     */
    std::uint32_t maxAccessesPerWindow = 0;
    std::uint32_t maxRandomPerWindow = 1;   ///< SALP random accesses

    /**
     * Extra random slots borrowed from Target-Row-Refresh cycles
     * (Sec. 5): commodity DIMMs reserve refresh bandwidth for
     * Rowhammer victim rows, but TRR rarely triggers in practice
     * [TRRespass], so XFM can opportunistically reuse the slack.
     */
    std::uint32_t trrRandomSlots = 0;

    compress::Algorithm algorithm = compress::Algorithm::ZstdLike;
    EngineProfile engine{};

    /**
     * Watchdog deadline, in refresh windows (tREFI intervals): an
     * accepted offload that has not executed after this many
     * windows, or a committed write-back stranded in the SPM that
     * long, is forced to complete with an error (a Drop record) so
     * the backend redoes the work on the CPU. 0 disables the
     * watchdog.
     */
    std::uint32_t watchdogWindows = 0;

    /**
     * Submission-queue depth of the DIMM's NVMe-style queue pair:
     * slab-allocated descriptors, one batched SQ tail doorbell per
     * tREFI, phase-bit completion ring, coalesced reaping. A slot
     * stays owned until its command's final completion is reaped,
     * so this bounds the commands in flight per DIMM.
     */
    std::uint32_t sqDepth = 64;
    /**
     * Completion-interrupt coalescing threshold: the device raises
     * the CQ-ready callback once this many records are pending;
     * leftovers are always flushed at the next window boundary.
     * 1 = interrupt per completion.
     */
    std::uint32_t cqCoalesce = 1;

    /** @p base with the per-DIMM keys applied to the fields above
     *  (absent keys keep the base's value): xfm.spm_bytes,
     *  xfm.accesses_per_trfc (maxAccessesPerWindow), xfm.sq_depth,
     *  xfm.cq_coalesce, xfm.watchdog_windows. */
    static XfmDeviceConfig
    fromConfig(const Config &cfg,
               XfmDeviceConfig base = defaults<XfmDeviceConfig>());
};

/** Device-level statistics. */
struct XfmDeviceStats
{
    std::uint64_t conditionalAccesses = 0;
    std::uint64_t randomAccesses = 0;
    std::uint64_t compressOffloads = 0;
    std::uint64_t decompressOffloads = 0;
    std::uint64_t queueRejects = 0;   ///< full-SQ submit() failures
    std::uint64_t unregisteredRejects = 0;  ///< address not registered
    std::uint64_t deadlineDrops = 0;  ///< ops abandoned to the CPU
    std::uint64_t watchdogFires = 0;  ///< stuck ops forced to error
    std::uint64_t deferredExecutions = 0;  ///< SPM full at read time
    std::uint64_t engineStalls = 0;   ///< injected stalls/timeouts
    std::uint64_t subarrayConflictRetries = 0;  ///< reordered randoms
    std::uint64_t trrSlotsUsed = 0;   ///< random accesses in TRR slack
    std::uint64_t windows = 0;        ///< refresh windows seen
    std::uint64_t pbWindows = 0;      ///< per-bank REFpb windows seen
    std::uint64_t rfmStolenWindows = 0;  ///< windows destroyed by RFM
    std::uint64_t hiraBonusSlots = 0;  ///< extra slots from HiRA
    std::uint64_t bytesReadFromDram = 0;
    std::uint64_t bytesWrittenToDram = 0;
    double accessEnergyNanojoules = 0.0;
    double energySavedNanojoules = 0.0;

    std::uint64_t
    totalAccesses() const
    {
        return conditionalAccesses + randomAccesses;
    }

    /** Fraction of access energy avoided via conditional accesses. */
    double
    energySavedFraction() const
    {
        const double total =
            accessEnergyNanojoules + energySavedNanojoules;
        return total > 0 ? energySavedNanojoules / total : 0.0;
    }
};

/**
 * One XFM-enabled DIMM (NMA in the buffer device).
 *
 * Resource model: the submission queue bounds how many commands may
 * be in flight (submit() fails when every slot is owned); SPM space
 * is reserved when the DRAM read actually executes inside a refresh
 * window, so queued descriptors cost no SPM. Admission control
 * against SPM exhaustion is the driver's job (lazy occupancy bound,
 * paper Sec. 6) — a read that finds the SPM full is simply deferred
 * to a later window. Every outcome (engine completion, write-back,
 * drop) reaches the driver as a record on the completion queue.
 */
class XfmDevice : public SimObject
{
  public:
    XfmDevice(std::string name, EventQueue &eq,
              const XfmDeviceConfig &cfg, const dram::AddressMap &map,
              dram::PhysMem &mem, dram::RefreshController &refresh);

    /**
     * Write an offload descriptor into a free SQ slot (driver
     * path). The descriptor is not device-visible until the driver
     * rings the SQ tail doorbell.
     *
     * @return the command's generation tag (its OffloadId), or
     *         invalidOffloadId on an unregistered address or full-SQ
     *         backpressure (CPU fallback).
     */
    OffloadId submit(const OffloadRequest &req);

    /** The DIMM's submission/completion queue pair. */
    CommandRing &ring() { return ring_; }

    /**
     * Completion interrupt: invoked when pending CQ records reach
     * cfg.cqCoalesce, and at every window boundary with any records
     * left over. The driver reaps from the CQ and
     * acknowledges with one CQ head doorbell write per batch.
     */
    void setCqReadyCallback(std::function<void()> cb)
    {
        cq_ready_ = std::move(cb);
    }

    /**
     * Provide the write-back destination for a completed compress
     * offload (the backend allocates space once the size is known).
     */
    void commitWriteback(OffloadId id, std::uint64_t dst_addr);

    /**
     * Register a DIMM-local address region for NMA access (the
     * driver's page-registration path, Sec. 6). Once any region is
     * registered, offloads touching unregistered addresses are
     * rejected; with no registrations the device is permissive
     * (bring-up mode).
     */
    void registerRegion(std::uint64_t base, std::uint64_t bytes);

    /** True if [addr, addr+size) is NMA-accessible. */
    bool regionRegistered(std::uint64_t addr,
                          std::uint64_t size) const;

    /**
     * Abandon an offload in any pre-writeback state (queued, waiting
     * for a window, computing, or completed-without-destination).
     * SPM space is released and the slot retired, so any record
     * already posted for the id reads as stale at reap time.
     */
    void abort(OffloadId id);

    /**
     * Cap the SPM bytes offloads tagged with @p partition may stage
     * concurrently (multi-tenant QoS partitioning). Reads that find
     * their partition full are deferred, and the window scheduler
     * passes over them to other partitions' reads, so capacity
     * pressure propagates per class.
     */
    void
    setSpmPartitionCap(std::uint32_t partition, std::size_t bytes)
    {
        spm_.setPartitionCap(partition, bytes);
    }

    /**
     * Attach a fault injector (may be null to detach). Forwarded to
     * the SPM (allocation-failure sites); the device itself
     * evaluates EngineStall whenever the engine starts an offload —
     * an injected stall abandons the offload (SPM released, Drop
     * record posted) as if the engine timed out mid-window.
     */
    void
    setFaultInjector(fault::FaultInjector *inj)
    {
        injector_ = inj;
        spm_.setFaultInjector(inj);
    }

    RegisterFile &regs() { return regs_; }
    const ScratchPad &spm() const { return spm_; }
    const XfmDeviceStats &stats() const { return stats_; }
    const XfmDeviceConfig &config() const { return cfg_; }
    CompressionEngine &engine() { return engine_; }

    /**
     * Register device counters and SPM occupancy under
     * `<prefix>.*` (e.g. "sys.dimm0.conditionalAccesses").
     */
    void registerMetrics(obs::MetricRegistry &r,
                         const std::string &prefix);

    /**
     * Attach a span tracer (null detaches). The device records
     * Queue/WindowWait/Classify/Engine/SpmStage/Writeback spans for
     * offloads whose request carries a non-zero traceId; with no
     * tracer attached the hot path only pays a pointer check.
     */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

    /** Attached tracer, if any (the driver records CqReap spans). */
    obs::Tracer *tracer() const { return tracer_; }

    /** Accepted reads not yet executed in a window. */
    std::size_t pendingReads() const { return reads_.size(); }

  private:
    /** An accepted offload waiting for its DRAM read slot. */
    struct ReadOp
    {
        OffloadId id;
        OffloadRequest req;
        Tick accepted;
        std::uint32_t srcRow;   ///< req.srcAddr's row within its bank
        std::uint32_t srcBank;  ///< req.srcAddr's bank
    };

    void onWindow(const dram::RefreshWindow &window);
    /** Pull every doorbell-covered descriptor from the SQ into the
     *  pending-read pool. */
    void drainSq();
    /** Post a completion record, raising the CQ-ready interrupt
     *  once cfg.cqCoalesce records are pending. */
    void postRecord(CompletionRecord rec);
    /** Fire the CQ-ready callback if records pend. */
    void raiseCq();
    /** Post a Drop record for @p id. */
    void postDrop(OffloadId id, DropReason reason,
                  std::uint64_t trace_id);
    /** traceId recorded for @p id, or 0 (tracing off / untraced). */
    std::uint64_t traceIdOf(OffloadId id) const;
    void dropExpired(Tick now);
    /** Force completion-with-error for offloads stuck past the
     *  watchdog deadline (cfg.watchdogWindows refresh windows). */
    void runWatchdog(Tick now);
    /** @retval false SPM had no room for the output (deferred). */
    bool executeRead(const ReadOp &op, AccessClass cls);
    void executeWriteback(SpmEntry entry, AccessClass cls);
    void chargeAccess(std::size_t bytes, AccessClass cls);

    XfmDeviceConfig cfg_;
    const dram::AddressMap &map_;
    dram::PhysMem &mem_;

    ScratchPad spm_;
    CommandRing ring_;
    RegisterFile regs_;
    CompressionEngine engine_;
    /** Staging buffer for the engine's DRAM read, reused by every
     *  offload (the codec consumes it before executeRead returns). */
    Bytes staging_;

    Tick dev_trefi_ = 0;  ///< tREFI of the attached refresh domain
    dram::DeviceConfig dev_cfg_;  ///< timing of the attached DRAM
    std::uint32_t window_access_index_ = 0;  ///< accesses this window
    /**
     * Representative bank for structural-hazard checking: all-bank
     * refresh touches the same row indices in every bank, so one
     * bank's subarray state decides legality for the whole rank.
     */
    dram::Bank bank_;
    Rng rng_;
    fault::FaultInjector *injector_ = nullptr;
    obs::Tracer *tracer_ = nullptr;
    /** OffloadId -> traceId, kept only while tracing is attached so
     *  write-back spans can name their request after the
     *  OffloadRequest itself is gone. */
    std::map<OffloadId, std::uint64_t> trace_ids_;
    /** Lazily-allocated timeline for refresh-realism trace points
     *  (REFpb window opens, RFM slot steals). */
    std::uint64_t refresh_trace_req_ = 0;
    std::deque<ReadOp> reads_;
    /** Id buffer the window passes and the watchdog refill in place
     *  (write-back candidates). */
    std::vector<OffloadId> ids_;
    /** Registered NMA-accessible regions (base -> end). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> regions_;
    /** Offloads aborted while the engine was running. */
    std::set<OffloadId> aborted_;
    /** Injected engine stalls awaiting their drop notification. */
    std::set<OffloadId> stalled_;

    std::function<void()> cq_ready_;

    XfmDeviceStats stats_;
};

} // namespace nma
} // namespace xfm

#endif // XFM_NMA_XFM_DEVICE_HH
