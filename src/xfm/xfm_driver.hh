/**
 * @file
 * XFM_Driver: the kernel-driver layer between the XFM backend and
 * one XFM DIMM (paper Sec. 6).
 *
 * Exposes ioctl-style primitives (xfmParamset, xfmCompress,
 * xfmDecompress) that translate to MMIO register accesses, and
 * implements the *lazy occupancy accounting*: the driver tracks an
 * upper bound on SPM usage locally and only issues an MMIO read of
 * SP_Capacity_Register when the bound says the SPM is full. Tests
 * assert the resulting MMIO read count stays low.
 */

#ifndef XFM_XFM_XFM_DRIVER_HH
#define XFM_XFM_XFM_DRIVER_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "fault/fault.hh"
#include "nma/xfm_device.hh"

namespace xfm
{
namespace xfmsys
{

/** Driver-level statistics. */
struct DriverStats
{
    std::uint64_t offloadsSubmitted = 0;
    std::uint64_t capacityRegisterReads = 0;  ///< lazy-sync MMIO reads
    std::uint64_t fallbacks = 0;              ///< resources exhausted
    std::uint64_t doorbellLosses = 0;  ///< injected lost doorbells
    std::uint64_t retries = 0;         ///< doorbell re-rings attempted
    /** Sum of the exponential backoffs waited before doorbell
     *  re-rings. */
    Tick backoffTicksAccrued = 0;
};

/** Callback crediting a command with the doorbell re-rings its
 *  batch needed. */
using RetryCallback = std::function<void(nma::OffloadId, std::uint32_t)>;

/**
 * Driver bound to one XfmDevice.
 *
 * The driver owns the device's queue pair: it writes descriptors
 * into the SQ, rings the tail doorbell once per batch, reaps the CQ
 * and re-exposes the records as the completion, write-back and drop
 * callbacks below.
 */
class XfmDriver
{
  public:
    explicit XfmDriver(nma::XfmDevice &dev);

    /** Configure the DIMM's SFM region (ioctl -> MMIO writes). */
    void xfmParamset(std::uint64_t sfm_base, std::uint64_t sfm_bytes);

    /** Register an NMA-accessible region (page registration). */
    void xfmRegisterRegion(std::uint64_t base, std::uint64_t bytes);

    /**
     * True if the lazy bound says the SPM can host another offload
     * of worst-case size @p worst_case. May sync via one MMIO read
     * when the local bound is pessimistic.
     */
    bool canAccept(std::uint32_t worst_case);

    /**
     * Submit a compression offload.
     * @param partition SPM QoS partition to charge (0 = uncapped).
     * @param trace_id  obs::Tracer request id (0 = untraced).
     * @param dict      preset dictionary handed to the engine
     *                  (DESIGN.md §16); null disables dict mode.
     * @return offload id or nma::invalidOffloadId (CPU fallback).
     */
    nma::OffloadId xfmCompress(std::uint64_t src, std::uint32_t size,
                               Tick deadline,
                               std::uint32_t partition = 0,
                               std::uint64_t trace_id = 0,
                               std::shared_ptr<const Bytes> dict =
                                   nullptr);

    /**
     * Submit a decompression offload (destination known).
     *
     * @param dict preset dictionary staged with the descriptor for
     *             pages stored with 0xD2 shard blocks (DESIGN.md
     *             §16); null for plain pages.
     */
    nma::OffloadId xfmDecompress(std::uint64_t src, std::uint32_t size,
                                 std::uint64_t dst,
                                 std::uint32_t raw_size, Tick deadline,
                                 std::uint32_t partition = 0,
                                 std::uint64_t trace_id = 0,
                                 std::shared_ptr<const Bytes> dict =
                                     nullptr);

    /** Commit the write-back target of a completed compression. */
    void commitWriteback(nma::OffloadId id, std::uint64_t dst);

    /** Abandon an offload (releases local accounting too). */
    void abort(nma::OffloadId id);

    void
    onComplete(nma::CompletionCallback cb)
    {
        on_complete_ = std::move(cb);
    }
    void
    onWriteback(nma::WritebackCallback cb)
    {
        on_writeback_ = std::move(cb);
    }
    void
    onDrop(nma::DropCallback cb)
    {
        on_drop_ = std::move(cb);
    }
    /** Invoked once per command of a batch whose doorbell needed
     *  re-rings, before the batch is delivered or abandoned. */
    void
    onRetries(RetryCallback cb)
    {
        on_retries_ = std::move(cb);
    }

    const DriverStats &stats() const { return stats_; }
    nma::XfmDevice &device() { return dev_; }

    /** Register the driver's counters under `<prefix>.*`. */
    void registerMetrics(obs::MetricRegistry &r,
                         const std::string &prefix);

    /** Current local upper bound on SPM bytes in use. */
    std::uint64_t occupancyBound() const { return bound_; }

    /**
     * Disable the lazy bound: read SP_Capacity_Register on every
     * admission decision (ablation baseline; real drivers pay one
     * MMIO round trip per offload in this mode).
     */
    void setAlwaysSync(bool enable) { always_sync_ = enable; }

    /**
     * Attach a fault injector (may be null to detach). Each SQ tail
     * doorbell write then evaluates MmioDoorbellLoss, and so does
     * each reap round (a phase-bit misread). A lost doorbell is
     * re-rung with exponential backoff (fault::retryBackoff) until
     * fault::transientAttempts writes were lost. Deterministic same-tick
     * conditions — SPM exhaustion, SQ full — are not retried:
     * nothing can change before the driver re-reads the registers,
     * so they fall back to the CPU immediately, exactly as the
     * paper's CPU_Fallback does.
     */
    void setFaultInjector(fault::FaultInjector *inj)
    {
        injector_ = inj;
    }

    /**
     * True when a submission can be written into the SQ right now.
     * The backend pre-checks this across all shards so a full SQ on
     * one DIMM falls the whole page back to the CPU instead of
     * rolling back a partial submit.
     */
    bool ringHasSlot() const { return !ring_.sq().full(); }

    /**
     * Reap every valid completion record from the CQ and dispatch
     * it in post order, then acknowledge the batch with one CQ head
     * doorbell write. Invoked by the device's coalesced completion
     * interrupt; public so tests can force a reap point.
     */
    void reapCompletions();

  private:
    nma::OffloadId submitTracked(const nma::OffloadRequest &req,
                                 std::uint32_t worst_case);
    /** Per-record-type tails of the reap dispatch. */
    void handleComplete(const nma::OffloadCompletion &c);
    void handleWriteback(nma::OffloadId id, Tick t);
    void handleDrop(nma::OffloadId id, nma::DropReason reason);
    /** Arm one SQ tail doorbell write for the current batch. */
    void scheduleDoorbellFlush();
    void flushDoorbell();
    /** Refill batch_ with the staged batch and credit each of its
     *  commands with @p retries doorbell re-rings. */
    void takeBatch(std::uint32_t retries);
    /** Give up on the staged batch: cancel each command and report
     *  it dropped (DropReason::DoorbellLost). */
    void abandonBatch();

    nma::XfmDevice &dev_;
    nma::CommandRing &ring_;  ///< the device's queue pair
    fault::FaultInjector *injector_ = nullptr;
    bool always_sync_ = false;
    /** A doorbell-flush event is pending (one per batch). */
    bool doorbell_scheduled_ = false;
    /** Lost-doorbell retries consumed by the pending flush. */
    std::uint32_t doorbell_attempts_ = 0;
    /** Tags of the batch being credited or abandoned. */
    std::vector<nma::OffloadId> batch_;
    /** Re-entrant reap guard. */
    bool reaping_ = false;
    std::uint64_t bound_ = 0;  ///< local SPM usage upper bound
    /** Per-offload bytes counted in the bound. */
    std::unordered_map<nma::OffloadId, std::uint32_t> tracked_;

    nma::CompletionCallback on_complete_;
    nma::WritebackCallback on_writeback_;
    nma::DropCallback on_drop_;
    RetryCallback on_retries_;

    DriverStats stats_;
};

} // namespace xfmsys
} // namespace xfm

#endif // XFM_XFM_XFM_DRIVER_HH
