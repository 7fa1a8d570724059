/**
 * @file
 * XfmBackend: the XFM-accelerated SFM backend (paper Sec. 6).
 *
 * The modelled system is a set of XFM DIMMs. A 4 KiB virtual page
 * is physically interleaved across the DIMMs (multi-channel mode),
 * so each DIMM's NMA compresses its own shard of the page during
 * refresh windows; compressed shards are placed at the same offset
 * of every DIMM's SFM region (same-offset placement). When device
 * resources are exhausted — SPM full, request queue full, or a
 * deadline passes — the backend transparently falls back to CPU
 * (de)compression, exactly as CPU_Fallback does in the paper.
 */

#ifndef XFM_XFM_XFM_BACKEND_HH
#define XFM_XFM_XFM_BACKEND_HH

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/config.hh"
#include "common/worker_pool.hh"
#include "fault/fault.hh"
#include "health/health.hh"
#include "compress/compressor.hh"
#include "dram/mem_ctrl.hh"
#include "dram/phys_mem.hh"
#include "dram/refresh.hh"
#include "nma/xfm_device.hh"
#include "sfm/backend.hh"
#include "sim/sim_object.hh"
#include "xfm/multichannel.hh"
#include "xfm/xfm_driver.hh"

namespace xfm
{
namespace xfmsys
{

/** Configuration of the whole XFM memory system. */
struct XfmSystemConfig
{
    /** DIMMs a page interleaves over (1, 2, or 4 in the paper). */
    std::size_t numDimms = 4;
    /** Geometry of one DIMM: single-channel and single-rank (the
     *  backend asserts it), built from 32 Gb DDR5 devices. */
    dram::MemSystemConfig dimmMem{
        .rank = {.device = dram::ddr5Device32Gb()},
        .channels = 1,
        .dimmsPerChannel = 1,
        .ranksPerDimm = 1,
    };

    std::uint64_t localBase = 0;   ///< per-DIMM local shard region
    std::uint64_t localPages = 0;  ///< virtual pages tracked
    std::uint64_t sfmBase = 0;     ///< per-DIMM SFM region base
    std::uint64_t sfmBytes = 0;    ///< per-DIMM SFM region size

    compress::Algorithm algorithm = compress::Algorithm::ZstdLike;
    nma::XfmDeviceConfig device;   ///< per-DIMM NMA knobs
    double cpuFreqGHz = 2.6;

    /** Deadline slack for offloaded (prefetch) decompressions. */
    Tick decompressSlack = 0;  ///< 0 => 10 x tREFI

    /** Fault scenario injected into every layer of this backend
     *  (devices, SPMs, drivers, the backend itself). The default
     *  plan is disarmed and adds no overhead. */
    fault::FaultPlan faults{};
    /** Driver retry policy for transient submission faults. */
    fault::RetryPolicy retry{};

    /**
     * Tuning of the one circuit breaker per DIMM on the offload
     * path, its channel shard (see channelHealth()). Disabled by
     * default — baseline runs take no new branches and keep their
     * metric namespace unchanged.
     */
    health::HealthConfig health{};

    /**
     * Cap on simultaneously quarantined pages (0 = unbounded). When
     * a new uncorrectable-ECC quarantine would exceed the cap, the
     * oldest quarantined page is evicted: its retired SFM slot is
     * freed (the image is shipped to the DFM tier for repair) and
     * the page is re-established from its still-resident local
     * shard frames (swap-outs are non-destructive copies).
     */
    std::size_t quarantineCap = 0;

    /**
     * Multi-channel preset dictionaries (DESIGN.md §16): when
     * enabled, every swap-out samples a dictionary from the whole
     * page and compresses each shard with it preloaded as match
     * history, recovering cross-shard redundancy the interleave
     * split destroys. The dictionary is stored ONCE per page —
     * packed after DIMM 0's shard block inside the same-offset slot
     * — and shards carry only a 3-byte dict-referencing header, so
     * the dictionary's bytes are amortised across all shards. At
     * swap-in the driver recovers the packed copy and stages it to
     * each engine with the descriptor; CPU fallbacks and watchdog
     * redos reuse the same dictionary so every path stays
     * byte-identical. Off by default: the default configuration's
     * stored bytes are unchanged.
     */
    bool shardDict = false;
    /** Sampled dictionary size in bytes (dict mode only). Half a
     *  page samples enough cross-shard context to recover most of
     *  the 4-DIMM ratio loss while packing into a few hundred
     *  stored bytes on correlated data. */
    std::size_t dictBytes = 2048;

    /**
     * Wall-clock execution contexts for the CPU path's per-DIMM
     * shard (de)compression. Only host runtime changes: results are
     * committed in shard order, so simulated timing, metrics, and
     * traces are byte-identical for any value. 1 (the default)
     * spawns no threads and is exactly the single-threaded
     * simulator.
     */
    std::size_t workers = 1;

    /** Shard of a page stored on each DIMM. */
    std::uint64_t
    shardBytes() const
    {
        return pageBytes / numDimms;
    }

    /**
     * @p base with the XFM system keys applied to the fields above
     * (absent keys keep the base's value): xfm.dimms (numDimms),
     * xfm.shard_dict, xfm.dict_bytes, xfm.quarantine_cap, workers;
     * plus the fromConfig keys of nma::XfmDeviceConfig (device),
     * dram::DeviceConfig (dimmMem's device: refresh.*, rfm.*),
     * fault::FaultPlan, fault::RetryPolicy and health::HealthConfig.
     */
    static XfmSystemConfig
    fromConfig(const Config &cfg,
               XfmSystemConfig base = defaults<XfmSystemConfig>());
};

/** Extra statistics specific to the XFM backend. */
struct XfmBackendStats
{
    std::uint64_t offloadedSwapOuts = 0;
    std::uint64_t offloadedSwapIns = 0;
    /** Whole pages sent to the CPU because a DIMM's SQ or SPM was
     *  full at submit time. */
    std::uint64_t fallbackCapacity = 0;
    std::uint64_t fallbackDeadline = 0;  ///< window service too late
    std::uint64_t fallbackAlloc = 0;     ///< SFM region full
    std::uint64_t offloadRetries = 0;    ///< driver re-submissions
    std::uint64_t eccCorrected = 0;      ///< injected UEs scrubbed
    std::uint64_t eccQuarantines = 0;    ///< pages poisoned by UEs
    /** Quarantined pages evicted to stay under cfg.quarantineCap. */
    std::uint64_t quarantineEvicted = 0;
    /** Page shards (de)compressed on the CPU because their channel's
     *  breaker was open while the other channels stayed offloaded. */
    std::uint64_t shardCpuFallbacks = 0;
    /** Single shards redone on the CPU after a watchdog drop, while
     *  the page's other shards stayed offloaded (the watchdog is
     *  scoped per queue pair: one stranded command no longer fails
     *  the whole page back to the CPU). */
    std::uint64_t watchdogShardRedos = 0;
    /** Single shards redone on the CPU after their doorbell batch
     *  was given up on (`DoorbellLost`), while the page's other
     *  shards stayed offloaded. */
    std::uint64_t doorbellShardRedos = 0;
    /** Whole swaps routed to the CPU because every channel breaker
     *  was open. */
    std::uint64_t breakerFallbacks = 0;
    /** Time CPU-path swaps waited on refresh/RFM bank locks (only
     *  accumulates when refresh realism is armed). */
    std::uint64_t cpuRefreshStallTicks = 0;
    /** Shards stored as preset-dictionary containers (dict mode). */
    std::uint64_t dictShards = 0;
    /** Dict-mode shards where the plain block won (adaptive
     *  per-shard fallback kept the smaller encoding). */
    std::uint64_t dictFallbacks = 0;
};

/**
 * The XFM-accelerated backend.
 */
class XfmBackend : public SimObject, public sfm::SfmBackend
{
  public:
    /**
     * @param host_ctrl optional host-side memory controller: CPU
     *        fallback (de)compressions then issue their DRAM
     *        traffic through it, so end-to-end experiments can
     *        compare channel utilisation against the CPU baseline.
     *        Offloaded operations never touch it — that is the
     *        point of XFM.
     */
    XfmBackend(std::string name, EventQueue &eq,
               const XfmSystemConfig &cfg,
               dram::MemCtrl *host_ctrl = nullptr);

    // SfmBackend interface -------------------------------------------
    void swapOut(sfm::VirtPage page, bool allow_offload,
                 sfm::SwapCallback done) override;
    void swapIn(sfm::VirtPage page, bool allow_offload,
                sfm::SwapCallback done) override;
    sfm::PageState pageState(sfm::VirtPage page) const override;
    void compact() override;
    std::uint64_t farPageCount() const override
    {
        return entries_.size();
    }
    std::uint64_t storedCompressedBytes() const override;
    const sfm::BackendStats &stats() const override { return stats_; }
    Bytes readLocalPage(sfm::VirtPage page) const override
    {
        return readPage(page);
    }
    void writeLocalPage(sfm::VirtPage page, ByteSpan data) override
    {
        writePage(page, data);
    }

    // XFM-system access ----------------------------------------------
    /** Write page content into the distributed local frames. */
    void writePage(sfm::VirtPage page, ByteSpan data);
    /** Gather page content from the distributed local frames. */
    Bytes readPage(sfm::VirtPage page) const;

    /** Begin refresh activity (required before offloads progress). */
    void start();

    /**
     * Tag subsequent offload submissions with an SPM QoS partition
     * (see nma::ScratchPad::setPartitionCap). The service layer sets
     * this per priority class before dispatching each tenant's
     * operation; 0 (the default) is uncapped.
     */
    void setOffloadPartition(std::uint32_t p) { partition_ = p; }

    const XfmBackendStats &xfmStats() const { return xfm_stats_; }

    /** The backend-wide fault injector (configured via cfg.faults). */
    const fault::FaultInjector &faultInjector() const
    {
        return injector_;
    }

    /**
     * Pages quarantined after an uncorrectable ECC error in their
     * compressed image. A quarantined page stays Far, its slot is
     * retired, and every later swap-in fails fast instead of
     * handing corrupt data to the application.
     */
    bool isQuarantined(sfm::VirtPage page) const
    {
        return quarantined_.count(page) > 0;
    }
    std::uint64_t quarantinedPageCount() const
    {
        return quarantined_.size();
    }

    /** Fires on quarantine-cap evictions (silent Far -> Local). */
    void
    setReclaimHook(ReclaimHook hook) override
    {
        reclaim_hook_ = std::move(hook);
    }

    XfmDriver &driver(std::size_t dimm) { return *dimms_[dimm].driver; }
    dram::RefreshController &refresh() { return *refresh_; }

    /**
     * Health monitor of one channel shard, the only circuit breaker
     * on DIMM @p dimm's offload path: every write-back counts as a
     * success, every drop (deadline, engine stall, watchdog, lost
     * doorbell batch) as a fault. Tests and escalation policies may
     * forceFail() a channel here to take it offline
     * administratively.
     */
    health::HealthMonitor &channelHealth(std::size_t dimm)
    {
        return channel_health_[dimm];
    }

    const XfmSystemConfig &config() const { return cfg_; }
    const SameOffsetAllocator &allocator() const { return alloc_; }

    /** Bytes lost to same-offset padding across all DIMMs. */
    std::uint64_t fragmentationBytes() const;

    /**
     * Register backend, fault-injector, and per-DIMM device/driver
     * metrics under `<name()>.*` (e.g. "sys.xfm.dimm0.queueRejects").
     */
    void registerMetrics(obs::MetricRegistry &r);

    /**
     * Attach a span tracer (null detaches); forwarded to every DIMM
     * device. Each swap-out/in gets a tracer request id threaded
     * through driver and device so the whole lifecycle — submit,
     * queue, window wait, engine, SPM stage, write-back, or the CPU
     * fallback — lands in one span group.
     */
    void setTracer(obs::Tracer *t);

  private:
    struct Dimm
    {
        std::unique_ptr<dram::AddressMap> map;
        std::unique_ptr<dram::PhysMem> mem;
        std::unique_ptr<nma::XfmDevice> device;
        std::unique_ptr<XfmDriver> driver;
    };

    /** Stored location of a Far page. */
    struct PageEntry
    {
        std::uint64_t offset;  ///< same-offset slot (region-relative)
        std::vector<std::uint32_t> shardSizes;
        /** Bytes of packed preset dictionary appended after DIMM 0's
         *  shard block in the slot (0 = page stored without one). */
        std::uint32_t dictStored = 0;
    };

    /**
     * One swap in flight, whatever its route: route -> code -> place
     * -> commit -> complete. Every per-DIMM vector is sized numDimms
     * at creation (cpuBlocks for compress ops only).
     */
    struct PendingOp
    {
        sfm::VirtPage page;
        bool isCompress;
        std::vector<nma::OffloadId> ids;
        std::vector<std::uint32_t> sizes;  ///< stored shard sizes
        std::uint32_t retries = 0;  ///< driver re-submissions used
        std::size_t completions = 0;
        std::size_t writebacks = 0;
        std::uint64_t offset = SameOffsetAllocator::invalidOffset;
        /** Per-DIMM flag: shard handled on the CPU (the whole page
         *  was routed there, its channel's breaker was open, or a
         *  watchdog drop redid it). */
        std::vector<std::uint8_t> cpuShard;
        /** CPU-compressed shard blocks awaiting slot placement
         *  (compress ops only). */
        std::vector<Bytes> cpuBlocks;
        /** Per-DIMM flag: this shard's completion has been seen
         *  (CPU shards count as done up front). Distinguishes a
         *  watchdog drop before engine completion from one that
         *  stranded an already-staged write-back. */
        std::vector<std::uint8_t> shardDone;
        sfm::SwapCallback done;
        bool dead = false;  ///< fell back / aborted
        /** The whole page runs as one CPU leg: one charge and one
         *  CpuCompute span for the page, state committed at once and
         *  the callback one CPU latency later. */
        bool pageCpuLeg = false;
        std::uint64_t traceId = 0;  ///< obs::Tracer request id
        Tick traceStart = 0;        ///< request submission tick
        /** Preset dictionary shared by every shard of this op (null
         *  when dict mode is off / the page stored none). Watchdog
         *  redos must reuse it so the CPU-redone block is
         *  byte-identical to the one the engine would have staged. */
        std::shared_ptr<const Bytes> dict;
        /** packDict() image awaiting its once-per-page placement
         *  after DIMM 0's shard block (compress ops only). */
        Bytes packedDict;
    };

    std::uint64_t shardFrameAddr(sfm::VirtPage page) const;
    std::uint64_t slotAddr(std::uint64_t offset) const;
    Tick decompressDeadline() const;

    /** Sample the page's preset dictionary (null when dict mode is
     *  off or the sample came back empty). */
    std::shared_ptr<const Bytes> pageDict(sfm::VirtPage page) const;
    /** Recover the once-per-page packed dictionary from the slot
     *  tails (null when the page stored none). The stripe split is
     *  recomputed from (shardSizes, dictStored), so no per-stripe
     *  metadata is stored. */
    std::shared_ptr<const Bytes> loadPageDict(const PageEntry &entry);
    /** Water-fill the packed dictionary across the slot tails
     *  (stripe d lands after DIMM d's shard block). */
    void placePageDict(std::uint64_t offset,
                       const std::vector<std::uint32_t> &shard_sizes,
                       const Bytes &packed);
    /** Attribute one stored compress-shard block to the dict-mode
     *  counters (no-op while dict mode is off). */
    void countDictShard(ByteSpan block);

    /** Compress one shard, against @p dict when non-null (the
     *  dict-referencing container when it is smaller). */
    void encodeShardBlock(const Bytes *dict, ByteSpan shard,
                          Bytes &block) const;
    /** Decompress one shard block (against @p dict when non-null). */
    void decodeShardBlock(const Bytes *dict, ByteSpan block,
                          Bytes &shard) const;

    /**
     * Codec work of shard @p d of @p op on the CPU: a swap-out's
     * block waits in op.cpuBlocks for slot placement, a swap-in's
     * shard lands straight in its local frame. Touches only DIMM
     * @p d's memory and scratch and op's slot @p d, so it is safe
     * to run concurrently for distinct shards; it writes no stats
     * and no trace.
     */
    void codeShard(PendingOp &op, std::size_t d);
    /** codeShard() every shard flagged in op.cpuShard, fanned out
     *  over the worker pool. */
    void codeCpuShards(PendingOp &op);
    /**
     * Charge one CPU leg of @p op — the whole page, or one shard
     * (breaker-routed, or a watchdog or doorbell redo): the cycles
     * of @p raw_bytes, the host traffic against @p stored_bytes, and
     * a CpuCompute span of the modelled latency plus @p stall.
     * @return that latency.
     */
    Tick chargeCpuLeg(const PendingOp &op, std::uint32_t raw_bytes,
                      std::uint32_t stored_bytes, Tick stall = 0);
    /** Route the whole page to the CPU as one leg: code every shard,
     *  then place (swap-out) and commit through the same steps as
     *  an offload. */
    void runOnCpu(const std::shared_ptr<PendingOp> &op);
    /** Charge a committed page-level leg (with its refresh stall)
     *  and deliver @p outcome one latency later. */
    void completeCpuLeg(PendingOp &op, const sfm::SwapOutcome &outcome);
    /** Host channel traffic of a CPU (de)compression: the read of
     *  the input then the write of the output. */
    void hostTraffic(sfm::VirtPage page, std::uint32_t raw_bytes,
                     std::uint32_t stored_bytes, bool compress_op);
    /** Trace an instantaneous @p stage point for request @p tid. */
    void tracePoint(std::uint64_t tid, obs::Stage stage,
                    std::uint64_t arg);
    /** Fail a request with @p reason (@p used_cpu and @p retries
     *  describe what it ran before the refusal). */
    void reject(sfm::VirtPage page, sfm::RejectReason reason,
                std::uint64_t tid, const sfm::SwapCallback &done,
                bool used_cpu = false, std::uint32_t retries = 0);
    /** CPU cycles for @p bytes of (de)compression; returns the
     *  modelled latency. */
    Tick chargeCpu(std::uint64_t bytes, bool compress_op);
    /** Same-offset slot of @p size bytes, compacting once if the
     *  region is too fragmented (invalidOffset when full). */
    std::uint64_t allocateSlot(std::uint32_t size);

    /**
     * CPU-visible refresh stall for a demand access to @p addr
     * right now: the worst remaining refresh/RFM bank lock across
     * the DIMMs the page is striped over (the access needs all
     * shards). Always 0 while refresh realism is disarmed, so the
     * default configuration's latencies are untouched.
     */
    Tick cpuRefreshStall(std::uint64_t addr);

    /** Quarantine a poisoned page, evicting the oldest quarantined
     *  page when cfg.quarantineCap would be exceeded. */
    void quarantinePage(sfm::VirtPage page);

    /**
     * Every swap of either direction: a busy page is rejected;
     * otherwise route each shard (the whole page to the CPU when
     * offload is off, every breaker is open or a DIMM lacks
     * capacity; single shards around open breakers), then submit
     * the offloaded shards, which those checks guarantee go
     * through.
     */
    void startSwap(sfm::VirtPage page, bool compress_op,
                   bool allow_offload, std::uint64_t tid,
                   sfm::SwapCallback done);

    void onComplete(std::size_t dimm, const nma::OffloadCompletion &c);
    void onWriteback(std::size_t dimm, nma::OffloadId id, Tick t);
    void onDrop(std::size_t dimm, nma::OffloadId id,
                nma::DropReason reason);
    /** All shards compressed: size the same-offset slot and commit
     *  write-backs (shared by onComplete and shard recovery). */
    void placeCompressWritebacks(const std::shared_ptr<PendingOp> &op);
    /** Redo one shard dropped by the watchdog or a lost doorbell on
     *  the CPU while the page's other shards stay offloaded. */
    void recoverShardOnCpu(std::size_t dimm,
                           const std::shared_ptr<PendingOp> &op);
    /** Withdraw every shard of @p op still routed to a device and
     *  mark the op dead. */
    void abortShards(PendingOp &op);
    /** Withdraw @p op's offloads and re-run the whole page as a CPU
     *  leg (after a deadline drop). */
    void failToCpu(const std::shared_ptr<PendingOp> &op);
    /** Commit @p op's page state, counters and outcome. */
    void finishOp(const std::shared_ptr<PendingOp> &op, Tick now);

    const XfmSystemConfig cfg_;
    dram::MemCtrl *host_ctrl_;
    fault::FaultInjector injector_;
    std::unique_ptr<compress::Compressor> codec_;
    std::unique_ptr<dram::RefreshController> refresh_;
    std::vector<Dimm> dimms_;
    SameOffsetAllocator alloc_;

    std::map<sfm::VirtPage, PageEntry> entries_;  ///< rb-tree lookup
    /** Per-DIMM offload id -> in-flight op. */
    std::vector<std::unordered_map<nma::OffloadId,
                                   std::shared_ptr<PendingOp>>> routes_;
    /** Pages with an operation in flight (reject re-entry). */
    std::map<sfm::VirtPage, std::shared_ptr<PendingOp>> busy_;
    /** Pages poisoned by an uncorrectable ECC error. */
    std::set<sfm::VirtPage> quarantined_;
    /** Quarantine order, oldest first (cap eviction policy). */
    std::deque<sfm::VirtPage> quarantine_order_;
    ReclaimHook reclaim_hook_;
    /** One breaker per channel shard (per-DIMM offload path). */
    std::vector<health::HealthMonitor> channel_health_;

    sfm::BackendStats stats_;
    XfmBackendStats xfm_stats_;
    std::uint32_t partition_ = 0;  ///< SPM partition for submissions
    obs::Tracer *tracer_ = nullptr;

    /** Per-DIMM shard/block staging reused across CPU legs. */
    std::vector<Bytes> shard_scratch_;
    std::vector<Bytes> block_scratch_;
    /** Fan-out of codeCpuShards(). */
    WorkerPool pool_;
};

} // namespace xfmsys
} // namespace xfm

#endif // XFM_XFM_XFM_BACKEND_HH
