/**
 * @file
 * SFM backend interface shared by the baseline CPU implementation
 * and the XFM-accelerated implementation.
 *
 * The backend owns SFM region management and the initiation of
 * (de)compression operations (paper Sec. 6). The SFM_Controller
 * above it selects pages; the backend moves them between the local
 * region and the compressed pool.
 *
 * The modelled virtual address space is flat: virtual page @c v
 * resides in local physical frame @c localBase + v * 4096 while
 * Local. While Far, its compressed image lives in the SFM region.
 */

#ifndef XFM_SFM_BACKEND_HH
#define XFM_SFM_BACKEND_HH

#include <cstdint>
#include <functional>

#include "common/logging.hh"
#include "common/units.hh"
#include "compress/compressor.hh"  // Bytes / ByteSpan aliases

namespace xfm
{
namespace sfm
{

/** Virtual page number in the modelled application address space. */
using VirtPage = std::uint64_t;

/** Where a virtual page currently resides. */
enum class PageState
{
    Local,  ///< uncompressed, in the local region
    Far,    ///< compressed, in the SFM region
};

/**
 * Memory tier a page occupies in the three-level hierarchy the
 * TierManager governs (SMDK-style CXL tiering generalised to the
 * paper's far-memory model):
 *
 *   NEAR  — uncompressed local DRAM (PageState::Local);
 *   XFM   — the compressed tier (CpuBackend / XfmBackend pool);
 *   DFM   — the uncompressed spill tier behind a serial link.
 *
 * Two-state backends only ever report Near/Xfm; Dfm appears once a
 * TierManager routes demotions to a spill backend.
 */
enum class Tier : std::uint8_t
{
    Near,
    Xfm,
    Dfm,
};

/** Stable lowercase identifier for stats tables and logs. */
inline const char *
tierName(Tier t)
{
    switch (t) {
      case Tier::Near: return "near";
      case Tier::Xfm: return "xfm";
      case Tier::Dfm: return "dfm";
    }
    return "unknown";
}

/** Why an unsuccessful swap was refused (typed backpressure). */
enum class RejectReason : std::uint8_t
{
    None,           ///< not rejected (or legacy untyped failure)
    Busy,           ///< an operation on the page is already in flight
    Quarantined,    ///< page poisoned by an uncorrectable ECC error
    QuotaFarPages,  ///< tenant far-page quota exceeded
    SfmFull,        ///< far pool allocation failed
    AbuseThrottle,  ///< tenant throttled by the RFM-abuse detector
    Incompressible, ///< the compressed block would not shrink the page
};

/** Stable lowercase identifier for stats tables and logs. */
inline const char *
rejectReasonName(RejectReason r)
{
    switch (r) {
      case RejectReason::None: return "none";
      case RejectReason::Busy: return "busy";
      case RejectReason::Quarantined: return "quarantined";
      case RejectReason::QuotaFarPages: return "quota_far_pages";
      case RejectReason::SfmFull: return "sfm_full";
      case RejectReason::AbuseThrottle: return "abuse_throttle";
      case RejectReason::Incompressible: return "incompressible";
    }
    return "unknown";
}

/** Result of a swap-in or swap-out. */
struct SwapOutcome
{
    VirtPage page = 0;
    bool success = false;
    bool usedCpu = false;          ///< CPU performed the operation
    Tick completed = 0;
    std::uint32_t compressedSize = 0;
    /** Driver/link re-submissions this operation consumed before
     *  succeeding or falling back (fault-injection runs). */
    std::uint32_t retries = 0;
    /** Typed reason when success == false and the operation was
     *  refused (rather than attempted and failed). */
    RejectReason rejected = RejectReason::None;
    /**
     * Tier the operation moved the page to (swap-out) or from
     * (swap-in). Two-state backends leave the default; a TierManager
     * rewrites it when it routed the operation to the spill tier, so
     * accounting layers (the tenant service above all) can tell a
     * compressed-pool byte from an uncompressed spill slot.
     */
    Tier servedTier = Tier::Xfm;
};

using SwapCallback = std::function<void(const SwapOutcome &)>;

/** Backend-level statistics. */
struct BackendStats
{
    std::uint64_t swapOuts = 0;
    std::uint64_t swapIns = 0;
    std::uint64_t cpuSwapOuts = 0;    ///< done by the CPU (fallback
    std::uint64_t cpuSwapIns = 0;     ///  or baseline)
    std::uint64_t rejectedSwapOuts = 0;  ///< SFM region full
    std::uint64_t bytesCompressed = 0;
    std::uint64_t bytesDecompressed = 0;
    std::uint64_t cpuCycles = 0;      ///< compression cycles burned
    std::uint64_t compactions = 0;
    std::uint64_t sameFilledPages = 0;  ///< stored as fill markers

    double
    cpuFraction() const
    {
        const auto total = swapOuts + swapIns;
        return total
            ? static_cast<double>(cpuSwapOuts + cpuSwapIns) / total
            : 0.0;
    }
};

/**
 * Abstract SFM backend.
 */
class SfmBackend
{
  public:
    virtual ~SfmBackend() = default;

    /**
     * Compress a Local page into the SFM region.
     *
     * The multi-tenant service layer degrades over-quota tenants to
     * the CPU path by forbidding offload. Backends without an
     * offload engine ignore the flag.
     *
     * @param page virtual page to demote; must be Local.
     * @param allow_offload permit the NMA to perform the compression;
     *        when false the CPU path is used unconditionally.
     * @param done invoked when the operation (including any
     *             write-back) completes or fails.
     */
    virtual void swapOut(VirtPage page, bool allow_offload,
                         SwapCallback done) = 0;

    /**
     * Decompress a Far page back into its local frame.
     *
     * @param page virtual page to promote; must be Far.
     * @param allow_offload permit NMA offload (prefetch path); when
     *        false the CPU decompresses, as latency-sensitive
     *        demand faults require (paper Sec. 6).
     */
    virtual void swapIn(VirtPage page, bool allow_offload,
                        SwapCallback done) = 0;

    /** Current residence of a page. */
    virtual PageState pageState(VirtPage page) const = 0;

    /** Manually compact the SFM region (xfm_compact()). */
    virtual void compact() = 0;

    /** Pages currently held compressed. */
    virtual std::uint64_t farPageCount() const = 0;

    /** Compressed bytes currently stored. */
    virtual std::uint64_t storedCompressedBytes() const = 0;

    virtual const BackendStats &stats() const = 0;

    /**
     * The application touched @p page at @p now. Plain backends
     * ignore the signal; a TierManager feeds its access-frequency
     * watermarks from it. Controllers call this on every access, so
     * the default must stay a no-op (byte-identity of non-tiered
     * runs).
     */
    virtual void
    noteAccess(VirtPage page, Tick now)
    {
        (void)page;
        (void)now;
    }

    /**
     * Raw content of @p page's local frame. Tier transitions move
     * page data between backends through this pair; only backends
     * that own frame storage implement them (the default is fatal:
     * a TierManager must never sit on top of an adapter that cannot
     * source page bytes).
     */
    virtual Bytes
    readLocalPage(VirtPage page) const
    {
        fatal("backend cannot read local frame of page ", page);
    }

    /** Overwrite @p page's local frame with @p data (a full page). */
    virtual void
    writeLocalPage(VirtPage page, ByteSpan data)
    {
        (void)data;
        fatal("backend cannot write local frame of page ", page);
    }

    /**
     * Notification that the backend forcibly reclaimed a Far page
     * back to Local outside any swap operation — e.g. a
     * quarantine-cap eviction releasing the poisoned compressed
     * image and re-establishing the page from its local frames.
     * Args: the page and the compressed bytes released. A layered
     * view (TierManager) needs this to keep its tier map coherent;
     * backends that never reclaim silently ignore it.
     */
    using ReclaimHook = std::function<void(VirtPage, std::uint32_t)>;

    /** Install @p hook (default: discarded — nothing to report). */
    virtual void
    setReclaimHook(ReclaimHook hook)
    {
        (void)hook;
    }
};

} // namespace sfm
} // namespace xfm

#endif // XFM_SFM_BACKEND_HH
