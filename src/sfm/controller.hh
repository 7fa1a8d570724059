/**
 * @file
 * SFM_Controller: the far-memory control plane.
 *
 * Implements the cold-page identification policy the paper's cost
 * model assumes (k-stale scanning a la Google's kstaled: a page is
 * cold after @c coldThreshold without an access), demand swap-ins
 * on faults (CPU decompression by default, per Sec. 6), and a
 * sequential prefetcher that promotes upcoming pages with
 * do_offload asserted so the NMA can serve them from refresh
 * windows.
 */

#ifndef XFM_SFM_CONTROLLER_HH
#define XFM_SFM_CONTROLLER_HH

#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "obs/registry.hh"
#include "sfm/backend.hh"
#include "sim/sim_object.hh"

namespace xfm
{
namespace sfm
{

/**
 * Dense per-page flag set.
 *
 * The controller consults its in-flight and prefetched sets on
 * every application access; at 1000-tenant fleet scale the rb-tree
 * `std::set<VirtPage>` paid pointer-chasing and allocation on the
 * fault path. Page numbers are dense [0, num_pages), so a flat
 * bitmap gives O(1) test/set/clear with one cache line per 512
 * pages and no allocation after construction.
 */
class PageFlags
{
  public:
    explicit PageFlags(std::uint64_t pages)
        : bits_((pages + 63) / 64, 0)
    {}

    bool
    test(VirtPage p) const
    {
        return (bits_[p >> 6] >> (p & 63)) & 1;
    }

    void set(VirtPage p) { bits_[p >> 6] |= 1ull << (p & 63); }

    /** Clear the flag; returns whether it was set. */
    bool
    clear(VirtPage p)
    {
        const std::uint64_t mask = 1ull << (p & 63);
        const bool was = bits_[p >> 6] & mask;
        bits_[p >> 6] &= ~mask;
        return was;
    }

  private:
    std::vector<std::uint64_t> bits_;
};

/** Control-plane policy knobs. */
struct ControllerConfig
{
    /** Pages untouched this long are cold (Google: 120 s). */
    Tick coldThreshold = seconds(120.0);
    /** Cold-page scan period. */
    Tick scanInterval = seconds(1.0);
    /** Swap-out batch bound per scan. */
    std::size_t maxSwapOutsPerScan = 64;
    /** Pages promoted ahead of a fault (along the detected stride);
     *  prefetches may be offloaded to the NMA. */
    std::size_t prefetchDepth = 2;
    /**
     * Detect non-unit strides from the fault history instead of
     * always prefetching the next sequential pages (the paper's
     * closing point: XFM's benefit grows with the controller's
     * proficiency at predicting access patterns).
     */
    bool stridePrefetch = true;

    /** @p base with the controller.* keys applied (absent keys
     *  keep the base's value): controller.cold_ms (coldThreshold),
     *  controller.scan_ms (scanInterval), controller.prefetch_depth. */
    static ControllerConfig
    fromConfig(const Config &cfg,
               ControllerConfig base = defaults<ControllerConfig>());
};

/** Controller statistics. */
struct ControllerStats
{
    std::uint64_t scans = 0;
    std::uint64_t coldPagesFound = 0;
    std::uint64_t swapOutsInitiated = 0;
    std::uint64_t demandFaults = 0;
    std::uint64_t prefetchesInitiated = 0;
    std::uint64_t prefetchHits = 0;  ///< fault avoided by prefetch
    std::uint64_t strideDetections = 0;  ///< non-unit stride locked
    stats::Average faultServiceNs;   ///< demand swap-in latency
};

/**
 * Far-memory control plane over one backend.
 */
class SfmController : public SimObject
{
  public:
    SfmController(std::string name, EventQueue &eq,
                  const ControllerConfig &cfg, SfmBackend &backend,
                  std::uint64_t num_pages);

    /** Begin periodic cold-page scanning. */
    void start();

    /**
     * The application touched @p page.
     *
     * Local pages just refresh their access stamp. Far pages incur
     * a demand fault (CPU swap-in) and trigger sequential prefetch
     * of the following pages.
     *
     * @retval true the access hit local memory.
     * @retval false a demand fault was taken.
     */
    bool recordAccess(VirtPage page);

    /** Pages tracked by the controller. */
    std::uint64_t numPages() const { return num_pages_; }

    const ControllerStats &stats() const { return stats_; }

    /** Register control-plane metrics under `<name()>.*`. */
    void registerMetrics(obs::MetricRegistry &r);

  private:
    void scan();
    void prefetchAround(VirtPage page);

    ControllerConfig cfg_;
    SfmBackend &backend_;
    std::uint64_t num_pages_;
    bool started_ = false;

    std::vector<Tick> last_access_;
    PageFlags inflight_;
    PageFlags prefetched_;  ///< promoted but not yet touched
    /** Refused by the backend as incompressible since the last
     *  access: the cold scan skips them until they are touched. */
    PageFlags incompressible_;

    /** Fault-stream stride detector state. */
    VirtPage last_fault_ = ~VirtPage(0);
    std::int64_t last_stride_ = 0;
    std::int64_t confirmed_stride_ = 1;

    ControllerStats stats_;
};

} // namespace sfm
} // namespace xfm

#endif // XFM_SFM_CONTROLLER_HH
