/**
 * @file
 * Full-system composition: host memory controller + SFM stack.
 *
 * Mirrors the paper's Sec. 7 emulation methodology: an application
 * issues page accesses; the SFM controller demotes cold pages and
 * promotes faulting ones through either the zswap-style CPU backend
 * or the XFM backend; all CPU-visible DRAM traffic (application
 * accesses, CPU (de)compression, fallbacks) flows through a single
 * host MemCtrl so channel utilisation can be compared end to end.
 */

#ifndef XFM_SYSTEM_SYSTEM_HH
#define XFM_SYSTEM_SYSTEM_HH

#include <memory>
#include <optional>

#include "common/config.hh"
#include "common/stats.hh"
#include "dram/mem_ctrl.hh"
#include "obs/registry.hh"
#include "obs/tracer.hh"
#include "dram/phys_mem.hh"
#include "dram/refresh.hh"
#include "sfm/controller.hh"
#include "sfm/cpu_backend.hh"
#include "sfm/tier_manager.hh"
#include "workload/promotion_tracker.hh"
#include "sim/sim_object.hh"
#include "xfm/xfm_backend.hh"

namespace xfm
{
namespace system
{

/** Which SFM implementation the system runs. */
enum class BackendKind
{
    BaselineCpu,  ///< zswap-style, CPU does everything
    Xfm,          ///< near-memory offload with CPU fallback
};

/** Full-system configuration. */
struct SystemConfig
{
    BackendKind backend = BackendKind::Xfm;

    /** Host-visible memory system (channels the CPU contends on). */
    dram::MemSystemConfig hostMem = dram::defaultMemSystem();

    /** Virtual pages of the modelled application. */
    std::uint64_t pages = 1024;
    /** SFM region size (per DIMM for XFM; total for baseline). */
    std::uint64_t sfmBytes = mib(16);
    compress::Algorithm algorithm = compress::Algorithm::ZstdLike;

    /**
     * The XFM memory system (used when backend == Xfm): DIMMs,
     * per-DIMM device, fault plan, retry policy, health tuning,
     * quarantine cap, dictionaries and worker count. Its
     * localPages, sfmBase, sfmBytes and algorithm are provisioned
     * from this struct's pages, sfmBytes and algorithm. Its fault
     * plan and retry policy also drive the tier's spill link, for
     * either backend.
     */
    xfmsys::XfmSystemConfig xfm{};

    sfm::ControllerConfig controller{};

    /** Bytes of host DRAM traffic per application page access. */
    std::uint32_t accessBytes = 64;

    /**
     * Three-tier hierarchy (NEAR/XFM/DFM). Disabled by default:
     * `tier.enabled = 0` builds the exact two-state stack and is
     * byte-identical to pre-tiering output.
     */
    sfm::TierConfig tier{};

    /** @p base with the system keys applied to the fields above
     *  (absent keys keep the base's value): backend (xfm |
     *  baseline), pages, sfm.bytes; plus the fromConfig keys of
     *  xfm, controller and tier. */
    static SystemConfig
    fromConfig(const Config &cfg,
               SystemConfig base = defaults<SystemConfig>());
};

/**
 * One simulated machine running an SFM deployment.
 */
class System : public SimObject
{
  public:
    System(std::string name, EventQueue &eq, const SystemConfig &cfg);

    /** Begin refresh + control-plane activity. */
    void start();

    /** Store application data into a page. */
    void writePage(sfm::VirtPage page, ByteSpan data);
    /** Fetch application data from a page (must be Local). */
    Bytes readPage(sfm::VirtPage page) const;

    /**
     * The application touches @p page: the access stamps the
     * controller, faults if the page is Far, and issues
     * `accessBytes` of host DRAM traffic.
     *
     * @retval true local hit.
     */
    bool access(sfm::VirtPage page);

    sfm::SfmBackend &backend() { return *backend_; }
    sfm::SfmController &controller() { return *controller_; }
    dram::MemCtrl &memCtrl() { return *host_ctrl_; }
    const SystemConfig &config() const { return cfg_; }

    /** Tier hierarchy governor; null when `tier.enabled = 0`. */
    sfm::TierManager *tierManager() { return tier_mgr_.get(); }
    const sfm::TierManager *tierManager() const
    {
        return tier_mgr_.get();
    }

    /** Total injected faults across every armed injector (XFM
     *  device sites plus the DFM spill link when tiering is on). */
    std::uint64_t faultInjections() const;

    /** Host-channel bytes moved by SFM work (not the app). */
    std::uint64_t sfmHostBytes() const;

    /** Observed promotion rate (fraction of far capacity/minute). */
    double promotionRate();

    /**
     * The system-wide metric registry: headline gauges under
     * `<name()>.*` plus every layer's metrics (host controller,
     * backend, per-DIMM devices/drivers, fault sites, control
     * plane), all registered by the constructor.
     */
    obs::MetricRegistry &metrics() { return metrics_; }
    const obs::MetricRegistry &metrics() const { return metrics_; }

    /** Attach a span tracer to the swap path (null detaches). */
    void setTracer(obs::Tracer *t);

  private:
    void registerMetrics();

    SystemConfig cfg_;
    std::unique_ptr<dram::PhysMem> host_phys_;
    std::unique_ptr<dram::RefreshController> host_refresh_;
    std::unique_ptr<dram::MemCtrl> host_ctrl_;

    std::unique_ptr<sfm::CpuSfmBackend> cpu_backend_;
    std::unique_ptr<xfmsys::XfmBackend> xfm_backend_;
    /** Wraps the concrete backend when `tier.enabled = 1`. */
    std::unique_ptr<sfm::TierManager> tier_mgr_;
    sfm::SfmBackend *backend_ = nullptr;
    std::unique_ptr<sfm::SfmController> controller_;

    /** App traffic accounting, to subtract from channel totals. */
    std::uint64_t app_bytes_ = 0;
    /** Swap-in (promotion) meter, Sec. 2.1's metric. */
    std::unique_ptr<workload::PromotionTracker> promotions_;
    std::uint64_t last_swap_ins_ = 0;
    obs::MetricRegistry metrics_;
};

} // namespace system
} // namespace xfm

#endif // XFM_SYSTEM_SYSTEM_HH
