/**
 * @file
 * FarMemoryService: the multi-tenant far-memory service layer.
 *
 * One service instance owns the shared XFM memory system (backend +
 * NMA-equipped DIMMs) and serves N concurrent tenants, mirroring the
 * datacenter deployments the paper targets (Sec. 2.1): every job on
 * a host shares the machine's compressed pool and accelerator, but
 * runs its own reclaim policy and gets its own QoS guarantees.
 *
 * Wiring per tenant:
 *
 *   controller (kstaled | senpai)
 *        |            selects cold pages / reacts to pressure
 *   TenantBackend
 *        |            quota checks, shard translation, stats
 *   QosArbiter       (offload-eligible ops only)
 *        |            class-aware weighted dispatch per tREFI
 *   xfmsys::XfmBackend  ->  NMA DIMMs (SPM partitioned by class)
 *
 * Batch work meets overload in three places: the per-tenant SPM
 * quota (TenantBackend), latency preemption in the arbiter, and the
 * batch SPM partition cap in the devices.
 */

#ifndef XFM_SERVICE_SERVICE_HH
#define XFM_SERVICE_SERVICE_HH

#include <memory>
#include <vector>

#include "common/config.hh"
#include "obs/registry.hh"
#include "obs/tracer.hh"
#include "service/qos_arbiter.hh"
#include "service/tenant_backend.hh"
#include "service/tenant_registry.hh"
#include "sfm/controller.hh"
#include "sfm/senpai.hh"

namespace xfm
{
namespace service
{

/** SPM partition tags per priority class. */
constexpr std::uint32_t latencySpmPartition = 0;  ///< uncapped
constexpr std::uint32_t batchSpmPartition = 1;    ///< capped

/** Configuration of the whole service. */
struct ServiceConfig
{
    RegistryConfig registry;
    QosArbiterConfig arbiter;
    /**
     * The shared XFM memory system. localPages may be left 0; the
     * service then provisions maxTenants * pagesPerShard pages.
     */
    xfmsys::XfmSystemConfig system;
    /**
     * Total SPM bytes (across DIMMs) the batch class may occupy;
     * a batch read beyond this waits in the device until the
     * partition drains (or its deadline drops it to the CPU). The
     * per-DIMM share must hold one shard's worst-case reservation
     * (fatal otherwise); 0 leaves the batch partition uncapped.
     */
    std::uint64_t batchSpmCapBytes = 0;

    /**
     * Three-tier hierarchy over the shared backend. When enabled,
     * every tenant's shard becomes a TierManager page group carrying
     * that tenant's TenantConfig::tierPolicy, and tenant accounting
     * (stored bytes, far pages, dfm counters) tracks scan-driven
     * XFM -> DFM spills through the transition hook. The spill
     * link runs system's fault plan and retry policy.
     */
    sfm::TierConfig tier{};

    /** @p base with the fromConfig keys of arbiter, system and
     *  tier applied (absent keys keep the base's value); the
     *  registry and batchSpmCapBytes have no keys. */
    static ServiceConfig
    fromConfig(const Config &cfg,
               ServiceConfig base = defaults<ServiceConfig>());
};

/**
 * Multi-tenant far-memory service over one shared XFM backend.
 */
class FarMemoryService : public SimObject
{
  public:
    FarMemoryService(std::string name, EventQueue &eq,
                     const ServiceConfig &cfg);

    /**
     * Admit a tenant and wire its controller.
     *
     * @return tenant id, or invalidTenant if admission control
     *         rejected it.
     */
    TenantId addTenant(const TenantConfig &cfg);

    /** Start refresh, the arbiter, and every tenant controller. */
    void start();

    /**
     * Tenant @p id touched shard-local @p page.
     *
     * @retval true local hit; false -> demand fault taken.
     */
    bool access(TenantId id, sfm::VirtPage page);

    /** Data plane, shard-local page numbers. */
    void writePage(TenantId id, sfm::VirtPage page, ByteSpan data);
    Bytes readPage(TenantId id, sfm::VirtPage page) const;

    TenantRegistry &registry() { return registry_; }
    const TenantRegistry &registry() const { return registry_; }
    QosArbiter &arbiter() { return arbiter_; }
    xfmsys::XfmBackend &backend() { return backend_; }
    TenantBackend &tenantBackend(TenantId id);

    /** Tier hierarchy governor; null when `tier.enabled = 0`. */
    sfm::TierManager *tierManager() { return tiers_.get(); }
    const sfm::TierManager *tierManager() const
    {
        return tiers_.get();
    }

    std::size_t numTenants() const { return tenants_.size(); }
    const ServiceConfig &config() const { return cfg_; }

    /** The shared backend's fault injector (configured via
     *  cfg.system.faults; disarmed by default). */
    const fault::FaultInjector &faultInjector() const
    {
        return backend_.faultInjector();
    }

    /**
     * The service-wide metric registry. The constructor registers
     * backend, fault-site, arbiter, and per-DIMM metrics; every
     * addTenant() adds that tenant's counters, latency histogram,
     * and arbiter lane under `<name()>.tenantN.*`.
     */
    obs::MetricRegistry &metrics() { return metrics_; }
    const obs::MetricRegistry &metrics() const { return metrics_; }

    /** Attach a span tracer to the shared backend, the arbiter, and
     *  the tier governor (null detaches). */
    void
    setTracer(obs::Tracer *t)
    {
        backend_.setTracer(t);
        arbiter_.setTracer(t);
        if (tiers_)
            tiers_->setTracer(t);
    }

  private:
    /** Register one admitted tenant's metrics (from addTenant). */
    void registerTenantMetrics(TenantId id);

    /** Reconcile tenant accounting after a tier transition. */
    void onTierTransition(sfm::VirtPage page, sfm::Tier from,
                          sfm::Tier to, std::uint32_t freed,
                          bool internal);

    struct Tenant
    {
        std::unique_ptr<TenantBackend> backend;
        std::unique_ptr<sfm::SfmController> kstaled;
        std::unique_ptr<sfm::SenpaiController> senpai;
        /** Per-tenant promotions/min meter (paper Sec. 2.1). */
        std::unique_ptr<workload::PromotionTracker> promotions;
    };

    ServiceConfig cfg_;
    TenantRegistry registry_;
    xfmsys::XfmBackend backend_;
    /** Tier governor over the shared backend (tiering on only). */
    std::unique_ptr<sfm::TierManager> tiers_;
    QosArbiter arbiter_;
    std::vector<Tenant> tenants_;
    obs::MetricRegistry metrics_;
};

} // namespace service
} // namespace xfm

#endif // XFM_SERVICE_SERVICE_HH
