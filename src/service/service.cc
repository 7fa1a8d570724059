#include "service.hh"

#include "common/logging.hh"

namespace xfm
{
namespace service
{

namespace
{

/** Fill in derived provisioning before the backend is built. */
ServiceConfig
provisioned(ServiceConfig cfg)
{
    if (cfg.system.localPages == 0)
        cfg.system.localPages = cfg.registry.maxTenants
                                * cfg.registry.pagesPerShard;
    return cfg;
}

} // namespace

ServiceConfig
ServiceConfig::fromConfig(const Config &cfg, ServiceConfig base)
{
    ServiceConfig c = std::move(base);
    c.arbiter = QosArbiterConfig::fromConfig(cfg, c.arbiter);
    c.system = xfmsys::XfmSystemConfig::fromConfig(cfg, c.system);
    c.tier = sfm::TierConfig::fromConfig(cfg, c.tier);
    return c;
}

FarMemoryService::FarMemoryService(std::string name, EventQueue &eq,
                                   const ServiceConfig &cfg)
    : SimObject(std::move(name), eq), cfg_(provisioned(cfg)),
      registry_(cfg_.registry),
      backend_(this->name() + ".backend", eq, cfg_.system),
      arbiter_(this->name() + ".arbiter", eq, cfg_.arbiter)
{
    if (cfg_.batchSpmCapBytes > 0) {
        // The cap is fleet-wide; each DIMM stages an equal shard of
        // every offloaded page, so split it evenly.
        const std::size_t per_dimm =
            cfg_.batchSpmCapBytes / cfg_.system.numDimms;
        // A cap below one shard's worst-case staging could never
        // admit a batch offload.
        const std::uint32_t shard = nma::CompressionEngine::
            worstCaseCompressedSize(pageBytes / cfg_.system.numDimms);
        if (per_dimm < shard)
            fatal("batch SPM cap of ", cfg_.batchSpmCapBytes, " B is ",
                  per_dimm, " B per DIMM, below one shard's worst-case ",
                  shard, " B reservation");
        for (std::size_t d = 0; d < cfg_.system.numDimms; ++d)
            backend_.driver(d).device().setSpmPartitionCap(
                batchSpmPartition, per_dimm);
    }
    if (cfg_.tier.enabled) {
        tiers_ = std::make_unique<sfm::TierManager>(
            this->name() + ".tiers", eq, cfg_.tier, backend_,
            cfg_.system.localPages, cfg_.system.faults,
            cfg_.system.retry);
        tiers_->setTransitionHook(
            [this](sfm::VirtPage page, sfm::Tier from, sfm::Tier to,
                   std::uint32_t freed, bool internal) {
                onTierTransition(page, from, to, freed, internal);
            });
        tiers_->registerMetrics(metrics_);
    }
    // Lane stats addresses must survive later addTenant calls; the
    // registry already reserves its own entries.
    arbiter_.reserveLanes(cfg_.registry.maxTenants);
    // Every RFM the refresh controller issues destroys NMA service
    // capacity; feed the loss into the arbiter with the dominant
    // activation source so the defense layer can attribute it.
    backend_.refresh().addRfmListener(
        [this](std::uint32_t, std::uint32_t, std::uint32_t source,
               std::uint32_t stolen) {
            const TenantId culprit =
                source == dram::RefreshController::hostSource
                    ? invalidTenant
                    : static_cast<TenantId>(source);
            arbiter_.noteRfmSteal(stolen, culprit);
        });
    backend_.registerMetrics(metrics_);
    arbiter_.registerMetrics(metrics_);
    metrics_.derived(this->name() + ".rejectedAdmissions",
                     [this] {
                         return static_cast<double>(
                             registry_.rejectedAdmissions());
                     },
                     "tenants turned away");
}

TenantId
FarMemoryService::addTenant(const TenantConfig &cfg)
{
    const TenantId id = registry_.add(cfg);
    if (id == invalidTenant)
        return id;

    const std::uint32_t partition =
        cfg.cls == PriorityClass::Batch ? batchSpmPartition
                                        : latencySpmPartition;
    Tenant t;
    t.backend = std::make_unique<TenantBackend>(
        id, registry_, backend_, &arbiter_, partition);
    t.promotions = std::make_unique<workload::PromotionTracker>(
        cfg.pages * pageBytes);
    t.backend->setPromotionTracker(t.promotions.get());
    if (tiers_) {
        // The tenant's shard becomes its page group: demotion
        // routing follows the tenant's own policy, isolated from
        // its neighbours'.
        t.backend->setRoute(tiers_.get());
        tiers_->assignGroup(registry_.basePage(id), cfg.pages, id);
        tiers_->setGroupPolicy(id, cfg.tierPolicy);
    }
    const std::string base = name() + "." + cfg.name;
    if (cfg.policy == ControlPolicy::Kstaled) {
        t.kstaled = std::make_unique<sfm::SfmController>(
            base + ".kstaled", eventq(), cfg.kstaled, *t.backend,
            cfg.pages);
    } else {
        t.senpai = std::make_unique<sfm::SenpaiController>(
            base + ".senpai", eventq(), cfg.senpai, *t.backend,
            cfg.pages);
    }
    arbiter_.addTenant(id, cfg.cls, cfg.weight,
                       cfg.quota.offloadSlotsPerTrefi);
    if (t.kstaled)
        t.kstaled->registerMetrics(metrics_);
    if (t.senpai)
        t.senpai->registerMetrics(metrics_);
    registerTenantMetrics(id);
    tenants_.push_back(std::move(t));
    return id;
}

void
FarMemoryService::registerTenantMetrics(TenantId id)
{
    const TenantConfig &cfg = registry_.config(id);
    // Ids (not names) key the namespace: tenant names need not be
    // unique, metric names must be.
    const std::string p =
        name() + ".tenant" + std::to_string(id) + ".";
    const std::string who = std::string(priorityClassName(cfg.cls))
        + "/" + cfg.name;
    TenantStats &ts = registry_.stats(id);
    metrics_.counter(p + "accesses", &ts.accesses,
                     who + ": application page touches");
    metrics_.counter(p + "localHits", &ts.localHits,
                     "served from local memory");
    metrics_.counter(p + "demandFaults", &ts.demandFaults,
                     "blocked on swap-in");
    metrics_.counter(p + "swapOuts", &ts.swapOuts, "pages demoted");
    metrics_.counter(p + "swapIns", &ts.swapIns, "pages promoted");
    metrics_.counter(p + "nmaOps", &ts.nmaOps,
                     "swap ops served by the NMA");
    metrics_.counter(p + "cpuOps", &ts.cpuOps,
                     "swap ops on the CPU path");
    metrics_.counter(p + "quotaRejects", &ts.quotaRejects,
                     "far-page quota hits");
    metrics_.counter(p + "degradedToCpu", &ts.degradedToCpu,
                     "SPM quota degrades");
    metrics_.counter(p + "nmaFallbacks", &ts.nmaFallbacks,
                     "offload-eligible ops that fell back");
    metrics_.counter(p + "offloadRetries", &ts.offloadRetries,
                     "driver re-submissions consumed");
    metrics_.counter(p + "faultedOps", &ts.faultedOps,
                     "swap ops that failed");
    if (cfg_.arbiter.abuseEnabled) {
        metrics_.counter(p + "abuseRejects", &ts.abuseRejects,
                         "swap-outs refused while throttled");
        metrics_.counter(p + "abuseDownTiers", &ts.abuseDownTiers,
                         "swap-ins down-tiered while throttled");
    }
    metrics_.derived(p + "nmaFraction",
                     [&ts] { return ts.nmaFraction(); },
                     "NMA share of swap ops");
    metrics_.derived(p + "farPages",
                     [this, id] {
                         return static_cast<double>(
                             registry_.farPages(id));
                     },
                     "pages held far");
    metrics_.derived(p + "storedBytes",
                     [this, id] {
                         return static_cast<double>(
                             registry_.storedBytes(id));
                     },
                     "compressed bytes stored");
    metrics_.counter(p + "dfmOps", &ts.dfmOps,
                     "swap ops served by the DFM spill tier");
    metrics_.counter(p + "dfmSpills", &ts.dfmSpills,
                     "page transitions into the spill tier");
    metrics_.counter(p + "dfmReturns", &ts.dfmReturns,
                     "page transitions out of the spill tier");
    metrics_.derived(p + "dfmPages",
                     [&ts] {
                         return static_cast<double>(ts.dfmSpills
                                                    - ts.dfmReturns);
                     },
                     "pages currently in the spill tier");
    metrics_.derived(p + "promotionRate",
                     [this, id] {
                         return tenants_[id].promotions->rate(
                             curTick());
                     },
                     "fraction of shard capacity promoted per min");
    metrics_.histogram(p + "faultLatencyNs", &ts.faultLatencyNs,
                       "demand swap-in service latency");
    arbiter_.registerLaneMetrics(metrics_,
                                 id, name() + ".tenant"
                                 + std::to_string(id));
}

void
FarMemoryService::onTierTransition(sfm::VirtPage page,
                                   sfm::Tier from, sfm::Tier to,
                                   std::uint32_t freed, bool internal)
{
    const TenantId id = static_cast<TenantId>(
        page / cfg_.registry.pagesPerShard);
    if (id >= registry_.size())
        return;  // page outside any admitted tenant's shard
    TenantStats &ts = registry_.stats(id);
    if (to == sfm::Tier::Dfm)
        ++ts.dfmSpills;
    if (from == sfm::Tier::Dfm)
        ++ts.dfmReturns;
    // Application-driven legs are already accounted in the
    // TenantBackend callbacks; only internal scan transitions need
    // reconciling here. An XFM -> DFM spill passes through NEAR:
    // the first hop releases the compressed bytes (and, if the link
    // leg then fails, legitimately returns the page to NEAR, hence
    // the far-page decrement); the second hop re-counts it far.
    if (!internal)
        return;
    if (from == sfm::Tier::Xfm) {
        registry_.noteStoredBytes(
            id, -static_cast<std::int64_t>(freed));
        if (to == sfm::Tier::Near)
            registry_.noteFarPages(id, -1);
    }
    if (from == sfm::Tier::Near && to == sfm::Tier::Dfm)
        registry_.noteFarPages(id, 1);
}

void
FarMemoryService::start()
{
    backend_.start();
    if (tiers_)
        tiers_->start();
    arbiter_.start();
    for (auto &t : tenants_) {
        if (t.kstaled)
            t.kstaled->start();
        if (t.senpai)
            t.senpai->start();
    }
}

bool
FarMemoryService::access(TenantId id, sfm::VirtPage page)
{
    XFM_ASSERT(id < tenants_.size(), "unknown tenant id ", id);
    TenantStats &ts = registry_.stats(id);
    ++ts.accesses;
    Tenant &t = tenants_[id];
    const bool hit = t.kstaled ? t.kstaled->recordAccess(page)
                               : t.senpai->recordAccess(page);
    if (hit)
        ++ts.localHits;
    else
        ++ts.demandFaults;
    return hit;
}

void
FarMemoryService::writePage(TenantId id, sfm::VirtPage page,
                            ByteSpan data)
{
    tenantBackend(id).writePage(page, data);
}

Bytes
FarMemoryService::readPage(TenantId id, sfm::VirtPage page) const
{
    XFM_ASSERT(id < tenants_.size(), "unknown tenant id ", id);
    return tenants_[id].backend->readPage(page);
}

TenantBackend &
FarMemoryService::tenantBackend(TenantId id)
{
    XFM_ASSERT(id < tenants_.size(), "unknown tenant id ", id);
    return *tenants_[id].backend;
}

} // namespace service
} // namespace xfm
