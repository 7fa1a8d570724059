#include "system.hh"

#include "common/config.hh"
#include "common/logging.hh"

namespace xfm
{
namespace system
{
namespace
{

/** Bytes of host DRAM traffic per application page access. */
constexpr std::uint32_t appAccessBytes = 64;

} // namespace

SystemConfig
SystemConfig::fromConfig(const Config &cfg, SystemConfig base)
{
    SystemConfig c = std::move(base);
    if (cfg.has("backend")) {
        const std::string backend = cfg.getString("backend");
        if (backend == "xfm")
            c.backend = BackendKind::Xfm;
        else if (backend == "baseline")
            c.backend = BackendKind::BaselineCpu;
        else
            fatal("backend must be 'xfm' or 'baseline', got '",
                  backend, "'");
    }
    c.pages = cfg.getU64("pages", c.pages);
    c.sfmBytes = cfg.getU64("sfm.bytes", c.sfmBytes);
    c.xfm = xfmsys::XfmSystemConfig::fromConfig(cfg, c.xfm);
    c.controller = sfm::ControllerConfig::fromConfig(cfg, c.controller);
    c.tier = sfm::TierConfig::fromConfig(cfg, c.tier);
    return c;
}

System::System(std::string name, EventQueue &eq,
               const SystemConfig &cfg)
    : SimObject(std::move(name), eq), cfg_(cfg)
{
    XFM_ASSERT(cfg_.pages > 0, "system needs at least one page");

    // The host channels the CPU contends on.
    const dram::MemSystemConfig host_mem = dram::defaultMemSystem();
    host_phys_ = std::make_unique<dram::PhysMem>(
        host_mem.totalCapacityBytes());
    host_refresh_ = std::make_unique<dram::RefreshController>(
        this->name() + ".hostRefresh", eq, host_mem.rank.device,
        host_mem.dimmsPerChannel * host_mem.ranksPerDimm);
    host_ctrl_ = std::make_unique<dram::MemCtrl>(
        this->name() + ".hostCtrl", eq, host_mem,
        host_refresh_.get());

    if (cfg_.backend == BackendKind::BaselineCpu) {
        sfm::CpuBackendConfig bcfg;
        bcfg.localBase = 0;
        bcfg.localPages = cfg_.pages;
        bcfg.sfmBase = cfg_.pages * pageBytes;
        bcfg.sfmBytes = cfg_.sfmBytes;
        bcfg.algorithm = cfg_.algorithm;
        cpu_backend_ = std::make_unique<sfm::CpuSfmBackend>(
            this->name() + ".backend", eq, bcfg, *host_phys_,
            host_ctrl_.get());
        backend_ = cpu_backend_.get();
    } else {
        xfmsys::XfmSystemConfig xcfg = cfg_.xfm;
        xcfg.localPages = cfg_.pages;
        xcfg.sfmBase = gib(1);
        xcfg.sfmBytes = cfg_.sfmBytes;
        xcfg.algorithm = cfg_.algorithm;
        xfm_backend_ = std::make_unique<xfmsys::XfmBackend>(
            this->name() + ".backend", eq, xcfg, host_ctrl_.get());
        backend_ = xfm_backend_.get();
    }

    if (cfg_.tier.enabled) {
        // Interpose the tier governor between the control plane and
        // the concrete backend: the controller keeps seeing one
        // SfmBackend, but demotions now route NEAR -> XFM or
        // NEAR -> DFM and the spill scan drains cold XFM pages.
        tier_mgr_ = std::make_unique<sfm::TierManager>(
            this->name() + ".tiers", eq, cfg_.tier, *backend_,
            cfg_.pages, cfg_.xfm.faults);
        backend_ = tier_mgr_.get();
    }

    controller_ = std::make_unique<sfm::SfmController>(
        this->name() + ".controller", eq, cfg_.controller, *backend_,
        cfg_.pages);
    // Normalise the promotion rate against the provisioned SFM
    // capacity scaled by a typical 3x compression ratio (capacity
    // in *uncompressed* page terms, as the paper's metric uses).
    const std::uint64_t far_capacity = 3
        * (cfg_.backend == BackendKind::Xfm
               ? cfg_.sfmBytes * cfg_.xfm.numDimms
               : cfg_.sfmBytes);
    promotions_ = std::make_unique<workload::PromotionTracker>(
        far_capacity);
    registerMetrics();
}

double
System::promotionRate()
{
    // Swap-ins since the last sample, attributed to "now": fine at
    // the minute-granularity the metric is defined over.
    const std::uint64_t swap_ins = backend_->stats().swapIns;
    if (swap_ins > last_swap_ins_) {
        promotions_->recordPromotion(
            curTick(), (swap_ins - last_swap_ins_) * pageBytes);
        last_swap_ins_ = swap_ins;
    }
    return promotions_->rate(curTick());
}

void
System::start()
{
    host_refresh_->start();
    if (xfm_backend_)
        xfm_backend_->start();
    if (tier_mgr_)
        tier_mgr_->start();
    controller_->start();
}

std::uint64_t
System::faultInjections() const
{
    std::uint64_t total = 0;
    if (xfm_backend_)
        total += xfm_backend_->faultInjector().totalInjections();
    if (tier_mgr_)
        total += tier_mgr_->spill().faultInjector().totalInjections();
    return total;
}

void
System::writePage(sfm::VirtPage page, ByteSpan data)
{
    if (xfm_backend_) {
        xfm_backend_->writePage(page, data);
    } else {
        XFM_ASSERT(data.size() == pageBytes, "need a full page");
        host_phys_->write(cpu_backend_->frameAddr(page), data);
    }
}

Bytes
System::readPage(sfm::VirtPage page) const
{
    if (xfm_backend_)
        return xfm_backend_->readPage(page);
    return host_phys_->read(cpu_backend_->frameAddr(page), pageBytes);
}

bool
System::access(sfm::VirtPage page)
{
    // Application DRAM traffic through the host channels.
    const std::uint64_t addr =
        (page * pageBytes) % host_phys_->capacityBytes();
    host_ctrl_->submit({addr, appAccessBytes, false, nullptr});
    app_bytes_ += appAccessBytes;
    return controller_->recordAccess(page);
}

std::uint64_t
System::sfmHostBytes() const
{
    const auto &ms = host_ctrl_->stats();
    const std::uint64_t total = ms.bytesRead + ms.bytesWritten;
    return total >= app_bytes_ ? total - app_bytes_ : 0;
}

void
System::registerMetrics()
{
    const std::string p = name() + ".";
    // Headline gauges of the whole stack; the layers below register
    // their own counters under their SimObject names.
    metrics_.derived(p + "pagesFar",
                     [this] {
                         return static_cast<double>(
                             backend_->farPageCount());
                     });
    metrics_.derived(p + "storedCompressedBytes",
                     [this] {
                         return static_cast<double>(
                             backend_->storedCompressedBytes());
                     });
    metrics_.derived(p + "cpuSwapFraction",
                     [this] {
                         return backend_->stats().cpuFraction();
                     },
                     "share of swaps the CPU served");
    metrics_.derived(p + "hostBytesApp",
                     [this] {
                         return static_cast<double>(app_bytes_);
                     },
                     "channel traffic from the application");
    metrics_.derived(p + "hostBytesSfm",
                     [this] {
                         return static_cast<double>(sfmHostBytes());
                     },
                     "channel traffic caused by SFM operations");
    metrics_.derived(p + "promotionRate",
                     [this] { return promotionRate(); },
                     "fraction of far capacity promoted per minute");
    host_ctrl_->registerMetrics(metrics_);
    controller_->registerMetrics(metrics_);
    if (cpu_backend_)
        cpu_backend_->registerMetrics(metrics_);
    if (xfm_backend_)
        xfm_backend_->registerMetrics(metrics_);
    if (tier_mgr_)
        tier_mgr_->registerMetrics(metrics_);
}

void
System::setTracer(obs::Tracer *t)
{
    if (cpu_backend_)
        cpu_backend_->setTracer(t);
    if (xfm_backend_)
        xfm_backend_->setTracer(t);
    if (tier_mgr_)
        tier_mgr_->setTracer(t);
}

} // namespace system
} // namespace xfm
