#include "fleet.hh"

#include <cmath>

#include "common/logging.hh"
#include "workload/spec_model.hh"

namespace xfm
{
namespace workload
{

namespace
{

/** Corpus classes cycled over tenants (diverse ratios, Fig. 8). */
constexpr compress::CorpusKind fleetCorpora[] = {
    compress::CorpusKind::KeyValue,
    compress::CorpusKind::Json,
    compress::CorpusKind::HeapObjects,
    compress::CorpusKind::LogLines,
    compress::CorpusKind::EnglishText,
    compress::CorpusKind::SourceCode,
    compress::CorpusKind::NumericColumns,
    compress::CorpusKind::Html,
};

} // namespace

std::vector<FleetTenantSpec>
heterogeneousFleet(const FleetConfig &cfg)
{
    const auto profiles = specMemoryIntensiveMix();
    std::vector<FleetTenantSpec> fleet;
    fleet.reserve(cfg.numTenants);

    // kstaled periods re-scaled from the datacenter's seconds to
    // the simulator's milliseconds so a short run exercises the full
    // reclaim/fault cycle (senpai.cc scales senpai's the same way).
    sfm::ControllerConfig kstaled;
    kstaled.coldThreshold = milliseconds(2.0);
    kstaled.scanInterval = milliseconds(1.0);
    kstaled.maxSwapOutsPerScan = 16;

    for (std::size_t i = 0; i < cfg.numTenants; ++i) {
        const AppProfile &prof = profiles[i % profiles.size()];
        FleetTenantSpec spec;
        spec.cfg.name = prof.name + "_" + std::to_string(i);
        spec.cfg.pages = cfg.pagesPerTenant;
        spec.cfg.kstaled = kstaled;
        spec.corpus = fleetCorpora[i % std::size(fleetCorpora)];
        spec.seed = cfg.seed + i;

        if (i % 4 == 0) {
            // Serving job: hot head, strict latency class.
            spec.cfg.cls = service::PriorityClass::LatencySensitive;
            spec.cfg.policy = service::ControlPolicy::Kstaled;
            spec.cfg.weight = 1;
            spec.zipfTheta = 0.99;
        } else {
            spec.cfg.cls = service::PriorityClass::Batch;
            spec.cfg.policy = i % 2 ? service::ControlPolicy::Senpai
                                    : service::ControlPolicy::Kstaled;
            spec.cfg.weight = 1 + static_cast<std::uint32_t>(i % 3);
            spec.zipfTheta = prof.reuseTheta;
        }
        fleet.push_back(std::move(spec));
    }
    return fleet;
}

FleetDriver::FleetDriver(std::string name, EventQueue &eq,
                         service::FarMemoryService &svc,
                         const FleetConfig &cfg)
    : SimObject(std::move(name), eq), svc_(svc), cfg_(cfg)
{
    XFM_ASSERT(cfg_.accessesPerSecond > 0.0,
               "fleet access rate must be positive");
    for (auto &spec : heterogeneousFleet(cfg_)) {
        const service::TenantId id = svc_.addTenant(spec.cfg);
        if (id == service::invalidTenant) {
            warn("fleet tenant '", spec.cfg.name,
                 "' was not admitted; skipping");
            continue;
        }
        // Give every page real content so compression ratios (and
        // therefore SFM capacity behaviour) differ per tenant.
        const Bytes corpus = compress::generateCorpus(
            spec.corpus, spec.seed, spec.cfg.pages * pageBytes);
        const auto pages = compress::paginate(corpus, pageBytes);
        for (std::size_t p = 0; p < pages.size(); ++p)
            svc_.writePage(id, p, pages[p]);

        Stream s{id, spec, spec.cfg.pages,
                 static_cast<Tick>(seconds(1.0)
                                   / cfg_.accessesPerSecond),
                 Rng(spec.seed * 0x9E3779B9ull + 1)};
        streams_.push_back(std::move(s));
    }
}

service::TenantId
FleetDriver::tenantId(std::size_t i) const
{
    XFM_ASSERT(i < streams_.size(), "no fleet stream ", i);
    return streams_[i].id;
}

const FleetTenantSpec &
FleetDriver::spec(std::size_t i) const
{
    XFM_ASSERT(i < streams_.size(), "no fleet stream ", i);
    return streams_[i].spec;
}

Tick
FleetDriver::nextGap(Stream &s)
{
    // Exponential inter-arrival around the tenant's mean rate.
    const double u = s.rng.uniformReal();
    const double gap = -std::log(1.0 - u)
                       * static_cast<double>(s.meanGap);
    return std::max<Tick>(1, static_cast<Tick>(gap));
}

void
FleetDriver::start()
{
    for (std::size_t i = 0; i < streams_.size(); ++i)
        eventq().scheduleIn(nextGap(streams_[i]),
                            [this, i] { tick(i); });
}

void
FleetDriver::tick(std::size_t i)
{
    Stream &s = streams_[i];
    const sfm::VirtPage page = s.rng.zipf(s.pages, s.spec.zipfTheta);
    svc_.access(s.id, page);
    ++accesses_;
    eventq().scheduleIn(nextGap(s), [this, i] { tick(i); });
}

} // namespace workload
} // namespace xfm
