#include "fault.hh"

#include <bit>

#include "common/logging.hh"

namespace xfm
{
namespace fault
{

namespace
{

constexpr std::array<const char *, faultSiteCount> siteNames = {
    "ecc_correctable", "ecc_uncorrectable", "spm_reserve",
    "spm_watermark",   "engine_stall",      "mmio_doorbell",
    "dfm_delay",       "dfm_drop",
};

/** Backoff after the first failed attempt of a transient fault. */
constexpr Tick backoffStart = nanoseconds(200.0);
/** Ceiling the doubling backoff saturates at. */
constexpr Tick backoffCeiling = microseconds(50.0);

} // namespace

bool
FaultPlan::anyArmed() const
{
    for (const auto &t : sites)
        if (t.armed())
            return true;
    return false;
}

FaultPlan
FaultPlan::fromConfig(const Config &cfg, FaultPlan base)
{
    FaultPlan plan = base;
    plan.seed = cfg.getU64("fault.seed", plan.seed);

    for (std::size_t s = 0; s < faultSiteCount; ++s) {
        const std::string base =
            std::string("fault.") + siteNames[s] + ".";
        SiteTrigger &t = plan.sites[s];
        t.probability = cfg.getDouble(base + "p", t.probability);
        t.oneShotAt = cfg.getU64(base + "one_shot", t.oneShotAt);
        t.maxTriggers = cfg.getU64(base + "max", t.maxTriggers);
        if (t.probability < 0.0 || t.probability > 1.0)
            fatal(base, "p must be a probability in [0, 1]");
    }

    // Typos in fault.* keys would silently disarm a scenario the
    // test author believes is active; reject them.
    cfg.requireAllConsumed("fault.");
    return plan;
}

Tick
retryBackoff(std::uint32_t attempt)
{
    const auto headroom =
        static_cast<std::uint32_t>(std::countl_zero(backoffStart));
    if (attempt >= headroom)
        return backoffCeiling;
    const Tick raw = backoffStart << attempt;
    return raw < backoffCeiling ? raw : backoffCeiling;
}

bool
FaultInjector::shouldInject(FaultSite site)
{
    if (!armed_)
        return false;
    const auto idx = static_cast<std::size_t>(site);
    const SiteTrigger &t = plan_.sites[idx];
    if (!t.armed())
        return false;

    SiteStats &st = stats_[idx];
    ++st.evaluations;
    if (t.maxTriggers != 0 && st.injections >= t.maxTriggers)
        return false;

    bool fire = false;
    if (t.oneShotAt != 0 && st.evaluations == t.oneShotAt)
        fire = true;
    else if (t.probability > 0.0 && rng_.chance(t.probability))
        fire = true;
    if (fire)
        ++st.injections;
    return fire;
}

std::uint64_t
FaultInjector::totalInjections() const
{
    std::uint64_t total = 0;
    for (const auto &st : stats_)
        total += st.injections;
    return total;
}

void
FaultInjector::registerMetrics(obs::MetricRegistry &r,
                               const std::string &prefix)
{
    for (std::size_t s = 0; s < faultSiteCount; ++s) {
        if (!plan_.sites[s].armed())
            continue;
        const std::string base =
            prefix + "." + siteNames[s] + ".";
        r.counter(base + "evaluations", &stats_[s].evaluations);
        r.counter(base + "injections", &stats_[s].injections);
    }
    r.derived(prefix + ".totalInjections",
              [this] {
                  return static_cast<double>(totalInjections());
              },
              "injections across all sites");
}

} // namespace fault
} // namespace xfm
