#include "fault.hh"

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

} // namespace

const char *
faultSiteName(FaultSite site)
{
    const auto idx = static_cast<std::size_t>(site);
    XFM_ASSERT(idx < faultSiteCount, "invalid fault site ", idx);
    return siteNames[idx];
}

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
    plan.spmHighWatermark =
        cfg.getDouble("fault.spm_watermark", plan.spmHighWatermark);
    if (cfg.has("fault.dfm_delay_ns"))
        plan.dfmDelayPenalty = nanoseconds(
            cfg.getDouble("fault.dfm_delay_ns"));
    XFM_ASSERT(plan.spmHighWatermark > 0.0
                   && plan.spmHighWatermark <= 1.0,
               "fault.spm_watermark must be in (0, 1]");

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

RetryPolicy
RetryPolicy::fromConfig(const Config &cfg, RetryPolicy base)
{
    RetryPolicy policy = base;
    policy.maxAttempts =
        cfg.getU32("retry.max_attempts", policy.maxAttempts);
    if (cfg.has("retry.backoff_ns"))
        policy.backoffBase =
            nanoseconds(cfg.getDouble("retry.backoff_ns"));
    if (cfg.has("retry.cap_ns"))
        policy.backoffCap = nanoseconds(cfg.getDouble("retry.cap_ns"));
    XFM_ASSERT(policy.maxAttempts >= 1,
               "retry.max_attempts must be at least 1");
    return policy;
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
