#include "health.hh"

#include "common/logging.hh"

namespace xfm
{
namespace health
{

const char *
healthStateName(HealthState s)
{
    switch (s) {
      case HealthState::Healthy: return "healthy";
      case HealthState::Degraded: return "degraded";
      case HealthState::Failed: return "failed";
      case HealthState::Probation: return "probation";
    }
    return "unknown";
}

HealthConfig
HealthConfig::fromConfig(const Config &cfg, HealthConfig base)
{
    HealthConfig c = base;
    c.enabled = cfg.getBool("health.enabled", c.enabled);
    c.window = cfg.getU32("health.window", c.window);
    c.degradeThreshold =
        cfg.getDouble("health.degrade", c.degradeThreshold);
    c.failThreshold = cfg.getDouble("health.fail", c.failThreshold);
    c.failConsecutive =
        cfg.getU32("health.fail_consecutive", c.failConsecutive);
    if (cfg.has("health.cooldown_ns"))
        c.cooldown = nanoseconds(cfg.getDouble("health.cooldown_ns"));
    c.probeQuota = cfg.getU32("health.probe_quota", c.probeQuota);
    c.probeSuccesses =
        cfg.getU32("health.probe_successes", c.probeSuccesses);

    if (c.window == 0)
        fatal("health.window must be at least 1");
    if (c.degradeThreshold < 0.0 || c.degradeThreshold > 1.0
        || c.failThreshold < 0.0 || c.failThreshold > 1.0)
        fatal("health thresholds must be fractions in [0, 1]");
    if (c.failThreshold < c.degradeThreshold)
        fatal("health.fail must be >= health.degrade");
    if (c.failConsecutive == 0)
        fatal("health.fail_consecutive must be at least 1");
    if (c.cooldown == 0)
        fatal("health.cooldown_ns must be positive");
    if (c.probeQuota == 0)
        fatal("health.probe_quota must be at least 1");
    if (c.probeSuccesses > c.probeQuota)
        fatal("health.probe_successes cannot exceed the quota");

    // Typos in health.* keys would silently run a scenario with
    // default tuning the author believes was overridden; reject.
    cfg.requireAllConsumed("health.");
    return c;
}

HealthMonitor::HealthMonitor(const HealthConfig &cfg) : cfg_(cfg)
{
}

void
HealthMonitor::resetWindow()
{
    win_events_ = 0;
    win_faults_ = 0;
    consecutive_faults_ = 0;
}

void
HealthMonitor::transition(HealthState to, Tick now)
{
    if (to == state_)
        return;
    state_ = to;
    resetWindow();
    switch (to) {
      case HealthState::Failed:
        ++stats_.trips;
        failed_at_ = now;
        break;
      case HealthState::Probation:
        probation_at_ = now;
        probes_issued_ = 0;
        probes_inflight_ = 0;
        probe_wins_ = 0;
        break;
      case HealthState::Degraded:
        ++stats_.degrades;
        break;
      case HealthState::Healthy:
        ++stats_.recoveries;
        break;
    }
    if (tracer_) {
        if (!trace_req_)
            trace_req_ = tracer_->begin();
        tracer_->point(trace_req_, obs::Stage::Health, now,
                       static_cast<std::uint64_t>(to));
    }
}

void
HealthMonitor::evaluateWindow(Tick now)
{
    if (win_events_ < cfg_.window)
        return;
    const double frac = static_cast<double>(win_faults_)
        / static_cast<double>(win_events_);
    if (frac >= cfg_.failThreshold)
        transition(HealthState::Failed, now);
    else if (frac >= cfg_.degradeThreshold)
        transition(HealthState::Degraded, now);
    else
        transition(HealthState::Healthy, now);
    win_events_ = 0;
    win_faults_ = 0;
}

HealthState
HealthMonitor::state(Tick now)
{
    if (state_ == HealthState::Failed
        && now >= failed_at_ + cfg_.cooldown)
        transition(HealthState::Probation, now);
    return state_;
}

bool
HealthMonitor::wouldAdmit(Tick now)
{
    if (!cfg_.enabled)
        return true;
    switch (state(now)) {
      case HealthState::Healthy:
      case HealthState::Degraded:
        return true;
      case HealthState::Failed:
        return false;
      case HealthState::Probation:
        if (probes_issued_ < cfg_.probeQuota)
            return true;
        // The round's probes are spent. If none are pending an
        // outcome and another cooldown has passed, a fresh round
        // may open — this is what un-strands a domain whose probe
        // outcomes were lost (e.g. the request fell back on
        // capacity before reaching the component).
        return probes_inflight_ == 0
            && now >= probation_at_ + cfg_.cooldown;
    }
    return true;
}

bool
HealthMonitor::admit(Tick now)
{
    if (!cfg_.enabled)
        return true;
    if (!wouldAdmit(now)) {
        ++stats_.breakerRejects;
        return false;
    }
    if (state_ == HealthState::Probation) {
        if (probes_issued_ >= cfg_.probeQuota) {
            // wouldAdmit() vetted the replenish condition.
            probes_issued_ = 0;
            probe_wins_ = 0;
            probation_at_ = now;
        }
        ++probes_issued_;
        ++probes_inflight_;
        ++stats_.probes;
    }
    return true;
}

void
HealthMonitor::recordReject()
{
    if (cfg_.enabled)
        ++stats_.breakerRejects;
}

void
HealthMonitor::cancelProbe(Tick)
{
    if (!cfg_.enabled || state_ != HealthState::Probation)
        return;
    // stats_.probes keeps counting the admission; only the round's
    // bookkeeping is unwound so the slot can be retried.
    if (probes_inflight_ > 0)
        --probes_inflight_;
    if (probes_issued_ > 0)
        --probes_issued_;
}

void
HealthMonitor::recordSuccess(Tick now)
{
    if (!cfg_.enabled)
        return;
    ++stats_.successes;
    if (state_ == HealthState::Probation) {
        if (probes_inflight_ > 0)
            --probes_inflight_;
        if (++probe_wins_ >= cfg_.probeSuccesses)
            transition(HealthState::Healthy, now);
        return;
    }
    if (state_ == HealthState::Failed)
        return;  // straggler from before the trip
    consecutive_faults_ = 0;
    ++win_events_;
    evaluateWindow(now);
}

void
HealthMonitor::recordFault(Tick now)
{
    if (!cfg_.enabled)
        return;
    ++stats_.faults;
    if (state_ == HealthState::Probation) {
        // Half-open contract: one failed probe re-trips the breaker.
        if (probes_inflight_ > 0)
            --probes_inflight_;
        ++stats_.probeFailures;
        transition(HealthState::Failed, now);
        return;
    }
    if (state_ == HealthState::Failed)
        return;  // straggler from before the trip
    ++win_events_;
    ++win_faults_;
    if (++consecutive_faults_ >= cfg_.failConsecutive) {
        transition(HealthState::Failed, now);
        return;
    }
    evaluateWindow(now);
}

void
HealthMonitor::forceFail(Tick now)
{
    if (!cfg_.enabled)
        return;
    ++stats_.forcedOffline;
    if (state_ == HealthState::Failed)
        failed_at_ = now;  // restart the cooldown
    else
        transition(HealthState::Failed, now);
}

void
HealthMonitor::forceHealthy(Tick now)
{
    if (!cfg_.enabled)
        return;
    transition(HealthState::Healthy, now);
}

void
HealthMonitor::registerMetrics(obs::MetricRegistry &r,
                               const std::string &prefix)
{
    if (!cfg_.enabled)
        return;
    const std::string p = prefix + ".";
    r.counter(p + "successes", &stats_.successes);
    r.counter(p + "faults", &stats_.faults);
    r.counter(p + "trips", &stats_.trips, "transitions into Failed");
    r.counter(p + "degrades", &stats_.degrades);
    r.counter(p + "recoveries", &stats_.recoveries);
    r.counter(p + "probes", &stats_.probes, "half-open admissions");
    r.counter(p + "probeFailures", &stats_.probeFailures);
    r.counter(p + "breakerRejects", &stats_.breakerRejects,
              "admissions refused while Failed");
    r.counter(p + "forcedOffline", &stats_.forcedOffline);
    r.derived(p + "state",
              [this] { return static_cast<double>(state_); },
              "0=healthy 1=degraded 2=failed 3=probation");
}

} // namespace health
} // namespace xfm
