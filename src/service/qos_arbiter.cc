#include "qos_arbiter.hh"

#include <algorithm>
#include <cmath>

#include "common/config.hh"
#include "common/logging.hh"

namespace xfm
{
namespace service
{

QosArbiterConfig
QosArbiterConfig::fromConfig(const Config &cfg, QosArbiterConfig base)
{
    QosArbiterConfig c = base;
    c.slotsPerWindow =
        cfg.getU32("qos.slots_per_window", c.slotsPerWindow);
    c.minBatchSlots = cfg.getU32("qos.min_batch_slots", c.minBatchSlots);
    c.defense = cfg.getBool("qos.defense", c.defense);
    if (cfg.has("qos.abuse_cooldown_ns"))
        c.abuseCooldown =
            nanoseconds(cfg.getDouble("qos.abuse_cooldown_ns"));

    if (c.slotsPerWindow == 0)
        fatal("qos.slots_per_window must be at least 1");
    if (c.minBatchSlots >= c.slotsPerWindow)
        fatal("qos.min_batch_slots must be below slots_per_window");
    if (c.abuseCooldown == 0)
        fatal("qos.abuse_cooldown_ns must be positive");

    // Typos in qos.* keys would silently run a scenario with
    // default tuning the author believes was overridden; reject.
    cfg.requireAllConsumed("qos.");
    return c;
}

namespace
{

/** Defense: fraction of slotsPerWindow the hard-isolation pass
 *  grants round-robin before RFM steals shrink the window. */
constexpr double reservedSlotFrac = 0.25;
/** Defense: dispatch windows per abuse-detector evaluation. */
constexpr std::uint32_t abuseWindows = 16;
/** Defense: consecutive flagged evaluations before escalation. */
constexpr std::uint32_t abuseConsecutive = 2;

/**
 * z-score at/above which a tenant's RFM-induced slot loss is an
 * outlier. For one attacker among N tenants the attainable z is
 * sqrt(N-1) (~1.73 at N=4), so this stays below that.
 */
constexpr double outlierZScore = 1.5;
/** Minimum slots of RFM loss per evaluation before a tenant can be
 *  flagged (absolute floor under the z-score). */
constexpr double minFlaggedLoss = 4.0;

/** HealthMonitor tuning for the per-tenant abuse throttle. */
health::HealthConfig
abuseHealthConfig(const QosArbiterConfig &cfg)
{
    health::HealthConfig hc;
    hc.enabled = true;
    hc.cooldown = cfg.abuseCooldown;
    // The detector drives the monitor synchronously: one "probe"
    // per evaluation while in Probation, a clean streak re-closes.
    hc.probeQuota = 4;
    hc.probeSuccesses = 3;
    return hc;
}

} // namespace

QosArbiter::QosArbiter(std::string name, EventQueue &eq,
                       const QosArbiterConfig &cfg)
    : SimObject(std::move(name), eq), cfg_(cfg)
{
    XFM_ASSERT(cfg_.window > 0, "dispatch window must be positive");
    XFM_ASSERT(cfg_.slotsPerWindow > 0, "need at least one slot");
    XFM_ASSERT(cfg_.minBatchSlots < cfg_.slotsPerWindow,
               "batch floor must leave room for latency work");
}

void
QosArbiter::addTenant(TenantId id, PriorityClass cls,
                      std::uint32_t weight, std::uint32_t slot_quota)
{
    XFM_ASSERT(index_.find(id) == index_.end(),
               "tenant ", id, " already has a lane");
    XFM_ASSERT(weight > 0, "WRR weight must be positive");
    XFM_ASSERT(slot_quota > 0, "slot quota must be positive");
    Lane l;
    l.id = id;
    l.cls = cls;
    l.weight = weight;
    l.slotQuota = slot_quota;
    l.quotaThisWindow = slot_quota;
    if (cfg_.defense)
        l.monitor = health::HealthMonitor(abuseHealthConfig(cfg_));
    index_.emplace(id, lanes_.size());
    lanes_.push_back(std::move(l));
}

void
QosArbiter::start()
{
    if (started_)
        return;
    started_ = true;
    eventq().scheduleIn(cfg_.window, [this] { window(); });
}

void
QosArbiter::enqueue(TenantId id, Job job)
{
    Lane &l = lane(id);
    ++l.stats.enqueued;
    l.q.push_back({std::move(job), curTick()});
}

void
QosArbiter::noteRfmSteal(std::uint32_t slots, TenantId culprit)
{
    if (slots == 0)
        return;
    stats_.rfmStolenSlots += slots;
    if (tracer_) {
        if (!trace_req_)
            trace_req_ = tracer_->begin();
        tracer_->point(trace_req_, obs::Stage::SlotSteal, curTick(),
                       slots);
    }
    const auto it = culprit == invalidTenant
        ? index_.end() : index_.find(culprit);
    if (it != index_.end()) {
        Lane &l = lanes_[it->second];
        l.stats.rfmLoss += slots;
        l.rfmLossEval += slots;
        if (cfg_.defense) {
            // The ledger charges the culprit's own future grants;
            // the shared window stays whole for everyone else.
            l.debt += slots;
            return;
        }
    }
    pending_steal_ += slots;
}

bool
QosArbiter::abuseThrottled(TenantId id)
{
    if (!cfg_.defense)
        return false;
    return lane(id).monitor.state(curTick())
        == health::HealthState::Failed;
}

std::uint64_t
QosArbiter::slotDebt(TenantId id) const
{
    return lane(id).debt;
}

health::HealthMonitor &
QosArbiter::abuseMonitor(TenantId id)
{
    return lane(id).monitor;
}

bool
QosArbiter::laneBlocked(Lane &l)
{
    if (!cfg_.defense)
        return false;
    return l.monitor.state(curTick()) == health::HealthState::Failed;
}

void
QosArbiter::evaluateAbuse(Tick now)
{
    ++stats_.abuseEvals;
    const std::size_t n = lanes_.size();
    if (n == 0)
        return;
    double sum = 0.0, sq = 0.0;
    for (const auto &l : lanes_) {
        const double x = static_cast<double>(l.rfmLossEval);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / static_cast<double>(n);
    const double var =
        std::max(0.0, sq / static_cast<double>(n) - mean * mean);
    const double sd = std::sqrt(var);

    for (auto &l : lanes_) {
        const double x = static_cast<double>(l.rfmLossEval);
        l.rfmLossEval = 0;
        const bool outlier =
            sd > 0.0 && (x - mean) / sd >= outlierZScore;
        const bool flagged = x >= minFlaggedLoss && outlier;
        if (flagged) {
            ++l.stats.abuseFlags;
            ++stats_.abuseFlags;
        }
        switch (l.monitor.state(now)) {
          case health::HealthState::Failed:
            // Sustained abuse while throttled restarts the
            // cooldown; otherwise let it age into Probation.
            if (flagged)
                l.monitor.forceFail(now);
            break;
          case health::HealthState::Probation:
            // One synchronous probe per evaluation: a clean streak
            // re-closes the breaker, a re-offence re-trips it.
            l.monitor.admit(now);
            if (flagged) {
                l.monitor.recordFault(now);
                ++stats_.abuseEscalations;
            } else {
                l.monitor.recordSuccess(now);
            }
            break;
          default:
            l.flaggedStreak = flagged ? l.flaggedStreak + 1 : 0;
            if (l.flaggedStreak >= abuseConsecutive) {
                l.flaggedStreak = 0;
                l.monitor.forceFail(now);
                ++stats_.abuseEscalations;
            }
            break;
        }
    }
}

std::size_t
QosArbiter::queued() const
{
    std::size_t n = 0;
    for (const auto &l : lanes_)
        n += l.q.size();
    return n;
}

std::size_t
QosArbiter::queued(TenantId id) const
{
    return lane(id).q.size();
}

const ArbiterLaneStats &
QosArbiter::laneStats(TenantId id) const
{
    return lane(id).stats;
}

void
QosArbiter::registerMetrics(obs::MetricRegistry &r)
{
    const std::string p = name() + ".";
    r.counter(p + "windows", &stats_.windows,
              "tREFI dispatch windows run");
    r.counter(p + "dispatched", &stats_.dispatched);
    r.counter(p + "preemptions", &stats_.preemptions,
              "latency slots granted while batch waited");
    r.counter(p + "throttledWindows", &stats_.throttledWindows,
              "slots left unused with work queued");
    r.derived(p + "queued",
              [this] { return static_cast<double>(queued()); });
    // Defense metrics appear only when the defense is armed so
    // default runs keep their metric namespace byte-identical.
    if (cfg_.defense) {
        r.counter(p + "rfmStolenSlots", &stats_.rfmStolenSlots,
                  "service slots destroyed by RFM commands");
        r.counter(p + "debtCharged", &stats_.debtCharged,
                  "slots repaid from tenant RFM debt ledgers");
        r.counter(p + "reservedGrants", &stats_.reservedGrants,
                  "grants made by the hard-isolation pass");
        const std::string a = p + "abuse.";
        r.counter(a + "evals", &stats_.abuseEvals,
                  "abuse-detector evaluations run");
        r.counter(a + "flags", &stats_.abuseFlags,
                  "tenant flaggings across evaluations");
        r.counter(a + "escalations", &stats_.abuseEscalations,
                  "throttle escalations issued");
    }
}

void
QosArbiter::registerLaneMetrics(obs::MetricRegistry &r, TenantId id,
                                const std::string &prefix)
{
    // Lane addresses are stable only because reserveLanes() bounded
    // the vector; the service calls it before any admission.
    ArbiterLaneStats &ls = lane(id).stats;
    const std::string p = prefix + ".arbiter.";
    r.counter(p + "enqueued", &ls.enqueued);
    r.counter(p + "dispatched", &ls.dispatched);
    r.average(p + "waitNs", &ls.waitNs,
              "queueing delay before dispatch");
    if (cfg_.defense) {
        r.counter(p + "rfmLoss", &ls.rfmLoss,
                  "slot loss this tenant's RFMs caused");
        r.counter(p + "abuseFlags", &ls.abuseFlags,
                  "evaluations that flagged this tenant");
        lane(id).monitor.registerMetrics(r, prefix + ".abuse");
    }
}

QosArbiter::Lane &
QosArbiter::lane(TenantId id)
{
    const auto it = index_.find(id);
    XFM_ASSERT(it != index_.end(), "no lane for tenant ", id);
    return lanes_[it->second];
}

const QosArbiter::Lane &
QosArbiter::lane(TenantId id) const
{
    const auto it = index_.find(id);
    XFM_ASSERT(it != index_.end(), "no lane for tenant ", id);
    return lanes_[it->second];
}

bool
QosArbiter::batchWaiting(const std::vector<char> &blocked) const
{
    for (std::size_t i = 0; i < lanes_.size(); ++i)
        if (!blocked[i] && lanes_[i].cls == PriorityClass::Batch
            && !lanes_[i].q.empty())
            return true;
    return false;
}

void
QosArbiter::dispatch(Lane &l)
{
    Pending p = std::move(l.q.front());
    l.q.pop_front();
    l.stats.waitNs.sample(ticksToNs(curTick() - p.enqueued));
    ++l.stats.dispatched;
    ++l.grantedThisWindow;
    ++stats_.dispatched;
    if (p.job)
        p.job();
}

void
QosArbiter::window()
{
    ++stats_.windows;
    const Tick now = curTick();

    if (cfg_.defense && ++windows_since_eval_ >= abuseWindows) {
        windows_since_eval_ = 0;
        evaluateAbuse(now);
    }

    const std::size_t n = lanes_.size();
    std::vector<char> blocked(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        Lane &l = lanes_[i];
        l.grantedThisWindow = 0;
        l.quotaThisWindow = l.slotQuota;
        if (laneBlocked(l))
            blocked[i] = 1;
        if (cfg_.defense && l.debt > 0) {
            // Repay RFM slot debt out of this window's own quota.
            const std::uint32_t pay = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(l.debt, l.quotaThisWindow));
            l.quotaThisWindow -= pay;
            l.debt -= pay;
            stats_.debtCharged += pay;
        }
    }

    std::uint32_t slots = cfg_.slotsPerWindow;
    bool progress = true;

    // Hard-isolation pass: the reserved fraction is granted
    // round-robin across tenants before RFM steals can shrink the
    // window, so no tenant is starved to zero by refresh pressure.
    std::uint32_t reserved = cfg_.defense
        ? static_cast<std::uint32_t>(
              reservedSlotFrac
              * static_cast<double>(cfg_.slotsPerWindow))
        : 0;
    reserved = std::min(reserved, slots);
    while (reserved > 0 && progress) {
        progress = false;
        for (std::size_t k = 0; k < n && reserved > 0; ++k) {
            const std::size_t i = (reserved_rr_ + k) % n;
            Lane &l = lanes_[i];
            if (blocked[i] || l.q.empty()
                || l.grantedThisWindow >= l.quotaThisWindow)
                continue;
            dispatch(l);
            ++stats_.reservedGrants;
            --reserved;
            --slots;
            progress = true;
        }
    }

    // RFM-destroyed service capacity eats the unreserved remainder
    // (with the debt ledger on, only unattributed steals land here).
    if (pending_steal_ > 0 && slots > 0) {
        const std::uint32_t eaten = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(pending_steal_, slots));
        slots -= eaten;
        pending_steal_ -= eaten;
    }

    // Latency-sensitive tenants preempt: they are served first, but
    // while batch work is backlogged they may not consume the
    // reserved batch floor (starvation freedom).
    const bool batch_backlog = batchWaiting(blocked);
    std::uint32_t latency_budget = slots;
    if (batch_backlog && cfg_.minBatchSlots < slots)
        latency_budget = slots - cfg_.minBatchSlots;
    progress = true;
    while (slots > 0 && latency_budget > 0 && progress) {
        progress = false;
        for (std::size_t k = 0;
             k < n && slots > 0 && latency_budget > 0; ++k) {
            const std::size_t i = (latency_rr_ + k) % n;
            Lane &l = lanes_[i];
            if (blocked[i] || l.cls != PriorityClass::LatencySensitive
                || l.q.empty()
                || l.grantedThisWindow >= l.quotaThisWindow)
                continue;
            dispatch(l);
            --slots;
            --latency_budget;
            if (batch_backlog)
                ++stats_.preemptions;
            progress = true;
        }
    }

    // Batch class: deficit-weighted round-robin over the leftovers.
    // Credit refills proportionally to weight, so over time each
    // backlogged batch tenant's share converges to its weight.
    for (auto &l : lanes_) {
        if (l.cls != PriorityClass::Batch || l.q.empty())
            continue;
        const double cap = static_cast<double>(l.weight + l.slotQuota);
        l.deficit = std::min(l.deficit + l.weight, cap);
    }
    progress = true;
    while (slots > 0 && progress) {
        progress = false;
        for (std::size_t k = 0; k < n && slots > 0; ++k) {
            const std::size_t i = (batch_rr_ + k) % n;
            Lane &l = lanes_[i];
            if (blocked[i] || l.cls != PriorityClass::Batch
                || l.q.empty()
                || l.grantedThisWindow >= l.quotaThisWindow
                || l.deficit < 1.0)
                continue;
            dispatch(l);
            l.deficit -= 1.0;
            --slots;
            progress = true;
        }
        if (!progress && slots > 0) {
            // Work-conserving top-up: everyone still backlogged is
            // deficit-limited, so refill proportionally (ratios are
            // preserved) rather than waste slots. Quota-limited
            // lanes stay throttled.
            for (std::size_t i = 0; i < n; ++i) {
                Lane &l = lanes_[i];
                if (!blocked[i] && l.cls == PriorityClass::Batch
                    && !l.q.empty()
                    && l.grantedThisWindow < l.quotaThisWindow) {
                    l.deficit += l.weight;
                    progress = true;
                }
            }
            if (!progress)
                break;  // only quota-limited (or empty) lanes remain
        }
    }

    if (slots > 0 && queued() > 0)
        ++stats_.throttledWindows;

    if (n > 0) {
        latency_rr_ = (latency_rr_ + 1) % n;
        batch_rr_ = (batch_rr_ + 1) % n;
        reserved_rr_ = (reserved_rr_ + 1) % n;
    }
    eventq().scheduleIn(cfg_.window, [this] { window(); });
}

} // namespace service
} // namespace xfm
