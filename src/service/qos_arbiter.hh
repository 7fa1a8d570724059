/**
 * @file
 * QosArbiter: schedules the shared Compress_Request_Queue across
 * tenants.
 *
 * Every tREFI the NMA serves a small, fixed budget of conditional
 * accesses inside the refresh window (paper Sec. 5), so the slots a
 * window can start are the contended resource. The arbiter paces
 * tenant offload submissions to that cadence: each dispatch window
 * it releases up to slotsPerWindow queued operations, serving the
 * latency-sensitive class first (preempting batch tenants) and
 * dividing the remainder over batch tenants with weighted
 * round-robin (deficit counters). A reserved minimum of batch slots
 * per window keeps batch tenants starvation-free no matter how much
 * latency-class work is backlogged.
 */

#ifndef XFM_SERVICE_QOS_ARBITER_HH
#define XFM_SERVICE_QOS_ARBITER_HH

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/config.hh"
#include "health/health.hh"
#include "obs/registry.hh"
#include "obs/tracer.hh"
#include "service/tenant.hh"
#include "sim/sim_object.hh"

namespace xfm
{
namespace service
{

/** Arbiter tuning. */
struct QosArbiterConfig
{
    /** Dispatch period; align with the device's tREFI. */
    Tick window = microseconds(3.9);
    /** Offload submissions released per window (the shared
     *  conditional-access budget). */
    std::uint32_t slotsPerWindow = 4;
    /**
     * Slots per window reserved for the batch class while batch work
     * is queued — the starvation-freedom guarantee. Must be below
     * slotsPerWindow.
     */
    std::uint32_t minBatchSlots = 1;

    /**
     * Adversarial-refresh defense (default off; the off arbiter
     * registers no defense metrics). Arms three parts together,
     * tuned by constants in qos_arbiter.cc:
     *  - hard slot isolation: a fixed fraction of slotsPerWindow is
     *    granted round-robin across tenants before RFM slot steals
     *    shrink the window, so no tenant can be starved to zero by
     *    another's refresh pressure;
     *  - the slot-debt ledger: RFM steals attributed to a tenant
     *    charge that tenant's own future grants (its per-window
     *    quota is suppressed until the debt is repaid) instead of
     *    shrinking the shared window; unattributed (host) steals
     *    still shrink it;
     *  - the windowed z-score abuse detector and its throttle.
     */
    bool defense = false;
    /** Throttle cooldown (HealthMonitor Failed -> Probation). */
    Tick abuseCooldown = microseconds(50.0);

    /**
     * @p base with the qos.* keys applied (absent keys keep the
     * base's value; each maps to the field of the same meaning):
     *   qos.slots_per_window, qos.min_batch_slots, qos.defense,
     *   qos.abuse_cooldown_ns.
     * @throws FatalError on an unknown key under qos.
     */
    static QosArbiterConfig
    fromConfig(const Config &cfg,
               QosArbiterConfig base = defaults<QosArbiterConfig>());
};

/** Per-tenant arbiter statistics. */
struct ArbiterLaneStats
{
    std::uint64_t enqueued = 0;
    std::uint64_t dispatched = 0;
    stats::Average waitNs;  ///< queueing delay before dispatch
    /** Slot loss this tenant's activity caused via RFMs. */
    std::uint64_t rfmLoss = 0;
    /** Abuse-detector evaluations that flagged this tenant. */
    std::uint64_t abuseFlags = 0;
};

/** Whole-arbiter statistics. */
struct QosArbiterStats
{
    std::uint64_t windows = 0;
    std::uint64_t dispatched = 0;
    /** Slots granted to latency tenants while batch work waited. */
    std::uint64_t preemptions = 0;
    /** Windows that ended with unused slots and work still queued
     *  (per-tenant slot quotas throttled everyone). */
    std::uint64_t throttledWindows = 0;
    /** Service slots destroyed by RFM commands. */
    std::uint64_t rfmStolenSlots = 0;
    /** Slots repaid from tenants' RFM debt ledgers. */
    std::uint64_t debtCharged = 0;
    /** Grants made by the reserved hard-isolation pass. */
    std::uint64_t reservedGrants = 0;
    /** Abuse-detector evaluations run. */
    std::uint64_t abuseEvals = 0;
    /** Tenant flaggings across all evaluations. */
    std::uint64_t abuseFlags = 0;
    /** Throttle escalations (forceFail / probation re-trips). */
    std::uint64_t abuseEscalations = 0;
};

/**
 * Weighted, class-aware dispatcher over per-tenant job queues.
 *
 * Jobs are opaque closures; the service enqueues backend operations
 * and the tests enqueue counters, so fairness is testable without a
 * memory system behind it.
 */
class QosArbiter : public SimObject
{
  public:
    using Job = std::function<void()>;

    QosArbiter(std::string name, EventQueue &eq,
               const QosArbiterConfig &cfg);

    /** Register a tenant lane before any enqueue for it. */
    void addTenant(TenantId id, PriorityClass cls,
                   std::uint32_t weight, std::uint32_t slot_quota);

    /** Begin the dispatch-window loop. */
    void start();

    /** Queue a job on the tenant's lane. */
    void enqueue(TenantId id, Job job);

    /**
     * An RFM stole @p slots of NMA service capacity, attributed to
     * @p culprit (invalidTenant for host/unattributed activity).
     * With the defense off the steal shrinks the next dispatch
     * windows for everyone; with the slot-debt ledger on, an
     * attributed steal charges the culprit's own future grants.
     */
    void noteRfmSteal(std::uint32_t slots, TenantId culprit);

    /** True while the abuse detector holds @p id throttled. */
    bool abuseThrottled(TenantId id);

    /** Outstanding slot debt of @p id (0 unless the defense is
     *  on). */
    std::uint64_t slotDebt(TenantId id) const;

    /** Abuse-detector health monitor of @p id (enabled only when
     *  cfg.defense; used for metrics and tests). */
    health::HealthMonitor &abuseMonitor(TenantId id);

    /** Attach a span tracer (null detaches): RFM slot steals then
     *  emit Stage::SlotSteal points on a lazily-made timeline. */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

    std::size_t queued() const;
    std::size_t queued(TenantId id) const;

    const ArbiterLaneStats &laneStats(TenantId id) const;
    const QosArbiterStats &stats() const { return stats_; }
    const QosArbiterConfig &config() const { return cfg_; }

    /**
     * Pre-size the lane table so ArbiterLaneStats addresses stay
     * stable across addTenant (required before registerLaneMetrics
     * hands lane pointers to a registry).
     */
    void reserveLanes(std::size_t n) { lanes_.reserve(n); }

    /** Register whole-arbiter metrics under `<name()>.*`. */
    void registerMetrics(obs::MetricRegistry &r);

    /** Register one lane's metrics under `<prefix>.arbiter.*`. */
    void registerLaneMetrics(obs::MetricRegistry &r, TenantId id,
                             const std::string &prefix);

  private:
    struct Pending
    {
        Job job;
        Tick enqueued;
    };

    struct Lane
    {
        TenantId id;
        PriorityClass cls;
        std::uint32_t weight;
        std::uint32_t slotQuota;
        std::deque<Pending> q;
        double deficit = 0.0;  ///< WRR credit (batch lanes)
        std::uint32_t grantedThisWindow = 0;
        /** slotQuota minus this window's debt repayment. */
        std::uint32_t quotaThisWindow = 0;
        /** Outstanding RFM slot debt (the defense's ledger). */
        std::uint64_t debt = 0;
        /** RFM slot loss caused since the last abuse evaluation. */
        std::uint64_t rfmLossEval = 0;
        /** Consecutive evaluations this lane was flagged. */
        std::uint32_t flaggedStreak = 0;
        /** Throttle/probation state machine (defense only). */
        health::HealthMonitor monitor;
        ArbiterLaneStats stats;
    };

    void window();
    void dispatch(Lane &lane);
    /** Batch work queued on any non-throttled lane? */
    bool batchWaiting(const std::vector<char> &blocked) const;
    /** Throttled by the abuse detector right now? */
    bool laneBlocked(Lane &l);
    void evaluateAbuse(Tick now);
    Lane &lane(TenantId id);
    const Lane &lane(TenantId id) const;

    QosArbiterConfig cfg_;
    std::vector<Lane> lanes_;
    std::unordered_map<TenantId, std::size_t> index_;
    std::size_t latency_rr_ = 0;  ///< rotation among latency lanes
    std::size_t batch_rr_ = 0;    ///< rotation among batch lanes
    std::size_t reserved_rr_ = 0; ///< rotation for the reserved pass
    /** Stolen slots not yet deducted from a window (with the
     *  defense on, only unattributed steals land here). */
    std::uint64_t pending_steal_ = 0;
    std::uint32_t windows_since_eval_ = 0;
    bool started_ = false;
    obs::Tracer *tracer_ = nullptr;
    std::uint64_t trace_req_ = 0;  ///< lazy slot-steal timeline

    QosArbiterStats stats_;
};

} // namespace service
} // namespace xfm

#endif // XFM_SERVICE_QOS_ARBITER_HH
