/**
 * @file
 * Component health tracking and circuit breaking for the XFM stack.
 *
 * Fault injection with per-request retry/backoff treats each fault
 * as an isolated incident: a dead channel would be retried forever
 * at full rate. A HealthMonitor remembers instead: it follows one
 * component's windowed fault/success rates through
 *
 *     Healthy -> Degraded -> Failed -> Probation -> Healthy
 *
 * and its owner consults it as a circuit breaker: a Failed
 * component is given no work at all (the retry ladder is skipped),
 * and after a cooldown a bounded number of half-open probe requests
 * decide whether it re-closes or re-trips. The XFM backend keeps one
 * per DIMM, on the channel shard of the offload path (an open one
 * sends that DIMM's shards to the CPU); the QoS arbiter keeps one
 * per tenant as its abuse throttle.
 *
 * Determinism: monitors are driven purely by recorded outcomes and
 * event-queue ticks — no wall clock, no RNG — so a same-seed run
 * reproduces the exact health timeline byte for byte.
 */

#ifndef XFM_HEALTH_HEALTH_HH
#define XFM_HEALTH_HEALTH_HH

#include <cstdint>
#include <string>

#include "common/config.hh"
#include "common/units.hh"
#include "obs/registry.hh"
#include "obs/tracer.hh"

namespace xfm
{
namespace health
{

/** Circuit-breaker state of one failure domain. */
enum class HealthState : std::uint8_t
{
    Healthy,    ///< fault rate below the degrade threshold
    Degraded,   ///< elevated fault rate; still admitting work
    Failed,     ///< breaker open: no work admitted
    Probation,  ///< half-open: bounded probe requests admitted
};

constexpr std::size_t healthStateCount = 4;

/** Stable lowercase identifier used in stats and traces. */
const char *healthStateName(HealthState s);

/** Monitor tuning, shared by every monitor of its owner (config
 *  keys: see fromConfig). */
struct HealthConfig
{
    /** Master switch; a disabled monitor admits everything and
     *  records nothing, so baseline runs are bit-identical. */
    bool enabled = false;
    /** Outcomes per evaluation window. */
    std::uint32_t window = 16;
    /** Fault fraction at/above which the domain turns Degraded. */
    double degradeThreshold = 0.25;
    /** Fault fraction at/above which the breaker trips to Failed. */
    double failThreshold = 0.5;
    /** Consecutive faults that trip the breaker immediately,
     *  without waiting for a full window (fast trip). */
    std::uint32_t failConsecutive = 8;
    /** Failed -> Probation delay (and probe-round replenish delay). */
    Tick cooldown = microseconds(100.0);
    /** Probe requests admitted per half-open round. */
    std::uint32_t probeQuota = 4;
    /** Probe successes required to re-close the breaker. */
    std::uint32_t probeSuccesses = 3;

    /**
     * @p base with the health.* keys applied (absent keys keep the
     * base's value):
     *   health.enabled          = 1       # master switch (default off)
     *   health.window           = 16      # outcomes per window
     *   health.degrade          = 0.25    # fault fraction -> Degraded
     *   health.fail             = 0.5     # fault fraction -> Failed
     *   health.fail_consecutive = 8       # consecutive faults -> Failed
     *   health.cooldown_ns      = 100000  # Failed -> Probation delay
     *   health.probe_quota      = 4       # probes per half-open round
     *   health.probe_successes  = 3       # probe wins to re-close
     * @throws FatalError on an unknown key under health.
     */
    static HealthConfig
    fromConfig(const Config &cfg,
               HealthConfig base = defaults<HealthConfig>());
};

/** Monitor counters (registered into the MetricRegistry). */
struct HealthStats
{
    std::uint64_t successes = 0;
    std::uint64_t faults = 0;
    std::uint64_t trips = 0;          ///< transitions into Failed
    std::uint64_t degrades = 0;       ///< transitions into Degraded
    std::uint64_t recoveries = 0;     ///< transitions into Healthy
    std::uint64_t probes = 0;         ///< half-open probes admitted
    std::uint64_t probeFailures = 0;  ///< probes that re-tripped
    /** Work refused: admit() refusals plus the routing refusals
     *  the owner reports through recordReject(). */
    std::uint64_t breakerRejects = 0;
    std::uint64_t forcedOffline = 0;  ///< administrative forceFail()s
};

/**
 * Windowed fault-rate state machine for one failure domain.
 *
 * The owner reports outcomes (recordSuccess / recordFault) and asks
 * admit() before handing the component new work. All methods take
 * the current event-queue tick explicitly, so the monitor stays a
 * plain object usable from any layer.
 */
class HealthMonitor
{
  public:
    /** Disabled monitor: admits everything, records nothing. */
    HealthMonitor() = default;

    explicit HealthMonitor(const HealthConfig &cfg);

    bool enabled() const { return cfg_.enabled; }
    const HealthConfig &config() const { return cfg_; }

    /**
     * Current state, advancing Failed -> Probation when the cooldown
     * has elapsed. Use rawState() to observe without advancing.
     */
    HealthState state(Tick now);
    HealthState rawState() const { return state_; }

    /**
     * Circuit-breaker gate: may the component be given new work now?
     *
     * Failed refuses; Probation admits up to probeQuota probes per
     * half-open round (a new round replenishes after another
     * cooldown, so probes whose outcome was lost cannot strand the
     * domain in Probation forever). Consumes a probe slot on admit —
     * use wouldAdmit() to test several domains before committing.
     */
    bool admit(Tick now);

    /** admit() without consuming a probe slot or counting a reject. */
    bool wouldAdmit(Tick now);

    /**
     * The owner routed work around the component because
     * wouldAdmit() refused it: count that refusal as a
     * breakerReject, as admit() counts its own.
     */
    void recordReject();

    /**
     * An admitted probe never actually exercised the component (the
     * work was deferred for an unrelated reason, e.g. capacity):
     * return the slot so the half-open round is not charged a
     * missing outcome. No-op outside Probation.
     */
    void cancelProbe(Tick now);

    /** The component completed work without incident. */
    void recordSuccess(Tick now);

    /** The component faulted (injected or organic). */
    void recordFault(Tick now);

    /**
     * Administrative offlining: trip the breaker immediately (e.g.
     * a channel declared dead by an operator or a watchdog escalation
     * policy). The normal Probation/recovery path still applies.
     */
    void forceFail(Tick now);

    /** Probes admitted whose outcome has not been recorded yet. */
    std::uint32_t outstandingProbes() const { return probes_inflight_; }

    const HealthStats &stats() const { return stats_; }

    /**
     * Register the monitor's counters plus a derived numeric state
     * under `<prefix>.*` (no-op when the monitor is disabled, so
     * health-off runs keep their metric namespace unchanged).
     */
    void registerMetrics(obs::MetricRegistry &r,
                         const std::string &prefix);

    /**
     * Attach a span tracer (null detaches). Every state transition
     * then emits an instantaneous Stage::Health point whose arg
     * encodes the new state; the monitor lazily allocates one
     * request id for its whole timeline.
     */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

  private:
    void transition(HealthState to, Tick now);
    void evaluateWindow(Tick now);
    void resetWindow();

    HealthConfig cfg_{};
    HealthState state_ = HealthState::Healthy;

    std::uint32_t win_events_ = 0;
    std::uint32_t win_faults_ = 0;
    std::uint32_t consecutive_faults_ = 0;

    Tick failed_at_ = 0;     ///< when the breaker tripped
    Tick probation_at_ = 0;  ///< when the current probe round opened
    std::uint32_t probes_issued_ = 0;
    std::uint32_t probes_inflight_ = 0;
    std::uint32_t probe_wins_ = 0;

    HealthStats stats_{};
    obs::Tracer *tracer_ = nullptr;
    std::uint64_t trace_req_ = 0;  ///< lazily allocated timeline id
};

} // namespace health
} // namespace xfm

#endif // XFM_HEALTH_HEALTH_HH
