/**
 * @file
 * Deterministic fault injection for the XFM stack.
 *
 * XFM's correctness story rests on bounded degradation: when the SPM
 * fills, an offload misses its tRFC window, a doorbell write is
 * lost, or a DIMM misbehaves, the system must degrade to the CPU
 * path without corrupting a single page (paper Sec. 6, Fig. 12).
 * This subsystem makes those failure paths testable on demand:
 *
 *  - FaultPlan   — which sites fire, with what probability or at
 *                  which evaluation ordinal, parsed from the
 *                  standard key=value Config format;
 *  - FaultInjector — a seeded, deterministic evaluator components
 *                  query at each injection site;
 *  - per-site SiteStats — how often each site was evaluated and how
 *                  often it actually injected.
 *
 * Determinism: the injector draws from a single Rng seeded by the
 * plan, and the event queue orders all evaluations, so a (seed,
 * plan, workload) triple always produces the same fault sequence.
 * When a site is not armed, shouldInject() returns false without
 * consuming randomness or counting an evaluation, so a zero-fault
 * plan is behaviourally identical to a build without the subsystem.
 */

#ifndef XFM_FAULT_FAULT_HH
#define XFM_FAULT_FAULT_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/config.hh"
#include "common/random.hh"
#include "common/units.hh"
#include "obs/registry.hh"

namespace xfm
{
namespace fault
{

/** Injection sites threaded through the stack. */
enum class FaultSite : std::uint32_t
{
    EccCorrectable,    ///< single-bit DRAM error (scrubbed)
    EccUncorrectable,  ///< double-bit DRAM error (poisons the page)
    SpmReserveFail,    ///< SPM allocation fails outright
    SpmHighWatermark,  ///< backpressure above the SPM watermark
    EngineStall,       ///< NMA engine stall/timeout; offload dropped
    MmioDoorbellLoss,  ///< doorbell write lost; device never sees it
    DfmLinkDelay,      ///< far-memory link latency spike
    DfmLinkDrop,       ///< far-memory link transfer dropped
};

constexpr std::size_t faultSiteCount = 8;

/** Per-site trigger description. */
struct SiteTrigger
{
    /** Bernoulli probability of injecting per evaluation. */
    double probability = 0.0;
    /** Fire exactly on the Nth evaluation (1-based; 0 = off). */
    std::uint64_t oneShotAt = 0;
    /** Cap on total injections at this site (0 = unlimited). */
    std::uint64_t maxTriggers = 0;

    bool
    armed() const
    {
        return probability > 0.0 || oneShotAt > 0;
    }
};

/** Per-site evaluation/injection counters. */
struct SiteStats
{
    std::uint64_t evaluations = 0;
    std::uint64_t injections = 0;
};

/** A complete fault scenario (config keys: see fromConfig). */
struct FaultPlan
{
    std::uint64_t seed = 1;
    std::array<SiteTrigger, faultSiteCount> sites{};

    SiteTrigger &
    site(FaultSite s)
    {
        return sites[static_cast<std::size_t>(s)];
    }
    const SiteTrigger &
    site(FaultSite s) const
    {
        return sites[static_cast<std::size_t>(s)];
    }

    /** True if any site can ever fire. */
    bool anyArmed() const;

    /**
     * @p base with the fault.* keys applied (absent keys keep the
     * base's value):
     *   fault.seed            = 7      # injector RNG seed
     *   fault.<site>.p        = 0.1    # per-evaluation probability
     *   fault.<site>.one_shot = 12     # fire on the Nth evaluation
     *   fault.<site>.max      = 3      # cap on injections
     * where <site> is one of: ecc_correctable, ecc_uncorrectable,
     * spm_reserve, spm_watermark, engine_stall, mmio_doorbell,
     * dfm_delay, dfm_drop. The spm_watermark site applies at or
     * above 87.5% SPM occupancy (spm.cc) and a dfm_delay injection
     * adds 2 us to the transfer (dfm_backend.cc).
     * @throws FatalError on an unknown key under fault.
     */
    static FaultPlan fromConfig(const Config &cfg,
                                FaultPlan base = defaults<FaultPlan>());
};

/**
 * Attempts (the first included) a transient fault gets before the
 * caller gives up on it: a batch whose SQ tail doorbell was lost
 * this many times is redone on the CPU, a page transfer the DFM link
 * dropped this many times fails.
 */
constexpr std::uint32_t transientAttempts = 3;

/**
 * Exponential backoff after failed attempt @p attempt (0-based):
 * 200 ns doubling per attempt, saturated at 50 us. The shift is
 * clamped against the base's leading zero bits first, so no attempt
 * count can wrap it.
 */
Tick retryBackoff(std::uint32_t attempt);

/**
 * Seeded evaluator components query at each injection site.
 *
 * A default-constructed injector is permanently disarmed and costs
 * one branch per query; components hold a pointer that may be null,
 * so the no-injection hot path stays free of RNG draws.
 */
class FaultInjector
{
  public:
    /** Disarmed injector: shouldInject() is always false. */
    FaultInjector() = default;

    explicit FaultInjector(const FaultPlan &plan)
        : plan_(plan), rng_(plan.seed), armed_(plan.anyArmed())
    {
    }

    /** True if any site can ever fire. */
    bool armed() const { return armed_; }

    /**
     * Evaluate one injection site. Counts an evaluation and draws
     * randomness only when the site itself is armed.
     */
    bool shouldInject(FaultSite site);

    /**
     * Uniform integer in [0, bound) from the injector's RNG, for
     * consumers that need a deterministic fault parameter (e.g.
     * which bit to flip). Call only after shouldInject() returned
     * true so disarmed runs never consume randomness.
     */
    std::uint64_t pickUniform(std::uint64_t bound)
    {
        return rng_.uniformInt(bound);
    }

    const FaultPlan &plan() const { return plan_; }
    const SiteStats &
    stats(FaultSite site) const
    {
        return stats_[static_cast<std::size_t>(site)];
    }
    std::uint64_t totalInjections() const;

    /**
     * Register per-armed-site counters plus the injection total
     * under `<prefix>.<site>.{evaluations,injections}`.
     */
    void registerMetrics(obs::MetricRegistry &r,
                         const std::string &prefix);

  private:
    FaultPlan plan_{};
    Rng rng_{1};
    bool armed_ = false;
    std::array<SiteStats, faultSiteCount> stats_{};
};

} // namespace fault
} // namespace xfm

#endif // XFM_FAULT_FAULT_HH
