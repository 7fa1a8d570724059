/**
 * @file
 * Overload shedding for the far-memory service layer.
 *
 * When the shared offload path saturates — the QoS arbiter's queue
 * backs up past a high-watermark, or the NMA scratchpads run near
 * full — admitting more best-effort work only converts it into CPU
 * fallbacks after it has already consumed queue slots. The
 * OverloadShedder turns that pressure into explicit backpressure at
 * the service boundary: batch-class swap-outs are rejected with a
 * typed Rejected{Overload} outcome (the controller keeps the page
 * local and retries later), batch swap-ins are down-tiered to the
 * CPU path, and latency-class tenants are never shed.
 *
 * Hysteresis: shedding engages above the high watermarks and only
 * disengages once *both* signals fall below their low watermarks, so
 * the decision does not oscillate at the boundary.
 */

#ifndef XFM_HEALTH_SHED_HH
#define XFM_HEALTH_SHED_HH

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

/** What the shedder decided for one submission. */
enum class ShedDecision : std::uint8_t
{
    Admit,     ///< proceed as requested
    DownTier,  ///< proceed, but on the CPU path (no offload)
    Reject,    ///< refuse outright (typed Rejected{Overload})
};

/** Watermark tuning (config keys: see fromConfig). */
struct ShedConfig
{
    bool enabled = false;
    std::size_t queueHigh = 64;
    std::size_t queueLow = 16;
    double spmHigh = 0.90;
    double spmLow = 0.70;

    /**
     * @p base with the shed.* keys applied (absent keys keep the
     * base's value):
     *   shed.enabled    = 1     # master switch (default off)
     *   shed.queue_high = 64    # arbiter backlog engaging shedding
     *   shed.queue_low  = 16    # backlog at which it may disengage
     *   shed.spm_high   = 0.90  # SPM occupancy fraction engaging
     *   shed.spm_low    = 0.70  # occupancy at which it may disengage
     * @throws FatalError on an unknown key under shed.
     */
    static ShedConfig fromConfig(const Config &cfg,
                                 ShedConfig base = defaults<ShedConfig>());
};

/** Shedder counters. */
struct ShedStats
{
    std::uint64_t engages = 0;     ///< transitions into shedding
    std::uint64_t disengages = 0;  ///< transitions out of shedding
    std::uint64_t rejects = 0;     ///< batch swap-outs refused
    std::uint64_t downTiers = 0;   ///< batch ops forced onto the CPU
};

/**
 * Hysteretic overload detector + class-aware shed policy.
 *
 * observe() feeds the current queue depth and SPM occupancy (called
 * from the arbiter's dispatch window and at submission time);
 * decide() classifies one submission while the detector is engaged.
 */
class OverloadShedder
{
  public:
    /** Disabled shedder: always admits. */
    OverloadShedder() = default;

    explicit OverloadShedder(const ShedConfig &cfg);

    bool enabled() const { return cfg_.enabled; }
    const ShedConfig &config() const { return cfg_; }

    /** Update the engaged/disengaged state from fresh signals. */
    void observe(std::size_t queued, double spm_fraction, Tick now);

    /** Currently shedding? */
    bool shedding() const { return shedding_; }

    /**
     * Classify one submission under the current state.
     *
     * @param latency_class the tenant is latency-sensitive (never
     *        shed; the whole point of shedding batch work).
     * @param is_swap_out   swap-outs are rejected (the page safely
     *        stays local); swap-ins must complete, so they are
     *        down-tiered to the CPU instead.
     */
    ShedDecision decide(bool latency_class, bool is_swap_out);

    const ShedStats &stats() const { return stats_; }

    /** Register counters + engaged gauge under `<prefix>.*`
     *  (no-op while disabled, keeping baseline namespaces stable). */
    void registerMetrics(obs::MetricRegistry &r,
                         const std::string &prefix);

    /** Attach a span tracer (null detaches): engage/disengage emit
     *  instantaneous Stage::Shed points (arg: 1=engage 0=disengage). */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

  private:
    ShedConfig cfg_{};
    bool shedding_ = false;
    ShedStats stats_{};
    obs::Tracer *tracer_ = nullptr;
    std::uint64_t trace_req_ = 0;
};

} // namespace health
} // namespace xfm

#endif // XFM_HEALTH_SHED_HH
