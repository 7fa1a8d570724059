/**
 * @file
 * TierManager: the three-tier far-memory hierarchy governor.
 *
 * Generalises the two-state (local/far) swap path into the
 * NEAR / XFM / DFM lattice production far-memory stacks converge on
 * (SMDK-style CXL tiering; the paper's Sec. 3 SFM-vs-DFM trade
 * turned into a runtime policy):
 *
 *   NEAR --swapOut--> XFM     demote on coldness (controller scan)
 *   NEAR --swapOut--> DFM     demote truly-cold pages straight to
 *                             the spill tier (policy-routed)
 *   XFM  --spill---> DFM      second-level coldness (the
 *                             TierManager's own scan)
 *   XFM/DFM --swapIn--> NEAR  promote on fault / prefetch
 *
 * The TierManager is itself an SfmBackend: the controller above it
 * (kstaled or senpai) keeps calling swapOut/swapIn exactly as it
 * would on a two-state backend, and the manager routes each
 * operation to the primary compressed backend (CpuSfmBackend or
 * XfmBackend) or the owned DfmBackend spill tier using
 * access-frequency watermarks and one demotion-routing policy for
 * every page. Demotion routing and the spill scan are driven by a
 * senpai-style pressure loop: when promotions run hot the spill
 * batch backs off multiplicatively, when they run cold it probes
 * additively.
 *
 * Determinism contract: every transition commits in event order,
 * and a disabled TierManager is simply never constructed — `tiering
 * = off` runs are byte-identical to pre-tiering builds.
 */

#ifndef XFM_SFM_TIER_MANAGER_HH
#define XFM_SFM_TIER_MANAGER_HH

#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "dram/phys_mem.hh"
#include "obs/registry.hh"
#include "obs/tracer.hh"
#include "sfm/backend.hh"
#include "sfm/dfm_backend.hh"
#include "sim/sim_object.hh"

namespace xfm
{

namespace sfm
{

/** Demotion-routing policy of the hierarchy. */
enum class TierPolicy : std::uint8_t
{
    /** Watermark-routed: pages whose access count reached the
     *  promote watermark demote to XFM (cheap to bring back), the
     *  rest spill straight to DFM. */
    Auto,
    /** Always demote to the compressed tier first; only the spill
     *  scan ever moves pages to DFM. */
    XfmFirst,
    /** Demote straight to the spill tier (falls back to XFM when
     *  the statically provisioned pool is full). */
    DfmFirst,
};

const char *tierPolicyName(TierPolicy p);
/** Parse "auto" | "xfm_first" | "dfm_first" (fatal otherwise). */
TierPolicy tierPolicyFromString(const std::string &s);

/** Tuning of the tier hierarchy. */
struct TierConfig
{
    /** Master switch: off (the default) never constructs a
     *  TierManager, keeping runs byte-identical to two-state
     *  builds. */
    bool enabled = false;

    /** Demotion-routing policy of every page. */
    TierPolicy policy = TierPolicy::Auto;

    /** Accesses (since the page last changed tier) at which a page
     *  counts as hot: hot pages demote to XFM rather than DFM and
     *  are held back from spilling. */
    std::uint32_t promoteWatermark = 2;

    /** Spill-scan period (0 disables the maintenance scan). */
    Tick scanInterval = milliseconds(2.0);
    /** Second-level coldness: an XFM page untouched this long is a
     *  spill candidate. */
    Tick spillColdThreshold = milliseconds(40.0);
    /** Upper bound on the per-scan spill batch (the pressure loop
     *  adapts within [0, this]). */
    std::size_t maxSpillsPerScan = 16;

    /** Spill-tier pool capacity (the owned DfmBackend). */
    std::uint64_t dfmBytes = mib(8);

    /**
     * @p base with the tier.* keys applied to the fields above
     * (absent keys keep the base's value): tier.enabled,
     * tier.policy (auto | xfm_first | dfm_first),
     * tier.promote_watermark, tier.scan_ms, tier.spill_cold_ms,
     * tier.max_spills_per_scan, tier.dfm_bytes. The spill link's
     * faults come from the owner's plan (see TierManager).
     */
    static TierConfig fromConfig(const Config &cfg,
                                 TierConfig base = defaults<TierConfig>());
};

/** Tier-transition statistics. */
struct TierStats
{
    std::uint64_t demotedNearToXfm = 0;
    std::uint64_t demotedNearToDfm = 0;
    std::uint64_t demotedXfmToDfm = 0;   ///< spill-scan transitions
    std::uint64_t promotedFromXfm = 0;
    std::uint64_t promotedFromDfm = 0;
    std::uint64_t spillScans = 0;
    /** Spill legs that failed (pool full, link retries exhausted,
     *  busy primary) and left the page where promotion put it. */
    std::uint64_t spillRejects = 0;
    /** Spill candidates held in XFM by the frequency watermark. */
    std::uint64_t watermarkHolds = 0;
    std::uint64_t pressureBackoffs = 0;
    std::uint64_t pressureProbes = 0;
};

/**
 * Routes swaps across the NEAR/XFM/DFM hierarchy.
 *
 * Owns the spill tier (a DfmBackend over its own PhysMem) and wraps
 * the primary compressed backend by reference. `stats()` counts only
 * application-facing operations — internal spill legs (the XFM->DFM
 * scan) never inflate the promotion rate the paper's Sec. 2.1 metric
 * is computed from.
 */
class TierManager : public SimObject, public SfmBackend
{
  public:
    /**
     * Invoked after every committed tier transition.
     *
     * @param page     the (global) virtual page that moved
     * @param from,to  the transition edge
     * @param freedCompressedBytes bytes released from the primary
     *        compressed pool by this transition (non-zero only when
     *        `from == Tier::Xfm`)
     * @param internal true for scan-driven transitions no caller
     *        callback observes (the service layer reconciles tenant
     *        accounting from exactly these)
     */
    using TransitionHook =
        std::function<void(VirtPage page, Tier from, Tier to,
                           std::uint32_t freedCompressedBytes,
                           bool internal)>;

    /**
     * The spill link shares the run's @p faults plan with the
     * primary backend (its DfmLinkDelay / DfmLinkDrop sites are
     * disarmed unless the plan arms them).
     */
    TierManager(std::string name, EventQueue &eq,
                const TierConfig &cfg, SfmBackend &primary,
                std::uint64_t num_pages,
                const fault::FaultPlan &faults = {});

    /** Begin the periodic spill scan (no-op when scanInterval 0). */
    void start();

    // SfmBackend interface -------------------------------------------
    void swapOut(VirtPage page, bool allow_offload,
                 SwapCallback done) override;
    void swapIn(VirtPage page, bool allow_offload,
                SwapCallback done) override;
    PageState pageState(VirtPage page) const override;
    std::uint64_t farPageCount() const override
    {
        return xfm_pages_ + dfm_pages_;
    }
    std::uint64_t storedCompressedBytes() const override
    {
        return primary_.storedCompressedBytes();
    }
    const BackendStats &stats() const override { return stats_; }
    void noteAccess(VirtPage page, Tick now) override;
    Bytes readLocalPage(VirtPage page) const override
    {
        // Spill legs copy (never scramble) the primary frame, so it
        // holds current content for every tier, DFM included.
        return primary_.readLocalPage(page);
    }
    void writeLocalPage(VirtPage page, ByteSpan data) override
    {
        primary_.writeLocalPage(page, data);
    }

    // Tier control plane ---------------------------------------------
    Tier tier(VirtPage page) const { return tier_[page]; }
    std::uint64_t nearPages() const
    {
        return num_pages_ - xfm_pages_ - dfm_pages_;
    }
    std::uint64_t xfmPages() const { return xfm_pages_; }
    std::uint64_t dfmPages() const { return dfm_pages_; }
    /** Current pressure-adapted spill batch. */
    std::size_t spillBatch() const { return spill_batch_; }

    void setTransitionHook(TransitionHook hook)
    {
        hook_ = std::move(hook);
    }

    const TierStats &tierStats() const { return tier_stats_; }
    SfmBackend &primary() { return primary_; }
    DfmBackend &spill() { return *spill_; }
    const DfmBackend &spill() const { return *spill_; }

    /** Register tier metrics (`<name()>.tier.*`) plus the spill
     *  backend's own counters. */
    void registerMetrics(obs::MetricRegistry &r);

    /** Attach a span tracer to the transition stream and the spill
     *  link (null detaches). Does NOT touch the primary backend —
     *  its owner wires it separately. */
    void setTracer(obs::Tracer *t);

  private:
    /** Commit a transition: state, counters, hook, trace. The
     *  internal XFM -> DFM spill is implemented as two physical
     *  hops through NEAR; its hops pass @p record = false so the
     *  tier stats report one logical transition, not three. */
    void commit(VirtPage page, Tier to, std::uint32_t freed,
                bool internal, bool record = true);
    /** NEAR -> DFM data leg (shared by demotion and spill). */
    void spillLeg(VirtPage page, Tier from, std::uint32_t freed,
                  bool internal, SwapCallback done);
    void demoteToXfm(VirtPage page, bool allow_offload,
                     SwapCallback done);
    /** One XFM -> DFM spill: promote internally, then spill. */
    void spillFromXfm(VirtPage page);
    void spillScan();
    /** Reject @p page's operation with Busy, immediately. */
    void rejectBusy(VirtPage page, SwapCallback &done);

    TierConfig cfg_;
    SfmBackend &primary_;
    std::uint64_t num_pages_;
    bool started_ = false;

    /** Spill-tier storage: local mirror frames, then the pool. */
    std::unique_ptr<dram::PhysMem> spill_mem_;
    std::unique_ptr<DfmBackend> spill_;

    std::vector<Tier> tier_;
    std::vector<std::uint8_t> busy_;
    std::vector<Tick> last_access_;
    /** Accesses since the page last changed tier (saturating). */
    std::vector<std::uint32_t> access_count_;

    std::uint64_t xfm_pages_ = 0;
    std::uint64_t dfm_pages_ = 0;

    /** Pressure loop state. */
    std::size_t spill_batch_;
    std::uint64_t promotions_at_last_scan_ = 0;

    BackendStats stats_;       ///< application-facing operations only
    TierStats tier_stats_;
    TransitionHook hook_;
    obs::Tracer *tracer_ = nullptr;
};

} // namespace sfm
} // namespace xfm

#endif // XFM_SFM_TIER_MANAGER_HH
