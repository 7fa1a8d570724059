#include "sfm/tier_manager.hh"

#include <algorithm>
#include <utility>

#include "common/config.hh"

namespace xfm
{
namespace sfm
{
namespace
{

/** Pressure target: application promotions per second above which
 *  the spill batch backs off. */
constexpr double promotionTargetPerSec = 2000.0;
/** Multiplicative spill-batch backoff when over target. */
constexpr double spillBackoff = 0.5;
/** Additive spill-batch probe when under target. */
constexpr std::size_t spillProbe = 2;

/** Trace argument encoding a transition edge: from << 2 | to. */
std::uint64_t
edgeArg(Tier from, Tier to)
{
    return (static_cast<std::uint64_t>(from) << 2) |
           static_cast<std::uint64_t>(to);
}

} // namespace

const char *
tierPolicyName(TierPolicy p)
{
    switch (p) {
      case TierPolicy::Auto: return "auto";
      case TierPolicy::XfmFirst: return "xfm_first";
      case TierPolicy::DfmFirst: return "dfm_first";
    }
    return "unknown";
}

TierPolicy
tierPolicyFromString(const std::string &s)
{
    if (s == "auto")
        return TierPolicy::Auto;
    if (s == "xfm_first")
        return TierPolicy::XfmFirst;
    if (s == "dfm_first")
        return TierPolicy::DfmFirst;
    fatal("unknown tier policy '", s,
          "' (expected auto | xfm_first | dfm_first)");
}

TierConfig
TierConfig::fromConfig(const Config &cfg, TierConfig base)
{
    TierConfig t = base;
    t.enabled = cfg.getBool("tier.enabled", t.enabled);
    if (cfg.has("tier.policy"))
        t.policy = tierPolicyFromString(cfg.getString("tier.policy"));
    t.promoteWatermark =
        cfg.getU32("tier.promote_watermark", t.promoteWatermark);
    if (cfg.has("tier.scan_ms"))
        t.scanInterval = milliseconds(cfg.getDouble("tier.scan_ms"));
    if (cfg.has("tier.spill_cold_ms"))
        t.spillColdThreshold =
            milliseconds(cfg.getDouble("tier.spill_cold_ms"));
    t.maxSpillsPerScan = cfg.getU64("tier.max_spills_per_scan",
                                    t.maxSpillsPerScan);
    t.dfmBytes = cfg.getU64("tier.dfm_bytes", t.dfmBytes);
    return t;
}

TierManager::TierManager(std::string name, EventQueue &eq,
                         const TierConfig &cfg, SfmBackend &primary,
                         std::uint64_t num_pages,
                         const fault::FaultPlan &faults)
    : SimObject(std::move(name), eq), cfg_(cfg), primary_(primary),
      num_pages_(num_pages), tier_(num_pages, Tier::Near),
      busy_(num_pages, 0), last_access_(num_pages, 0),
      access_count_(num_pages, 0),
      spill_batch_(cfg.maxSpillsPerScan)
{
    // The spill tier mirrors every local frame (transition staging)
    // and appends the statically provisioned pool behind it.
    const std::uint64_t mirror = num_pages_ * pageBytes;
    spill_mem_ =
        std::make_unique<dram::PhysMem>(mirror + cfg_.dfmBytes);
    DfmBackendConfig dcfg;
    dcfg.localBase = 0;
    dcfg.localPages = num_pages_;
    dcfg.poolBase = mirror;
    dcfg.poolBytes = cfg_.dfmBytes;
    dcfg.faults = faults;
    spill_ = std::make_unique<DfmBackend>(this->name() + ".dfm", eq,
                                          dcfg, *spill_mem_);

    // The primary backend may reclaim Far pages outside any swap
    // operation (quarantine-cap eviction frees the poisoned image
    // and re-establishes the page from its local frames). Keep the
    // tier map coherent, or the next swap-in of a stale XFM entry
    // faults on a page the backend no longer holds.
    primary_.setReclaimHook(
        [this](VirtPage page, std::uint32_t freed) {
            if (tier_[page] == Tier::Xfm)
                commit(page, Tier::Near, freed, true);
        });
}

void
TierManager::start()
{
    if (started_)
        return;
    started_ = true;
    if (cfg_.scanInterval)
        eventq().scheduleIn(cfg_.scanInterval,
                            [this] { spillScan(); });
}

void
TierManager::noteAccess(VirtPage page, Tick now)
{
    last_access_[page] = now;
    if (access_count_[page] != ~0u)
        ++access_count_[page];
}

PageState
TierManager::pageState(VirtPage page) const
{
    return tier_[page] == Tier::Near ? PageState::Local
                                     : PageState::Far;
}

void
TierManager::commit(VirtPage page, Tier to, std::uint32_t freed,
                    bool internal, bool record)
{
    const Tier from = tier_[page];
    if (from == to)
        return;
    tier_[page] = to;
    if (from == Tier::Xfm)
        --xfm_pages_;
    else if (from == Tier::Dfm)
        --dfm_pages_;
    if (to == Tier::Xfm)
        ++xfm_pages_;
    else if (to == Tier::Dfm)
        ++dfm_pages_;

    // A tier change resets the frequency estimate: demoted pages
    // must re-earn hotness, promoted pages start from their fault.
    access_count_[page] = to == Tier::Near ? 1 : access_count_[page] / 2;

    if (record) {
        switch (to) {
          case Tier::Near:
            if (from == Tier::Xfm)
                ++tier_stats_.promotedFromXfm;
            else
                ++tier_stats_.promotedFromDfm;
            break;
          case Tier::Xfm:
            ++tier_stats_.demotedNearToXfm;
            break;
          case Tier::Dfm:
            if (from == Tier::Near)
                ++tier_stats_.demotedNearToDfm;
            else
                ++tier_stats_.demotedXfmToDfm;
            break;
        }
    }

    if (tracer_)
        tracer_->point(tracer_->begin(), obs::Stage::TierShift,
                       curTick(), edgeArg(from, to));
    if (hook_)
        hook_(page, from, to, freed, internal);
}

void
TierManager::rejectBusy(VirtPage page, SwapCallback &done)
{
    SwapOutcome o;
    o.page = page;
    o.success = false;
    o.completed = curTick();
    o.rejected = RejectReason::Busy;
    ++stats_.rejectedSwapOuts;
    if (done)
        done(o);
}

void
TierManager::demoteToXfm(VirtPage page, bool allow_offload,
                         SwapCallback done)
{
    busy_[page] = 1;
    primary_.swapOut(
        page, allow_offload,
        [this, page, done = std::move(done)](const SwapOutcome &o) {
            busy_[page] = 0;
            ++stats_.swapOuts;
            if (o.success) {
                commit(page, Tier::Xfm, 0, false);
                if (o.usedCpu)
                    ++stats_.cpuSwapOuts;
                stats_.bytesCompressed += pageBytes;
            } else {
                ++stats_.rejectedSwapOuts;
            }
            if (done)
                done(o);
        });
}

void
TierManager::spillLeg(VirtPage page, Tier from, std::uint32_t freed,
                      bool internal, SwapCallback done)
{
    // Stage the current frame content into the spill tier's mirror,
    // then push it across the link. The primary frame is left
    // untouched (non-destructive invariant): it keeps holding the
    // authoritative bytes while the page sits in DFM.
    spill_->writeLocalPage(page, primary_.readLocalPage(page));
    spill_->swapOut(
        page, true, [this, page, from, freed, internal,
                     done = std::move(done)](const SwapOutcome &o) {
            busy_[page] = 0;
            if (!internal) {
                ++stats_.swapOuts;
                if (o.success)
                    ++stats_.cpuSwapOuts;
                else
                    ++stats_.rejectedSwapOuts;
            }
            if (o.success) {
                commit(page, Tier::Dfm, freed, internal, !internal);
                if (internal)
                    ++tier_stats_.demotedXfmToDfm;
            } else {
                ++tier_stats_.spillRejects;
                // An internal spill already promoted the page out of
                // XFM; it stays Near (committed by the caller).
            }
            SwapOutcome out = o;
            out.servedTier = Tier::Dfm;
            out.compressedSize = 0;
            out.usedCpu = true;
            if (done)
                done(out);
        });
}

void
TierManager::swapOut(VirtPage page, bool allow_offload,
                     SwapCallback done)
{
    if (tier_[page] != Tier::Near)
        fatal(name(), ": swapOut of non-NEAR page ", page, " (",
              tierName(tier_[page]), ")");
    if (busy_[page]) {
        rejectBusy(page, done);
        return;
    }

    bool to_dfm = false;
    switch (cfg_.policy) {
      case TierPolicy::XfmFirst:
        break;
      case TierPolicy::DfmFirst:
        to_dfm = true;
        break;
      case TierPolicy::Auto:
        // Hot pages go to the cheap-to-recover compressed tier;
        // cold strangers spill straight to DFM.
        to_dfm = access_count_[page] < cfg_.promoteWatermark;
        break;
    }
    if (to_dfm && spill_->freeSlots() == 0)
        to_dfm = false;  // statically provisioned pool is full

    if (to_dfm) {
        busy_[page] = 1;
        spillLeg(page, Tier::Near, 0, false, std::move(done));
    } else {
        demoteToXfm(page, allow_offload, std::move(done));
    }
}

void
TierManager::swapIn(VirtPage page, bool allow_offload,
                    SwapCallback done)
{
    if (tier_[page] == Tier::Near)
        fatal(name(), ": swapIn of NEAR page ", page);
    if (busy_[page]) {
        rejectBusy(page, done);
        return;
    }

    if (tier_[page] == Tier::Xfm) {
        busy_[page] = 1;
        primary_.swapIn(
            page, allow_offload,
            [this, page,
             done = std::move(done)](const SwapOutcome &o) {
                busy_[page] = 0;
                ++stats_.swapIns;
                if (o.success) {
                    commit(page, Tier::Near, o.compressedSize, false);
                    if (o.usedCpu)
                        ++stats_.cpuSwapIns;
                    stats_.bytesDecompressed += pageBytes;
                }
                if (done)
                    done(o);
            });
        return;
    }

    // DFM promotion: pull the page across the link, then restore the
    // primary frame from the spill mirror.
    busy_[page] = 1;
    spill_->swapIn(
        page, false,
        [this, page, done = std::move(done)](const SwapOutcome &o) {
            busy_[page] = 0;
            ++stats_.swapIns;
            if (o.success) {
                primary_.writeLocalPage(page,
                                        spill_->readLocalPage(page));
                commit(page, Tier::Near, 0, false);
                ++stats_.cpuSwapIns;
                stats_.bytesDecompressed += pageBytes;
            }
            SwapOutcome out = o;
            out.servedTier = Tier::Dfm;
            out.compressedSize = 0;
            out.usedCpu = true;
            if (done)
                done(out);
        });
}

void
TierManager::spillFromXfm(VirtPage page)
{
    // Two-leg internal transition: decompress out of the primary
    // pool (offload allowed — this is maintenance, not a demand
    // fault), then push the restored frame across the link. If the
    // link leg fails the page simply stays Near: its frame is intact
    // and the next cold scan will demote it again.
    busy_[page] = 1;
    primary_.swapIn(
        page, true, [this, page](const SwapOutcome &o) {
            if (!o.success) {
                busy_[page] = 0;
                ++tier_stats_.spillRejects;
                return;
            }
            const std::uint32_t freed = o.compressedSize;
            commit(page, Tier::Near, freed, true, false);
            spillLeg(page, Tier::Xfm, 0, true, nullptr);
        });
}

void
TierManager::spillScan()
{
    ++tier_stats_.spillScans;

    // Senpai-style pressure loop: promotions faster than the target
    // mean the spill tier is eating hot pages — back off
    // multiplicatively. Quiet intervals probe the batch back up.
    const std::uint64_t promoted = stats_.swapIns;
    const double interval_s = static_cast<double>(cfg_.scanInterval) /
                              static_cast<double>(seconds(1.0));
    const double rate =
        static_cast<double>(promoted - promotions_at_last_scan_) /
        interval_s;
    promotions_at_last_scan_ = promoted;
    if (rate > promotionTargetPerSec) {
        spill_batch_ = static_cast<std::size_t>(
            static_cast<double>(spill_batch_) * spillBackoff);
        ++tier_stats_.pressureBackoffs;
    } else if (spill_batch_ < cfg_.maxSpillsPerScan) {
        spill_batch_ = std::min(cfg_.maxSpillsPerScan,
                                spill_batch_ + spillProbe);
        ++tier_stats_.pressureProbes;
    }

    std::size_t budget = spill_batch_;
    const Tick now = curTick();

    // Second-level coldness, in ascending page order for
    // determinism: XFM pages untouched past the threshold spill,
    // unless the frequency watermark holds them back. Under
    // xfm_first nothing spills.
    if (cfg_.policy == TierPolicy::XfmFirst)
        budget = 0;
    for (VirtPage p = 0; p < num_pages_ && budget; ++p) {
        if (tier_[p] != Tier::Xfm || busy_[p])
            continue;
        if (now - last_access_[p] < cfg_.spillColdThreshold)
            continue;
        if (access_count_[p] >= cfg_.promoteWatermark) {
            ++tier_stats_.watermarkHolds;
            continue;
        }
        --budget;
        spillFromXfm(p);
    }

    eventq().scheduleIn(cfg_.scanInterval, [this] { spillScan(); });
}

void
TierManager::registerMetrics(obs::MetricRegistry &r)
{
    const std::string p = name() + ".tier.";
    r.counter(p + "demotedNearToXfm", &tier_stats_.demotedNearToXfm,
              "pages demoted NEAR -> XFM (compressed tier)");
    r.counter(p + "demotedNearToDfm", &tier_stats_.demotedNearToDfm,
              "pages demoted NEAR -> DFM (spill tier)");
    r.counter(p + "demotedXfmToDfm", &tier_stats_.demotedXfmToDfm,
              "pages spilled XFM -> DFM by the maintenance scan");
    r.counter(p + "promotedFromXfm", &tier_stats_.promotedFromXfm,
              "pages promoted XFM -> NEAR");
    r.counter(p + "promotedFromDfm", &tier_stats_.promotedFromDfm,
              "pages promoted DFM -> NEAR");
    r.counter(p + "spillScans", &tier_stats_.spillScans,
              "spill-scan passes executed");
    r.counter(p + "spillRejects", &tier_stats_.spillRejects,
              "spill legs that failed and left the page in place");
    r.counter(p + "watermarkHolds", &tier_stats_.watermarkHolds,
              "spill candidates held in XFM by the watermark");
    r.counter(p + "pressureBackoffs", &tier_stats_.pressureBackoffs,
              "spill-batch multiplicative backoffs");
    r.counter(p + "pressureProbes", &tier_stats_.pressureProbes,
              "spill-batch additive probes");
    r.derived(p + "nearPages",
              [this] { return static_cast<double>(nearPages()); },
              "pages currently resident in near DRAM");
    r.derived(p + "xfmPages",
              [this] { return static_cast<double>(xfm_pages_); },
              "pages currently in the compressed tier");
    r.derived(p + "dfmPages",
              [this] { return static_cast<double>(dfm_pages_); },
              "pages currently in the spill tier");
    r.derived(p + "spillBatch",
              [this] {
                  return static_cast<double>(spill_batch_);
              },
              "current pressure-adapted spill batch");
    spill_->registerMetrics(r);
}

void
TierManager::setTracer(obs::Tracer *t)
{
    tracer_ = t;
    spill_->setTracer(t);
}

} // namespace sfm
} // namespace xfm
