#include "senpai.hh"

#include <algorithm>

#include "common/logging.hh"

namespace xfm
{
namespace sfm
{
namespace
{

/** Control-loop period. */
constexpr Tick controlPeriod = milliseconds(1.0);
/** Target demand-fault pressure (faults per second). */
constexpr double targetFaultRate = 20000.0;
/** Reclaim batch (pages per interval) the loop starts from. */
constexpr std::size_t startingReclaim = 8;
/** Upper bound on the per-interval reclaim batch. */
constexpr std::size_t reclaimCeiling = 64;

/** Multiplicative reclaim-batch backoff when over the pressure
 *  target. */
constexpr double reclaimBackoff = 0.5;
/** Additive reclaim-batch probe when under the pressure target. */
constexpr std::size_t reclaimProbe = 4;

} // namespace

SenpaiController::SenpaiController(std::string name, EventQueue &eq,
                                   SfmBackend &backend,
                                   std::uint64_t num_pages)
    : SimObject(std::move(name), eq), backend_(backend),
      num_pages_(num_pages), reclaim_(startingReclaim),
      inflight_(num_pages, false)
{
    XFM_ASSERT(num_pages_ > 0, "need at least one page");
}

void
SenpaiController::start()
{
    if (started_)
        return;
    started_ = true;
    eventq().scheduleIn(controlPeriod, [this] { tick(); });
}

void
SenpaiController::tick()
{
    ++stats_.intervals;

    // Pressure feedback: fault rate over the last interval.
    const double faults_per_sec =
        static_cast<double>(faults_this_interval_)
        / ticksToSec(controlPeriod);
    faults_this_interval_ = 0;

    if (faults_per_sec > targetFaultRate) {
        // Over target: back off reclaim multiplicatively.
        reclaim_ = static_cast<std::size_t>(
            static_cast<double>(reclaim_) * reclaimBackoff);
        ++stats_.backoffs;
    } else {
        // Under target: probe more aggressively (additive).
        reclaim_ = std::min<std::size_t>(reclaimCeiling,
                                         reclaim_ + reclaimProbe);
        ++stats_.probes;
    }
    stats_.reclaimRate.sample(static_cast<double>(reclaim_));

    // Reclaim a batch of Local pages, clock-hand order.
    std::size_t done = 0;
    for (std::uint64_t scanned = 0;
         scanned < num_pages_ && done < reclaim_; ++scanned) {
        const VirtPage p = clock_hand_;
        clock_hand_ = (clock_hand_ + 1) % num_pages_;
        if (backend_.pageState(p) != PageState::Local
            || inflight_[p])
            continue;
        inflight_[p] = true;
        ++done;
        backend_.swapOut(p, true, [this, p](const SwapOutcome &) {
            inflight_[p] = false;
        });
    }
    stats_.reclaimed += done;

    eventq().scheduleIn(controlPeriod, [this] { tick(); });
}

bool
SenpaiController::recordAccess(VirtPage page)
{
    XFM_ASSERT(page < num_pages_, "access beyond address space");
    backend_.noteAccess(page, curTick());
    if (backend_.pageState(page) == PageState::Local)
        return true;

    ++stats_.demandFaults;
    ++faults_this_interval_;
    if (!inflight_[page]) {
        inflight_[page] = true;
        backend_.swapIn(page, false, [this, page](const SwapOutcome &) {
            inflight_[page] = false;
        });
    }
    return false;
}

void
SenpaiController::registerMetrics(obs::MetricRegistry &r)
{
    const std::string p = name() + ".";
    r.counter(p + "intervals", &stats_.intervals);
    r.counter(p + "reclaimed", &stats_.reclaimed);
    r.counter(p + "backoffs", &stats_.backoffs,
              "pressure over target");
    r.counter(p + "probes", &stats_.probes,
              "pressure under target");
    r.counter(p + "demandFaults", &stats_.demandFaults);
    r.average(p + "reclaimRate", &stats_.reclaimRate,
              "pages per interval");
    r.derived(p + "reclaimBatch",
              [this] { return static_cast<double>(reclaim_); },
              "current per-interval batch");
}

} // namespace sfm
} // namespace xfm
