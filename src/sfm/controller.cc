#include "controller.hh"

#include "common/logging.hh"

namespace xfm
{
namespace sfm
{

ControllerConfig
ControllerConfig::fromConfig(const Config &cfg, ControllerConfig base)
{
    ControllerConfig c = base;
    if (cfg.has("controller.cold_ms"))
        c.coldThreshold =
            milliseconds(cfg.getDouble("controller.cold_ms"));
    if (cfg.has("controller.scan_ms"))
        c.scanInterval =
            milliseconds(cfg.getDouble("controller.scan_ms"));
    c.prefetchDepth =
        cfg.getU64("controller.prefetch_depth", c.prefetchDepth);
    return c;
}

SfmController::SfmController(std::string name, EventQueue &eq,
                             const ControllerConfig &cfg,
                             SfmBackend &backend,
                             std::uint64_t num_pages)
    : SimObject(std::move(name), eq), cfg_(cfg), backend_(backend),
      num_pages_(num_pages), last_access_(num_pages, 0),
      inflight_(num_pages), prefetched_(num_pages),
      incompressible_(num_pages)
{
    XFM_ASSERT(num_pages_ > 0, "controller needs at least one page");
}

void
SfmController::start()
{
    if (started_)
        return;
    started_ = true;
    eventq().scheduleIn(cfg_.scanInterval, [this] { scan(); });
}

void
SfmController::scan()
{
    ++stats_.scans;
    std::size_t initiated = 0;
    for (VirtPage p = 0;
         p < num_pages_ && initiated < cfg_.maxSwapOutsPerScan; ++p) {
        if (backend_.pageState(p) != PageState::Local)
            continue;
        if (inflight_.test(p) || incompressible_.test(p))
            continue;
        if (curTick() - last_access_[p] < cfg_.coldThreshold)
            continue;
        ++stats_.coldPagesFound;
        ++stats_.swapOutsInitiated;
        ++initiated;
        inflight_.set(p);
        backend_.swapOut(p, true, [this, p](const SwapOutcome &o) {
            inflight_.clear(p);
            // Unchanged bytes would be refused again on every scan.
            if (o.rejected == RejectReason::Incompressible)
                incompressible_.set(p);
        });
    }
    eventq().scheduleIn(cfg_.scanInterval, [this] { scan(); });
}

void
SfmController::prefetchAround(VirtPage page)
{
    // Stride detection: two consecutive faults with the same delta
    // lock that delta in as the prefetch direction.
    if (cfg_.stridePrefetch && last_fault_ != ~VirtPage(0)) {
        const std::int64_t stride = static_cast<std::int64_t>(page)
            - static_cast<std::int64_t>(last_fault_);
        if (stride != 0 && stride == last_stride_) {
            if (confirmed_stride_ != stride) {
                confirmed_stride_ = stride;
                ++stats_.strideDetections;
            }
        }
        last_stride_ = stride;
    }
    last_fault_ = page;
    const std::int64_t step =
        cfg_.stridePrefetch ? confirmed_stride_ : 1;

    for (std::size_t d = 1; d <= cfg_.prefetchDepth; ++d) {
        const std::int64_t target = static_cast<std::int64_t>(page)
            + step * static_cast<std::int64_t>(d);
        if (target < 0
            || target >= static_cast<std::int64_t>(num_pages_))
            break;
        const VirtPage next = static_cast<VirtPage>(target);
        if (backend_.pageState(next) != PageState::Far)
            continue;
        if (inflight_.test(next))
            continue;
        ++stats_.prefetchesInitiated;
        inflight_.set(next);
        prefetched_.set(next);
        // Stamp the page so the next scan does not immediately
        // re-demote what we just promoted.
        last_access_[next] = curTick();
        backend_.swapIn(next, true,
                        [this, next](const SwapOutcome &) {
            inflight_.clear(next);
        });
    }
}

bool
SfmController::recordAccess(VirtPage page)
{
    XFM_ASSERT(page < num_pages_, "access beyond address space");
    last_access_[page] = curTick();
    incompressible_.clear(page);
    backend_.noteAccess(page, curTick());

    if (backend_.pageState(page) == PageState::Local) {
        if (prefetched_.clear(page)) {
            ++stats_.prefetchHits;
            // The stream advanced onto a prefetched page: keep the
            // stride detector trained and run further ahead.
            prefetchAround(page);
        }
        return true;
    }

    // Demand fault: synchronous CPU swap-in (do_offload deasserted),
    // then prefetch the pages a sequential scan would touch next.
    ++stats_.demandFaults;
    const Tick fault_start = curTick();
    if (!inflight_.test(page)) {
        inflight_.set(page);
        backend_.swapIn(page, false,
                        [this, page, fault_start](const SwapOutcome &o) {
            inflight_.clear(page);
            if (o.success)
                stats_.faultServiceNs.sample(
                    ticksToNs(o.completed - fault_start));
        });
    }
    prefetchAround(page);
    return false;
}

void
SfmController::registerMetrics(obs::MetricRegistry &r)
{
    const std::string p = name() + ".";
    r.counter(p + "scans", &stats_.scans);
    r.counter(p + "coldPagesFound", &stats_.coldPagesFound);
    r.counter(p + "swapOutsInitiated", &stats_.swapOutsInitiated);
    r.counter(p + "demandFaults", &stats_.demandFaults);
    r.counter(p + "prefetchesInitiated",
              &stats_.prefetchesInitiated);
    r.counter(p + "prefetchHits", &stats_.prefetchHits,
              "faults avoided by prefetch");
    r.counter(p + "strideDetections", &stats_.strideDetections,
              "non-unit strides locked");
    r.average(p + "faultServiceNs", &stats_.faultServiceNs,
              "demand swap-in latency");
}

} // namespace sfm
} // namespace xfm
