#include "dfm_backend.hh"

#include "common/logging.hh"

namespace xfm
{
namespace sfm
{
namespace
{

/** One-way interconnect latency (CXL class: ~300 ns). */
constexpr Tick interconnectLatency = nanoseconds(300.0);
/** Link bandwidth in GB/s (x8 CXL/PCIe5 class). */
constexpr double interconnectGBps = 12.0;
/** Extra latency a DfmLinkDelay injection adds to a transfer. */
constexpr Tick linkSpikePenalty = nanoseconds(2000.0);

} // namespace

DfmBackend::DfmBackend(std::string name, EventQueue &eq,
                       const DfmBackendConfig &cfg,
                       dram::PhysMem &mem)
    : SimObject(std::move(name), eq), cfg_(cfg), mem_(mem),
      injector_(cfg.faults)
{
    XFM_ASSERT(cfg_.localPages > 0, "local region must be non-empty");
    XFM_ASSERT(cfg_.poolBytes >= pageBytes,
               "pool must hold at least one page");
    // Static provisioning: pre-build the slot free list.
    free_slots_.reserve(poolSlots());
    for (std::uint64_t s = poolSlots(); s-- > 0;)
        free_slots_.push_back(s);
}

Tick
DfmBackend::pageTransferTime() const
{
    const double ns = static_cast<double>(pageBytes) / interconnectGBps;
    return interconnectLatency + nanoseconds(ns);
}

bool
DfmBackend::transferPage(Tick &total, std::uint32_t &retries)
{
    total = pageTransferTime();
    retries = 0;
    if (!injector_.armed())
        return true;
    for (std::uint32_t attempt = 1;; ++attempt) {
        if (injector_.shouldInject(fault::FaultSite::DfmLinkDelay)) {
            ++fault_stats_.linkDelays;
            total += linkSpikePenalty;
        }
        if (!injector_.shouldInject(fault::FaultSite::DfmLinkDrop))
            return true;
        ++fault_stats_.linkDrops;
        if (attempt >= fault::transientAttempts) {
            ++fault_stats_.deliveryFailures;
            return false;
        }
        ++fault_stats_.linkRetries;
        ++retries;
        total += fault::retryBackoff(attempt - 1) + pageTransferTime();
    }
}

void
DfmBackend::swapOut(VirtPage page, bool allow_offload,
                    SwapCallback done)
{
    (void)allow_offload;  // no accelerator on the DFM path
    XFM_ASSERT(page < cfg_.localPages, "page out of range");
    if (entries_.count(page))
        fatal("swapOut: page ", page, " already in far memory");

    SwapOutcome outcome;
    outcome.page = page;
    if (free_slots_.empty()) {
        // Statically provisioned pool is full: nothing reclaims it.
        ++stats_.rejectedSwapOuts;
        outcome.success = false;
        outcome.completed = curTick();
        if (done)
            done(outcome);
        return;
    }
    Tick total;
    std::uint32_t retries;
    const bool delivered = transferPage(total, retries);
    outcome.retries = retries;
    std::uint64_t tid = 0;
    if (tracer_) {
        tid = tracer_->begin();
        tracer_->record(tid, obs::Stage::SwapOut, curTick(),
                        curTick() + total);
        tracer_->record(tid, obs::Stage::DfmLink, curTick(),
                        curTick() + total, retries);
    }
    if (!delivered) {
        // Retries exhausted: the page stays Local and the slot stays
        // free; the caller sees the failure after the wasted link
        // time and can degrade.
        outcome.success = false;
        eventq().scheduleIn(total, [outcome, done, tid,
                                    this]() mutable {
            outcome.completed = curTick();
            if (tracer_ && tid)
                tracer_->point(tid, obs::Stage::Complete, curTick(),
                               obs::outcomeFailed);
            if (done)
                done(outcome);
        });
        return;
    }
    const std::uint64_t slot = free_slots_.back();
    free_slots_.pop_back();

    const Bytes raw = mem_.read(frameAddr(page), pageBytes);
    mem_.write(cfg_.poolBase + slot * pageBytes, raw);
    entries_.emplace(page, slot);
    ++stats_.swapOuts;
    outcome.success = true;
    outcome.compressedSize = pageBytes;  // uncompressed slot

    eventq().scheduleIn(total, [outcome, done, tid,
                                this]() mutable {
        outcome.completed = curTick();
        if (tracer_ && tid)
            tracer_->point(tid, obs::Stage::Complete, curTick(),
                           obs::outcomeCpu);
        if (done)
            done(outcome);
    });
}

void
DfmBackend::swapIn(VirtPage page, bool allow_offload,
                   SwapCallback done)
{
    (void)allow_offload;  // no accelerator on the DFM path
    auto it = entries_.find(page);
    if (it == entries_.end())
        fatal("swapIn: page ", page, " is not in far memory");

    SwapOutcome outcome;
    outcome.page = page;

    Tick total;
    std::uint32_t retries;
    const bool delivered = transferPage(total, retries);
    outcome.retries = retries;
    std::uint64_t tid = 0;
    if (tracer_) {
        tid = tracer_->begin();
        tracer_->record(tid, obs::Stage::SwapIn, curTick(),
                        curTick() + total);
        tracer_->record(tid, obs::Stage::DfmLink, curTick(),
                        curTick() + total, retries);
    }
    if (!delivered) {
        // The pool copy is intact; the page stays Far so a later
        // swap-in can still recover it once the link heals.
        outcome.success = false;
        eventq().scheduleIn(total, [outcome, done, tid,
                                    this]() mutable {
            outcome.completed = curTick();
            if (tracer_ && tid)
                tracer_->point(tid, obs::Stage::Complete, curTick(),
                               obs::outcomeFailed);
            if (done)
                done(outcome);
        });
        return;
    }
    const std::uint64_t slot = it->second;
    const Bytes raw =
        mem_.read(cfg_.poolBase + slot * pageBytes, pageBytes);
    mem_.write(frameAddr(page), raw);
    free_slots_.push_back(slot);
    entries_.erase(it);
    ++stats_.swapIns;
    outcome.success = true;
    outcome.compressedSize = pageBytes;
    eventq().scheduleIn(total, [outcome, done, tid,
                                this]() mutable {
        outcome.completed = curTick();
        if (tracer_ && tid)
            tracer_->point(tid, obs::Stage::Complete, curTick(),
                           obs::outcomeCpu);
        if (done)
            done(outcome);
    });
}

PageState
DfmBackend::pageState(VirtPage page) const
{
    return entries_.count(page) ? PageState::Far : PageState::Local;
}

void
DfmBackend::registerMetrics(obs::MetricRegistry &r)
{
    const std::string p = name() + ".";
    r.counter(p + "swapOuts", &stats_.swapOuts);
    r.counter(p + "swapIns", &stats_.swapIns);
    r.counter(p + "rejectedSwapOuts", &stats_.rejectedSwapOuts,
              "pool statically full");
    r.counter(p + "link.delays", &fault_stats_.linkDelays,
              "injected latency spikes");
    r.counter(p + "link.drops", &fault_stats_.linkDrops,
              "injected transfer drops");
    r.counter(p + "link.retries", &fault_stats_.linkRetries);
    r.counter(p + "link.deliveryFailures",
              &fault_stats_.deliveryFailures,
              "retry budget exhausted");
    r.derived(p + "pagesFar",
              [this] { return static_cast<double>(farPageCount()); });
    r.derived(p + "pool.freeSlots",
              [this] { return static_cast<double>(freeSlots()); });
}

} // namespace sfm
} // namespace xfm
