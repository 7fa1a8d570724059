/**
 * @file
 * Shared per-rank swap-offload simulation harness used by the
 * Fig. 12 bench and the ablation benches.
 *
 * Models one rank's share of a large SFM: swap-in/out arrivals at a
 * configurable promotion rate drive compress/decompress offloads
 * through an XfmDriver + XfmDevice + RefreshController stack, with
 * a tuned-controller reservation calendar that books refresh-
 * aligned rows for every access whose placement the software
 * controls.
 */

#ifndef XFM_BENCH_SWAP_SIM_HH
#define XFM_BENCH_SWAP_SIM_HH

#include <algorithm>
#include <functional>
#include <map>

#include "dram/address_map.hh"
#include "dram/phys_mem.hh"
#include "dram/refresh.hh"
#include "fault/fault.hh"
#include "nma/xfm_device.hh"
#include "obs/registry.hh"
#include "workload/trace_gen.hh"
#include "xfm/xfm_driver.hh"

namespace xfm
{
namespace bench
{

/** One simulation point. */
struct SwapSimConfig
{
    double promotionRate = 0.5;
    std::uint32_t accessesPerTrfc = 3;
    std::uint32_t maxRandomPerWindow = 1;
    std::uint32_t trrRandomSlots = 0;
    std::size_t spmBytes = mib(8);
    /** Book compress/write-back rows against upcoming refresh
     *  windows (tuned controller). When false every access targets
     *  a pseudo-random row. */
    bool alignRows = true;
    /** Ablation: read SP_Capacity on every admission decision. */
    bool driverAlwaysSync = false;
    double rankShareGB = 32.0;  ///< this rank's slice of the SFM
    Tick simTime = milliseconds(100.0);
    Tick burstQuantum = milliseconds(1.0);
    /** Fault scenario (disarmed by default = seed behaviour). */
    fault::FaultPlan faults{};
    /** Driver retry policy for transient injected faults. */
    fault::RetryPolicy retry{};
};

/** Point outcome. */
struct SwapSimResult
{
    std::uint64_t ops = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t conditional = 0;
    std::uint64_t random = 0;
    std::uint64_t trrSlotsUsed = 0;
    std::uint64_t subarrayRetries = 0;
    std::uint64_t mmioCapacityReads = 0;
    std::uint64_t offloadsSubmitted = 0;
    double energySavedFraction = 0.0;
    std::uint64_t faultInjections = 0;
    std::uint64_t doorbellLosses = 0;
    std::uint64_t driverRetries = 0;
    std::uint64_t engineStalls = 0;

    double
    fallbackPercent() const
    {
        return ops ? 100.0 * static_cast<double>(fallbacks)
                         / static_cast<double>(ops)
                   : 0.0;
    }
    double
    conditionalShare() const
    {
        const auto total = conditional + random;
        return total ? static_cast<double>(conditional) / total : 0.0;
    }
};

/** Run one simulation point on a 32Gb-device single-rank DIMM. */
inline SwapSimResult
runSwapSim(const SwapSimConfig &sc)
{
    EventQueue eq;
    dram::MemSystemConfig mem_cfg;
    mem_cfg.rank.device = dram::ddr5Device32Gb();
    mem_cfg.channels = 1;
    mem_cfg.dimmsPerChannel = 1;
    mem_cfg.ranksPerDimm = 1;
    const auto &dev_cfg = mem_cfg.rank.device;

    dram::AddressMap map(mem_cfg);
    dram::PhysMem mem(mem_cfg.totalCapacityBytes());
    dram::RefreshController refresh("refresh", eq, dev_cfg, 1);

    nma::XfmDeviceConfig dcfg;
    dcfg.spmBytes = sc.spmBytes;
    dcfg.sqDepth = 16384;  // never the bottleneck: the SPM is
    dcfg.maxAccessesPerWindow = sc.accessesPerTrfc;
    dcfg.maxRandomPerWindow = sc.maxRandomPerWindow;
    dcfg.trrRandomSlots = sc.trrRandomSlots;
    dcfg.algorithm = compress::Algorithm::LzFast;
    dcfg.engine.modeledRatio = 3.0;  // timing study: size model
    nma::XfmDevice device("xfm", eq, dcfg, map, mem, refresh);
    xfmsys::XfmDriver driver(device);
    driver.setAlwaysSync(sc.driverAlwaysSync);
    fault::FaultInjector injector(sc.faults);
    device.setFaultInjector(&injector);
    driver.setFaultInjector(&injector);
    driver.setRetryPolicy(sc.retry);

    // Tuned-controller reservation calendar: window w serves at
    // most (accesses - randoms) conditional accesses; bursts spread
    // across future windows.
    std::uint64_t window_count = 0;
    refresh.addListener([&](const dram::RefreshWindow &) {
        ++window_count;
    });
    const std::uint32_t cond_budget =
        sc.accessesPerTrfc > sc.maxRandomPerWindow
        ? sc.accessesPerTrfc - sc.maxRandomPerWindow
        : 0;
    std::map<std::uint64_t, std::uint32_t> calendar;
    std::uint64_t scatter = 0;
    auto predict_row = [&](std::uint64_t lead) -> std::uint32_t {
        if (!sc.alignRows || cond_budget == 0) {
            return static_cast<std::uint32_t>(
                (++scatter * 977u) % dev_cfg.rowsPerBank);
        }
        std::uint64_t w = window_count + lead;
        while (calendar[w] >= cond_budget)
            ++w;
        const std::uint32_t sub = calendar[w]++;
        calendar.erase(calendar.begin(),
                       calendar.lower_bound(window_count));
        return static_cast<std::uint32_t>(
            (w * dev_cfg.rowsPerRefresh + sub)
            % dev_cfg.rowsPerBank);
    };
    auto addr_of_row = [&](std::uint32_t row) {
        dram::DramCoord c{};
        c.row = row;
        return map.encode(c);
    };

    std::uint64_t attempts = 0;
    std::uint64_t fallbacks = 0;
    driver.onComplete([&](const nma::OffloadCompletion &c) {
        if (c.kind == nma::OffloadKind::Compress)
            driver.commitWriteback(c.id,
                                   addr_of_row(predict_row(2)));
    });
    driver.onDrop(
        [&](nma::OffloadId, nma::DropReason) { ++fallbacks; });

    workload::SwapTraceConfig tcfg;
    tcfg.farCapacityGB = sc.rankShareGB;
    tcfg.promotionRate = sc.promotionRate;
    tcfg.predictability = 1.0;
    workload::SwapTraceGenerator trace(tcfg);

    const Tick compress_slack = dev_cfg.retention;
    const Tick decompress_slack = milliseconds(8.0);

    std::function<void()> pump = [&]() {
        const workload::SwapEvent ev = trace.next();
        const Tick when =
            ev.when / sc.burstQuantum * sc.burstQuantum;
        const Tick at = std::max(when, eq.now());
        eq.schedule(at, [&, ev]() {
            ++attempts;
            if (ev.kind == workload::SwapKind::SwapOut) {
                if (driver.xfmCompress(addr_of_row(predict_row(2)),
                                       4096,
                                       eq.now() + compress_slack)
                    == nma::invalidOffloadId)
                    ++fallbacks;
            } else {
                const auto src_row = static_cast<std::uint32_t>(
                    (ev.page * 2654435761u) % dev_cfg.rowsPerBank);
                if (driver.xfmDecompress(
                        addr_of_row(src_row), 1365,
                        addr_of_row(predict_row(2)), 4096,
                        eq.now() + decompress_slack)
                    == nma::invalidOffloadId)
                    ++fallbacks;
            }
            pump();
        });
    };

    refresh.start();
    pump();
    eq.run(sc.simTime);

    // Report through the observability layer: one registry over the
    // stack, read back from its snapshot like any external consumer.
    obs::MetricRegistry registry;
    device.registerMetrics(registry, "xfm");
    driver.registerMetrics(registry, "xfm.driver");
    injector.registerMetrics(registry, "fault");
    const obs::Snapshot snap = registry.snapshot();

    SwapSimResult r;
    r.ops = attempts;
    r.fallbacks = fallbacks;
    r.conditional = snap.u64("xfm.conditionalAccesses");
    r.random = snap.u64("xfm.randomAccesses");
    r.trrSlotsUsed = snap.u64("xfm.trrSlotsUsed");
    r.subarrayRetries = snap.u64("xfm.subarrayConflictRetries");
    r.mmioCapacityReads =
        snap.u64("xfm.driver.capacityRegisterReads");
    r.offloadsSubmitted = snap.u64("xfm.driver.offloadsSubmitted");
    r.energySavedFraction = snap.value("xfm.energySavedFraction");
    r.faultInjections = static_cast<std::uint64_t>(
        snap.value("fault.totalInjections"));
    r.doorbellLosses = snap.u64("xfm.driver.doorbellLosses");
    r.driverRetries = snap.u64("xfm.driver.retries");
    r.engineStalls = snap.u64("xfm.engineStalls");
    return r;
}

} // namespace bench
} // namespace xfm

#endif // XFM_BENCH_SWAP_SIM_HH
