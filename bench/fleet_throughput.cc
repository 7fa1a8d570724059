/**
 * @file
 * Fleet throughput scaling: service-layer behaviour as tenant count
 * grows 1 -> 16 on one shared set of XFM DIMMs.
 *
 * The contended resources are the per-tREFI offload slots and the
 * scratchpad: as tenants multiply, the QoS arbiter keeps the
 * latency class's fault tail flat while batch tenants absorb the
 * slowdown (CPU-fallback share rises). The closing table details
 * every tenant of the 16-way run: NMA vs CPU split, quota events,
 * and p99 demand-fault latency.
 *
 * Usage: fleet_throughput (no arguments)
 */

#include <cstdio>
#include <memory>
#include <string>

#include "dram/ddr_config.hh"
#include "obs/registry.hh"
#include "service/service.hh"
#include "workload/fleet.hh"

using namespace xfm;

namespace
{

constexpr double simMs = 40.0;

/** Registry namespace of one tenant's metrics. */
std::string
tenantPrefix(service::TenantId id)
{
    return "svc.tenant" + std::to_string(id) + ".";
}

service::ServiceConfig
makeServiceConfig(std::size_t max_tenants)
{
    service::ServiceConfig cfg;
    cfg.registry.maxTenants = max_tenants;
    cfg.registry.pagesPerShard = 512;
    cfg.system.numDimms = 4;
    cfg.system.sfmBase = gib(1);
    cfg.system.sfmBytes = mib(16);
    cfg.system.device.spmBytes = mib(2);
    cfg.batchSpmCapBytes = mib(4);
    return cfg;
}

struct RunResult
{
    std::unique_ptr<EventQueue> eq;
    std::unique_ptr<service::FarMemoryService> svc;
    std::unique_ptr<workload::FleetDriver> fleet;
};

RunResult
runFleet(std::size_t tenants)
{
    RunResult r;
    r.eq = std::make_unique<EventQueue>();
    r.svc = std::make_unique<service::FarMemoryService>(
        "svc", *r.eq, makeServiceConfig(tenants));
    workload::FleetConfig fcfg;
    fcfg.numTenants = tenants;
    fcfg.pagesPerTenant = 128;
    fcfg.accessesPerSecond = 100000.0;
    r.fleet = std::make_unique<workload::FleetDriver>("fleet", *r.eq,
                                                      *r.svc, fcfg);
    r.svc->start();
    r.fleet->start();
    r.eq->run(milliseconds(simMs));
    return r;
}

} // namespace

int
main(int argc, char **)
{
    if (argc > 1) {
        std::fprintf(stderr, "usage: fleet_throughput\n");
        return 1;
    }

    std::printf("Fleet throughput scaling (%.0f ms per point, "
                "100k touches/s/tenant)\n\n", simMs);
    std::printf("%8s %10s %12s %8s %8s %8s %10s %12s\n", "tenants",
                "accesses", "touches/s", "faults", "swapOps", "nma%",
                "preempt", "latP99Ns");

    RunResult last;
    obs::Snapshot last_snap;
    for (std::size_t n : {1u, 2u, 4u, 8u, 16u}) {
        RunResult r = runFleet(n);
        // All reported numbers come from the registry snapshot, the
        // same artifact xfmsim/fleet_sim export as stats.json.
        const obs::Snapshot snap = r.svc->metrics().snapshot();
        std::uint64_t accesses = 0, faults = 0, swap_ops = 0;
        std::uint64_t nma = 0, cpu = 0;
        double lat_p99 = 0.0;
        std::size_t lat_tenants = 0;
        for (std::size_t i = 0; i < r.fleet->numTenants(); ++i) {
            const auto id = r.fleet->tenantId(i);
            const std::string p = tenantPrefix(id);
            accesses += snap.u64(p + "accesses");
            faults += snap.u64(p + "demandFaults");
            swap_ops += snap.u64(p + "swapOuts")
                + snap.u64(p + "swapIns");
            nma += snap.u64(p + "nmaOps");
            cpu += snap.u64(p + "cpuOps");
            const auto &cfg = r.svc->registry().config(id);
            if (cfg.cls == service::PriorityClass::LatencySensitive) {
                lat_p99 += snap.value(p + "faultLatencyNs.p99");
                ++lat_tenants;
            }
        }
        const double nma_pct =
            nma + cpu ? 100.0 * nma / (nma + cpu) : 0.0;
        std::printf("%8zu %10llu %12.0f %8llu %8llu %7.1f%% %10llu "
                    "%12.0f\n",
                    n, (unsigned long long)accesses,
                    accesses / (simMs / 1000.0),
                    (unsigned long long)faults,
                    (unsigned long long)swap_ops, nma_pct,
                    (unsigned long long)
                        snap.u64("svc.arbiter.preemptions"),
                    lat_tenants ? lat_p99 / lat_tenants : 0.0);
        if (n == 16) {
            last = std::move(r);
            last_snap = snap;
        }
    }

    std::printf("\nPer-tenant detail at 16 tenants\n");
    std::printf("%-16s %8s %6s %9s %7s %7s %6s %8s %8s %10s\n",
                "tenant", "class", "wgt", "accesses", "faults",
                "nmaOps", "nma%", "qRej", "degrade", "p99Ns");
    for (std::size_t i = 0; i < last.fleet->numTenants(); ++i) {
        const auto id = last.fleet->tenantId(i);
        const auto &cfg = last.svc->registry().config(id);
        const std::string p = tenantPrefix(id);
        std::printf("%-16s %8s %6u %9llu %7llu %7llu %5.1f%% %8llu "
                    "%8llu %10.0f\n",
                    cfg.name.c_str(),
                    service::priorityClassName(cfg.cls), cfg.weight,
                    (unsigned long long)last_snap.u64(p + "accesses"),
                    (unsigned long long)
                        last_snap.u64(p + "demandFaults"),
                    (unsigned long long)last_snap.u64(p + "nmaOps"),
                    100.0 * last_snap.value(p + "nmaFraction"),
                    (unsigned long long)
                        last_snap.u64(p + "quotaRejects"),
                    (unsigned long long)
                        last_snap.u64(p + "degradedToCpu"),
                    last_snap.value(p + "faultLatencyNs.p99"));
    }
    return 0;
}
