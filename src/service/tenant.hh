/**
 * @file
 * Tenant identity, priority classes, quotas, and per-tenant service
 * statistics for the multi-tenant far-memory service layer.
 *
 * A datacenter SFM deployment (paper Sec. 2.1: Google's zswap fleet,
 * Meta's TMO/senpai) runs far memory for many jobs at once. Each
 * tenant here models one job: it owns a shard of the shared
 * backend's page table, a control-plane policy (kstaled-style or
 * senpai-style), a priority class, and resource quotas the service
 * enforces against the shared NMA-equipped DIMMs.
 */

#ifndef XFM_SERVICE_TENANT_HH
#define XFM_SERVICE_TENANT_HH

#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "common/units.hh"
#include "sfm/controller.hh"

namespace xfm
{
namespace service
{

/** Identifier of an admitted tenant (index into the registry). */
using TenantId = std::uint32_t;

/** Returned by admission control when a tenant is rejected. */
constexpr TenantId invalidTenant = ~TenantId(0);

/** Scheduling class of a tenant. */
enum class PriorityClass
{
    LatencySensitive,  ///< preempts batch work for offload slots
    Batch,             ///< weighted round-robin over leftover slots
};

/** Human-readable class name for stats tables. */
const char *priorityClassName(PriorityClass cls);

/** Which SFM control-plane policy drives the tenant's reclaim. */
enum class ControlPolicy
{
    Kstaled,  ///< cold-age scanning (Google-style)
    Senpai,   ///< pressure feedback (Meta-style)
};

/** Per-tenant resource quotas enforced by the service. */
struct TenantQuota
{
    /** Pages the tenant may hold compressed in the shared SFM
     *  region; swap-outs beyond this are rejected. */
    std::uint64_t maxFarPages = 1ull << 20;
    /**
     * Worst-case SPM staging bytes the tenant may have in flight.
     * Offloads beyond this degrade to the CPU path instead of
     * queueing (the "degrade, don't starve others" rule).
     */
    std::uint64_t spmBytes = 16 * pageBytes;
    /** Offload dispatches the arbiter grants per tREFI window. */
    std::uint32_t offloadSlotsPerTrefi = 2;
};

/** Static description of one tenant. */
struct TenantConfig
{
    std::string name = "tenant";
    PriorityClass cls = PriorityClass::Batch;
    /** WRR weight within the Batch class (ignored for latency). */
    std::uint32_t weight = 1;
    /** Virtual pages in the tenant's page-table shard. */
    std::uint64_t pages = 256;
    TenantQuota quota;
    ControlPolicy policy = ControlPolicy::Kstaled;
    sfm::ControllerConfig kstaled;
};

/**
 * Per-tenant service statistics (the ServiceStats layer).
 *
 * Demand-fault latency feeds a histogram so the stats table can
 * report p50/p99 per tenant, the SLO-style metric a fleet operator
 * watches.
 */
struct TenantStats
{
    std::uint64_t accesses = 0;
    std::uint64_t localHits = 0;
    std::uint64_t demandFaults = 0;
    std::uint64_t swapOuts = 0;
    std::uint64_t swapIns = 0;
    std::uint64_t nmaOps = 0;          ///< served by the NMA
    std::uint64_t cpuOps = 0;          ///< CPU path (incl. fallback)
    std::uint64_t quotaRejects = 0;    ///< far-page quota exceeded
    std::uint64_t degradedToCpu = 0;   ///< SPM quota exceeded
    /** Offload-eligible operations that ended on the CPU because the
     *  backend fell back (capacity, deadline, or injected fault). */
    std::uint64_t nmaFallbacks = 0;
    /** Driver/link re-submissions this tenant's operations consumed
     *  (non-zero only under fault injection). */
    std::uint64_t offloadRetries = 0;
    /** Operations that failed outright (e.g. quarantined page). */
    std::uint64_t faultedOps = 0;
    /** Swap-outs refused with Rejected{AbuseThrottle} while the
     *  abuse detector held this tenant throttled. */
    std::uint64_t abuseRejects = 0;
    /** Swap-ins forced onto the CPU path while throttled (faults
     *  must still complete; only the offload privilege is lost). */
    std::uint64_t abuseDownTiers = 0;
    /** Application swap ops the DFM spill tier served (tiered
     *  service only). */
    std::uint64_t dfmOps = 0;
    /** Transitions of this tenant's pages into the spill tier
     *  (application demotions plus internal XFM -> DFM spills). */
    std::uint64_t dfmSpills = 0;
    /** Transitions of this tenant's pages out of the spill tier. */
    std::uint64_t dfmReturns = 0;
    /** Demand swap-in service latency in nanoseconds. */
    stats::Histogram faultLatencyNs{0.0, 100000.0, 400};
    /** Queueing delay in the QoS arbiter. */
    stats::Average arbiterWaitNs;

    /** Fraction of swap operations the NMA handled. */
    double
    nmaFraction() const
    {
        const auto total = nmaOps + cpuOps;
        return total ? static_cast<double>(nmaOps) / total : 0.0;
    }
};

} // namespace service
} // namespace xfm

#endif // XFM_SERVICE_TENANT_HH
