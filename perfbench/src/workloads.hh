/**
 * @file
 * The benchmark's three workloads. Each episode builds its system from
 * the seed, warms it up, measures one timed window of fixed simulated
 * length, then audits every page byte for byte.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.hh"

namespace perfbench
{

enum class Workload
{
    Fleet,    ///< 256-tenant FarMemoryService, open loop
    SwapCpu,  ///< XfmBackend closed loop, CPU codec only
    SwapNma,  ///< XfmBackend closed loop, NMA offload at depth 8
};

/** Parse a workload name; false when unknown. */
bool parseWorkload(const std::string &name, Workload &out);

using Values = std::vector<std::pair<std::string, double>>;

/** Everything one episode measured. */
struct Episode
{
    double setupS = 0.0;    ///< host s: build, populate, warm up
    double windowS = 0.0;   ///< host s of the timed window
    /** Simulated results and counters: exact for a given seed. */
    Values sim;
    /** Per-layer host times from the spans (zero when untraced). */
    Values host;
    /** FNV-1a over the window's metric delta and the audit. */
    std::uint64_t fingerprint = 0;
    std::uint64_t auditPages = 0;       ///< pages compared
    std::uint64_t auditMismatches = 0;  ///< pages that differed
};

/** Run one episode of @p w from @p seed, recording into @p spans. */
Episode runEpisode(Workload w, std::uint64_t seed, SpanLog &spans);

/**
 * Run the fleet once with workload::FleetDriver and once with the
 * benchmark's own event source, for the same config, seed and
 * simulated horizon. Returns true when the two metric snapshots are
 * byte-identical.
 */
bool fleetSourceMatchesDriver(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
