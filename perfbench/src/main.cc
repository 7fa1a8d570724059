/**
 * @file
 * xfm_perfbench: one benchmark episode per process.
 *
 * Usage:
 *   xfm_perfbench --workload fleet|swap_cpu|swap_nma --seed N
 *                 [--trace] [--spans FILE]
 *   xfm_perfbench --check-fleet-driver --seed N
 *
 * An episode prints one JSON line: host times, the simulated results
 * (exact for the seed), a fingerprint of them, the byte audit, and,
 * with --trace, the per-layer host times from the spans, which are
 * then written to FILE. perfbench/run.py repeats episodes and reports
 * medians. --check-fleet-driver exits 0 only when the benchmark's
 * fleet event source reproduces workload::FleetDriver's metric
 * snapshot byte for byte.
 */

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hh"

using namespace perfbench;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: xfm_perfbench --workload fleet|swap_cpu|swap_nma "
                 "--seed N [--trace] [--spans FILE]\n"
                 "       xfm_perfbench --check-fleet-driver --seed N\n");
    return 2;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void
printValues(const char *key, const Values &values)
{
    std::printf(", \"%s\": {", key);
    for (std::size_t i = 0; i < values.size(); ++i)
        std::printf("%s\"%s\": %.17g", i ? ", " : "",
                    values[i].first.c_str(), values[i].second);
    std::printf("}");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::string spans_path;
    std::uint64_t seed = 0;
    bool have_seed = false;
    bool trace = false;
    bool check_driver = false;
    for (int i = 1; i < argc; ++i) {
        const bool has_value = i + 1 < argc;
        if (!std::strcmp(argv[i], "--workload") && has_value) {
            workload_name = argv[++i];
        } else if (!std::strcmp(argv[i], "--seed") && has_value) {
            char *end = nullptr;
            seed = std::strtoull(argv[++i], &end, 10);
            have_seed = end && *end == '\0' && argv[i][0] != '-';
        } else if (!std::strcmp(argv[i], "--spans") && has_value) {
            spans_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--trace")) {
            trace = true;
        } else if (!std::strcmp(argv[i], "--check-fleet-driver")) {
            check_driver = true;
        } else {
            return usage();
        }
    }
    if (!have_seed)
        return usage();

    try {
        if (check_driver) {
            const bool same = fleetSourceMatchesDriver(seed);
            std::printf("{\"fleet_source_matches_driver\": %s}\n",
                        same ? "true" : "false");
            return same ? 0 : 1;
        }
        Workload w;
        if (!parseWorkload(workload_name, w))
            return usage();
        SpanLog spans(trace);
        const Episode ep = runEpisode(w, seed, spans);
        if (trace && !spans_path.empty() && !spans.write(spans_path)) {
            std::fprintf(stderr, "xfm_perfbench: cannot write %s\n",
                         spans_path.c_str());
            return 1;
        }
        std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                    ", \"traced\": %s, \"setup_s\": %.9f, "
                    "\"window_s\": %.9f, \"peak_rss_mb\": %.3f, "
                    "\"fingerprint\": \"%016" PRIx64 "\", "
                    "\"audit_pages\": %" PRIu64
                    ", \"audit_mismatches\": %" PRIu64,
                    workload_name.c_str(), seed, trace ? "true" : "false",
                    ep.setupS, ep.windowS, peakRssMb(), ep.fingerprint,
                    ep.auditPages, ep.auditMismatches);
        printValues("sim", ep.sim);
        printValues("host", ep.host);
        std::printf("}\n");
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "xfm_perfbench: %s\n", e.what());
        return 1;
    }
}
