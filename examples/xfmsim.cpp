/**
 * @file
 * xfmsim: config-file-driven full-system simulator CLI.
 *
 * Runs a zipfian application over a complete SFM deployment
 * (baseline CPU or XFM backend) and dumps the statistics of every
 * component, gem5-style.
 *
 * Usage:
 *   ./build/examples/xfmsim [config-file]
 *
 * Config keys (all optional; configs/ holds examples). The run keys
 * are read here:
 *   workload.seconds = 0.3     workload.rps  = 20000
 *   workload.zipf    = 0.9     workload.seed = 1
 *   verify           = 0       # end-of-run page audit (exit 1 on
 *                              # any corrupt page)
 * Every other key is documented on its parser:
 * system::SystemConfig::fromConfig (and the parsers it names) and
 * obs::RunSinks. xfmsim's base differs from the struct defaults in
 * xfm.accesses_per_trfc = 3, controller.cold_ms = 20 and
 * controller.scan_ms = 2.
 */

#include <cstdio>
#include <string>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "compress/corpus.hh"
#include "obs/sinks.hh"
#include "system/system.hh"

using namespace xfm;
using namespace xfm::system;

namespace
{

int
run(int argc, char **argv)
{
    Config cfg = argc > 1 ? Config::parseFile(argv[1])
                          : Config::parseString("");

    SystemConfig base;
    base.xfm.device.maxAccessesPerWindow = 3;
    base.controller.coldThreshold = milliseconds(20.0);
    base.controller.scanInterval = milliseconds(2.0);
    const SystemConfig sys_cfg = SystemConfig::fromConfig(cfg, base);
    obs::RunSinks sinks(cfg);
    const bool verify = cfg.getBool("verify", false);

    const double run_seconds =
        cfg.getDouble("workload.seconds", 0.3);
    const double rps = cfg.getDouble("workload.rps", 20000.0);
    const double zipf = cfg.getDouble("workload.zipf", 0.9);
    const std::uint64_t seed = cfg.getU64("workload.seed", 1);

    cfg.requireAllConsumed();

    EventQueue eq;
    System sys("xfmsim", eq, sys_cfg);
    if (obs::Tracer *tracer = sinks.tracer())
        sys.setTracer(tracer);
    for (sfm::VirtPage p = 0; p < sys_cfg.pages; ++p) {
        sys.writePage(p, compress::generateCorpus(
                             compress::CorpusKind::Json, p,
                             pageBytes));
    }
    sys.start();

    std::printf("xfmsim: backend=%s pages=%llu run=%.2fs "
                "rps=%.0f zipf=%.2f\n\n",
                sys_cfg.backend == BackendKind::Xfm ? "xfm" : "baseline",
                (unsigned long long)sys_cfg.pages, run_seconds, rps,
                zipf);

    // Drive the application.
    Rng rng(seed);
    const Tick gap = static_cast<Tick>(1e12 / rps);
    std::uint64_t hits = 0;
    std::uint64_t faults = 0;
    std::function<void(Tick)> drive = [&](Tick when) {
        if (when > seconds(run_seconds))
            return;
        eq.schedule(when, [&, when] {
            const auto page = rng.zipf(sys_cfg.pages, zipf);
            if (sys.access(page))
                ++hits;
            else
                ++faults;
            drive(when + gap);
        });
    };
    drive(gap);
    eq.run(seconds(run_seconds) + milliseconds(50.0));

    const obs::Snapshot snap = sys.metrics().snapshot();
    std::printf("%s", snap.renderText().c_str());
    const std::string trace_line = sinks.write(snap);
    if (!trace_line.empty())
        std::printf("\n%s\n", trace_line.c_str());
    std::printf("\napplication: %llu accesses, %.2f%% local hit "
                "rate\n",
                (unsigned long long)(hits + faults),
                hits + faults
                    ? 100.0 * static_cast<double>(hits)
                          / (hits + faults)
                    : 0.0);

    if (verify) {
        // Data-integrity audit: every page frame must hold exactly
        // the corpus it was seeded with. Swap-outs copy (never
        // scramble) the frame and every swap-in rewrites it whole,
        // so this holds for Local and Far pages alike; a page that
        // round-tripped through compression, fault injection,
        // watchdog drops, channel offlining, or quarantine eviction
        // and reads back different is a correctness bug, not noise.
        std::uint64_t corrupt = 0;
        for (sfm::VirtPage p = 0; p < sys_cfg.pages; ++p) {
            const Bytes expect = compress::generateCorpus(
                compress::CorpusKind::Json, p, pageBytes);
            if (sys.readPage(p) != expect)
                ++corrupt;
        }
        std::printf("\nverify: %llu pages audited, %llu corrupt\n",
                    (unsigned long long)sys_cfg.pages,
                    (unsigned long long)corrupt);
        if (corrupt > 0)
            return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError &) {
        return 1;  // fatal() already printed the message
    }
}
