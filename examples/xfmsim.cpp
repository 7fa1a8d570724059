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
 * Example config (all keys optional; defaults in parentheses):
 *   backend            = xfm        # xfm | baseline
 *   pages              = 1024
 *   sfm.bytes          = 16777216   # per-DIMM SFM region
 *   xfm.dimms          = 4
 *   xfm.spm_bytes      = 2097152
 *   xfm.accesses_per_trfc = 3
 *   xfm.sq_depth       = 1          # async command-ring depth per
 *                                   # DIMM; 1 = legacy sync path
 *   xfm.cq_coalesce    = 1          # completions reaped per CQ
 *                                   # interrupt (ring mode only)
 *   xfm.shard_dict     = 0          # multi-channel preset
 *                                   # dictionaries (DESIGN.md §16);
 *                                   # 0 is byte-identical to default
 *   xfm.dict_bytes     = 2048       # sampled dictionary size
 *   controller.cold_ms = 20
 *   controller.scan_ms = 2
 *   controller.prefetch_depth = 2
 *   workload.seconds   = 0.3
 *   workload.rps       = 20000
 *   workload.zipf      = 0.9
 *   workload.seed      = 1
 *   workers            = 1          # shard-compression threads;
 *                                   # results identical for any value
 *
 * Tiered far memory (src/sfm/tier_manager.hh; off by default —
 * `tier.enabled = 0` is byte-identical to the two-state stack):
 *   tier.enabled       = 1
 *   tier.policy        = auto       # auto | xfm_first | dfm_first
 *   tier.promote_watermark = 2      # accesses that make a page hot
 *   tier.scan_ms       = 2          # XFM -> DFM spill-scan period
 *   tier.spill_cold_ms = 40         # second-level coldness bound
 *   tier.max_spills_per_scan = 16
 *   tier.xfm_capacity_pages  = 0    # 0 = uncapped compressed tier
 *   tier.target_promotions_per_sec = 2000
 *   tier.dfm_bytes     = 8388608    # provisioned spill pool
 *   tier.dfm_link_ns   = 300        # spill link latency
 *   tier.dfm_gbps      = 12         # spill link bandwidth
 *   fault.dfm_delay.p  = 0.05       # spill-link latency spikes
 *   fault.dfm_drop.p   = 0.02       # spill-link transfer drops
 *
 * Fault injection (see src/fault/fault.hh and configs/faults.cfg):
 *   fault.seed               = 7
 *   fault.<site>.p           = 0.1   # per-evaluation probability
 *   fault.<site>.one_shot    = 12    # fire on the Nth evaluation
 *   fault.<site>.max         = 3     # cap on injections
 *   retry.max_attempts       = 3
 *   retry.backoff_ns         = 200
 *   retry.cap_ns             = 50000
 *
 * Refresh realism (src/dram/refresh.hh; the defaults keep the
 * legacy all-bank REF model byte-identical):
 *   refresh.mode       = refab   # refab | refpb (bank-granular)
 *   refresh.hira       = 0       # hidden-row-activation bonus slots
 *   refresh.trfcpb_ns  = 130     # per-bank refresh lock
 *   rfm.raaimt         = 0       # RFM threshold (0 = disarmed)
 *   rfm.raammt         = 0       # ACT-block bound (0 = 4 x raaimt)
 *   rfm.trfm_ns        = 350     # RFM lock duration
 *
 * Health / robustness (src/health; see configs/chaos.cfg):
 *   health.enabled       = 1     # circuit breakers on every domain
 *   health.window        = 16    # plus the other health.* keys
 *   xfm.watchdog_windows = 8     # stuck-offload deadline in tREFIs
 *   xfm.quarantine_cap   = 64    # quarantine ledger cap (0 = off)
 *   verify               = 1     # end-of-run page-content audit
 *
 * Observability (src/obs):
 *   stats.json = out.json     # dump the metric registry as JSON
 *   trace.out  = trace.jsonl  # per-swap span trace (JSON lines)
 *   trace.cap  = 65536        # trace ring capacity in events
 */

#include <cstdio>
#include <string>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "compress/corpus.hh"
#include "dram/ddr_config.hh"
#include "obs/tracer.hh"
#include "system/system.hh"

namespace
{

/** Write @p text to @p path, fatally on failure. */
void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        xfm::fatal("cannot open '", path, "' for writing");
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

} // namespace

using namespace xfm;
using namespace xfm::system;

namespace
{

int
run(int argc, char **argv)
{
    Config cfg = argc > 1 ? Config::parseFile(argv[1])
                          : Config::parseString("");

    SystemConfig sys_cfg;
    const std::string backend = cfg.getString("backend", "xfm");
    if (backend == "xfm") {
        sys_cfg.backend = BackendKind::Xfm;
    } else if (backend == "baseline") {
        sys_cfg.backend = BackendKind::BaselineCpu;
    } else {
        fatal("backend must be 'xfm' or 'baseline', got '", backend,
              "'");
    }
    sys_cfg.pages = cfg.getU64("pages", 1024);
    sys_cfg.sfmBytes = cfg.getU64("sfm.bytes", mib(16));
    sys_cfg.xfmDimms = cfg.getU64("xfm.dimms", 4);
    sys_cfg.xfmDevice.spmBytes = cfg.getU64("xfm.spm_bytes", mib(2));
    sys_cfg.xfmDevice.maxAccessesPerWindow = static_cast<
        std::uint32_t>(cfg.getU64("xfm.accesses_per_trfc", 3));
    // Async NMA command rings: depth 1 (the default) keeps the
    // legacy synchronous submit path byte-identical; >= 2 builds
    // per-DIMM SQ/CQ pairs with batched doorbells.
    sys_cfg.xfmDevice.sqDepth = static_cast<std::uint32_t>(
        cfg.getU64("xfm.sq_depth", 1));
    sys_cfg.xfmDevice.cqCoalesce = static_cast<std::uint32_t>(
        cfg.getU64("xfm.cq_coalesce", 1));
    // Multi-channel preset dictionaries (DESIGN.md §16). Off by
    // default; `xfm.shard_dict = 0` is byte-identical to leaving the
    // key unset (Determinism.ExplicitDictOffMatchesDefault).
    sys_cfg.shardDict = cfg.getBool("xfm.shard_dict", false);
    sys_cfg.dictBytes = static_cast<std::size_t>(
        cfg.getU64("xfm.dict_bytes", 2048));
    // refresh.* / rfm.* keys arm REFpb, RFM tracking, and HiRA on
    // the XFM DIMMs; unset they leave the device byte-identical.
    dram::applyRefreshConfig(sys_cfg.dimmDevice, cfg);
    sys_cfg.controller.coldThreshold =
        milliseconds(cfg.getDouble("controller.cold_ms", 20.0));
    sys_cfg.controller.scanInterval =
        milliseconds(cfg.getDouble("controller.scan_ms", 2.0));
    sys_cfg.controller.prefetchDepth =
        cfg.getU64("controller.prefetch_depth", 2);
    sys_cfg.faultPlan = fault::FaultPlan::fromConfig(cfg);
    sys_cfg.retry = fault::RetryPolicy::fromConfig(cfg);
    sys_cfg.health = health::HealthConfig::fromConfig(cfg);
    sys_cfg.xfmDevice.watchdogWindows = static_cast<std::uint32_t>(
        cfg.getU64("xfm.watchdog_windows", 0));
    sys_cfg.quarantineCap = static_cast<std::size_t>(
        cfg.getU64("xfm.quarantine_cap", 0));
    sys_cfg.workers =
        static_cast<std::size_t>(cfg.getU64("workers", 1));
    sys_cfg.tier = sfm::TierConfig::fromConfig(cfg);
    // The spill link shares the run's fault plan and retry policy
    // (DfmLinkDelay / DfmLinkDrop sites; disarmed unless configured).
    sys_cfg.tier.faults = sys_cfg.faultPlan;
    sys_cfg.tier.retry = sys_cfg.retry;
    const bool verify = cfg.getBool("verify", false);

    const double run_seconds =
        cfg.getDouble("workload.seconds", 0.3);
    const double rps = cfg.getDouble("workload.rps", 20000.0);
    const double zipf = cfg.getDouble("workload.zipf", 0.9);
    const std::uint64_t seed = cfg.getU64("workload.seed", 1);

    const std::string stats_json = cfg.getString("stats.json", "");
    const std::string trace_out = cfg.getString("trace.out", "");
    const std::uint64_t trace_cap = cfg.getU64("trace.cap", 65536);

    cfg.requireAllConsumed();

    EventQueue eq;
    System sys("xfmsim", eq, sys_cfg);
    obs::Tracer tracer(static_cast<std::size_t>(trace_cap));
    if (!trace_out.empty())
        sys.setTracer(&tracer);
    for (sfm::VirtPage p = 0; p < sys_cfg.pages; ++p) {
        sys.writePage(p, compress::generateCorpus(
                             compress::CorpusKind::Json, p,
                             pageBytes));
    }
    sys.start();

    std::printf("xfmsim: backend=%s pages=%llu run=%.2fs "
                "rps=%.0f zipf=%.2f\n\n",
                backend.c_str(),
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
    if (!stats_json.empty())
        writeFile(stats_json, snap.toJson());
    if (!trace_out.empty()) {
        writeFile(trace_out, tracer.toJsonLines());
        std::printf("\ntrace: %llu events recorded, %llu dropped "
                    "-> %s\n",
                    (unsigned long long)tracer.recorded(),
                    (unsigned long long)tracer.dropped(),
                    trace_out.c_str());
    }
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
