/**
 * @file
 * perf_harness: host wall-clock throughput of the simulator's hot
 * paths, before/after comparable via BENCH_PERF.json.
 *
 * Four phases:
 *   0. codec — per-codec compress/decompress MB/s over the corpus
 *      kinds.
 *   1. cpu_pipeline — pure-CPU swap-out/in cycles on an 8-DIMM
 *      XfmBackend over the mixed-corpus page set, swept over
 *      worker counts {1, 2, 4, 8}. Reports pages/sec, the speedup
 *      of each worker count over 1 (workers=4 is the bar the
 *      WorkerPool fan-out is kept by), and checks that
 *      the backend's counters are identical for every worker count
 *      (the determinism contract).
 *   2. event_kernel — self-rescheduling event chains plus
 *      deschedule churn on a bare EventQueue. Reports events/sec.
 *   3. system — a short xfmsim-style full-system run (zipfian
 *      application over the XFM backend with refresh running),
 *      swept over worker counts. Reports sim-ticks/sec.
 *
 * The measured speedup is printed honestly: on a single-core host
 * the worker sweep cannot beat 1x, and the harness never fails
 * because of the ratio — it is a measurement, not a gate.
 *
 * Usage: perf_harness [--smoke] [--out FILE]
 *   --smoke   tiny sizes (CI smoke test; seconds, not minutes)
 *   --out     JSON destination (default BENCH_PERF.json)
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hh"
#include "compress/compressor.hh"
#include "compress/corpus.hh"
#include "system/system.hh"
#include "xfm/xfm_backend.hh"

using namespace xfm;

namespace
{

double
wallSeconds(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** The 6-class page mix the compression tests exercise. */
const std::vector<compress::CorpusKind> pageMix = {
    compress::CorpusKind::KeyValue,   compress::CorpusKind::Json,
    compress::CorpusKind::LogLines,   compress::CorpusKind::EnglishText,
    compress::CorpusKind::SourceCode, compress::CorpusKind::Html,
};

struct CodecResult
{
    compress::Algorithm algo;
    compress::CorpusKind kind;
    double compMBps = 0.0;
    double decMBps = 0.0;
};

/** Phase 0: compress, then decompress, one (codec, corpus) cell. */
CodecResult
runCodecCell(compress::Algorithm algo, compress::CorpusKind kind,
             std::size_t npages, std::size_t reps)
{
    const auto codec = compress::makeCompressor(algo);
    std::vector<Bytes> pages;
    pages.reserve(npages);
    for (std::size_t p = 0; p < npages; ++p)
        pages.push_back(compress::generateCorpus(
            kind, p, pageBytes));
    const double raw_mb = static_cast<double>(npages) * pageBytes
        * static_cast<double>(reps) / 1e6;

    CodecResult r;
    r.algo = algo;
    r.kind = kind;
    std::vector<Bytes> blocks(npages);
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep)
        for (std::size_t p = 0; p < npages; ++p)
            codec->compressInto(pages[p], blocks[p]);
    const double comp_s = wallSeconds(t0);
    Bytes out;
    t0 = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < reps; ++rep)
        for (std::size_t p = 0; p < npages; ++p)
            codec->decompressInto(blocks[p], out);
    const double dec_s = wallSeconds(t0);
    r.compMBps = comp_s > 0.0 ? raw_mb / comp_s : 0.0;
    r.decMBps = dec_s > 0.0 ? raw_mb / dec_s : 0.0;
    return r;
}

struct PipelineResult
{
    std::size_t workers = 1;
    std::uint64_t swaps = 0;
    double wallS = 0.0;
    double pagesPerSec = 0.0;
    /** Counter fingerprint; must match across worker counts. */
    std::uint64_t fingerprint = 0;
};

/** Phase 1: swap cycles with the CPU pipeline only. */
PipelineResult
runCpuPipeline(std::size_t workers, std::uint64_t pages,
               std::size_t cycles)
{
    EventQueue eq;
    xfmsys::XfmSystemConfig cfg;
    cfg.numDimms = 8;
    cfg.localPages = pages;
    cfg.sfmBase = gib(1);
    cfg.sfmBytes = mib(64);
    cfg.algorithm = compress::Algorithm::ZstdLike;
    cfg.workers = workers;
    xfmsys::XfmBackend backend("bench", eq, cfg);

    for (sfm::VirtPage p = 0; p < pages; ++p) {
        backend.writePage(
            p, compress::generateCorpus(pageMix[p % pageMix.size()],
                                        p, pageBytes));
    }

    // No refresh is started, so the queue holds only swap
    // completions and run() drains it.
    PipelineResult r;
    r.workers = workers;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < cycles; ++c) {
        for (sfm::VirtPage p = 0; p < pages; ++p)
            backend.swapOut(p, /*allow_offload=*/false,
                            [](const sfm::SwapOutcome &) {});
        eq.run(eq.now() + seconds(10.0));
        for (sfm::VirtPage p = 0; p < pages; ++p)
            backend.swapIn(p, /*allow_offload=*/false,
                           [](const sfm::SwapOutcome &) {});
        eq.run(eq.now() + seconds(10.0));
    }
    r.wallS = wallSeconds(t0);
    r.swaps = 2 * cycles * pages;
    r.pagesPerSec = r.wallS > 0.0 ? r.swaps / r.wallS : 0.0;
    const auto &st = backend.stats();
    r.fingerprint = st.bytesCompressed + 3 * st.bytesDecompressed
        + 5 * st.cpuCycles + 7 * backend.storedCompressedBytes();
    return r;
}

struct EventKernelResult
{
    std::uint64_t events = 0;
    double wallS = 0.0;
    double eventsPerSec = 0.0;
};

/** Phase 2: pooled event kernel churn. */
EventKernelResult
runEventKernel(std::size_t chains, std::uint64_t events_per_chain)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    // Each chain re-schedules itself and keeps one decoy event
    // cancelled per step, so the slab recycler and the tombstone
    // compactor are both on the measured path.
    std::vector<std::function<void()>> bodies(chains);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < chains; ++c) {
        bodies[c] = [&, c] {
            ++fired;
            const auto decoy =
                eq.scheduleIn(seconds(1.0), [] {}, 10 + (c % 5));
            eq.deschedule(decoy);
            if (fired < events_per_chain * chains)
                eq.scheduleIn(1 + c % 7, bodies[c],
                              static_cast<int>(c % 3));
        };
        eq.scheduleIn(1 + c, bodies[c]);
    }
    eq.run(~Tick(0) >> 1);
    EventKernelResult r;
    r.wallS = wallSeconds(t0);
    r.events = fired;
    r.eventsPerSec = r.wallS > 0.0 ? fired / r.wallS : 0.0;
    return r;
}

struct SystemResult
{
    std::size_t workers = 1;
    double simSeconds = 0.0;
    double wallS = 0.0;
    double simTicksPerSec = 0.0;
    std::uint64_t fingerprint = 0;
};

/** Phase 3: full-system run, sim-ticks of progress per wall-second. */
SystemResult
runSystem(std::size_t workers, double run_seconds)
{
    EventQueue eq;
    system::SystemConfig cfg;
    cfg.backend = system::BackendKind::Xfm;
    cfg.pages = 512;
    cfg.sfmBytes = mib(16);
    cfg.xfm.numDimms = 4;
    cfg.xfm.workers = workers;
    system::System sys("perf", eq, cfg);
    for (sfm::VirtPage p = 0; p < cfg.pages; ++p) {
        sys.writePage(
            p, compress::generateCorpus(pageMix[p % pageMix.size()],
                                        p, pageBytes));
    }
    sys.start();

    Rng rng(1);
    std::uint64_t hits = 0;
    std::uint64_t faults = 0;
    const Tick gap = static_cast<Tick>(1e12 / 50000.0);
    std::function<void(Tick)> drive = [&](Tick when) {
        if (when > seconds(run_seconds))
            return;
        eq.schedule(when, [&, when] {
            if (sys.access(rng.zipf(cfg.pages, 0.9)))
                ++hits;
            else
                ++faults;
            drive(when + gap);
        });
    };
    const auto t0 = std::chrono::steady_clock::now();
    drive(gap);
    eq.run(seconds(run_seconds));
    SystemResult r;
    r.workers = workers;
    r.wallS = wallSeconds(t0);
    r.simSeconds = run_seconds;
    r.simTicksPerSec =
        r.wallS > 0.0 ? seconds(run_seconds) / r.wallS : 0.0;
    r.fingerprint = hits + 3 * faults
        + 5 * sys.backend().stats().bytesCompressed
        + 7 * sys.backend().storedCompressedBytes();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out = "BENCH_PERF.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: perf_harness [--smoke] [--out FILE]\n");
            return 1;
        }
    }

    const std::vector<std::size_t> sweep = {1, 2, 4, 8};
    const std::uint64_t pipe_pages = smoke ? 48 : 384;
    const std::size_t pipe_cycles = smoke ? 2 : 8;
    const std::size_t ek_chains = smoke ? 16 : 64;
    const std::uint64_t ek_events = smoke ? 2000 : 40000;
    const double sys_seconds = smoke ? 0.02 : 0.2;

    std::printf("perf_harness%s: %u hardware threads\n\n",
                smoke ? " (smoke)" : "",
                std::thread::hardware_concurrency());

    const std::size_t codec_pages = smoke ? 8 : 48;
    const std::size_t codec_reps = smoke ? 2 : 6;
    const std::vector<compress::Algorithm> codec_algos = {
        compress::Algorithm::LzFast, compress::Algorithm::Deflate,
        compress::Algorithm::ZstdLike};
    const std::vector<compress::CorpusKind> codec_kinds = {
        compress::CorpusKind::EnglishText,
        compress::CorpusKind::SourceCode,
        compress::CorpusKind::Json,
        compress::CorpusKind::Html,
        compress::CorpusKind::LogLines,
        compress::CorpusKind::ZeroHeavy,
        compress::CorpusKind::RandomBytes,
    };
    std::printf("phase 0: codec (%zu pages x %zu reps per cell)\n",
                codec_pages, codec_reps);
    std::vector<CodecResult> codecr;
    for (const auto algo : codec_algos) {
        for (const auto kind : codec_kinds) {
            codecr.push_back(
                runCodecCell(algo, kind, codec_pages, codec_reps));
            const auto &c = codecr.back();
            std::printf("  %-8s %-12s comp %7.1f MB/s  "
                        "dec %7.1f MB/s\n",
                        compress::algorithmName(algo).c_str(),
                        compress::corpusName(kind).c_str(),
                        c.compMBps, c.decMBps);
        }
    }

    std::printf("\nphase 1: cpu_pipeline (8 DIMMs, %llu pages x %zu "
                "cycles)\n",
                (unsigned long long)pipe_pages, pipe_cycles);
    std::vector<PipelineResult> pipe;
    for (const auto w : sweep) {
        pipe.push_back(runCpuPipeline(w, pipe_pages, pipe_cycles));
        std::printf("  workers=%zu  %9.0f pages/s  (%.3f s, "
                    "%llu swaps, %.2fx of workers=1)\n",
                    w, pipe.back().pagesPerSec, pipe.back().wallS,
                    (unsigned long long)pipe.back().swaps,
                    pipe.back().pagesPerSec / pipe.front().pagesPerSec);
    }
    bool deterministic = true;
    for (const auto &r : pipe)
        deterministic &= r.fingerprint == pipe.front().fingerprint;
    const double speedup_w4 = pipe[2].pagesPerSec / pipe[0].pagesPerSec;
    const double speedup = pipe.back().pagesPerSec / pipe[0].pagesPerSec;
    std::printf("  counters %s across worker counts\n",
                deterministic ? "identical" : "DIFFER");

    std::printf("\nphase 2: event_kernel (%zu chains, ~%llu "
                "events)\n",
                ek_chains,
                (unsigned long long)(ek_chains * ek_events));
    const EventKernelResult ek = runEventKernel(ek_chains, ek_events);
    std::printf("  %12.0f events/s  (%.3f s, %llu fired)\n",
                ek.eventsPerSec, ek.wallS,
                (unsigned long long)ek.events);

    std::printf("\nphase 3: system (%.2f sim-seconds, zipfian "
                "app)\n",
                sys_seconds);
    std::vector<SystemResult> sysr;
    for (const auto w : sweep) {
        sysr.push_back(runSystem(w, sys_seconds));
        std::printf("  workers=%zu  %.3g sim-ticks/s  (%.3f s "
                    "wall)\n",
                    w, sysr.back().simTicksPerSec, sysr.back().wallS);
    }
    for (const auto &r : sysr)
        deterministic &= r.fingerprint == sysr.front().fingerprint;
    std::printf("  sim results %s across worker counts\n",
                deterministic ? "identical" : "DIFFER");

    std::string j = "{\n  \"schema\": \"xfm.perf_harness.v3\",\n";
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "  \"smoke\": %s,\n  \"hw_threads\": %u,\n"
                  "  \"deterministic\": %s,\n",
                  smoke ? "true" : "false",
                  std::thread::hardware_concurrency(),
                  deterministic ? "true" : "false");
    j += buf;
    j += "  \"codec\": [\n";
    for (std::size_t i = 0; i < codecr.size(); ++i) {
        const auto &c = codecr[i];
        std::snprintf(
            buf, sizeof buf,
            "    {\"algo\": \"%s\", \"corpus\": \"%s\", "
            "\"compress_mbps\": %.1f, \"decompress_mbps\": %.1f}%s\n",
            compress::algorithmName(c.algo).c_str(),
            compress::corpusName(c.kind).c_str(), c.compMBps,
            c.decMBps,
            i + 1 < codecr.size() ? "," : "");
        j += buf;
    }
    j += "  ],\n  \"cpu_pipeline\": [\n";
    for (std::size_t i = 0; i < pipe.size(); ++i) {
        std::snprintf(buf, sizeof buf,
                      "    {\"workers\": %zu, \"pages_per_sec\": "
                      "%.1f, \"wall_s\": %.4f, \"swaps\": %llu}%s\n",
                      pipe[i].workers, pipe[i].pagesPerSec,
                      pipe[i].wallS,
                      (unsigned long long)pipe[i].swaps,
                      i + 1 < pipe.size() ? "," : "");
        j += buf;
    }
    std::snprintf(buf, sizeof buf,
                  "  ],\n  \"speedup_w4_over_w1\": %.3f,\n"
                  "  \"speedup_w8_over_w1\": %.3f,\n",
                  speedup_w4, speedup);
    j += buf;
    std::snprintf(buf, sizeof buf,
                  "  \"event_kernel\": {\"events_per_sec\": %.1f, "
                  "\"wall_s\": %.4f, \"events\": %llu},\n",
                  ek.eventsPerSec, ek.wallS,
                  (unsigned long long)ek.events);
    j += buf;
    j += "  \"system\": [\n";
    for (std::size_t i = 0; i < sysr.size(); ++i) {
        std::snprintf(buf, sizeof buf,
                      "    {\"workers\": %zu, \"sim_ticks_per_sec\": "
                      "%.6g, \"wall_s\": %.4f}%s\n",
                      sysr[i].workers, sysr[i].simTicksPerSec,
                      sysr[i].wallS,
                      i + 1 < sysr.size() ? "," : "");
        j += buf;
    }
    j += "  ]\n}\n";

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perf_harness: cannot write %s\n",
                     out.c_str());
        return 1;
    }
    std::fwrite(j.data(), 1, j.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out.c_str());

    // Determinism is the contract; the speedup ratios are
    // measurements that depend on host cores and are reported, not
    // gated on.
    return deterministic ? 0 : 1;
}
