/**
 * @file
 * perf_harness: host wall-clock throughput of the CPU swap pipeline
 * across worker counts, the measurement that keeps
 * WorkerPool::parallelFor. The codec, event-kernel and full-system
 * rates are perfbench's (perfbench/run.py).
 *
 * cpu_pipeline: pure-CPU swap-out/in cycles on an 8-DIMM XfmBackend
 * over the mixed-corpus page set, swept over worker counts
 * {1, 2, 4, 8}. Reports pages/sec, the speedup of each worker count
 * over 1 (workers=4 is the bar the fan-out is kept by), and checks
 * that the backend's counters are identical for every worker count
 * (the determinism contract).
 *
 * The measured speedup is printed honestly: on a single-core host
 * the worker sweep cannot beat 1x, and the harness never fails
 * because of the ratio — it is a measurement, not a gate.
 *
 * Usage: perf_harness [--smoke] [--out FILE]
 *   --smoke   tiny sizes (CI smoke test; seconds, not minutes)
 *   --out     write the JSON result to FILE (no file is written
 *             without it; BENCH_PERF.json holds perfbench's record)
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "compress/corpus.hh"
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

struct PipelineResult
{
    std::size_t workers = 1;
    std::uint64_t swaps = 0;
    double wallS = 0.0;
    double pagesPerSec = 0.0;
    /** Counter fingerprint; must match across worker counts. */
    std::uint64_t fingerprint = 0;
};

/** Swap cycles with the CPU pipeline only. */
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

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out;
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

    std::printf("perf_harness%s: %u hardware threads\n\n",
                smoke ? " (smoke)" : "",
                std::thread::hardware_concurrency());

    std::printf("cpu_pipeline (8 DIMMs, %llu pages x %zu cycles)\n",
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
    std::printf("  counters %s across worker counts "
                "(workers=1 fingerprint %llu)\n",
                deterministic ? "identical" : "DIFFER",
                (unsigned long long)pipe.front().fingerprint);
    // Determinism is the contract; the speedup ratios are
    // measurements that depend on host cores and are reported, not
    // gated on.
    const int status = deterministic ? 0 : 1;
    if (out.empty())
        return status;

    std::string j = "{\n  \"schema\": \"xfm.perf_harness.v4\",\n";
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "  \"smoke\": %s,\n  \"hw_threads\": %u,\n"
                  "  \"deterministic\": %s,\n",
                  smoke ? "true" : "false",
                  std::thread::hardware_concurrency(),
                  deterministic ? "true" : "false");
    j += buf;
    j += "  \"cpu_pipeline\": [\n";
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
                  "  \"speedup_w8_over_w1\": %.3f\n}\n",
                  speedup_w4, speedup);
    j += buf;

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perf_harness: cannot write %s\n",
                     out.c_str());
        return 1;
    }
    std::fwrite(j.data(), 1, j.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out.c_str());
    return status;
}
