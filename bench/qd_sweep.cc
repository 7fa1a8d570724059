/**
 * @file
 * qd_sweep: swap throughput versus async command-ring queue depth.
 *
 * One closed-loop point per depth in {1, 2, 4, 8, 16, 32}: `depth`
 * concurrent page streams cycle swap-out -> swap-in through a
 * 4-DIMM XfmBackend with the per-DIMM submission queues sized to
 * the same depth (depth 1 is a one-slot ring; the default is 64).
 * Deeper rings let more commands ride each refresh
 * window, so simulated pages/sec rises with depth until the
 * window's access budget binds.
 *
 * After each point the harness drains, swaps every page back in and
 * audits the restored bytes against the generator corpus; a FNV-1a
 * fingerprint of all restored pages is compared across depths. The
 * exit code gates ONLY on this data audit — throughput numbers are
 * measurements, reported in BENCH_QD.json (schema xfm.qd_sweep.v1)
 * for CI to archive, never a pass/fail criterion.
 *
 * Usage: qd_sweep [--smoke] [--out FILE]
 *   --smoke   short simulated horizon (CI smoke test)
 *   --out     JSON destination (default BENCH_QD.json)
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "compress/corpus.hh"
#include "xfm/xfm_backend.hh"

using namespace xfm;

namespace
{

constexpr sfm::VirtPage numPages = 48;

Bytes
pageFor(sfm::VirtPage p)
{
    return compress::generateCorpus(compress::CorpusKind::LogLines,
                                    p + 1, pageBytes);
}

std::uint64_t
fnv1a(std::uint64_t h, ByteSpan data)
{
    for (const std::uint8_t b : data) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

struct DepthResult
{
    std::uint32_t depth = 1;
    std::uint64_t ops = 0;        ///< swaps completed in the horizon
    double pagesPerSec = 0.0;     ///< simulated pages moved per second
    std::uint64_t fallbacks = 0;  ///< CPU-path swaps (should be ~0)
    std::uint64_t doorbells = 0;  ///< batched SQ tail MMIO writes
    std::uint64_t reaped = 0;     ///< completion records consumed
    std::uint64_t auditHash = 0;  ///< FNV-1a over restored pages
    bool auditOk = false;         ///< every byte matched the corpus
};

DepthResult
runDepth(std::uint32_t depth, Tick horizon)
{
    EventQueue eq;
    xfmsys::XfmSystemConfig cfg;
    cfg.numDimms = 4;
    cfg.localBase = 0;
    cfg.localPages = numPages;
    cfg.sfmBase = gib(1);
    cfg.sfmBytes = mib(32);
    cfg.algorithm = compress::Algorithm::LzFast;
    cfg.device.spmBytes = mib(2);
    // The swept knob.
    cfg.device.sqDepth = depth;
    cfg.device.cqCoalesce = 1;  // reap eagerly: latency-true sweep
    xfmsys::XfmBackend backend("qd", eq, cfg);
    for (sfm::VirtPage p = 0; p < numPages; ++p)
        backend.writePage(p, pageFor(p));
    backend.start();

    // `depth` independent page streams, each cycling out -> in, keep
    // every DIMM's submission queue exactly as deep as the sweep
    // point asks (one shard per DIMM per page in flight).
    DepthResult r;
    r.depth = depth;
    std::function<void(sfm::VirtPage)> cycle =
        [&](sfm::VirtPage p) {
        if (eq.now() >= horizon)
            return;
        backend.swapOut(p, true, [&, p](const sfm::SwapOutcome &o) {
            if (!o.success) {
                // Transient rejection: retry the stream shortly.
                eq.scheduleIn(microseconds(1.0),
                              [&, p] { cycle(p); });
                return;
            }
            if (eq.now() < horizon)
                ++r.ops;
            backend.swapIn(p, true,
                           [&, p](const sfm::SwapOutcome &) {
                if (eq.now() < horizon)
                    ++r.ops;
                eq.scheduleIn(1, [&, p] { cycle(p); });
            });
        });
    };
    const std::uint32_t streams =
        std::min<std::uint32_t>(depth, numPages);
    for (std::uint32_t s = 0; s < streams; ++s)
        cycle(s);
    eq.run(horizon);
    r.pagesPerSec = static_cast<double>(r.ops)
        / (static_cast<double>(horizon) / seconds(1.0));

    // Drain in-flight cycles, then restore every page and audit the
    // bytes: the ring may reorder completions but may not cost a
    // byte, at any depth.
    eq.run(eq.now() + seconds(1.0));
    for (sfm::VirtPage p = 0; p < numPages; ++p) {
        if (backend.pageState(p) == sfm::PageState::Far)
            backend.swapIn(p, false, [](const sfm::SwapOutcome &) {});
    }
    eq.run(eq.now() + seconds(1.0));
    r.auditOk = true;
    r.auditHash = 14695981039346656037ull;
    for (sfm::VirtPage p = 0; p < numPages; ++p) {
        const Bytes restored = backend.readPage(p);
        r.auditOk &= restored == pageFor(p);
        r.auditHash = fnv1a(r.auditHash, restored);
    }

    r.fallbacks =
        backend.stats().cpuSwapOuts + backend.stats().cpuSwapIns;
    obs::MetricRegistry reg;
    backend.registerMetrics(reg);
    const obs::Snapshot snap = reg.snapshot();
    for (const auto &leaf : snap.leaves()) {
        if (leaf.name.find(".ring.doorbells") != std::string::npos)
            r.doorbells += leaf.u;
        if (leaf.name.find(".ring.reaped") != std::string::npos)
            r.reaped += leaf.u;
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out = "BENCH_QD.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: qd_sweep [--smoke] [--out FILE]\n");
            return 1;
        }
    }

    const Tick horizon =
        smoke ? milliseconds(5.0) : milliseconds(50.0);
    const std::vector<std::uint32_t> depths = {1, 2, 4, 8, 16, 32};

    std::printf("qd_sweep%s: 4 DIMMs, %llu pages, %.1f ms horizon\n\n",
                smoke ? " (smoke)" : "",
                (unsigned long long)numPages,
                static_cast<double>(horizon) / milliseconds(1.0));
    std::printf("  %5s  %12s  %8s  %9s  %9s  %s\n", "depth",
                "pages/s(sim)", "swaps", "doorbells", "fallbacks",
                "audit");

    std::vector<DepthResult> results;
    for (const auto d : depths) {
        results.push_back(runDepth(d, horizon));
        const auto &r = results.back();
        std::printf("  %5u  %12.0f  %8llu  %9llu  %9llu  %s\n",
                    r.depth, r.pagesPerSec,
                    (unsigned long long)r.ops,
                    (unsigned long long)r.doorbells,
                    (unsigned long long)r.fallbacks,
                    r.auditOk ? "ok" : "CORRUPT");
    }

    // The only gate: every depth restored every byte, and all depths
    // restored the SAME bytes. Throughput is reported, not gated.
    bool data_ok = true;
    for (const auto &r : results) {
        data_ok &= r.auditOk;
        data_ok &= r.auditHash == results.front().auditHash;
    }

    const DepthResult *d1 = &results.front();
    const DepthResult *d8 = d1;
    for (const auto &r : results)
        if (r.depth == 8)
            d8 = &r;
    const double speedup = d1->pagesPerSec > 0.0
        ? d8->pagesPerSec / d1->pagesPerSec
        : 0.0;
    std::printf("\n  depth-8 vs depth-1: %.2fx   cross-depth data: "
                "%s\n",
                speedup, data_ok ? "identical" : "DIVERGED");

    std::string j = "{\n  \"schema\": \"xfm.qd_sweep.v1\",\n";
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "  \"smoke\": %s,\n  \"pages\": %llu,\n"
                  "  \"data_identical\": %s,\n"
                  "  \"speedup_d8_over_d1\": %.3f,\n",
                  smoke ? "true" : "false",
                  (unsigned long long)numPages,
                  data_ok ? "true" : "false", speedup);
    j += buf;
    j += "  \"sweep\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        std::snprintf(
            buf, sizeof buf,
            "    {\"depth\": %u, \"pages_per_sec\": %.1f, "
            "\"swaps\": %llu, \"doorbells\": %llu, "
            "\"reaped\": %llu, \"fallbacks\": %llu, "
            "\"audit_ok\": %s}%s\n",
            r.depth, r.pagesPerSec, (unsigned long long)r.ops,
            (unsigned long long)r.doorbells,
            (unsigned long long)r.reaped,
            (unsigned long long)r.fallbacks,
            r.auditOk ? "true" : "false",
            i + 1 < results.size() ? "," : "");
        j += buf;
    }
    j += "  ]\n}\n";

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "qd_sweep: cannot write %s\n",
                     out.c_str());
        return 1;
    }
    std::fwrite(j.data(), 1, j.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out.c_str());

    return data_ok ? 0 : 1;
}
