/**
 * @file
 * tier_sweep: demotion-policy comparison under working-set drift.
 *
 * One point per TierManager policy in {xfm_first, auto, dfm_first}:
 * a kstaled-style controller runs over a TierManager wrapping a
 * 4-DIMM XfmBackend while a drifting hot window (zipf-popular pages
 * inside the window, the window itself sliding across the shard)
 * forces continuous demotion and re-promotion. The three policies
 * split the same demotion stream differently — xfm_first keeps
 * everything compressed, dfm_first pushes everything over the spill
 * link, auto routes by the access-frequency watermark — so the
 * reported fault-service latency, tier occupancy, and promotion
 * counts separate measurably.
 *
 * After each point the harness drains, promotes every far page and
 * audits the restored bytes against the generator corpus; a FNV-1a
 * fingerprint of all restored pages is compared across policies.
 * The exit code gates ONLY on this data audit — policy numbers are
 * measurements, reported in BENCH_TIER.json (schema
 * xfm.tier_sweep.v1) for CI to archive, never a pass/fail
 * criterion.
 *
 * Usage: tier_sweep [--smoke] [--out FILE]
 *   --smoke   short simulated horizon (CI smoke test)
 *   --out     JSON destination (default BENCH_TIER.json)
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/random.hh"
#include "compress/corpus.hh"
#include "sfm/controller.hh"
#include "sfm/tier_manager.hh"
#include "xfm/xfm_backend.hh"

using namespace xfm;

namespace
{

constexpr sfm::VirtPage numPages = 96;
constexpr std::uint64_t windowPages = 24;

Bytes
pageFor(sfm::VirtPage p)
{
    return compress::generateCorpus(compress::CorpusKind::HeapObjects,
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

struct PolicyResult
{
    sfm::TierPolicy policy = sfm::TierPolicy::Auto;
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t faults = 0;
    double faultServiceNs = 0.0;   ///< mean demand swap-in latency
    std::uint64_t demotedToXfm = 0;
    std::uint64_t demotedToDfm = 0;  ///< direct NEAR -> DFM legs
    std::uint64_t spilledXfmToDfm = 0;
    std::uint64_t promotedFromXfm = 0;
    std::uint64_t promotedFromDfm = 0;
    std::uint64_t watermarkHolds = 0;
    std::uint64_t auditHash = 0;   ///< FNV-1a over restored pages
    bool auditOk = false;          ///< every byte matched the corpus
};

PolicyResult
runPolicy(sfm::TierPolicy policy, Tick horizon)
{
    EventQueue eq;
    xfmsys::XfmSystemConfig xcfg;
    xcfg.numDimms = 4;
    xcfg.localBase = 0;
    xcfg.localPages = numPages;
    xcfg.sfmBase = gib(1);
    xcfg.sfmBytes = mib(32);
    xcfg.algorithm = compress::Algorithm::LzFast;
    xcfg.device.spmBytes = mib(2);
    xfmsys::XfmBackend backend("ts", eq, xcfg);
    for (sfm::VirtPage p = 0; p < numPages; ++p)
        backend.writePage(p, pageFor(p));

    sfm::TierConfig tcfg;
    tcfg.enabled = true;
    tcfg.policy = policy;   // the swept knob
    tcfg.promoteWatermark = 2;
    tcfg.scanInterval = milliseconds(1.0);
    tcfg.spillColdThreshold = milliseconds(5.0);
    tcfg.maxSpillsPerScan = 16;
    tcfg.dfmBytes = mib(1);
    sfm::TierManager tiers("ts.tiers", eq, tcfg, backend, numPages);

    sfm::ControllerConfig ccfg;
    ccfg.coldThreshold = milliseconds(2.0);
    ccfg.scanInterval = milliseconds(1.0);
    ccfg.maxSwapOutsPerScan = 16;
    sfm::SfmController ctrl("ts.ctrl", eq, ccfg, tiers, numPages);

    backend.start();
    tiers.start();
    ctrl.start();

    // Working-set drift: zipf-popular pages inside a hot window
    // that slides across the shard, retiring pages behind it. The
    // sequence is seed-fixed, so every policy sees the exact same
    // access stream and only the demotion routing differs.
    PolicyResult r;
    r.policy = policy;
    Rng rng(42);
    std::uint64_t window_start = 0;
    const Tick gap = microseconds(20.0);
    const Tick drift_every = milliseconds(2.0);
    Tick next_drift = drift_every;
    std::function<void()> step = [&] {
        if (eq.now() >= horizon)
            return;
        if (eq.now() >= next_drift) {
            window_start = (window_start + 4) % numPages;
            next_drift += drift_every;
        }
        const sfm::VirtPage page =
            (window_start + rng.zipf(windowPages, 0.9)) % numPages;
        ++r.accesses;
        if (ctrl.recordAccess(page))
            ++r.hits;
        else
            ++r.faults;
        eq.scheduleIn(gap, step);
    };
    eq.scheduleIn(gap, step);
    eq.run(horizon);

    // Drain in-flight work, then promote everything and audit: no
    // policy may cost a byte, wherever it parked the pages.
    eq.run(eq.now() + seconds(1.0));
    for (sfm::VirtPage p = 0; p < numPages; ++p) {
        if (tiers.pageState(p) == sfm::PageState::Far)
            tiers.swapIn(p, false, [](const sfm::SwapOutcome &) {});
    }
    eq.run(eq.now() + seconds(1.0));
    r.auditOk = true;
    r.auditHash = 14695981039346656037ull;
    for (sfm::VirtPage p = 0; p < numPages; ++p) {
        const Bytes restored = backend.readPage(p);
        r.auditOk &= restored == pageFor(p);
        r.auditHash = fnv1a(r.auditHash, restored);
    }

    r.faultServiceNs = ctrl.stats().faultServiceNs.mean();
    const sfm::TierStats &ts = tiers.tierStats();
    r.demotedToXfm = ts.demotedNearToXfm;
    r.demotedToDfm = ts.demotedNearToDfm;
    r.spilledXfmToDfm = ts.demotedXfmToDfm;
    r.promotedFromXfm = ts.promotedFromXfm;
    r.promotedFromDfm = ts.promotedFromDfm;
    r.watermarkHolds = ts.watermarkHolds;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out = "BENCH_TIER.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: tier_sweep [--smoke] [--out FILE]\n");
            return 1;
        }
    }

    const Tick horizon =
        smoke ? milliseconds(10.0) : milliseconds(60.0);
    const std::vector<sfm::TierPolicy> policies = {
        sfm::TierPolicy::XfmFirst,
        sfm::TierPolicy::Auto,
        sfm::TierPolicy::DfmFirst,
    };

    std::printf("tier_sweep%s: %llu pages, %llu-page drifting "
                "window, %.1f ms horizon\n\n",
                smoke ? " (smoke)" : "",
                (unsigned long long)numPages,
                (unsigned long long)windowPages,
                static_cast<double>(horizon) / milliseconds(1.0));
    std::printf("  %-9s  %8s  %7s  %10s  %9s  %9s  %9s  %s\n",
                "policy", "accesses", "faults", "fault ns",
                "dem->xfm", "dem->dfm", "spill", "audit");

    std::vector<PolicyResult> results;
    for (const auto p : policies) {
        results.push_back(runPolicy(p, horizon));
        const auto &r = results.back();
        std::printf("  %-9s  %8llu  %7llu  %10.0f  %9llu  %9llu"
                    "  %9llu  %s\n",
                    sfm::tierPolicyName(r.policy),
                    (unsigned long long)r.accesses,
                    (unsigned long long)r.faults, r.faultServiceNs,
                    (unsigned long long)r.demotedToXfm,
                    (unsigned long long)(r.demotedToDfm),
                    (unsigned long long)r.spilledXfmToDfm,
                    r.auditOk ? "ok" : "CORRUPT");
    }

    // The only gate: every policy restored every byte, and all
    // policies restored the SAME bytes. Separation is reported, not
    // gated.
    bool data_ok = true;
    for (const auto &r : results) {
        data_ok &= r.auditOk;
        data_ok &= r.auditHash == results.front().auditHash;
    }

    // Separation indicator: spread of the DFM share of demotions
    // across policies (xfm_first pins it at 0, dfm_first near 1).
    double min_share = 1.0, max_share = 0.0;
    for (const auto &r : results) {
        const std::uint64_t total = r.demotedToXfm + r.demotedToDfm
            + r.spilledXfmToDfm;
        const double share = total
            ? static_cast<double>(r.demotedToDfm + r.spilledXfmToDfm)
                / static_cast<double>(total)
            : 0.0;
        min_share = std::min(min_share, share);
        max_share = std::max(max_share, share);
    }
    std::printf("\n  dfm-share spread: %.2f .. %.2f   cross-policy "
                "data: %s\n",
                min_share, max_share,
                data_ok ? "identical" : "DIVERGED");

    std::string j = "{\n  \"schema\": \"xfm.tier_sweep.v1\",\n";
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "  \"smoke\": %s,\n  \"pages\": %llu,\n"
                  "  \"data_identical\": %s,\n"
                  "  \"dfm_share_min\": %.3f,\n"
                  "  \"dfm_share_max\": %.3f,\n",
                  smoke ? "true" : "false",
                  (unsigned long long)numPages,
                  data_ok ? "true" : "false", min_share, max_share);
    j += buf;
    j += "  \"sweep\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        std::snprintf(
            buf, sizeof buf,
            "    {\"policy\": \"%s\", \"accesses\": %llu, "
            "\"faults\": %llu, \"fault_service_ns\": %.1f, "
            "\"demoted_to_xfm\": %llu, \"demoted_to_dfm\": %llu, "
            "\"spilled_xfm_to_dfm\": %llu, "
            "\"promoted_from_xfm\": %llu, "
            "\"promoted_from_dfm\": %llu, "
            "\"watermark_holds\": %llu, \"audit_ok\": %s}%s\n",
            sfm::tierPolicyName(r.policy),
            (unsigned long long)r.accesses,
            (unsigned long long)r.faults, r.faultServiceNs,
            (unsigned long long)r.demotedToXfm,
            (unsigned long long)r.demotedToDfm,
            (unsigned long long)r.spilledXfmToDfm,
            (unsigned long long)r.promotedFromXfm,
            (unsigned long long)r.promotedFromDfm,
            (unsigned long long)r.watermarkHolds,
            r.auditOk ? "true" : "false",
            i + 1 < results.size() ? "," : "");
        j += buf;
    }
    j += "  ]\n}\n";

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "tier_sweep: cannot write %s\n",
                     out.c_str());
        return 1;
    }
    std::fwrite(j.data(), 1, j.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out.c_str());

    return data_ok ? 0 : 1;
}
