/**
 * @file
 * Differential test harness: every compression algorithm and a mix
 * of page-content classes run through both the XFM-accelerated
 * backend and the baseline CPU backend, and every page must restore
 * byte-identically on both — with a zero-fault plan, and again with
 * an aggressive fault plan (SPM reserve failures, engine stalls,
 * doorbell losses) forcing CPU fallbacks mid-stream. The offload
 * path may degrade; the data may not.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "health/health.hh"
#include "sfm/cpu_backend.hh"
#include "sfm/tier_manager.hh"
#include "test_util.hh"
#include "xfm/xfm_backend.hh"

namespace xfm
{
namespace
{

using sfm::PageState;
using sfm::SwapOutcome;
using sfm::VirtPage;

constexpr VirtPage numPages = 24;

const std::vector<compress::CorpusKind> &
pageMix()
{
    // A spread of compressibility classes, including the sparse and
    // incompressible extremes.
    static const std::vector<compress::CorpusKind> kinds = {
        compress::CorpusKind::EnglishText,
        compress::CorpusKind::Json,
        compress::CorpusKind::LogLines,
        compress::CorpusKind::SourceCode,
        compress::CorpusKind::ZeroHeavy,
        compress::CorpusKind::Base64Blob,
    };
    return kinds;
}

Bytes
pageFor(VirtPage p)
{
    const auto &kinds = pageMix();
    return testutil::corpusPage(kinds[p % kinds.size()], p + 1);
}

/** SPM failures, engine stalls, and doorbell losses, all at >= 10%. */
fault::FaultPlan
aggressivePlan()
{
    fault::FaultPlan plan;
    plan.seed = 13;
    plan.site(fault::FaultSite::SpmReserveFail).probability = 0.15;
    plan.site(fault::FaultSite::EngineStall).probability = 0.10;
    plan.site(fault::FaultSite::MmioDoorbellLoss).probability = 0.20;
    return plan;
}

struct DifferentialResult
{
    std::uint64_t xfmCpuOps = 0;      ///< fallbacks the XFM side took
    std::uint64_t offloadRetries = 0; ///< driver re-submissions used
    std::uint64_t dictShards = 0;     ///< shards stored in dict mode
    std::uint64_t dictFallbacks = 0;  ///< dict-mode plain fallbacks
};

/**
 * Run the full demote/promote cycle through both backends and
 * assert byte-identical restoration everywhere. @p sq_depth 0 keeps
 * the device's default depth.
 */
DifferentialResult
runDifferential(compress::Algorithm alg, const fault::FaultPlan &plan,
                const health::HealthConfig &health = {},
                std::uint32_t sq_depth = 0, bool shard_dict = false)
{
    EventQueue eq;

    auto xcfg = testutil::testXfmConfig(2);
    xcfg.algorithm = alg;
    xcfg.faults = plan;
    xcfg.health = health;
    if (sq_depth) {
        xcfg.device.sqDepth = sq_depth;
        xcfg.device.cqCoalesce = 2;
    }
    xcfg.shardDict = shard_dict;  // dictBytes keeps its 2048 default
    xfmsys::XfmBackend xfm("xfm", eq, xcfg);
    xfm.start();

    dram::PhysMem cpu_mem(mib(64));
    sfm::CpuBackendConfig ccfg;
    ccfg.localBase = 0;
    ccfg.localPages = numPages;
    ccfg.sfmBase = mib(32);
    ccfg.sfmBytes = mib(16);
    ccfg.algorithm = alg;
    sfm::CpuSfmBackend cpu("cpu", eq, ccfg, cpu_mem);

    for (VirtPage p = 0; p < numPages; ++p) {
        const Bytes content = pageFor(p);
        xfm.writePage(p, content);
        cpu_mem.write(cpu.frameAddr(p), content);
    }

    // Demote everything. A backend may reject a page it cannot
    // shrink (lzfast on Base64Blob), but a rejection must leave the
    // page Local and intact; anything accepted must land Far.
    std::vector<bool> xfm_far(numPages, false);
    std::vector<bool> cpu_far(numPages, false);
    for (VirtPage p = 0; p < numPages; ++p) {
        xfm.swapOut(p, [&xfm_far, p](const SwapOutcome &o) {
            xfm_far[p] = o.success;
        });
        cpu.swapOut(p, [&cpu_far, p](const SwapOutcome &o) {
            cpu_far[p] = o.success;
        });
    }
    eq.run(eq.now() + seconds(1.0));

    // At most the incompressible class (every 6th page) may be
    // rejected; the compressible pages must all demote.
    const VirtPage incompressible = numPages / 6;
    std::uint64_t xfm_out = 0;
    std::uint64_t cpu_out = 0;
    for (VirtPage p = 0; p < numPages; ++p) {
        xfm_out += xfm_far[p];
        cpu_out += cpu_far[p];
        EXPECT_EQ(xfm.pageState(p),
                  xfm_far[p] ? PageState::Far : PageState::Local);
        EXPECT_EQ(cpu.pageState(p),
                  cpu_far[p] ? PageState::Far : PageState::Local);
    }
    EXPECT_GE(xfm_out, numPages - incompressible);
    EXPECT_GE(cpu_out, numPages - incompressible);

    // Promote everything back, offload allowed on the XFM side.
    // Faults may reroute a promotion to the CPU path but may not
    // fail it: decompression of committed data always succeeds.
    std::uint64_t in_ok = 0;
    for (VirtPage p = 0; p < numPages; ++p) {
        if (xfm_far[p])
            xfm.swapIn(p, true, [&](const SwapOutcome &o) {
                in_ok += o.success;
            });
        if (cpu_far[p])
            cpu.swapIn(p, false, [&](const SwapOutcome &o) {
                in_ok += o.success;
            });
    }
    eq.run(eq.now() + seconds(1.0));
    EXPECT_EQ(in_ok, xfm_out + cpu_out);

    // The payoff: both backends restore the original bytes exactly.
    for (VirtPage p = 0; p < numPages; ++p) {
        const Bytes content = pageFor(p);
        EXPECT_EQ(xfm.readPage(p), content)
            << algorithmName(alg) << " xfm page " << p;
        EXPECT_EQ(cpu_mem.read(cpu.frameAddr(p), pageBytes), content)
            << algorithmName(alg) << " cpu page " << p;
    }

    DifferentialResult r;
    r.xfmCpuOps = xfm.stats().cpuSwapOuts + xfm.stats().cpuSwapIns;
    r.offloadRetries = xfm.xfmStats().offloadRetries;
    r.dictShards = xfm.xfmStats().dictShards;
    r.dictFallbacks = xfm.xfmStats().dictFallbacks;
    return r;
}

/** The aggressive plan with the DFM spill-link sites armed too. */
fault::FaultPlan
tieredPlan()
{
    fault::FaultPlan plan = aggressivePlan();
    plan.site(fault::FaultSite::DfmLinkDelay).probability = 0.20;
    plan.site(fault::FaultSite::DfmLinkDrop).probability = 0.10;
    return plan;
}

/**
 * The differential cycle again, but with BOTH backends wrapped in a
 * TierManager sized so half the demotions land in the DFM spill
 * pool and the rest fall back to the compressed tier — every page
 * must restore byte-identically from either tier, on either stack.
 */
void
runTieredDifferential(compress::Algorithm alg,
                      const fault::FaultPlan &plan)
{
    EventQueue eq;
    auto xcfg = testutil::testXfmConfig(2);
    xcfg.algorithm = alg;
    xcfg.faults = plan;
    xfmsys::XfmBackend xfm("xfm", eq, xcfg);

    dram::PhysMem cpu_mem(mib(64));
    sfm::CpuBackendConfig ccfg;
    ccfg.localBase = 0;
    ccfg.localPages = numPages;
    ccfg.sfmBase = mib(32);
    ccfg.sfmBytes = mib(16);
    ccfg.algorithm = alg;
    sfm::CpuSfmBackend cpu("cpu", eq, ccfg, cpu_mem);

    sfm::TierConfig tcfg;
    tcfg.enabled = true;
    tcfg.scanInterval = 0;  // pure demand routing, no background scan
    // Pool for half the pages: the other half exercises the
    // pool-full fallback into the compressed tier.
    tcfg.dfmBytes = (numPages / 2) * pageBytes;
    sfm::TierManager xtiers("xfm.tiers", eq, tcfg, xfm, numPages, plan);
    sfm::TierManager ctiers("cpu.tiers", eq, tcfg, cpu, numPages, plan);
    xfm.start();
    xtiers.start();
    ctiers.start();

    for (VirtPage p = 0; p < numPages; ++p) {
        const Bytes content = pageFor(p);
        xfm.writePage(p, content);
        cpu_mem.write(cpu.frameAddr(p), content);
    }

    // Demote everything through the tier routers. Cold, never-hit
    // pages route to DFM under the auto policy until the pool is
    // full, then fall back to XFM; a failed spill or an
    // incompressible rejection leaves the page Near and intact.
    std::vector<bool> xfm_far(numPages, false);
    std::vector<bool> cpu_far(numPages, false);
    for (VirtPage p = 0; p < numPages; ++p) {
        xtiers.swapOut(p, [&xfm_far, p](const SwapOutcome &o) {
            xfm_far[p] = o.success;
        });
        ctiers.swapOut(p, [&cpu_far, p](const SwapOutcome &o) {
            cpu_far[p] = o.success;
        });
    }
    eq.run(eq.now() + seconds(1.0));

    std::uint64_t xfm_out = 0;
    std::uint64_t cpu_out = 0;
    for (VirtPage p = 0; p < numPages; ++p) {
        xfm_out += xfm_far[p];
        cpu_out += cpu_far[p];
        EXPECT_EQ(xtiers.pageState(p),
                  xfm_far[p] ? PageState::Far : PageState::Local);
        EXPECT_EQ(ctiers.pageState(p),
                  cpu_far[p] ? PageState::Far : PageState::Local);
    }
    EXPECT_GT(xfm_out, 0u);
    EXPECT_GT(cpu_out, 0u);
    // Both tiers actually engaged on both stacks.
    EXPECT_GT(xtiers.dfmPages(), 0u);
    EXPECT_GT(xtiers.xfmPages(), 0u);
    EXPECT_GT(ctiers.dfmPages(), 0u);
    EXPECT_GT(ctiers.xfmPages(), 0u);

    // Promote everything back through the routers.
    std::uint64_t in_ok = 0;
    for (VirtPage p = 0; p < numPages; ++p) {
        if (xfm_far[p])
            xtiers.swapIn(p, true, [&](const SwapOutcome &o) {
                in_ok += o.success;
            });
        if (cpu_far[p])
            ctiers.swapIn(p, false, [&](const SwapOutcome &o) {
                in_ok += o.success;
            });
    }
    eq.run(eq.now() + seconds(1.0));
    EXPECT_EQ(in_ok, xfm_out + cpu_out);

    for (VirtPage p = 0; p < numPages; ++p) {
        const Bytes content = pageFor(p);
        EXPECT_EQ(xfm.readPage(p), content)
            << algorithmName(alg) << " tiered xfm page " << p;
        EXPECT_EQ(cpu_mem.read(cpu.frameAddr(p), pageBytes), content)
            << algorithmName(alg) << " tiered cpu page " << p;
    }
}

class DifferentialTest
    : public ::testing::TestWithParam<compress::Algorithm>
{
};

TEST_P(DifferentialTest, CleanRunRestoresAllPages)
{
    const auto r = runDifferential(GetParam(), fault::FaultPlan{});
    // Without faults nothing retries.
    EXPECT_EQ(r.offloadRetries, 0u);
}

TEST_P(DifferentialTest, FaultedRunRestoresAllPages)
{
    const auto r = runDifferential(GetParam(), aggressivePlan());
    // The plan is aggressive enough that some operations must have
    // degraded — otherwise the harness is not exercising fallback.
    EXPECT_GT(r.xfmCpuOps, 0u);
}

TEST_P(DifferentialTest, FaultedRunWithBreakersRestoresAllPages)
{
    // Same aggressive plan, but with the health layer armed: circuit
    // breakers now trip mid-stream, reroute shards to per-channel
    // CPU fallbacks, and re-probe through half-open probation — and
    // none of that may cost a byte either.
    health::HealthConfig h;
    h.enabled = true;
    h.window = 8;
    h.failConsecutive = 3;
    h.cooldown = microseconds(50.0);
    const auto r = runDifferential(GetParam(), aggressivePlan(), h);
    EXPECT_GT(r.xfmCpuOps, 0u);
}

TEST_P(DifferentialTest, RingDepthEightRestoresAllPages)
{
    // The async command ring (sq_depth 8, coalesced reap) changes
    // completion delivery order but may not cost a byte: the same
    // clean run restores every page exactly.
    const auto r = runDifferential(GetParam(), fault::FaultPlan{},
                                   {}, 8);
    EXPECT_EQ(r.offloadRetries, 0u);
}

TEST_P(DifferentialTest, RingDepthEightFaultedRestoresAllPages)
{
    // Per-queue doorbell loss (batch flush), phase-bit misreads at
    // reap, SPM reserve failures and engine stalls, all while the
    // ring runs deep — data integrity must still be perfect.
    health::HealthConfig h;
    h.enabled = true;
    h.window = 8;
    h.failConsecutive = 3;
    h.cooldown = microseconds(50.0);
    const auto r =
        runDifferential(GetParam(), aggressivePlan(), h, 8);
    EXPECT_GT(r.xfmCpuOps, 0u);
}

TEST_P(DifferentialTest, DictCleanRunRestoresAllPages)
{
    // Preset dictionaries on (`xfm.shard_dict`): shards store in the
    // dict-referencing container, the packed dictionary rides the
    // slot tails, and every restore must still be byte-exact against
    // the dict-less CPU baseline.
    const auto r = runDifferential(GetParam(), fault::FaultPlan{},
                                   {}, 0, true);
    EXPECT_EQ(r.offloadRetries, 0u);
    // The page mix is dominated by spatially-correlated classes, so
    // dict mode must actually engage, not silently fall back.
    EXPECT_GT(r.dictShards, 0u);
}

TEST_P(DifferentialTest, DictFaultedRunRestoresAllPages)
{
    // Dict mode under the aggressive plan with breakers armed:
    // engine restores, per-shard CPU fallbacks, and watchdog redos
    // must all decode against the same recovered dictionary.
    health::HealthConfig h;
    h.enabled = true;
    h.window = 8;
    h.failConsecutive = 3;
    h.cooldown = microseconds(50.0);
    const auto r = runDifferential(GetParam(), aggressivePlan(), h,
                                   0, true);
    EXPECT_GT(r.xfmCpuOps, 0u);
    EXPECT_GT(r.dictShards, 0u);
}

TEST_P(DifferentialTest, DictRingDepthEightFaultedRestoresAllPages)
{
    // Dict mode, deep ring, faults: completion reordering must not
    // detach a shard from its page's dictionary.
    const auto r = runDifferential(GetParam(), aggressivePlan(), {},
                                   8, true);
    EXPECT_GT(r.dictShards, 0u);
}

TEST_P(DifferentialTest, TieredCleanRunRestoresAllPages)
{
    // No faults: the auto policy sends cold pages to the DFM pool
    // until it fills, the rest land compressed, and both stacks
    // restore every byte from both tiers.
    runTieredDifferential(GetParam(), fault::FaultPlan{});
}

TEST_P(DifferentialTest, TieredFaultedRunRestoresAllPages)
{
    // The aggressive plan plus the spill-link sites (delays and
    // dropped transfers forcing link retries): degraded routing is
    // fine, byte loss is not.
    runTieredDifferential(GetParam(), tieredPlan());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, DifferentialTest,
                         ::testing::Values(
                             compress::Algorithm::LzFast,
                             compress::Algorithm::Deflate,
                             compress::Algorithm::ZstdLike),
                         [](const auto &info) {
                             return algorithmName(info.param);
                         });

} // namespace
} // namespace xfm
