/**
 * @file
 * TierManager unit tests: watermark routing across the NEAR/XFM/DFM
 * lattice, the spill scan (second-level coldness), per-group
 * policy isolation, pool-full fallback, busy re-entry, and tier-map
 * coherence across backend-initiated reclaims (quarantine-cap
 * evictions).
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "sfm/cpu_backend.hh"
#include "sfm/tier_manager.hh"
#include "test_util.hh"
#include "xfm/xfm_backend.hh"

namespace xfm
{
namespace
{

using sfm::PageState;
using sfm::RejectReason;
using sfm::SwapOutcome;
using sfm::Tier;
using sfm::TierConfig;
using sfm::TierPolicy;
using sfm::VirtPage;

Bytes
pageFor(VirtPage p)
{
    return testutil::corpusPage(compress::CorpusKind::EnglishText,
                                p + 1);
}

/** Tier config used across the suite: enabled, no background scan
 *  (tests that want the scan turn it back on), roomy spill pool. */
TierConfig
baseTierConfig()
{
    TierConfig t;
    t.enabled = true;
    t.scanInterval = 0;
    t.promoteWatermark = 2;
    t.dfmBytes = mib(1);
    return t;
}

/** A TierManager over the baseline CPU backend, pages pre-seeded
 *  with deterministic corpus content. */
struct CpuTierRig
{
    static constexpr VirtPage pages = 16;

    EventQueue eq;
    dram::PhysMem mem;
    sfm::CpuSfmBackend cpu;
    sfm::TierManager tiers;

    explicit CpuTierRig(const TierConfig &tcfg)
        : mem(mib(16)),
          cpu("cpu", eq, cpuConfig(), mem),
          tiers("tiers", eq, tcfg, cpu, pages)
    {
        for (VirtPage p = 0; p < pages; ++p)
            tiers.writeLocalPage(p, pageFor(p));
    }

    static sfm::CpuBackendConfig
    cpuConfig()
    {
        sfm::CpuBackendConfig c;
        c.localBase = 0;
        c.localPages = pages;
        c.sfmBase = mib(8);
        c.sfmBytes = mib(4);
        return c;
    }

    void run(Tick d) { eq.run(eq.now() + d); }

    SwapOutcome
    demote(VirtPage p)
    {
        SwapOutcome r;
        bool fired = false;
        tiers.swapOut(p, true, [&](const SwapOutcome &o) {
            r = o;
            fired = true;
        });
        run(milliseconds(1.0));
        EXPECT_TRUE(fired) << "swapOut(" << p << ") never completed";
        return r;
    }

    SwapOutcome
    promote(VirtPage p)
    {
        SwapOutcome r;
        bool fired = false;
        tiers.swapIn(p, false, [&](const SwapOutcome &o) {
            r = o;
            fired = true;
        });
        run(milliseconds(1.0));
        EXPECT_TRUE(fired) << "swapIn(" << p << ") never completed";
        return r;
    }

    /** Touch @p p @p times right now (feeds the watermark). */
    void
    touch(VirtPage p, unsigned times)
    {
        for (unsigned i = 0; i < times; ++i)
            tiers.noteAccess(p, eq.now());
    }
};

TEST(TierManager, WatermarkRoutesDemotions)
{
    CpuTierRig rig(baseTierConfig());

    // Page 0 is hot (at the watermark), page 1 a cold stranger.
    rig.touch(0, 2);
    const SwapOutcome hot = rig.demote(0);
    const SwapOutcome cold = rig.demote(1);

    ASSERT_TRUE(hot.success);
    ASSERT_TRUE(cold.success);
    EXPECT_EQ(hot.servedTier, Tier::Xfm);
    EXPECT_EQ(cold.servedTier, Tier::Dfm);
    EXPECT_EQ(cold.compressedSize, 0u);  // spill slots never compress
    EXPECT_EQ(rig.tiers.tier(0), Tier::Xfm);
    EXPECT_EQ(rig.tiers.tier(1), Tier::Dfm);
    EXPECT_EQ(rig.tiers.pageState(0), PageState::Far);
    EXPECT_EQ(rig.tiers.pageState(1), PageState::Far);
    EXPECT_EQ(rig.tiers.nearPages(), CpuTierRig::pages - 2);
    EXPECT_EQ(rig.tiers.tierStats().demotedNearToXfm, 1u);
    EXPECT_EQ(rig.tiers.tierStats().demotedNearToDfm, 1u);
}

TEST(TierManager, PromoteOnFaultRestoresBytes)
{
    CpuTierRig rig(baseTierConfig());

    rig.touch(0, 2);
    ASSERT_TRUE(rig.demote(0).success);  // -> XFM
    ASSERT_TRUE(rig.demote(1).success);  // -> DFM

    const SwapOutcome from_xfm = rig.promote(0);
    const SwapOutcome from_dfm = rig.promote(1);
    ASSERT_TRUE(from_xfm.success);
    ASSERT_TRUE(from_dfm.success);
    EXPECT_EQ(from_xfm.servedTier, Tier::Xfm);
    EXPECT_EQ(from_dfm.servedTier, Tier::Dfm);

    EXPECT_EQ(rig.tiers.tier(0), Tier::Near);
    EXPECT_EQ(rig.tiers.tier(1), Tier::Near);
    EXPECT_EQ(rig.tiers.nearPages(), CpuTierRig::pages);
    EXPECT_EQ(rig.tiers.tierStats().promotedFromXfm, 1u);
    EXPECT_EQ(rig.tiers.tierStats().promotedFromDfm, 1u);
    EXPECT_EQ(rig.tiers.readLocalPage(0), pageFor(0));
    EXPECT_EQ(rig.tiers.readLocalPage(1), pageFor(1));
}

TEST(TierManager, SpillScanDemotesColdXfmPages)
{
    TierConfig t = baseTierConfig();
    t.scanInterval = milliseconds(1.0);
    t.spillColdThreshold = milliseconds(5.0);
    CpuTierRig rig(t);

    // Demote four hot pages to XFM. The tier change halves their
    // access count below the watermark, so once they sit untouched
    // past the cold threshold the scan spills them.
    for (VirtPage p = 0; p < 4; ++p) {
        rig.touch(p, 2);
        ASSERT_TRUE(rig.demote(p).success);
        ASSERT_EQ(rig.tiers.tier(p), Tier::Xfm);
    }

    rig.tiers.start();
    rig.run(milliseconds(20.0));

    EXPECT_GT(rig.tiers.tierStats().spillScans, 0u);
    EXPECT_EQ(rig.tiers.tierStats().demotedXfmToDfm, 4u);
    EXPECT_EQ(rig.tiers.xfmPages(), 0u);
    EXPECT_EQ(rig.tiers.dfmPages(), 4u);
    for (VirtPage p = 0; p < 4; ++p) {
        EXPECT_EQ(rig.tiers.tier(p), Tier::Dfm);
        // The spill moved data, not just state: promotion restores
        // the original bytes from the spill tier.
        ASSERT_TRUE(rig.promote(p).success);
        EXPECT_EQ(rig.tiers.readLocalPage(p), pageFor(p));
    }
}

TEST(TierManager, WatermarkHoldsHotPagesInXfm)
{
    TierConfig t = baseTierConfig();
    t.scanInterval = milliseconds(1.0);
    t.spillColdThreshold = milliseconds(5.0);
    CpuTierRig rig(t);

    rig.touch(0, 2);
    ASSERT_TRUE(rig.demote(0).success);
    // Keep earning hotness after the demotion: the halved count is
    // topped back up over the watermark, so the scan must hold the
    // page in XFM no matter how stale its last access gets.
    rig.touch(0, 3);

    rig.tiers.start();
    rig.run(milliseconds(20.0));

    EXPECT_EQ(rig.tiers.tier(0), Tier::Xfm);
    EXPECT_EQ(rig.tiers.tierStats().demotedXfmToDfm, 0u);
    EXPECT_GT(rig.tiers.tierStats().watermarkHolds, 0u);
}

TEST(TierManager, PerGroupPolicyIsolation)
{
    TierConfig t = baseTierConfig();
    t.scanInterval = milliseconds(1.0);
    t.spillColdThreshold = milliseconds(2.0);
    CpuTierRig rig(t);

    // Tenant 0 (pages 0-7) pins the compressed tier; tenant 1
    // (pages 8-15) goes straight to spill.
    rig.tiers.assignGroup(0, 8, 0);
    rig.tiers.assignGroup(8, 8, 1);
    rig.tiers.setGroupPolicy(0, TierPolicy::XfmFirst);
    rig.tiers.setGroupPolicy(1, TierPolicy::DfmFirst);

    for (VirtPage p = 0; p < CpuTierRig::pages; ++p)
        ASSERT_TRUE(rig.demote(p).success);
    for (VirtPage p = 0; p < 8; ++p)
        EXPECT_EQ(rig.tiers.tier(p), Tier::Xfm) << "page " << p;
    for (VirtPage p = 8; p < 16; ++p)
        EXPECT_EQ(rig.tiers.tier(p), Tier::Dfm) << "page " << p;

    // A long cold scan may never leak an xfm_first page into DFM.
    rig.tiers.start();
    rig.run(milliseconds(50.0));
    for (VirtPage p = 0; p < 8; ++p)
        EXPECT_EQ(rig.tiers.tier(p), Tier::Xfm) << "page " << p;
    EXPECT_EQ(rig.tiers.tierStats().demotedXfmToDfm, 0u);
    EXPECT_EQ(rig.tiers.dfmPages(), 8u);
}

TEST(TierManager, DfmPoolFullFallsBackToXfm)
{
    TierConfig t = baseTierConfig();
    t.policy = TierPolicy::DfmFirst;
    t.dfmBytes = 2 * pageBytes;  // a two-slot spill pool
    CpuTierRig rig(t);

    std::vector<SwapOutcome> outs;
    for (VirtPage p = 0; p < 4; ++p) {
        outs.push_back(rig.demote(p));
        ASSERT_TRUE(outs.back().success) << "page " << p;
    }

    // First two demotions take the pool; the rest land compressed.
    EXPECT_EQ(outs[0].servedTier, Tier::Dfm);
    EXPECT_EQ(outs[1].servedTier, Tier::Dfm);
    EXPECT_EQ(outs[2].servedTier, Tier::Xfm);
    EXPECT_EQ(outs[3].servedTier, Tier::Xfm);
    EXPECT_EQ(rig.tiers.dfmPages(), 2u);
    EXPECT_EQ(rig.tiers.xfmPages(), 2u);

    // Promoting a DFM page frees its slot for the next demotion.
    ASSERT_TRUE(rig.promote(0).success);
    const SwapOutcome again = rig.demote(0);
    ASSERT_TRUE(again.success);
    EXPECT_EQ(again.servedTier, Tier::Dfm);
}

TEST(TierManager, BusyReentryRejected)
{
    CpuTierRig rig(baseTierConfig());

    // Second swap-out of the same page in the same tick: the first
    // is still in flight, the second must bounce as Busy without
    // touching the tier map.
    bool first_ok = false;
    SwapOutcome second;
    rig.tiers.swapOut(0, true, [&](const SwapOutcome &o) {
        first_ok = o.success;
    });
    rig.tiers.swapOut(0, true, [&](const SwapOutcome &o) { second = o; });
    EXPECT_FALSE(second.success);
    EXPECT_EQ(second.rejected, RejectReason::Busy);

    rig.run(milliseconds(1.0));
    EXPECT_TRUE(first_ok);
    EXPECT_EQ(rig.tiers.pageState(0), PageState::Far);
    EXPECT_EQ(rig.tiers.stats().rejectedSwapOuts, 1u);

    // Same for promotion re-entry.
    SwapOutcome in2;
    rig.tiers.swapIn(0, false, [](const SwapOutcome &) {});
    rig.tiers.swapIn(0, false,
                     [&](const SwapOutcome &o) { in2 = o; });
    EXPECT_FALSE(in2.success);
    EXPECT_EQ(in2.rejected, RejectReason::Busy);
    rig.run(milliseconds(1.0));
    EXPECT_EQ(rig.tiers.pageState(0), PageState::Local);
}

TEST(TierManager, QuarantineReclaimKeepsTierCoherent)
{
    // An XfmBackend under the tier layer with a one-page quarantine
    // cap and every swap-in poisoned: the second quarantine evicts
    // the first page back to Local behind the TierManager's back,
    // and the reclaim hook must pull the tier map along.
    EventQueue eq;
    auto xcfg = testutil::testXfmConfig(2);
    xcfg.quarantineCap = 1;
    xcfg.faults.site(fault::FaultSite::EccUncorrectable)
        .probability = 1.0;

    xfmsys::XfmBackend xfm("xfm", eq, xcfg);
    TierConfig t = baseTierConfig();
    t.policy = TierPolicy::XfmFirst;
    sfm::TierManager tiers("tiers", eq, t, xfm, 8);
    xfm.start();

    for (VirtPage p = 0; p < 2; ++p) {
        tiers.writeLocalPage(p, pageFor(p));
        bool ok = false;
        tiers.swapOut(p, true,
                      [&ok](const SwapOutcome &o) { ok = o.success; });
        eq.run(eq.now() + milliseconds(1.0));
        ASSERT_TRUE(ok);
        ASSERT_EQ(tiers.tier(p), Tier::Xfm);
    }

    // Both promotions fail and quarantine their page; the second
    // one overflows the cap and evicts page 0 (Far -> Local).
    for (VirtPage p = 0; p < 2; ++p) {
        SwapOutcome in;
        tiers.swapIn(p, false,
                     [&in](const SwapOutcome &o) { in = o; });
        eq.run(eq.now() + milliseconds(1.0));
        EXPECT_FALSE(in.success);
    }

    EXPECT_EQ(xfm.quarantinedPageCount(), 1u);
    EXPECT_TRUE(xfm.isQuarantined(1));
    EXPECT_EQ(xfm.xfmStats().quarantineEvicted, 1u);
    EXPECT_EQ(xfm.pageState(0), PageState::Local);

    // The reclaim hook kept the tier map coherent with the silent
    // eviction: page 0 is NEAR again, page 1 still XFM.
    EXPECT_EQ(tiers.tier(0), Tier::Near);
    EXPECT_EQ(tiers.tier(1), Tier::Xfm);
    EXPECT_EQ(tiers.xfmPages(), 1u);
    EXPECT_EQ(tiers.pageState(0), PageState::Local);

    // And the reclaimed page is fully operable: its frame is intact
    // and it can demote again without tripping a state assert.
    EXPECT_EQ(tiers.readLocalPage(0), pageFor(0));
    bool ok = false;
    tiers.swapOut(0, true,
                  [&ok](const SwapOutcome &o) { ok = o.success; });
    eq.run(eq.now() + milliseconds(1.0));
    EXPECT_TRUE(ok);
    EXPECT_EQ(tiers.tier(0), Tier::Xfm);
}

TEST(TierManager, DisabledConfigParsesAsDisabled)
{
    // fromConfig on an empty config: the master switch stays off, so
    // callers never construct a manager and two-state behaviour is
    // untouched (the byte-identity contract lives in
    // test_determinism's TieringOffMatchesDefault).
    Config cfg = Config::parseString("");
    const TierConfig t = TierConfig::fromConfig(cfg);
    EXPECT_FALSE(t.enabled);
}

} // namespace
} // namespace xfm
