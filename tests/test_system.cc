/**
 * @file
 * Integration tests for the full-system composition: the same
 * workload on the CPU baseline and on XFM must keep page data
 * intact, and SFM-caused host channel traffic must vanish (up to
 * rare fallbacks) under XFM — the paper's headline.
 */

#include <gtest/gtest.h>

#include <optional>

#include "common/config.hh"
#include "compress/corpus.hh"
#include "system/system.hh"

namespace xfm
{
namespace system
{
namespace
{

SystemConfig
testConfig(BackendKind kind)
{
    SystemConfig cfg;
    cfg.backend = kind;
    cfg.pages = 128;
    cfg.sfmBytes = mib(8);
    cfg.controller.coldThreshold = milliseconds(5.0);
    cfg.controller.scanInterval = milliseconds(1.0);
    cfg.controller.maxSwapOutsPerScan = 16;
    return cfg;
}

Bytes
pageContent(sfm::VirtPage p)
{
    return compress::generateCorpus(compress::CorpusKind::CsvTable,
                                    p + 7, pageBytes);
}

class SystemTest : public ::testing::TestWithParam<BackendKind>
{
  protected:
    SystemTest() : sys_("sys", eq_, testConfig(GetParam()))
    {
        for (sfm::VirtPage p = 0; p < 128; ++p)
            sys_.writePage(p, pageContent(p));
        sys_.start();
    }

    EventQueue eq_;
    System sys_;
};

TEST_P(SystemTest, ColdPagesDemotedAndDataSurvives)
{
    eq_.run(milliseconds(80.0));
    EXPECT_GT(sys_.backend().farPageCount(), 0u);

    // Fault a few pages back in and verify contents.
    for (sfm::VirtPage p : {3ull, 40ull, 99ull}) {
        sys_.access(p);
        eq_.run(eq_.now() + milliseconds(2.0));
        EXPECT_EQ(sys_.readPage(p), pageContent(p)) << "page " << p;
    }
}

TEST_P(SystemTest, MetricsRender)
{
    eq_.run(milliseconds(40.0));
    const std::string out = sys_.metrics().renderText();
    EXPECT_NE(out.find("pagesFar"), std::string::npos);
    EXPECT_NE(out.find("hostBytesSfm"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SystemTest,
    ::testing::Values(BackendKind::BaselineCpu, BackendKind::Xfm),
    [](const auto &info) {
        return info.param == BackendKind::BaselineCpu ? "baseline"
                                                      : "xfm";
    });

TEST(SystemComparison, XfmEliminatesSfmHostTraffic)
{
    auto run = [](BackendKind kind) {
        EventQueue eq;
        System sys("sys", eq, testConfig(kind));
        for (sfm::VirtPage p = 0; p < 128; ++p)
            sys.writePage(p, pageContent(p));
        sys.start();
        // Let the scanner demote everything, then touch pages to
        // promote some back.
        eq.run(milliseconds(60.0));
        for (sfm::VirtPage p = 0; p < 16; ++p) {
            sys.access(p);
            eq.run(eq.now() + milliseconds(1.0));
        }
        return sys.sfmHostBytes();
    };
    const std::uint64_t baseline = run(BackendKind::BaselineCpu);
    const std::uint64_t xfm = run(BackendKind::Xfm);
    // The baseline moves every page + compressed block over the
    // host channels; XFM moves only fallback traffic.
    EXPECT_GT(baseline, 100u * pageBytes / 2);
    EXPECT_LT(xfm, baseline / 4);
}

TEST(SystemComparison, BothBackendsReachSimilarFarOccupancy)
{
    auto far_pages = [](BackendKind kind) {
        EventQueue eq;
        System sys("sys", eq, testConfig(kind));
        for (sfm::VirtPage p = 0; p < 128; ++p)
            sys.writePage(p, pageContent(p));
        sys.start();
        eq.run(milliseconds(80.0));
        return sys.backend().farPageCount();
    };
    const auto baseline = far_pages(BackendKind::BaselineCpu);
    const auto xfm = far_pages(BackendKind::Xfm);
    EXPECT_GT(baseline, 100u);
    EXPECT_GT(xfm, 100u);
}

TEST(SystemComparison, BaselineSkipsRefusedPageUntilTouched)
{
    // The baseline refuses a page whose block does not shrink. Its
    // bytes cannot change without an access, so kstaled must not
    // compress it again on every later scan.
    auto cfg = testConfig(BackendKind::BaselineCpu);
    cfg.pages = 1;
    cfg.algorithm = compress::Algorithm::LzFast;
    EventQueue eq;
    System sys("sys", eq, cfg);
    const Bytes blob = compress::generateCorpus(
        compress::CorpusKind::Base64Blob, 6, pageBytes);
    sys.writePage(0, blob);
    sys.start();

    // Cold after 5 ms and scanned every 1 ms: 16 scans see it cold.
    eq.run(milliseconds(20.0));
    const auto &ctrl = sys.controller().stats();
    EXPECT_EQ(ctrl.swapOutsInitiated, 1u);
    EXPECT_EQ(sys.backend().stats().rejectedSwapOuts, 1u);
    EXPECT_EQ(sys.backend().pageState(0), sfm::PageState::Local);

    // A touch clears the mark: once cold again it is retried once.
    EXPECT_TRUE(sys.access(0));
    eq.run(eq.now() + milliseconds(20.0));
    EXPECT_EQ(ctrl.swapOutsInitiated, 2u);
    EXPECT_EQ(sys.readPage(0), blob);
}

TEST(SystemConfigParse, KeysReachTheirComponents)
{
    // One parse path: every key lands in the struct of the component
    // that owns it, and an absent key keeps the base's value.
    const Config keys = Config::parseString(
        "backend = baseline\npages = 64\nsfm.bytes = 1048576\n"
        "xfm.dimms = 2\nxfm.sq_depth = 8\nworkers = 3\n"
        "refresh.mode = refpb\nhealth.enabled = 1\n"
        "fault.seed = 9\nretry.max_attempts = 5\n"
        "controller.cold_ms = 5\ntier.enabled = 1\n");
    SystemConfig base;
    base.controller.scanInterval = milliseconds(3.0);
    base.xfm.device.spmBytes = mib(1);
    const SystemConfig c = SystemConfig::fromConfig(keys, base);
    EXPECT_NO_THROW(keys.requireAllConsumed());

    EXPECT_EQ(c.backend, BackendKind::BaselineCpu);
    EXPECT_EQ(c.pages, 64u);
    EXPECT_EQ(c.sfmBytes, mib(1));
    EXPECT_EQ(c.xfm.numDimms, 2u);
    EXPECT_EQ(c.xfm.device.sqDepth, 8u);
    EXPECT_EQ(c.xfm.device.spmBytes, mib(1));
    EXPECT_EQ(c.xfm.workers, 3u);
    EXPECT_EQ(c.xfm.dimmMem.rank.device.refreshMode,
              dram::RefreshMode::RefPb);
    EXPECT_TRUE(c.xfm.health.enabled);
    EXPECT_EQ(c.xfm.faults.seed, 9u);
    EXPECT_EQ(c.xfm.retry.maxAttempts, 5u);
    EXPECT_EQ(c.controller.coldThreshold, milliseconds(5.0));
    EXPECT_EQ(c.controller.scanInterval, milliseconds(3.0));
    EXPECT_TRUE(c.tier.enabled);
}

TEST(SystemConfigParse, SqDepthOutsideTagSlotRangeIsFatal)
{
    // A command tag holds a 16-bit slot index, and every DIMM needs
    // at least one slot.
    for (const char *depth : {"0", "65537"}) {
        const Config keys = Config::parseString(
            std::string("xfm.sq_depth = ") + depth + "\n");
        EXPECT_THROW(nma::XfmDeviceConfig::fromConfig(keys), FatalError)
            << "depth " << depth;
    }
    const Config max = Config::parseString("xfm.sq_depth = 65536\n");
    EXPECT_EQ(nma::XfmDeviceConfig::fromConfig(max).sqDepth, 65536u);
}

TEST(SystemConfigParse, DefaultDimmIsOneSingleRankChannel)
{
    // The backend asserts a single-channel, single-rank DIMM; the
    // default geometry must satisfy it without any override.
    const xfmsys::XfmSystemConfig x;
    EXPECT_EQ(x.dimmMem.channels, 1u);
    EXPECT_EQ(x.dimmMem.dimmsPerChannel, 1u);
    EXPECT_EQ(x.dimmMem.ranksPerDimm, 1u);
    EXPECT_EQ(x.dimmMem.rank.device.capacityBits,
              dram::ddr5Device32Gb().capacityBits);
}

} // namespace
} // namespace system
} // namespace xfm

namespace xfm
{
namespace system
{
namespace
{

TEST(BackendStatsGroups, RenderNonEmpty)
{
    EventQueue eq;
    System sys("sys", eq, testConfig(BackendKind::Xfm));
    for (sfm::VirtPage p = 0; p < 128; ++p)
        sys.writePage(p, pageContent(p));
    sys.start();
    eq.run(milliseconds(40.0));
    // Backend and per-DIMM device metrics surface through the
    // system's unified registry.
    const std::string out = sys.metrics().renderText();
    EXPECT_NE(out.find("offloadedSwapOuts"), std::string::npos);
    EXPECT_NE(out.find("conditionalAccesses"), std::string::npos);

    EventQueue eq2;
    System sys2("sys2", eq2, testConfig(BackendKind::BaselineCpu));
    for (sfm::VirtPage p = 0; p < 128; ++p)
        sys2.writePage(p, pageContent(p));
    sys2.start();
    eq2.run(milliseconds(40.0));
    const std::string out2 = sys2.metrics().renderText();
    EXPECT_NE(out2.find("pool.usedBytes"), std::string::npos);
}

} // namespace
} // namespace system
} // namespace xfm
