/**
 * @file
 * Tests for the SFM stack: ZPool allocator invariants, the baseline
 * CPU backend's swap paths, and the SFM controller's cold-page /
 * fault / prefetch policies.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "common/logging.hh"
#include "common/random.hh"
#include "compress/corpus.hh"
#include "dram/phys_mem.hh"
#include "sfm/controller.hh"
#include "sfm/cpu_backend.hh"
#include "sfm/zpool.hh"
#include "sim/event_queue.hh"
#include "test_util.hh"

namespace xfm
{
namespace sfm
{
namespace
{

// ------------------------------------------------------------------ zpool

class ZPoolTest : public ::testing::Test
{
  protected:
    ZPoolTest() : mem_(mib(64)), pool_(mem_, 0, mib(1)) {}

    dram::PhysMem mem_;
    ZPool pool_;
};

TEST_F(ZPoolTest, InsertFetchRoundTrip)
{
    const Bytes data = {10, 20, 30, 40};
    const ZHandle h = pool_.insert(data);
    ASSERT_NE(h, invalidZHandle);
    EXPECT_EQ(pool_.fetch(h), data);
    EXPECT_EQ(pool_.sizeOf(h), 4u);
    EXPECT_EQ(pool_.usedBytes(), 4u);
}

TEST_F(ZPoolTest, PacksObjectsIntoOnePage)
{
    // Many small objects share the first host page.
    std::vector<ZHandle> handles;
    for (int i = 0; i < 8; ++i)
        handles.push_back(pool_.insert(Bytes(256,
            static_cast<std::uint8_t>(i))));
    const std::uint64_t first_page_addr = pool_.addressOf(handles[0]);
    for (const auto h : handles)
        EXPECT_LT(pool_.addressOf(h), first_page_addr + pageBytes);
}

TEST_F(ZPoolTest, EraseLeavesHoleUntilCompaction)
{
    const ZHandle a = pool_.insert(Bytes(1000, 1));
    const ZHandle b = pool_.insert(Bytes(1000, 2));
    const ZHandle c = pool_.insert(Bytes(1000, 3));
    (void)a;
    (void)c;
    pool_.erase(b);  // middle object -> hole
    EXPECT_EQ(pool_.fragmentedBytes(), 1000u);
    const std::uint64_t reclaimed = pool_.compact();
    EXPECT_EQ(reclaimed, 1000u);
    EXPECT_EQ(pool_.fragmentedBytes(), 0u);
    // Data is intact after the memcpys.
    EXPECT_EQ(pool_.fetch(a), Bytes(1000, 1));
    EXPECT_EQ(pool_.fetch(c), Bytes(1000, 3));
    EXPECT_GT(pool_.stats().compactionMemcpyBytes, 0u);
}

TEST_F(ZPoolTest, TailEraseNeedsNoCompaction)
{
    const ZHandle a = pool_.insert(Bytes(100, 1));
    const ZHandle b = pool_.insert(Bytes(100, 2));
    (void)a;
    pool_.erase(b);
    EXPECT_EQ(pool_.fragmentedBytes(), 0u);
}

TEST_F(ZPoolTest, WholePageFreeResetsTail)
{
    const ZHandle a = pool_.insert(Bytes(3000, 1));
    pool_.erase(a);
    EXPECT_EQ(pool_.usedBytes(), 0u);
    EXPECT_EQ(pool_.fragmentedBytes(), 0u);
    // Space is immediately reusable.
    EXPECT_NE(pool_.insert(Bytes(4000, 2)), invalidZHandle);
}

TEST_F(ZPoolTest, FailsWhenFull)
{
    // 1 MiB region = 256 pages; 256 x 4 KiB objects fill it.
    for (int i = 0; i < 256; ++i)
        ASSERT_NE(pool_.insert(Bytes(pageBytes, 1)), invalidZHandle);
    EXPECT_EQ(pool_.insert(Bytes(64, 2)), invalidZHandle);
    EXPECT_EQ(pool_.stats().failedAllocs, 1u);
}

TEST_F(ZPoolTest, FragmentationBlocksThenCompactionUnblocks)
{
    // Fill with 3000 B objects (one per page: 3000 + 3000 > 4096).
    std::vector<ZHandle> handles;
    for (int i = 0; i < 256; ++i)
        handles.push_back(pool_.insert(Bytes(3000, 1)));
    // Add 1000 B objects into the tails.
    std::vector<ZHandle> small;
    for (int i = 0; i < 256; ++i)
        small.push_back(pool_.insert(Bytes(1000, 2)));
    // Free the big objects: 3000 B holes in every page.
    for (auto h : handles)
        pool_.erase(h);
    EXPECT_GT(pool_.fragmentedBytes(), 0u);
    // A 2 KiB object does not fit any tail until compaction.
    EXPECT_EQ(pool_.insert(Bytes(2048, 3)), invalidZHandle);
    pool_.compact();
    EXPECT_NE(pool_.insert(Bytes(2048, 3)), invalidZHandle);
}

TEST_F(ZPoolTest, AddressOfTracksCompaction)
{
    const ZHandle a = pool_.insert(Bytes(1000, 7));
    const ZHandle b = pool_.insert(Bytes(1000, 8));
    pool_.erase(a);
    const std::uint64_t before = pool_.addressOf(b);
    pool_.compact();
    EXPECT_LT(pool_.addressOf(b), before);
    EXPECT_EQ(pool_.fetch(b), Bytes(1000, 8));
}

TEST_F(ZPoolTest, StatsCount)
{
    const ZHandle a = pool_.insert(Bytes(10, 1));
    pool_.erase(a);
    EXPECT_EQ(pool_.stats().allocs, 1u);
    EXPECT_EQ(pool_.stats().frees, 1u);
    EXPECT_EQ(pool_.objectCount(), 0u);
}

// ------------------------------------------------------------ cpu backend

class CpuBackendTest : public ::testing::Test
{
  protected:
    static constexpr std::uint64_t numPages = 64;

    CpuBackendTest() : mem_(mib(64))
    {
        CpuBackendConfig cfg;
        cfg.localBase = 0;
        cfg.localPages = numPages;
        cfg.sfmBase = mib(16);
        cfg.sfmBytes = mib(1);
        backend_.emplace("backend", eq_, cfg, mem_);
    }

    Bytes
    pageContent(VirtPage p)
    {
        return testutil::corpusPage(compress::CorpusKind::EnglishText,
                                    p + 1);
    }

    void
    loadPage(VirtPage p)
    {
        mem_.write(backend_->frameAddr(p), pageContent(p));
    }

    EventQueue eq_;
    dram::PhysMem mem_;
    std::optional<CpuSfmBackend> backend_;
};

TEST_F(CpuBackendTest, SwapOutThenInPreservesData)
{
    loadPage(3);
    SwapOutcome out_result;
    backend_->swapOut(3, true, [&](const SwapOutcome &o) { out_result = o; });
    eq_.run();
    EXPECT_TRUE(out_result.success);
    EXPECT_TRUE(out_result.usedCpu);
    EXPECT_GT(out_result.compressedSize, 0u);
    EXPECT_LT(out_result.compressedSize, pageBytes);
    EXPECT_EQ(backend_->pageState(3), PageState::Far);
    EXPECT_EQ(backend_->farPageCount(), 1u);

    // Scribble over the local frame, then swap back in.
    mem_.fill(backend_->frameAddr(3), pageBytes, 0xEE);
    SwapOutcome in_result;
    backend_->swapIn(3, false,
                     [&](const SwapOutcome &o) { in_result = o; });
    eq_.run();
    EXPECT_TRUE(in_result.success);
    EXPECT_EQ(backend_->pageState(3), PageState::Local);
    EXPECT_EQ(mem_.read(backend_->frameAddr(3), pageBytes),
              pageContent(3));
}

TEST_F(CpuBackendTest, SwapLatencyMatchesCycleModel)
{
    loadPage(0);
    Tick done_at = 0;
    backend_->swapOut(0, true, [&](const SwapOutcome &o) {
        done_at = o.completed;
    });
    eq_.run();
    // zstdlike compression: 14 cycles/B * 4096 B / 2.6 GHz ~ 22 us.
    const double expected_ns = 14.0 * 4096 / 2.6;
    EXPECT_NEAR(ticksToNs(done_at), expected_ns, expected_ns * 0.01);
}

TEST_F(CpuBackendTest, CpuCyclesAccumulate)
{
    loadPage(0);
    loadPage(1);
    backend_->swapOut(0, true, nullptr);
    backend_->swapOut(1, true, nullptr);
    eq_.run();
    // Two pages at 14 cycles/byte.
    EXPECT_EQ(backend_->stats().cpuCycles,
              static_cast<std::uint64_t>(2 * 14.0 * 4096));
}

TEST_F(CpuBackendTest, RejectsWhenSfmRegionFull)
{
    // Fill the 1 MiB SFM region with incompressible pages.
    Rng rng(1);
    int rejected = 0;
    for (VirtPage p = 0; p < numPages; ++p) {
        Bytes noise(pageBytes);
        for (auto &b : noise)
            b = static_cast<std::uint8_t>(rng.next());
        mem_.write(backend_->frameAddr(p), noise);
        backend_->swapOut(p, true, [&](const SwapOutcome &o) {
            if (!o.success)
                ++rejected;
        });
    }
    eq_.run();
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(backend_->stats().rejectedSwapOuts,
              static_cast<std::uint64_t>(rejected));
}

TEST_F(CpuBackendTest, DoubleSwapOutIsFatal)
{
    loadPage(5);
    backend_->swapOut(5, true, nullptr);
    eq_.run();
    EXPECT_THROW(backend_->swapOut(5, true, nullptr), FatalError);
}

TEST_F(CpuBackendTest, SwapInOfLocalPageIsFatal)
{
    EXPECT_THROW(backend_->swapIn(7, false, nullptr), FatalError);
}

TEST_F(CpuBackendTest, StoredBytesTrackPool)
{
    loadPage(2);
    backend_->swapOut(2, true, nullptr);
    eq_.run();
    EXPECT_EQ(backend_->storedCompressedBytes(),
              backend_->pool().usedBytes());
    EXPECT_GT(backend_->storedCompressedBytes(), 0u);
}

// ------------------------------------------------------------- controller

class ControllerTest : public ::testing::Test
{
  protected:
    static constexpr std::uint64_t numPages = 32;

    ControllerTest() : mem_(mib(64))
    {
        CpuBackendConfig bcfg;
        bcfg.localBase = 0;
        bcfg.localPages = numPages;
        bcfg.sfmBase = mib(16);
        bcfg.sfmBytes = mib(4);
        backend_.emplace("backend", eq_, bcfg, mem_);
        for (VirtPage p = 0; p < numPages; ++p) {
            mem_.write(backend_->frameAddr(p),
                       compress::generateCorpus(
                           compress::CorpusKind::Json, p, pageBytes));
        }
    }

    void
    makeController(ControllerConfig cfg)
    {
        ctrl_.emplace("controller", eq_, cfg, *backend_, numPages);
    }

    EventQueue eq_;
    dram::PhysMem mem_;
    std::optional<CpuSfmBackend> backend_;
    std::optional<SfmController> ctrl_;
};

TEST_F(ControllerTest, ColdPagesGetSwappedOut)
{
    ControllerConfig cfg;
    cfg.coldThreshold = milliseconds(10.0);
    cfg.scanInterval = milliseconds(5.0);
    makeController(cfg);
    ctrl_->start();
    eq_.run(milliseconds(30.0));
    // All pages were last touched at tick 0 and are now cold.
    EXPECT_EQ(backend_->farPageCount(), numPages);
    EXPECT_GE(ctrl_->stats().scans, 2u);
}

TEST_F(ControllerTest, HotPagesStayLocal)
{
    ControllerConfig cfg;
    cfg.coldThreshold = milliseconds(10.0);
    cfg.scanInterval = milliseconds(2.0);
    makeController(cfg);
    ctrl_->start();
    // Touch page 0 continually.
    for (int i = 1; i <= 40; ++i) {
        eq_.scheduleIn(milliseconds(i),
                       [this] { ctrl_->recordAccess(0); });
    }
    eq_.run(milliseconds(40.0));
    EXPECT_EQ(backend_->pageState(0), PageState::Local);
    EXPECT_GT(backend_->farPageCount(), 0u);
}

TEST_F(ControllerTest, DemandFaultBringsPageBack)
{
    ControllerConfig cfg;
    cfg.coldThreshold = milliseconds(1.0);
    cfg.scanInterval = milliseconds(1.0);
    cfg.prefetchDepth = 0;
    makeController(cfg);
    ctrl_->start();
    eq_.run(milliseconds(20.0));
    ASSERT_EQ(backend_->pageState(4), PageState::Far);

    EXPECT_FALSE(ctrl_->recordAccess(4));  // fault
    // Run just past the decompression latency; a longer run would
    // let the scanner re-demote the page (it goes cold again).
    eq_.run(eq_.now() + microseconds(500.0));
    EXPECT_EQ(backend_->pageState(4), PageState::Local);
    EXPECT_EQ(ctrl_->stats().demandFaults, 1u);
    EXPECT_GT(ctrl_->stats().faultServiceNs.count(), 0u);
}

TEST_F(ControllerTest, SequentialPrefetchPromotesNeighbours)
{
    ControllerConfig cfg;
    cfg.coldThreshold = milliseconds(1.0);
    cfg.scanInterval = milliseconds(1.0);
    cfg.prefetchDepth = 2;
    makeController(cfg);
    ctrl_->start();
    eq_.run(milliseconds(20.0));
    ASSERT_EQ(backend_->pageState(10), PageState::Far);

    ctrl_->recordAccess(10);
    eq_.run(eq_.now() + microseconds(500.0));
    EXPECT_EQ(ctrl_->stats().prefetchesInitiated, 2u);
    EXPECT_EQ(backend_->pageState(11), PageState::Local);
    EXPECT_EQ(backend_->pageState(12), PageState::Local);

    // Touching a prefetched page counts as a prefetch hit, not a
    // fault.
    EXPECT_TRUE(ctrl_->recordAccess(11));
    EXPECT_EQ(ctrl_->stats().prefetchHits, 1u);
    EXPECT_EQ(ctrl_->stats().demandFaults, 1u);
}

TEST_F(ControllerTest, LocalAccessIsHit)
{
    ControllerConfig cfg;
    makeController(cfg);
    EXPECT_TRUE(ctrl_->recordAccess(0));
    EXPECT_EQ(ctrl_->stats().demandFaults, 0u);
}

} // namespace
} // namespace sfm
} // namespace xfm

namespace xfm
{
namespace sfm
{
namespace
{

// zswap's same-filled page optimisation.

TEST_F(CpuBackendTest, SameFilledPageStoredAsMarker)
{
    mem_.fill(backend_->frameAddr(9), pageBytes, 0x00);  // zero page
    SwapOutcome out;
    backend_->swapOut(9, true, [&](const SwapOutcome &o) { out = o; });
    eq_.run();
    EXPECT_TRUE(out.success);
    EXPECT_EQ(out.compressedSize, 8u);
    EXPECT_EQ(backend_->stats().sameFilledPages, 1u);
    // No pool space consumed.
    EXPECT_EQ(backend_->pool().usedBytes(), 0u);
    EXPECT_EQ(backend_->pageState(9), PageState::Far);

    mem_.fill(backend_->frameAddr(9), pageBytes, 0xEE);
    backend_->swapIn(9, false, nullptr);
    eq_.run();
    EXPECT_EQ(mem_.read(backend_->frameAddr(9), pageBytes),
              Bytes(pageBytes, 0x00));
}

TEST_F(CpuBackendTest, NonZeroFillPatternRoundTrips)
{
    // A page of repeating 0xDEADBEEFDEADBEEF words is same-filled.
    Bytes pattern(pageBytes);
    const std::uint64_t word = 0xDEADBEEFDEADBEEFull;
    for (std::size_t off = 0; off < pageBytes; off += 8)
        std::memcpy(pattern.data() + off, &word, 8);
    mem_.write(backend_->frameAddr(10), pattern);
    backend_->swapOut(10, true, nullptr);
    eq_.run();
    EXPECT_EQ(backend_->stats().sameFilledPages, 1u);
    backend_->swapIn(10, false, nullptr);
    eq_.run();
    EXPECT_EQ(mem_.read(backend_->frameAddr(10), pageBytes), pattern);
}

} // namespace
} // namespace sfm
} // namespace xfm

namespace xfm
{
namespace sfm
{
namespace
{

// Stride prefetcher (the "tuned controller" knob of Sec. 8).

TEST_F(ControllerTest, DetectsBackwardStride)
{
    ControllerConfig cfg;
    cfg.coldThreshold = milliseconds(1.0);
    cfg.scanInterval = milliseconds(1.0);
    cfg.prefetchDepth = 2;
    cfg.stridePrefetch = true;
    makeController(cfg);
    ctrl_->start();
    eq_.run(milliseconds(20.0));  // everything demoted

    // Backward scan: faults at 30, 29, 28 teach stride -1; the
    // prefetcher then promotes 27 and 26 ahead of the scan.
    ctrl_->recordAccess(30);
    eq_.run(eq_.now() + microseconds(200.0));
    ctrl_->recordAccess(29);
    eq_.run(eq_.now() + microseconds(200.0));
    ctrl_->recordAccess(28);
    eq_.run(eq_.now() + microseconds(500.0));
    EXPECT_GE(ctrl_->stats().strideDetections, 1u);
    EXPECT_EQ(backend_->pageState(27), PageState::Local);
    EXPECT_EQ(backend_->pageState(26), PageState::Local);
    EXPECT_TRUE(ctrl_->recordAccess(27));  // prefetch hit
    EXPECT_GE(ctrl_->stats().prefetchHits, 1u);
}

TEST_F(ControllerTest, DetectsStrideTwo)
{
    ControllerConfig cfg;
    cfg.coldThreshold = milliseconds(1.0);
    cfg.scanInterval = milliseconds(1.0);
    cfg.prefetchDepth = 2;
    makeController(cfg);
    ctrl_->start();
    eq_.run(milliseconds(20.0));

    ctrl_->recordAccess(2);
    eq_.run(eq_.now() + microseconds(200.0));
    ctrl_->recordAccess(4);
    eq_.run(eq_.now() + microseconds(200.0));
    ctrl_->recordAccess(6);
    eq_.run(eq_.now() + microseconds(500.0));
    // Stride 2 locked: 8 and 10 promoted, 7 untouched.
    EXPECT_EQ(backend_->pageState(8), PageState::Local);
    EXPECT_EQ(backend_->pageState(10), PageState::Local);
    EXPECT_EQ(backend_->pageState(7), PageState::Far);
}

TEST_F(ControllerTest, StridePrefetchCanBeDisabled)
{
    ControllerConfig cfg;
    cfg.coldThreshold = milliseconds(1.0);
    cfg.scanInterval = milliseconds(1.0);
    cfg.prefetchDepth = 1;
    cfg.stridePrefetch = false;
    makeController(cfg);
    ctrl_->start();
    eq_.run(milliseconds(20.0));

    ctrl_->recordAccess(10);
    eq_.run(eq_.now() + microseconds(200.0));
    ctrl_->recordAccess(12);
    eq_.run(eq_.now() + microseconds(200.0));
    ctrl_->recordAccess(14);
    eq_.run(eq_.now() + microseconds(500.0));
    // Sequential-only: 15 promoted (next), 16 not (stride ignored).
    EXPECT_EQ(ctrl_->stats().strideDetections, 0u);
    EXPECT_EQ(backend_->pageState(15), PageState::Local);
}

} // namespace
} // namespace sfm
} // namespace xfm

#include "sfm/dfm_backend.hh"

namespace xfm
{
namespace sfm
{
namespace
{

class DfmBackendTest : public ::testing::Test
{
  protected:
    static constexpr std::uint64_t numPages = 32;

    DfmBackendTest() : mem_(mib(64))
    {
        DfmBackendConfig cfg;
        cfg.localBase = 0;
        cfg.localPages = numPages;
        cfg.poolBase = mib(32);
        cfg.poolBytes = 16 * pageBytes;
        backend_.emplace("dfm", eq_, cfg, mem_);
    }

    EventQueue eq_;
    dram::PhysMem mem_;
    std::optional<DfmBackend> backend_;
};

TEST_F(DfmBackendTest, SwapRoundTripPreservesData)
{
    const Bytes page = compress::generateCorpus(
        compress::CorpusKind::Html, 1, pageBytes);
    mem_.write(backend_->frameAddr(2), page);
    backend_->swapOut(2, true, nullptr);
    eq_.run();
    EXPECT_EQ(backend_->pageState(2), PageState::Far);
    mem_.fill(backend_->frameAddr(2), pageBytes, 0xEE);
    backend_->swapIn(2, false, nullptr);
    eq_.run();
    EXPECT_EQ(mem_.read(backend_->frameAddr(2), pageBytes), page);
}

TEST_F(DfmBackendTest, LatencyIsLinkBound)
{
    mem_.write(backend_->frameAddr(0), Bytes(pageBytes, 1));
    backend_->swapOut(0, true, nullptr);
    eq_.run();
    Tick start = eq_.now();
    Tick done = 0;
    backend_->swapIn(0, false, [&](const SwapOutcome &o) {
        done = o.completed;
    });
    eq_.run();
    // 300 ns latency + 4096 B / 12 GB/s = ~641 ns; no CPU cycles.
    EXPECT_NEAR(ticksToNs(done - start), 641.0, 5.0);
    EXPECT_EQ(backend_->stats().cpuCycles, 0u);
}

TEST_F(DfmBackendTest, StaticPoolRejectsWhenFull)
{
    int rejected = 0;
    for (VirtPage p = 0; p < 20; ++p) {
        mem_.write(backend_->frameAddr(p), Bytes(pageBytes, 2));
        backend_->swapOut(p, true, [&](const SwapOutcome &o) {
            if (!o.success)
                ++rejected;
        });
    }
    eq_.run();
    EXPECT_EQ(rejected, 4);  // 16 slots, 20 attempts
    EXPECT_EQ(backend_->freeSlots(), 0u);
    // Promoting one frees a slot again (no compaction needed).
    backend_->swapIn(0, false, nullptr);
    eq_.run();
    EXPECT_EQ(backend_->freeSlots(), 1u);
}

TEST_F(DfmBackendTest, StoresUncompressed)
{
    mem_.write(backend_->frameAddr(5), Bytes(pageBytes, 0));  // zeros!
    backend_->swapOut(5, true, nullptr);
    eq_.run();
    // Even a zero page occupies a full uncompressed slot.
    EXPECT_EQ(backend_->storedCompressedBytes(), pageBytes);
}

TEST_F(DfmBackendTest, WorksUnderController)
{
    ControllerConfig ccfg;
    ccfg.coldThreshold = milliseconds(2.0);
    ccfg.scanInterval = milliseconds(1.0);
    ccfg.maxSwapOutsPerScan = 8;
    SfmController ctrl("ctrl", eq_, ccfg, *backend_, numPages);
    for (VirtPage p = 0; p < numPages; ++p)
        mem_.write(backend_->frameAddr(p), Bytes(pageBytes, 3));
    ctrl.start();
    eq_.run(milliseconds(30.0));
    EXPECT_EQ(backend_->farPageCount(), 16u);  // pool-capacity bound
}

} // namespace
} // namespace sfm
} // namespace xfm
