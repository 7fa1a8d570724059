/**
 * @file
 * Tests for the XFM system layer: multi-channel split/gather, the
 * same-offset allocator, the driver's lazy MMIO accounting, and the
 * full XfmBackend offload / fallback paths.
 */

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "compress/corpus.hh"
#include "compress/deflate.hh"
#include "compress/dict.hh"
#include "obs/tracer.hh"
#include "test_util.hh"
#include "xfm/multichannel.hh"
#include "xfm/xfm_backend.hh"
#include "xfm/xfm_driver.hh"

namespace xfm
{
namespace xfmsys
{
namespace
{

using sfm::PageState;
using sfm::SwapOutcome;
using sfm::VirtPage;

// ---------------------------------------------------------- split/gather

TEST(MultiChannel, SplitGatherIdentity)
{
    Rng rng(1);
    Bytes page(pageBytes);
    for (auto &b : page)
        b = static_cast<std::uint8_t>(rng.next());
    for (std::size_t dimms : {1u, 2u, 4u, 8u}) {
        const auto shards = splitPage(page, dimms);
        ASSERT_EQ(shards.size(), dimms);
        for (const auto &s : shards)
            EXPECT_EQ(s.size(), pageBytes / dimms);
        EXPECT_EQ(gatherPage(shards), page);
    }
}

TEST(MultiChannel, SplitRoundRobinsChunks)
{
    Bytes page(1024);
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = static_cast<std::uint8_t>(i / 256);  // chunk index
    const auto shards = splitPage(page, 2, 256);
    // Chunks 0, 2 on DIMM 0; chunks 1, 3 on DIMM 1.
    EXPECT_EQ(shards[0][0], 0);
    EXPECT_EQ(shards[0][256], 2);
    EXPECT_EQ(shards[1][0], 1);
    EXPECT_EQ(shards[1][256], 3);
}

TEST(MultiChannel, SplitHandlesPartialTailChunk)
{
    Bytes data(600, 0x11);  // 256 + 256 + 88
    const auto shards = splitPage(data, 2, 256);
    EXPECT_EQ(shards[0].size(), 256u + 88u);
    EXPECT_EQ(shards[1].size(), 256u);
    EXPECT_EQ(gatherPage(shards), data);
}

TEST(MultiChannel, InterleaveShrinksEffectiveWindow)
{
    // Splitting text across DIMMs reduces compression ratio, the
    // mechanism behind Fig. 8's losses.
    const Bytes corpus = compress::generateCorpus(
        compress::CorpusKind::EnglishText, 3, 64 * 1024);
    const auto pages = compress::paginate(corpus);
    compress::DeflateCodec codec;
    const auto one = measureMultiChannel(pages, codec, 1);
    const auto four = measureMultiChannel(pages, codec, 4);
    EXPECT_GT(one.ratio(), 1.0);
    EXPECT_LE(four.ratio(), one.ratio() + 0.01);
    // Placement fragmentation only makes it worse.
    EXPECT_LE(four.placedRatio(), four.ratio() + 1e-9);
}

// -------------------------------------------------- same-offset allocator

TEST(SameOffsetAllocator, AllocatesAlignedSlots)
{
    SameOffsetAllocator alloc(4096, 64);
    const auto a = alloc.allocate(100);
    const auto b = alloc.allocate(65);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 128u);  // 100 rounds to 128
    EXPECT_EQ(alloc.slotSize(a), 128u);
    EXPECT_EQ(alloc.slotSize(b), 128u);
    EXPECT_EQ(alloc.usedBytes(), 256u);
}

TEST(SameOffsetAllocator, ReusesFreedGaps)
{
    SameOffsetAllocator alloc(1024, 64);
    const auto a = alloc.allocate(256);
    const auto b = alloc.allocate(256);
    (void)b;
    alloc.release(a);
    const auto c = alloc.allocate(128);
    EXPECT_EQ(c, 0u);  // first fit lands in the freed gap
}

TEST(SameOffsetAllocator, FailsWhenFull)
{
    SameOffsetAllocator alloc(256, 64);
    EXPECT_NE(alloc.allocate(256), SameOffsetAllocator::invalidOffset);
    EXPECT_EQ(alloc.allocate(1), SameOffsetAllocator::invalidOffset);
}

TEST(SameOffsetAllocator, RepackSlidesSlotsDown)
{
    SameOffsetAllocator alloc(4096, 64);
    const auto a = alloc.allocate(512);
    const auto b = alloc.allocate(512);
    alloc.release(a);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> moves;
    alloc.repack([&](std::uint64_t o, std::uint64_t n, std::uint32_t) {
        moves.emplace_back(o, n);
    });
    ASSERT_EQ(moves.size(), 1u);
    EXPECT_EQ(moves[0].first, b);
    EXPECT_EQ(moves[0].second, 0u);
    EXPECT_EQ(alloc.slotSize(0), 512u);
}

TEST(SameOffsetAllocator, RepackHonoursPins)
{
    SameOffsetAllocator alloc(4096, 64);
    const auto a = alloc.allocate(512);
    const auto b = alloc.allocate(512);
    const auto c = alloc.allocate(512);
    (void)c;
    alloc.release(a);
    std::vector<std::uint64_t> moved;
    alloc.repack(
        [&](std::uint64_t o, std::uint64_t, std::uint32_t) {
            moved.push_back(o);
        },
        [&](std::uint64_t off) { return off == b; });
    // Slot b is pinned; only c moves (into the space after b).
    ASSERT_EQ(moved.size(), 1u);
    EXPECT_EQ(alloc.slotSize(b), 512u);
}

// ------------------------------------------------------------ XfmBackend

XfmSystemConfig
testSystemConfig(std::size_t dimms = 4)
{
    return testutil::testXfmConfig(dimms);
}

class XfmBackendTest : public ::testing::Test
{
  protected:
    void
    makeBackend(XfmSystemConfig cfg = testSystemConfig())
    {
        cfg_ = cfg;
        backend_.emplace("xfmsys", eq_, cfg);
        backend_->start();
    }

    Bytes
    pageContent(VirtPage p) const
    {
        return testutil::corpusPage(compress::CorpusKind::LogLines,
                                    p + 100);
    }

    EventQueue eq_;
    XfmSystemConfig cfg_;
    std::optional<XfmBackend> backend_;
};

TEST_F(XfmBackendTest, WriteReadPageRoundTrip)
{
    makeBackend();
    const Bytes page = pageContent(1);
    backend_->writePage(1, page);
    EXPECT_EQ(backend_->readPage(1), page);
}

TEST_F(XfmBackendTest, OffloadedSwapOutAndIn)
{
    makeBackend();
    const Bytes page = pageContent(2);
    backend_->writePage(2, page);

    SwapOutcome out;
    backend_->swapOut(2, true, [&](const SwapOutcome &o) { out = o; });
    eq_.run(seconds(0.1));
    EXPECT_TRUE(out.success);
    EXPECT_FALSE(out.usedCpu);
    EXPECT_GT(out.compressedSize, 0u);
    EXPECT_EQ(backend_->pageState(2), PageState::Far);
    EXPECT_EQ(backend_->xfmStats().offloadedSwapOuts, 1u);

    // Clobber the local frames, promote with offload enabled.
    backend_->writePage(2, Bytes(pageBytes, 0xEE));
    // Page state is Far so writePage targets stale frames: fine.
    SwapOutcome in;
    backend_->swapIn(2, true, [&](const SwapOutcome &o) { in = o; });
    eq_.run(seconds(0.2));
    EXPECT_TRUE(in.success);
    EXPECT_FALSE(in.usedCpu);
    EXPECT_EQ(backend_->pageState(2), PageState::Local);
    EXPECT_EQ(backend_->readPage(2), page);
    EXPECT_EQ(backend_->xfmStats().offloadedSwapIns, 1u);
}

TEST_F(XfmBackendTest, DemandSwapInUsesCpu)
{
    makeBackend();
    const Bytes page = pageContent(3);
    backend_->writePage(3, page);
    backend_->swapOut(3, true, nullptr);
    eq_.run(seconds(0.1));
    ASSERT_EQ(backend_->pageState(3), PageState::Far);

    SwapOutcome in;
    backend_->swapIn(3, false, [&](const SwapOutcome &o) { in = o; });
    eq_.run(seconds(0.2));
    EXPECT_TRUE(in.success);
    EXPECT_TRUE(in.usedCpu);
    EXPECT_EQ(backend_->readPage(3), page);
    EXPECT_EQ(backend_->stats().cpuSwapIns, 1u);
}

TEST_F(XfmBackendTest, FragmentationFromSameOffsetPlacement)
{
    makeBackend(testSystemConfig(4));
    // Pages whose shards compress very differently maximise padding.
    for (VirtPage p = 0; p < 8; ++p) {
        backend_->writePage(p, pageContent(p));
        backend_->swapOut(p, true, nullptr);
    }
    eq_.run(seconds(0.2));
    EXPECT_GT(backend_->fragmentationBytes(), 0u);
}

TEST_F(XfmBackendTest, CapacityExhaustionFallsBackToCpu)
{
    auto cfg = testSystemConfig(2);
    cfg.device.spmBytes = 4 * 1024;   // fits one 2 KiB-shard offload
    cfg.device.sqDepth = 1;
    makeBackend(cfg);
    // Burst of swap-outs exceeds SPM + queue; extras run on the CPU.
    for (VirtPage p = 0; p < 8; ++p) {
        backend_->writePage(p, pageContent(p));
        backend_->swapOut(p, true, nullptr);
    }
    eq_.run(seconds(0.2));
    EXPECT_GT(backend_->xfmStats().fallbackCapacity, 0u);
    EXPECT_GT(backend_->stats().cpuSwapOuts, 0u);
    EXPECT_EQ(backend_->farPageCount(), 8u);  // all succeeded somehow
}

TEST_F(XfmBackendTest, BusyPageRejectsSecondOperation)
{
    makeBackend();
    backend_->writePage(5, pageContent(5));
    backend_->swapOut(5, true, nullptr);
    SwapOutcome second;
    backend_->swapOut(5, true, [&](const SwapOutcome &o) { second = o; });
    EXPECT_FALSE(second.success);
    eq_.run(seconds(0.1));
    EXPECT_EQ(backend_->farPageCount(), 1u);
}

TEST_F(XfmBackendTest, CompactPreservesData)
{
    makeBackend();
    std::vector<Bytes> pages;
    for (VirtPage p = 0; p < 12; ++p) {
        pages.push_back(pageContent(p));
        backend_->writePage(p, pages.back());
        backend_->swapOut(p, true, nullptr);
    }
    eq_.run(seconds(0.2));
    // Promote some pages to punch holes, then compact.
    for (VirtPage p : {1ull, 4ull, 7ull})
        backend_->swapIn(p, true, nullptr);
    eq_.run(seconds(0.4));
    backend_->compact();
    // Remaining far pages still decompress correctly.
    for (VirtPage p : {0ull, 5ull, 11ull}) {
        ASSERT_EQ(backend_->pageState(p), PageState::Far);
        backend_->swapIn(p, false, nullptr);
    }
    eq_.run(seconds(0.6));
    for (VirtPage p : {0ull, 5ull, 11ull})
        EXPECT_EQ(backend_->readPage(p), pages[p]) << "page " << p;
}

TEST_F(XfmBackendTest, LazyAccountingAvoidsMmioReads)
{
    makeBackend();
    for (VirtPage p = 0; p < 32; ++p) {
        backend_->writePage(p, pageContent(p));
        backend_->swapOut(p, true, nullptr);
        eq_.run(eq_.now() + milliseconds(2.0));
    }
    // With a 2 MiB SPM and paced submissions the lazy bound never
    // infers fullness, so no SP_Capacity reads happen.
    for (std::size_t d = 0; d < cfg_.numDimms; ++d)
        EXPECT_EQ(backend_->driver(d).stats().capacityRegisterReads,
                  0u) << "dimm " << d;
}

TEST_F(XfmBackendTest, MinOffloadLatencyTwoRefreshIntervals)
{
    makeBackend();
    backend_->writePage(6, pageContent(6));
    Tick done_at = 0;
    backend_->swapOut(6, true, [&](const SwapOutcome &o) {
        done_at = o.completed;
    });
    eq_.run(seconds(0.1));
    // Fig. 10: read in one window, write back in a later one.
    EXPECT_GE(done_at, cfg_.dimmMem.rank.device.tREFI());
}

// ------------------------------------------------------- CPU route pins

/** (stage, arg) of every trace event of request @p req, in order. */
std::vector<std::pair<obs::Stage, std::uint64_t>>
traceOf(const obs::Tracer &tracer, std::uint64_t req)
{
    std::vector<std::pair<obs::Stage, std::uint64_t>> out;
    for (const auto &e : tracer.events())
        if (e.req == req)
            out.emplace_back(e.stage, e.arg);
    return out;
}

/** Modelled CPU latency of one whole page (XfmBackend::chargeCpu). */
Tick
cpuPageLatency(const XfmSystemConfig &cfg, bool compress_op)
{
    const auto cost = compress::cpuCost(cfg.algorithm);
    const double cycles = (compress_op ? cost.compressCyclesPerByte
                                       : cost.decompressCyclesPerByte)
        * static_cast<double>(pageBytes);
    return static_cast<Tick>(cycles / cfg.cpuFreqGHz * 1000.0);
}

TEST_F(XfmBackendTest, CpuSwapOutIntoFullRegionRejectsSfmFull)
{
    auto cfg = testSystemConfig();
    cfg.sfmBytes = 128;  // smaller than any shard block of this page
    makeBackend(cfg);
    obs::Tracer tracer(256);
    backend_->setTracer(&tracer);
    backend_->writePage(1, pageContent(1));
    eq_.run(microseconds(5.0));

    const Tick submitted = eq_.now();
    std::optional<SwapOutcome> out;
    backend_->swapOut(1, false, [&](const SwapOutcome &o) { out = o; });
    // The CPU route sizes the slot at submit and refuses at once.
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->page, 1u);
    EXPECT_FALSE(out->success);
    EXPECT_TRUE(out->usedCpu);
    EXPECT_EQ(out->rejected, sfm::RejectReason::SfmFull);
    EXPECT_EQ(out->completed, submitted);
    EXPECT_EQ(out->compressedSize, 0u);
    EXPECT_EQ(out->retries, 0u);
    EXPECT_EQ(backend_->xfmStats().fallbackAlloc, 1u);
    EXPECT_EQ(backend_->stats().rejectedSwapOuts, 1u);
    EXPECT_EQ(backend_->stats().swapOuts, 0u);
    EXPECT_EQ(backend_->stats().cpuSwapOuts, 0u);
    EXPECT_EQ(backend_->pageState(1), PageState::Local);
    EXPECT_EQ(backend_->allocator().highWaterMark(), 0u);

    const std::vector<std::pair<obs::Stage, std::uint64_t>> want = {
        {obs::Stage::Fallback, obs::fallbackAlloc},
        {obs::Stage::Complete, obs::outcomeFailed},
    };
    EXPECT_EQ(traceOf(tracer, 1), want);
    for (const auto &e : tracer.events())
        EXPECT_EQ(e.start, submitted);
    eq_.run(seconds(0.01));
    EXPECT_EQ(tracer.size(), 2u);  // no deferred completion follows
}

TEST_F(XfmBackendTest, OffloadedSwapOutIntoFullRegionRejectsSfmFull)
{
    auto cfg = testSystemConfig();
    cfg.sfmBytes = 128;
    makeBackend(cfg);
    obs::Tracer tracer(256);
    backend_->setTracer(&tracer);
    backend_->writePage(1, pageContent(1));

    const Tick submitted = eq_.now();
    std::optional<SwapOutcome> out;
    backend_->swapOut(1, true, [&](const SwapOutcome &o) { out = o; });
    EXPECT_FALSE(out.has_value());  // placement waits for the engines
    eq_.run(seconds(0.1));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->page, 1u);
    EXPECT_FALSE(out->success);
    EXPECT_FALSE(out->usedCpu);
    EXPECT_EQ(out->rejected, sfm::RejectReason::SfmFull);
    EXPECT_GT(out->completed, submitted);
    EXPECT_EQ(out->compressedSize, 0u);
    EXPECT_EQ(backend_->xfmStats().fallbackAlloc, 1u);
    EXPECT_EQ(backend_->stats().rejectedSwapOuts, 1u);
    EXPECT_EQ(backend_->stats().swapOuts, 0u);
    EXPECT_EQ(backend_->xfmStats().offloadedSwapOuts, 0u);
    EXPECT_EQ(backend_->pageState(1), PageState::Local);

    // The request ends with the placement refusal: one Fallback
    // point then one failed Complete, both at the completion tick,
    // and no whole-request span.
    const auto events = tracer.events();
    std::vector<obs::TraceEvent> mine;
    for (const auto &e : events)
        if (e.req == 1)
            mine.push_back(e);
    ASSERT_GE(mine.size(), 2u);
    const auto &fb = mine[mine.size() - 2];
    const auto &done = mine.back();
    EXPECT_EQ(fb.stage, obs::Stage::Fallback);
    EXPECT_EQ(fb.arg, obs::fallbackAlloc);
    EXPECT_EQ(fb.start, out->completed);
    EXPECT_EQ(done.stage, obs::Stage::Complete);
    EXPECT_EQ(done.arg, obs::outcomeFailed);
    EXPECT_EQ(done.start, out->completed);
    for (const auto &e : mine) {
        EXPECT_NE(e.stage, obs::Stage::SwapOut);
        EXPECT_NE(e.stage, obs::Stage::CpuCompute);
    }
}

TEST_F(XfmBackendTest, CpuSwapsStallOnPerBankRefresh)
{
    auto cfg = testSystemConfig();
    cfg.dimmMem.rank.device.refreshMode = dram::RefreshMode::RefPb;
    makeBackend(cfg);
    obs::Tracer tracer(1 << 14);
    backend_->setTracer(&tracer);
    const Tick out_lat = cpuPageLatency(cfg, true);
    const Tick in_lat = cpuPageLatency(cfg, false);
    const Bytes page = pageContent(2);
    backend_->writePage(2, page);

    // Sweep submit ticks across refresh turns until both directions
    // have landed on a locked bank at least once. Every swap must
    // complete exactly CPU latency + refresh stall after submit.
    int out_stalls = 0;
    int in_stalls = 0;
    for (int i = 0; i < 2000 && (out_stalls == 0 || in_stalls == 0);
         ++i) {
        eq_.run(eq_.now() + nanoseconds(37.0));
        for (const bool compress_op : {true, false}) {
            const Tick submitted = eq_.now();
            const std::uint64_t before =
                backend_->xfmStats().cpuRefreshStallTicks;
            std::optional<SwapOutcome> o;
            const auto cb = [&](const SwapOutcome &r) { o = r; };
            if (compress_op)
                backend_->swapOut(2, false, cb);
            else
                backend_->swapIn(2, false, cb);
            const Tick stall =
                backend_->xfmStats().cpuRefreshStallTicks - before;
            EXPECT_FALSE(o.has_value());  // completes one latency later
            eq_.run(submitted + (compress_op ? out_lat : in_lat) + stall);
            ASSERT_TRUE(o.has_value()) << "swap " << i;
            EXPECT_TRUE(o->success);
            EXPECT_TRUE(o->usedCpu);
            EXPECT_EQ(o->completed,
                      submitted + (compress_op ? out_lat : in_lat)
                          + stall);
            if (stall > 0)
                ++(compress_op ? out_stalls : in_stalls);
        }
    }
    EXPECT_GT(out_stalls, 0);
    EXPECT_GT(in_stalls, 0);
    EXPECT_GT(backend_->xfmStats().cpuRefreshStallTicks, 0u);
    EXPECT_EQ(backend_->readPage(2), page);
    // One CpuCompute span per page-level CPU leg, and no request span.
    for (const auto &e : tracer.events()) {
        EXPECT_NE(e.stage, obs::Stage::SwapOut);
        EXPECT_NE(e.stage, obs::Stage::SwapIn);
    }
}

TEST_F(XfmBackendTest, DictCpuSwapOutWithAllPlainShardsStoresNoDict)
{
    auto cfg = testSystemConfig();
    cfg.shardDict = true;
    cfg.dictBytes = 8;  // too short to pay for a reference header
    makeBackend(cfg);
    const Bytes page = testutil::corpusPage(
        compress::CorpusKind::RandomBytes, 5);
    ASSERT_FALSE(compress::buildPresetDictionary(
                     page, xfmsys::defaultInterleave, cfg.dictBytes)
                     .empty());
    backend_->writePage(5, page);

    std::optional<SwapOutcome> out;
    backend_->swapOut(5, false, [&](const SwapOutcome &o) { out = o; });
    eq_.run(seconds(0.01));
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE(out->success);
    EXPECT_TRUE(out->usedCpu);
    EXPECT_EQ(backend_->xfmStats().dictShards, 0u);
    EXPECT_EQ(backend_->xfmStats().dictFallbacks, cfg.numDimms);
    // dictStored == 0: the outcome counts no bytes beyond the shard
    // blocks themselves.
    EXPECT_EQ(out->compressedSize, backend_->storedCompressedBytes());
    EXPECT_EQ(backend_->fragmentationBytes()
                  + backend_->storedCompressedBytes(),
              std::uint64_t(backend_->allocator().slotSize(0))
                  * cfg.numDimms);

    std::optional<SwapOutcome> in;
    backend_->swapIn(5, false, [&](const SwapOutcome &o) { in = o; });
    eq_.run(seconds(0.02));
    ASSERT_TRUE(in.has_value());
    EXPECT_TRUE(in->success);
    EXPECT_EQ(in->compressedSize, out->compressedSize);
    EXPECT_EQ(backend_->readPage(5), page);
}

} // namespace
} // namespace xfmsys
} // namespace xfm

namespace xfm
{
namespace xfmsys
{
namespace
{

/** Integration fuzz: random swap-out / swap-in / compact sequences
 *  against a shadow map of page contents. Every page the
 *  shadow says is Far must decompress back to its exact bytes. */
TEST_F(XfmBackendTest, FuzzAgainstShadowContents)
{
    auto cfg = testSystemConfig(2);
    cfg.localPages = 64;
    cfg.sfmBytes = mib(4);
    makeBackend(cfg);

    Rng rng(2024);
    std::map<VirtPage, Bytes> contents;
    std::set<VirtPage> far;
    for (VirtPage p = 0; p < 64; ++p) {
        contents[p] = pageContent(p + rng.uniformInt(1000));
        backend_->writePage(p, contents[p]);
    }

    for (int op = 0; op < 300; ++op) {
        const double dice = rng.uniformReal();
        if (dice < 0.40) {
            // Demote a random Local page.
            const VirtPage p = rng.uniformInt(64);
            if (!far.count(p)
                && backend_->pageState(p) == PageState::Local) {
                backend_->swapOut(p, true, nullptr);
                far.insert(p);
            }
        } else if (dice < 0.80) {
            // Promote a random Far page (offload or CPU).
            if (!far.empty()) {
                auto it = far.begin();
                std::advance(it, rng.uniformInt(far.size()));
                const VirtPage p = *it;
                backend_->swapIn(p, rng.chance(0.5), nullptr);
                far.erase(it);
            }
        } else {
            backend_->compact();
        }
        // Let in-flight offloads settle frequently enough that the
        // shadow's Local/Far view stays in sync.
        eq_.run(eq_.now() + milliseconds(3.0));
    }
    eq_.run(eq_.now() + milliseconds(100.0));

    // Drain: promote everything and verify every page's bytes.
    for (VirtPage p : far)
        backend_->swapIn(p, false, nullptr);
    eq_.run(eq_.now() + milliseconds(100.0));
    for (VirtPage p = 0; p < 64; ++p) {
        ASSERT_EQ(backend_->pageState(p), PageState::Local)
            << "page " << p;
        ASSERT_EQ(backend_->readPage(p), contents[p]) << "page " << p;
    }
}

} // namespace
} // namespace xfmsys
} // namespace xfm

namespace xfm
{
namespace xfmsys
{
namespace
{

TEST_F(XfmBackendTest, LargeSparseRegionWorks)
{
    // The abstract's headline scales to ~1 TB SFM; per DIMM that is
    // multi-GiB regions. Sparse backing keeps this cheap.
    auto cfg = testSystemConfig(4);
    cfg.sfmBytes = gib(8);  // per DIMM: 32 GiB far capacity total
    makeBackend(cfg);
    std::vector<Bytes> pages;
    for (VirtPage p = 0; p < 32; ++p) {
        pages.push_back(pageContent(p));
        backend_->writePage(p, pages.back());
        backend_->swapOut(p, true, nullptr);
    }
    eq_.run(seconds(0.2));
    EXPECT_EQ(backend_->farPageCount(), 32u);
    for (VirtPage p = 0; p < 32; p += 7) {
        backend_->swapIn(p, false, nullptr);
        eq_.run(eq_.now() + milliseconds(1.0));
        EXPECT_EQ(backend_->readPage(p), pages[p]);
    }
}

TEST(XfmBackendValidation, BadConfigsPanic)
{
    EventQueue eq;
    XfmSystemConfig bad = testSystemConfig(4);
    bad.localPages = 0;
    EXPECT_DEATH(XfmBackend("x", eq, bad), "virtual pages");

    XfmSystemConfig overlap = testSystemConfig(1);
    overlap.localBase = 0;
    overlap.localPages = 1024;
    overlap.sfmBase = 0;  // collides with the local region
    EXPECT_DEATH(XfmBackend("x", eq, overlap), "overlap");

    XfmSystemConfig multi = testSystemConfig(2);
    multi.dimmMem.channels = 2;  // per-DIMM map must be 1-channel
    EXPECT_DEATH(XfmBackend("x", eq, multi), "single-channel");
}

} // namespace
} // namespace xfmsys
} // namespace xfm
