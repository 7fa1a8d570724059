/**
 * @file
 * Tests for the NMA: scratchpad accounting, MMIO registers, engine
 * timing, and the refresh-window scheduler's
 * conditional/random access behaviour (paper Sec. 5 and Fig. 10).
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/random.hh"
#include "compress/corpus.hh"
#include "dram/address_map.hh"
#include "dram/phys_mem.hh"
#include "dram/refresh.hh"
#include "nma/engine.hh"
#include "nma/mmio.hh"
#include "nma/spm.hh"
#include "nma/xfm_device.hh"
#include "ring_host.hh"
#include "sim/event_queue.hh"

namespace xfm
{
namespace nma
{
namespace
{

// ------------------------------------------------------------------ SPM

TEST(ScratchPad, ReserveTracksBytes)
{
    ScratchPad spm(1000);
    EXPECT_EQ(spm.freeBytes(), 1000u);
    EXPECT_TRUE(spm.reserve(1, OffloadKind::Compress, 400));
    EXPECT_EQ(spm.usedBytes(), 400u);
    EXPECT_TRUE(spm.reserve(2, OffloadKind::Compress, 600));
    EXPECT_EQ(spm.freeBytes(), 0u);
    EXPECT_FALSE(spm.reserve(3, OffloadKind::Compress, 1));
}

TEST(ScratchPad, CompleteTrimsReservation)
{
    ScratchPad spm(1000);
    ASSERT_TRUE(spm.reserve(1, OffloadKind::Compress, 500));
    spm.complete(1, Bytes(120, 0xAB));
    EXPECT_EQ(spm.usedBytes(), 120u);
    EXPECT_EQ(spm.entry(1).tag, SpmTag::Completed);
    EXPECT_EQ(spm.entry(1).data.size(), 120u);
}

TEST(ScratchPad, WritebackRequiresDestination)
{
    ScratchPad spm(1000);
    ASSERT_TRUE(spm.reserve(1, OffloadKind::Compress, 100));
    spm.complete(1, Bytes(50, 1));
    std::vector<OffloadId> ids{7, 8};  // refilled, not appended to
    spm.writebackIds(ids);
    EXPECT_TRUE(ids.empty());  // no destination yet
    spm.setDestination(1, 0x1000, 12, 3);
    spm.writebackIds(ids);
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(ids[0], 1u);
    EXPECT_EQ(spm.entry(1).dstAddr, 0x1000u);
    EXPECT_EQ(spm.entry(1).dstRow, 12u);
    EXPECT_EQ(spm.entry(1).dstBank, 3u);
}

TEST(ScratchPad, TakeFreesBytes)
{
    ScratchPad spm(1000);
    ASSERT_TRUE(spm.reserve(1, OffloadKind::Compress, 100));
    spm.complete(1, Bytes(80, 2));
    spm.setDestination(1, 0, 0, 0);
    const SpmEntry e = spm.take(1);
    EXPECT_EQ(e.data.size(), 80u);
    EXPECT_EQ(spm.usedBytes(), 0u);
    EXPECT_EQ(spm.entryCount(), 0u);
}

TEST(ScratchPad, ReleaseAbandonsEntry)
{
    ScratchPad spm(1000);
    ASSERT_TRUE(spm.reserve(1, OffloadKind::Decompress, 300));
    spm.release(1);
    EXPECT_EQ(spm.usedBytes(), 0u);
}

TEST(ScratchPad, PopWritebackFifoOrder)
{
    ScratchPad spm(4096);
    for (OffloadId id = 1; id <= 3; ++id) {
        ASSERT_TRUE(spm.reserve(id, OffloadKind::Compress, 64));
        spm.complete(id, Bytes(32, static_cast<std::uint8_t>(id)));
        spm.setDestination(id, id * 0x100, 0, 0);
    }
    SpmEntry e;
    ASSERT_TRUE(spm.popWriteback(e));
    EXPECT_EQ(e.id, 1u);
    ASSERT_TRUE(spm.popWriteback(e));
    EXPECT_EQ(e.id, 2u);
    ASSERT_TRUE(spm.popWriteback(e));
    EXPECT_EQ(e.id, 3u);
    EXPECT_FALSE(spm.popWriteback(e));
}

TEST(ScratchPad, PartitionCapRejectsOnlyThatPartition)
{
    ScratchPad spm(1000);
    spm.setPartitionCap(1, 200);
    // Partition 1 is capped at 200 bytes...
    EXPECT_TRUE(spm.reserve(1, OffloadKind::Compress, 150, 1));
    EXPECT_FALSE(spm.reserve(2, OffloadKind::Compress, 100, 1));
    EXPECT_EQ(spm.partitionUsed(1), 150u);
    // ...while partition 0 still sees the global capacity.
    EXPECT_TRUE(spm.reserve(3, OffloadKind::Compress, 700));
    EXPECT_EQ(spm.usedBytes(), 850u);
}

TEST(ScratchPad, PartitionChargeFollowsEntryLifecycle)
{
    ScratchPad spm(1000);
    spm.setPartitionCap(1, 300);
    ASSERT_TRUE(spm.reserve(1, OffloadKind::Compress, 300, 1));
    EXPECT_FALSE(spm.reserve(2, OffloadKind::Compress, 1, 1));
    // Completion trims the reservation to the real output size,
    // returning headroom to the partition.
    spm.complete(1, Bytes(80, 0xCD));
    EXPECT_EQ(spm.partitionUsed(1), 80u);
    EXPECT_TRUE(spm.reserve(2, OffloadKind::Compress, 200, 1));
    // Release/take uncharge the partition entirely.
    spm.release(2);
    spm.setDestination(1, 0x100, 0, 0);
    spm.take(1);
    EXPECT_EQ(spm.partitionUsed(1), 0u);
    EXPECT_EQ(spm.usedBytes(), 0u);
}

TEST(ScratchPad, PartitionCapRemovalAndDefaults)
{
    ScratchPad spm(1000);
    EXPECT_EQ(spm.partitionCap(1), 0u);  // uncapped by default
    spm.setPartitionCap(1, 100);
    EXPECT_EQ(spm.partitionCap(1), 100u);
    EXPECT_FALSE(spm.reserve(1, OffloadKind::Compress, 150, 1));
    spm.setPartitionCap(1, 0);  // removing the cap re-opens it
    EXPECT_TRUE(spm.reserve(1, OffloadKind::Compress, 150, 1));
}

// ----------------------------------------------------------------- MMIO

TEST(Mmio, ReadOnlyRegisterReflectsLiveValue)
{
    RegisterFile regs;
    std::uint64_t live = 7;
    regs.bindReadOnly(Reg::SpCapacity, [&] { return live; });
    EXPECT_EQ(regs.read(Reg::SpCapacity), 7u);
    live = 99;
    EXPECT_EQ(regs.read(Reg::SpCapacity), 99u);
    EXPECT_EQ(regs.reads(), 2u);
}

TEST(Mmio, WriteToReadOnlyIsFatal)
{
    RegisterFile regs;
    regs.bindReadOnly(Reg::SpCapacity, [] { return 0ull; });
    EXPECT_THROW(regs.write(Reg::SpCapacity, 1), FatalError);
}

TEST(Mmio, ReadWriteRegister)
{
    RegisterFile regs;
    regs.write(Reg::SfmRegionBase, 0xDEAD000);
    EXPECT_EQ(regs.read(Reg::SfmRegionBase), 0xDEAD000u);
    EXPECT_EQ(regs.writes(), 1u);
}

// --------------------------------------------------------------- engine

TEST(Engine, CompressRoundTripsAndTimes)
{
    CompressionEngine eng(compress::Algorithm::ZstdLike);
    const Bytes page =
        compress::generateCorpus(compress::CorpusKind::Json, 1, 4096);
    auto [block, clat] = eng.compress(page);
    EXPECT_LT(block.size(), page.size());
    auto [raw, dlat] = eng.decompress(block);
    EXPECT_EQ(raw, page);
    // 4096 B at 14.8 GB/s ~ 277 ns; at 17.2 GB/s ~ 238 ns.
    EXPECT_NEAR(ticksToNs(clat), 4096 / 14.8, 1.0);
    EXPECT_NEAR(ticksToNs(dlat), 4096 / 17.2, 1.0);
    EXPECT_EQ(eng.bytesCompressed(), 4096u);
    EXPECT_EQ(eng.bytesDecompressed(), 4096u);
}

TEST(Engine, FpgaProfileIsSlower)
{
    CompressionEngine fast(compress::Algorithm::LzFast);
    CompressionEngine slow(compress::Algorithm::LzFast,
                           EngineProfile::fpgaSoftCore());
    const Bytes page(4096, 0x55);
    EXPECT_GT(slow.compress(page).second, fast.compress(page).second);
}

TEST(Engine, WorstCaseBoundsStoredBlock)
{
    // All codecs fall back to a stored block of size + 5 <= size+16.
    CompressionEngine eng(compress::Algorithm::Deflate);
    Rng rng(7);
    Bytes noise(4096);
    for (auto &b : noise)
        b = static_cast<std::uint8_t>(rng.next());
    auto [block, lat] = eng.compress(noise);
    (void)lat;
    EXPECT_LE(block.size(),
              CompressionEngine::worstCaseCompressedSize(4096));
}

// ------------------------------------------------------------ XfmDevice

/** Single-channel, single-rank memory system for device testing. */
dram::MemSystemConfig
deviceTestConfig()
{
    dram::MemSystemConfig cfg;
    cfg.rank.device = dram::ddr5Device32Gb();
    cfg.channels = 1;
    cfg.dimmsPerChannel = 1;
    cfg.ranksPerDimm = 1;
    return cfg;
}

class XfmDeviceTest : public ::testing::Test
{
  protected:
    XfmDeviceTest()
        : cfg_(deviceTestConfig()), map_(cfg_),
          mem_(cfg_.totalCapacityBytes()),
          refresh_("refresh", eq_, cfg_.rank.device, 1)
    {}

    /** Build a device with the given knobs, its host side
     *  (host_), and start refresh. */
    XfmDevice &
    makeDevice(XfmDeviceConfig dcfg = {})
    {
        device_.emplace("xfm0", eq_, dcfg, map_, mem_, refresh_);
        host_.emplace(*device_);
        refresh_.start();
        return *device_;
    }

    /** Physical address of the first byte of DRAM row @p row in the
     *  bank pair (contiguous 4 KiB lives in one row pair). */
    std::uint64_t
    rowAddr(std::uint32_t row) const
    {
        dram::DramCoord c{};
        c.row = row;
        return map_.encode(c);
    }

    EventQueue eq_;
    dram::MemSystemConfig cfg_;
    dram::AddressMap map_;
    dram::PhysMem mem_;
    dram::RefreshController refresh_;
    std::optional<XfmDevice> device_;
    std::optional<RingHost> host_;
};

TEST_F(XfmDeviceTest, CompressOffloadEndToEnd)
{
    auto &dev = makeDevice();
    const Bytes page =
        compress::generateCorpus(compress::CorpusKind::Html, 3, 4096);
    mem_.write(rowAddr(100), page);

    std::optional<OffloadCompletion> completion;
    Tick writeback_at = 0;
    host_->onComplete = [&](const OffloadCompletion &c) {
        completion = c;
        // Backend allocates space and commits the destination.
        dev.commitWriteback(c.id, rowAddr(5000));
    };
    host_->onWriteback =
        [&](OffloadId, Tick t) { writeback_at = t; };

    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(100);
    req.size = 4096;
    const OffloadId id = host_->submit(req);
    EXPECT_NE(id, invalidOffloadId);

    eq_.run(cfg_.rank.device.retention);
    ASSERT_TRUE(completion.has_value());
    EXPECT_EQ(completion->id, id);
    EXPECT_LT(completion->outputSize, 4096u);
    EXPECT_GT(writeback_at, 0u);

    // Compressed block in DRAM decompresses back to the page.
    const Bytes block = mem_.read(rowAddr(5000), completion->outputSize);
    auto codec = compress::makeCompressor(dev.config().algorithm);
    EXPECT_EQ(codec->decompress(block), page);
}

TEST_F(XfmDeviceTest, DecompressOffloadEndToEnd)
{
    auto &dev = makeDevice();
    const Bytes page =
        compress::generateCorpus(compress::CorpusKind::CsvTable, 9,
                                 4096);
    auto codec = compress::makeCompressor(dev.config().algorithm);
    const Bytes block = codec->compress(page);
    mem_.write(rowAddr(7), block);

    Tick writeback_at = 0;
    host_->onWriteback =
        [&](OffloadId, Tick t) { writeback_at = t; };

    OffloadRequest req;
    req.kind = OffloadKind::Decompress;
    req.srcAddr = rowAddr(7);
    req.size = static_cast<std::uint32_t>(block.size());
    req.dstAddr = rowAddr(9000);
    req.rawSize = 4096;
    ASSERT_NE(host_->submit(req), invalidOffloadId);

    eq_.run(cfg_.rank.device.retention);
    EXPECT_GT(writeback_at, 0u);
    EXPECT_EQ(mem_.read(rowAddr(9000), 4096), page);
    EXPECT_EQ(dev.stats().decompressOffloads, 1u);
}

TEST_F(XfmDeviceTest, MinimumLatencyIsTwoRefreshIntervals)
{
    // Fig. 10: an offload reads in one tRFC and writes back in a
    // later one, so end-to-end latency is at least ~2 windows for a
    // random-row target (and never less than one tREFI).
    auto &dev = makeDevice();
    const Bytes page(4096, 0x42);
    // Row far from the initial refresh counter => random access.
    mem_.write(rowAddr(60000), page);

    Tick writeback_at = 0;
    host_->onComplete = [&](const OffloadCompletion &c) {
        dev.commitWriteback(c.id, rowAddr(60010));
    };
    host_->onWriteback =
        [&](OffloadId, Tick t) { writeback_at = t; };

    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(60000);
    req.size = 4096;
    host_->submit(req);
    eq_.run(cfg_.rank.device.retention);

    const Tick trefi = cfg_.rank.device.tREFI();
    EXPECT_GE(writeback_at, trefi);
    EXPECT_LE(writeback_at, 4 * trefi);
}

TEST_F(XfmDeviceTest, ConditionalAccessWhenRowInRefreshSet)
{
    // Row 0 is refreshed by the very first REF command, so a read
    // targeting row 0 must be classified conditional.
    auto &dev = makeDevice();
    mem_.write(rowAddr(0), Bytes(4096, 1));
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(0);
    req.size = 4096;
    host_->submit(req);
    eq_.run(0);  // first window fires at tick 0
    EXPECT_EQ(dev.stats().conditionalAccesses, 1u);
    EXPECT_EQ(dev.stats().randomAccesses, 0u);
}

TEST_F(XfmDeviceTest, RandomAccessForNonRefreshedRow)
{
    XfmDeviceConfig dcfg;
    dcfg.maxRandomPerWindow = 1;
    auto &dev = makeDevice(dcfg);
    mem_.write(rowAddr(60000), Bytes(4096, 2));
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(60000);
    req.size = 4096;
    host_->submit(req);
    eq_.run(0);
    EXPECT_EQ(dev.stats().randomAccesses, 1u);
    EXPECT_EQ(dev.stats().conditionalAccesses, 0u);
}

TEST_F(XfmDeviceTest, RandomBudgetEnforcedPerWindow)
{
    XfmDeviceConfig dcfg;
    dcfg.maxAccessesPerWindow = 3;
    dcfg.maxRandomPerWindow = 1;
    auto &dev = makeDevice(dcfg);
    // Three offloads, all on non-refreshed rows: only one random
    // access may happen in the first window.
    for (std::uint32_t i = 0; i < 3; ++i) {
        mem_.write(rowAddr(50000 + 16 * i), Bytes(4096, 3));
        OffloadRequest req;
        req.kind = OffloadKind::Compress;
        req.srcAddr = rowAddr(50000 + 16 * i);
        req.size = 4096;
        host_->submit(req);
    }
    eq_.run(0);
    EXPECT_EQ(dev.stats().randomAccesses, 1u);
    EXPECT_EQ(dev.pendingReads(), 2u);
}

TEST_F(XfmDeviceTest, QueueDepthBoundsAdmission)
{
    // The submission queue is the device's only admission bound:
    // SPM space is reserved at read-execution time.
    XfmDeviceConfig dcfg;
    dcfg.sqDepth = 4;
    auto &dev = makeDevice(dcfg);
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(1000);
    req.size = 4096;

    int accepted = 0;
    int rejected = 0;
    for (int i = 0; i < 6; ++i) {
        if (host_->submit(req) != invalidOffloadId)
            ++accepted;
        else
            ++rejected;
    }
    EXPECT_EQ(accepted, 4);
    EXPECT_EQ(rejected, 2);
    EXPECT_EQ(dev.stats().queueRejects, 2u);
    EXPECT_EQ(dev.ring().sq().inFlight(), 4u);
}

TEST_F(XfmDeviceTest, SpmFullDefersExecution)
{
    // A tiny SPM cannot host two in-flight outputs: the second read
    // is deferred to a later window instead of being lost.
    XfmDeviceConfig dcfg;
    dcfg.spmBytes = 5 * 1024;  // one worst-case (4112 B) output
    dcfg.maxAccessesPerWindow = 3;
    dcfg.maxRandomPerWindow = 3;
    auto &dev = makeDevice(dcfg);
    int completions = 0;
    host_->onComplete = [&](const OffloadCompletion &c) {
        dev.commitWriteback(c.id, rowAddr(9000 + 16 * completions));
        ++completions;
    };
    for (int i = 0; i < 2; ++i) {
        mem_.write(rowAddr(52000 + 16 * i), Bytes(4096, 7));
        OffloadRequest req;
        req.kind = OffloadKind::Compress;
        req.srcAddr = rowAddr(52000 + 16 * i);
        req.size = 4096;
        ASSERT_NE(host_->submit(req), invalidOffloadId);
    }
    eq_.run(0);  // first window: one executes, one defers
    EXPECT_EQ(dev.stats().deferredExecutions, 1u);
    EXPECT_EQ(dev.pendingReads(), 1u);
    // Once the first write-back drains, the second proceeds.
    eq_.run(cfg_.rank.device.retention);
    EXPECT_EQ(completions, 2);
}

TEST_F(XfmDeviceTest, SpCapacityRegisterTracksSpm)
{
    XfmDeviceConfig dcfg;
    dcfg.spmBytes = 64 * 1024;
    auto &dev = makeDevice(dcfg);
    EXPECT_EQ(dev.regs().read(Reg::SpCapacity), 64u * 1024);
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(10);  // row 10: refreshed by window 0
    req.size = 4096;
    host_->submit(req);
    // SPM is reserved when the read executes, not at submit.
    EXPECT_EQ(dev.regs().read(Reg::SpCapacity), 64u * 1024);
    eq_.run(0);
    EXPECT_LT(dev.regs().read(Reg::SpCapacity), 64u * 1024);
}

TEST_F(XfmDeviceTest, DeadlineDropInvokesCallback)
{
    auto &dev = makeDevice();
    std::vector<OffloadId> dropped;
    host_->onDrop = [&](OffloadId id, DropReason) {
        dropped.push_back(id);
    };

    mem_.write(rowAddr(40000), Bytes(4096, 4));
    OffloadRequest urgent;
    urgent.kind = OffloadKind::Compress;
    urgent.srcAddr = rowAddr(40000);
    urgent.size = 4096;
    urgent.deadline = 1;  // expires before any window can serve it

    // Saturate the random slot of window 0 with an earlier offload.
    OffloadRequest first = urgent;
    first.srcAddr = rowAddr(40016);
    first.deadline = 0;
    mem_.write(rowAddr(40016), Bytes(4096, 5));

    host_->submit(first);
    host_->submit(urgent);
    // Window 0 at tick 0 serves `first` (deadline 0 still valid at
    // start). Window 1 finds `urgent` expired.
    eq_.run(2 * cfg_.rank.device.tREFI());
    EXPECT_EQ(dev.stats().deadlineDrops, 1u);
    ASSERT_EQ(dropped.size(), 1u);
}

TEST_F(XfmDeviceTest, EnergySavingsFromConditionalAccesses)
{
    auto &dev = makeDevice();
    // Offloads spread over many rows; over a full retention period
    // every row is refreshed once, so reads become conditional.
    for (std::uint32_t i = 0; i < 16; ++i) {
        mem_.write(rowAddr(i * 4096), Bytes(4096, 6));
        OffloadRequest req;
        req.kind = OffloadKind::Compress;
        req.srcAddr = rowAddr(i * 4096);
        req.size = 4096;
        host_->submit(req);
    }
    eq_.run(cfg_.rank.device.retention);
    EXPECT_GT(dev.stats().conditionalAccesses, 0u);
    EXPECT_GT(dev.stats().energySavedFraction(), 0.0);
    EXPECT_LT(dev.stats().energySavedFraction(), 0.5);
}

TEST_F(XfmDeviceTest, WindowCounterAdvances)
{
    auto &dev = makeDevice();
    eq_.run(10 * cfg_.rank.device.tREFI());
    EXPECT_GE(dev.stats().windows, 10u);
}

} // namespace
} // namespace nma
} // namespace xfm

namespace xfm
{
namespace nma
{
namespace
{

// Page registration (paper Sec. 6: driver-managed NMA access window).

TEST_F(XfmDeviceTest, UnregisteredSourceRejected)
{
    auto &dev = makeDevice();
    dev.registerRegion(0, mib(1));
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = gib(2);  // outside the registered window
    req.size = 4096;
    EXPECT_EQ(host_->submit(req), invalidOffloadId);
    EXPECT_EQ(dev.stats().unregisteredRejects, 1u);

    req.srcAddr = mib(1) - 4096;  // inside
    EXPECT_NE(host_->submit(req), invalidOffloadId);
}

TEST_F(XfmDeviceTest, UnregisteredDecompressDestinationRejected)
{
    auto &dev = makeDevice();
    dev.registerRegion(0, mib(1));
    OffloadRequest req;
    req.kind = OffloadKind::Decompress;
    req.srcAddr = 0;
    req.size = 1024;
    req.dstAddr = gib(4);  // unregistered destination frame
    req.rawSize = 4096;
    EXPECT_EQ(host_->submit(req), invalidOffloadId);
    EXPECT_EQ(dev.stats().unregisteredRejects, 1u);
}

TEST_F(XfmDeviceTest, UnregisteredWritebackDestinationFatal)
{
    auto &dev = makeDevice();
    dev.registerRegion(0, mib(1));
    mem_.write(rowAddr(3), Bytes(4096, 0x21));
    std::optional<OffloadCompletion> completion;
    host_->onComplete = [&](const OffloadCompletion &c) {
        completion = c;
    };
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(3);
    req.size = 4096;
    ASSERT_NE(host_->submit(req), invalidOffloadId);
    eq_.run(cfg_.rank.device.tREFI());
    ASSERT_TRUE(completion.has_value());
    EXPECT_THROW(dev.commitWriteback(completion->id, gib(8)),
                 FatalError);
}

TEST_F(XfmDeviceTest, NoRegistrationsMeansPermissive)
{
    auto &dev = makeDevice();
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = gib(2);
    req.size = 4096;
    EXPECT_NE(host_->submit(req), invalidOffloadId);
    EXPECT_EQ(dev.stats().unregisteredRejects, 0u);
}

} // namespace
} // namespace nma
} // namespace xfm

namespace xfm
{
namespace nma
{
namespace
{

TEST(AccessBudget, DerivedFromDeviceTiming)
{
    // Sec. 5: 2 / 3 / 4 conditional 4 KiB accesses per tRFC.
    EXPECT_EQ(dram::maxAccessesPerTrfc(dram::ddr5Device8Gb()), 2u);
    EXPECT_EQ(dram::maxAccessesPerTrfc(dram::ddr5Device16Gb()), 3u);
    EXPECT_EQ(dram::maxAccessesPerTrfc(dram::ddr5Device32Gb()), 4u);
}

TEST(AccessBudget, CompletionOffsetsFitInTrfc)
{
    for (const auto &dev : {dram::ddr5Device8Gb(),
                            dram::ddr5Device16Gb(),
                            dram::ddr5Device32Gb()}) {
        const auto n = dram::maxAccessesPerTrfc(dev);
        for (std::uint32_t k = 0; k < n; ++k)
            EXPECT_LE(dram::accessCompletionOffset(dev, k), dev.tRFC)
                << dev.name << " access " << k;
        // One more access would overrun the window.
        EXPECT_GT(dram::accessCompletionOffset(dev, n), dev.tRFC)
            << dev.name;
    }
}

TEST(AccessBudget, FirstAccessTakes110ns)
{
    // Sec. 5: "it would take 110ns to send all the data out of the
    // chip to the NMA (tRCD + tCL + 32 x tBURST)".
    const auto dev = dram::ddr5Device32Gb();
    EXPECT_NEAR(ticksToNs(dram::accessCompletionOffset(dev, 0)),
                110.0, 3.0);
}

TEST_F(XfmDeviceTest, DefaultBudgetDerivedFromDevice)
{
    auto &dev = makeDevice();  // maxAccessesPerWindow = 0 => derive
    EXPECT_EQ(dev.config().maxAccessesPerWindow, 4u);  // 32 Gb
}

TEST_F(XfmDeviceTest, EngineCompletionWaitsForTransfer)
{
    makeDevice();
    mem_.write(rowAddr(3), Bytes(4096, 0x66));  // window-0 row
    Tick completed = 0;
    host_->onComplete = [&](const OffloadCompletion &c) {
        completed = c.finished;
    };
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(3);
    req.size = 4096;
    host_->submit(req);
    eq_.run(cfg_.rank.device.tREFI());
    // Transfer (110 ns) + engine (~277 ns) past the window start.
    EXPECT_GE(completed,
              dram::accessCompletionOffset(cfg_.rank.device, 0));
    EXPECT_LT(completed, microseconds(1.0));
}

} // namespace
} // namespace nma
} // namespace xfm
