/**
 * @file
 * Unit tests for XfmDriver: the lazy SP_Capacity accounting (bound
 * growth, trim at completion, release at write-back/drop), the
 * always-sync ablation mode, and fallback behaviour when device
 * resources are exhausted.
 */

#include <gtest/gtest.h>

#include <optional>

#include "common/random.hh"
#include "dram/address_map.hh"
#include "dram/phys_mem.hh"
#include "dram/refresh.hh"
#include "nma/xfm_device.hh"
#include "xfm/xfm_driver.hh"

namespace xfm
{
namespace xfmsys
{
namespace
{

dram::MemSystemConfig
rankConfig()
{
    dram::MemSystemConfig cfg;
    cfg.rank.device = dram::ddr5Device32Gb();
    cfg.channels = 1;
    cfg.dimmsPerChannel = 1;
    cfg.ranksPerDimm = 1;
    return cfg;
}

class DriverTest : public ::testing::Test
{
  protected:
    DriverTest()
        : cfg_(rankConfig()), map_(cfg_),
          mem_(cfg_.totalCapacityBytes()),
          refresh_("refresh", eq_, cfg_.rank.device, 1)
    {}

    void
    makeDriver(nma::XfmDeviceConfig dcfg = {})
    {
        device_.emplace("xfm", eq_, dcfg, map_, mem_, refresh_);
        driver_.emplace(*device_);
        refresh_.start();
    }

    std::uint64_t
    rowAddr(std::uint32_t row) const
    {
        dram::DramCoord c{};
        c.row = row;
        return map_.encode(c);
    }

    /** A row refreshed by window 1: the first window that sees a
     *  tick-0 submission, whose doorbell is rung after window 0. */
    std::uint32_t
    firstServedRow() const
    {
        return cfg_.rank.device.rowsPerRefresh + 5;
    }

    EventQueue eq_;
    dram::MemSystemConfig cfg_;
    dram::AddressMap map_;
    dram::PhysMem mem_;
    dram::RefreshController refresh_;
    std::optional<nma::XfmDevice> device_;
    std::optional<XfmDriver> driver_;
};

TEST_F(DriverTest, BoundGrowsOnSubmit)
{
    makeDriver();
    EXPECT_EQ(driver_->occupancyBound(), 0u);
    const auto id = driver_->xfmCompress(rowAddr(100), 4096, maxTick);
    ASSERT_NE(id, nma::invalidOffloadId);
    EXPECT_EQ(driver_->occupancyBound(),
              nma::CompressionEngine::worstCaseCompressedSize(4096));
    EXPECT_EQ(driver_->stats().offloadsSubmitted, 1u);
    EXPECT_EQ(driver_->stats().capacityRegisterReads, 0u);
}

TEST_F(DriverTest, BoundTrimsAtCompletionAndClearsAtWriteback)
{
    makeDriver();
    const std::uint64_t src = rowAddr(firstServedRow());
    mem_.write(src, Bytes(4096, 0x33));  // compressible
    std::optional<nma::OffloadCompletion> completion;
    driver_->onComplete([&](const nma::OffloadCompletion &c) {
        completion = c;
    });
    Tick wb_at = 0;
    driver_->onWriteback([&](nma::OffloadId, Tick t) { wb_at = t; });

    // Window 1 refreshes the source row: executes at once.
    const auto id = driver_->xfmCompress(src, 4096, maxTick);
    eq_.run(2 * cfg_.rank.device.tREFI());
    ASSERT_TRUE(completion.has_value());
    // Bound trimmed from worst case (4112) to the actual size.
    EXPECT_EQ(driver_->occupancyBound(), completion->outputSize);

    driver_->commitWriteback(id, rowAddr(5000));
    eq_.run(cfg_.rank.device.retention);
    EXPECT_GT(wb_at, 0u);
    EXPECT_EQ(driver_->occupancyBound(), 0u);
}

TEST_F(DriverTest, BoundClearsOnDeadlineDrop)
{
    makeDriver();
    bool dropped = false;
    driver_->onDrop([&](nma::OffloadId, nma::DropReason) {
        dropped = true;
    });
    // Row far from the refresh cursor, deadline before any window
    // can serve it randomly... deadline 1 tick: dropped at window 1.
    driver_->xfmDecompress(rowAddr(60000), 1024, rowAddr(61000),
                           4096, 1);
    // Burn the first window's random slot with an earlier-deadline
    // op so the victim survives window 0 and expires at window 1.
    driver_->xfmDecompress(rowAddr(62000), 1024, rowAddr(63000),
                           4096, 0);
    eq_.run(2 * cfg_.rank.device.tREFI());
    EXPECT_TRUE(dropped);
    // Only the survivor's bytes remain tracked (its output staged).
    EXPECT_LE(driver_->occupancyBound(), 4096u);
}

TEST_F(DriverTest, BoundClearsOnAbort)
{
    makeDriver();
    const auto id = driver_->xfmCompress(rowAddr(50000), 4096,
                                         maxTick);
    ASSERT_NE(id, nma::invalidOffloadId);
    EXPECT_GT(driver_->occupancyBound(), 0u);
    driver_->abort(id);
    EXPECT_EQ(driver_->occupancyBound(), 0u);
}

TEST_F(DriverTest, LazyBoundTriggersMmioOnlyWhenFull)
{
    nma::XfmDeviceConfig dcfg;
    dcfg.spmBytes = 12 * 1024;  // ~3 worst-case pages
    makeDriver(dcfg);
    int accepted = 0;
    for (int i = 0; i < 3; ++i) {
        if (driver_->xfmCompress(rowAddr(40000 + 16 * i), 4096,
                                 maxTick)
            != nma::invalidOffloadId)
            ++accepted;
    }
    // The first two fit the local bound without any MMIO. The third
    // infers 100% occupancy, reads SP_Capacity, discovers that no
    // output is staged yet (SPM is reserved at read-execution), and
    // is admitted — the lazy bound errs pessimistic, the sync
    // corrects it.
    EXPECT_EQ(accepted, 3);
    EXPECT_EQ(driver_->stats().capacityRegisterReads, 1u);
    EXPECT_EQ(driver_->stats().fallbacks, 0u);
}

TEST_F(DriverTest, TrulyFullSpmFallsBackAfterSync)
{
    nma::XfmDeviceConfig dcfg;
    dcfg.spmBytes = 5 * 1024;  // one worst-case output
    makeDriver(dcfg);
    // Incompressible content so the staged output stays page-sized
    // (a stored block) and really occupies the SPM.
    Bytes noise(4096);
    Rng rng(9);
    for (auto &b : noise)
        b = static_cast<std::uint8_t>(rng.next());
    const std::uint64_t src = rowAddr(firstServedRow());
    mem_.write(src, noise);
    // The source executes in window 1; no write-back is committed,
    // so its output stays staged in the SPM.
    ASSERT_NE(driver_->xfmCompress(src, 4096, maxTick),
              nma::invalidOffloadId);
    eq_.run(2 * cfg_.rank.device.tREFI());
    // Now the SPM is truly occupied: the next admission syncs and
    // falls back.
    EXPECT_EQ(driver_->xfmCompress(rowAddr(6), 4096, maxTick),
              nma::invalidOffloadId);
    EXPECT_GE(driver_->stats().capacityRegisterReads, 1u);
    EXPECT_EQ(driver_->stats().fallbacks, 1u);
}

TEST_F(DriverTest, MmioSyncRecoversStaleBound)
{
    nma::XfmDeviceConfig dcfg;
    dcfg.spmBytes = 12 * 1024;
    makeDriver(dcfg);
    mem_.write(rowAddr(5), Bytes(4096, 0x11));
    mem_.write(rowAddr(6), Bytes(4096, 0x22));
    const auto a = driver_->xfmCompress(rowAddr(5), 4096, maxTick);
    const auto b = driver_->xfmCompress(rowAddr(6), 4096, maxTick);
    ASSERT_NE(a, nma::invalidOffloadId);
    ASSERT_NE(b, nma::invalidOffloadId);
    driver_->onComplete([&](const nma::OffloadCompletion &c) {
        driver_->commitWriteback(c.id, rowAddr(5000 + 16 * (c.id % 4)));
    });
    // Let both complete and write back: real SPM usage returns to 0
    // while a pessimist would still refuse.
    eq_.run(cfg_.rank.device.retention);
    EXPECT_EQ(driver_->occupancyBound(), 0u);
    // Next submission is accepted without any fallback.
    EXPECT_NE(driver_->xfmCompress(rowAddr(7), 4096, maxTick),
              nma::invalidOffloadId);
}

TEST_F(DriverTest, AlwaysSyncReadsEveryTime)
{
    makeDriver();
    driver_->setAlwaysSync(true);
    for (int i = 0; i < 5; ++i)
        driver_->xfmCompress(rowAddr(30000 + 16 * i), 4096, maxTick);
    EXPECT_EQ(driver_->stats().capacityRegisterReads, 5u);
}

TEST_F(DriverTest, QueueFullFallsBack)
{
    nma::XfmDeviceConfig dcfg;
    dcfg.sqDepth = 2;
    makeDriver(dcfg);
    int rejected = 0;
    for (int i = 0; i < 4; ++i) {
        if (driver_->xfmCompress(rowAddr(20000 + 16 * i), 4096,
                                 maxTick)
            == nma::invalidOffloadId)
            ++rejected;
    }
    EXPECT_EQ(rejected, 2);
    EXPECT_EQ(driver_->stats().fallbacks, 2u);
}

TEST_F(DriverTest, ParamsetWritesRegionRegisters)
{
    makeDriver();
    driver_->xfmParamset(gib(1), mib(64));
    EXPECT_EQ(device_->regs().read(nma::Reg::SfmRegionBase), gib(1));
    EXPECT_EQ(device_->regs().read(nma::Reg::SfmRegionSize),
              mib(64));
}

TEST_F(DriverTest, DecompressTracksCompressedFootprint)
{
    makeDriver();
    driver_->xfmDecompress(rowAddr(100), 1365, rowAddr(200), 4096,
                           maxTick);
    // The lazy bound uses the compressed size as the staged-bytes
    // estimate for decompressions.
    EXPECT_EQ(driver_->occupancyBound(), 1365u);
}

} // namespace
} // namespace xfmsys
} // namespace xfm
