/**
 * @file
 * Integration tests for the Host-Lockout NMA baseline and the
 * MemCtrl rank-lock interface: offloads must stall co-running host
 * traffic under lockout but not under XFM's refresh-window channel
 * — the mechanism behind Fig. 11's ordering.
 */

#include <gtest/gtest.h>

#include <optional>

#include "compress/corpus.hh"
#include "dram/mem_ctrl.hh"
#include "dram/phys_mem.hh"
#include "dram/refresh.hh"
#include "nma/lockout_device.hh"
#include "nma/xfm_device.hh"
#include "ring_host.hh"
#include "sim/event_queue.hh"

namespace xfm
{
namespace nma
{
namespace
{

dram::MemSystemConfig
testConfig()
{
    dram::MemSystemConfig cfg;
    cfg.rank.device = dram::ddr5Device32Gb();
    cfg.channels = 1;
    cfg.dimmsPerChannel = 1;
    cfg.ranksPerDimm = 1;
    return cfg;
}

TEST(MemCtrlLock, ExternalLockStallsRequests)
{
    EventQueue eq;
    const auto cfg = testConfig();
    dram::MemCtrl ctrl("memctrl", eq, cfg, nullptr);

    ctrl.lockRank(0, 0, microseconds(5.0));
    Tick done = 0;
    ctrl.submit({0, 64, false, [&](Tick t) { done = t; }});
    eq.run();
    EXPECT_GE(done, microseconds(5.0));
    EXPECT_GT(ctrl.stats().extLockStallTicks, 0u);
}

TEST(MemCtrlLock, LockExtendsNotShrinks)
{
    EventQueue eq;
    const auto cfg = testConfig();
    dram::MemCtrl ctrl("memctrl", eq, cfg, nullptr);
    ctrl.lockRank(0, 0, microseconds(10.0));
    ctrl.lockRank(0, 0, microseconds(2.0));  // must not shorten
    Tick done = 0;
    ctrl.submit({0, 64, false, [&](Tick t) { done = t; }});
    eq.run();
    EXPECT_GE(done, microseconds(10.0));
}

class LockoutVsXfmTest : public ::testing::Test
{
  protected:
    LockoutVsXfmTest()
        : cfg_(testConfig()), map_(cfg_),
          mem_(cfg_.totalCapacityBytes()),
          refresh_("refresh", eq_, cfg_.rank.device, 1),
          ctrl_("memctrl", eq_, cfg_, &refresh_)
    {
        page_ = compress::generateCorpus(
            compress::CorpusKind::Html, 7, pageBytes);
    }

    std::uint64_t
    rowAddr(std::uint32_t row) const
    {
        dram::DramCoord c{};
        c.row = row;
        return map_.encode(c);
    }

    /** Issue host reads every microsecond; return mean latency. */
    double
    hostTrafficMeanLatencyNs(Tick horizon)
    {
        auto sum = std::make_shared<double>(0.0);
        auto count = std::make_shared<int>(0);
        for (Tick t = 0; t < horizon; t += microseconds(1.0)) {
            eq_.schedule(t, [this, t, sum, count] {
                ctrl_.submit({kib(64) + (t % kib(4)), 64, false,
                              [=](Tick done) {
                    *sum += ticksToNs(done - t);
                    ++*count;
                }});
            });
        }
        eq_.run(horizon + milliseconds(1.0));
        return *count ? *sum / *count : 0.0;
    }

    EventQueue eq_;
    dram::MemSystemConfig cfg_;
    dram::AddressMap map_;
    dram::PhysMem mem_;
    dram::RefreshController refresh_;
    dram::MemCtrl ctrl_;
    Bytes page_;
};

TEST_F(LockoutVsXfmTest, LockoutOffloadsCorrect)
{
    LockoutDeviceConfig dcfg;
    dcfg.engine = EngineProfile::fpgaSoftCore();
    HostLockoutDevice dev("lockout", eq_, dcfg, mem_, ctrl_);

    mem_.write(rowAddr(10), page_);
    OffloadRequest req;
    req.kind = OffloadKind::Compress;
    req.srcAddr = rowAddr(10);
    req.size = 4096;
    req.dstAddr = rowAddr(500);

    std::optional<OffloadCompletion> completion;
    dev.offload(req, [&](const OffloadCompletion &c) {
        completion = c;
    });
    eq_.run(milliseconds(1.0));
    ASSERT_TRUE(completion.has_value());
    EXPECT_LT(completion->outputSize, 4096u);

    // Round trip through a decompress offload.
    OffloadRequest back;
    back.kind = OffloadKind::Decompress;
    back.srcAddr = rowAddr(500);
    back.size = completion->outputSize;
    back.dstAddr = rowAddr(900);
    back.rawSize = 4096;
    bool done = false;
    dev.offload(back, [&](const OffloadCompletion &) { done = true; });
    eq_.run(eq_.now() + milliseconds(1.0));
    ASSERT_TRUE(done);
    EXPECT_EQ(mem_.read(rowAddr(900), pageBytes), page_);
    EXPECT_GT(dev.stats().rankLockedTicks, 0u);
}

TEST_F(LockoutVsXfmTest, LockoutStallsHostXfmDoesNot)
{
    refresh_.start();

    // Measure host latency with a lockout NMA running a steady
    // offload stream on a slow (FPGA-class) engine.
    LockoutDeviceConfig dcfg;
    dcfg.engine = EngineProfile::fpgaSoftCore();
    HostLockoutDevice lockout("lockout", eq_, dcfg, mem_, ctrl_);
    mem_.write(rowAddr(10), page_);
    for (int i = 0; i < 400; ++i) {
        eq_.schedule(microseconds(i * 5.0), [&, i] {
            OffloadRequest req;
            req.kind = OffloadKind::Compress;
            req.srcAddr = rowAddr(10);
            req.size = 4096;
            req.dstAddr = rowAddr(2000 + i % 64);
            lockout.offload(req, nullptr);
        });
    }
    const double with_lockout =
        hostTrafficMeanLatencyNs(milliseconds(2.0));

    // Fresh system: the same offload stream through an XfmDevice
    // (refresh-window channel) leaves host latency at the
    // refresh-only baseline.
    EventQueue eq2;
    dram::RefreshController refresh2("refresh", eq2,
                                     cfg_.rank.device, 1);
    dram::MemCtrl ctrl2("memctrl", eq2, cfg_, &refresh2);
    dram::PhysMem mem2(cfg_.totalCapacityBytes());
    XfmDeviceConfig xcfg;
    XfmDevice xfm("xfm", eq2, xcfg, map_, mem2, refresh2);
    RingHost host(xfm);
    refresh2.start();
    mem2.write(rowAddr(10), page_);
    for (int i = 0; i < 400; ++i) {
        eq2.schedule(microseconds(i * 5.0), [&, i] {
            OffloadRequest req;
            req.kind = OffloadKind::Compress;
            req.srcAddr = rowAddr(10);
            req.size = 4096;
            req.deadline = eq2.now() + milliseconds(32.0);
            host.submit(req);
        });
    }
    host.onComplete = [&](const OffloadCompletion &c) {
        xfm.commitWriteback(c.id, rowAddr(3000));
    };
    auto sum = std::make_shared<double>(0.0);
    auto count = std::make_shared<int>(0);
    for (Tick t = 0; t < milliseconds(2.0); t += microseconds(1.0)) {
        eq2.schedule(t, [&, t, sum, count] {
            ctrl2.submit({kib(64) + (t % kib(4)), 64, false,
                          [=](Tick done) {
                *sum += ticksToNs(done - t);
                ++*count;
            }});
        });
    }
    eq2.run(milliseconds(3.0));
    const double with_xfm = *sum / *count;

    // The lockout device must visibly inflate host latency; XFM's
    // traffic is invisible to the host memory controller.
    EXPECT_GT(with_lockout, with_xfm * 1.2);
    EXPECT_GT(ctrl_.stats().extLockStallTicks, 0u);
    EXPECT_EQ(ctrl2.stats().extLockStallTicks, 0u);
}

} // namespace
} // namespace nma
} // namespace xfm
