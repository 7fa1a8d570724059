/**
 * @file
 * Tests for the health/robustness layer: the HealthMonitor state
 * machine (every transition, fast trip, cooldown, half-open
 * probation, probe cancellation) and its integration into the XFM
 * stack — per-channel offlining with byte-identical page reassembly
 * through the per-shard CPU fallback, lost doorbell batches tripping
 * the channel breaker, the stuck-offload watchdog, and same-seed
 * byte-identical health metric timelines.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/logging.hh"
#include "common/random.hh"
#include "health/health.hh"
#include "system/system.hh"
#include "test_util.hh"
#include "xfm/xfm_backend.hh"

namespace xfm
{
namespace health
{
namespace
{

using sfm::PageState;
using sfm::SwapOutcome;
using sfm::VirtPage;
using xfmsys::XfmBackend;
using xfmsys::XfmSystemConfig;

// -------------------------------------------------------------- config

TEST(HealthConfigParse, ParsesKeysAndValidates)
{
    const auto cfg = Config::parseString(
        "health.enabled = 1\n"
        "health.window = 8\n"
        "health.degrade = 0.2\n"
        "health.fail = 0.6\n"
        "health.fail_consecutive = 4\n"
        "health.cooldown_ns = 5000\n"
        "health.probe_quota = 3\n"
        "health.probe_successes = 2\n");
    const HealthConfig c = HealthConfig::fromConfig(cfg);
    EXPECT_TRUE(c.enabled);
    EXPECT_EQ(c.window, 8u);
    EXPECT_DOUBLE_EQ(c.degradeThreshold, 0.2);
    EXPECT_DOUBLE_EQ(c.failThreshold, 0.6);
    EXPECT_EQ(c.failConsecutive, 4u);
    EXPECT_EQ(c.cooldown, nanoseconds(5000.0));
    EXPECT_EQ(c.probeQuota, 3u);
    EXPECT_EQ(c.probeSuccesses, 2u);

    // Typo'd keys and inconsistent tuning must be fatal, not silent.
    EXPECT_THROW(HealthConfig::fromConfig(Config::parseString(
                     "health.windw = 8\n")),
                 FatalError);
    EXPECT_THROW(HealthConfig::fromConfig(Config::parseString(
                     "health.fail = 0.2\nhealth.degrade = 0.5\n")),
                 FatalError);
    EXPECT_THROW(HealthConfig::fromConfig(Config::parseString(
                     "health.probe_successes = 9\n"
                     "health.probe_quota = 2\n")),
                 FatalError);
    EXPECT_THROW(HealthConfig::fromConfig(Config::parseString(
                     "health.window = 0\n")),
                 FatalError);
}

// ------------------------------------------------------------- monitor

/** Small deterministic tuning used by the unit tests below. */
HealthConfig
monitorConfig()
{
    HealthConfig c;
    c.enabled = true;
    c.window = 4;
    c.degradeThreshold = 0.25;
    c.failThreshold = 0.5;
    c.failConsecutive = 3;
    c.cooldown = 1000;  // raw ticks, for easy arithmetic below
    c.probeQuota = 2;
    c.probeSuccesses = 2;
    return c;
}

TEST(HealthMonitor, DisabledMonitorAdmitsEverythingRecordsNothing)
{
    HealthMonitor m;
    EXPECT_FALSE(m.enabled());
    for (int i = 0; i < 100; ++i) {
        m.recordFault(i);
        EXPECT_TRUE(m.admit(i));
    }
    EXPECT_EQ(m.rawState(), HealthState::Healthy);
    EXPECT_EQ(m.stats().faults, 0u);
    EXPECT_EQ(m.stats().trips, 0u);
}

TEST(HealthMonitor, WindowDegradesThenRecovers)
{
    HealthMonitor m(monitorConfig());
    // Window of 4 with 1 fault: 25% >= degrade threshold.
    m.recordFault(1);
    m.recordSuccess(2);
    m.recordSuccess(3);
    EXPECT_EQ(m.rawState(), HealthState::Healthy);
    m.recordSuccess(4);
    EXPECT_EQ(m.rawState(), HealthState::Degraded);
    EXPECT_EQ(m.stats().degrades, 1u);
    EXPECT_TRUE(m.admit(5));  // Degraded still admits work

    // A clean window recovers to Healthy.
    for (Tick t = 6; t < 10; ++t)
        m.recordSuccess(t);
    EXPECT_EQ(m.rawState(), HealthState::Healthy);
    EXPECT_EQ(m.stats().recoveries, 1u);
}

TEST(HealthMonitor, WindowFaultFractionTripsBreaker)
{
    HealthMonitor m(monitorConfig());
    // 2 faults / 4 events = 50% >= fail threshold. Interleaved so
    // the consecutive-fault fast path stays out of the picture.
    m.recordFault(1);
    m.recordSuccess(2);
    m.recordFault(3);
    m.recordSuccess(4);
    EXPECT_EQ(m.rawState(), HealthState::Failed);
    EXPECT_EQ(m.stats().trips, 1u);

    // The breaker refuses work while Failed (and counts it).
    EXPECT_FALSE(m.admit(5));
    EXPECT_FALSE(m.wouldAdmit(5));
    EXPECT_EQ(m.stats().breakerRejects, 1u);
}

TEST(HealthMonitor, ConsecutiveFaultsFastTripBeforeWindowFills)
{
    HealthMonitor m(monitorConfig());
    m.recordFault(1);
    m.recordFault(2);
    EXPECT_EQ(m.rawState(), HealthState::Healthy);
    m.recordFault(3);  // 3rd consecutive: trip with window unfilled
    EXPECT_EQ(m.rawState(), HealthState::Failed);
    EXPECT_EQ(m.stats().trips, 1u);
}

TEST(HealthMonitor, CooldownOpensProbationAndProbesReclose)
{
    HealthMonitor m(monitorConfig());
    for (int i = 0; i < 3; ++i)
        m.recordFault(100);
    ASSERT_EQ(m.rawState(), HealthState::Failed);

    // Before the cooldown elapses the breaker stays open.
    EXPECT_EQ(m.state(100 + 999), HealthState::Failed);
    // At the deadline it goes half-open.
    EXPECT_EQ(m.state(100 + 1000), HealthState::Probation);

    // The probe quota bounds half-open admissions.
    EXPECT_TRUE(m.admit(1200));
    EXPECT_TRUE(m.admit(1201));
    EXPECT_FALSE(m.wouldAdmit(1202));
    EXPECT_EQ(m.stats().probes, 2u);
    EXPECT_EQ(m.outstandingProbes(), 2u);

    // Enough probe wins re-close the breaker.
    m.recordSuccess(1300);
    EXPECT_EQ(m.rawState(), HealthState::Probation);
    m.recordSuccess(1301);
    EXPECT_EQ(m.rawState(), HealthState::Healthy);
    EXPECT_EQ(m.stats().recoveries, 1u);
}

TEST(HealthMonitor, OneFailedProbeRetrips)
{
    HealthMonitor m(monitorConfig());
    for (int i = 0; i < 3; ++i)
        m.recordFault(100);
    ASSERT_EQ(m.state(1100), HealthState::Probation);
    ASSERT_TRUE(m.admit(1100));

    m.recordFault(1150);
    EXPECT_EQ(m.rawState(), HealthState::Failed);
    EXPECT_EQ(m.stats().probeFailures, 1u);
    EXPECT_EQ(m.stats().trips, 2u);
    // ... and the new Failed episode runs its own cooldown.
    EXPECT_EQ(m.state(1150 + 999), HealthState::Failed);
    EXPECT_EQ(m.state(1150 + 1000), HealthState::Probation);
}

TEST(HealthMonitor, CancelProbeReturnsTheSlot)
{
    HealthMonitor m(monitorConfig());
    for (int i = 0; i < 3; ++i)
        m.recordFault(100);
    ASSERT_EQ(m.state(1100), HealthState::Probation);

    // Spend the whole quota, then abandon one probe (the request
    // fell back before exercising the component): the slot must come
    // back, so lost outcomes cannot strand the domain in Probation.
    ASSERT_TRUE(m.admit(1100));
    ASSERT_TRUE(m.admit(1101));
    ASSERT_FALSE(m.wouldAdmit(1102));
    m.cancelProbe(1103);
    EXPECT_EQ(m.outstandingProbes(), 1u);
    EXPECT_TRUE(m.wouldAdmit(1104));
    EXPECT_TRUE(m.admit(1104));

    // wouldAdmit() consumes nothing: asking N times costs no slots.
    m.cancelProbe(1105);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(m.wouldAdmit(1106));
    EXPECT_EQ(m.stats().probes, 3u);
}

TEST(HealthMonitor, StragglerOutcomesIgnoredWhileFailed)
{
    HealthMonitor m(monitorConfig());
    for (int i = 0; i < 3; ++i)
        m.recordFault(100);
    ASSERT_EQ(m.rawState(), HealthState::Failed);

    // Outcomes of requests admitted before the trip must not disturb
    // the open breaker (or seed the next window).
    m.recordSuccess(200);
    m.recordFault(201);
    EXPECT_EQ(m.rawState(), HealthState::Failed);
    EXPECT_EQ(m.stats().trips, 1u);
    EXPECT_EQ(m.state(100 + 1000), HealthState::Probation);
}

TEST(HealthMonitor, ForceFailAndForceHealthy)
{
    HealthMonitor m(monitorConfig());
    m.forceFail(500);
    EXPECT_EQ(m.rawState(), HealthState::Failed);
    EXPECT_EQ(m.stats().forcedOffline, 1u);
    EXPECT_EQ(m.stats().trips, 1u);
    // forceFail on an already-Failed domain restarts the cooldown.
    m.forceFail(1200);
    EXPECT_EQ(m.state(1200 + 999), HealthState::Failed);

    m.forceHealthy(2500);
    EXPECT_EQ(m.rawState(), HealthState::Healthy);
    EXPECT_TRUE(m.admit(2501));
}

// ------------------------------------------- backend-level breakers

class BackendHealthTest : public ::testing::Test
{
  protected:
    /** Health-armed 2-DIMM config; a huge cooldown keeps forced
     *  failures open for the whole (sub-second) test run. */
    XfmSystemConfig
    healthConfig()
    {
        auto cfg = testutil::testXfmConfig(2);
        cfg.health.enabled = true;
        cfg.health.cooldown = seconds(1.0);
        return cfg;
    }

    void
    makeBackend(const XfmSystemConfig &cfg)
    {
        backend_.emplace("xfmsys", eq_, cfg);
        backend_->start();
    }

    Bytes
    pageContent(VirtPage p) const
    {
        return testutil::corpusPage(compress::CorpusKind::Json,
                                    p + 200);
    }

    SwapOutcome
    runSwapOut(VirtPage p)
    {
        SwapOutcome out;
        backend_->writePage(p, pageContent(p));
        backend_->swapOut(p, [&](const SwapOutcome &o) { out = o; });
        eq_.run(eq_.now() + seconds(0.2));
        return out;
    }

    /** Overwrite a Far page's local frames, as frame reuse would,
     *  so a restore must write every shard back. */
    void
    clobberLocal(VirtPage p)
    {
        backend_->writePage(p, Bytes(pageBytes, 0xA5));
    }

    SwapOutcome
    runSwapIn(VirtPage p, bool allow_offload = true)
    {
        SwapOutcome in;
        backend_->swapIn(p, allow_offload,
                         [&](const SwapOutcome &o) { in = o; });
        eq_.run(eq_.now() + seconds(0.2));
        return in;
    }

    EventQueue eq_;
    std::optional<XfmBackend> backend_;
};

TEST_F(BackendHealthTest, OfflinedChannelReassemblesViaCpuShard)
{
    // Preset dictionaries on: the CPU shard must encode and decode
    // against the same page dictionary as the offloaded one.
    auto cfg = healthConfig();
    cfg.shardDict = true;
    makeBackend(cfg);
    backend_->channelHealth(1).forceFail(0);

    // The CPU is charged for exactly the one rerouted shard in each
    // direction, once.
    const auto cost = compress::cpuCost(cfg.algorithm);
    const auto shard = static_cast<double>(cfg.shardBytes());
    const auto shard_compress =
        static_cast<std::uint64_t>(cost.compressCyclesPerByte * shard);
    const auto shard_decompress =
        static_cast<std::uint64_t>(cost.decompressCyclesPerByte * shard);

    // The page demotes with DIMM 1's shard compressed on the CPU and
    // DIMM 0's shard offloaded as usual.
    std::uint64_t cycles = backend_->stats().cpuCycles;
    const SwapOutcome out = runSwapOut(1);
    EXPECT_TRUE(out.success);
    EXPECT_EQ(backend_->pageState(1), PageState::Far);
    EXPECT_EQ(backend_->xfmStats().shardCpuFallbacks, 1u);
    EXPECT_EQ(backend_->xfmStats().breakerFallbacks, 0u);
    EXPECT_GT(backend_->xfmStats().dictShards, 0u);
    EXPECT_EQ(backend_->stats().cpuCycles - cycles, shard_compress);

    // Promotion with the channel still offline: the shard comes back
    // through per-shard CPU decompression, byte-identically.
    clobberLocal(1);
    cycles = backend_->stats().cpuCycles;
    const SwapOutcome in = runSwapIn(1);
    EXPECT_TRUE(in.success);
    EXPECT_EQ(backend_->xfmStats().shardCpuFallbacks, 2u);
    EXPECT_EQ(backend_->stats().cpuCycles - cycles, shard_decompress);
    EXPECT_EQ(backend_->readPage(1), pageContent(1));

    // Each routing refusal is the open channel's breakerReject; the
    // healthy channel refused nothing.
    EXPECT_EQ(backend_->channelHealth(1).stats().breakerRejects, 2u);
    EXPECT_EQ(backend_->channelHealth(0).stats().breakerRejects, 0u);
}

TEST_F(BackendHealthTest, AllChannelsFailedFallsBackWholeSwap)
{
    makeBackend(healthConfig());
    backend_->channelHealth(0).forceFail(0);
    backend_->channelHealth(1).forceFail(0);

    const SwapOutcome out = runSwapOut(2);
    EXPECT_TRUE(out.success);
    EXPECT_TRUE(out.usedCpu);
    EXPECT_EQ(backend_->xfmStats().breakerFallbacks, 1u);

    const SwapOutcome in = runSwapIn(2);
    EXPECT_TRUE(in.success);
    EXPECT_EQ(backend_->xfmStats().breakerFallbacks, 2u);
    EXPECT_EQ(backend_->readPage(2), pageContent(2));
    for (std::size_t d = 0; d < 2; ++d)
        EXPECT_EQ(backend_->channelHealth(d).stats().breakerRejects, 2u);
}

TEST_F(BackendHealthTest, DoorbellBreakerSkipsRetryLadder)
{
    auto cfg = healthConfig();
    cfg.faults.site(fault::FaultSite::MmioDoorbellLoss).probability =
        1.0;
    cfg.retry.maxAttempts = 2;
    // One swap gives one lost-batch drop per DIMM: trip on the first.
    cfg.health.failConsecutive = 1;
    makeBackend(cfg);

    // First swap: every SQ tail doorbell is lost, the ladder gives up
    // after its re-ring, and each DIMM's staged shard is dropped as
    // DoorbellLost and redone on the CPU. The drop trips the
    // channel's breaker.
    const SwapOutcome first = runSwapOut(1);
    EXPECT_TRUE(first.success);
    EXPECT_TRUE(first.usedCpu);
    for (std::size_t d = 0; d < 2; ++d)
        EXPECT_EQ(backend_->channelHealth(d).rawState(),
                  HealthState::Failed);
    const std::uint64_t retries_after_first =
        backend_->driver(0).stats().retries;
    EXPECT_GT(retries_after_first, 0u);
    const std::uint64_t submitted_after_first =
        backend_->driver(0).stats().offloadsSubmitted;
    const std::uint64_t cpu_routes_after_first =
        backend_->xfmStats().shardCpuFallbacks
        + backend_->xfmStats().breakerFallbacks;

    // Second swap: the open breakers route the work to the CPU before
    // submission — no descriptor, no MMIO writes, no backoff, no
    // additional retries.
    const SwapOutcome second = runSwapOut(2);
    EXPECT_TRUE(second.success);
    EXPECT_TRUE(second.usedCpu);
    EXPECT_EQ(backend_->driver(0).stats().retries,
              retries_after_first);
    EXPECT_EQ(backend_->driver(0).stats().offloadsSubmitted,
              submitted_after_first);
    EXPECT_GT(backend_->xfmStats().shardCpuFallbacks
                  + backend_->xfmStats().breakerFallbacks,
              cpu_routes_after_first);

    // Data integrity holds throughout.
    EXPECT_TRUE(runSwapIn(1, false).success);
    EXPECT_TRUE(runSwapIn(2, false).success);
    EXPECT_EQ(backend_->readPage(1), pageContent(1));
    EXPECT_EQ(backend_->readPage(2), pageContent(2));
}

TEST_F(BackendHealthTest, WatchdogFiresStuckOffload)
{
    auto cfg = healthConfig();
    cfg.device.watchdogWindows = 2;
    // SPM reservations fail: accepted offloads are deferred window
    // after window, never winning an execution slot, until the
    // watchdog forces completion-with-error and the backend redoes
    // each shard on the CPU. Eight failures strand both shards of
    // the first swap-out and of its swap-in; then the plan is spent.
    cfg.faults.site(fault::FaultSite::SpmReserveFail).probability =
        1.0;
    cfg.faults.site(fault::FaultSite::SpmReserveFail).maxTriggers = 8;
    makeBackend(cfg);

    const SwapOutcome out = runSwapOut(3);
    EXPECT_TRUE(out.success);
    EXPECT_TRUE(out.usedCpu);
    std::uint64_t fires = 0;
    for (std::size_t d = 0; d < 2; ++d)
        fires += backend_->driver(d).device().stats().watchdogFires;
    EXPECT_GT(fires, 0u);
    EXPECT_EQ(backend_->pageState(3), PageState::Far);

    // The offloaded swap-in strands too: each shard decompresses on
    // the CPU straight into its local frame.
    std::uint64_t redos = backend_->xfmStats().watchdogShardRedos;
    clobberLocal(3);
    EXPECT_TRUE(runSwapIn(3).success);
    EXPECT_GT(backend_->xfmStats().watchdogShardRedos, redos);
    EXPECT_EQ(backend_->readPage(3), pageContent(3));

    // A burst of swap-outs outruns the two-window watchdog after
    // placement: write-backs strand in the SPM behind the burst and
    // their blocks are redone into the already-sized slots.
    redos = backend_->xfmStats().watchdogShardRedos;
    for (VirtPage p = 10; p < 42; ++p) {
        backend_->writePage(p, pageContent(p));
        backend_->swapOut(p, [](const SwapOutcome &) {});
    }
    eq_.run(eq_.now() + seconds(0.2));
    EXPECT_GT(backend_->xfmStats().watchdogShardRedos, redos);
    for (VirtPage p = 10; p < 42; ++p) {
        ASSERT_EQ(backend_->pageState(p), PageState::Far) << p;
        clobberLocal(p);
        EXPECT_TRUE(runSwapIn(p, false).success) << p;
        EXPECT_EQ(backend_->readPage(p), pageContent(p)) << p;
    }
}

// ------------------------------------------------------- determinism

/** One faulted run; returns the rendered end-of-run stats. */
std::string
runChaoticSystem()
{
    EventQueue eq;
    system::System sys("sys", eq, testutil::chaoticSystemConfig());
    for (VirtPage p = 0; p < 96; ++p)
        sys.writePage(p, testutil::corpusPage(
                             compress::CorpusKind::LogLines, p + 1));
    sys.start();
    eq.run(milliseconds(60.0));
    Rng rng(99);
    for (int i = 0; i < 48; ++i) {
        sys.access(rng.uniformInt(96));
        eq.run(eq.now() + milliseconds(1.0));
    }
    return sys.metrics().renderText();
}

TEST(HealthDeterminism, SameSeedByteIdenticalHealthTimeline)
{
    const std::string a = runChaoticSystem();
    const std::string b = runChaoticSystem();
    EXPECT_EQ(a, b);
    // The health layer actually participated: its metrics are in the
    // snapshot and the fault plan left marks on some monitor.
    EXPECT_NE(a.find("health.channel.state"), std::string::npos);
    EXPECT_NE(a.find("health.channel.faults"), std::string::npos);
}

} // namespace
} // namespace health
} // namespace xfm
