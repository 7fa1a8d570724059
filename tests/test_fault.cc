/**
 * @file
 * Tests for the deterministic fault-injection subsystem: plan
 * parsing, injector determinism and trigger semantics, the retry
 * policy, and the injection sites threaded through the ECC store,
 * the SPM, the driver (doorbell loss + retry/backoff), the NMA
 * engine (stall), and the backend's poisoned-page quarantine.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/logging.hh"
#include "dram/ecc.hh"
#include "fault/fault.hh"
#include "nma/spm.hh"
#include "obs/tracer.hh"
#include "test_util.hh"
#include "xfm/xfm_backend.hh"

namespace xfm
{
namespace fault
{
namespace
{

using sfm::PageState;
using sfm::SwapOutcome;
using xfmsys::XfmBackend;
using xfmsys::XfmSystemConfig;

// ---------------------------------------------------------------- plan

TEST(FaultPlan, DefaultsAreDisarmed)
{
    FaultPlan plan;
    EXPECT_FALSE(plan.anyArmed());
    FaultInjector inj(plan);
    EXPECT_FALSE(inj.armed());
    EXPECT_FALSE(inj.shouldInject(FaultSite::SpmReserveFail));
    EXPECT_EQ(inj.stats(FaultSite::SpmReserveFail).evaluations, 0u);
}

TEST(FaultPlan, ParsesConfigKeys)
{
    const auto cfg = Config::parseString(
        "fault.seed = 42\n"
        "fault.spm_watermark = 0.5\n"
        "fault.dfm_delay_ns = 750\n"
        "fault.spm_reserve.p = 0.25\n"
        "fault.mmio_doorbell.one_shot = 3\n"
        "fault.engine_stall.max = 2\n"
        "fault.engine_stall.p = 1.0\n");
    const FaultPlan plan = FaultPlan::fromConfig(cfg);
    EXPECT_EQ(plan.seed, 42u);
    EXPECT_DOUBLE_EQ(plan.spmHighWatermark, 0.5);
    EXPECT_EQ(plan.dfmDelayPenalty, nanoseconds(750.0));
    EXPECT_DOUBLE_EQ(plan.site(FaultSite::SpmReserveFail).probability,
                     0.25);
    EXPECT_EQ(plan.site(FaultSite::MmioDoorbellLoss).oneShotAt, 3u);
    EXPECT_EQ(plan.site(FaultSite::EngineStall).maxTriggers, 2u);
    EXPECT_TRUE(plan.anyArmed());
}

TEST(FaultPlan, RejectsUnknownKeysAndBadProbabilities)
{
    EXPECT_THROW(FaultPlan::fromConfig(Config::parseString(
                     "fault.spm_reserv.p = 0.5\n")),
                 FatalError);
    EXPECT_THROW(FaultPlan::fromConfig(Config::parseString(
                     "fault.spm_reserve.prob = 0.5\n")),
                 FatalError);
    EXPECT_THROW(FaultPlan::fromConfig(Config::parseString(
                     "fault.spm_reserve.p = 1.5\n")),
                 FatalError);
}

TEST(RetryPolicy, BackoffGrowsExponentiallyToCap)
{
    RetryPolicy p;
    p.backoffBase = nanoseconds(100.0);
    p.backoffCap = nanoseconds(500.0);
    EXPECT_EQ(p.backoffFor(0), nanoseconds(100.0));
    EXPECT_EQ(p.backoffFor(1), nanoseconds(200.0));
    EXPECT_EQ(p.backoffFor(2), nanoseconds(400.0));
    EXPECT_EQ(p.backoffFor(3), nanoseconds(500.0));  // capped
    EXPECT_EQ(p.backoffFor(63), nanoseconds(500.0));  // no overflow
}

TEST(RetryPolicy, BackoffLargeBaseSaturatesInsteadOfWrapping)
{
    // Regression: with a realistic base, `base << attempt` wraps
    // long before attempt 63, so a fixed attempt guard silently
    // returned a tiny (wrapped) backoff for mid-range attempts. The
    // backoff must saturate at the cap and stay monotone for every
    // attempt count instead.
    RetryPolicy p;
    p.backoffBase = nanoseconds(200.0);
    p.backoffCap = ~Tick{0};  // effectively uncapped: expose wraps
    Tick prev = 0;
    for (std::uint32_t a = 0; a < 128; ++a) {
        const Tick b = p.backoffFor(a);
        ASSERT_GE(b, prev) << "backoff regressed at attempt " << a;
        prev = b;
    }
    EXPECT_EQ(p.backoffFor(62), p.backoffCap);

    p.backoffBase = 0;
    EXPECT_EQ(p.backoffFor(100), 0u);
}

TEST(RetryPolicy, ParsesConfigKeys)
{
    const auto cfg = Config::parseString(
        "retry.max_attempts = 5\n"
        "retry.backoff_ns = 100\n"
        "retry.cap_ns = 1000\n");
    const RetryPolicy p = RetryPolicy::fromConfig(cfg);
    EXPECT_EQ(p.maxAttempts, 5u);
    EXPECT_EQ(p.backoffBase, nanoseconds(100.0));
    EXPECT_EQ(p.backoffCap, nanoseconds(1000.0));
}

// ------------------------------------------------------------ injector

TEST(FaultInjector, SameSeedSameSequence)
{
    FaultPlan plan;
    plan.seed = 7;
    plan.site(FaultSite::SpmReserveFail).probability = 0.3;
    FaultInjector a(plan), b(plan);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.shouldInject(FaultSite::SpmReserveFail),
                  b.shouldInject(FaultSite::SpmReserveFail))
            << "diverged at evaluation " << i;
    EXPECT_GT(a.totalInjections(), 0u);
    EXPECT_EQ(a.totalInjections(), b.totalInjections());
}

TEST(FaultInjector, DifferentSeedDifferentSequence)
{
    FaultPlan plan;
    plan.site(FaultSite::SpmReserveFail).probability = 0.3;
    plan.seed = 1;
    FaultInjector a(plan);
    plan.seed = 2;
    FaultInjector b(plan);
    bool diverged = false;
    for (int i = 0; i < 1000 && !diverged; ++i)
        diverged = a.shouldInject(FaultSite::SpmReserveFail)
            != b.shouldInject(FaultSite::SpmReserveFail);
    EXPECT_TRUE(diverged);
}

TEST(FaultInjector, OneShotFiresExactlyOnce)
{
    FaultPlan plan;
    plan.site(FaultSite::EngineStall).oneShotAt = 5;
    FaultInjector inj(plan);
    for (int i = 1; i <= 20; ++i)
        EXPECT_EQ(inj.shouldInject(FaultSite::EngineStall), i == 5);
    EXPECT_EQ(inj.stats(FaultSite::EngineStall).evaluations, 20u);
    EXPECT_EQ(inj.stats(FaultSite::EngineStall).injections, 1u);
}

TEST(FaultInjector, MaxTriggersCapsInjections)
{
    FaultPlan plan;
    plan.site(FaultSite::DfmLinkDrop).probability = 1.0;
    plan.site(FaultSite::DfmLinkDrop).maxTriggers = 3;
    FaultInjector inj(plan);
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        fired += inj.shouldInject(FaultSite::DfmLinkDrop) ? 1 : 0;
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(inj.stats(FaultSite::DfmLinkDrop).injections, 3u);
}

TEST(FaultInjector, UnarmedSitesCostNoEvaluations)
{
    FaultPlan plan;
    plan.site(FaultSite::EngineStall).probability = 1.0;
    FaultInjector inj(plan);
    EXPECT_FALSE(inj.shouldInject(FaultSite::MmioDoorbellLoss));
    EXPECT_EQ(inj.stats(FaultSite::MmioDoorbellLoss).evaluations, 0u);
    // The armed site still fires.
    EXPECT_TRUE(inj.shouldInject(FaultSite::EngineStall));
}

// ------------------------------------------------------------ ECC site

class EccFaultTest : public ::testing::Test
{
  protected:
    EccFaultTest() : mem_(mib(1)), store_(mem_, kib(512), kib(256)) {}

    dram::PhysMem mem_;
    dram::EccStore store_;
};

TEST_F(EccFaultTest, InjectedCorrectableErrorIsScrubbed)
{
    FaultPlan plan;
    plan.site(FaultSite::EccCorrectable).oneShotAt = 1;
    FaultInjector inj(plan);
    store_.setFaultInjector(&inj);

    const Bytes data{1, 2, 3, 4, 5, 6, 7, 8};
    store_.write(64, data);
    EXPECT_EQ(store_.read(64, 8), data);
    EXPECT_EQ(store_.stats().correctedErrors, 1u);
    EXPECT_EQ(store_.stats().uncorrectableErrors, 0u);
    // The flip hit the in-DRAM copy only at check time; a re-read
    // with the one-shot spent is clean.
    store_.setFaultInjector(nullptr);
    EXPECT_EQ(store_.read(64, 8), data);
}

TEST_F(EccFaultTest, UncorrectableWithoutHandlerIsFatal)
{
    FaultPlan plan;
    plan.site(FaultSite::EccUncorrectable).oneShotAt = 1;
    FaultInjector inj(plan);
    store_.setFaultInjector(&inj);

    store_.write(0, Bytes(8, 0xAB));
    EXPECT_THROW(store_.read(0, 8), FatalError);
}

TEST_F(EccFaultTest, UncorrectableWithHandlerPoisonsWord)
{
    FaultPlan plan;
    plan.site(FaultSite::EccUncorrectable).oneShotAt = 1;
    FaultInjector inj(plan);
    store_.setFaultInjector(&inj);

    std::uint64_t poisoned_addr = ~0ull;
    store_.setPoisonHandler(
        [&](std::uint64_t addr) { poisoned_addr = addr; });

    store_.write(128, Bytes(16, 0xCD));
    store_.read(128, 16);  // corrupt data returned, no throw
    EXPECT_EQ(poisoned_addr, 128u);
    EXPECT_TRUE(store_.isPoisoned(128, 8));
    EXPECT_FALSE(store_.isPoisoned(136, 8));
    EXPECT_EQ(store_.poisonedWords(), 1u);
    EXPECT_EQ(store_.stats().uncorrectableErrors, 1u);

    store_.clearPoison(128);
    EXPECT_FALSE(store_.isPoisoned(128, 8));
}

// ------------------------------------------------------------ SPM site

TEST(SpmFault, InjectedReserveFailure)
{
    nma::ScratchPad spm(kib(64));
    FaultPlan plan;
    plan.site(FaultSite::SpmReserveFail).oneShotAt = 2;
    FaultInjector inj(plan);
    spm.setFaultInjector(&inj);

    EXPECT_TRUE(spm.reserve(1, nma::OffloadKind::Compress, 1024));
    EXPECT_FALSE(spm.reserve(2, nma::OffloadKind::Compress, 1024));
    EXPECT_TRUE(spm.reserve(3, nma::OffloadKind::Compress, 1024));
    EXPECT_EQ(inj.stats(FaultSite::SpmReserveFail).injections, 1u);
    EXPECT_EQ(spm.entryCount(), 2u);
}

TEST(SpmFault, WatermarkBackpressureOnlyAboveWatermark)
{
    nma::ScratchPad spm(kib(64));
    FaultPlan plan;
    plan.spmHighWatermark = 0.5;
    plan.site(FaultSite::SpmHighWatermark).probability = 1.0;
    FaultInjector inj(plan);
    spm.setFaultInjector(&inj);

    // Below the watermark the site never evaluates.
    EXPECT_TRUE(spm.reserve(1, nma::OffloadKind::Compress, kib(16)));
    EXPECT_TRUE(spm.reserve(2, nma::OffloadKind::Compress, kib(16)));
    EXPECT_EQ(inj.stats(FaultSite::SpmHighWatermark).evaluations, 0u);
    // At 50% occupancy every further reservation is pushed back.
    EXPECT_FALSE(spm.reserve(3, nma::OffloadKind::Compress, kib(1)));
    EXPECT_GT(inj.stats(FaultSite::SpmHighWatermark).injections, 0u);
    spm.release(1);
    spm.release(2);
    EXPECT_TRUE(spm.reserve(4, nma::OffloadKind::Compress, kib(1)));
}

// ------------------------------------------- backend-integrated sites

class BackendFaultTest : public ::testing::Test
{
  protected:
    void
    makeBackend(XfmSystemConfig cfg)
    {
        backend_.emplace("xfmsys", eq_, cfg);
        backend_->start();
    }

    Bytes
    pageContent(sfm::VirtPage p) const
    {
        return testutil::corpusPage(compress::CorpusKind::LogLines,
                                    p + 100);
    }

    SwapOutcome
    runSwapOut(sfm::VirtPage p)
    {
        SwapOutcome out;
        backend_->writePage(p, pageContent(p));
        backend_->swapOut(p, [&](const SwapOutcome &o) { out = o; });
        eq_.run(eq_.now() + seconds(0.2));
        return out;
    }

    SwapOutcome
    runSwapIn(sfm::VirtPage p, bool allow_offload = true)
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

TEST_F(BackendFaultTest, DoorbellLossIsRetriedTransparently)
{
    auto cfg = testutil::testXfmConfig(2);
    cfg.faults.site(FaultSite::MmioDoorbellLoss).oneShotAt = 1;
    makeBackend(cfg);

    const SwapOutcome out = runSwapOut(1);
    EXPECT_TRUE(out.success);
    EXPECT_FALSE(out.usedCpu);  // the retry rescued the offload
    EXPECT_EQ(out.retries, 1u);
    EXPECT_EQ(backend_->xfmStats().offloadRetries, 1u);
    EXPECT_EQ(backend_->driver(0).stats().doorbellLosses, 1u);
    EXPECT_EQ(backend_->driver(0).stats().retries, 1u);
    EXPECT_GT(backend_->driver(0).stats().backoffTicksAccrued, 0u);
}

TEST_F(BackendFaultTest, PersistentDoorbellLossFallsBackToCpu)
{
    auto cfg = testutil::testXfmConfig(2);
    cfg.faults.site(FaultSite::MmioDoorbellLoss).probability = 1.0;
    cfg.retry.maxAttempts = 2;
    makeBackend(cfg);
    obs::Tracer tracer;
    backend_->setTracer(&tracer);

    const SwapOutcome out = runSwapOut(1);
    EXPECT_TRUE(out.success);
    EXPECT_TRUE(out.usedCpu);  // retries exhausted -> CPU_Fallback
    EXPECT_GT(out.retries, 0u);
    EXPECT_EQ(backend_->pageState(1), PageState::Far);
    // Each lost shard is redone on its own; no page was refused by
    // the SQ/SPM pre-check.
    EXPECT_GT(backend_->xfmStats().doorbellShardRedos, 0u);
    EXPECT_EQ(backend_->xfmStats().fallbackCapacity, 0u);
    // Every redo is traced as a doorbell fallback of its own.
    std::uint64_t doorbell_points = 0;
    for (const obs::TraceEvent &e : tracer.events()) {
        if (e.stage != obs::Stage::Fallback)
            continue;
        EXPECT_EQ(e.arg, obs::fallbackDoorbell);
        ++doorbell_points;
    }
    EXPECT_EQ(doorbell_points, backend_->xfmStats().doorbellShardRedos);
    // Data still restores byte-identically through the CPU path.
    const SwapOutcome in = runSwapIn(1, false);
    EXPECT_TRUE(in.success);
    EXPECT_EQ(backend_->readPage(1), pageContent(1));
}

TEST_F(BackendFaultTest, ExhaustedDoorbellBatchRedoesShardsOnCpu)
{
    // Every SQ tail doorbell is lost and the watchdog is off: once
    // a batch's retries run out, the driver must resolve it at once,
    // or its swaps wait for descriptors the device never sees.
    auto cfg = testutil::testXfmConfig(2);
    cfg.device.sqDepth = 8;
    cfg.device.watchdogWindows = 0;
    cfg.faults.site(FaultSite::MmioDoorbellLoss).probability = 1.0;
    makeBackend(cfg);

    constexpr sfm::VirtPage pages = 8;
    std::vector<SwapOutcome> outs(pages);
    for (sfm::VirtPage p = 0; p < pages; ++p) {
        backend_->writePage(p, pageContent(p));
        backend_->swapOut(p, [&outs, p](const SwapOutcome &o) {
            outs[p] = o;
        });
    }
    eq_.run(eq_.now() + seconds(0.2));
    for (sfm::VirtPage p = 0; p < pages; ++p) {
        EXPECT_TRUE(outs[p].success) << "page " << p;
        EXPECT_TRUE(outs[p].usedCpu) << "page " << p;
        EXPECT_EQ(backend_->pageState(p), PageState::Far);
    }

    std::vector<SwapOutcome> ins(pages);
    for (sfm::VirtPage p = 0; p < pages; ++p)
        backend_->swapIn(p, true, [&ins, p](const SwapOutcome &o) {
            ins[p] = o;
        });
    eq_.run(eq_.now() + seconds(0.2));
    for (sfm::VirtPage p = 0; p < pages; ++p) {
        EXPECT_TRUE(ins[p].success) << "page " << p;
        EXPECT_TRUE(ins[p].usedCpu) << "page " << p;
        EXPECT_EQ(backend_->readPage(p), pageContent(p));
    }
    for (std::size_t d = 0; d < 2; ++d)
        EXPECT_EQ(backend_->driver(d).device().ring().sq().inFlight(),
                  0u);
}

TEST_F(BackendFaultTest, EngineStallDropsToCpuFallback)
{
    auto cfg = testutil::testXfmConfig(2);
    cfg.faults.site(FaultSite::EngineStall).oneShotAt = 1;
    makeBackend(cfg);

    const SwapOutcome out = runSwapOut(1);
    EXPECT_TRUE(out.success);
    EXPECT_TRUE(out.usedCpu);
    EXPECT_GT(backend_->xfmStats().fallbackDeadline, 0u);
    std::uint64_t stalls = 0;
    for (std::size_t d = 0; d < 2; ++d)
        stalls += backend_->driver(d).device().stats().engineStalls;
    EXPECT_EQ(stalls, 1u);
    const SwapOutcome in = runSwapIn(1, false);
    EXPECT_TRUE(in.success);
    EXPECT_EQ(backend_->readPage(1), pageContent(1));
}

TEST_F(BackendFaultTest, UncorrectableEccQuarantinesPage)
{
    auto cfg = testutil::testXfmConfig(2);
    cfg.faults.site(FaultSite::EccUncorrectable).oneShotAt = 1;
    makeBackend(cfg);

    ASSERT_TRUE(runSwapOut(3).success);
    ASSERT_EQ(backend_->pageState(3), PageState::Far);

    const SwapOutcome in = runSwapIn(3);
    EXPECT_FALSE(in.success);
    EXPECT_TRUE(backend_->isQuarantined(3));
    EXPECT_EQ(backend_->quarantinedPageCount(), 1u);
    EXPECT_EQ(backend_->xfmStats().eccQuarantines, 1u);
    // The page stays Far and every later swap-in fails fast.
    EXPECT_EQ(backend_->pageState(3), PageState::Far);
    EXPECT_FALSE(runSwapIn(3).success);
    EXPECT_EQ(backend_->quarantinedPageCount(), 1u);
}

TEST_F(BackendFaultTest, ZeroFaultPlanMatchesDisarmedStats)
{
    // A default plan must leave no trace: no injections, no retries,
    // no fault-driven fallbacks.
    makeBackend(testutil::testXfmConfig(2));
    ASSERT_TRUE(runSwapOut(5).success);
    ASSERT_TRUE(runSwapIn(5).success);
    EXPECT_FALSE(backend_->faultInjector().armed());
    EXPECT_EQ(backend_->faultInjector().totalInjections(), 0u);
    EXPECT_EQ(backend_->xfmStats().offloadRetries, 0u);
    EXPECT_EQ(backend_->xfmStats().eccQuarantines, 0u);
    for (std::size_t d = 0; d < 2; ++d) {
        EXPECT_EQ(backend_->driver(d).stats().doorbellLosses, 0u);
        EXPECT_EQ(backend_->driver(d).stats().retries, 0u);
    }
}

} // namespace
} // namespace fault
} // namespace xfm
