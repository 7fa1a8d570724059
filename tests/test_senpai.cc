/**
 * @file
 * Tests for the senpai-style pressure controller: the reclaim rate
 * must probe up under low fault pressure and back off when faults
 * spike, holding the system near the pressure target.
 */

#include <gtest/gtest.h>

#include <optional>

#include "common/random.hh"
#include "compress/corpus.hh"
#include "dram/phys_mem.hh"
#include "sfm/cpu_backend.hh"
#include "sfm/senpai.hh"
#include "sim/event_queue.hh"

namespace xfm
{
namespace sfm
{
namespace
{

class SenpaiTest : public ::testing::Test
{
  protected:
    static constexpr std::uint64_t numPages = 256;

    SenpaiTest() : mem_(mib(64))
    {
        CpuBackendConfig bcfg;
        bcfg.localBase = 0;
        bcfg.localPages = numPages;
        bcfg.sfmBase = mib(32);
        bcfg.sfmBytes = mib(8);
        backend_.emplace("backend", eq_, bcfg, mem_);
        for (VirtPage p = 0; p < numPages; ++p) {
            mem_.write(backend_->frameAddr(p),
                       compress::generateCorpus(
                           compress::CorpusKind::LogLines, p,
                           pageBytes));
        }
    }

    void
    makeController(SenpaiConfig cfg = {})
    {
        ctrl_.emplace("senpai", eq_, cfg, *backend_, numPages);
        ctrl_->start();
    }

    EventQueue eq_;
    dram::PhysMem mem_;
    std::optional<CpuSfmBackend> backend_;
    std::optional<SenpaiController> ctrl_;
};

TEST_F(SenpaiTest, ProbesUpWhenNoPressure)
{
    SenpaiConfig cfg;
    cfg.interval = milliseconds(10.0);
    cfg.initialReclaim = 4;
    makeController(cfg);
    // No accesses at all: zero faults, reclaim should grow.
    eq_.run(milliseconds(100.0));
    EXPECT_GT(ctrl_->reclaimBatch(), 4u);
    EXPECT_GT(ctrl_->stats().probes, 5u);
    EXPECT_GT(backend_->farPageCount(), 0u);
}

TEST_F(SenpaiTest, BacksOffUnderFaultStorm)
{
    SenpaiConfig cfg;
    cfg.interval = milliseconds(10.0);
    cfg.initialReclaim = 64;
    cfg.targetFaultsPerSec = 10.0;
    makeController(cfg);
    // Phase 1: reclaim everything it can.
    eq_.run(milliseconds(50.0));
    const auto batch_before = ctrl_->reclaimBatch();
    // Phase 2: hammer random pages -> fault storm -> backoff.
    Rng rng(3);
    for (int i = 1; i <= 400; ++i) {
        eq_.scheduleIn(microseconds(i * 100.0), [this, &rng] {
            ctrl_->recordAccess(rng.uniformInt(numPages));
        });
    }
    // The first interval over target halves the batch.
    eq_.run(eq_.now() + milliseconds(10.0));
    EXPECT_EQ(ctrl_->stats().backoffs, 1u);
    EXPECT_EQ(ctrl_->reclaimBatch(), batch_before / 2);
    eq_.run(eq_.now() + milliseconds(50.0));
    EXPECT_LT(ctrl_->reclaimBatch(), batch_before);
    EXPECT_GT(ctrl_->stats().backoffs, 0u);
    EXPECT_GT(ctrl_->stats().demandFaults, 0u);
}

TEST_F(SenpaiTest, ReclaimBatchStaysWithinBounds)
{
    SenpaiConfig cfg;
    cfg.interval = milliseconds(5.0);
    cfg.maxReclaim = 32;
    makeController(cfg);
    eq_.run(milliseconds(200.0));
    EXPECT_LE(ctrl_->reclaimBatch(), 32u);
}

TEST_F(SenpaiTest, ProbeClampsExactlyAtMaxReclaim)
{
    // A probe step larger than the headroom (10 + 4 > 12) must
    // saturate at maxReclaim, not overshoot it.
    SenpaiConfig cfg;
    cfg.interval = milliseconds(5.0);
    cfg.initialReclaim = 10;
    cfg.maxReclaim = 12;
    makeController(cfg);
    eq_.run(milliseconds(100.0));  // no faults: probes every tick
    EXPECT_EQ(ctrl_->reclaimBatch(), 12u);
    EXPECT_LE(ctrl_->stats().reclaimRate.max(), 12.0);
    EXPECT_GT(ctrl_->stats().probes, 10u);
}

TEST_F(SenpaiTest, FaultedPagesReturnLocal)
{
    SenpaiConfig cfg;
    cfg.interval = milliseconds(5.0);
    cfg.initialReclaim = 128;
    makeController(cfg);
    eq_.run(milliseconds(50.0));
    ASSERT_GT(backend_->farPageCount(), 0u);
    // Find a far page and fault it.
    VirtPage victim = numPages;
    for (VirtPage p = 0; p < numPages; ++p) {
        if (backend_->pageState(p) == PageState::Far) {
            victim = p;
            break;
        }
    }
    ASSERT_LT(victim, numPages);
    EXPECT_FALSE(ctrl_->recordAccess(victim));
    eq_.run(eq_.now() + microseconds(100.0));
    EXPECT_EQ(backend_->pageState(victim), PageState::Local);
    // Data intact after the round trip.
    EXPECT_EQ(mem_.read(backend_->frameAddr(victim), pageBytes),
              compress::generateCorpus(compress::CorpusKind::LogLines,
                                       victim, pageBytes));
}

TEST_F(SenpaiTest, StatsTrackIntervals)
{
    SenpaiConfig cfg;
    cfg.interval = milliseconds(10.0);
    makeController(cfg);
    eq_.run(milliseconds(105.0));
    EXPECT_GE(ctrl_->stats().intervals, 10u);
    EXPECT_GT(ctrl_->stats().reclaimRate.count(), 0u);
}

} // namespace
} // namespace sfm
} // namespace xfm
