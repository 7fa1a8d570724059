/**
 * @file
 * Tests for the multi-tenant far-memory service layer: registry
 * admission control and quota accounting, QoS arbiter fairness
 * (weighted round-robin, latency preemption, starvation freedom,
 * slot quotas), per-tenant quota enforcement against the shared XFM
 * backend, cross-tenant data integrity, and the fleet driver.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "common/logging.hh"
#include "compress/corpus.hh"
#include "dram/ddr_config.hh"
#include "service/service.hh"
#include "test_util.hh"
#include "workload/fleet.hh"

namespace xfm
{
namespace service
{
namespace
{

using sfm::PageState;
using sfm::SwapOutcome;
using sfm::VirtPage;

// ------------------------------------------------------------ registry

TEST(TenantRegistry, AdmitsUpToMaxTenants)
{
    TenantRegistry reg({2, 64});
    TenantConfig cfg;
    cfg.pages = 64;
    EXPECT_EQ(reg.add(cfg), 0u);
    EXPECT_EQ(reg.add(cfg), 1u);
    EXPECT_EQ(reg.add(cfg), invalidTenant);
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.rejectedAdmissions(), 1u);
}

TEST(TenantRegistry, RejectsShardOverflowAndEmptyTenants)
{
    TenantRegistry reg({4, 64});
    TenantConfig cfg;
    cfg.pages = 65;  // larger than the shard
    EXPECT_EQ(reg.add(cfg), invalidTenant);
    cfg.pages = 0;
    EXPECT_EQ(reg.add(cfg), invalidTenant);
    EXPECT_EQ(reg.rejectedAdmissions(), 2u);
}

TEST(TenantRegistry, ShardsArePagesPerShardApart)
{
    TenantRegistry reg({4, 128});
    TenantConfig cfg;
    cfg.pages = 100;
    const TenantId a = reg.add(cfg);
    const TenantId b = reg.add(cfg);
    EXPECT_EQ(reg.basePage(a), 0u);
    EXPECT_EQ(reg.basePage(b), 128u);
}

TEST(TenantRegistry, QuotaAccountingRoundTrips)
{
    TenantRegistry reg({2, 64});
    TenantConfig cfg;
    cfg.pages = 64;
    cfg.quota.maxFarPages = 2;
    cfg.quota.spmBytes = 100;
    const TenantId id = reg.add(cfg);

    EXPECT_TRUE(reg.underFarQuota(id));
    reg.noteFarPages(id, 2);
    EXPECT_FALSE(reg.underFarQuota(id));
    reg.noteFarPages(id, -1);
    EXPECT_TRUE(reg.underFarQuota(id));

    EXPECT_TRUE(reg.tryChargeSpm(id, 60));
    EXPECT_FALSE(reg.tryChargeSpm(id, 60));  // would exceed 100
    reg.releaseSpm(id, 60);
    EXPECT_TRUE(reg.tryChargeSpm(id, 100));
    EXPECT_EQ(reg.spmCharged(id), 100u);
}

// ------------------------------------------------------------- arbiter

class ArbiterTest : public ::testing::Test
{
  protected:
    static constexpr Tick window = microseconds(1.0);

    void
    makeArbiter(std::uint32_t slots = 4, std::uint32_t min_batch = 1)
    {
        QosArbiterConfig cfg;
        cfg.window = window;
        cfg.slotsPerWindow = slots;
        cfg.minBatchSlots = min_batch;
        arb_.emplace("arb", eq_, cfg);
    }

    /** Enqueue n jobs on lane id, each bumping its counter. */
    void
    flood(TenantId id, std::uint64_t *counter, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            arb_->enqueue(id, [counter] { ++*counter; });
    }

    EventQueue eq_;
    std::optional<QosArbiter> arb_;
};

TEST_F(ArbiterTest, WrrFollowsWeightsAndStarvesNobody)
{
    makeArbiter();
    arb_->addTenant(0, PriorityClass::Batch, 1, 4);
    arb_->addTenant(1, PriorityClass::Batch, 3, 4);
    std::uint64_t c0 = 0, c1 = 0;
    flood(0, &c0, 400);
    flood(1, &c1, 400);
    arb_->start();
    eq_.run(window * 120);

    // Both make progress; the 3:1 weights govern the split.
    EXPECT_GT(c0, 0u);
    EXPECT_GT(c1, 0u);
    const double ratio =
        static_cast<double>(c1) / static_cast<double>(c0);
    EXPECT_NEAR(ratio, 3.0, 0.3);
    EXPECT_EQ(arb_->laneStats(0).dispatched, c0);
    EXPECT_EQ(arb_->laneStats(1).dispatched, c1);
    EXPECT_GT(arb_->laneStats(0).waitNs.mean(), 0.0);
}

TEST_F(ArbiterTest, LatencyClassPreemptsButBatchKeepsFloor)
{
    makeArbiter(4, 1);
    arb_->addTenant(0, PriorityClass::LatencySensitive, 1, 4);
    arb_->addTenant(1, PriorityClass::Batch, 1, 4);
    std::uint64_t lat = 0, batch = 0;
    flood(0, &lat, 1000);
    flood(1, &batch, 1000);
    arb_->start();
    eq_.run(window * 100);

    // Latency work preempts batch for the unreserved slots...
    EXPECT_GT(arb_->stats().preemptions, 0u);
    EXPECT_GT(lat, batch);
    // ...but the reserved floor keeps batch starvation-free: one
    // slot of every window while both stay backlogged.
    const auto windows = arb_->stats().windows;
    EXPECT_GE(batch, windows - 1);
    EXPECT_NEAR(static_cast<double>(lat) / batch, 3.0, 0.3);
}

TEST_F(ArbiterTest, IdleLatencyLaneYieldsAllSlotsToBatch)
{
    makeArbiter(4, 1);
    arb_->addTenant(0, PriorityClass::LatencySensitive, 1, 4);
    arb_->addTenant(1, PriorityClass::Batch, 1, 4);
    std::uint64_t batch = 0;
    flood(1, &batch, 1000);
    arb_->start();
    eq_.run(window * 50);

    // Work-conserving: with no latency work queued batch takes all
    // four slots of every window.
    EXPECT_GE(batch, (arb_->stats().windows - 1) * 4);
    EXPECT_EQ(arb_->stats().preemptions, 0u);
}

TEST_F(ArbiterTest, PerTenantSlotQuotaThrottles)
{
    makeArbiter(4, 1);
    arb_->addTenant(0, PriorityClass::Batch, 1, 1);  // 1 slot/window
    std::uint64_t c = 0;
    flood(0, &c, 100);
    arb_->start();
    eq_.run(window * 20);

    const auto windows = arb_->stats().windows;
    EXPECT_LE(c, windows);
    EXPECT_GT(arb_->stats().throttledWindows, 0u);
    EXPECT_GT(arb_->queued(0), 0u);
}

// ------------------------------------------------- service end-to-end

class ServiceTest : public ::testing::Test
{
  protected:
    static constexpr std::uint64_t tenantPages = 16;

    ServiceConfig
    makeConfig()
    {
        return testutil::testServiceConfig();
    }

    void
    makeService(const ServiceConfig &cfg)
    {
        svc_.emplace("svc", eq_, cfg);
    }

    TenantId
    addTenant(TenantConfig cfg)
    {
        cfg.pages = tenantPages;
        return svc_->addTenant(cfg);
    }

    Bytes
    pageContent(TenantId id, VirtPage p) const
    {
        return testutil::corpusPage(compress::CorpusKind::Json,
                                    id * 1000 + p + 7);
    }

    void
    seedPages(TenantId id)
    {
        for (VirtPage p = 0; p < tenantPages; ++p)
            svc_->writePage(id, p, pageContent(id, p));
    }

    /** Swap out pages [0, n) of the tenant and run to completion. */
    void
    swapOutPages(TenantId id, VirtPage n)
    {
        for (VirtPage p = 0; p < n; ++p)
            svc_->tenantBackend(id).swapOut(p, SwapCallback{});
        eq_.run(eq_.now() + milliseconds(5.0));
    }

    using SwapCallback = sfm::SwapCallback;

    EventQueue eq_;
    std::optional<FarMemoryService> svc_;
};

TEST_F(ServiceTest, FarPageQuotaRejectsExcessSwapOuts)
{
    makeService(makeConfig());
    TenantConfig tcfg;
    tcfg.quota.maxFarPages = 4;
    const TenantId id = addTenant(tcfg);
    ASSERT_NE(id, invalidTenant);
    seedPages(id);
    svc_->start();

    swapOutPages(id, 12);

    const TenantStats &ts = svc_->registry().stats(id);
    EXPECT_EQ(svc_->registry().farPages(id), 4u);
    EXPECT_EQ(ts.swapOuts, 4u);
    EXPECT_EQ(ts.quotaRejects, 8u);
    EXPECT_EQ(svc_->tenantBackend(id).farPageCount(), 4u);
}

TEST_F(ServiceTest, SpmQuotaDegradesOffloadsToCpu)
{
    makeService(makeConfig());
    TenantConfig tcfg;
    tcfg.quota.spmBytes = 0;  // no staging allowance at all
    const TenantId id = addTenant(tcfg);
    ASSERT_NE(id, invalidTenant);
    seedPages(id);
    svc_->start();

    swapOutPages(id, 8);

    const TenantStats &ts = svc_->registry().stats(id);
    EXPECT_EQ(ts.degradedToCpu, 8u);
    EXPECT_EQ(ts.nmaOps, 0u);   // nothing reached the accelerator
    EXPECT_EQ(ts.cpuOps, 8u);   // everything still completed on CPU
    EXPECT_EQ(ts.swapOuts, 8u);
    EXPECT_EQ(svc_->registry().spmCharged(id), 0u);
}

TEST_F(ServiceTest, OffloadsUseNmaWithinQuota)
{
    makeService(makeConfig());
    const TenantId id = addTenant(TenantConfig{});
    ASSERT_NE(id, invalidTenant);
    seedPages(id);
    svc_->start();

    swapOutPages(id, 8);

    const TenantStats &ts = svc_->registry().stats(id);
    EXPECT_EQ(ts.swapOuts, 8u);
    EXPECT_GT(ts.nmaOps, 0u);
    EXPECT_EQ(ts.degradedToCpu, 0u);
    // In-flight SPM charges all released at completion.
    EXPECT_EQ(svc_->registry().spmCharged(id), 0u);
}

TEST_F(ServiceTest, BatchPartitionCapSparesLatencyOffloads)
{
    // Under a batch burst the SPM partition cap holds batch reads in
    // the device, while the uncapped latency partition keeps reaching
    // the NMA: a read at its cap must not block the window scheduler
    // for the others. No page loses a byte.
    auto cfg = makeConfig();
    cfg.batchSpmCapBytes = kib(8);
    makeService(cfg);
    TenantConfig b_cfg, l_cfg;
    b_cfg.name = "batch";
    b_cfg.cls = PriorityClass::Batch;
    l_cfg.name = "lat";
    l_cfg.cls = PriorityClass::LatencySensitive;
    const TenantId b = addTenant(b_cfg);
    const TenantId l = addTenant(l_cfg);
    ASSERT_NE(b, invalidTenant);
    ASSERT_NE(l, invalidTenant);
    seedPages(b);
    seedPages(l);
    svc_->start();

    const Tick start = eq_.now();
    Tick lat_done = 0;
    for (VirtPage p = 0; p < tenantPages; ++p) {
        svc_->tenantBackend(b).swapOut(p, SwapCallback{});
        if (p < 4)
            svc_->tenantBackend(l).swapOut(p, [&](const SwapOutcome &o) {
                lat_done = std::max(lat_done, o.completed);
            });
    }
    // Longer than one 32 ms refresh interval: a read held back by
    // the cap would wait out its offload deadline within it.
    eq_.run(eq_.now() + milliseconds(40.0));

    const TenantStats &bs = svc_->registry().stats(b);
    const TenantStats &ls = svc_->registry().stats(l);
    EXPECT_EQ(bs.swapOuts, tenantPages);
    EXPECT_EQ(ls.swapOuts, 4u);
    EXPECT_GT(ls.nmaOps, 0u);
    // Capped batch reads must not stall the latency class: its
    // swap-outs finish far inside one 32 ms refresh interval.
    EXPECT_LE(lat_done - start, milliseconds(2.0));

    for (VirtPage p = 0; p < tenantPages; ++p) {
        svc_->tenantBackend(b).swapIn(p, false, SwapCallback{});
        if (p < 4)
            svc_->tenantBackend(l).swapIn(p, false, SwapCallback{});
    }
    eq_.run(eq_.now() + milliseconds(5.0));
    for (VirtPage p = 0; p < tenantPages; ++p) {
        EXPECT_EQ(svc_->readPage(b, p), pageContent(b, p)) << p;
        EXPECT_EQ(svc_->readPage(l, p), pageContent(l, p)) << p;
    }
    EXPECT_EQ(svc_->registry().farPages(b), 0u);
    EXPECT_EQ(svc_->registry().farPages(l), 0u);
}

TEST_F(ServiceTest, BatchCapBelowOneShardIsFatal)
{
    // 4 KiB over 4 DIMMs leaves 1 KiB per DIMM, below one 1 KiB
    // shard's 1040 B worst-case reservation: no batch offload could
    // ever stage. Exactly one reservation per DIMM is accepted.
    auto cfg = makeConfig();
    cfg.batchSpmCapBytes = kib(4);
    EXPECT_THROW(makeService(cfg), FatalError);
    cfg.batchSpmCapBytes = 4 * 1040;
    EXPECT_NO_THROW(makeService(cfg));
}

TEST_F(ServiceTest, TenantsKeepDataIntactAcrossSharedBackend)
{
    makeService(makeConfig());
    TenantConfig a_cfg, b_cfg;
    a_cfg.name = "a";
    b_cfg.name = "b";
    b_cfg.cls = PriorityClass::Batch;
    const TenantId a = addTenant(a_cfg);
    const TenantId b = addTenant(b_cfg);
    ASSERT_NE(a, invalidTenant);
    ASSERT_NE(b, invalidTenant);
    seedPages(a);
    seedPages(b);
    svc_->start();

    // Interleave both tenants' demotions of the same shard-local
    // page numbers through the one shared backend.
    for (VirtPage p = 0; p < 4; ++p) {
        svc_->tenantBackend(a).swapOut(p, SwapCallback{});
        svc_->tenantBackend(b).swapOut(p, SwapCallback{});
    }
    eq_.run(eq_.now() + milliseconds(5.0));
    for (VirtPage p = 0; p < 4; ++p) {
        EXPECT_EQ(svc_->tenantBackend(a).pageState(p),
                  PageState::Far);
        EXPECT_EQ(svc_->tenantBackend(b).pageState(p),
                  PageState::Far);
    }

    // Promote and verify every page went back to its owner intact.
    for (VirtPage p = 0; p < 4; ++p) {
        svc_->tenantBackend(a).swapIn(p, false, SwapCallback{});
        svc_->tenantBackend(b).swapIn(p, false, SwapCallback{});
    }
    eq_.run(eq_.now() + milliseconds(5.0));
    for (VirtPage p = 0; p < 4; ++p) {
        EXPECT_EQ(svc_->readPage(a, p), pageContent(a, p));
        EXPECT_EQ(svc_->readPage(b, p), pageContent(b, p));
    }
    EXPECT_EQ(svc_->registry().farPages(a), 0u);
    EXPECT_EQ(svc_->registry().farPages(b), 0u);
    EXPECT_EQ(svc_->registry().storedBytes(a), 0u);
    EXPECT_EQ(svc_->registry().storedBytes(b), 0u);
}

TEST_F(ServiceTest, AccessCountsHitsAndFaults)
{
    makeService(makeConfig());
    const TenantId id = addTenant(TenantConfig{});
    ASSERT_NE(id, invalidTenant);
    seedPages(id);
    svc_->start();

    EXPECT_TRUE(svc_->access(id, 0));  // local
    swapOutPages(id, 1);
    EXPECT_FALSE(svc_->access(id, 0));  // demand fault
    eq_.run(eq_.now() + milliseconds(1.0));

    const TenantStats &ts = svc_->registry().stats(id);
    EXPECT_EQ(ts.accesses, 2u);
    EXPECT_EQ(ts.localHits, 1u);
    EXPECT_EQ(ts.demandFaults, 1u);
    EXPECT_GT(ts.faultLatencyNs.total(), 0u);
    EXPECT_GT(ts.faultLatencyNs.percentile(0.99), 0.0);
}

TEST_F(ServiceTest, FaultPlanSurfacesInPerTenantStats)
{
    // Transient doorbell losses are retried by the driver; engine
    // stalls degrade the op to the CPU path. Both must be visible
    // per tenant, and no fault may cost a page its contents.
    auto cfg = makeConfig();
    cfg.system.faults.seed = 21;
    cfg.system.faults.site(fault::FaultSite::MmioDoorbellLoss)
        .probability = 0.35;
    cfg.system.faults.site(fault::FaultSite::EngineStall)
        .probability = 0.30;
    makeService(cfg);
    const TenantId id = addTenant(TenantConfig{});
    ASSERT_NE(id, invalidTenant);
    seedPages(id);
    svc_->start();

    swapOutPages(id, tenantPages);
    for (VirtPage p = 0; p < tenantPages; ++p)
        svc_->tenantBackend(id).swapIn(p, true, SwapCallback{});
    eq_.run(eq_.now() + milliseconds(5.0));

    const TenantStats &ts = svc_->registry().stats(id);
    EXPECT_EQ(ts.swapOuts, tenantPages);
    EXPECT_EQ(ts.swapIns, tenantPages);
    EXPECT_EQ(ts.faultedOps, 0u);  // degraded, never failed
    EXPECT_GT(ts.offloadRetries, 0u);
    EXPECT_GT(ts.nmaFallbacks, 0u);
    for (VirtPage p = 0; p < tenantPages; ++p)
        EXPECT_EQ(svc_->readPage(id, p), pageContent(id, p));

    // The counters reach the unified registry: per-tenant metrics
    // and the injector's per-site metrics share one rendered table.
    const std::string out = svc_->metrics().renderText();
    EXPECT_NE(out.find("offloadRetries"), std::string::npos);
    EXPECT_NE(out.find("nmaFallbacks"), std::string::npos);
    EXPECT_NE(out.find("faultedOps"), std::string::npos);
    EXPECT_NE(out.find("mmio_doorbell.injections"),
              std::string::npos);
    EXPECT_GT(svc_->faultInjector().totalInjections(), 0u);
}

// --------------------------------------------------------------- fleet

TEST(Fleet, HeterogeneousMixShapes)
{
    workload::FleetConfig cfg;
    cfg.numTenants = 8;
    const auto fleet = workload::heterogeneousFleet(cfg);
    ASSERT_EQ(fleet.size(), 8u);
    std::size_t latency = 0, senpai = 0;
    for (const auto &spec : fleet) {
        if (spec.cfg.cls == PriorityClass::LatencySensitive)
            ++latency;
        if (spec.cfg.policy == ControlPolicy::Senpai)
            ++senpai;
        EXPECT_GE(spec.cfg.weight, 1u);
        EXPECT_LE(spec.cfg.weight, 3u);
    }
    EXPECT_EQ(latency, 2u);  // every fourth tenant
    EXPECT_GT(senpai, 0u);   // mixed control policies
}

TEST(Fleet, DriverRunsAllTenants)
{
    EventQueue eq;
    ServiceConfig scfg;
    scfg.registry.maxTenants = 4;
    scfg.registry.pagesPerShard = 64;
    scfg.system.numDimms = 2;
    scfg.system.sfmBase = gib(1);
    scfg.system.sfmBytes = mib(4);
    scfg.system.device.spmBytes = kib(512);
    scfg.batchSpmCapBytes = kib(256);
    FarMemoryService svc("svc", eq, scfg);

    workload::FleetConfig fcfg;
    fcfg.numTenants = 4;
    fcfg.pagesPerTenant = 32;
    fcfg.accessesPerSecond = 200000.0;
    workload::FleetDriver fleet("fleet", eq, svc, fcfg);
    ASSERT_EQ(fleet.numTenants(), 4u);

    svc.start();
    fleet.start();
    eq.run(milliseconds(10.0));

    EXPECT_GT(fleet.totalAccesses(), 0u);
    for (std::size_t i = 0; i < fleet.numTenants(); ++i) {
        const auto &ts = svc.registry().stats(fleet.tenantId(i));
        EXPECT_GT(ts.accesses, 0u) << "tenant " << i;
    }
    EXPECT_GT(svc.arbiter().stats().windows, 0u);
    EXPECT_GT(svc.arbiter().stats().dispatched, 0u);
}

TEST(Fleet, ConfigFaultKeysArmTheSharedBackend)
{
    // The fault.* keys of a service config arm the shared XFM
    // backend, not only the tier's spill link: a fleet run under
    // them must see injections in the backend's own injector.
    const Config keys = Config::parseString(
        "fault.seed = 3\n"
        "fault.engine_stall.p = 0.5\n"
        "fault.mmio_doorbell.p = 0.5\n");
    const ServiceConfig scfg =
        ServiceConfig::fromConfig(keys, testutil::testServiceConfig());
    EventQueue eq;
    FarMemoryService svc("svc", eq, scfg);

    workload::FleetConfig fcfg;
    fcfg.numTenants = 4;
    fcfg.pagesPerTenant = 32;
    fcfg.accessesPerSecond = 200000.0;
    workload::FleetDriver fleet("fleet", eq, svc, fcfg);
    svc.start();
    fleet.start();
    eq.run(milliseconds(5.0));

    EXPECT_GT(svc.faultInjector().totalInjections(), 0u);
    EXPECT_GT(svc.faultInjector().stats(fault::FaultSite::EngineStall)
                  .injections,
              0u);
}

} // namespace
} // namespace service
} // namespace xfm
