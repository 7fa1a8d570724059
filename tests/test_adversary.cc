/**
 * @file
 * Adversarial-refresh tests: the RFM-starver attack degrades a
 * victim tenant's demand-fault tail with the defense off, the QoS
 * defense restores it (and throttles only the attacker), the
 * refresh-timing covert channel carries bits with the defense off
 * and collapses with it on, and every scenario is deterministic —
 * byte-identical across repeats and worker counts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include <algorithm>
#include <optional>
#include <vector>

#include "compress/corpus.hh"
#include "dram/ddr_config.hh"
#include "service/service.hh"
#include "test_util.hh"
#include "workload/adversary.hh"

namespace xfm
{
namespace workload
{
namespace
{

using service::FarMemoryService;
using service::PriorityClass;
using service::ServiceConfig;
using service::TenantConfig;
using service::TenantId;
using service::invalidTenant;
using sfm::PageState;
using sfm::VirtPage;

constexpr std::uint64_t victimPages = 32;
constexpr std::uint64_t farPages = 16;  ///< victim pages kept far

double
p99(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[(v.size() - 1) * 99 / 100];
}

/** Service config with REFpb + RFM realism armed on the DIMMs. */
ServiceConfig
adversarialConfig(bool defense)
{
    ServiceConfig cfg = testutil::testServiceConfig();
    // A fast host CPU: the demand-fault baseline is then dominated
    // by the swap itself, so refresh/RFM stalls — the quantity under
    // attack — show up undiluted in the tail.
    cfg.system.cpuFreqGHz = 10.0;
    auto &dev = cfg.system.dimmMem.rank.device;
    dev.refreshMode = dram::RefreshMode::RefPb;
    dev.rfmRaaimt = 32;
    if (defense) {
        cfg.arbiter.reservedSlotFrac = 0.25;
        cfg.arbiter.slotDebt = true;
        cfg.arbiter.abuseEnabled = true;
        cfg.arbiter.abuseWindows = 16;
        cfg.arbiter.abuseConsecutive = 2;
        // Longer than any test run: one throttle decision sticks.
        cfg.arbiter.abuseCooldown = milliseconds(10.0);
    }
    return cfg;
}

struct AttackResult
{
    std::vector<double> faultNs;  ///< victim demand-fault latencies
    double victimP99 = 0.0;
    bool attackerThrottled = false;
    bool victimThrottled = false;
    std::uint64_t attackerFlags = 0;
    std::uint64_t victimFlags = 0;
    std::uint64_t bystanderFlags = 0;
    std::uint64_t rfmCommands = 0;
    std::uint64_t suppressedBursts = 0;
    std::uint64_t abuseRejects = 0;
    std::string statsJson;
};

/**
 * One starver scenario: a latency victim faulting against its far
 * pages, two idle bystanders, and an RFM-starver tenant that may or
 * may not hammer, with @p workers shard-compression threads.
 */
AttackResult
runStarver(bool attack, bool defense, std::size_t workers = 1)
{
    EventQueue eq;

    ServiceConfig cfg = adversarialConfig(defense);
    cfg.system.workers = workers;
    FarMemoryService svc("svc", eq, cfg);

    TenantConfig vcfg;
    vcfg.name = "victim";
    vcfg.cls = PriorityClass::LatencySensitive;
    vcfg.pages = victimPages;
    const TenantId victim = svc.addTenant(vcfg);
    EXPECT_NE(victim, invalidTenant);

    TenantConfig bcfg;
    bcfg.name = "bystander0";
    bcfg.pages = 8;
    const TenantId by0 = svc.addTenant(bcfg);
    bcfg.name = "bystander1";
    const TenantId by1 = svc.addTenant(bcfg);
    EXPECT_NE(by1, invalidTenant);

    // The starver model admits the fourth tenant either way so the
    // lane layout (and the z-score population) is identical between
    // the solo baseline and the attacked runs.
    RfmStarverConfig acfg;
    acfg.pages = 16;
    acfg.burstsPerSecond = 4.0e6;
    acfg.activationsPerBurst = 128;
    acfg.targetDimm = 0;
    acfg.sweepBanks = true;
    TenantConfig atcfg;
    atcfg.name = "starver";
    RfmStarverModel starver("starver", eq, svc, acfg, atcfg);

    for (VirtPage p = 0; p < victimPages; ++p)
        svc.writePage(victim, p,
                      testutil::corpusPage(compress::CorpusKind::Json,
                                           p + 7));
    svc.start();
    if (attack)
        starver.start();

    // Warm up: push the victim's cold half far on the CPU path and
    // give the abuse detector time to converge before measuring.
    for (VirtPage p = 0; p < farPages; ++p)
        svc.tenantBackend(victim).swapOut(p, false,
                                          sfm::SwapCallback{});
    eq.run(eq.now() + microseconds(200.0));

    // Measurement: paced CPU-path demand faults (the SLO metric);
    // each page goes straight back out so the next round faults it
    // again. RAAMMT saturation on the attacked DIMM stalls the
    // fault's compressed-slot read until the bank's next pb slot
    // drains the RAA counter.
    AttackResult r;
    for (int i = 0; i < 256; ++i) {
        eq.run(eq.now() + microseconds(8.0));
        const VirtPage p = i % farPages;
        if (svc.tenantBackend(victim).pageState(p)
            != PageState::Far)
            continue;
        const Tick t0 = eq.now();
        svc.tenantBackend(victim).swapIn(
            p, false, [&r, &svc, victim, p, t0](
                         const sfm::SwapOutcome &o) {
                if (o.success)
                    r.faultNs.push_back(
                        ticksToNs(o.completed - t0));
                svc.tenantBackend(victim).swapOut(
                    p, false, sfm::SwapCallback{});
            });
    }
    eq.run(eq.now() + microseconds(50.0));

    r.victimP99 = p99(r.faultNs);
    r.attackerThrottled =
        svc.arbiter().abuseThrottled(starver.tenantId());
    r.victimThrottled = svc.arbiter().abuseThrottled(victim);
    r.attackerFlags =
        svc.arbiter().laneStats(starver.tenantId()).abuseFlags;
    r.victimFlags = svc.arbiter().laneStats(victim).abuseFlags;
    r.bystanderFlags = svc.arbiter().laneStats(by0).abuseFlags
        + svc.arbiter().laneStats(by1).abuseFlags;
    r.rfmCommands = svc.backend().refresh().refreshStats()
        .rfmCommands;
    r.suppressedBursts = starver.stats().suppressedBursts;
    // A throttled tenant also loses its far-memory service: its own
    // swap-outs come back Rejected{AbuseThrottle}.
    if (attack) {
        svc.writePage(starver.tenantId(), 0,
                      testutil::corpusPage(
                          compress::CorpusKind::EnglishText, 99));
        svc.tenantBackend(starver.tenantId())
            .swapOut(0, sfm::SwapCallback{});
        eq.run(eq.now() + microseconds(10.0));
    }
    r.abuseRejects =
        svc.registry().stats(starver.tenantId()).abuseRejects;
    r.statsJson = svc.metrics().toJson();
    return r;
}

TEST(AdversaryStarver, AttackDegradesVictimTailWithoutDefense)
{
    const AttackResult solo = runStarver(false, false);
    const AttackResult hit = runStarver(true, false);
    ASSERT_GE(solo.faultNs.size(), 100u);
    ASSERT_GE(hit.faultNs.size(), 100u);
    EXPECT_GT(solo.victimP99, 0.0);
    // The attack forces RFMs and at least doubles the victim's p99
    // demand-fault latency (acceptance criterion).
    EXPECT_GT(hit.rfmCommands, 0u);
    EXPECT_GE(hit.victimP99, 2.0 * solo.victimP99)
        << "solo p99 " << solo.victimP99 << "ns, attacked p99 "
        << hit.victimP99 << "ns";
    // Without the detector nothing is ever flagged or suppressed.
    EXPECT_FALSE(hit.attackerThrottled);
    EXPECT_EQ(hit.attackerFlags, 0u);
    EXPECT_EQ(hit.suppressedBursts, 0u);
}

TEST(AdversaryStarver, DefenseRestoresVictimAndThrottlesAttacker)
{
    const AttackResult solo = runStarver(false, false);
    const AttackResult defended = runStarver(true, true);
    ASSERT_GE(defended.faultNs.size(), 100u);
    // The defense throttles the attacker...
    EXPECT_TRUE(defended.attackerThrottled);
    EXPECT_GE(defended.attackerFlags, 2u);
    EXPECT_GT(defended.suppressedBursts, 0u);
    EXPECT_GT(defended.abuseRejects, 0u);
    // ...and ONLY the attacker.
    EXPECT_FALSE(defended.victimThrottled);
    EXPECT_EQ(defended.victimFlags, 0u);
    EXPECT_EQ(defended.bystanderFlags, 0u);
    // Victim tail recovers to within 25% of the solo baseline
    // (acceptance criterion).
    EXPECT_LE(defended.victimP99, 1.25 * solo.victimP99)
        << "solo p99 " << solo.victimP99 << "ns, defended p99 "
        << defended.victimP99 << "ns";
}

TEST(AdversaryStarver, ScenariosAreDeterministic)
{
    // Same scenario, same seed => byte-identical sampled latencies
    // and metric exports, attack and defense alike.
    const AttackResult a1 = runStarver(true, false);
    const AttackResult a2 = runStarver(true, false);
    EXPECT_EQ(a1.faultNs, a2.faultNs);
    EXPECT_EQ(a1.statsJson, a2.statsJson);
    const AttackResult d1 = runStarver(true, true);
    const AttackResult d2 = runStarver(true, true);
    EXPECT_EQ(d1.faultNs, d2.faultNs);
    EXPECT_EQ(d1.statsJson, d2.statsJson);
}

TEST(AdversaryStarver, WorkerMatrixIsByteIdentical)
{
    // The worker count is a host-runtime knob, never a simulation
    // input, even under adversarial refresh pressure.
    const AttackResult golden = runStarver(true, true, 1);
    for (std::size_t workers : {2, 8}) {
        const AttackResult got = runStarver(true, true, workers);
        EXPECT_EQ(got.faultNs, golden.faultNs) << "workers=" << workers;
        EXPECT_EQ(got.statsJson, golden.statsJson)
            << "workers=" << workers;
    }
}

// ------------------------------------------------------ covert channel

struct CovertResult
{
    double ber = 0.0;
    double capacityBps = 0.0;
    std::uint32_t bitsDecoded = 0;
    bool senderFlagged = false;
    bool receiverFlagged = false;
};

CovertResult
runCovert(bool defense)
{
    EventQueue eq;
    // All-bank REF mode: one RFM steals the whole window's slot
    // budget, the strongest (and simplest) modulation.
    ServiceConfig cfg = testutil::testServiceConfig();
    cfg.system.dimmMem.rank.device.rfmRaaimt = 32;
    if (defense) {
        cfg.arbiter.reservedSlotFrac = 0.25;
        cfg.arbiter.slotDebt = true;
        cfg.arbiter.abuseEnabled = true;
        cfg.arbiter.abuseWindows = 16;
        cfg.arbiter.abuseCooldown = milliseconds(10.0);
    }
    FarMemoryService svc("svc", eq, cfg);

    CovertConfig ccfg;
    ccfg.pages = 16;
    ccfg.bitPeriod = microseconds(50.0);
    ccfg.bits = 32;
    ccfg.burstsPerBit = 8;
    ccfg.activationsPerBurst = 64;
    ccfg.probesPerBit = 4;
    ccfg.scheduleSeed = 0xc0ffee;

    TenantConfig rxcfg;
    rxcfg.name = "rx";
    CovertReceiverModel rx("rx", eq, svc, ccfg, rxcfg);
    TenantConfig txcfg;
    txcfg.name = "tx";
    CovertSenderModel tx("tx", eq, svc, ccfg, txcfg);
    TenantConfig bcfg;
    bcfg.name = "bystander0";
    bcfg.pages = 8;
    svc.addTenant(bcfg);
    bcfg.name = "bystander1";
    svc.addTenant(bcfg);

    svc.start();
    rx.start();
    tx.start();
    eq.run((ccfg.bits + 3) * ccfg.bitPeriod);

    CovertResult r;
    if (std::getenv("ADV_DEBUG")) {
        const auto &lat = rx.bitLatencies();
        for (std::size_t k = 0; k < lat.size(); ++k)
            std::printf("bit %2zu tx=%d lat=%.1f\n", k,
                        int(covertBit(ccfg.scheduleSeed, k)), lat[k]);
        std::printf("probes=%llu served=%llu\n",
                    (unsigned long long)rx.stats().probes,
                    (unsigned long long)rx.stats().probesServed);
    }
    EXPECT_TRUE(rx.done());
    r.ber = rx.stats().bitErrorRate();
    r.capacityBps = rx.channelCapacityBps();
    r.bitsDecoded = rx.stats().bitsDecoded;
    r.senderFlagged =
        svc.arbiter().laneStats(tx.tenantId()).abuseFlags > 0;
    r.receiverFlagged =
        svc.arbiter().laneStats(rx.tenantId()).abuseFlags > 0;
    return r;
}

TEST(AdversaryCovert, ChannelCarriesBitsWithoutDefense)
{
    const CovertResult open = runCovert(false);
    EXPECT_EQ(open.bitsDecoded, 32u);
    EXPECT_LE(open.ber, 0.2) << "BER " << open.ber;
    EXPECT_GT(open.capacityBps, 0.0);
}

TEST(AdversaryCovert, DefenseCollapsesChannelCapacity)
{
    const CovertResult open = runCovert(false);
    const CovertResult shut = runCovert(true);
    EXPECT_EQ(shut.bitsDecoded, 32u);
    // The slot-debt ledger decouples the receiver's lane from the
    // sender's RFM pressure: the modulation no longer reaches the
    // probe latencies and capacity collapses.
    EXPECT_GE(shut.ber, 0.3) << "BER " << shut.ber;
    EXPECT_LT(shut.capacityBps, 0.5 * open.capacityBps);
    // The detector pins the sender, never the receiver.
    EXPECT_TRUE(shut.senderFlagged);
    EXPECT_FALSE(shut.receiverFlagged);
}

TEST(AdversaryCovert, CovertRunsAreDeterministic)
{
    const CovertResult a = runCovert(false);
    const CovertResult b = runCovert(false);
    EXPECT_EQ(a.ber, b.ber);
    EXPECT_EQ(a.capacityBps, b.capacityBps);
}

} // namespace
} // namespace workload
} // namespace xfm
