/**
 * @file
 * adv_interference: victim tail latency under an RFM-starver tenant.
 *
 * One point per (attacker intensity, defense) pair plus a solo
 * baseline: a latency-sensitive victim services paced demand faults
 * against its far pages while an RFM-starver tenant hammers rows on
 * the victim's DIMM at the swept burst rate. With the QoS defense
 * off, forced RFMs saturate the per-bank RAA counters and the
 * victim's fault tail inflates; with the slot-debt ledger and abuse
 * detector on, the starver is throttled and the tail recovers.
 *
 * After each point the harness drains, promotes every victim far
 * page and audits the restored bytes against the generator corpus;
 * a FNV-1a fingerprint of all restored pages is compared across
 * configs. The exit code gates ONLY on this data audit — tail
 * numbers are measurements, reported in BENCH_ADV.json (schema
 * xfm.adv_sweep.v1) for CI to archive, never a pass/fail criterion.
 *
 * Usage: adv_interference [--smoke] [--out FILE]
 *   --smoke   fewer fault rounds per point (CI smoke test)
 *   --out     JSON destination (default BENCH_ADV.json)
 */

#include <cstdio>
#include <cstring>

#include <algorithm>
#include <string>
#include <vector>

#include "compress/corpus.hh"
#include "dram/ddr_config.hh"
#include "service/service.hh"
#include "workload/adversary.hh"

using namespace xfm;

namespace
{

constexpr std::uint64_t victimPages = 32;
constexpr std::uint64_t farPages = 16;

Bytes
pageFor(sfm::VirtPage p)
{
    return compress::generateCorpus(compress::CorpusKind::Json, p + 7,
                                    pageBytes);
}

std::uint64_t
fnv1a(std::uint64_t h, ByteSpan data)
{
    for (const std::uint8_t b : data) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

double
percentile(std::vector<double> v, int pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[(v.size() - 1) * pct / 100];
}

struct Point
{
    std::string label;
    bool attack = false;
    bool defense = false;
    double burstsPerSecond = 0.0;
    std::uint64_t samples = 0;
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    std::uint64_t rfmCommands = 0;
    std::uint64_t rfmStolenSlots = 0;
    bool attackerThrottled = false;
    std::uint64_t attackerFlags = 0;
    std::uint64_t suppressedBursts = 0;
    std::uint64_t auditHash = 0;
    bool auditOk = false;
};

/** The same 4-tenant REFpb/RFM service the adversary tests pin. */
service::ServiceConfig
advConfig(bool defense)
{
    service::ServiceConfig cfg;
    cfg.registry.maxTenants = 4;
    cfg.registry.pagesPerShard = 64;
    cfg.system.numDimms = 4;
    cfg.system.sfmBase = gib(1);
    cfg.system.sfmBytes = mib(8);
    cfg.system.device.spmBytes = mib(1);
    // A fast host CPU keeps the demand-fault baseline dominated by
    // the swap itself, so RFM stalls show undiluted in the tail.
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
        cfg.arbiter.abuseCooldown = milliseconds(10.0);
    }
    return cfg;
}

Point
runPoint(std::string label, double bursts_per_second, bool defense,
         int rounds)
{
    Point r;
    r.label = std::move(label);
    r.attack = bursts_per_second > 0.0;
    r.defense = defense;
    r.burstsPerSecond = bursts_per_second;

    EventQueue eq;
    service::ServiceConfig cfg = advConfig(defense);
    service::FarMemoryService svc("svc", eq, cfg);

    service::TenantConfig vcfg;
    vcfg.name = "victim";
    vcfg.cls = service::PriorityClass::LatencySensitive;
    vcfg.pages = victimPages;
    const service::TenantId victim = svc.addTenant(vcfg);

    service::TenantConfig bcfg;
    bcfg.name = "bystander0";
    bcfg.pages = 8;
    svc.addTenant(bcfg);
    bcfg.name = "bystander1";
    svc.addTenant(bcfg);

    // Always admit the starver tenant so the lane layout (and the
    // z-score population) is identical across the whole sweep; only
    // the hammer rate differs.
    workload::RfmStarverConfig acfg;
    acfg.pages = 16;
    acfg.burstsPerSecond = r.attack ? bursts_per_second : 1.0;
    acfg.activationsPerBurst = 128;
    acfg.targetDimm = 0;
    acfg.sweepBanks = true;
    service::TenantConfig atcfg;
    atcfg.name = "starver";
    workload::RfmStarverModel starver("starver", eq, svc, acfg,
                                      atcfg);

    for (sfm::VirtPage p = 0; p < victimPages; ++p)
        svc.writePage(victim, p, pageFor(p));
    svc.start();
    if (r.attack)
        starver.start();

    for (sfm::VirtPage p = 0; p < farPages; ++p)
        svc.tenantBackend(victim).swapOut(p, false,
                                          sfm::SwapCallback{});
    eq.run(eq.now() + microseconds(200.0));

    // Paced CPU-path demand faults, each page pushed straight back
    // out so the next round faults it again.
    std::vector<double> fault_ns;
    for (int i = 0; i < rounds; ++i) {
        eq.run(eq.now() + microseconds(8.0));
        const sfm::VirtPage p = i % farPages;
        if (svc.tenantBackend(victim).pageState(p)
            != sfm::PageState::Far)
            continue;
        const Tick t0 = eq.now();
        svc.tenantBackend(victim).swapIn(
            p, false, [&fault_ns, &svc, victim, p, t0](
                         const sfm::SwapOutcome &o) {
                if (o.success)
                    fault_ns.push_back(ticksToNs(o.completed - t0));
                svc.tenantBackend(victim).swapOut(
                    p, false, sfm::SwapCallback{});
            });
    }
    eq.run(eq.now() + microseconds(50.0));

    r.samples = fault_ns.size();
    r.p50Ns = percentile(fault_ns, 50);
    r.p99Ns = percentile(fault_ns, 99);
    const dram::RefreshStats &rs =
        svc.backend().refresh().refreshStats();
    r.rfmCommands = rs.rfmCommands;
    r.rfmStolenSlots = rs.rfmStolenSlots;
    r.attackerThrottled =
        svc.arbiter().abuseThrottled(starver.tenantId());
    r.attackerFlags =
        svc.arbiter().laneStats(starver.tenantId()).abuseFlags;
    r.suppressedBursts = starver.stats().suppressedBursts;

    // Promote everything and audit: however hard the attacker hit
    // (or however hard the defense throttled), no victim byte moves.
    for (sfm::VirtPage p = 0; p < victimPages; ++p) {
        if (svc.tenantBackend(victim).pageState(p)
            == sfm::PageState::Far)
            svc.tenantBackend(victim).swapIn(
                p, false, [](const sfm::SwapOutcome &) {});
    }
    eq.run(eq.now() + milliseconds(5.0));
    r.auditOk = true;
    r.auditHash = 14695981039346656037ull;
    for (sfm::VirtPage p = 0; p < victimPages; ++p) {
        const Bytes restored = svc.readPage(victim, p);
        r.auditOk &= restored == pageFor(p);
        r.auditHash = fnv1a(r.auditHash, restored);
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out = "BENCH_ADV.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::fprintf(
                stderr,
                "usage: adv_interference [--smoke] [--out FILE]\n");
            return 1;
        }
    }

    const int rounds = smoke ? 128 : 256;
    struct Sweep
    {
        const char *label;
        double bursts;
        bool defense;
    };
    const std::vector<Sweep> sweep = {
        {"solo", 0.0, false},
        {"attack_1m", 1.0e6, false},
        {"attack_4m", 4.0e6, false},
        {"defended_1m", 1.0e6, true},
        {"defended_4m", 4.0e6, true},
    };

    std::printf("adv_interference%s: %d fault rounds per point, "
                "REFpb + RFM (raaimt 32), starver on DIMM 0\n\n",
                smoke ? " (smoke)" : "", rounds);
    std::printf("  %-12s  %7s  %9s  %9s  %6s  %9s  %5s  %s\n",
                "config", "samples", "p50 ns", "p99 ns", "rfm",
                "stolen", "thrtl", "audit");

    std::vector<Point> results;
    for (const auto &s : sweep) {
        results.push_back(
            runPoint(s.label, s.bursts, s.defense, rounds));
        const Point &r = results.back();
        std::printf("  %-12s  %7llu  %9.0f  %9.0f  %6llu  %9llu"
                    "  %5s  %s\n",
                    r.label.c_str(), (unsigned long long)r.samples,
                    r.p50Ns, r.p99Ns,
                    (unsigned long long)r.rfmCommands,
                    (unsigned long long)r.rfmStolenSlots,
                    r.attackerThrottled ? "yes" : "no",
                    r.auditOk ? "ok" : "CORRUPT");
    }

    // The only gate: every config restored every victim byte, and
    // all configs restored the SAME bytes. Tail separation is
    // reported, not gated.
    bool data_ok = true;
    for (const Point &r : results) {
        data_ok &= r.auditOk;
        data_ok &= r.auditHash == results.front().auditHash;
    }

    const double solo_p99 = results.front().p99Ns;
    std::printf("\n  solo p99 %.0f ns; attacked x%.2f; defended "
                "x%.2f; cross-config data: %s\n",
                solo_p99,
                solo_p99 > 0.0 ? results[2].p99Ns / solo_p99 : 0.0,
                solo_p99 > 0.0 ? results[4].p99Ns / solo_p99 : 0.0,
                data_ok ? "identical" : "DIVERGED");

    std::string j = "{\n  \"schema\": \"xfm.adv_sweep.v1\",\n";
    char buf[360];
    std::snprintf(buf, sizeof buf,
                  "  \"smoke\": %s,\n  \"rounds\": %d,\n"
                  "  \"data_identical\": %s,\n"
                  "  \"solo_p99_ns\": %.1f,\n",
                  smoke ? "true" : "false", rounds,
                  data_ok ? "true" : "false", solo_p99);
    j += buf;
    j += "  \"sweep\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Point &r = results[i];
        std::snprintf(
            buf, sizeof buf,
            "    {\"config\": \"%s\", \"defense\": %s, "
            "\"bursts_per_second\": %.0f, \"samples\": %llu, "
            "\"p50_ns\": %.1f, \"p99_ns\": %.1f, "
            "\"rfm_commands\": %llu, \"rfm_stolen_slots\": %llu, "
            "\"attacker_throttled\": %s, \"attacker_flags\": %llu, "
            "\"suppressed_bursts\": %llu, \"audit_ok\": %s}%s\n",
            r.label.c_str(), r.defense ? "true" : "false",
            r.burstsPerSecond, (unsigned long long)r.samples, r.p50Ns,
            r.p99Ns, (unsigned long long)r.rfmCommands,
            (unsigned long long)r.rfmStolenSlots,
            r.attackerThrottled ? "true" : "false",
            (unsigned long long)r.attackerFlags,
            (unsigned long long)r.suppressedBursts,
            r.auditOk ? "true" : "false",
            i + 1 < results.size() ? "," : "");
        j += buf;
    }
    j += "  ]\n}\n";

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "adv_interference: cannot write %s\n",
                     out.c_str());
        return 1;
    }
    std::fwrite(j.data(), 1, j.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out.c_str());

    return data_ok ? 0 : 1;
}
