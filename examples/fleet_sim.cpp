/**
 * @file
 * fleet_sim: multi-tenant far-memory service demonstration.
 *
 * Spawns a heterogeneous fleet (latency-sensitive serving jobs mixed
 * with weighted batch tenants, kstaled and senpai control policies)
 * on one shared set of XFM DIMMs and prints every tenant's service
 * statistics: hit/fault counts, NMA vs CPU-fallback split, quota
 * events, and p50/p99 demand-fault latency.
 *
 * Usage: fleet_sim [--tenants N] [--ms M] [--rate R] [--seed S]
 *                  [--config FILE]
 *
 * A flag is the config key of its name (`--ms 5` is `ms = 5`); later
 * flags and files override earlier ones. The run keys are read here:
 *   tenants = 8    ms = 50    rate = 100000    seed = 1
 *   workload.model = fleet    # fleet | apps | adversary
 * `fleet` is the classic heterogeneous zipf fleet (workload/fleet).
 * `apps` alternates two application models per tenant slot
 * (workload/app_model): memtier-like KV stores (latency class,
 * kstaled, xfm_first group policy) and inference-batch servers
 * (batch class, senpai, auto policy) whose drifting activation
 * windows feed the spill scan.
 * `adversary` runs the zipf fleet as victims plus three abusive
 * tenants (workload/adversary): an RFM-starver and a covert
 * sender/receiver pair (see configs/adversary.cfg).
 *
 * Every other key is documented on its parser:
 * service::ServiceConfig::fromConfig (and the parsers it names),
 * workload::RfmStarverConfig / CovertConfig::fromConfig
 * (adversary.*, covert.*) and obs::RunSinks.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "obs/sinks.hh"
#include "service/service.hh"
#include "workload/adversary.hh"
#include "workload/app_model.hh"
#include "workload/fleet.hh"

using namespace xfm;

namespace
{

/** The fleet's deployment before any config key applies: the
 *  default 4-DIMM XfmSystemConfig with a 16 MiB SFM region each. */
service::ServiceConfig
baseServiceConfig(std::size_t max_tenants)
{
    service::ServiceConfig cfg;
    cfg.registry.maxTenants = max_tenants;
    cfg.registry.pagesPerShard = 512;
    cfg.system.sfmBase = gib(1);
    cfg.system.sfmBytes = mib(16);
    // Batch tenants share half the scratchpad; the latency class
    // keeps the rest plus anything batch leaves idle.
    cfg.batchSpmCapBytes = mib(4);
    return cfg;
}

/** Config key read for each command-line flag (null: not a flag
 *  of that kind). */
const char *
flagKey(const char *flag)
{
    static const char *const keys[][2] = {
        {"--tenants", "tenants"}, {"--ms", "ms"},
        {"--rate", "rate"},       {"--seed", "seed"},
    };
    for (const auto &k : keys)
        if (!std::strcmp(flag, k[0]))
            return k[1];
    return nullptr;
}

int
run(int argc, char **argv)
{
    // Flags and files merge into one Config in argument order (the
    // last value of a key wins); every component then parses its
    // own keys from it.
    Config cfg;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "fleet_sim: %s needs a value\n", argv[i]);
            return 1;
        }
        if (const char *key = flagKey(argv[i])) {
            cfg.set(key, argv[i + 1]);
        } else if (!std::strcmp(argv[i], "--config")) {
            cfg.merge(Config::parseFile(argv[i + 1]));
        } else {
            std::fprintf(stderr,
                         "fleet_sim: unknown flag %s\n"
                         "usage: fleet_sim [--tenants N] [--ms MS]"
                         " [--rate PER_SEC] [--seed S]"
                         " [--config FILE]\n",
                         argv[i]);
            return 1;
        }
    }
    const std::size_t tenants = cfg.getU64("tenants", 8);
    const double sim_ms = cfg.getDouble("ms", 50.0);
    const double rate = cfg.getDouble("rate", 100000.0);
    const std::uint64_t seed = cfg.getU64("seed", 1);
    const std::string model = cfg.getString("workload.model", "fleet");
    // The adversary model admits three abusive tenants on top of
    // the victim fleet, so the registry needs the extra slots.
    const auto scfg = service::ServiceConfig::fromConfig(
        cfg, baseServiceConfig(model == "adversary" ? tenants + 3
                                                    : tenants));
    const auto starver_cfg = workload::RfmStarverConfig::fromConfig(cfg);
    const auto covert_cfg = workload::CovertConfig::fromConfig(cfg);
    obs::RunSinks sinks(cfg);
    cfg.requireAllConsumed();

    EventQueue eq;
    service::FarMemoryService svc("svc", eq, scfg);
    if (obs::Tracer *tracer = sinks.tracer())
        svc.setTracer(tracer);

    std::unique_ptr<workload::FleetDriver> fleet;
    std::vector<std::unique_ptr<workload::KvStoreModel>> kvs;
    std::vector<std::unique_ptr<workload::InferenceBatchModel>> infer;
    std::unique_ptr<workload::RfmStarverModel> starver;
    std::unique_ptr<workload::CovertSenderModel> covert_tx;
    std::unique_ptr<workload::CovertReceiverModel> covert_rx;
    if (model == "fleet" || model == "adversary") {
        workload::FleetConfig fcfg;
        fcfg.numTenants = tenants;
        fcfg.pagesPerTenant = 128;
        fcfg.accessesPerSecond = rate;
        fcfg.seed = seed;
        fleet = std::make_unique<workload::FleetDriver>(
            "fleet", eq, svc, fcfg);
    }
    if (model == "adversary") {
        // Three abusive tenants next to the victim fleet: the
        // starver hammers RAA counters on one DIMM while the covert
        // pair modulates/decodes RFM pressure on the shared refresh
        // machinery. The QoS defense (qos.* keys) is what keeps the
        // fleet's tail intact.
        service::TenantConfig atcfg;
        atcfg.name = "starver";
        starver = std::make_unique<workload::RfmStarverModel>(
            "starver", eq, svc, starver_cfg, atcfg);
        service::TenantConfig rxcfg;
        rxcfg.name = "covert_rx";
        covert_rx = std::make_unique<workload::CovertReceiverModel>(
            "covert_rx", eq, svc, covert_cfg, rxcfg);
        service::TenantConfig txcfg;
        txcfg.name = "covert_tx";
        covert_tx = std::make_unique<workload::CovertSenderModel>(
            "covert_tx", eq, svc, covert_cfg, txcfg);
    } else if (model == "apps") {
        // Application-model mix: KV serving jobs alternate with
        // inference-batch servers. The KV tenants pin their hot
        // heads near and prefer the compressed tier for the warm
        // middle (xfm_first); the inference tenants let the
        // watermark router decide, so their retired activation
        // windows drain to the spill tier.
        sfm::ControllerConfig kstaled;
        kstaled.coldThreshold = milliseconds(2.0);
        kstaled.scanInterval = milliseconds(1.0);
        kstaled.maxSwapOutsPerScan = 16;
        sfm::SenpaiConfig senpai;
        senpai.interval = milliseconds(1.0);
        senpai.targetFaultsPerSec = 20000.0;
        senpai.initialReclaim = 8;
        senpai.maxReclaim = 64;
        for (std::size_t i = 0; i < tenants; ++i) {
            service::TenantConfig tcfg;
            tcfg.kstaled = kstaled;
            tcfg.senpai = senpai;
            if (i % 2 == 0) {
                tcfg.name = "kv_" + std::to_string(i);
                tcfg.cls = service::PriorityClass::LatencySensitive;
                tcfg.policy = service::ControlPolicy::Kstaled;
                tcfg.tierPolicy = sfm::TierPolicy::XfmFirst;
                workload::KvStoreConfig kcfg;
                kcfg.opsPerSecond = rate;
                kcfg.seed = seed + i;
                kvs.push_back(
                    std::make_unique<workload::KvStoreModel>(
                        "kv" + std::to_string(i), eq, svc, kcfg,
                        tcfg));
            } else {
                tcfg.name = "infer_" + std::to_string(i);
                tcfg.cls = service::PriorityClass::Batch;
                tcfg.policy = service::ControlPolicy::Senpai;
                tcfg.tierPolicy = sfm::TierPolicy::Auto;
                workload::InferenceBatchConfig icfg;
                icfg.seed = seed + i;
                infer.push_back(
                    std::make_unique<workload::InferenceBatchModel>(
                        "infer" + std::to_string(i), eq, svc, icfg,
                        tcfg));
            }
        }
    } else if (model != "fleet") {
        fatal("workload.model must be 'fleet', 'apps', or "
              "'adversary', got '", model, "'");
    }

    svc.start();
    if (fleet)
        fleet->start();
    for (auto &m : kvs)
        m->start();
    for (auto &m : infer)
        m->start();
    if (starver)
        starver->start();
    if (covert_rx)
        covert_rx->start();
    if (covert_tx)
        covert_tx->start();
    eq.run(milliseconds(sim_ms));

    std::uint64_t touches = 0;
    if (fleet) {
        touches = fleet->totalAccesses();
    } else {
        for (const auto &m : kvs)
            touches += m->stats().requests;
        for (const auto &m : infer)
            touches += m->stats().requests;
    }
    std::printf("fleet_sim: %zu tenants, %.1f ms simulated, "
                "%llu page touches\n\n",
                fleet ? fleet->numTenants() : kvs.size() + infer.size(),
                sim_ms, (unsigned long long)touches);

    for (const auto &m : kvs) {
        const auto &s = m->stats();
        std::printf("kv tenant %u: %llu requests (%llu bursts), "
                    "%llu hits, %llu faults, %llu writes\n",
                    m->tenantId(), (unsigned long long)s.requests,
                    (unsigned long long)s.bursts,
                    (unsigned long long)s.localHits,
                    (unsigned long long)s.faults,
                    (unsigned long long)s.writes);
    }
    for (const auto &m : infer) {
        const auto &s = m->stats();
        std::printf("inference tenant %u: %llu touches "
                    "(%llu batches), %llu hits, %llu faults\n",
                    m->tenantId(), (unsigned long long)s.requests,
                    (unsigned long long)s.bursts,
                    (unsigned long long)s.localHits,
                    (unsigned long long)s.faults);
    }
    if (!kvs.empty() || !infer.empty())
        std::printf("\n");

    const obs::Snapshot snap = svc.metrics().snapshot();
    std::printf("%s\n", snap.renderText().c_str());
    const std::string trace_line = sinks.write(snap);
    if (!trace_line.empty())
        std::printf("%s\n", trace_line.c_str());

    if (starver) {
        const auto &ss = starver->stats();
        const dram::RefreshStats &rs =
            svc.backend().refresh().refreshStats();
        std::printf("adversary: starver %llu bursts "
                    "(%llu suppressed), %llu RFMs forced, "
                    "%llu slots stolen, throttled=%s\n",
                    (unsigned long long)ss.bursts,
                    (unsigned long long)ss.suppressedBursts,
                    (unsigned long long)rs.rfmCommands,
                    (unsigned long long)rs.rfmStolenSlots,
                    svc.arbiter().abuseThrottled(starver->tenantId())
                        ? "yes" : "no");
        const auto &cs = covert_rx->stats();
        std::printf("covert: %u bits sent, %u decoded, BER %.3f, "
                    "capacity %.0f b/s, sender flagged=%s\n",
                    covert_tx->bitsSent(), cs.bitsDecoded,
                    cs.bitErrorRate(),
                    covert_rx->channelCapacityBps(),
                    svc.arbiter()
                            .laneStats(covert_tx->tenantId())
                            .abuseFlags > 0
                        ? "yes" : "no");
    }

    const auto &as = svc.arbiter().stats();
    std::printf("arbiter: %llu windows, %llu dispatched, "
                "%llu preemptions, %llu throttled windows\n",
                (unsigned long long)as.windows,
                (unsigned long long)as.dispatched,
                (unsigned long long)as.preemptions,
                (unsigned long long)as.throttledWindows);
    std::printf("admission: %llu tenants rejected\n",
                (unsigned long long)
                    svc.registry().rejectedAdmissions());
    if (const sfm::TierManager *tm = svc.tierManager()) {
        const auto &t = tm->tierStats();
        std::printf("tiers: %llu near / %llu xfm / %llu dfm pages; "
                    "demotions %llu->xfm %llu->dfm, spills %llu, "
                    "promotions %llu xfm %llu dfm\n",
                    (unsigned long long)tm->nearPages(),
                    (unsigned long long)tm->xfmPages(),
                    (unsigned long long)tm->dfmPages(),
                    (unsigned long long)t.demotedNearToXfm,
                    (unsigned long long)t.demotedNearToDfm,
                    (unsigned long long)t.demotedXfmToDfm,
                    (unsigned long long)t.promotedFromXfm,
                    (unsigned long long)t.promotedFromDfm);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError &) {
        return 1;  // fatal() already printed the message
    }
}
