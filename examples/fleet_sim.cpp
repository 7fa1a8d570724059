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
 * The config file (key = value) may set the same knobs (tenants,
 * ms, rate, seed), `workers` (shard-compression threads for every
 * tenant's CPU swap path; results identical for any value), plus
 * the observability sinks:
 *   stats.json = fleet.json    # metric-registry JSON snapshot
 *   trace.out  = fleet.jsonl   # per-swap span trace (JSON lines)
 *   trace.cap  = 65536         # trace ring capacity in events
 * and the robustness knobs (src/health):
 *   health.*                   # circuit breakers on every domain
 *   shed.*                     # overload-shedding watermarks
 *
 * Workload selection:
 *   workload.model = fleet     # fleet | apps | adversary
 * `fleet` is the classic heterogeneous zipf fleet (workload/fleet).
 * `apps` alternates two application models per tenant slot
 * (workload/app_model): memtier-like KV stores (latency class,
 * kstaled, xfm_first group policy) and inference-batch servers
 * (batch class, senpai, auto policy) whose drifting activation
 * windows feed the spill scan.
 * `adversary` runs the zipf fleet as victims plus three abusive
 * tenants (workload/adversary): an RFM-starver and a covert
 * sender/receiver pair. Usually combined with the refresh-realism
 * and QoS-defense keys below:
 *   refresh.mode / refresh.hira / refresh.trfcpb_ns
 *   rfm.raaimt / rfm.raammt / rfm.trfm_ns   # see xfmsim
 *   qos.reserved_slot_frac = 0.25  # per-lane guaranteed slots
 *   qos.slot_debt          = 1     # charge RFM steals to the source
 *   qos.abuse_enabled      = 1     # windowed z-score abuse detector
 *   qos.abuse_windows / qos.abuse_z / qos.abuse_min_loss
 *   qos.abuse_consecutive / qos.abuse_cooldown_ns
 *   adversary.bursts_per_second = 4000000
 *   adversary.activations_per_burst = 128
 *   adversary.pages / adversary.target_dimm / adversary.sweep_banks
 *   adversary.burst_budget      = 0      # 0 = hammer forever
 *   covert.bits / covert.bit_period_us / covert.bursts_per_bit
 *   covert.activations_per_burst / covert.probes_per_bit
 *   covert.seed                 # shared schedule secret
 *
 * Tiered far memory (src/sfm/tier_manager.hh; `tier.enabled = 0`,
 * the default, is byte-identical to the two-state stack):
 *   tier.*                     # same keys as xfmsim (see there)
 *   fault.dfm_delay.p / fault.dfm_drop.p  # spill-link fault sites
 * Flags given after --config override the file.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "dram/ddr_config.hh"
#include "fault/fault.hh"
#include "obs/tracer.hh"
#include "service/service.hh"
#include "workload/adversary.hh"
#include "workload/app_model.hh"
#include "workload/fleet.hh"

using namespace xfm;

namespace
{

/** Write @p text to @p path, fatally on failure. */
void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot open '", path, "' for writing");
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

service::ServiceConfig
makeServiceConfig(std::size_t max_tenants)
{
    service::ServiceConfig cfg;
    cfg.registry.maxTenants = max_tenants;
    cfg.registry.pagesPerShard = 512;
    cfg.system.numDimms = 4;
    cfg.system.dimmMem.rank.device = dram::ddr5Device32Gb();
    cfg.system.dimmMem.channels = 1;
    cfg.system.dimmMem.dimmsPerChannel = 1;
    cfg.system.dimmMem.ranksPerDimm = 1;
    cfg.system.sfmBase = gib(1);
    cfg.system.sfmBytes = mib(16);
    cfg.system.device.spmBytes = mib(2);
    cfg.system.device.queueDepth = 64;
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
    std::size_t tenants = 8;
    double sim_ms = 50.0;
    double rate = 100000.0;
    std::uint64_t seed = 1;
    std::size_t workers = 1;
    std::string stats_json;
    std::string trace_out;
    std::uint64_t trace_cap = 65536;
    std::uint32_t sq_depth = 1;
    std::uint32_t cq_coalesce = 1;
    bool shard_dict = false;
    std::size_t dict_bytes = 2048;
    std::string model = "fleet";
    health::HealthConfig health_cfg;
    health::ShedConfig shed_cfg;
    sfm::TierConfig tier_cfg;
    dram::DeviceConfig dev_cfg = dram::ddr5Device32Gb();
    service::QosArbiterConfig arb_cfg;
    workload::RfmStarverConfig starver_cfg;
    workload::CovertConfig covert_cfg;
    // Flags and file share one parse path: both go through the
    // validated Config getters.
    const auto read_run_keys = [&](const Config &cfg) {
        tenants = cfg.getU64("tenants", tenants);
        sim_ms = cfg.getDouble("ms", sim_ms);
        rate = cfg.getDouble("rate", rate);
        seed = cfg.getU64("seed", seed);
    };
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "fleet_sim: %s needs a value\n", argv[i]);
            return 1;
        }
        if (const char *key = flagKey(argv[i])) {
            Config flag;
            flag.set(key, argv[i + 1]);
            read_run_keys(flag);
        } else if (!std::strcmp(argv[i], "--config")) {
            Config cfg = Config::parseFile(argv[i + 1]);
            read_run_keys(cfg);
            workers = static_cast<std::size_t>(
                cfg.getU64("workers", workers));
            stats_json = cfg.getString("stats.json", stats_json);
            trace_out = cfg.getString("trace.out", trace_out);
            trace_cap = cfg.getU64("trace.cap", trace_cap);
            sq_depth = static_cast<std::uint32_t>(
                cfg.getU64("xfm.sq_depth", sq_depth));
            cq_coalesce = static_cast<std::uint32_t>(
                cfg.getU64("xfm.cq_coalesce", cq_coalesce));
            shard_dict = cfg.getBool("xfm.shard_dict", shard_dict);
            dict_bytes = static_cast<std::size_t>(
                cfg.getU64("xfm.dict_bytes", dict_bytes));
            model = cfg.getString("workload.model", model);
            // Refresh realism on the shared DIMMs and the QoS
            // defense knobs (both byte-identical when unset).
            dram::applyRefreshConfig(dev_cfg, cfg);
            arb_cfg = service::QosArbiterConfig::fromConfig(cfg);
            starver_cfg.pages =
                cfg.getU64("adversary.pages", starver_cfg.pages);
            starver_cfg.burstsPerSecond =
                cfg.getDouble("adversary.bursts_per_second",
                              starver_cfg.burstsPerSecond);
            starver_cfg.activationsPerBurst =
                static_cast<std::uint32_t>(
                    cfg.getU64("adversary.activations_per_burst",
                               starver_cfg.activationsPerBurst));
            starver_cfg.targetDimm = static_cast<std::uint32_t>(
                cfg.getU64("adversary.target_dimm",
                           starver_cfg.targetDimm));
            starver_cfg.sweepBanks = cfg.getBool(
                "adversary.sweep_banks", starver_cfg.sweepBanks);
            starver_cfg.burstBudget =
                cfg.getU64("adversary.burst_budget",
                           starver_cfg.burstBudget);
            covert_cfg.bits = static_cast<std::uint32_t>(
                cfg.getU64("covert.bits", covert_cfg.bits));
            covert_cfg.bitPeriod = microseconds(
                cfg.getDouble("covert.bit_period_us",
                              static_cast<double>(covert_cfg.bitPeriod)
                                  / microseconds(1.0)));
            covert_cfg.burstsPerBit = static_cast<std::uint32_t>(
                cfg.getU64("covert.bursts_per_bit",
                           covert_cfg.burstsPerBit));
            covert_cfg.activationsPerBurst =
                static_cast<std::uint32_t>(
                    cfg.getU64("covert.activations_per_burst",
                               covert_cfg.activationsPerBurst));
            covert_cfg.probesPerBit = static_cast<std::uint32_t>(
                cfg.getU64("covert.probes_per_bit",
                           covert_cfg.probesPerBit));
            covert_cfg.scheduleSeed =
                cfg.getU64("covert.seed", covert_cfg.scheduleSeed);
            health_cfg = health::HealthConfig::fromConfig(cfg);
            shed_cfg = health::ShedConfig::fromConfig(cfg);
            tier_cfg = sfm::TierConfig::fromConfig(cfg);
            // The spill link shares the run's fault plan and retry
            // policy (DfmLinkDelay / DfmLinkDrop sites; disarmed
            // unless configured).
            tier_cfg.faults = fault::FaultPlan::fromConfig(cfg);
            tier_cfg.retry = fault::RetryPolicy::fromConfig(cfg);
            cfg.requireAllConsumed();
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

    EventQueue eq;
    // The adversary model admits three abusive tenants on top of
    // the victim fleet, so the registry needs the extra slots.
    service::ServiceConfig scfg = makeServiceConfig(
        model == "adversary" ? tenants + 3 : tenants);
    scfg.arbiter = arb_cfg;
    scfg.system.dimmMem.rank.device = dev_cfg;
    scfg.system.health = health_cfg;
    scfg.system.workers = workers;
    scfg.system.device.sqDepth = sq_depth;
    scfg.system.device.cqCoalesce = cq_coalesce;
    scfg.system.shardDict = shard_dict;
    scfg.system.dictBytes = dict_bytes;
    scfg.shed = shed_cfg;
    scfg.tier = tier_cfg;
    service::FarMemoryService svc("svc", eq, scfg);
    obs::Tracer tracer(static_cast<std::size_t>(trace_cap));
    if (!trace_out.empty())
        svc.setTracer(&tracer);

    std::unique_ptr<workload::FleetDriver> fleet;
    std::vector<std::unique_ptr<workload::KvStoreModel>> kvs;
    std::vector<std::unique_ptr<workload::InferenceBatchModel>> infer;
    std::unique_ptr<workload::RfmStarverModel> starver;
    std::unique_ptr<workload::CovertSenderModel> covert_tx;
    std::unique_ptr<workload::CovertReceiverModel> covert_rx;
    if (model == "adversary") {
        // Victim fleet plus the three abusive tenants: the starver
        // hammers RAA counters on one DIMM while the covert pair
        // modulates/decodes RFM pressure on the shared refresh
        // machinery. The QoS defense (qos.* keys) is what keeps the
        // fleet's tail intact.
        workload::FleetConfig fcfg;
        fcfg.numTenants = tenants;
        fcfg.pagesPerTenant = 128;
        fcfg.accessesPerSecond = rate;
        fcfg.seed = seed;
        fleet = std::make_unique<workload::FleetDriver>(
            "fleet", eq, svc, fcfg);
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
    } else if (model == "fleet") {
        workload::FleetConfig fcfg;
        fcfg.numTenants = tenants;
        fcfg.pagesPerTenant = 128;
        fcfg.accessesPerSecond = rate;
        fcfg.seed = seed;
        fleet = std::make_unique<workload::FleetDriver>(
            "fleet", eq, svc, fcfg);
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
    } else {
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
    if (!stats_json.empty())
        writeFile(stats_json, snap.toJson());
    if (!trace_out.empty()) {
        writeFile(trace_out, tracer.toJsonLines());
        std::printf("trace: %llu events recorded, %llu dropped "
                    "-> %s\n",
                    (unsigned long long)tracer.recorded(),
                    (unsigned long long)tracer.dropped(),
                    trace_out.c_str());
    }

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
    if (svc.shedder().enabled()) {
        const auto &ss = svc.shedder().stats();
        std::printf("shedding: %llu engages, %llu rejects, "
                    "%llu down-tiers%s\n",
                    (unsigned long long)ss.engages,
                    (unsigned long long)ss.rejects,
                    (unsigned long long)ss.downTiers,
                    svc.shedder().shedding() ? " (still engaged)"
                                             : "");
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
