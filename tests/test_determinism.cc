/**
 * @file
 * Determinism property tests: a (seed, fault plan, workload) triple
 * must be perfectly reproducible. Same-seed replay and worker-count
 * independence of full systems run in the feature-combination audit
 * (test_differential.cc); here, pinned hashes of the simulator's and
 * codecs' outputs must not move, spelling out a default-off mode's
 * defaults must not change a byte, and changing the fault seed
 * changes the injected sequence. A separate engine-level check pins
 * down the modeled-size path, which once relied on process-wide state
 * and silently diverged between same-seed runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "common/config.hh"
#include "common/random.hh"
#include "compress/corpus.hh"
#include "compress/dict.hh"
#include "nma/engine.hh"
#include "obs/tracer.hh"
#include "service/service.hh"
#include "system/system.hh"
#include "test_util.hh"
#include "workload/fleet.hh"
#include "xfm/multichannel.hh"

namespace xfm
{
namespace
{

using system::BackendKind;
using system::System;
using system::SystemConfig;

SystemConfig
faultedConfig(std::uint64_t fault_seed)
{
    SystemConfig cfg;
    cfg.backend = BackendKind::Xfm;
    cfg.pages = 96;
    cfg.sfmBytes = mib(8);
    cfg.controller.coldThreshold = milliseconds(5.0);
    cfg.controller.scanInterval = milliseconds(1.0);
    cfg.controller.maxSwapOutsPerScan = 16;
    fault::FaultPlan &plan = cfg.xfm.faults;
    plan.seed = fault_seed;
    plan.site(fault::FaultSite::SpmReserveFail).probability = 0.15;
    plan.site(fault::FaultSite::EngineStall).probability = 0.05;
    plan.site(fault::FaultSite::MmioDoorbellLoss).probability = 0.20;
    return cfg;
}

struct RunResult
{
    std::string stats;            ///< rendered end-of-run stats
    std::string json;             ///< JSON snapshot export
    std::string trace;            ///< JSON-lines trace export
    std::uint64_t injections;     ///< total injected faults
    obs::Snapshot snap;           ///< end-of-run metric snapshot
};

/** One complete demote/promote run of @p cfg, traced. @p arm, if
 *  set, runs once right after the system starts. */
RunResult
runConfig(const SystemConfig &cfg,
          const std::function<void(System &)> &arm = {})
{
    EventQueue eq;
    System sys("sys", eq, cfg);
    obs::Tracer tracer(4096);
    sys.setTracer(&tracer);
    for (sfm::VirtPage p = 0; p < 96; ++p)
        sys.writePage(p, compress::generateCorpus(
                             compress::CorpusKind::LogLines, p + 1,
                             pageBytes));
    sys.start();
    if (arm)
        arm(sys);
    eq.run(milliseconds(60.0));
    // Touch pages in a seeded order so promotions also exercise the
    // backend (and its fault sites) deterministically.
    Rng rng(99);
    for (int i = 0; i < 48; ++i) {
        sys.access(rng.uniformInt(96));
        eq.run(eq.now() + milliseconds(1.0));
    }

    RunResult r;
    r.snap = sys.metrics().snapshot();
    r.stats = r.snap.renderText();
    r.json = r.snap.toJson();
    r.trace = tracer.toJsonLines();
    r.injections = sys.faultInjections();
    return r;
}

/** One complete demote/promote run of faultedConfig(@p fault_seed)
 *  with the config text @p config applied by
 *  SystemConfig::fromConfig. */
RunResult
runSystem(std::uint64_t fault_seed, const std::string &config = "")
{
    const Config parsed = Config::parseString(config);
    const SystemConfig cfg =
        SystemConfig::fromConfig(parsed, faultedConfig(fault_seed));
    parsed.requireAllConsumed();
    return runConfig(cfg);
}

/** The async command ring at depth 8 with coalesced reaps. */
const std::string ring8 = "xfm.sq_depth = 8\nxfm.cq_coalesce = 2\n";
/** Per-page preset dictionaries. */
const std::string dicts = "xfm.shard_dict = 1\nxfm.dict_bytes = 2048\n";

void
expectSameExports(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.json, b.json);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.injections, b.injections);
}

/** All-bank REF with RFM and HiRA off. */
const std::string refabOff =
    "refresh.mode = refab\nrfm.raaimt = 0\nrfm.raammt = 0\n"
    "refresh.hira = 0\n";
/** Tiering disabled with every tier knob set. */
const std::string tieringOff = "tier.enabled = 0\ntier.policy = auto\n"
                               "tier.promote_watermark = 2\n"
                               "tier.scan_ms = 1\ntier.spill_cold_ms = 5\n"
                               "tier.max_spills_per_scan = 16\n"
                               "tier.dfm_bytes = 1048576\n";
/** No dictionaries, at the default dictionary size. */
const std::string dictOff = "xfm.shard_dict = 0\nxfm.dict_bytes = 2048\n";

/** Opt-out contract of a default-off mode: spelling out its
 *  defaults (@p spelled) must not change a byte of any export
 *  relative to a run that names none of them. */
void
expectSpelledOutMatchesDefault(const std::string &spelled)
{
    expectSameExports(runSystem(7), runSystem(7, spelled));
}

TEST(Determinism, ExplicitRefAbMatchesDefault)
{
    // The disarmed refresh controller takes the legacy code path
    // (refreshRealismArmed() == false).
    expectSpelledOutMatchesDefault(refabOff);
}

TEST(Determinism, TieringOffMatchesDefault)
{
    // No TierManager is built, no access-path hook fires, no metric
    // appears.
    expectSpelledOutMatchesDefault(tieringOff);
}

TEST(Determinism, ExplicitDictOffMatchesDefault)
{
    // No dictionary is sampled, no packed dict is placed, no stat
    // appears.
    expectSpelledOutMatchesDefault(dictOff);
}

TEST(Determinism, SpelledOutDefaultsMatchDefault)
{
    // Every default-off mode spelled out at once, together with the
    // default ring, health and worker count.
    expectSpelledOutMatchesDefault(
        refabOff + tieringOff + dictOff
        + "xfm.sq_depth = 64\nxfm.cq_coalesce = 1\n"
          "health.enabled = 0\nworkers = 1\n");
}

TEST(Determinism, DifferentFaultSeedDiverges)
{
    const RunResult a = runSystem(7);
    const RunResult c = runSystem(8);
    // Same workload, different fault RNG: the injected sequence must
    // differ somewhere observable.
    EXPECT_NE(a.stats, c.stats);
}

/** FNV-1a 64 over @p n bytes, continuing from @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

constexpr std::uint64_t fnvBasis = 14695981039346656037ull;

std::uint64_t
fnv1a(const std::string &s)
{
    return fnv1a(fnvBasis, s.data(), s.size());
}

/** A 16-tenant, 4 ms FarMemoryService + FleetDriver run's snapshot. */
std::string
fleetSnapshot()
{
    EventQueue eq;
    service::ServiceConfig scfg;
    scfg.registry.maxTenants = 16;
    scfg.registry.pagesPerShard = 64;
    scfg.system.numDimms = 2;
    scfg.system.sfmBase = gib(1);
    scfg.system.sfmBytes = mib(4);
    scfg.system.device.spmBytes = kib(512);
    scfg.batchSpmCapBytes = kib(256);
    service::FarMemoryService svc("svc", eq, scfg);

    workload::FleetConfig fcfg;
    fcfg.numTenants = 16;
    fcfg.pagesPerTenant = 32;
    fcfg.accessesPerSecond = 200000.0;
    workload::FleetDriver fleet("fleet", eq, svc, fcfg);
    svc.start();
    fleet.start();
    eq.run(milliseconds(4.0));
    return svc.metrics().renderText() + svc.metrics().toJson();
}

/** FNV-1a of every compressed block of the six-class page mix. */
std::uint64_t
codecHash(compress::Algorithm algo)
{
    static const compress::CorpusKind mix[] = {
        compress::CorpusKind::KeyValue,   compress::CorpusKind::Json,
        compress::CorpusKind::LogLines,   compress::CorpusKind::EnglishText,
        compress::CorpusKind::SourceCode, compress::CorpusKind::Html,
    };
    const auto codec = compress::makeCompressor(algo);
    std::uint64_t h = fnvBasis;
    Bytes block;
    Bytes out;
    for (const auto kind : mix) {
        for (std::uint64_t seed = 0; seed < 4; ++seed) {
            const Bytes page =
                compress::generateCorpus(kind, seed, pageBytes);
            codec->compressInto(page, block);
            codec->decompressInto(block, out);
            EXPECT_EQ(out, page);
            h = fnv1a(h, block.data(), block.size());
        }
    }
    return h;
}

/**
 * FNV-1a of every shard block the system's CPU path compresses:
 * all 16 corpus kinds, each page split at the 256 B interleave for
 * 8 DIMMs (512 B shards) and 4 DIMMs (1 KiB shards), compressed
 * plain and against the page's preset dictionary. Every block must
 * round-trip before it is hashed.
 */
std::uint64_t
shardCodecHash(compress::Algorithm algo)
{
    const auto codec = compress::makeCompressor(algo);
    std::uint64_t h = fnvBasis;
    std::vector<Bytes> shards;
    Bytes block;
    Bytes out;
    for (const auto kind : compress::allCorpusKinds()) {
        for (std::uint64_t seed = 0; seed < 2; ++seed) {
            const Bytes page =
                compress::generateCorpus(kind, seed, pageBytes);
            const Bytes dict = compress::buildPresetDictionary(
                page, xfmsys::defaultInterleave, 2048);
            for (const std::size_t dimms : {8u, 4u}) {
                xfmsys::splitPageInto(page, dimms,
                                      xfmsys::defaultInterleave, shards);
                for (const Bytes &shard : shards) {
                    codec->compressInto(shard, block);
                    codec->decompressInto(block, out);
                    EXPECT_EQ(out, shard);
                    h = fnv1a(h, block.data(), block.size());

                    codec->compressWithDictInto(dict, shard, block);
                    codec->decompressWithDictInto(dict, block, out);
                    EXPECT_EQ(out, shard);
                    h = fnv1a(h, block.data(), block.size());
                }
            }
        }
    }
    return h;
}

TEST(Determinism, CodecShardGoldenHashes)
{
    // Pinned shard blocks. Codec speedups must leave every byte
    // of every block unchanged.
    EXPECT_EQ(shardCodecHash(compress::Algorithm::LzFast),
              4363560260966557899ull);
    EXPECT_EQ(shardCodecHash(compress::Algorithm::Deflate),
              10719506611073167777ull);
    EXPECT_EQ(shardCodecHash(compress::Algorithm::ZstdLike),
              7740541293967721827ull);
}

/**
 * FNV-1a of every whole-page block: all 16 corpus kinds, two seeds
 * each, each 4 KiB page compressed plain and against its preset
 * dictionary (256 B interleave, 2 KiB), then the empty input plain
 * and against the last dictionary. Every block must round-trip
 * before it is hashed.
 */
std::uint64_t
pageCodecHash(compress::Algorithm algo)
{
    const auto codec = compress::makeCompressor(algo);
    std::uint64_t h = fnvBasis;
    Bytes dict;
    Bytes block;
    Bytes out;
    const auto pin = [&](ByteSpan input) {
        codec->compressInto(input, block);
        codec->decompressInto(block, out);
        EXPECT_TRUE(std::ranges::equal(out, input));
        h = fnv1a(h, block.data(), block.size());

        codec->compressWithDictInto(dict, input, block);
        codec->decompressWithDictInto(dict, block, out);
        EXPECT_TRUE(std::ranges::equal(out, input));
        h = fnv1a(h, block.data(), block.size());
    };
    for (const auto kind : compress::allCorpusKinds()) {
        for (std::uint64_t seed = 0; seed < 2; ++seed) {
            const Bytes page =
                compress::generateCorpus(kind, seed, pageBytes);
            dict = compress::buildPresetDictionary(page, 256, 2048);
            pin(page);
        }
    }
    pin({});
    return h;
}

TEST(Determinism, CodecPageGoldenHashes)
{
    // Pinned whole-page blocks (the shard pin above covers only
    // 512 B and 1 KiB inputs). A change to where the block frame
    // or a codec body lives must leave every byte unchanged.
    EXPECT_EQ(pageCodecHash(compress::Algorithm::LzFast),
              16314912336802835273ull);
    EXPECT_EQ(pageCodecHash(compress::Algorithm::Deflate),
              958667346966646861ull);
    EXPECT_EQ(pageCodecHash(compress::Algorithm::ZstdLike),
              14791101612141988445ull);
}

TEST(Determinism, CorpusGoldenHashes)
{
    // Pinned generator output: FNV-1a over every (seed, size) of each
    // corpus kind. Generator speedups must leave every byte unchanged.
    static const std::uint64_t seeds[] = {0, 1, 2, 7, 1000003, 123456789};
    static const std::size_t sizes[] = {1, 100, 4096, 512 * 1024};
    static const std::uint64_t pinned[] = {
        2520221102701565425ull,
        5161401018758425309ull,
        9230893641689347922ull,
        1722794872740976778ull,
        8495944963851442687ull,
        13954226735496579852ull,
        15807708778110195487ull,
        12315694494660356859ull,
        9633897119255714396ull,
        3975681864059805939ull,
        17647983100864840978ull,
        2813106225947201301ull,
        13359731021196303657ull,
        18228647636911671396ull,
        6497884612202539122ull,
        5080735703083362973ull,
    };
    const auto &kinds = compress::allCorpusKinds();
    ASSERT_EQ(kinds.size(), std::size(pinned));
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        std::uint64_t h = fnvBasis;
        for (const std::uint64_t seed : seeds) {
            for (const std::size_t size : sizes) {
                const Bytes c = compress::generateCorpus(kinds[k], seed,
                                                         size);
                ASSERT_EQ(c.size(), size);
                h = fnv1a(h, c.data(), c.size());
            }
        }
        EXPECT_EQ(h, pinned[k]) << compress::corpusName(kinds[k]);
    }
}

TEST(Determinism, GoldenHashes)
{
    // Pinned outputs of the simulator and the codecs. A refactor
    // that claims to change no simulated byte must leave every one
    // of these values unchanged; update them only for a change that
    // is meant to alter simulated behaviour or the block format.
    const RunResult d1 = runSystem(7, "xfm.sq_depth = 1\n");
    const RunResult d8 = runSystem(7, ring8);
    EXPECT_EQ(fnv1a(d1.stats), 1978446287086559044ull);
    EXPECT_EQ(fnv1a(d1.json), 5706955265475681994ull);
    EXPECT_EQ(fnv1a(d1.trace), 10183888145436731143ull);
    EXPECT_EQ(fnv1a(d8.stats), 3438280620338959114ull);
    EXPECT_EQ(fnv1a(d8.json), 8690636360194789194ull);
    EXPECT_EQ(fnv1a(d8.trace), 5063554244026298080ull);
    EXPECT_EQ(fnv1a(fleetSnapshot()), 8404750613485869870ull);
    EXPECT_EQ(codecHash(compress::Algorithm::LzFast),
              18114446391647626256ull);
    EXPECT_EQ(codecHash(compress::Algorithm::Deflate),
              14225057169789828618ull);
    EXPECT_EQ(codecHash(compress::Algorithm::ZstdLike),
              14084188174987479450ull);

    // Hybrid offloads. The health-armed chaos run routes single
    // shards to the CPU in both directions while the other channels
    // stay offloaded; the dict run at ring depth 8 stores and
    // restores preset dictionaries through the engines and the CPU.
    const RunResult hy = runConfig(testutil::chaoticSystemConfig());
    const RunResult dict = runSystem(7, dicts + ring8);
    EXPECT_GT(hy.snap.u64("sys.backend.shardCpuFallbacks"), 0u);
    EXPECT_GT(dict.snap.u64("sys.backend.dictShards"), 0u);
    EXPECT_EQ(fnv1a(hy.stats), 3845964500775929036ull);
    EXPECT_EQ(fnv1a(hy.json), 9008138076563087873ull);
    EXPECT_EQ(fnv1a(hy.trace), 2974187081404863087ull);
    EXPECT_EQ(fnv1a(dict.stats), 3418390688988235107ull);
    EXPECT_EQ(fnv1a(dict.json), 6955202110711745560ull);
    EXPECT_EQ(fnv1a(dict.trace), 5063554244026298080ull);
}

/** Sum of the per-DIMM device counter @p key ("*.dimmN.<key>"). */
std::uint64_t
dimmSum(const obs::Snapshot &s, const std::string &key)
{
    const std::string suffix = "." + key;
    std::uint64_t v = 0;
    for (const auto &leaf : s.leaves())
        if (leaf.name.find(".dimm") != std::string::npos
            && leaf.name.ends_with(suffix))
            v += leaf.u;
    return v;
}

/**
 * A closed swap loop on one 4-DIMM LzFast XfmBackend at ring depth
 * 8 with refresh running: eight streams each cycle their own page
 * out and back in, retrying a failed swap-out 1 us later (the
 * shape of perfbench's swap_nma workload, shortened).
 */
RunResult
runSwapLoop()
{
    xfmsys::XfmSystemConfig cfg = testutil::testXfmConfig(4);
    cfg.localPages = 48;
    cfg.algorithm = compress::Algorithm::LzFast;
    cfg.device.sqDepth = 8;
    cfg.device.cqCoalesce = 1;
    EventQueue eq;
    xfmsys::XfmBackend backend("xfm", eq, cfg);
    obs::MetricRegistry reg;
    backend.registerMetrics(reg);
    obs::Tracer tracer(4096);
    backend.setTracer(&tracer);
    for (sfm::VirtPage p = 0; p < cfg.localPages; ++p)
        backend.writePage(p, compress::generateCorpus(
                                 compress::CorpusKind::LogLines, p + 1,
                                 pageBytes));
    backend.start();

    const Tick horizon = milliseconds(30.0);
    std::function<void(sfm::VirtPage)> cycle = [&](sfm::VirtPage p) {
        if (eq.now() >= horizon)
            return;
        backend.swapOut(p, true, [&, p](const sfm::SwapOutcome &o) {
            if (!o.success) {
                eq.scheduleIn(microseconds(1.0), [&, p] { cycle(p); });
                return;
            }
            backend.swapIn(p, true, [&, p](const sfm::SwapOutcome &) {
                eq.scheduleIn(1, [&, p] { cycle(p); });
            });
        });
    };
    for (sfm::VirtPage s = 0; s < 8; ++s)
        cycle(s);
    eq.run(horizon + milliseconds(1.0));

    RunResult r;
    r.snap = reg.snapshot();
    r.stats = r.snap.renderText();
    r.json = r.snap.toJson();
    r.trace = tracer.toJsonLines();
    r.injections = 0;
    return r;
}

TEST(Determinism, WindowModelGoldenHashes)
{
    // Pinned outputs of the NMA refresh-window model beyond plain
    // all-bank REF: per-bank REFpb windows with RFM slot steals (and
    // HiRA, which lets randoms leave the refreshing bank), HiRA bonus
    // slots and TRR slack at the default ring depth and at 8, and a
    // swap loop that keeps the random-access pass busy. Each run is
    // guarded so that the branch it pins really executes.
    SystemConfig pb_cfg = faultedConfig(7);
    pb_cfg.xfm.device.sqDepth = 8;
    pb_cfg.xfm.device.cqCoalesce = 2;
    pb_cfg.xfm.device.watchdogWindows = 32;
    pb_cfg.xfm.dimmMem.rank.device.refreshMode =
        dram::RefreshMode::RefPb;
    pb_cfg.xfm.dimmMem.rank.device.rfmRaaimt = 64;
    pb_cfg.xfm.dimmMem.rank.device.hira = true;
    // Nothing in a plain system activates the DIMMs' rows, so each
    // REFpb window charges its bank a few activations: every eighth
    // window of a bank then carries an RFM that steals its slots.
    const RunResult pb = runConfig(pb_cfg, [](System &sys) {
        auto &refresh =
            dynamic_cast<xfmsys::XfmBackend &>(sys.backend()).refresh();
        refresh.addListener([&refresh](const dram::RefreshWindow &w) {
            refresh.noteActivates(w.rank, w.bank, 8);
        });
    });
    EXPECT_GT(dimmSum(pb.snap, "pbWindows"), 0u);
    EXPECT_GT(dimmSum(pb.snap, "rfmStolenWindows"), 0u);
    EXPECT_GT(dimmSum(pb.snap, "hiraBonusSlots"), 0u);
    EXPECT_GT(dimmSum(pb.snap, "subarrayConflictRetries"), 0u);
    EXPECT_GT(dimmSum(pb.snap, "watchdogFires"), 0u);

    // sq_depth 0 keeps the default depth.
    const auto hira_run = [](std::uint32_t sq_depth) {
        SystemConfig cfg = faultedConfig(7);
        if (sq_depth)
            cfg.xfm.device.sqDepth = sq_depth;
        cfg.xfm.device.cqCoalesce = sq_depth > 1 ? 2 : 1;
        cfg.xfm.device.trrRandomSlots = 2;
        cfg.xfm.device.watchdogWindows = 32;
        cfg.xfm.dimmMem.rank.device.hira = true;
        return runConfig(cfg);
    };
    const RunResult hd = hira_run(0);
    const RunResult h8 = hira_run(8);
    for (const RunResult *r : {&hd, &h8}) {
        EXPECT_GT(dimmSum(r->snap, "hiraBonusSlots"), 0u);
        EXPECT_GT(dimmSum(r->snap, "trrSlotsUsed"), 0u);
        EXPECT_GT(dimmSum(r->snap, "subarrayConflictRetries"), 0u);
    }
    EXPECT_GT(dimmSum(h8.snap, "watchdogFires"), 0u);

    const RunResult loop = runSwapLoop();
    EXPECT_GT(dimmSum(loop.snap, "subarrayConflictRetries"), 0u);

    EXPECT_EQ(fnv1a(pb.stats), 9877335848270207286ull);
    EXPECT_EQ(fnv1a(pb.json), 17704357434966617442ull);
    EXPECT_EQ(fnv1a(pb.trace), 5837798157392588600ull);
    EXPECT_EQ(fnv1a(hd.stats), 9716415583193456183ull);
    EXPECT_EQ(fnv1a(hd.json), 6731954781612737265ull);
    EXPECT_EQ(fnv1a(hd.trace), 7342714977053670558ull);
    EXPECT_EQ(fnv1a(h8.stats), 15090623687808273902ull);
    EXPECT_EQ(fnv1a(h8.json), 1432701936222934132ull);
    EXPECT_EQ(fnv1a(h8.trace), 15150052485202570199ull);
    EXPECT_EQ(fnv1a(loop.stats), 3034312403698692575ull);
    EXPECT_EQ(fnv1a(loop.json), 8853688863089278436ull);
    EXPECT_EQ(fnv1a(loop.trace), 4287628426872533867ull);
}

TEST(Determinism, ModeledEngineIsPerEngineState)
{
    // Size-model mode uses a jitter counter that must be per-engine:
    // two engines fed identical inputs — in the same process — must
    // emit identical size sequences. (A process-wide counter passes
    // single-engine tests but breaks same-seed reruns.)
    nma::EngineProfile profile;
    profile.modeledRatio = 3.0;
    nma::CompressionEngine a(compress::Algorithm::ZstdLike, profile);
    nma::CompressionEngine b(compress::Algorithm::ZstdLike, profile);
    const Bytes input(pageBytes, 0x5A);
    for (int i = 0; i < 64; ++i) {
        const auto [out_a, lat_a] = a.compress(input);
        const auto [out_b, lat_b] = b.compress(input);
        ASSERT_EQ(out_a.size(), out_b.size())
            << "modeled sizes diverged at call " << i;
        EXPECT_EQ(lat_a, lat_b);
    }
}

} // namespace
} // namespace xfm
