/**
 * @file
 * The feature-combination audit. Every page of a six-class mix runs
 * through two system::System instances built from one config text,
 * one on the XFM backend and one on the baseline CPU backend, and
 * must restore byte-identically on both: first demoted and promoted
 * through each system's backend, then under the control plane
 * (kstaled cold scans, demand faults and prefetch, and the spill scan
 * on tiered rows). The feature axes are declared once (axes()); a
 * pairwise covering table of rows (auditRows()) drives the one runner
 * (runAudit()). Each row also replays with the same seeds to
 * byte-identical stats, JSON and trace, and a workers = 4 row must
 * equal its workers = 1 twin. Faults may degrade the offload path;
 * they may not cost a byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <ranges>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hh"
#include "common/random.hh"
#include "obs/tracer.hh"
#include "system/system.hh"
#include "test_util.hh"

namespace xfm
{
namespace
{

using sfm::PageState;
using sfm::SwapOutcome;
using sfm::VirtPage;
using system::System;
using system::SystemConfig;

constexpr VirtPage numPages = 24;

const std::vector<compress::CorpusKind> &
pageMix()
{
    // A spread of compressibility classes, including the sparse and
    // incompressible extremes.
    static const std::vector<compress::CorpusKind> kinds = {
        compress::CorpusKind::EnglishText,
        compress::CorpusKind::Json,
        compress::CorpusKind::LogLines,
        compress::CorpusKind::SourceCode,
        compress::CorpusKind::ZeroHeavy,
        compress::CorpusKind::Base64Blob,
    };
    return kinds;
}

Bytes
pageFor(VirtPage p)
{
    const auto &kinds = pageMix();
    return testutil::corpusPage(kinds[p % kinds.size()], p + 1);
}

/** One value of a feature axis: its label and the config text that
 *  selects it. */
struct AxisValue
{
    std::string_view label;
    std::string_view config;
};

struct Axis
{
    std::string_view name;
    std::vector<AxisValue> values;
};

/** Axis positions in axes() and in an audit row. */
enum AxisId : std::size_t
{
    Codec, Dimms, SqDepth, Dict, Tiering, Refresh, Health, Faults,
    Workers, axisCount
};

/**
 * The feature axes, declared once. A value's config text goes
 * through SystemConfig::fromConfig; the codec has no config key, so
 * its label is the algorithm name. Labels are unique across axes.
 */
const std::vector<Axis> &
axes()
{
    static const std::vector<Axis> table = {
        {"codec", {{"lzfast", ""}, {"deflate", ""}, {"zstdlike", ""}}},
        {"dimms",
         {{"d1", "xfm.dimms = 1\n"},
          {"d2", "xfm.dimms = 2\n"},
          {"d4", "xfm.dimms = 4\n"},
          {"d8", "xfm.dimms = 8\n"}}},
        {"sq_depth",
         {{"sq1", "xfm.sq_depth = 1\n"},
          {"sq8", "xfm.sq_depth = 8\nxfm.cq_coalesce = 2\n"},
          {"sq64", "xfm.sq_depth = 64\nxfm.cq_coalesce = 2\n"}}},
        {"dict",
         {{"plain", "xfm.shard_dict = 0\n"},
          {"dict", "xfm.shard_dict = 1\n"}}},
        // A DFM pool for half the pages, so the other half takes the
        // pool-full fallback into the compressed tier. The spill scan
        // runs throughout, but no page is spill-cold before the
        // controller phase, so the demote/promote phase is routed by
        // demand alone.
        {"tiering",
         {{"notier", "tier.enabled = 0\n"},
          {"auto", "tier.enabled = 1\ntier.policy = auto\n"
                   "tier.scan_ms = 1\ntier.spill_cold_ms = 5\n"
                   "tier.dfm_bytes = 49152\n"},
          {"dfmfirst", "tier.enabled = 1\ntier.policy = dfm_first\n"
                       "tier.scan_ms = 1\ntier.spill_cold_ms = 5\n"
                       "tier.dfm_bytes = 49152\n"}}},
        {"refresh",
         {{"refab", "refresh.mode = refab\n"},
          {"refpb", "refresh.mode = refpb\n"},
          {"rfm", "refresh.mode = refpb\nrfm.raaimt = 64\n"},
          {"hira", "refresh.hira = 1\n"}}},
        {"health",
         {{"nohealth", "health.enabled = 0\n"},
          {"health", "health.enabled = 1\nhealth.window = 8\n"
                     "health.fail_consecutive = 3\n"
                     "health.cooldown_ns = 50000\n"}}},
        // SPM reserve failures, engine stalls and lost doorbells,
        // all at 10% or more; chaos is the chaos system's plan.
        {"faults",
         {{"clean", ""},
          {"aggressive", "fault.seed = 13\nfault.spm_reserve.p = 0.15\n"
                         "fault.engine_stall.p = 0.10\n"
                         "fault.mmio_doorbell.p = 0.20\n"},
          {"chaos", testutil::chaosFaults}}},
        {"workers", {{"w1", "workers = 1\n"}, {"w4", "workers = 4\n"}}},
    };
    return table;
}

/** The value labelled @p label; fails the test if no axis has it. */
const AxisValue &
valueOf(std::string_view label)
{
    for (const Axis &axis : axes())
        for (const AxisValue &v : axis.values)
            if (v.label == label)
                return v;
    ADD_FAILURE() << "no axis has the value '" << label << "'";
    static const AxisValue none{};
    return none;
}

/** Axis values by label, such as an audit row. */
using Labels = std::vector<std::string_view>;

bool
has(const Labels &labels, std::string_view label)
{
    return std::ranges::find(labels, label) != labels.end();
}

/**
 * Config text for a set of axis values; an axis left out keeps the
 * default. A fault plan also arms the DFM link sites when tiering
 * is on.
 */
std::string
configOf(const Labels &labels)
{
    std::string text;
    for (const std::string_view label : labels)
        text += valueOf(label).config;
    if ((has(labels, "aggressive") || has(labels, "chaos"))
        && (has(labels, "auto") || has(labels, "dfmfirst")))
        text += "fault.dfm_delay.p = 0.20\nfault.dfm_drop.p = 0.10\n";
    return text;
}

/**
 * The audit rows, one value of every axis each, in axes() order. Every
 * pair of values of two axes appears in some row
 * (FeatureAuditTable.CoversEveryPair). A new axis value fails that
 * test until a row covers it.
 */
const std::vector<Labels> &
auditRows()
{
    static const char *const text[] = {
        "deflate d1 sq1 plain notier refab health clean w4",
        "deflate d1 sq64 dict auto refpb nohealth aggressive w1",
        "zstdlike d1 sq8 plain notier rfm health chaos w1",
        "lzfast d1 sq8 dict dfmfirst hira nohealth clean w4",
        "deflate d2 sq64 plain dfmfirst refab nohealth chaos w1",
        "lzfast d2 sq8 plain auto refpb nohealth chaos w4",
        "zstdlike d2 sq1 dict dfmfirst refpb health clean w4",
        "lzfast d2 sq64 plain auto rfm health chaos w4",
        "zstdlike d2 sq64 dict notier hira health aggressive w1",
        "zstdlike d4 sq8 dict auto refab nohealth chaos w1",
        "lzfast d4 sq1 plain notier refpb nohealth aggressive w4",
        "lzfast d4 sq64 plain dfmfirst rfm health aggressive w4",
        "deflate d4 sq8 plain auto hira health clean w4",
        "lzfast d8 sq8 plain notier refab nohealth aggressive w1",
        "zstdlike d8 sq64 dict dfmfirst refpb health clean w1",
        "deflate d8 sq1 dict dfmfirst rfm nohealth clean w1",
        "zstdlike d8 sq1 plain auto hira health chaos w4",
        // Beyond pairwise: configs/chaos.cfg's point, and the chaos
        // plan on deep rings with breakers at every codec.
        "zstdlike d4 sq8 dict auto rfm health chaos w4",
        "deflate d8 sq64 plain notier hira health chaos w4",
        "lzfast d4 sq8 dict notier refpb health aggressive w4",
    };
    static const auto rows = [] {
        std::vector<Labels> r;
        for (const std::string_view line : text) {
            Labels labels;
            for (const auto word : std::views::split(line, ' '))
                labels.emplace_back(word.begin(), word.end());
            r.push_back(std::move(labels));
        }
        return r;
    }();
    return rows;
}

compress::Algorithm
codecOf(const Labels &row)
{
    for (const auto alg : {compress::Algorithm::LzFast,
                           compress::Algorithm::Deflate,
                           compress::Algorithm::ZstdLike})
        if (algorithmName(alg) == row[Codec])
            return alg;
    ADD_FAILURE() << "unknown codec '" << row[Codec] << "'";
    return compress::Algorithm::ZstdLike;
}

/** kstaled's cold threshold, longer than the demote/promote phase:
 *  the controller finds its first cold page only after it. */
constexpr Tick coldThreshold = milliseconds(5.0);

/** The audit System for @p backend ("xfm" or "baseline"): the page
 *  mix's pages on two DIMMs by default, codec @p alg, and the config
 *  text @p config applied by SystemConfig::fromConfig. */
SystemConfig
systemConfigOf(compress::Algorithm alg, const std::string &config,
               std::string_view backend)
{
    SystemConfig base;
    base.pages = numPages;
    base.sfmBytes = mib(16);
    base.algorithm = alg;
    base.xfm = testutil::testXfmConfig(2);
    base.controller.coldThreshold = coldThreshold;
    base.controller.scanInterval = milliseconds(1.0);
    const Config cfg = Config::parseString(
        config + "backend = " + std::string(backend) + "\n");
    SystemConfig sys = SystemConfig::fromConfig(cfg, base);
    cfg.requireAllConsumed();
    return sys;
}

/** What one audit run leaves behind. */
struct Audit
{
    std::string stats;            ///< both rendered metric snapshots
    std::string json;             ///< both JSON snapshot exports
    std::string trace;            ///< JSON-lines trace export
    obs::Snapshot xfm;            ///< XFM system's end-of-run snapshot
    obs::Snapshot cpu;            ///< baseline system's snapshot
    std::uint64_t injections = 0; ///< faults injected, every site
};

/** Step @p eq until @p fired reaches @p want, for at most 1 s. */
void
runUntil(EventQueue &eq, const std::uint64_t &fired, std::uint64_t want)
{
    const Tick limit = eq.now() + seconds(1.0);
    while (fired < want && eq.now() <= limit && eq.step()) {
    }
}

/** Every page of @p sys is Local and holds its original bytes. */
void
expectRestored(System &sys)
{
    for (VirtPage p = 0; p < numPages; ++p) {
        EXPECT_EQ(sys.backend().pageState(p), PageState::Local)
            << sys.name() << " page " << p;
        EXPECT_EQ(sys.readPage(p), pageFor(p))
            << sys.name() << " page " << p;
    }
}

/**
 * Run the axis values @p labels with codec @p alg on two Systems
 * built from the same config text, one with backend = xfm and one
 * with backend = baseline, on one event queue and one tracer. First
 * every page is demoted and promoted back through sys.backend();
 * then the control plane runs: kstaled finds the pages cold, seeded
 * accesses take demand faults, the spill scan runs on tiered rows,
 * and every page is faulted back. Both systems must restore every
 * byte after each phase, and the run must show what its values
 * promise.
 */
Audit
runAudit(compress::Algorithm alg, const Labels &labels)
{
    const std::string config = configOf(labels);
    SCOPED_TRACE("codec " + algorithmName(alg) + ", config:\n" + config);
    EventQueue eq;
    obs::Tracer tracer;
    System xsys("xfm", eq, systemConfigOf(alg, config, "xfm"));
    System csys("cpu", eq, systemConfigOf(alg, config, "baseline"));
    const std::array<System *, 2> systems = {&xsys, &csys};
    for (System *sys : systems) {
        sys->setTracer(&tracer);
        for (VirtPage p = 0; p < numPages; ++p)
            sys->writePage(p, pageFor(p));
        sys->start();
    }

    // Demote everything. A stack may reject a page it cannot shrink
    // (lzfast on Base64Blob), and a failed spill leaves a page Near;
    // either must leave the page Local and intact. Anything accepted
    // must land Far.
    std::array<std::vector<bool>, 2> far;
    far.fill(std::vector<bool>(numPages, false));
    std::uint64_t fired = 0;
    for (VirtPage p = 0; p < numPages; ++p)
        for (std::size_t i = 0; i < systems.size(); ++i)
            systems[i]->backend().swapOut(
                p, true, [&, i, p](const SwapOutcome &o) {
                    far[i][p] = o.success;
                    ++fired;
                });
    runUntil(eq, fired, 2 * numPages);
    EXPECT_EQ(fired, 2 * numPages);

    // At most the incompressible class (every 6th page) may stay.
    const VirtPage incompressible = numPages / 6;
    std::uint64_t far_pages = 0;
    for (std::size_t i = 0; i < systems.size(); ++i) {
        const std::uint64_t out = std::ranges::count(far[i], true);
        far_pages += out;
        EXPECT_GE(out, numPages - incompressible) << systems[i]->name();
        for (VirtPage p = 0; p < numPages; ++p)
            EXPECT_EQ(systems[i]->backend().pageState(p),
                      far[i][p] ? PageState::Far : PageState::Local)
                << systems[i]->name() << " page " << p;
    }

    // Promote everything back, offload allowed on the XFM side.
    // Faults may reroute a promotion to the CPU path but may not
    // fail it: decompression of committed data always succeeds.
    std::uint64_t in_ok = 0;
    fired = 0;
    for (VirtPage p = 0; p < numPages; ++p)
        for (std::size_t i = 0; i < systems.size(); ++i)
            if (far[i][p])
                systems[i]->backend().swapIn(
                    p, systems[i] == &xsys,
                    [&](const SwapOutcome &o) {
                        in_ok += o.success;
                        ++fired;
                    });
    runUntil(eq, fired, far_pages);
    EXPECT_EQ(in_ok, far_pages);
    EXPECT_LT(eq.now(), coldThreshold);
    for (System *sys : systems)
        expectRestored(*sys);

    // The control plane, last. Past the cold threshold kstaled
    // demotes the untouched pages; seeded accesses then take demand
    // faults (and prefetch along their stride) while the spill scan
    // drains cold XFM pages on tiered rows.
    eq.run(coldThreshold + milliseconds(1.0));
    Rng rng(99);
    for (int i = 0; i < 24; ++i) {
        const VirtPage p = rng.uniformInt(numPages);
        for (System *sys : systems)
            sys->access(p);
        eq.run(eq.now() + microseconds(250.0));
    }
    // Fault every page back. Touching every page first keeps kstaled
    // from starting another swap-out before the audit; in-flight
    // ones settle in the following millisecond.
    for (VirtPage p = 0; p < numPages; ++p)
        for (System *sys : systems)
            sys->access(p);
    eq.run(eq.now() + milliseconds(1.0));
    for (int round = 0; round < 100; ++round) {
        bool all_local = true;
        for (VirtPage p = 0; p < numPages; ++p)
            for (System *sys : systems)
                if (sys->backend().pageState(p) != PageState::Local) {
                    all_local = false;
                    sys->access(p);
                }
        if (all_local)
            break;
        eq.run(eq.now() + microseconds(100.0));
    }
    // The payoff: both stacks restore the original bytes exactly.
    for (System *sys : systems)
        expectRestored(*sys);

    Audit a;
    a.xfm = xsys.metrics().snapshot();
    a.cpu = csys.metrics().snapshot();
    a.stats = a.xfm.renderText() + a.cpu.renderText();
    a.json = a.xfm.toJson() + a.cpu.toJson();
    a.trace = tracer.toJsonLines();
    a.injections = xsys.faultInjections() + csys.faultInjections();
    EXPECT_FALSE(a.trace.empty());  // the tracer saw the swaps

    const SystemConfig &cfg = xsys.config();
    const obs::Snapshot &x = a.xfm;
    if (!cfg.xfm.faults.anyArmed()) {
        // Some swap rode the NMA, and nothing retried.
        EXPECT_GT(x.u64("xfm.backend.offloadedSwapOuts"), 0u);
        EXPECT_EQ(x.u64("xfm.backend.offloadRetries"), 0u);
    } else {
        // Faults fired, and some swap-outs degraded to the CPU.
        EXPECT_GT(a.injections, 0u);
        EXPECT_GT(x.u64("xfm.backend.cpuSwapOuts"), 0u);
    }
    if (cfg.xfm.shardDict) {
        // One DIMM gets no page dictionary: its shard is the page.
        if (cfg.xfm.numDimms == 1)
            EXPECT_EQ(x.u64("xfm.backend.dictShards"), 0u);
        else
            EXPECT_GT(x.u64("xfm.backend.dictShards"), 0u);
    }
    for (const obs::Snapshot *s : {&a.xfm, &a.cpu}) {
        const std::string p = s == &a.xfm ? "xfm." : "cpu.";
        // kstaled demoted cold pages and accesses faulted them back.
        EXPECT_GT(s->u64(p + "controller.swapOutsInitiated"), 0u) << p;
        EXPECT_GT(s->u64(p + "controller.demandFaults"), 0u) << p;
        if (cfg.tier.enabled) {
            // Both tiers engaged, and the spill scan moved cold
            // pages from the compressed tier to DFM.
            EXPECT_GT(s->u64(p + "tiers.tier.demotedNearToDfm"), 0u) << p;
            EXPECT_GT(s->u64(p + "tiers.tier.demotedNearToXfm"), 0u) << p;
            EXPECT_GT(s->u64(p + "tiers.tier.spillScans"), 0u) << p;
            EXPECT_GT(s->u64(p + "tiers.tier.demotedXfmToDfm"), 0u) << p;
        }
    }
    return a;
}

void
expectSameExports(const Audit &a, const Audit &b)
{
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.json, b.json);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.injections, b.injections);
}

std::string
rowName(const Labels &row)
{
    std::string name;
    for (const std::string_view label : row)
        (name += name.empty() ? "" : "_") += label;
    return name;
}

/**
 * The chaos plan with breakers on a deep ring at workers = 4: its
 * channels trip, so breaker-routed shards are coded on the CPU next
 * to offloaded ones, plus whole pages on the CPU. Shallower or
 * tier-thinned rows may offload too little to trip a channel.
 */
constexpr std::string_view mixedRoutesRow =
    "lzfast_d2_sq64_plain_auto_rfm_health_chaos_w4";

TEST(FeatureAuditTable, CoversEveryPair)
{
    const auto &ax = axes();
    ASSERT_EQ(ax.size(), axisCount);
    for (const auto &row : auditRows()) {
        ASSERT_EQ(row.size(), axisCount) << rowName(row);
        for (std::size_t a = 0; a < axisCount; ++a)
            EXPECT_TRUE(std::ranges::any_of(
                ax[a].values,
                [&](const AxisValue &v) { return v.label == row[a]; }))
                << rowName(row) << ": no " << ax[a].name << " value";
    }
    for (std::size_t i = 0; i < axisCount; ++i)
        for (std::size_t j = i + 1; j < axisCount; ++j)
            for (const AxisValue &u : ax[i].values)
                for (const AxisValue &v : ax[j].values)
                    EXPECT_TRUE(std::ranges::any_of(
                        auditRows(),
                        [&](const auto &row) {
                            return row[i] == u.label
                                && row[j] == v.label;
                        }))
                        << "no row has " << ax[i].name << " = " << u.label
                        << " with " << ax[j].name << " = " << v.label;
    EXPECT_TRUE(std::ranges::any_of(auditRows(), [](const Labels &row) {
        return rowName(row) == mixedRoutesRow;
    }));
}

class FeatureAudit : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FeatureAudit, RestoresAndReplays)
{
    const Labels &row = auditRows()[GetParam()];
    const compress::Algorithm alg = codecOf(row);
    const Audit a = runAudit(alg, row);
    expectSameExports(a, runAudit(alg, row));
    if (row[Workers] == "w4") {
        Labels twin = row;
        twin[Workers] = "w1";
        expectSameExports(a, runAudit(alg, twin));
    }
    if (rowName(row) == mixedRoutesRow) {
        EXPECT_GT(a.xfm.u64("xfm.backend.shardCpuFallbacks"), 0u);
        EXPECT_GT(a.xfm.u64("xfm.backend.cpuSwapOuts"), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, FeatureAudit,
    ::testing::Range<std::size_t>(0, auditRows().size()),
    [](const auto &info) { return rowName(auditRows()[info.param]); });

// Named points of the audit at every codec, on the default two
// DIMMs and ring.

class DifferentialTest
    : public ::testing::TestWithParam<compress::Algorithm>
{
  protected:
    void run(const Labels &labels) { runAudit(GetParam(), labels); }
};

TEST_P(DifferentialTest, FaultedRunWithBreakersRestoresAllPages)
{
    run({"aggressive", "health"});
}

TEST_P(DifferentialTest, RingDepthEightFaultedRestoresAllPages)
{
    run({"sq8", "aggressive", "health"});
}

TEST_P(DifferentialTest, DictFaultedRunRestoresAllPages)
{
    run({"dict", "aggressive", "health"});
}

TEST_P(DifferentialTest, DictRingDepthEightFaultedRestoresAllPages)
{
    run({"dict", "sq8", "aggressive"});
}

TEST_P(DifferentialTest, TieredCleanRunRestoresAllPages)
{
    run({"auto"});
}

TEST_P(DifferentialTest, TieredFaultedRunRestoresAllPages)
{
    run({"auto", "aggressive"});
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, DifferentialTest,
                         ::testing::Values(
                             compress::Algorithm::LzFast,
                             compress::Algorithm::Deflate,
                             compress::Algorithm::ZstdLike),
                         [](const auto &info) {
                             return algorithmName(info.param);
                         });

} // namespace
} // namespace xfm
