/**
 * @file
 * Tests for the workload generators and SPEC-like profiles.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workload/spec_model.hh"
#include "workload/trace_gen.hh"

namespace xfm
{
namespace workload
{
namespace
{

TEST(SpecModel, EightMemoryIntensiveProfiles)
{
    const auto mix = specMemoryIntensiveMix();
    EXPECT_EQ(mix.size(), 8u);
    std::set<std::string> names;
    for (const auto &app : mix) {
        names.insert(app.name);
        EXPECT_GT(app.ipcAlone, 0.0);
        EXPECT_LE(app.ipcAlone, 2.0);
        EXPECT_GT(app.llcApki, 0.0);
        EXPECT_GT(app.workingSetMiB, 0.0);
        EXPECT_GT(app.bandwidthGBps, 0.0);
        EXPECT_GT(app.memStallFraction, 0.0);
        EXPECT_LT(app.memStallFraction, 1.0);
    }
    EXPECT_EQ(names.size(), 8u);
}

TEST(SwapTrace, EventRateMatchesPromotionRate)
{
    SwapTraceConfig cfg;
    cfg.farCapacityGB = 512.0;
    cfg.promotionRate = 0.5;
    SwapTraceGenerator gen(cfg);
    // EQ1: 256 GB/min promoted = ~1.09 M pages/s in, matched by the
    // same rate out.
    const double pages_per_sec = 256.0 * 1e9 / 4096.0 / 60.0;
    EXPECT_NEAR(gen.eventsPerSecond(), 2.0 * pages_per_sec,
                pages_per_sec * 0.01);
}

TEST(SwapTrace, EventsAreTimeOrderedAndPaired)
{
    SwapTraceConfig cfg;
    cfg.farCapacityGB = 1.0;
    cfg.promotionRate = 0.5;
    SwapTraceGenerator gen(cfg);
    Tick prev = 0;
    int ins = 0;
    int outs = 0;
    for (int i = 0; i < 2000; ++i) {
        const SwapEvent e = gen.next();
        EXPECT_GE(e.when, prev);
        prev = e.when;
        if (e.kind == SwapKind::SwapIn)
            ++ins;
        else
            ++outs;
        EXPECT_LT(e.page, gen.farPages());
    }
    EXPECT_EQ(ins, outs);  // steady state: every in pairs with out
}

TEST(SwapTrace, MeasuredRateMatchesConfig)
{
    SwapTraceConfig cfg;
    cfg.farCapacityGB = 4.0;
    cfg.promotionRate = 1.0;
    SwapTraceGenerator gen(cfg);
    const int events = 20000;
    Tick last = 0;
    for (int i = 0; i < events; ++i)
        last = gen.next().when;
    const double measured =
        static_cast<double>(events) / ticksToSec(last);
    EXPECT_NEAR(measured, gen.eventsPerSecond(),
                gen.eventsPerSecond() * 0.1);
}

TEST(SwapTrace, PromotedBytesMatchEq1)
{
    SwapTraceConfig cfg;
    cfg.farCapacityGB = 8.0;
    cfg.promotionRate = 0.5;
    SwapTraceGenerator gen(cfg);
    int ins = 0;
    int outs = 0;
    Tick first = 0;
    Tick last = 0;
    for (int i = 0; i < 20000; ++i) {
        const SwapEvent e = gen.next();
        first = i == 0 ? e.when : first;
        last = e.when;
        ++(e.kind == SwapKind::SwapIn ? ins : outs);
    }
    EXPECT_EQ(ins, outs);
    // EQ1: 8 GB x 50%/min = 4 GB promoted per minute.
    const double gb = static_cast<double>(ins) * pageBytes / 1e9;
    EXPECT_NEAR(gb / (ticksToSec(last - first) / 60.0), 4.0, 0.4);
}

TEST(SwapTrace, PredictabilityControlsPrefetchableShare)
{
    SwapTraceConfig cfg;
    cfg.farCapacityGB = 1.0;
    cfg.predictability = 0.75;
    SwapTraceGenerator gen(cfg);
    int prefetchable = 0;
    int swap_ins = 0;
    for (int i = 0; i < 20000; ++i) {
        const SwapEvent e = gen.next();
        if (e.kind == SwapKind::SwapIn) {
            ++swap_ins;
            if (e.prefetchable)
                ++prefetchable;
        }
    }
    EXPECT_NEAR(static_cast<double>(prefetchable) / swap_ins, 0.75,
                0.03);
}

TEST(SwapTrace, ZipfSkewsPagePopularity)
{
    SwapTraceConfig cfg;
    cfg.farCapacityGB = 1.0;  // 262144 pages
    cfg.zipfTheta = 0.99;
    SwapTraceGenerator gen(cfg);
    std::uint64_t low = 0;
    std::uint64_t total = 0;
    for (int i = 0; i < 20000; ++i) {
        const SwapEvent e = gen.next();
        if (e.kind != SwapKind::SwapIn)
            continue;
        ++total;
        if (e.page < gen.farPages() / 10)
            ++low;
    }
    EXPECT_GT(static_cast<double>(low) / total, 0.4);
}

TEST(SwapTrace, Deterministic)
{
    SwapTraceConfig cfg;
    SwapTraceGenerator a(cfg);
    SwapTraceGenerator b(cfg);
    for (int i = 0; i < 100; ++i) {
        const SwapEvent ea = a.next();
        const SwapEvent eb = b.next();
        EXPECT_EQ(ea.when, eb.when);
        EXPECT_EQ(ea.page, eb.page);
        EXPECT_EQ(static_cast<int>(ea.kind),
                  static_cast<int>(eb.kind));
    }
}

TEST(WebFrontend, RequestRateHonoured)
{
    WebFrontendConfig cfg;
    cfg.requestsPerSecond = 1000.0;
    WebFrontendGenerator gen(cfg);
    ObjectAccess last{};
    for (int i = 0; i < 5000; ++i)
        last = gen.next();
    EXPECT_NEAR(5000.0 / ticksToSec(last.when), 1000.0, 10.0);
}

TEST(WebFrontend, PopularityDriftsAcrossEpochs)
{
    WebFrontendConfig cfg;
    cfg.objects = 10000;
    cfg.requestsPerSecond = 100000.0;
    cfg.epoch = seconds(1.0);
    WebFrontendGenerator gen(cfg);

    auto top_object = [&](int samples) {
        std::map<std::uint64_t, int> hist;
        for (int i = 0; i < samples; ++i)
            ++hist[gen.next().object];
        std::uint64_t best = 0;
        int best_count = -1;
        for (auto [obj, count] : hist) {
            if (count > best_count) {
                best = obj;
                best_count = count;
            }
        }
        return best;
    };

    const auto first = top_object(80000);   // epoch 0
    const auto second = top_object(80000);  // later epoch (drifted)
    EXPECT_NE(first, second);
}

TEST(WebFrontend, ObjectsInRange)
{
    WebFrontendConfig cfg;
    cfg.objects = 100;
    WebFrontendGenerator gen(cfg);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(gen.next().object, 100u);
}

} // namespace
} // namespace workload
} // namespace xfm

#include "workload/promotion_tracker.hh"

namespace xfm
{
namespace workload
{
namespace
{

TEST(PromotionTracker, SteadyRateMatchesDefinition)
{
    // 1 GB far memory; promote 256 KiB every 60 ms for a minute:
    // 1000 promotions x 262144 B = ~0.26 GB/min => ~24.4% rate.
    PromotionTracker t(1000000000ull);
    for (int i = 0; i < 1000; ++i)
        t.recordPromotion(milliseconds(60.0 * i), 262144);
    const double r = t.rate(seconds(60.0));
    EXPECT_NEAR(r, 0.262, 0.01);
}

TEST(PromotionTracker, WindowForgetsOldEvents)
{
    PromotionTracker t(1000000000ull, seconds(60.0));
    t.recordPromotion(0, 500000000);  // half the capacity at t=0
    EXPECT_NEAR(t.rate(seconds(1.0)), 0.5, 1e-9);
    // After the window passes the burst is forgotten.
    EXPECT_NEAR(t.rate(seconds(120.0)), 0.0, 1e-12);
    EXPECT_EQ(t.lifetimeBytes(), 500000000u);
}

TEST(PromotionTracker, PaperExampleTwentyPercent)
{
    // Sec. 2.1: "A 20% promotion rate for a 512GB far memory implies
    // that 102GB of the far memory is accessed during a 60-second
    // interval."
    PromotionTracker t(512ull * 1000000000ull);
    t.recordPromotion(seconds(30.0), 102ull * 1000000000ull + 400000000ull);
    EXPECT_NEAR(t.rate(seconds(59.0)), 0.2, 0.001);
}

} // namespace
} // namespace workload
} // namespace xfm
