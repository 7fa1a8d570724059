/**
 * @file
 * Observability-layer tests: JSON literals, registry registration
 * rules, snapshot export round-trips, delta/reset semantics, tracer
 * ring-buffer accounting, and the Histogram saturation regression
 * (out-of-range samples must participate in percentile rank math
 * and surface as underflow/overflow counts).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "obs/tracer.hh"

namespace xfm
{
namespace obs
{
namespace
{

// -------------------------------------------------------------- json

TEST(Json, ParsesLiterals)
{
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse("[true,false,null]", v, error)) << error;
    const json::Array &items = v.array();
    ASSERT_EQ(items.size(), 3u);
    EXPECT_EQ(items[0].type(), json::Value::Type::Bool);
    EXPECT_TRUE(items[0].boolean());
    EXPECT_EQ(items[1].type(), json::Value::Type::Bool);
    EXPECT_FALSE(items[1].boolean());
    EXPECT_EQ(items[2].type(), json::Value::Type::Null);
}

TEST(Json, RejectsBadLiterals)
{
    for (const char *text : {"tru", "nul", "falsy"}) {
        json::Value v;
        std::string error;
        EXPECT_FALSE(json::parse(text, v, error)) << text;
        EXPECT_NE(error.find("bad literal"), std::string::npos)
            << text << ": " << error;
    }
}

// ---------------------------------------------------------- registry

TEST(Registry, NameCollisionRejected)
{
    MetricRegistry r;
    std::uint64_t a = 0;
    double g = 0.0;
    r.counter("x.count", &a);
    EXPECT_THROW(r.counter("x.count", &a), FatalError);
    // Collisions are rejected across kinds, not just within one.
    EXPECT_THROW(r.gauge("x.count", &g), FatalError);
    EXPECT_THROW(r.derived("x.count", [] { return 0.0; }),
                 FatalError);
    EXPECT_TRUE(r.contains("x.count"));
    EXPECT_EQ(r.size(), 1u);
}

TEST(Registry, SnapshotReadsLiveValues)
{
    MetricRegistry r;
    std::uint64_t c = 0;
    double g = 1.5;
    r.counter("a.ops", &c);
    r.gauge("a.level", &g);
    r.derived("a.twice", [&] { return g * 2.0; });

    c = 41;
    const Snapshot s1 = r.snapshot();
    EXPECT_EQ(s1.u64("a.ops"), 41u);
    EXPECT_DOUBLE_EQ(s1.value("a.level"), 1.5);
    EXPECT_DOUBLE_EQ(s1.value("a.twice"), 3.0);

    // The registry holds pointers, not copies: later snapshots see
    // later values, earlier snapshots stay frozen.
    c = 100;
    g = 2.0;
    EXPECT_EQ(s1.u64("a.ops"), 41u);
    EXPECT_EQ(r.snapshot().u64("a.ops"), 100u);
    EXPECT_DOUBLE_EQ(r.snapshot().value("a.twice"), 4.0);
}

TEST(Registry, DeltaSubtractsMonotoneOnly)
{
    MetricRegistry r;
    std::uint64_t c = 10;
    double g = 5.0;
    r.counter("n.ops", &c);
    r.gauge("n.level", &g);

    const Snapshot base = r.snapshot();
    c = 25;
    g = 7.0;
    const Snapshot d = r.snapshot().delta(base);
    EXPECT_EQ(d.u64("n.ops"), 15u);         // monotone: subtracted
    EXPECT_DOUBLE_EQ(d.value("n.level"), 7.0);  // level: passes through
}

TEST(Registry, ResetZeroesOwnedStorage)
{
    MetricRegistry r;
    std::uint64_t c = 9;
    double g = 3.0;
    stats::Histogram h(0.0, 10.0, 10);
    h.sample(5.0);
    r.counter("z.ops", &c);
    r.gauge("z.level", &g);
    r.histogram("z.hist", &h);

    r.reset();
    EXPECT_EQ(c, 0u);
    EXPECT_DOUBLE_EQ(g, 0.0);
    EXPECT_EQ(h.total(), 0u);
}

TEST(Registry, MissingLeafThrows)
{
    MetricRegistry r;
    const Snapshot s = r.snapshot();
    EXPECT_FALSE(s.has("no.such.metric"));
    EXPECT_THROW(s.u64("no.such.metric"), FatalError);
    EXPECT_THROW(s.value("no.such.metric"), FatalError);
}

// -------------------------------------------------- JSON round-trip

TEST(Registry, JsonSnapshotParsesBack)
{
    MetricRegistry r;
    std::uint64_t c = 12345;
    double g = 0.25;
    stats::Average avg;
    avg.sample(2.0);
    avg.sample(4.0);
    r.counter("rt.ops", &c, "operations");
    r.gauge("rt.level", &g);
    r.average("rt.lat", &avg);

    const std::string text = r.toJson();
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(text, v, error)) << error;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.at("schema").str(), snapshotSchema);
    const json::Object &metrics = v.at("metrics").object();
    ASSERT_TRUE(v.at("metrics").isObject());

    // Every snapshot leaf appears, with the exact value.
    const Snapshot snap = r.snapshot();
    EXPECT_EQ(metrics.size(), snap.leaves().size());
    ASSERT_TRUE(v.at("metrics").has("rt.ops"));
    EXPECT_TRUE(metrics.at("rt.ops").isIntegral());
    EXPECT_EQ(metrics.at("rt.ops").integer(), 12345);
    EXPECT_DOUBLE_EQ(metrics.at("rt.level").number(), 0.25);
    EXPECT_DOUBLE_EQ(metrics.at("rt.lat.mean").number(), 3.0);
    EXPECT_EQ(metrics.at("rt.lat.count").integer(), 2);
}

TEST(Registry, JsonIsByteStableAcrossEquivalentBuilds)
{
    // Two registries built in different registration orders must
    // export identical bytes: export order is name-sorted, not
    // insertion-ordered.
    std::uint64_t a = 7, b = 8;
    MetricRegistry r1, r2;
    r1.counter("m.alpha", &a);
    r1.counter("m.beta", &b);
    r2.counter("m.beta", &b);
    r2.counter("m.alpha", &a);
    EXPECT_EQ(r1.toJson(), r2.toJson());
    EXPECT_EQ(r1.renderText(), r2.renderText());
}

// ----------------------------------------------------------- tracer

TEST(Tracer, RingOverflowAccounting)
{
    Tracer t(4);
    EXPECT_EQ(t.capacity(), 4u);
    for (int i = 0; i < 10; ++i) {
        const std::uint64_t req = t.begin();
        t.point(req, Stage::Complete, Tick(i));
    }
    EXPECT_EQ(t.requestsBegun(), 10u);
    EXPECT_EQ(t.recorded(), 10u);   // all events counted...
    EXPECT_EQ(t.size(), 4u);        // ...but only capacity retained
    EXPECT_EQ(t.dropped(), 6u);     // and the evictions accounted

    // The survivors are the most recent four, oldest first.
    const auto events = t.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().req, 7u);
    EXPECT_EQ(events.back().req, 10u);
    EXPECT_EQ(events.front().start, Tick(6));
}

TEST(Tracer, JsonLinesParseBack)
{
    Tracer t(16);
    const std::uint64_t req = t.begin();
    t.record(req, Stage::Engine, 100, 250, 1);
    t.point(req, Stage::Complete, 250, outcomeOffloaded);

    const std::string lines = t.toJsonLines();
    std::size_t seen = 0;
    std::size_t pos = 0;
    while (pos < lines.size()) {
        const std::size_t nl = lines.find('\n', pos);
        ASSERT_NE(nl, std::string::npos);
        const std::string line = lines.substr(pos, nl - pos);
        pos = nl + 1;
        json::Value v;
        std::string error;
        ASSERT_TRUE(json::parse(line, v, error)) << error;
        EXPECT_EQ(v.at("req").integer(), 1);
        EXPECT_GE(v.at("end").integer(), v.at("start").integer());
        EXPECT_FALSE(v.at("stage").str().empty());
        ++seen;
    }
    EXPECT_EQ(seen, 2u);
}

TEST(Tracer, ClearIsFullReset)
{
    Tracer t(8);
    const std::uint64_t first = t.begin();
    t.point(first, Stage::Complete, 1);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
    // clear() restarts the id sequence too: a same-seed rerun after
    // a clear reproduces byte-identical trace output.
    EXPECT_EQ(t.begin(), first);
}

// ------------------------------------------- histogram saturation

TEST(Histogram, SaturatingSamplesCountTowardPercentiles)
{
    // Regression: out-of-range samples must participate in the rank
    // computation. 90 underflow + 10 in-range: p50 lands in the
    // underflow mass and must clamp to lo, not report an in-range
    // bucket as if the underflow never happened.
    stats::Histogram h(100.0, 200.0, 10);
    for (int i = 0; i < 90; ++i)
        h.sample(-5.0);
    for (int i = 0; i < 10; ++i)
        h.sample(150.0);
    EXPECT_EQ(h.underflow(), 90u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.total(), 100u);
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 100.0);  // clamped to lo
    EXPECT_GT(h.percentile(0.99), 100.0);         // tail is in-range

    // Mirror image: overflow mass must pull high percentiles to hi.
    stats::Histogram o(100.0, 200.0, 10);
    for (int i = 0; i < 10; ++i)
        o.sample(150.0);
    for (int i = 0; i < 90; ++i)
        o.sample(1e9);
    EXPECT_EQ(o.overflow(), 90u);
    EXPECT_DOUBLE_EQ(o.percentile(0.99), 200.0);  // clamped to hi
    EXPECT_DOUBLE_EQ(o.percentile(0.50), 200.0);  // rank inside overflow
}

TEST(Histogram, SaturationCountsExposedInSnapshot)
{
    stats::Histogram h(0.0, 10.0, 10);
    h.sample(-1.0);
    h.sample(5.0);
    h.sample(99.0);

    MetricRegistry r;
    r.histogram("lat", &h);
    const Snapshot s = r.snapshot();
    EXPECT_EQ(s.u64("lat.count"), 3u);
    EXPECT_EQ(s.u64("lat.underflow"), 1u);
    EXPECT_EQ(s.u64("lat.overflow"), 1u);
    // And they reach the JSON export under the same names.
    const std::string text = r.toJson();
    json::Value v;
    std::string error;
    ASSERT_TRUE(json::parse(text, v, error)) << error;
    EXPECT_EQ(v.at("metrics").at("lat.underflow").integer(), 1);
    EXPECT_EQ(v.at("metrics").at("lat.overflow").integer(), 1);
}

} // namespace
} // namespace obs
} // namespace xfm
