/**
 * @file
 * Unit tests for the common library: logging, units, RNG, stats.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/units.hh"

namespace xfm
{
namespace
{

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config value ", 42), FatalError);
}

TEST(Logging, FatalMessageContainsArguments)
{
    try {
        fatal("limit=", 17, " exceeded");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("limit=17"),
                  std::string::npos);
    }
}

TEST(Units, TimeConversionsExact)
{
    EXPECT_EQ(nanoseconds(1.0), 1000u);
    EXPECT_EQ(microseconds(1.0), 1000000u);
    EXPECT_EQ(milliseconds(32.0), 32000000000ull);
    EXPECT_EQ(seconds(1.0), 1000000000000ull);
    EXPECT_DOUBLE_EQ(ticksToNs(nanoseconds(410.0)), 410.0);
    EXPECT_DOUBLE_EQ(ticksToMs(milliseconds(32.0)), 32.0);
}

TEST(Units, ByteHelpers)
{
    EXPECT_EQ(kib(4), 4096u);
    EXPECT_EQ(mib(2), 2097152u);
    EXPECT_EQ(gib(1), 1073741824u);
    EXPECT_EQ(tib(1), gib(1024));
    EXPECT_EQ(pageBytes, kib(4));
}

TEST(Units, BandwidthConversion)
{
    // 25 bytes in 1 ns = 25 GB/s.
    EXPECT_DOUBLE_EQ(bytesPerTickToGBps(25.0, nanoseconds(1.0)), 25.0);
    EXPECT_DOUBLE_EQ(bytesPerTickToGBps(100.0, 0), 0.0);
}

TEST(Units, Formatters)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(kib(4)), "4.00 KiB");
    EXPECT_EQ(formatBytes(mib(8)), "8.00 MiB");
    EXPECT_EQ(formatTicks(nanoseconds(410.0)), "410.00 ns");
}

TEST(Rng, Deterministic)
{
    Rng a(12345);
    Rng b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(11);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(13);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (rng.chance(0.25))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, ZipfSkewsTowardLowRanks)
{
    Rng rng(17);
    const std::uint64_t n = 1000;
    std::uint64_t low = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i)
        if (rng.zipf(n, 0.99) < n / 10)
            ++low;
    // With theta ~1, far more than 10% of mass is in the lowest 10%.
    EXPECT_GT(static_cast<double>(low) / draws, 0.5);
}

TEST(Rng, ZipfZeroThetaIsUniform)
{
    Rng rng(19);
    const std::uint64_t n = 10;
    std::vector<int> hist(n, 0);
    const int draws = 50000;
    for (int i = 0; i < draws; ++i)
        ++hist[rng.zipf(n, 0.0)];
    for (auto h : hist)
        EXPECT_NEAR(static_cast<double>(h) / draws, 0.1, 0.02);
}

/** Multiplicative inverse of odd @p a modulo 2^64 (Newton). */
constexpr std::uint64_t
inverseMod64(std::uint64_t a)
{
    std::uint64_t x = a; // correct to 3 bits; each step doubles that
    for (int i = 0; i < 5; ++i)
        x *= 2 - a * x;
    return x;
}

/**
 * An Rng whose next() has @p m as its top 53 bits (so uniformReal()
 * is m * 2^-53), its other state words and low bits from @p filler.
 * xoshiro256**'s output depends only on state word 1, which inverts.
 */
Rng
rngDrawing(std::uint64_t m, Rng &filler)
{
    const std::uint64_t out = m << 11 | (filler.next() & 0x7FF);
    const std::uint64_t s0 = filler.next();
    const std::uint64_t s1 =
        std::rotr(out * inverseMod64(9), 7) * inverseMod64(5);
    const std::uint64_t s2 = filler.next();
    const std::uint64_t s3 = filler.next();
    return Rng({s0, s1, s2, s3});
}

TEST(Rng, CraftedStateDrawsChosenValue)
{
    Rng filler(5);
    for (const std::uint64_t m : {0ull, 1ull, 12345ull, (1ull << 53) - 1}) {
        Rng rng = rngDrawing(m, filler);
        EXPECT_EQ(rng.next() >> 11, m);
    }
}

class ZipfSamplerOracle : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ZipfSamplerOracle, MatchesRngZipfDrawForDraw)
{
    // From equal generator states, the sampler and Rng::zipf return
    // the same value and leave the states equal. Probed at every m in
    // and 2 beyond each guard window, where rounding decides the
    // step, and at 10^6 random draws for each theta.
    constexpr std::uint64_t top = (1ull << 53) - 1;
    const std::uint64_t n = GetParam();
    Rng filler(31);
    for (const double theta : {-0.5, 0.0, 0.4, 0.8, 0.9, 0.99, 1.0, 1.2}) {
        SCOPED_TRACE(testing::Message() << "theta=" << theta);
        const ZipfSampler zipf(n, theta);
        std::uint64_t checked = 0;
        std::uint64_t mismatches = 0;
        const auto check = [&](Rng ref) {
            Rng fast = ref;
            const std::uint64_t want = ref.zipf(n, theta);
            if (zipf(fast) != want || !(fast == ref))
                ++mismatches;
            ++checked;
        };
        const auto probe = [&](std::uint64_t from, std::uint64_t to) {
            for (std::uint64_t m = from; m <= to; ++m)
                check(rngDrawing(m, filler));
        };
        EXPECT_EQ(zipf.windows().size(),
                  theta <= 0.0 ? 0 : std::max<std::uint64_t>(n - 1, 1));
        for (const auto &w : zipf.windows()) {
            const std::uint64_t lo = w.lo < 2 ? 0 : w.lo - 2;
            const std::uint64_t hi = std::min(w.hi + 2, top);
            if (hi - lo < 4096) {
                probe(lo, hi);
            } else {
                // n = 1: one window spans every m; probe its ends.
                probe(lo, lo + 4);
                probe(hi - 4, hi);
            }
        }
        Rng rng(n);
        for (int i = 0; i < 1000000; ++i) {
            check(rng);
            rng.next();
        }
        EXPECT_EQ(mismatches, 0u) << "of " << checked << " draws";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ZipfSamplerOracle,
    ::testing::Values(1, 2, 4, 20, 64, 128, 1000),
    [](const auto &info) {
        std::string name = "n";
        name += std::to_string(info.param);
        return name;
    });

TEST(ZipfSampler, RejectsTablesAboveMaxN)
{
    EXPECT_DEATH(ZipfSampler(ZipfSampler::maxN + 1, 0.9), "O\\(n\\)");
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(23);
    const double p = 0.2;
    double sum = 0;
    const int draws = 50000;
    for (int i = 0; i < draws; ++i)
        sum += static_cast<double>(rng.geometric(p));
    // Mean of geometric (failures before success) is (1-p)/p = 4.
    EXPECT_NEAR(sum / draws, 4.0, 0.15);
}

TEST(Stats, CounterBasics)
{
    stats::Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageTracksMoments)
{
    stats::Average a;
    a.sample(1.0);
    a.sample(2.0);
    a.sample(9.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 4.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(Stats, AverageEmptyIsZero)
{
    stats::Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Stats, HistogramBucketsAndTails)
{
    stats::Histogram h(0.0, 10.0, 10);
    h.sample(-1.0);
    h.sample(0.5);
    h.sample(9.5);
    h.sample(15.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(9), 1u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Stats, HistogramPercentile)
{
    stats::Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i) + 0.5);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 2.0);
    EXPECT_NEAR(h.percentile(0.99), 99.0, 2.0);
}

TEST(Stats, AverageResetRestoresEmptySemantics)
{
    stats::Average a;
    a.sample(-7.0);
    a.sample(3.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
    // min/max must re-initialise, not remember pre-reset extremes.
    a.sample(5.0);
    EXPECT_DOUBLE_EQ(a.min(), 5.0);
    EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(Stats, HistogramResetClearsEverything)
{
    stats::Histogram h(0.0, 10.0, 10);
    h.sample(-1.0);
    h.sample(5.0);
    h.sample(20.0);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_EQ(h.bucketCount(i), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
    // Reusable after reset.
    h.sample(5.0);
    EXPECT_EQ(h.bucketCount(5), 1u);
    EXPECT_EQ(h.total(), 1u);
}

TEST(Stats, HistogramSingleSamplePercentile)
{
    // A lone sample must dominate every percentile; the truncated
    // rank p * total == 0 used to report lo instead.
    stats::Histogram h(0.0, 100.0, 100);
    h.sample(42.5);
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 43.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 43.0);
}

TEST(Stats, HistogramBucketEdgeValues)
{
    stats::Histogram h(0.0, 10.0, 10);
    h.sample(0.0);   // lo is in range -> bucket 0
    h.sample(3.0);   // interior bucket boundary -> bucket 3
    h.sample(10.0);  // hi is out of range ([lo, hi))
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.underflow(), 0u);
}

} // namespace
} // namespace xfm

#include "common/config.hh"

namespace xfm
{
namespace
{

TEST(Config, ParsesKeysAndTypes)
{
    const auto cfg = Config::parseString(
        "backend = xfm\n"
        "pages=1024   # trailing comment\n"
        "rate = 0.25\n"
        "verbose = true\n");
    EXPECT_EQ(cfg.getString("backend"), "xfm");
    EXPECT_EQ(cfg.getU64("pages"), 1024u);
    EXPECT_DOUBLE_EQ(cfg.getDouble("rate"), 0.25);
    EXPECT_TRUE(cfg.getBool("verbose"));
}

TEST(Config, DefaultsWhenAbsent)
{
    const auto cfg = Config::parseString("");
    EXPECT_EQ(cfg.getString("x", "d"), "d");
    EXPECT_EQ(cfg.getU64("y", 7), 7u);
    EXPECT_DOUBLE_EQ(cfg.getDouble("z", 1.5), 1.5);
    EXPECT_FALSE(cfg.getBool("w", false));
    EXPECT_FALSE(cfg.has("x"));
}

TEST(Config, MalformedLineFatal)
{
    EXPECT_THROW(Config::parseString("just a line\n"), FatalError);
    EXPECT_THROW(Config::parseString("= value\n"), FatalError);
}

TEST(Config, BadTypesFatal)
{
    const auto cfg = Config::parseString(
        "n = abc\nb = maybe\nneg = -1\n"
        "wide = 4294967304\nhuge = 99999999999999999999999\n");
    EXPECT_THROW(cfg.getU64("n"), FatalError);
    // strtoull would wrap -1 to 2^64 - 1.
    EXPECT_THROW(cfg.getU64("neg"), FatalError);
    // ...and saturate an overflow at 2^64 - 1 (ERANGE).
    EXPECT_THROW(cfg.getU64("huge"), FatalError);
    EXPECT_THROW(cfg.getU32("huge"), FatalError);
    // 2^32 + 8 is a valid u64 but would truncate to 8 as a u32.
    EXPECT_EQ(cfg.getU64("wide"), 4294967304ull);
    EXPECT_THROW(cfg.getU32("wide"), FatalError);
    EXPECT_THROW(cfg.getDouble("n"), FatalError);
    EXPECT_THROW(cfg.getBool("b"), FatalError);
}

TEST(Config, U32AcceptsItsFullRange)
{
    const auto cfg = Config::parseString("max = 0xffffffff\n");
    EXPECT_EQ(cfg.getU32("max"), 0xffffffffu);
    EXPECT_EQ(cfg.getU32("absent", 5), 5u);
}

TEST(Config, NonFiniteDoublesFatal)
{
    // A run length of nan never ends and inf runs nothing; no config
    // quantity is meaningfully non-finite.
    const auto cfg = Config::parseString(
        "a = nan\nb = inf\nc = -INF\nd = 1e999\ne = 1e300\n");
    EXPECT_THROW(cfg.getDouble("a"), FatalError);
    EXPECT_THROW(cfg.getDouble("b"), FatalError);
    EXPECT_THROW(cfg.getDouble("c"), FatalError);
    EXPECT_THROW(cfg.getDouble("d"), FatalError);  // overflows to inf
    EXPECT_DOUBLE_EQ(cfg.getDouble("e"), 1e300);
}

TEST(Config, LastValueWinsAndOrderKept)
{
    const auto cfg = Config::parseString("a = 1\nb = 2\na = 3\n");
    EXPECT_EQ(cfg.getU64("a"), 3u);
    const auto keys = cfg.keys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "a");
    EXPECT_EQ(keys[1], "b");
}

TEST(Config, TracksUnconsumedKeys)
{
    const auto cfg = Config::parseString("used = 1\ntypo = 2\n");
    cfg.getU64("used");
    const auto unused = cfg.unconsumedKeys();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "typo");
}

TEST(Config, UnreadKeyIsFatal)
{
    // A retired option left in a config file must fail loudly, not
    // run the experiment silently with defaults.
    const auto cfg = Config::parseString("used = 1\nsim_shards = 8\n");
    cfg.getU64("used");
    try {
        cfg.requireAllConsumed();
        FAIL() << "unread key did not throw";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("sim_shards"), std::string::npos) << msg;
        EXPECT_EQ(msg.find("used"), std::string::npos) << msg;
    }
}

TEST(Config, FullyReadConfigPasses)
{
    const auto cfg = Config::parseString("a = 1\nb = on\n");
    cfg.getU64("a");
    cfg.getBool("b");
    EXPECT_NO_THROW(cfg.requireAllConsumed());
}

TEST(Config, BooleanSpellings)
{
    const auto cfg = Config::parseString(
        "a = TRUE\nb = off\nc = 1\nd = No\n");
    EXPECT_TRUE(cfg.getBool("a"));
    EXPECT_FALSE(cfg.getBool("b"));
    EXPECT_TRUE(cfg.getBool("c"));
    EXPECT_FALSE(cfg.getBool("d"));
}

} // namespace
} // namespace xfm
