/**
 * @file
 * Tests for the synthetic corpus generators: determinism, size
 * contracts, and compressibility ordering used by Fig. 8.
 */

#include <gtest/gtest.h>

#include <set>

#include "compress/corpus.hh"
#include "compress/deflate.hh"

namespace xfm
{
namespace compress
{
namespace
{

class CorpusTest : public ::testing::TestWithParam<CorpusKind>
{};

TEST_P(CorpusTest, ExactSize)
{
    for (std::size_t size : {std::size_t(0), std::size_t(1),
                             std::size_t(4096), std::size_t(10000)}) {
        EXPECT_EQ(generateCorpus(GetParam(), 1, size).size(), size);
    }
}

TEST_P(CorpusTest, DeterministicForSeed)
{
    EXPECT_EQ(generateCorpus(GetParam(), 42, 8192),
              generateCorpus(GetParam(), 42, 8192));
}

TEST_P(CorpusTest, SeedChangesContent)
{
    if (GetParam() == CorpusKind::ZeroHeavy)
        GTEST_SKIP() << "mostly-zero corpus may collide across seeds";
    EXPECT_NE(generateCorpus(GetParam(), 1, 8192),
              generateCorpus(GetParam(), 2, 8192));
}

TEST_P(CorpusTest, ShorterCorpusIsPrefixOfLonger)
{
    // The generators write whole records past the requested size and
    // then cut; the cut must not change any byte before it.
    for (const std::size_t n : {std::size_t(1), std::size_t(63),
                                std::size_t(4095), std::size_t(4097)}) {
        const Bytes longer = generateCorpus(GetParam(), 11, n + 4096);
        EXPECT_EQ(generateCorpus(GetParam(), 11, n),
                  Bytes(longer.begin(), longer.begin() + n))
            << "n=" << n;
    }
}

TEST_P(CorpusTest, RoundTripsThroughDeflate)
{
    DeflateCodec codec;
    const Bytes corpus = generateCorpus(GetParam(), 3, 16 * 1024);
    EXPECT_EQ(codec.decompress(codec.compress(corpus)), corpus);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CorpusTest, ::testing::ValuesIn(allCorpusKinds()),
    [](const auto &info) {
        std::string n = corpusName(info.param);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(Corpus, SixteenKindsWithUniqueNames)
{
    const auto &kinds = allCorpusKinds();
    EXPECT_EQ(kinds.size(), 16u);
    std::set<std::string> names;
    for (auto k : kinds)
        names.insert(corpusName(k));
    EXPECT_EQ(names.size(), kinds.size());
}

TEST(Corpus, CompressibilityOrdering)
{
    DeflateCodec codec;
    auto compressed_size = [&](CorpusKind k) {
        const Bytes c = generateCorpus(k, 7, 32 * 1024);
        return codec.compress(c).size();
    };
    // Zero-heavy pages compress best; random bytes worst; text in
    // between. This ordering is what Fig. 8 relies on.
    const auto zero = compressed_size(CorpusKind::ZeroHeavy);
    const auto text = compressed_size(CorpusKind::EnglishText);
    const auto rand = compressed_size(CorpusKind::RandomBytes);
    EXPECT_LT(zero, text);
    EXPECT_LT(text, rand);
    EXPECT_GE(rand, std::size_t(32 * 1024));  // stored block
}

TEST(Corpus, TextCorpusIsMostlyPrintable)
{
    const Bytes c = generateCorpus(CorpusKind::EnglishText, 11, 4096);
    std::size_t printable = 0;
    for (auto b : c)
        if ((b >= 0x20 && b < 0x7F) || b == '\n')
            ++printable;
    EXPECT_GT(printable, c.size() * 95 / 100);
}

TEST(Corpus, PaginateDropsPartialTail)
{
    Bytes data(10000, 1);
    const auto pages = paginate(data, 4096);
    ASSERT_EQ(pages.size(), 2u);
    EXPECT_EQ(pages[0].size(), 4096u);
    EXPECT_EQ(pages[1].size(), 4096u);
}

TEST(Corpus, PaginatePreservesContent)
{
    const Bytes corpus = generateCorpus(CorpusKind::Json, 13, 12288);
    const auto pages = paginate(corpus, 4096);
    ASSERT_EQ(pages.size(), 3u);
    for (std::size_t p = 0; p < pages.size(); ++p)
        for (std::size_t i = 0; i < 4096; ++i)
            ASSERT_EQ(pages[p][i], corpus[p * 4096 + i]);
}

TEST(Corpus, HeapObjectsHavePointerStructure)
{
    const Bytes c = generateCorpus(CorpusKind::HeapObjects, 17, 4096);
    // Every 32-byte object ends with 8 zero padding bytes.
    for (std::size_t obj = 0; obj + 32 <= c.size(); obj += 32)
        for (std::size_t k = 24; k < 32; ++k)
            ASSERT_EQ(c[obj + k], 0);
}

} // namespace
} // namespace compress
} // namespace xfm
