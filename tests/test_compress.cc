/**
 * @file
 * Unit and property tests for the compression library: bitstream,
 * Huffman, LZ77, and the three codecs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <queue>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/units.hh"
#include "compress/bitstream.hh"
#include "compress/compressor.hh"
#include "compress/corpus.hh"
#include "compress/deflate.hh"
#include "compress/dict.hh"
#include "compress/huffman.hh"
#include "compress/lz77.hh"
#include "compress/lzfast.hh"
#include "compress/zstdlike.hh"
#include "lz77_oracle.hh"

namespace xfm
{
namespace compress
{
namespace
{

Bytes
toBytes(const std::string &s)
{
    return Bytes(s.begin(), s.end());
}

std::vector<std::uint8_t>
codeLengths(const std::vector<std::uint64_t> &counts)
{
    std::vector<std::uint8_t> lengths;
    huffmanCodeLengths(counts, lengths);
    return lengths;
}

/**
 * Oracle for huffmanCodeLengths: the textbook builder it replaced.
 * A min-heap ordered by (weight, creation order) merges nodes, a
 * DFS assigns depths, and the Kraft repair rescans every symbol
 * for each one-bit lengthening.
 */
std::vector<std::uint8_t>
referenceHuffmanLengths(const std::vector<std::uint64_t> &counts)
{
    struct TreeNode
    {
        std::uint64_t weight;
        std::uint32_t order;
        int left;
        int right;
        int symbol;
    };
    std::vector<std::uint8_t> lengths(counts.size(), 0);
    std::vector<int> live;
    for (std::size_t i = 0; i < counts.size(); ++i)
        if (counts[i] > 0)
            live.push_back(static_cast<int>(i));
    if (live.empty())
        return lengths;
    if (live.size() == 1) {
        lengths[live[0]] = 1;
        return lengths;
    }

    std::vector<TreeNode> nodes;
    auto cmp = [&nodes](int a, int b) {
        if (nodes[a].weight != nodes[b].weight)
            return nodes[a].weight > nodes[b].weight;
        return nodes[a].order > nodes[b].order;
    };
    std::priority_queue<int, std::vector<int>, decltype(cmp)> heap(cmp);
    std::uint32_t order = 0;
    for (int s : live) {
        nodes.push_back({counts[s], order++, -1, -1, s});
        heap.push(static_cast<int>(nodes.size()) - 1);
    }
    while (heap.size() > 1) {
        const int a = heap.top();
        heap.pop();
        const int b = heap.top();
        heap.pop();
        nodes.push_back({nodes[a].weight + nodes[b].weight, order++,
                         a, b, -1});
        heap.push(static_cast<int>(nodes.size()) - 1);
    }

    std::vector<std::pair<int, unsigned>> stack;
    stack.emplace_back(heap.top(), 0);
    while (!stack.empty()) {
        const auto [idx, depth] = stack.back();
        stack.pop_back();
        const TreeNode &node = nodes[idx];
        if (node.symbol >= 0) {
            lengths[node.symbol] =
                static_cast<std::uint8_t>(std::max(1u, depth));
        } else {
            stack.emplace_back(node.left, depth + 1);
            stack.emplace_back(node.right, depth + 1);
        }
    }

    bool clamped = false;
    for (int s : live) {
        if (lengths[s] > maxCodeLength) {
            lengths[s] = maxCodeLength;
            clamped = true;
        }
    }
    if (!clamped)
        return lengths;
    auto kraft = [&]() {
        std::uint64_t k = 0;
        for (int s : live)
            k += std::uint64_t(1) << (maxCodeLength - lengths[s]);
        return k;
    };
    while (kraft() > (std::uint64_t(1) << maxCodeLength)) {
        int victim = -1;
        for (int s : live) {
            if (lengths[s] < maxCodeLength
                && (victim < 0 || lengths[s] > lengths[victim]))
                victim = s;
        }
        EXPECT_GE(victim, 0);
        if (victim < 0)
            break;
        ++lengths[victim];
    }
    return lengths;
}

// ---------------------------------------------------------------- bitstream

TEST(Bitstream, RoundTripMixedWidths)
{
    Bytes buf;
    BitWriter bw(buf);
    bw.put(0b101, 3);
    bw.put(0xABCD, 16);
    bw.put(1, 1);
    bw.put(0x7FFFFFFF, 31);
    bw.flush();

    BitReader br(buf);
    EXPECT_EQ(br.get(3), 0b101u);
    EXPECT_EQ(br.get(16), 0xABCDu);
    EXPECT_EQ(br.get(1), 1u);
    EXPECT_EQ(br.get(31), 0x7FFFFFFFu);
}

TEST(Bitstream, TruncationIsFatal)
{
    Bytes buf;
    BitWriter bw(buf);
    bw.put(0xF, 4);
    bw.flush();
    BitReader br(buf);
    br.get(8);
    EXPECT_THROW(br.get(8), FatalError);
}

TEST(Bitstream, PeekDoesNotConsume)
{
    Bytes buf;
    BitWriter bw(buf);
    bw.put(0x5A, 8);
    bw.flush();
    BitReader br(buf);
    EXPECT_EQ(br.peek(4), 0xAu);
    EXPECT_EQ(br.peek(4), 0xAu);
    br.skip(4);
    EXPECT_EQ(br.get(4), 0x5u);
}

TEST(Bitstream, AlignedByteOffsetIgnoresPeekBuffering)
{
    Bytes buf;
    BitWriter bw(buf);
    bw.put(0x3, 2);
    bw.flush();
    buf.push_back(0x77);  // trailing data beyond the flushed section
    BitReader br(buf);
    br.peek(15);  // buffers both bytes
    br.skip(2);
    EXPECT_EQ(br.alignedByteOffset(), 1u);
}

TEST(Bitstream, RandomRoundTrip)
{
    Rng rng(99);
    std::vector<std::pair<std::uint32_t, unsigned>> items;
    Bytes buf;
    BitWriter bw(buf);
    for (int i = 0; i < 1000; ++i) {
        const unsigned nbits = 1 + rng.uniformInt(24);
        const std::uint32_t v =
            static_cast<std::uint32_t>(rng.next())
            & ((1u << nbits) - 1);
        items.emplace_back(v, nbits);
        bw.put(v, nbits);
    }
    bw.flush();
    BitReader br(buf);
    for (auto [v, nbits] : items)
        EXPECT_EQ(br.get(nbits), v);
}

// ----------------------------------------------------------------- huffman

TEST(Huffman, LengthsSatisfyKraft)
{
    std::vector<std::uint64_t> counts(256, 0);
    Rng rng(5);
    for (auto &c : counts)
        c = rng.uniformInt(1000);
    const auto lengths = codeLengths(counts);
    double kraft = 0;
    for (std::size_t i = 0; i < lengths.size(); ++i) {
        if (counts[i] > 0) {
            EXPECT_GT(lengths[i], 0u);
            EXPECT_LE(lengths[i], maxCodeLength);
            kraft += std::pow(2.0, -double(lengths[i]));
        } else {
            EXPECT_EQ(lengths[i], 0u);
        }
    }
    EXPECT_LE(kraft, 1.0 + 1e-9);
}

TEST(Huffman, SingleSymbolGetsLengthOne)
{
    std::vector<std::uint64_t> counts(10, 0);
    counts[7] = 42;
    const auto lengths = codeLengths(counts);
    EXPECT_EQ(lengths[7], 1u);
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i != 7) {
            EXPECT_EQ(lengths[i], 0u);
        }
    }
}

TEST(Huffman, EmptyAlphabetAllZero)
{
    std::vector<std::uint64_t> counts(16, 0);
    const auto lengths = codeLengths(counts);
    EXPECT_TRUE(std::all_of(lengths.begin(), lengths.end(),
                            [](auto l) { return l == 0; }));
}

TEST(Huffman, SkewedDistributionShorterCodesForFrequent)
{
    std::vector<std::uint64_t> counts = {1000, 100, 10, 1};
    const auto lengths = codeLengths(counts);
    EXPECT_LE(lengths[0], lengths[1]);
    EXPECT_LE(lengths[1], lengths[2]);
    EXPECT_LE(lengths[2], lengths[3]);
}

TEST(Huffman, EncodeDecodeRoundTrip)
{
    Rng rng(21);
    std::vector<std::uint64_t> counts(64, 0);
    std::vector<std::uint32_t> symbols;
    for (int i = 0; i < 5000; ++i) {
        const auto s = static_cast<std::uint32_t>(rng.zipf(64, 0.8));
        symbols.push_back(s);
        ++counts[s];
    }
    const auto lengths = codeLengths(counts);
    HuffmanEncoder enc(lengths);
    HuffmanDecoder dec(lengths);
    Bytes buf;
    BitWriter bw(buf);
    for (auto s : symbols)
        enc.encode(bw, s);
    bw.flush();
    BitReader br(buf);
    for (auto s : symbols)
        EXPECT_EQ(dec.decode(br), s);
}

TEST(Huffman, ManySymbolsLengthLimited)
{
    // Exponential counts would produce > 15-bit codes without the
    // length-limit repair.
    std::vector<std::uint64_t> counts(40);
    std::uint64_t v = 1;
    for (auto &c : counts) {
        c = v;
        v = std::min<std::uint64_t>(v * 2, std::uint64_t(1) << 60);
    }
    const auto lengths = codeLengths(counts);
    for (auto l : lengths)
        EXPECT_LE(l, maxCodeLength);
    // Still decodable end to end.
    HuffmanEncoder enc(lengths);
    HuffmanDecoder dec(lengths);
    Bytes buf;
    BitWriter bw(buf);
    for (std::uint32_t s = 0; s < counts.size(); ++s)
        enc.encode(bw, s);
    bw.flush();
    BitReader br(buf);
    for (std::uint32_t s = 0; s < counts.size(); ++s)
        EXPECT_EQ(dec.decode(br), s);
}

TEST(Huffman, CodeLengthRleRoundTrip)
{
    // 300 entries: head below, then a long zero tail (needs code 18
    // chains). Built at full size up front — resizing a small
    // init-list vector trips a GCC 12 -Warray-bounds false positive
    // at -O2.
    static constexpr std::uint8_t head[] = {
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,  // long zero run
        5, 5, 5, 5, 5,                        // repeat run
        7, 3, 0, 0, 9,                        // singletons + short zeros
    };
    std::vector<std::uint8_t> lengths(300, 0);
    std::copy(std::begin(head), std::end(head), lengths.begin());
    Bytes buf;
    BitWriter bw(buf);
    writeCodeLengthsRle(bw, lengths);
    bw.flush();
    BitReader br(buf);
    std::vector<std::uint8_t> got;
    readCodeLengthsRle(br, lengths.size(), got);
    EXPECT_EQ(got, lengths);
}

TEST(Huffman, TwoQueueMatchesHeapReference)
{
    // Seeded count vectors over 2-600 symbols in six shapes: wide
    // random counts, heavy ties, 0-2 live symbols, Fibonacci and
    // power-of-two counts (deep trees that hit the 15-bit clamp and
    // the Kraft repair), and a zipf skew with a flat tail.
    Rng rng(1601);
    std::vector<std::uint8_t> got;
    std::size_t capped = 0;
    constexpr int trials = 1200;
    for (int trial = 0; trial < trials; ++trial) {
        const std::size_t n = 2 + rng.uniformInt(599);
        std::vector<std::uint64_t> counts(n, 0);
        std::vector<std::size_t> perm(n);
        std::iota(perm.begin(), perm.end(), 0);
        for (std::size_t i = n; i > 1; --i)
            std::swap(perm[i - 1], perm[rng.uniformInt(i)]);
        switch (trial % 6) {
          case 0:
            for (auto &c : counts)
                c = rng.uniformInt(100000);
            break;
          case 1:
            for (auto &c : counts)
                c = rng.uniformInt(4);
            break;
          case 2:
            for (std::size_t k = 0; k < std::size_t(trial / 6 % 3); ++k)
                counts[perm[k]] = 1 + rng.uniformInt(8);
            break;
          case 3: {
            std::uint64_t a = 1;
            std::uint64_t b = 1;
            for (std::size_t k = 0; k < n; ++k) {
                counts[perm[k]] = k < 80 ? a : rng.uniformInt(3);
                const std::uint64_t c = a + b;
                a = b;
                b = c;
            }
            break;
          }
          case 4:
            for (std::size_t k = 0; k < n; ++k)
                counts[perm[k]] = k < 60 ? std::uint64_t(1) << k
                                         : rng.uniformInt(2);
            break;
          default:
            for (int k = 0; k < 4000; ++k)
                ++counts[rng.zipf(n, 1.2)];
            break;
        }
        huffmanCodeLengths(counts, got);
        const auto want = referenceHuffmanLengths(counts);
        ASSERT_EQ(got, want) << "trial " << trial << ", " << n
                             << " symbols";
        if (*std::max_element(want.begin(), want.end()) == maxCodeLength)
            ++capped;
    }
    // The Fibonacci and power-of-two shapes alone build trees far
    // deeper than the cap.
    EXPECT_GE(capped, std::size_t(trials / 3))
        << "too few shapes reached the length limit";
}

// -------------------------------------------------------------------- lz77

/** Rebuild @p in from the finder's sequences for it. */
Bytes
reconstructSequences(const Bytes &in, const Lz77Params &params)
{
    return lz77Reconstruct(in, 0, lz77Sequences(in, params));
}

TEST(Lz77, LiteralOnlyForShortInput)
{
    const Bytes in = toBytes("ab");
    const auto seqs = lz77Sequences(in, Lz77Params{});
    ASSERT_EQ(seqs.size(), 1u);
    EXPECT_EQ(seqs[0].litRun, 2u);
    EXPECT_EQ(seqs[0].matchLen, 0u);
    EXPECT_EQ(reconstructSequences(in, Lz77Params{}), in);
}

TEST(Lz77, FindsRepeats)
{
    const Bytes in = toBytes("abcdefabcdefabcdef");
    const auto seqs = lz77Sequences(in, Lz77Params{});
    const auto matches = std::count_if(
        seqs.begin(), seqs.end(),
        [](const Lz77Seq &s) { return s.matchLen > 0; });
    EXPECT_GE(matches, 1);
    EXPECT_EQ(reconstructSequences(in, Lz77Params{}), in);
}

TEST(Lz77, OverlappingMatchRle)
{
    // 'aaaa...' forces distance-1 overlapping matches.
    const Bytes in(500, 'a');
    EXPECT_LT(lz77Sequences(in, Lz77Params{}).size(), 20u);
    EXPECT_EQ(reconstructSequences(in, Lz77Params{}), in);
}

TEST(Lz77, WindowLimitsDistance)
{
    Lz77Params params;
    params.windowBytes = 64;
    Rng rng(3);
    Bytes in;
    for (int i = 0; i < 2000; ++i)
        in.push_back(static_cast<std::uint8_t>(rng.uniformInt(4)));
    for (const Lz77Seq &s : lz77Sequences(in, params))
        EXPECT_LE(s.offset, 64u);
    EXPECT_EQ(reconstructSequences(in, params), in);
}

TEST(Lz77, MaxMatchRespected)
{
    Lz77Params params;
    params.maxMatch = 16;
    const Bytes in(1000, 'x');
    for (const Lz77Seq &s : lz77Sequences(in, params))
        EXPECT_LE(s.matchLen, 16u);
    EXPECT_EQ(reconstructSequences(in, params), in);
}

TEST(Lz77, EmptyInput)
{
    EXPECT_TRUE(lz77Sequences({}, Lz77Params{}).empty());
    EXPECT_TRUE(reconstructSequences({}, Lz77Params{}).empty());
}

TEST(Lz77, ReconstructRejectsBadDistance)
{
    std::vector<Lz77Token> tokens = {
        {false, 'a', 0, 0},
        {true, 0, 5, 10},  // distance beyond output
    };
    EXPECT_THROW(lz77Reconstruct(tokens), FatalError);
    const Bytes in = toBytes("aaaaaa");
    const std::vector<Lz77Seq> seqs = {{1, 5, 10}};
    EXPECT_THROW(lz77Reconstruct(in, 0, seqs), FatalError);
}

// ------------------------------------------------------------------ codecs

class CodecTest : public ::testing::TestWithParam<Algorithm>
{
  protected:
    std::unique_ptr<Compressor> codec_ = makeCompressor(GetParam());

    void
    roundTrip(const Bytes &in)
    {
        const Bytes block = codec_->compress(in);
        const Bytes out = codec_->decompress(block);
        ASSERT_EQ(out, in) << "round-trip failed for "
                           << algorithmName(GetParam());
    }

    /** Decode @p block through the plain entry point when @p dict
     *  is empty, else through the dictionary one. */
    void
    decode(const Bytes &dict, const Bytes &block) const
    {
        Bytes out;
        if (dict.empty())
            codec_->decompressInto(block, out);
        else
            codec_->decompressWithDictInto(dict, block, out);
    }

    /** No dictionary, then a text dictionary for the frame tests. */
    const std::vector<Bytes> dicts_ = {
        {}, generateCorpus(CorpusKind::EnglishText, 6, 2048)};
};

TEST_P(CodecTest, RoundTripEmpty)
{
    roundTrip({});
}

TEST_P(CodecTest, RoundTripSingleByte)
{
    roundTrip({0x42});
}

TEST_P(CodecTest, RoundTripAllSameByte)
{
    roundTrip(Bytes(4096, 0xAA));
    roundTrip(Bytes(4096, 0x00));
}

TEST_P(CodecTest, RoundTripShortStrings)
{
    for (std::size_t n = 0; n < 64; ++n) {
        Bytes in;
        for (std::size_t i = 0; i < n; ++i)
            in.push_back(static_cast<std::uint8_t>('a' + i % 3));
        roundTrip(in);
    }
}

TEST_P(CodecTest, RoundTripRandomIncompressible)
{
    Rng rng(31);
    Bytes in;
    for (int i = 0; i < 4096; ++i)
        in.push_back(static_cast<std::uint8_t>(rng.next()));
    roundTrip(in);
    // Incompressible data must not blow up beyond header overhead.
    const Bytes block = codec_->compress(in);
    EXPECT_LE(block.size(), in.size() + 16);
}

TEST_P(CodecTest, RoundTripAllByteValues)
{
    Bytes in;
    for (int rep = 0; rep < 16; ++rep)
        for (int b = 0; b < 256; ++b)
            in.push_back(static_cast<std::uint8_t>(b));
    roundTrip(in);
}

TEST_P(CodecTest, CompressesRepetitiveData)
{
    Bytes in;
    const std::string unit = "the quick brown fox jumps over the dog. ";
    while (in.size() < 4096)
        in.insert(in.end(), unit.begin(), unit.end());
    in.resize(4096);
    const Bytes block = codec_->compress(in);
    EXPECT_LT(block.size(), in.size() / 4);
    roundTrip(in);
}

TEST_P(CodecTest, RoundTripAllCorpora)
{
    for (auto kind : allCorpusKinds()) {
        const Bytes corpus = generateCorpus(kind, 1234, 16 * 1024);
        roundTrip(corpus);
    }
}

TEST_P(CodecTest, RoundTripPageSlices)
{
    const Bytes corpus =
        generateCorpus(CorpusKind::Json, 77, 64 * 1024);
    for (const auto &page : paginate(corpus))
        roundTrip(page);
}

TEST_P(CodecTest, DecompressRejectsGarbage)
{
    Rng rng(41);
    Bytes garbage;
    garbage.push_back(0x7F);  // invalid mode byte for every codec
    for (int i = 0; i < 64; ++i)
        garbage.push_back(static_cast<std::uint8_t>(rng.next()));
    EXPECT_THROW(codec_->decompress(garbage), FatalError);
    EXPECT_THROW(codec_->decompress({}), FatalError);

    // A header whose raw length is one more than the body decodes
    // to (frame: [mode u8][raw length u32 LE]).
    const Bytes page = generateCorpus(CorpusKind::EnglishText, 5, 4096);
    for (const Bytes &dict : dicts_) {
        Bytes block;
        codec_->compressWithDictInto(dict, page, block);
        ASSERT_NE(block[0], 0) << "text must not take a stored block";
        std::uint32_t raw = 0;
        for (int i = 0; i < 4; ++i)
            raw |= std::uint32_t(block[1 + i]) << (8 * i);
        ASSERT_EQ(raw, page.size());
        ++raw;
        for (int i = 0; i < 4; ++i)
            block[1 + i] = static_cast<std::uint8_t>(raw >> (8 * i));
        EXPECT_THROW(decode(dict, block), FatalError) << dict.size();
    }
}

TEST_P(CodecTest, DecompressRejectsTruncatedBlock)
{
    const Bytes corpus =
        generateCorpus(CorpusKind::EnglishText, 5, 4096);
    Bytes block = codec_->compress(corpus);
    block.resize(block.size() / 2);
    EXPECT_THROW(codec_->decompress(block), FatalError);

    // A block shorter than its header, and a stored block one byte
    // shorter than its length field.
    Rng rng(43);
    Bytes noise(300);
    for (auto &b : noise)
        b = static_cast<std::uint8_t>(rng.next());
    for (const Bytes &dict : dicts_) {
        codec_->compressWithDictInto(dict, corpus, block);
        block.resize(4);
        EXPECT_THROW(decode(dict, block), FatalError) << dict.size();

        codec_->compressWithDictInto(dict, noise, block);
        ASSERT_EQ(block[0], 0) << "noise must take a stored block";
        block.pop_back();
        EXPECT_THROW(decode(dict, block), FatalError) << dict.size();
    }
}

TEST_P(CodecTest, Deterministic)
{
    const Bytes corpus = generateCorpus(CorpusKind::Html, 9, 8192);
    EXPECT_EQ(codec_->compress(corpus), codec_->compress(corpus));
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecTest,
    ::testing::Values(Algorithm::LzFast, Algorithm::Deflate,
                      Algorithm::ZstdLike),
    [](const auto &info) { return algorithmName(info.param); });

// ------------------------------------------------- zero-copy Into API

/** The 6-class page mix of the workload corpus. */
const CorpusKind intoMix[] = {
    CorpusKind::KeyValue,   CorpusKind::Json,
    CorpusKind::LogLines,   CorpusKind::EnglishText,
    CorpusKind::SourceCode, CorpusKind::Html,
};

TEST_P(CodecTest, CompressIntoMatchesLegacyApi)
{
    // The span/out-parameter path must produce byte-identical
    // blocks to the allocating wrapper, for every page class.
    Bytes block;
    Bytes raw;
    for (const auto kind : intoMix) {
        const Bytes page = generateCorpus(kind, 17, pageBytes);
        codec_->compressInto(page, block);
        EXPECT_EQ(block, codec_->compress(page))
            << corpusName(kind) << " via "
            << algorithmName(GetParam());
        codec_->decompressInto(block, raw);
        EXPECT_EQ(raw, page) << corpusName(kind);
    }
}

TEST_P(CodecTest, IntoReusesCapacityAndClearsOutput)
{
    Bytes block(9000, 0xEE);  // stale content must not leak through
    const Bytes page =
        generateCorpus(CorpusKind::Json, 23, pageBytes);
    codec_->compressInto(page, block);
    EXPECT_EQ(block, codec_->compress(page));
    const auto cap = block.capacity();
    // A second call into the same buffer must not need to grow it.
    codec_->compressInto(page, block);
    EXPECT_EQ(block.capacity(), cap);
    EXPECT_EQ(block, codec_->compress(page));
}

TEST_P(CodecTest, MaxCompressedSizeBoundsEveryCorpus)
{
    for (auto kind : allCorpusKinds()) {
        const Bytes page = generateCorpus(kind, 29, pageBytes);
        const Bytes block = codec_->compress(page);
        EXPECT_LE(block.size(),
                  Compressor::maxCompressedSize(page.size()))
            << corpusName(kind);
    }
}

// ----------------------------------------------- overlap-aware copies

/** appendMatch() at the end of @p out, grown by @p len first. */
void
appendMatchTo(Bytes &out, std::size_t dist, std::size_t len)
{
    const std::size_t at = out.size();
    out.resize(at + len);
    EXPECT_EQ(appendMatch(out.data() + at, dist, len),
              out.data() + out.size());
}

TEST(AppendMatch, NonOverlappingIsPlainCopy)
{
    Bytes out = toBytes("abcdef");
    appendMatchTo(out, 6, 3);  // dist >= len: straight memcpy
    EXPECT_EQ(out, toBytes("abcdefabc"));
}

TEST(AppendMatch, DistanceOneRunLengthEncodes)
{
    Bytes out = toBytes("x");
    appendMatchTo(out, 1, 9);
    EXPECT_EQ(out, toBytes("xxxxxxxxxx"));
}

TEST(AppendMatch, ShortPeriodReplicates)
{
    Bytes out = toBytes("abc");
    appendMatchTo(out, 3, 10);
    EXPECT_EQ(out, toBytes("abcabcabcabca"));
}

TEST(AppendMatch, OverlapWithinExistingOutput)
{
    Bytes out = toBytes("0123456789");
    appendMatchTo(out, 4, 6);  // copies "6789" then wraps
    EXPECT_EQ(out, toBytes("0123456789678967"));
}

TEST(AppendMatch, MatchesByteAtATimeReference)
{
    Rng rng(51);
    for (int trial = 0; trial < 200; ++trial) {
        Bytes seed(1 + rng.uniformInt(32));
        for (auto &b : seed)
            b = static_cast<std::uint8_t>(rng.next());
        const std::size_t dist = 1 + rng.uniformInt(seed.size());
        const std::size_t len = 1 + rng.uniformInt(64);

        Bytes fast = seed;
        appendMatchTo(fast, dist, len);

        Bytes slow = seed;
        for (std::size_t i = 0; i < len; ++i)
            slow.push_back(slow[slow.size() - dist]);
        ASSERT_EQ(fast, slow) << "dist=" << dist << " len=" << len;
    }
}

// ------------------------------------------------------- codec comparisons

TEST(CodecComparison, ZstdLikeBeatsLzFastOnText)
{
    const Bytes corpus =
        generateCorpus(CorpusKind::EnglishText, 55, 64 * 1024);
    LzFastCodec fast;
    ZstdLikeCodec zstd;
    EXPECT_LT(zstd.compress(corpus).size(),
              fast.compress(corpus).size());
}

TEST(CodecComparison, WindowTruncationHurtsRatio)
{
    const Bytes corpus =
        generateCorpus(CorpusKind::EnglishText, 66, 32 * 1024);
    DeflateCodec wide(32 * 1024);
    DeflateCodec narrow(1024);
    EXPECT_LE(wide.compress(corpus).size(),
              narrow.compress(corpus).size() + 16);
}

TEST(CodecComparison, CpuCostCalibration)
{
    // EQ3.4: average of zstd/lzo compress+decompress cycles per byte
    // is 7.65 (7.65e9 cycles per GB).
    const auto z = cpuCost(Algorithm::ZstdLike);
    const auto l = cpuCost(Algorithm::LzFast);
    const double avg = (z.compressCyclesPerByte + z.decompressCyclesPerByte
                        + l.compressCyclesPerByte
                        + l.decompressCyclesPerByte) / 4.0;
    EXPECT_NEAR(avg, 7.65, 1e-9);
}

TEST(CodecComparison, FactoryReturnsRightAlgorithm)
{
    for (auto a : {Algorithm::LzFast, Algorithm::Deflate,
                   Algorithm::ZstdLike}) {
        EXPECT_EQ(makeCompressor(a)->algorithm(), a);
    }
}

TEST(CodecComparison, RatioHelper)
{
    EXPECT_DOUBLE_EQ(ratio(4096, 1024), 4.0);
    EXPECT_DOUBLE_EQ(ratio(4096, 0), 0.0);
}

/** A stored block: the frame's mode 0, the raw length, the input. */
Bytes
storedBlock(const Bytes &in)
{
    Bytes b = {0};
    for (int shift = 0; shift < 32; shift += 8)
        b.push_back(static_cast<std::uint8_t>(in.size() >> shift));
    b.insert(b.end(), in.begin(), in.end());
    return b;
}

/**
 * LzFast writes its body through a pointer into a buffer sized once
 * to maxBodyBytes() plus copy slack, and asserts it wrote no more
 * than maxBodyBytes(). An
 * all-literal input is the worst case; a page of it fills the bound
 * exactly.
 */
TEST(LzFast, BodyWriterStaysWithinBoundAtWorstCase)
{
    // One all-literal sequence: a token, the extension bytes of
    // every 255 literals past the first 15, the literals.
    auto all_literal = [](std::size_t n) {
        return 1 + (n >= 15 ? (n - 15) / 255 + 1 : 0) + n;
    };
    for (std::size_t n : {1u, 14u, 15u, 16u, 269u, 270u, 525u})
        EXPECT_LE(all_literal(n), LzFastCodec::maxBodyBytes(n)) << n;
    EXPECT_EQ(all_literal(pageBytes), LzFastCodec::maxBodyBytes(pageBytes));

    const LzFastCodec codec;
    const Bytes dict = generateCorpus(CorpusKind::RandomBytes, 7, 2048);
    const Bytes page =
        generateCorpus(CorpusKind::RandomBytes, 8, pageBytes);
    Bytes block;
    Bytes back;
    // A 2 KiB random dictionary gives a random page nothing to
    // match: one 4096-literal run, so the stored block is chosen.
    codec.compressWithDictInto(dict, page, block);
    EXPECT_EQ(block, storedBlock(page));
    codec.decompressWithDictInto(dict, block, back);
    EXPECT_EQ(back, page);

    // A coded block whose first run is 600 literals long.
    Bytes mixed(page.begin(), page.begin() + 600);
    mixed.resize(pageBytes, 0);
    codec.compressWithDictInto(dict, mixed, block);
    ASSERT_NE(block[0], 0) << "expected a coded block";
    EXPECT_LE(block.size() - 5, LzFastCodec::maxBodyBytes(mixed.size()));
    codec.decompressWithDictInto(dict, block, back);
    EXPECT_EQ(back, mixed);

    // The stored fallback is taken exactly when the body is not
    // smaller than the input: "abcdabcd" codes to 7 body bytes, one
    // more literal makes body and input 9 bytes each.
    const Bytes coded = toBytes("abcdabcd");
    const Bytes tied = toBytes("abcdabcdX");
    EXPECT_EQ(codec.compress(coded),
              (Bytes{1, 8, 0, 0, 0, 0x40, 'a', 'b', 'c', 'd', 4, 0}));
    EXPECT_EQ(codec.compress(tied), storedBlock(tied));
}

TEST(Lz77Suffix, PrefixProducesNoTokens)
{
    const Bytes data = generateCorpus(CorpusKind::Html, 2, 8192);
    const std::size_t all = lz77Sequences(data, Lz77Params{}).size();
    const auto suffix = lz77Sequences(data, Lz77Params{}, 4096);
    const std::vector<Lz77Seq> tail(suffix.begin(), suffix.end());
    // The suffix sequences cover exactly the last 4096 bytes and
    // rebuild them on top of the prefix.
    std::size_t covered = 0;
    for (const Lz77Seq &s : tail)
        covered += s.litRun + s.matchLen;
    EXPECT_EQ(covered, 4096u);
    EXPECT_LT(tail.size(), all);
    EXPECT_EQ(lz77Reconstruct(data, 4096, tail),
              Bytes(data.begin() + 4096, data.end()));
}

} // namespace
} // namespace compress
} // namespace xfm

namespace xfm
{
namespace compress
{
namespace
{

/** Corrupt-input robustness: decompression of damaged or foreign
 *  blocks must either throw FatalError or return data — never
 *  crash, hang, or read out of bounds. */
class CodecRobustness : public ::testing::TestWithParam<Algorithm>
{
  protected:
    std::unique_ptr<Compressor> codec_ = makeCompressor(GetParam());
};

TEST_P(CodecRobustness, SingleByteCorruptionNeverCrashes)
{
    // Every stored format, damaged: a plain frame, a frame coded
    // against a preset dictionary, the 0xD2 shard container and the
    // packed dictionary blob. A decode returns data or throws
    // FatalError; anything else, bad_alloc included, fails the test.
    const Compressor &codec = *codec_;
    const Bytes page = generateCorpus(CorpusKind::EnglishText, 31, 4096);
    const Bytes dict = buildPresetDictionary(page, 256, 2048);
    Bytes frame, dict_frame, shard_ref, packed;
    codec.compressInto(page, frame);
    codec.compressWithDictInto(dict, page, dict_frame);
    ASSERT_TRUE(encodeShardRef(codec, dict, ByteSpan{page.data(), 1024},
                               shard_ref));
    packDict(codec, dict, packed);
    ASSERT_LT(packed.size(), 4 + dict.size());  // a coded dictionary

    struct Format
    {
        const char *name;
        const Bytes &block;
        std::size_t frameAt;  ///< offset of the block frame's mode byte
        std::function<void(ByteSpan, Bytes &)> decode;
    };
    const Format formats[] = {
        {"frame", frame, 0,
         [&](ByteSpan b, Bytes &out) { codec.decompressInto(b, out); }},
        {"dict frame", dict_frame, 0,
         [&](ByteSpan b, Bytes &out) {
             codec.decompressWithDictInto(dict, b, out);
         }},
        {"0xD2 container", shard_ref, 3,
         [&](ByteSpan b, Bytes &out) { decodeShard(codec, b, dict, out); }},
        {"packed dictionary", packed, 4,
         [&](ByteSpan b, Bytes &out) { out = unpackDict(codec, b); }},
    };
    Rng rng(37);
    for (const Format &f : formats) {
        SCOPED_TRACE(f.name);
        const auto decode = [&f](const Bytes &damaged) {
            Bytes out;
            try {
                f.decode(damaged, out);  // wrong output is acceptable
            } catch (const FatalError &) {
                // clean rejection is the expected common case
            }
        };
        for (int trial = 0; trial < 200; ++trial) {
            Bytes damaged = f.block;
            damaged[rng.uniformInt(damaged.size())] ^=
                static_cast<std::uint8_t>(1 + rng.uniformInt(255));
            decode(damaged);
        }
        // Edits of the frame's u32 raw length, short and long.
        const auto with_raw_len = [&f](std::uint32_t raw_len) {
            Bytes damaged = f.block;
            for (std::size_t i = 0; i < 4; ++i)
                damaged[f.frameAt + 1 + i] =
                    static_cast<std::uint8_t>(raw_len >> (8 * i));
            return damaged;
        };
        for (const std::uint32_t raw_len :
             {0u, 1u, 1023u, 4095u, 4097u, 0xFFFFu, 0x7FFFFFFFu})
            decode(with_raw_len(raw_len));
        // No body holds 4 GiB: the decode fails without reserving
        // more than a page past the dictionary.
        Bytes out;
        EXPECT_THROW(f.decode(with_raw_len(0xFFFFFFFFu), out),
                     FatalError);
        EXPECT_LE(out.capacity(), dict.size() + pageBytes);
    }
}

TEST_P(CodecRobustness, RandomGarbageNeverCrashes)
{
    Rng rng(41);
    for (int trial = 0; trial < 200; ++trial) {
        Bytes garbage(1 + rng.uniformInt(512));
        for (auto &b : garbage)
            b = static_cast<std::uint8_t>(rng.next());
        try {
            codec_->decompress(garbage);
        } catch (const FatalError &) {
        }
    }
}

TEST_P(CodecRobustness, ForeignBlocksRejectedOrHarmless)
{
    // Feed every codec blocks produced by the other two.
    const Bytes page = generateCorpus(CorpusKind::Json, 43, 4096);
    for (auto other : {Algorithm::LzFast, Algorithm::Deflate,
                       Algorithm::ZstdLike}) {
        if (other == GetParam())
            continue;
        const Bytes foreign = makeCompressor(other)->compress(page);
        try {
            codec_->decompress(foreign);
        } catch (const FatalError &) {
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecRobustness,
    ::testing::Values(Algorithm::LzFast, Algorithm::Deflate,
                      Algorithm::ZstdLike),
    [](const auto &info) { return algorithmName(info.param); });

} // namespace
} // namespace compress
} // namespace xfm

// ------------------------------------------------------------------
// PR 10 hot-path and preset-dictionary coverage.

#include "common/worker_pool.hh"

namespace xfm
{
namespace compress
{
namespace
{

/** Byte-at-a-time prefix scan: the oracle for the SWAR kernel. */
std::uint32_t
matchLengthReference(const std::uint8_t *a, const std::uint8_t *b,
                     std::uint32_t limit)
{
    std::uint32_t n = 0;
    while (n < limit && a[n] == b[n])
        ++n;
    return n;
}

/** The SWAR 64-bit match extension must agree with the reference
 *  byte scan at every alignment and boundary. */
TEST(SwarMatch, BoundaryLengthsAgreeWithReference)
{
    // Two buffers sharing an i-byte prefix for every i spanning the
    // word boundaries the SWAR kernel cares about.
    for (std::uint32_t prefix :
         {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 64u, 65u, 127u}) {
        Bytes a(160, 0x5A);
        Bytes b(a);
        b[prefix] ^= 0x01;  // first difference exactly at `prefix`
        for (std::uint32_t limit :
             {prefix, prefix + 1, prefix + 9, 160u}) {
            const auto want = matchLengthReference(
                a.data(), b.data(), std::min<std::uint32_t>(limit, 160));
            const auto got = matchLength(
                a.data(), b.data(), std::min<std::uint32_t>(limit, 160));
            EXPECT_EQ(got, want)
                << "prefix=" << prefix << " limit=" << limit;
        }
    }
}

TEST(SwarMatch, UnalignedPointersAgree)
{
    Rng rng(7);
    Bytes buf(512);
    for (auto &byte : buf)
        byte = static_cast<std::uint8_t>(rng.uniformInt(4));
    for (std::size_t oa = 0; oa < 9; ++oa) {
        for (std::size_t ob = 0; ob < 9; ++ob) {
            const std::uint32_t limit = static_cast<std::uint32_t>(
                buf.size() - std::max(oa, ob) - 1);
            EXPECT_EQ(matchLength(buf.data() + oa,
                                      buf.data() + ob, limit),
                      matchLengthReference(buf.data() + oa,
                                           buf.data() + ob, limit));
        }
    }
}

TEST(SwarMatch, AllEqualHitsLimit)
{
    const Bytes a(300, 0xEE);
    const Bytes b(300, 0xEE);
    EXPECT_EQ(matchLength(a.data(), b.data(), 300), 300u);
    EXPECT_EQ(matchLength(a.data(), b.data(), 0), 0u);
}

TEST(SwarMatch, FirstByteDiffers)
{
    const Bytes a(64, 1);
    const Bytes b(64, 2);
    EXPECT_EQ(matchLength(a.data(), b.data(), 64), 0u);
}

/** Page-tail reads: the fast scan must not require padding past the
 *  limit (runs clean under ASan with the buffers ending exactly at
 *  the limit). */
TEST(SwarMatch, PageTailExactLimit)
{
    for (std::size_t n : {1u, 5u, 8u, 13u, 64u, 100u}) {
        const Bytes a(n, 0x42);
        const Bytes b(n, 0x42);
        EXPECT_EQ(matchLength(a.data(), b.data(),
                                  static_cast<std::uint32_t>(n)),
                  n);
    }
}

TEST(Huffman, SubtableDeepCodesRoundTrip)
{
    // Force codes deeper than the 11-bit root: a huge skew pushes
    // the rare tail to the 15-bit limit.
    std::vector<std::uint64_t> counts(600, 1);
    counts[0] = 1ull << 30;
    counts[1] = 1ull << 20;
    const auto lengths = codeLengths(counts);
    unsigned max_len = 0;
    for (auto len : lengths)
        max_len = std::max<unsigned>(max_len, len);
    ASSERT_GT(max_len, 11u) << "shape failed to exceed the root";

    HuffmanEncoder enc(lengths);
    HuffmanDecoder dec(lengths);
    std::vector<std::uint32_t> symbols;
    for (std::uint32_t s = 0; s < 600; ++s) {
        symbols.push_back(s);
        symbols.push_back(0);  // interleave the hot symbol
    }
    Bytes stream;
    BitWriter bw(stream);
    for (const auto s : symbols)
        enc.encode(bw, s);
    bw.flush();
    BitReader br(stream);
    for (const auto want : symbols)
        EXPECT_EQ(dec.decode(br), want);
}

/** Steady-state match finding reuses the pooled finder tables and
 *  sequence buffer instead of reallocating them per call. */
TEST(FinderPool, NoAllocationSteadyState)
{
    const Bytes page = generateCorpus(CorpusKind::Html, 3, 4096);
    lz77Sequences(page, Lz77Params{});  // warm this thread's pool
    const auto warm = finderTableStats();
    for (int i = 0; i < 16; ++i)
        lz77Sequences(page, Lz77Params{});
    const auto after = finderTableStats();
    EXPECT_EQ(after.first, warm.first)
        << "steady-state match finding grew a finder table";
    EXPECT_GE(after.second, warm.second + 16);
}

// ------------------------------------------------------------ dict

class DictTest : public ::testing::TestWithParam<Algorithm>
{
  protected:
    std::unique_ptr<Compressor> codec_ = makeCompressor(GetParam());
};

/** The six spatially-correlated classes dict mode targets. */
const std::vector<CorpusKind> &
dictCorpora()
{
    static const std::vector<CorpusKind> kinds = {
        CorpusKind::Json,     CorpusKind::Html,
        CorpusKind::SourceCode, CorpusKind::LogLines,
        CorpusKind::KeyValue, CorpusKind::Dictionary,
    };
    return kinds;
}

TEST_P(DictTest, ShardRoundTripAllCorpora)
{
    for (const auto kind : dictCorpora()) {
        const Bytes page = generateCorpus(kind, 17, 4096);
        const Bytes dict = buildPresetDictionary(page, 256, 2048);
        ASSERT_FALSE(dict.empty());
        // Quarter-page shards, as 4-DIMM interleave produces.
        for (std::size_t d = 0; d < 4; ++d) {
            const ByteSpan shard{page.data() + d * 1024, 1024};
            Bytes ref_block;
            encodeShardRef(*codec_, dict, shard, ref_block);

            const Bytes want(shard.begin(), shard.end());
            Bytes out;
            decodeShard(*codec_, ref_block, dict, out);
            EXPECT_EQ(out, want);
        }
    }
}

TEST_P(DictTest, PackedDictionaryRoundTrips)
{
    for (const auto kind : dictCorpora()) {
        const Bytes page = generateCorpus(kind, 23, 4096);
        const Bytes dict = buildPresetDictionary(page, 256, 2048);
        Bytes packed;
        packDict(*codec_, dict, packed);
        ASSERT_LE(packed.size(), packedDictBound(dict.size()));
        EXPECT_EQ(unpackDict(*codec_, packed), dict);
    }
}

TEST_P(DictTest, RefBlockWithoutDictIsFatal)
{
    const Bytes page = generateCorpus(CorpusKind::Json, 3, 4096);
    const Bytes dict = buildPresetDictionary(page, 256, 2048);
    Bytes block;
    if (!encodeShardRef(*codec_, dict, ByteSpan{page.data(), 1024},
                        block))
        GTEST_SKIP() << "dict container not used for this codec";
    Bytes out;
    EXPECT_THROW(decodeShard(*codec_, block, out), FatalError);
    // Wrong-length dictionary must also be rejected.
    const Bytes wrong(dict.size() + 1, 0);
    EXPECT_THROW(decodeShard(*codec_, block, wrong, out), FatalError);
    // A first byte that is neither a block mode nor 0xD2, such as
    // 0xD1, is an unknown block mode with or without a dictionary.
    block[0] = 0xD1;
    EXPECT_THROW(decodeShard(*codec_, block, out), FatalError);
    EXPECT_THROW(decodeShard(*codec_, block, dict, out), FatalError);
}

TEST_P(DictTest, EmptyDictFallsBackToPlain)
{
    const Bytes page = generateCorpus(CorpusKind::Html, 5, 4096);
    Bytes block;
    EXPECT_FALSE(
        encodeShardRef(*codec_, ByteSpan{}, page, block));
    Bytes out;
    decodeShard(*codec_, block, out);
    EXPECT_EQ(out, page);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, DictTest,
    ::testing::Values(Algorithm::LzFast, Algorithm::Deflate,
                      Algorithm::ZstdLike),
    [](const auto &info) { return algorithmName(info.param); });

TEST(DictStripes, SumAndFitInvariants)
{
    // Padding absorbs the dictionary when the shards are skewed;
    // the slot grows (evenly) only when it cannot.
    const std::vector<std::uint32_t> skewed = {900, 300, 310, 280};
    const auto s1 = dictStripes(skewed, 1200);
    EXPECT_EQ(dictSlotSize(skewed, 1200), 900u);
    std::uint32_t total = 0;
    for (std::size_t d = 0; d < s1.size(); ++d) {
        total += s1[d];
        EXPECT_LE(skewed[d] + s1[d], 900u);
    }
    EXPECT_EQ(total, 1200u);

    const std::vector<std::uint32_t> flat = {500, 500, 500, 500};
    const std::uint32_t slot = dictSlotSize(flat, 1000);
    EXPECT_EQ(slot, 750u);  // 1000 / 4 DIMMs of growth
    const auto s2 = dictStripes(flat, 1000);
    total = 0;
    for (std::size_t d = 0; d < s2.size(); ++d) {
        total += s2[d];
        EXPECT_LE(flat[d] + s2[d], slot);
    }
    EXPECT_EQ(total, 1000u);

    // No dictionary: the slot is just the largest shard.
    EXPECT_EQ(dictSlotSize(skewed, 0), 900u);
}

TEST(Dict, BuildIsDeterministicAndBounded)
{
    const Bytes page = generateCorpus(CorpusKind::LogLines, 9, 4096);
    const Bytes a = buildPresetDictionary(page, 256, 2048);
    const Bytes b = buildPresetDictionary(page, 256, 2048);
    EXPECT_EQ(a, b);
    EXPECT_LE(a.size(), 2048u);
    // Whole-chunk sampling: every dictionary byte exists in the page.
    EXPECT_FALSE(a.empty());
}

// ------------------------------------------------ concurrent shards

TEST(Codec, ConcurrentShardsMatchSerial)
{
    // The CPU swap path fans a page's shards out over worker
    // threads, and each thread leases its own codec scratch (finder
    // tables, Huffman builder, ZstdLike shard buffers). Run under
    // TSan this checks no lease is shared; the blocks and restored
    // shards must match a serial run byte for byte.
    constexpr std::size_t dimms = 8;
    constexpr std::size_t interleave = 256;
    WorkerPool pool(4);
    for (const auto algo : {Algorithm::LzFast, Algorithm::Deflate,
                            Algorithm::ZstdLike}) {
        const auto codec = makeCompressor(algo);
        for (const auto kind : allCorpusKinds()) {
            const Bytes page = generateCorpus(kind, 7, 4096);
            const Bytes dict =
                buildPresetDictionary(page, interleave, 2048);
            std::vector<Bytes> shards(dimms);
            for (std::size_t off = 0; off < page.size();
                 off += interleave) {
                Bytes &shard = shards[off / interleave % dimms];
                shard.insert(shard.end(), page.begin() + off,
                             page.begin() + off + interleave);
            }
            // Slot 2d holds shard d's plain block, 2d + 1 its
            // dictionary block.
            auto encode = [&](std::size_t i, Bytes &block) {
                if (i % 2 == 0)
                    codec->compressInto(shards[i / 2], block);
                else
                    codec->compressWithDictInto(dict, shards[i / 2],
                                                block);
            };
            std::vector<Bytes> serial(2 * dimms);
            for (std::size_t i = 0; i < serial.size(); ++i)
                encode(i, serial[i]);

            std::vector<Bytes> blocks(2 * dimms);
            std::vector<Bytes> restored(2 * dimms);
            pool.parallelFor(blocks.size(), [&](std::size_t i) {
                encode(i, blocks[i]);
                if (i % 2 == 0)
                    codec->decompressInto(blocks[i], restored[i]);
                else
                    codec->decompressWithDictInto(dict, blocks[i],
                                                  restored[i]);
            });
            for (std::size_t i = 0; i < blocks.size(); ++i) {
                EXPECT_EQ(blocks[i], serial[i])
                    << algorithmName(algo) << " " << corpusName(kind)
                    << " slot " << i;
                EXPECT_EQ(restored[i], shards[i / 2]);
            }
        }
    }
}

} // namespace
} // namespace compress
} // namespace xfm

// ------------------------------------------- per-block set-up oracles
//
// The codec's per-block set-up (canonical codes, decoder tables,
// code-length RLE, bit writer, finder tables) was rewritten for
// speed with byte-identical output. Each piece is checked here
// against the straightforward version it replaced or the RFC 1951
// definition it implements.

namespace xfm
{
namespace compress
{
namespace
{

/** Byte-at-a-time LSB-first bit writer: the oracle for BitWriter. */
class ByteBitWriter
{
  public:
    explicit ByteBitWriter(Bytes &out) : out_(out) {}

    void
    put(std::uint32_t value, unsigned nbits)
    {
        const std::uint32_t mask =
            nbits >= 32 ? 0xFFFFFFFFu : ((1u << nbits) - 1);
        acc_ |= static_cast<std::uint64_t>(value & mask) << fill_;
        fill_ += nbits;
        while (fill_ >= 8) {
            out_.push_back(static_cast<std::uint8_t>(acc_ & 0xFF));
            acc_ >>= 8;
            fill_ -= 8;
        }
    }

    void
    flush()
    {
        if (fill_ > 0) {
            out_.push_back(static_cast<std::uint8_t>(acc_ & 0xFF));
            acc_ = 0;
            fill_ = 0;
        }
    }

  private:
    Bytes &out_;
    std::uint64_t acc_ = 0;
    unsigned fill_ = 0;
};

TEST(Bitstream, WordWriterMatchesByteWriter)
{
    Rng rng(2401);
    for (int trial = 0; trial < 200; ++trial) {
        Bytes got;
        Bytes want;
        BitWriter bw(got);
        ByteBitWriter ref(want);
        const int puts = static_cast<int>(rng.uniformInt(300));
        for (int i = 0; i < puts; ++i) {
            // Widths 0..32, with 32 and tiny widths over-weighted;
            // values carry junk above nbits, which must be masked.
            const unsigned nbits = rng.uniformInt(4) == 0
                ? static_cast<unsigned>(rng.uniformInt(2)) * 32
                : static_cast<unsigned>(rng.uniformInt(33));
            const auto value = static_cast<std::uint32_t>(rng.next());
            bw.put(value, nbits);
            ref.put(value, nbits);
            // An occasional mid-stream flush pads to a byte in both.
            if (rng.uniformInt(64) == 0) {
                bw.flush();
                ref.flush();
            }
        }
        bw.flush();
        ref.flush();
        ASSERT_EQ(got, want) << "trial " << trial;
    }
}

/** RFC 1951 §3.2.2, literally, then each code's low `len` bits
 *  reversed for LSB-first emission. */
std::vector<std::uint32_t>
rfc1951Codes(const std::vector<std::uint8_t> &lengths)
{
    std::array<std::uint32_t, maxCodeLength + 1> bl_count{};
    for (auto len : lengths)
        ++bl_count[len];
    bl_count[0] = 0;
    std::array<std::uint32_t, maxCodeLength + 1> next_code{};
    std::uint32_t code = 0;
    for (unsigned bits = 1; bits <= maxCodeLength; ++bits) {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    std::vector<std::uint32_t> codes(lengths.size(), 0);
    for (std::size_t n = 0; n < lengths.size(); ++n) {
        const unsigned len = lengths[n];
        if (len == 0)
            continue;
        const std::uint32_t c = next_code[len]++;
        std::uint32_t rev = 0;
        for (unsigned b = 0; b < len; ++b)
            rev |= ((c >> b) & 1u) << (len - 1 - b);
        codes[n] = rev;
    }
    return codes;
}

TEST(Huffman, CanonicalCodesMatchRfc1951)
{
    Rng rng(2402);
    std::vector<std::uint32_t> got;
    auto check = [&](const std::vector<std::uint8_t> &lengths) {
        canonicalCodes(lengths, got);
        ASSERT_EQ(got, rfc1951Codes(lengths))
            << lengths.size() << " symbols";
    };
    // Empty alphabet, all-zero lengths and every single-symbol
    // placement of a short alphabet.
    check({});
    check(std::vector<std::uint8_t>(286, 0));
    for (std::size_t n = 1; n <= 17; ++n)
        for (std::size_t s = 0; s < n; ++s) {
            std::vector<std::uint8_t> lengths(n, 0);
            lengths[s] = 1;
            check(lengths);
        }
    // Random vectors over alphabets of 1..286: sparse (a shard's
    // literals), dense, clustered and zero-free, with lengths up
    // to 15. Many over-subscribe the code space; the definition
    // still fixes every code.
    for (int trial = 0; trial < 2000; ++trial) {
        const std::size_t n = 1 + rng.uniformInt(286);
        std::vector<std::uint8_t> lengths(n, 0);
        const unsigned top = 1 + static_cast<unsigned>(rng.uniformInt(15));
        switch (trial % 4) {
          case 0:
            for (auto &len : lengths)
                if (rng.uniformInt(7) == 0)
                    len = static_cast<std::uint8_t>(1 + rng.uniformInt(top));
            break;
          case 1:
            for (auto &len : lengths)
                len = static_cast<std::uint8_t>(rng.uniformInt(top + 1));
            break;
          case 2: {
            const std::size_t lo = rng.uniformInt(n);
            const std::size_t hi = lo + rng.uniformInt(n - lo + 1);
            for (std::size_t s = lo; s < hi; ++s)
                lengths[s] = static_cast<std::uint8_t>(1 + rng.uniformInt(top));
            break;
          }
          default:
            for (auto &len : lengths)
                len = static_cast<std::uint8_t>(1 + rng.uniformInt(top));
            break;
        }
        check(lengths);
    }
}

/**
 * Bit-serial canonical decoder (zlib's puff): read one bit at a
 * time, most significant code bit first, and find the symbol from
 * the count of codes of each length. Returns -1 for a bit pattern
 * no code owns.
 */
class BitSerialDecoder
{
  public:
    explicit BitSerialDecoder(const std::vector<std::uint8_t> &lengths)
    {
        for (auto len : lengths)
            ++count_[len];
        for (unsigned len = 1; len <= maxCodeLength; ++len)
            for (std::size_t s = 0; s < lengths.size(); ++s)
                if (lengths[s] == len)
                    sorted_.push_back(static_cast<std::uint32_t>(s));
    }

    std::int64_t
    decode(BitReader &br) const
    {
        std::uint32_t code = 0;
        std::uint32_t first = 0;
        std::uint32_t index = 0;
        for (unsigned len = 1; len <= maxCodeLength; ++len) {
            code |= br.get(1);
            const std::uint32_t count = count_[len];
            if (code - first < count)
                return sorted_[index + (code - first)];
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        return -1;
    }

  private:
    std::array<std::uint32_t, maxCodeLength + 1> count_{};
    std::vector<std::uint32_t> sorted_;
};

/** Decode @p stream until it fails: the symbols, and whether it
 *  ended in an error (truncation or an unowned code). */
template <typename Fn>
std::pair<std::vector<std::uint32_t>, bool>
decodeAll(const Bytes &stream, std::size_t most, Fn &&one)
{
    std::vector<std::uint32_t> out;
    BitReader br(stream);
    try {
        while (out.size() < most)
            if (!one(br, out))
                return {out, true};
    } catch (const FatalError &) {
        return {out, true};
    }
    return {out, false};
}

TEST(Huffman, TableDecoderMatchesBitSerialDecoder)
{
    Rng rng(2403);
    for (int trial = 0; trial < 300; ++trial) {
        // Shard-like literal alphabets and deflate-sized ones, with
        // skews deep enough to push codes past the 11-bit root into
        // subtables and up to the 15-bit limit.
        const std::size_t n = trial % 2 ? 256 : 2 + rng.uniformInt(285);
        std::vector<std::uint64_t> counts(n, 0);
        switch (trial % 3) {
          case 0:
            for (int k = 0; k < 120; ++k)
                ++counts[rng.zipf(n, 1.0)];
            break;
          case 1:
            for (std::size_t s = 0; s < n; ++s)
                counts[s] = rng.uniformInt(3) == 0
                    ? 0 : std::uint64_t(1) << rng.uniformInt(20);
            break;
          default:
            for (std::size_t s = 0; s < n; ++s)
                counts[s] = 1 + rng.uniformInt(1000);
            break;
        }
        const auto lengths = codeLengths(counts);
        if (std::all_of(lengths.begin(), lengths.end(),
                        [](auto len) { return len == 0; }))
            continue;
        const HuffmanDecoder table(lengths);
        const BitSerialDecoder serial(lengths);

        // Random bytes: every code is tried, including patterns no
        // code owns when the code is incomplete (a single symbol).
        Bytes stream(64 + rng.uniformInt(512));
        for (auto &b : stream)
            b = static_cast<std::uint8_t>(rng.next());
        // And a valid stream of every live symbol.
        Bytes valid;
        {
            HuffmanEncoder enc(lengths);
            BitWriter bw(valid);
            for (int k = 0; k < 2000; ++k) {
                const auto s = static_cast<std::uint32_t>(rng.uniformInt(n));
                if (lengths[s] != 0)
                    enc.encode(bw, s);
            }
            bw.flush();
        }
        for (const Bytes *in : {&stream, &valid}) {
            const auto want = decodeAll(
                *in, SIZE_MAX, [&](BitReader &br, auto &out) {
                    const std::int64_t s = serial.decode(br);
                    if (s < 0)
                        return false;
                    out.push_back(static_cast<std::uint32_t>(s));
                    return true;
                });
            const auto single = decodeAll(
                *in, SIZE_MAX, [&](BitReader &br, auto &out) {
                    out.push_back(table.decode(br));
                    return true;
                });
            ASSERT_EQ(single, want) << "trial " << trial;
        }
    }
}

/** The code-length RLE writer this library used to ship. */
void
referenceWriteRle(ByteBitWriter &bw, const std::vector<std::uint8_t> &lengths)
{
    std::size_t i = 0;
    while (i < lengths.size()) {
        const std::uint8_t cur = lengths[i];
        std::size_t run = 1;
        while (i + run < lengths.size() && lengths[i + run] == cur)
            ++run;
        if (cur == 0 && run >= 3) {
            std::size_t left = run;
            while (left >= 11) {
                const std::size_t take = std::min<std::size_t>(left, 138);
                bw.put(18, 5);
                bw.put(static_cast<std::uint32_t>(take - 11), 7);
                left -= take;
            }
            if (left >= 3) {
                bw.put(17, 5);
                bw.put(static_cast<std::uint32_t>(left - 3), 3);
                left = 0;
            }
            while (left-- > 0)
                bw.put(0, 5);
        } else {
            bw.put(cur, 5);
            std::size_t left = run - 1;
            while (left >= 3) {
                const std::size_t take = std::min<std::size_t>(left, 6);
                bw.put(16, 5);
                bw.put(static_cast<std::uint32_t>(take - 3), 2);
                left -= take;
            }
            while (left-- > 0)
                bw.put(cur, 5);
        }
        i += run;
    }
}

/** The code-length RLE reader this library used to ship. */
std::vector<std::uint8_t>
referenceReadRle(BitReader &br, std::size_t count)
{
    std::vector<std::uint8_t> lengths;
    while (lengths.size() < count) {
        const std::uint32_t sym = br.get(5);
        if (sym <= 15) {
            lengths.push_back(static_cast<std::uint8_t>(sym));
        } else if (sym == 16) {
            if (lengths.empty())
                fatal("codelen rle: repeat with no previous length");
            const std::uint32_t run = 3 + br.get(2);
            const std::uint8_t v = lengths.back();
            for (std::uint32_t k = 0; k < run; ++k)
                lengths.push_back(v);
        } else if (sym == 17) {
            lengths.insert(lengths.end(), 3 + br.get(3), 0);
        } else if (sym == 18) {
            lengths.insert(lengths.end(), 11 + br.get(7), 0);
        } else {
            fatal("codelen rle: invalid symbol ", sym);
        }
    }
    if (lengths.size() != count)
        fatal("codelen rle: overran requested count");
    return lengths;
}

TEST(Huffman, CodeLengthRleMatchesReference)
{
    Rng rng(2404);
    std::vector<std::uint8_t> got;
    for (int trial = 0; trial < 1500; ++trial) {
        // Zero runs of every length across the 8-byte skip (and
        // past 138), repeat runs, and singletons, over 0..300.
        const std::size_t n = rng.uniformInt(301);
        std::vector<std::uint8_t> lengths;
        while (lengths.size() < n) {
            const std::size_t run = 1 + rng.uniformInt(
                rng.uniformInt(4) == 0 ? 160 : 12);
            const auto v = static_cast<std::uint8_t>(
                rng.uniformInt(3) == 0 ? 0 : rng.uniformInt(16));
            for (std::size_t k = 0; k < run && lengths.size() < n; ++k)
                lengths.push_back(v);
        }
        Bytes stream;
        Bytes want;
        {
            BitWriter bw(stream);
            writeCodeLengthsRle(bw, lengths);
            bw.flush();
            ByteBitWriter ref(want);
            referenceWriteRle(ref, lengths);
            ref.flush();
        }
        ASSERT_EQ(stream, want) << "trial " << trial;
        BitReader br(stream);
        readCodeLengthsRle(br, n, got);
        ASSERT_EQ(got, lengths) << "trial " << trial;
    }
    // Garbage streams: the reader fails exactly where the reference
    // does, and otherwise returns the same lengths.
    for (int trial = 0; trial < 3000; ++trial) {
        Bytes stream(1 + rng.uniformInt(200));
        for (auto &b : stream)
            b = static_cast<std::uint8_t>(rng.next());
        const std::size_t count = rng.uniformInt(300);
        std::vector<std::uint8_t> want;
        bool want_fatal = false;
        try {
            BitReader br(stream);
            want = referenceReadRle(br, count);
        } catch (const FatalError &) {
            want_fatal = true;
        }
        bool got_fatal = false;
        try {
            BitReader br(stream);
            readCodeLengthsRle(br, count, got);
        } catch (const FatalError &) {
            got_fatal = true;
        }
        ASSERT_EQ(got_fatal, want_fatal) << "trial " << trial;
        if (!want_fatal) {
            ASSERT_EQ(got, want) << "trial " << trial;
        }
    }
}

TEST(Huffman, CodeLengthRleOverrunFailsBeforeWriting)
{
    // Three literal lengths, then a zero run of 11 where only two
    // lengths remain.
    Bytes stream;
    {
        BitWriter bw(stream);
        for (std::uint32_t len : {3, 3, 2})
            bw.put(len, 5);
        bw.put(18, 5);
        bw.put(0, 7);
        bw.flush();
    }
    std::vector<std::uint8_t> got;
    BitReader br(stream);
    EXPECT_THROW(readCodeLengthsRle(br, 5, got), FatalError);
    EXPECT_EQ(got.size(), 5u) << "the overrunning run was written";
    EXPECT_EQ(got[0], 3u);
    EXPECT_EQ(got[2], 2u);
}

/**
 * The generation-stamped finder this library used to ship, with
 * its lazy probe searching from length 0: the oracle for the
 * base-offset finder tables and the floored lazy probe. Its two
 * exact shortcuts, the 4-byte candidate prefilter and the carried
 * lookahead, are left out, so they are checked too.
 */
namespace finder_oracle
{

constexpr std::size_t hashSize = std::size_t(1) << 15;

std::uint32_t
hash3(const std::uint8_t *p)
{
    const std::uint32_t v = static_cast<std::uint32_t>(p[0])
        | (static_cast<std::uint32_t>(p[1]) << 8)
        | (static_cast<std::uint32_t>(p[2]) << 16);
    return (v * 2654435761u) >> (32 - 15);
}

struct Tables
{
    std::vector<std::uint32_t> headPos = std::vector<std::uint32_t>(hashSize);
    std::vector<std::uint32_t> headGen =
        std::vector<std::uint32_t>(hashSize, 0);
    std::vector<std::int32_t> prev;
    std::uint32_t gen = 0;
};

struct Finder
{
    ByteSpan in;
    const Lz77Params &p;
    Tables &t;

    Finder(ByteSpan input, const Lz77Params &params, Tables &tables)
        : in(input), p(params), t(tables)
    {
        if (t.prev.size() < in.size())
            t.prev.resize(in.size());
        if (++t.gen == 0) {
            std::fill(t.headGen.begin(), t.headGen.end(), 0u);
            t.gen = 1;
        }
    }

    void
    insert(std::size_t pos)
    {
        if (pos + 3 > in.size())
            return;
        const std::uint32_t h = hash3(in.data() + pos);
        t.prev[pos] = t.headGen[h] == t.gen
            ? static_cast<std::int32_t>(t.headPos[h])
            : -1;
        t.headPos[h] = static_cast<std::uint32_t>(pos);
        t.headGen[h] = t.gen;
    }

    std::pair<std::uint32_t, std::uint32_t>
    bestMatch(std::size_t pos) const
    {
        if (pos + p.minMatch > in.size())
            return {0, 0};
        const auto limit = static_cast<std::uint32_t>(
            std::min<std::size_t>(p.maxMatch, in.size() - pos));
        const std::size_t window_start =
            pos > p.windowBytes ? pos - p.windowBytes : 0;
        std::uint32_t best_len = 0;
        std::uint32_t best_dist = 0;
        const std::uint32_t h = hash3(in.data() + pos);
        std::int64_t cand =
            t.headGen[h] == t.gen ? std::int64_t(t.headPos[h]) : -1;
        unsigned chain = p.maxChainLength;
        while (cand >= 0 && chain-- > 0) {
            const auto cpos = static_cast<std::size_t>(cand);
            if (cpos < window_start)
                break;
            if (cpos >= pos) {
                cand = t.prev[cpos];
                continue;
            }
            if (best_len == 0
                || in[cpos + best_len] == in[pos + best_len]) {
                std::uint32_t len = 0;
                while (len < limit && in[cpos + len] == in[pos + len])
                    ++len;
                if (len > best_len) {
                    best_len = len;
                    best_dist = static_cast<std::uint32_t>(pos - cpos);
                    if (best_len >= limit)
                        break;
                }
            }
            cand = t.prev[cpos];
        }
        if (best_len < p.minMatch)
            return {0, 0};
        return {best_len, best_dist};
    }
};

std::vector<Lz77Token>
tokenize(ByteSpan input, const Lz77Params &params, std::size_t start,
         Tables &tables)
{
    std::vector<Lz77Token> tokens;
    if (input.size() == start)
        return tokens;
    Finder f(input, params, tables);
    for (std::size_t i = 0; i < start; ++i)
        f.insert(i);
    std::size_t pos = start;
    while (pos < input.size()) {
        const auto [len, dist] = f.bestMatch(pos);
        if (params.lazyMatching && len > 0 && pos + 1 < input.size()) {
            f.insert(pos);
            const auto next = f.bestMatch(pos + 1);
            if (next.first > len + 1) {
                tokens.push_back({false, input[pos], 0, 0});
                ++pos;
                continue;
            }
            tokens.push_back({true, 0, len, dist});
            for (std::size_t i = pos + 1; i < pos + len; ++i)
                f.insert(i);
            pos += len;
            continue;
        }
        if (len > 0) {
            tokens.push_back({true, 0, len, dist});
            for (std::size_t i = pos; i < pos + len; ++i)
                f.insert(i);
            pos += len;
        } else {
            tokens.push_back({false, input[pos], 0, 0});
            f.insert(pos);
            ++pos;
        }
    }
    return tokens;
}

} // namespace finder_oracle

/** Index of the first differing sequence, or -1 when equal. */
std::int64_t
firstSeqDiff(std::span<const Lz77Seq> a, std::span<const Lz77Seq> b)
{
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i].litRun != b[i].litRun || a[i].matchLen != b[i].matchLen
            || a[i].offset != b[i].offset)
            return static_cast<std::int64_t>(i);
    }
    return a.size() == b.size() ? -1 : static_cast<std::int64_t>(n);
}

/** Adversarial finder input: a 2-4 symbol alphabet, so every hash
 *  chain is long and walks exhaust the chain budget, with periodic
 *  stretches and a random tail. */
Bytes
skewedInput(Rng &rng, std::size_t n)
{
    const unsigned symbols = 2 + static_cast<unsigned>(rng.uniformInt(3));
    Bytes in;
    while (in.size() < n) {
        const std::size_t period = 1 + rng.uniformInt(12);
        const std::size_t reps = rng.uniformInt(40);
        const std::size_t base = in.size();
        for (std::size_t k = 0; k < period && in.size() < n; ++k)
            in.push_back(static_cast<std::uint8_t>('a' + rng.uniformInt(symbols)));
        for (std::size_t k = 0; k < period * reps && in.size() < n; ++k)
            in.push_back(in[base + k % period]);
    }
    return in;
}

TEST(Lz77, FinderMatchesGenerationStampedOracle)
{
    Rng rng(2405);
    finder_oracle::Tables tables;
    std::size_t matches = 0;
    for (int trial = 0; trial < 600; ++trial) {
        const std::size_t n = 1 + rng.uniformInt(3000);
        Bytes in = trial % 5 == 4
            ? generateCorpus(allCorpusKinds()[rng.uniformInt(
                                 allCorpusKinds().size())],
                             trial, 4096)
            : skewedInput(rng, n);
        Lz77Params params;
        params.minMatch = 3 + static_cast<std::uint32_t>(trial % 2);
        params.lazyMatching = trial / 2 % 2 == 0;
        params.maxChainLength = trial % 3 == 0 ? 128
            : static_cast<unsigned>(1 + rng.uniformInt(64));
        params.maxMatch = trial % 4 == 0 ? 1 << 16
            : trial % 4 == 1 ? static_cast<std::uint32_t>(
                                   params.minMatch + rng.uniformInt(12))
                             : 258;
        // Windows shorter than the input in most trials.
        params.windowBytes = trial % 3 == 1
            ? 32 * 1024 : 16 + rng.uniformInt(in.size() + 1);
        const std::size_t start =
            trial % 4 == 3 ? rng.uniformInt(in.size() + 1) : 0;
        const auto got = lz77Sequences(in, params, start);
        const auto want = groupIntoSequences(
            finder_oracle::tokenize(in, params, start, tables));
        ASSERT_EQ(firstSeqDiff(got, want), -1)
            << "trial " << trial << ": " << in.size() << " bytes, start "
            << start << ", minMatch " << params.minMatch << ", lazy "
            << params.lazyMatching << ", chain " << params.maxChainLength
            << ", window " << params.windowBytes;
        for (const Lz77Seq &s : got)
            matches += s.matchLen > 0;
    }
    EXPECT_GT(matches, 10000u) << "inputs too weak to exercise the finder";
}

/**
 * The finder's sequences are the token oracle's tokens grouped into
 * runs: the bulk match-interior insert and the one-load hash index
 * exactly what per-position 3-byte inserts did.
 */
TEST(Lz77, SequencesMatchTokenOracle)
{
    Rng rng(3101);
    std::size_t matches = 0;
    std::size_t suffixes = 0;
    for (int trial = 0; trial < 400; ++trial) {
        const std::size_t n = 1 + rng.uniformInt(4096);
        Bytes in;
        if (trial % 2 == 0) {
            in = skewedInput(rng, n);
        } else {
            in.resize(n);
            for (auto &b : in)
                b = static_cast<std::uint8_t>(rng.uniformInt(256));
        }
        Lz77Params params;
        params.minMatch = 3 + static_cast<std::uint32_t>(trial / 2 % 2);
        params.lazyMatching = trial / 4 % 2 == 0;
        params.maxMatch = trial % 3 == 0 ? 1 << 16 : 258;
        params.maxChainLength = trial % 5 == 0 ? 16 : 128;
        // Every third trial starts past a shared-history prefix, as
        // a preset dictionary does.
        const std::size_t start =
            trial % 3 == 2 ? rng.uniformInt(in.size() + 1) : 0;
        suffixes += start > 0;
        const auto got = lz77Sequences(in, params, start);
        const auto tokens = lz77Tokenize(in, params, start);
        ASSERT_EQ(firstSeqDiff(got, groupIntoSequences(tokens)), -1)
            << "trial " << trial << ": " << in.size() << " bytes, start "
            << start << ", minMatch " << params.minMatch << ", lazy "
            << params.lazyMatching;
        ASSERT_EQ(lz77Reconstruct(in, start, got),
                  Bytes(in.begin() + static_cast<std::ptrdiff_t>(start),
                        in.end()))
            << "trial " << trial;
        for (const Lz77Seq &s : got)
            matches += s.matchLen > 0;
    }
    EXPECT_GT(matches, 5000u) << "inputs too weak to exercise the finder";
    EXPECT_GT(suffixes, 100u);
}

TEST(Lz77, FinderBaseWrapClearsTables)
{
    // Positions are stored as base + index in 32 bits; an input
    // whose last position would pass 2^32 first zeroes the head
    // table and restarts the base at 1. Park the base just below
    // the top, fill the table there, then cross.
    constexpr std::uint64_t top = std::uint64_t(1) << 32;
    Rng rng(2406);
    finder_oracle::Tables tables;
    const Lz77Params params;
    auto check = [&](const Bytes &in, const char *what) {
        ASSERT_EQ(firstSeqDiff(lz77Sequences(in, params),
                               groupIntoSequences(finder_oracle::tokenize(
                                   in, params, 0, tables))),
                  -1)
            << what;
    };
    setFinderTableBase(std::max(finderTableBase(), top - 6000));
    const Bytes first = skewedInput(rng, 2000);
    check(first, "below the top");
    EXPECT_EQ(finderTableBase(), top - 4000);
    // Exactly fits: the last position is stored as 2^32 - 1.
    const Bytes fits = skewedInput(rng, 4000);
    check(fits, "up to the top");
    EXPECT_EQ(finderTableBase(), top);
    // The same bytes again would find the stale entries near the
    // top if they were still live.
    check(fits, "across the top");
    EXPECT_EQ(finderTableBase(), 1 + fits.size());
    check(first, "after the clear");
    EXPECT_EQ(finderTableBase(), 1 + fits.size() + first.size());
    // One byte too many: the last position would be stored as 2^32.
    setFinderTableBase(top - fits.size());
    const Bytes over = skewedInput(rng, fits.size() + 1);
    check(over, "one past the top");
    EXPECT_EQ(finderTableBase(), 1 + over.size());
}

} // namespace
} // namespace compress
} // namespace xfm
