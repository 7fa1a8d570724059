#include "zstdlike.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "common/units.hh"
#include "compress/bitstream.hh"
#include "compress/huffman.hh"
#include "compress/lz77.hh"

namespace xfm
{
namespace compress
{

namespace
{

/** Frame mode of a literals + sequences body. */
constexpr std::uint8_t modeZstd = 2;

// In the sequence stream an offset varint of 0 means "repeat the
// previous offset" (zstd's repeat-offset shortcut); otherwise the
// varint is the offset itself.

void
putVarint(Bytes &out, std::uint32_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t
getVarint(ByteSpan in, std::size_t &pos)
{
    std::uint32_t v = 0;
    unsigned shift = 0;
    for (;;) {
        if (pos >= in.size())
            fatal("zstdlike: truncated varint");
        const std::uint8_t b = in[pos++];
        v |= static_cast<std::uint32_t>(b & 0x7F) << shift;
        if (!(b & 0x80))
            return v;
        shift += 7;
        if (shift >= 35)
            fatal("zstdlike: varint too long");
    }
}

/** One sequence: a literal run, then a match. */
struct Seq
{
    std::uint32_t litRun;
    std::uint32_t matchLen;  // 0 only for the trailing run
    std::uint32_t offset;
};

/**
 * Pooled per-thread shard buffers, leased like lz77's finder
 * tables: each block resets them instead of reallocating, so
 * steady-state compression and decompression allocate nothing
 * beyond the caller's output buffer.
 */
struct ShardScratch
{
    std::vector<Lz77Token> tokens;
    Bytes literals;
    std::vector<Seq> seqs;
    std::array<std::uint64_t, 256> counts{};
    std::vector<std::uint8_t> lengths;
    HuffmanEncoder enc;
    HuffmanDecoder dec;
};

ShardScratch &
shardScratch()
{
    thread_local ShardScratch scratch;
    return scratch;
}

} // namespace

ZstdLikeCodec::ZstdLikeCodec(std::size_t window_bytes)
    : Compressor(modeZstd), window_bytes_(window_bytes)
{
    XFM_ASSERT(window_bytes_ >= 16 && window_bytes_ <= (1u << 27),
               "zstdlike window out of range");
}

void
ZstdLikeCodec::encodeBody(ByteSpan full, std::size_t start,
                          Bytes &out) const
{
    Lz77Params params;
    params.windowBytes = window_bytes_;
    params.minMatch = 4;
    params.maxMatch = 1 << 16;
    params.maxChainLength = 128;  // deeper search: ratio profile
    params.lazyMatching = true;
    ShardScratch &t = shardScratch();
    lz77TokenizeSuffix(full, params, start, t.tokens);

    // Split literals from sequences, zstd style.
    Bytes &literals = t.literals;
    literals.clear();
    t.seqs.clear();
    std::uint32_t run = 0;
    for (const auto &tok : t.tokens) {
        if (tok.isMatch) {
            t.seqs.push_back({run, tok.length, tok.distance});
            run = 0;
        } else {
            literals.push_back(tok.literal);
            ++run;
        }
    }
    if (run > 0)
        t.seqs.push_back({run, 0, 0});

    // Entropy code the literal stream.
    t.counts.fill(0);
    for (auto b : literals)
        ++t.counts[b];
    huffmanCodeLengths(t.counts, t.lengths);
    t.enc.assign(t.lengths);

    putU32(out, static_cast<std::uint32_t>(literals.size()));
    putU32(out, static_cast<std::uint32_t>(t.seqs.size()));

    // Literals section (bit-packed), then byte-aligned sequences.
    {
        BitWriter bw(out);
        writeCodeLengthsRle(bw, t.lengths);
        for (auto b : literals)
            t.enc.encode(bw, b);
        bw.flush();
    }

    // Sequences: one LZ4-style token byte packs the literal-run and
    // match-length nibbles; 15 in a nibble means a varint extension
    // follows. matchLen is stored as (len - minMatch + 1) so that 0
    // marks the trailing literals-only sequence.
    std::uint32_t last_offset = 0;
    for (const auto &s : t.seqs) {
        const std::uint32_t mcode =
            s.matchLen == 0 ? 0 : s.matchLen - 4 + 1;
        const std::uint8_t lit_nib =
            static_cast<std::uint8_t>(std::min(s.litRun, 15u));
        const std::uint8_t m_nib =
            static_cast<std::uint8_t>(std::min(mcode, 15u));
        out.push_back(static_cast<std::uint8_t>((lit_nib << 4) | m_nib));
        if (lit_nib == 15)
            putVarint(out, s.litRun - 15);
        if (m_nib == 15)
            putVarint(out, mcode - 15);
        if (s.matchLen == 0)
            continue;
        if (s.offset == last_offset) {
            putVarint(out, 0);
        } else {
            putVarint(out, s.offset);
            last_offset = s.offset;
        }
    }
}

void
ZstdLikeCodec::decodeBody(ByteSpan body, std::size_t, Bytes &out) const
{
    const std::uint32_t lit_count = getU32(body, 0);
    const std::uint32_t seq_count = getU32(body, 4);

    // Literals section.
    ShardScratch &t = shardScratch();
    Bytes &literals = t.literals;
    literals.clear();
    literals.reserve(std::min<std::size_t>(lit_count, pageBytes));
    std::size_t pos = 8;
    {
        BitReader br(body.subspan(pos));
        readCodeLengthsRle(br, 256, t.lengths);
        HuffmanDecoder &lit_dec = t.dec;
        lit_dec.assign(t.lengths);
        for (std::uint32_t i = 0; i < lit_count; ++i)
            literals.push_back(
                static_cast<std::uint8_t>(lit_dec.decode(br)));
        pos += br.alignedByteOffset();
    }

    // Sequence replay on top of the seeded history.
    std::size_t lit_pos = 0;
    std::uint32_t last_offset = 0;
    for (std::uint32_t i = 0; i < seq_count; ++i) {
        if (pos >= body.size())
            fatal("zstdlike: truncated sequence token");
        const std::uint8_t token = body[pos++];
        std::uint32_t lit_run = token >> 4;
        if (lit_run == 15)
            lit_run += getVarint(body, pos);
        std::uint32_t mcode = token & 0x0F;
        if (mcode == 15)
            mcode += getVarint(body, pos);
        if (lit_pos + lit_run > literals.size())
            fatal("zstdlike: literal stream overrun");
        out.insert(out.end(), literals.begin() + lit_pos,
                   literals.begin() + lit_pos + lit_run);
        lit_pos += lit_run;
        if (mcode == 0)
            continue;
        const std::uint32_t match_len = mcode - 1 + 4;
        std::uint32_t offset = getVarint(body, pos);
        if (offset == 0)
            offset = last_offset;
        else
            last_offset = offset;
        if (offset == 0 || offset > out.size())
            fatal("zstdlike: bad offset ", offset);
        appendMatch(out, offset, match_len);
    }
}

} // namespace compress
} // namespace xfm
