#include "deflate.hh"

#include <array>
#include <cstring>

#include "common/logging.hh"
#include "compress/bitstream.hh"
#include "compress/huffman.hh"
#include "compress/lz77.hh"

namespace xfm
{
namespace compress
{

namespace
{

// Block modes.
constexpr std::uint8_t modeStored = 0;
constexpr std::uint8_t modeHuffman = 1;

// Alphabets (RFC1951 sizes).
constexpr std::size_t litLenSymbols = 286;  // 0..255 lit, 256 EOB, 257..285
constexpr std::size_t distSymbols = 30;
constexpr std::uint32_t eobSymbol = 256;

// Length code table: symbol 257 + i encodes lengths in
// [lengthBase[i], lengthBase[i] + (1 << lengthExtra[i]) - 1].
constexpr std::array<std::uint32_t, 29> lengthBase = {
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
    35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258
};
constexpr std::array<std::uint8_t, 29> lengthExtra = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
    3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0
};

constexpr std::array<std::uint32_t, 30> distBase = {
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
    257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145,
    8193, 12289, 16385, 24577
};
constexpr std::array<std::uint8_t, 30> distExtra = {
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
    7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13
};

/** Map a match length (3..258) to (code index, extra bits value). */
std::pair<std::uint32_t, std::uint32_t>
lengthCode(std::uint32_t len)
{
    XFM_ASSERT(len >= 3 && len <= 258, "bad match length ", len);
    for (std::size_t i = lengthBase.size(); i-- > 0;) {
        if (len >= lengthBase[i])
            return {static_cast<std::uint32_t>(i),
                    len - lengthBase[i]};
    }
    panic("unreachable length code");
}

/** Map a distance (1..32768) to (code index, extra bits value). */
std::pair<std::uint32_t, std::uint32_t>
distCode(std::uint32_t dist)
{
    XFM_ASSERT(dist >= 1 && dist <= 32768, "bad distance ", dist);
    for (std::size_t i = distBase.size(); i-- > 0;) {
        if (dist >= distBase[i])
            return {static_cast<std::uint32_t>(i), dist - distBase[i]};
    }
    panic("unreachable dist code");
}

void
putU32(Bytes &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t
getU32(ByteSpan in, std::size_t off)
{
    if (off + 4 > in.size())
        fatal("deflate: truncated header");
    return static_cast<std::uint32_t>(in[off])
        | (static_cast<std::uint32_t>(in[off + 1]) << 8)
        | (static_cast<std::uint32_t>(in[off + 2]) << 16)
        | (static_cast<std::uint32_t>(in[off + 3]) << 24);
}

void
storedBlockInto(ByteSpan input, Bytes &out)
{
    out.clear();
    out.reserve(input.size() + 5);
    out.push_back(modeStored);
    putU32(out, static_cast<std::uint32_t>(input.size()));
    out.insert(out.end(), input.begin(), input.end());
}

} // namespace

DeflateCodec::DeflateCodec(std::size_t window_bytes)
    : window_bytes_(window_bytes)
{
    XFM_ASSERT(window_bytes_ >= 16 && window_bytes_ <= 32 * 1024,
               "deflate window must be in [16, 32768]");
}

void
DeflateCodec::compressInto(ByteSpan input, Bytes &out) const
{
    compressBody(input, 0, out);
}

void
DeflateCodec::compressWithDictInto(ByteSpan dict, ByteSpan input,
                                   Bytes &out) const
{
    if (dict.empty()) {
        compressBody(input, 0, out);
        return;
    }
    Bytes concat;
    concat.reserve(dict.size() + input.size());
    concat.insert(concat.end(), dict.begin(), dict.end());
    concat.insert(concat.end(), input.begin(), input.end());
    compressBody(concat, dict.size(), out);
}

void
DeflateCodec::decompressWithDictInto(ByteSpan dict, ByteSpan block,
                                     Bytes &out) const
{
    decompressBody(block, dict, out);
}

/**
 * Compress full[start..) with full[0..start) as shared history: the
 * finder indexes the prefix so matches may reach into it, but only
 * the suffix is emitted and the header's raw size excludes it.
 */
void
DeflateCodec::compressBody(ByteSpan full, std::size_t start,
                           Bytes &out) const
{
    const ByteSpan input = full.subspan(start);
    if (input.empty()) {
        storedBlockInto(input, out);
        return;
    }

    Lz77Params params;
    params.windowBytes = window_bytes_;
    std::vector<Lz77Token> tokens;
    lz77TokenizeSuffix(full, params, start, tokens);

    // Gather symbol statistics.
    std::vector<std::uint64_t> lit_counts(litLenSymbols, 0);
    std::vector<std::uint64_t> dist_counts(distSymbols, 0);
    for (const auto &t : tokens) {
        if (t.isMatch) {
            ++lit_counts[257 + lengthCode(t.length).first];
            ++dist_counts[distCode(t.distance).first];
        } else {
            ++lit_counts[t.literal];
        }
    }
    ++lit_counts[eobSymbol];

    std::vector<std::uint8_t> lit_lengths;
    std::vector<std::uint8_t> dist_lengths;
    huffmanCodeLengths(lit_counts, lit_lengths);
    huffmanCodeLengths(dist_counts, dist_lengths);
    HuffmanEncoder lit_enc(lit_lengths);
    HuffmanEncoder dist_enc(dist_lengths);

    out.clear();
    out.reserve(maxCompressedSize(input.size()));
    out.push_back(modeHuffman);
    putU32(out, static_cast<std::uint32_t>(input.size()));

    BitWriter bw(out);
    writeCodeLengthsRle(bw, lit_lengths);
    writeCodeLengthsRle(bw, dist_lengths);
    for (const auto &t : tokens) {
        if (t.isMatch) {
            const auto [lcode, lextra] = lengthCode(t.length);
            lit_enc.encode(bw, 257 + lcode);
            if (lengthExtra[lcode] > 0)
                bw.put(lextra, lengthExtra[lcode]);
            const auto [dcode, dextra] = distCode(t.distance);
            dist_enc.encode(bw, dcode);
            if (distExtra[dcode] > 0)
                bw.put(dextra, distExtra[dcode]);
        } else {
            lit_enc.encode(bw, t.literal);
        }
    }
    lit_enc.encode(bw, eobSymbol);
    bw.flush();

    // Incompressible input: fall back to a stored block.
    if (out.size() >= input.size() + 5)
        storedBlockInto(input, out);
}

void
DeflateCodec::decompressInto(ByteSpan block, Bytes &out) const
{
    decompressBody(block, {}, out);
}

/**
 * Decompress with @p dict seeded as match history: the output is
 * produced on top of the dictionary bytes (so distances may reach
 * into them) and the prefix is stripped before returning.
 */
void
DeflateCodec::decompressBody(ByteSpan block, ByteSpan dict,
                             Bytes &out) const
{
    if (block.empty())
        fatal("deflate: empty block");
    const std::uint8_t mode = block[0];
    if (mode == modeStored) {
        const std::uint32_t len = getU32(block, 1);
        if (block.size() < 5 + std::size_t(len))
            fatal("deflate: stored block truncated");
        out.assign(block.begin() + 5, block.begin() + 5 + len);
        return;
    }
    if (mode != modeHuffman)
        fatal("deflate: unknown block mode ", unsigned(mode));

    const std::uint32_t expected = getU32(block, 1);
    const std::size_t target = dict.size() + expected;
    BitReader br(block.subspan(5));
    std::vector<std::uint8_t> lit_lengths;
    std::vector<std::uint8_t> dist_lengths;
    readCodeLengthsRle(br, litLenSymbols, lit_lengths);
    readCodeLengthsRle(br, distSymbols, dist_lengths);
    HuffmanDecoder lit_dec(lit_lengths);
    HuffmanDecoder dist_dec(dist_lengths);

    out.assign(dict.begin(), dict.end());
    out.reserve(target);
    for (;;) {
        std::uint32_t sym;
        std::uint32_t sym2;
        if (lit_dec.decodePair(br, sym, sym2) == 2) {
            // Pairs are literal-only by construction.
            out.push_back(static_cast<std::uint8_t>(sym));
            out.push_back(static_cast<std::uint8_t>(sym2));
            continue;
        }
        if (sym == eobSymbol)
            break;
        if (sym < 256) {
            out.push_back(static_cast<std::uint8_t>(sym));
            continue;
        }
        const std::uint32_t lcode = sym - 257;
        if (lcode >= lengthBase.size())
            fatal("deflate: bad length symbol ", sym);
        std::uint32_t len = lengthBase[lcode];
        if (lengthExtra[lcode] > 0)
            len += br.get(lengthExtra[lcode]);

        const std::uint32_t dcode = dist_dec.decode(br);
        if (dcode >= distBase.size())
            fatal("deflate: bad distance symbol ", dcode);
        std::uint32_t dist = distBase[dcode];
        if (distExtra[dcode] > 0)
            dist += br.get(distExtra[dcode]);

        if (dist > out.size())
            fatal("deflate: distance ", dist, " beyond output size ",
                  out.size());
        appendMatch(out, dist, len);
    }
    if (out.size() != target)
        fatal("deflate: size mismatch (", out.size() - dict.size(),
              " vs ", expected, ")");
    if (!dict.empty())
        out.erase(out.begin(),
                  out.begin() + static_cast<std::ptrdiff_t>(dict.size()));
}

} // namespace compress
} // namespace xfm
