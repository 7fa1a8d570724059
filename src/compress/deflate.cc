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

/** Frame mode of a Huffman-coded body. */
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

} // namespace

DeflateCodec::DeflateCodec(std::size_t window_bytes)
    : Compressor(modeHuffman), window_bytes_(window_bytes)
{
    XFM_ASSERT(window_bytes_ >= 16 && window_bytes_ <= 32 * 1024,
               "deflate window must be in [16, 32768]");
}

void
DeflateCodec::encodeBody(ByteSpan full, std::size_t start,
                         Bytes &out) const
{
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
}

void
DeflateCodec::decodeBody(ByteSpan body, std::size_t, Bytes &out) const
{
    BitReader br(body);
    std::vector<std::uint8_t> lit_lengths;
    std::vector<std::uint8_t> dist_lengths;
    readCodeLengthsRle(br, litLenSymbols, lit_lengths);
    readCodeLengthsRle(br, distSymbols, dist_lengths);
    HuffmanDecoder lit_dec(lit_lengths);
    HuffmanDecoder dist_dec(dist_lengths);

    for (;;) {
        const std::uint32_t sym = lit_dec.decode(br);
        if (sym < 256) {
            out.push_back(static_cast<std::uint8_t>(sym));
            continue;
        }
        if (sym == eobSymbol)
            break;
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
}

} // namespace compress
} // namespace xfm
