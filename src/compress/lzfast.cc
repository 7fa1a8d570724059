#include "lzfast.hh"

#include <algorithm>

#include "common/logging.hh"
#include "compress/bitstream.hh"
#include "compress/lz77.hh"

namespace xfm
{
namespace compress
{

namespace
{

constexpr std::uint8_t modeStored = 0;
constexpr std::uint8_t modeLz = 1;
constexpr std::uint32_t minMatch = 4;

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
        fatal("lzfast: truncated header");
    return static_cast<std::uint32_t>(in[off])
        | (static_cast<std::uint32_t>(in[off + 1]) << 8)
        | (static_cast<std::uint32_t>(in[off + 2]) << 16)
        | (static_cast<std::uint32_t>(in[off + 3]) << 24);
}

/** Emit a length with nibble base and 255-chained extension bytes. */
void
putExtended(Bytes &out, std::uint32_t value)
{
    while (value >= 255) {
        out.push_back(255);
        value -= 255;
    }
    out.push_back(static_cast<std::uint8_t>(value));
}

std::uint32_t
getExtended(ByteSpan in, std::size_t &pos)
{
    std::uint32_t v = 0;
    for (;;) {
        if (pos >= in.size())
            fatal("lzfast: truncated extension bytes");
        const std::uint8_t b = in[pos++];
        v += b;
        if (b != 255)
            return v;
    }
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

LzFastCodec::LzFastCodec(std::size_t window_bytes)
    : window_bytes_(window_bytes)
{
    XFM_ASSERT(window_bytes_ >= 16 && window_bytes_ <= 65535,
               "lzfast window must fit 16-bit offsets");
}

void
LzFastCodec::compressInto(ByteSpan input, Bytes &out) const
{
    compressBody(input, 0, out);
}

void
LzFastCodec::compressWithDictInto(ByteSpan dict, ByteSpan input,
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
LzFastCodec::decompressWithDictInto(ByteSpan dict, ByteSpan block,
                                    Bytes &out) const
{
    decompressBody(block, dict, out);
}

/**
 * Compress full[start..) with full[0..start) as shared history
 * (preset-dictionary mode): the prefix is indexed, not emitted.
 * Offsets into the dictionary still fit the 16-bit wire format
 * because window_bytes_ <= 65535 bounds every distance.
 */
void
LzFastCodec::compressBody(ByteSpan full, std::size_t start,
                          Bytes &out) const
{
    const ByteSpan input = full.subspan(start);
    if (input.empty()) {
        storedBlockInto(input, out);
        return;
    }

    Lz77Params params;
    params.windowBytes = window_bytes_;
    params.minMatch = minMatch;
    params.maxMatch = 1 << 16;     // byte-aligned lengths extend freely
    params.maxChainLength = 16;    // fast profile: shallow search
    params.lazyMatching = false;
    std::vector<Lz77Token> tokens;
    lz77TokenizeSuffix(full, params, start, tokens);

    out.clear();
    out.reserve(maxCompressedSize(input.size()));
    out.push_back(modeLz);
    putU32(out, static_cast<std::uint32_t>(input.size()));

    std::size_t i = 0;
    while (i < tokens.size()) {
        // Collect a literal run.
        std::uint32_t lit_count = 0;
        const std::size_t lit_start = i;
        while (i < tokens.size() && !tokens[i].isMatch) {
            ++lit_count;
            ++i;
        }
        const bool have_match = i < tokens.size();
        const std::uint32_t match_len =
            have_match ? tokens[i].length : 0;

        const std::uint8_t lit_nibble =
            static_cast<std::uint8_t>(std::min(lit_count, 15u));
        const std::uint32_t match_code =
            have_match ? match_len - minMatch : 0;
        const std::uint8_t match_nibble = have_match
            ? static_cast<std::uint8_t>(std::min(match_code, 15u))
            : 0;
        out.push_back(static_cast<std::uint8_t>((lit_nibble << 4)
                                                | match_nibble));
        if (lit_count >= 15)
            putExtended(out, lit_count - 15);
        for (std::size_t k = 0; k < lit_count; ++k)
            out.push_back(tokens[lit_start + k].literal);
        if (have_match) {
            const std::uint32_t dist = tokens[i].distance;
            out.push_back(static_cast<std::uint8_t>(dist));
            out.push_back(static_cast<std::uint8_t>(dist >> 8));
            if (match_code >= 15)
                putExtended(out, match_code - 15);
            ++i;
        }
    }

    if (out.size() >= input.size() + 5)
        storedBlockInto(input, out);
}

void
LzFastCodec::decompressInto(ByteSpan block, Bytes &out) const
{
    decompressBody(block, {}, out);
}

/**
 * Decompress with @p dict seeded as match history; the seeded
 * prefix is stripped before returning.
 */
void
LzFastCodec::decompressBody(ByteSpan block, ByteSpan dict,
                            Bytes &out) const
{
    if (block.empty())
        fatal("lzfast: empty block");
    const std::uint8_t mode = block[0];
    const std::uint32_t expected = getU32(block, 1);
    if (mode == modeStored) {
        if (block.size() < 5 + std::size_t(expected))
            fatal("lzfast: stored block truncated");
        out.assign(block.begin() + 5, block.begin() + 5 + expected);
        return;
    }
    if (mode != modeLz)
        fatal("lzfast: unknown block mode ", unsigned(mode));

    const std::size_t target = dict.size() + expected;
    out.assign(dict.begin(), dict.end());
    out.reserve(target);
    std::size_t pos = 5;
    while (out.size() < target) {
        if (pos >= block.size())
            fatal("lzfast: truncated sequence");
        const std::uint8_t token = block[pos++];
        std::uint32_t lit_count = token >> 4;
        if (lit_count == 15)
            lit_count += getExtended(block, pos);
        if (pos + lit_count > block.size())
            fatal("lzfast: literal run overruns block");
        out.insert(out.end(), block.begin() + pos,
                   block.begin() + pos + lit_count);
        pos += lit_count;
        if (out.size() >= target)
            break;  // final literals-only sequence

        if (pos + 2 > block.size())
            fatal("lzfast: truncated offset");
        const std::uint32_t dist =
            static_cast<std::uint32_t>(block[pos])
            | (static_cast<std::uint32_t>(block[pos + 1]) << 8);
        pos += 2;
        std::uint32_t match_len = (token & 0x0F);
        if (match_len == 15)
            match_len += getExtended(block, pos);
        match_len += minMatch;

        if (dist == 0 || dist > out.size())
            fatal("lzfast: bad distance ", dist);
        appendMatch(out, dist, match_len);
    }
    if (out.size() != target)
        fatal("lzfast: size mismatch (", out.size() - dict.size(),
              " vs ", expected, ")");
    if (!dict.empty())
        out.erase(out.begin(),
                  out.begin() + static_cast<std::ptrdiff_t>(dict.size()));
}

} // namespace compress
} // namespace xfm
