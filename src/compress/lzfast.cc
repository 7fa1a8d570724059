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

/** Frame mode of an LZ sequence body. */
constexpr std::uint8_t modeLz = 1;
constexpr std::uint32_t minMatch = 4;

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

} // namespace

LzFastCodec::LzFastCodec(std::size_t window_bytes)
    : Compressor(modeLz), window_bytes_(window_bytes)
{
    XFM_ASSERT(window_bytes_ >= 16 && window_bytes_ <= 65535,
               "lzfast window must fit 16-bit offsets");
}

/**
 * Offsets into a preset dictionary still fit the 16-bit wire format
 * because window_bytes_ <= 65535 bounds every distance.
 */
void
LzFastCodec::encodeBody(ByteSpan full, std::size_t start,
                        Bytes &out) const
{
    Lz77Params params;
    params.windowBytes = window_bytes_;
    params.minMatch = minMatch;
    params.maxMatch = 1 << 16;     // byte-aligned lengths extend freely
    params.maxChainLength = 16;    // fast profile: shallow search
    params.lazyMatching = false;
    std::vector<Lz77Token> tokens;
    lz77TokenizeSuffix(full, params, start, tokens);

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
}

void
LzFastCodec::decodeBody(ByteSpan body, std::size_t raw_len,
                        Bytes &out) const
{
    const std::size_t target = out.size() + raw_len;
    std::size_t pos = 0;
    while (out.size() < target) {
        if (pos >= body.size())
            fatal("lzfast: truncated sequence");
        const std::uint8_t token = body[pos++];
        std::uint32_t lit_count = token >> 4;
        if (lit_count == 15)
            lit_count += getExtended(body, pos);
        if (pos + lit_count > body.size())
            fatal("lzfast: literal run overruns block");
        out.insert(out.end(), body.begin() + pos,
                   body.begin() + pos + lit_count);
        pos += lit_count;
        if (out.size() >= target)
            break;  // final literals-only sequence

        if (pos + 2 > body.size())
            fatal("lzfast: truncated offset");
        const std::uint32_t dist =
            static_cast<std::uint32_t>(body[pos])
            | (static_cast<std::uint32_t>(body[pos + 1]) << 8);
        pos += 2;
        std::uint32_t match_len = (token & 0x0F);
        if (match_len == 15)
            match_len += getExtended(body, pos);
        match_len += minMatch;

        if (dist == 0 || dist > out.size())
            fatal("lzfast: bad distance ", dist);
        appendMatch(out, dist, match_len);
    }
}

} // namespace compress
} // namespace xfm
