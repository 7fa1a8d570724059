#include "lzfast.hh"

#include <algorithm>
#include <cstring>

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

/**
 * Write a length's 255-chained extension bytes at @p op (the nibble
 * holds the first 15); returns the end of what was written.
 */
std::uint8_t *
putExtended(std::uint8_t *op, std::uint32_t value)
{
    while (value >= 255) {
        *op++ = 255;
        value -= 255;
    }
    *op++ = static_cast<std::uint8_t>(value);
    return op;
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

std::size_t
LzFastCodec::maxBodyBytes(std::size_t raw)
{
    // A match of L >= 4 bytes costs at most L - 1: its token, two
    // offset bytes and (L - 4 + 240) / 255 extension bytes. It pays
    // for the first extension byte of the literal run before it, so
    // literals cost themselves plus one extension byte per 255 and
    // the trailing run adds at most its token and one more byte.
    return raw + raw / 255 + 2;
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
    const auto seqs = lz77Sequences(full, params, start);

    // Write through a pointer into a body sized once to the worst
    // case plus copySlack, then trim it to what was written. A run
    // of at most copySlack literals is copied as one fixed-size
    // block when the input holds that many bytes: the bytes past
    // the run land in the slack or under later writes.
    constexpr std::size_t copySlack = 16;
    const std::size_t body_start = out.size();
    const std::size_t bound = maxBodyBytes(full.size() - start);
    out.resize(body_start + bound + copySlack);
    std::uint8_t *const body = out.data() + body_start;
    std::uint8_t *op = body;
    const std::uint8_t *lit = full.data() + start;
    const std::uint8_t *const lit_end = full.data() + full.size();
    for (const Lz77Seq &s : seqs) {
        const std::uint32_t match_code =
            s.matchLen > 0 ? s.matchLen - minMatch : 0;
        *op++ = static_cast<std::uint8_t>(
            (std::min(s.litRun, 15u) << 4) | std::min(match_code, 15u));
        if (s.litRun >= 15)
            op = putExtended(op, s.litRun - 15);
        if (s.litRun <= copySlack && lit + copySlack <= lit_end)
            std::memcpy(op, lit, copySlack);
        else
            std::memcpy(op, lit, s.litRun);
        op += s.litRun;
        lit += s.litRun + s.matchLen;
        if (s.matchLen > 0) {
            *op++ = static_cast<std::uint8_t>(s.offset);
            *op++ = static_cast<std::uint8_t>(s.offset >> 8);
            if (match_code >= 15)
                op = putExtended(op, match_code - 15);
        }
    }
    const auto written = static_cast<std::size_t>(op - body);
    XFM_ASSERT(written <= bound, "lzfast body overran its bound");
    out.resize(body_start + written);
}

void
LzFastCodec::decodeBody(ByteSpan body, std::size_t raw_len,
                        Bytes &out) const
{
    DecodeOut dst(out, raw_len, "lzfast");
    std::size_t pos = 0;
    while (dst.left() > 0) {
        if (pos >= body.size())
            fatal("lzfast: truncated sequence");
        const std::uint8_t token = body[pos++];
        std::uint32_t lit_count = token >> 4;
        if (lit_count == 15)
            lit_count += getExtended(body, pos);
        if (pos + lit_count > body.size())
            fatal("lzfast: literal run overruns block");
        const std::uint8_t *lits = body.data() + pos;
        pos += lit_count;
        if (lit_count >= dst.left()) {
            // Final literals-only sequence.
            dst.room(lit_count);
            dst.literals(lits, lit_count);
            break;
        }

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

        if (dist == 0 || dist > dst.produced() + lit_count)
            fatal("lzfast: bad distance ", dist);
        dst.room(std::size_t(lit_count) + match_len);
        dst.literals(lits, lit_count);
        dst.match(dist, match_len);
    }
    dst.finish();
}

} // namespace compress
} // namespace xfm
