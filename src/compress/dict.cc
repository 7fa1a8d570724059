#include "dict.hh"

#include <algorithm>

#include "common/logging.hh"

namespace xfm
{
namespace compress
{

namespace
{

std::uint16_t
getU16(ByteSpan in, std::size_t off)
{
    if (off + 2 > in.size())
        fatal("dict: truncated container header");
    return static_cast<std::uint16_t>(
        in[off] | (static_cast<std::uint16_t>(in[off + 1]) << 8));
}

void
putU16(Bytes &out, std::size_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

} // namespace

bool
isDictRefBlock(ByteSpan block)
{
    return !block.empty() && block[0] == dictRefMagic;
}

Bytes
buildPresetDictionary(ByteSpan page, std::size_t interleave,
                      std::size_t dict_bytes)
{
    Bytes dict;
    if (page.empty() || dict_bytes == 0)
        return dict;
    XFM_ASSERT(interleave > 0, "dict: interleave must be positive");
    if (page.size() <= dict_bytes) {
        dict.assign(page.begin(), page.end());
        return dict;
    }

    // Whole interleave chunks at a stride across the page. The +1
    // bump on odd samples staggers the stride so the picks do not
    // all land on chunks owned by the same DIMM when chunks/k is a
    // multiple of the channel count.
    const std::size_t seg =
        std::min({interleave, dict_bytes, page.size()});
    const std::size_t chunks =
        std::max<std::size_t>(1, page.size() / seg);
    const std::size_t k =
        std::clamp<std::size_t>(dict_bytes / seg, 1, chunks);
    dict.reserve(seg * k);
    for (std::size_t i = 0; i < k; ++i) {
        const std::size_t chunk =
            std::min(i * chunks / k + (i & 1), chunks - 1);
        const std::size_t off =
            std::min(chunk * seg, page.size() - seg);
        dict.insert(dict.end(), page.begin() + off,
                    page.begin() + off + seg);
    }
    return dict;
}

bool
encodeShardRef(const Compressor &codec, ByteSpan dict, ByteSpan shard,
               Bytes &out)
{
    codec.compressInto(shard, out);
    if (dict.empty())
        return false;
    XFM_ASSERT(dict.size() <= 0xFFFF,
               "dict: dictionary exceeds u16 length field");

    Bytes payload;
    codec.compressWithDictInto(dict, shard, payload);
    if (3 + payload.size() >= out.size())
        return false;  // plain block wins: adaptive fallback

    out.clear();
    out.reserve(3 + payload.size());
    out.push_back(dictRefMagic);
    putU16(out, dict.size());
    out.insert(out.end(), payload.begin(), payload.end());
    return true;
}

void
decodeShard(const Compressor &codec, ByteSpan block, ByteSpan dict,
            Bytes &out)
{
    if (isDictRefBlock(block)) {
        const std::size_t raw_dict_len = getU16(block, 1);
        if (dict.size() != raw_dict_len)
            fatal("dict: referenced dictionary mismatch (have ",
                  dict.size(), " bytes, block expects ",
                  raw_dict_len, ")");
        codec.decompressWithDictInto(dict, block.subspan(3), out);
        return;
    }
    decodeShard(codec, block, out);
}

void
decodeShard(const Compressor &codec, ByteSpan block, Bytes &out)
{
    if (isDictRefBlock(block))
        fatal("dict: 0xD2 block decoded without its dictionary");
    codec.decompressInto(block, out);
}

void
packDict(const Compressor &codec, ByteSpan dict, Bytes &out)
{
    XFM_ASSERT(dict.size() <= 0xFFFF,
               "dict: dictionary exceeds u16 length field");
    out.clear();
    Bytes body;
    codec.compressInto(dict, body);
    const bool raw = body.size() >= dict.size();
    const std::size_t stored = raw ? dict.size() : body.size();
    out.reserve(4 + stored);
    putU16(out, dict.size());
    putU16(out, stored);
    if (raw)
        out.insert(out.end(), dict.begin(), dict.end());
    else
        out.insert(out.end(), body.begin(), body.end());
    XFM_ASSERT(out.size() <= packedDictBound(dict.size()),
               "dict: packed dictionary exceeds its bound");
}

Bytes
unpackDict(const Compressor &codec, ByteSpan packed)
{
    const std::size_t raw_len = getU16(packed, 0);
    const std::size_t stored_len = getU16(packed, 2);
    if (4 + stored_len > packed.size())
        fatal("dict: packed dictionary shorter than its header");
    Bytes dict;
    if (stored_len == raw_len) {
        const auto body = packed.subspan(4, stored_len);
        dict.assign(body.begin(), body.end());
    } else {
        codec.decompressInto(packed.subspan(4, stored_len), dict);
    }
    if (dict.size() != raw_len)
        fatal("dict: packed dictionary length mismatch (",
              dict.size(), " vs ", raw_len, ")");
    return dict;
}

std::uint32_t
dictSlotSize(const std::vector<std::uint32_t> &shard_sizes,
             std::uint32_t packed_len)
{
    XFM_ASSERT(!shard_sizes.empty(), "dictSlotSize: no shards");
    std::uint32_t slot =
        *std::max_element(shard_sizes.begin(), shard_sizes.end());
    std::uint64_t free = 0;
    for (const auto s : shard_sizes)
        free += slot - s;
    if (packed_len > free) {
        const std::uint64_t dimms = shard_sizes.size();
        slot += static_cast<std::uint32_t>(
            (packed_len - free + dimms - 1) / dimms);
    }
    return slot;
}

std::vector<std::uint32_t>
dictStripes(const std::vector<std::uint32_t> &shard_sizes,
            std::uint32_t packed_len)
{
    const std::uint32_t slot = dictSlotSize(shard_sizes, packed_len);
    std::vector<std::uint32_t> stripes(shard_sizes.size(), 0);
    std::uint32_t left = packed_len;
    for (std::size_t d = 0; d < shard_sizes.size() && left > 0; ++d) {
        const std::uint32_t take =
            std::min(left, slot - shard_sizes[d]);
        stripes[d] = take;
        left -= take;
    }
    XFM_ASSERT(left == 0, "dictStripes: stripes overflow the slot");
    return stripes;
}

} // namespace compress
} // namespace xfm
