#include "compressor.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"
#include "compress/deflate.hh"
#include "compress/lzfast.hh"
#include "compress/zstdlike.hh"

namespace xfm
{
namespace compress
{

namespace
{

/** Mode byte of a stored block, whatever the codec. */
constexpr std::uint8_t modeStored = 0;

} // namespace

Compressor::Compressor(std::uint8_t body_mode) : body_mode_(body_mode)
{
    XFM_ASSERT(body_mode_ != modeStored,
               "mode 0 is the stored block");
}

Bytes
Compressor::compress(ByteSpan input) const
{
    Bytes out;
    compressInto(input, out);
    return out;
}

Bytes
Compressor::decompress(ByteSpan block) const
{
    Bytes out;
    decompressInto(block, out);
    return out;
}

void
Compressor::putU32(Bytes &out, std::uint32_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t
Compressor::getU32(ByteSpan in, std::size_t off) const
{
    if (off + 4 > in.size())
        fatal(algorithmName(algorithm()), ": truncated header");
    return static_cast<std::uint32_t>(in[off])
        | (static_cast<std::uint32_t>(in[off + 1]) << 8)
        | (static_cast<std::uint32_t>(in[off + 2]) << 16)
        | (static_cast<std::uint32_t>(in[off + 3]) << 24);
}

void
Compressor::compressInto(ByteSpan input, Bytes &out) const
{
    encodeFrame(input, 0, out);
}

void
Compressor::compressWithDictInto(ByteSpan dict, ByteSpan input,
                                 Bytes &out) const
{
    if (dict.empty()) {
        encodeFrame(input, 0, out);
        return;
    }
    // The finder indexes one contiguous history, so the dictionary
    // and the input are joined in a per-thread buffer.
    thread_local Bytes history;
    history.assign(dict.begin(), dict.end());
    history.insert(history.end(), input.begin(), input.end());
    encodeFrame(history, dict.size(), out);
}

void
Compressor::encodeFrame(ByteSpan full, std::size_t start,
                        Bytes &out) const
{
    const ByteSpan input = full.subspan(start);
    out.clear();
    if (!input.empty()) {
        out.reserve(maxCompressedSize(input.size()));
        out.push_back(body_mode_);
        putU32(out, static_cast<std::uint32_t>(input.size()));
        encodeBody(full, start, out);
        if (out.size() < frameBytes + input.size())
            return;
        out.clear();
    }
    // Empty or incompressible input: a stored block.
    out.reserve(frameBytes + input.size());
    out.push_back(modeStored);
    putU32(out, static_cast<std::uint32_t>(input.size()));
    out.insert(out.end(), input.begin(), input.end());
}

void
Compressor::decompressInto(ByteSpan block, Bytes &out) const
{
    decompressWithDictInto({}, block, out);
}

void
Compressor::decompressWithDictInto(ByteSpan dict, ByteSpan block,
                                   Bytes &out) const
{
    const std::uint32_t raw_len = getU32(block, 1);
    const std::uint8_t mode = block[0];
    const ByteSpan body = block.subspan(frameBytes);
    if (mode == modeStored) {
        if (body.size() < raw_len)
            fatal(algorithmName(algorithm()),
                  ": stored block truncated");
        out.assign(body.begin(), body.begin() + raw_len);
        return;
    }
    if (mode != body_mode_)
        fatal(algorithmName(algorithm()), ": unknown block mode ",
              unsigned(mode));

    // The header is untrusted: the body's decoder sizes the output
    // (DecodeOut), so a longer raw length fails once the body runs
    // out, not as an allocation.
    const std::size_t target = dict.size() + raw_len;
    out.assign(dict.begin(), dict.end());
    decodeBody(body, raw_len, out);
    if (out.size() != target)
        fatal(algorithmName(algorithm()), ": size mismatch (",
              out.size() - dict.size(), " vs ", raw_len, ")");
    out.erase(out.begin(),
              out.begin() + static_cast<std::ptrdiff_t>(dict.size()));
}

std::string
algorithmName(Algorithm a)
{
    switch (a) {
      case Algorithm::LzFast:
        return "lzfast";
      case Algorithm::Deflate:
        return "deflate";
      case Algorithm::ZstdLike:
        return "zstdlike";
    }
    panic("unknown algorithm");
}

CpuCost
cpuCost(Algorithm a)
{
    // Calibrated so the zstd/lzo four-way average matches the
    // paper's EQ3.4 figure of 7.65e9 cycles/GB:
    // (14 + 6 + 7 + 3.6) / 4 = 7.65 cycles/byte.
    switch (a) {
      case Algorithm::LzFast:
        return {7.0, 3.6};
      case Algorithm::ZstdLike:
        return {14.0, 6.0};
      case Algorithm::Deflate:
        return {25.0, 10.0};  // software deflate; hw offload differs
    }
    panic("unknown algorithm");
}

std::unique_ptr<Compressor>
makeCompressor(Algorithm a)
{
    switch (a) {
      case Algorithm::LzFast:
        return std::make_unique<LzFastCodec>();
      case Algorithm::Deflate:
        return std::make_unique<DeflateCodec>();
      case Algorithm::ZstdLike:
        return std::make_unique<ZstdLikeCodec>();
    }
    panic("unknown algorithm");
}

} // namespace compress
} // namespace xfm
