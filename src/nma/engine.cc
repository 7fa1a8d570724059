#include "engine.hh"

#include "common/logging.hh"
#include "compress/dict.hh"

namespace xfm
{
namespace nma
{

CompressionEngine::CompressionEngine(compress::Algorithm algo,
                                     EngineProfile profile)
    : codec_(compress::makeCompressor(algo)), profile_(profile)
{
    XFM_ASSERT(profile_.compressGBps > 0 && profile_.decompressGBps > 0,
               "engine throughput must be positive");
}

Tick
CompressionEngine::durationFor(std::size_t bytes, double gbps) const
{
    // gbps is decimal GB/s; ticks are picoseconds.
    const double ns = static_cast<double>(bytes) / gbps;
    return nanoseconds(ns);
}

std::uint32_t
CompressionEngine::modeledSize(std::size_t input_size)
{
    // Deterministic +/-20% jitter around input/ratio (splitmix64 of
    // a per-engine counter), bounded by the stored-block worst case.
    std::uint64_t z = ++model_counter_ + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    const double u =
        static_cast<double>(z >> 11) * 0x1.0p-53;  // [0,1)
    const double base =
        static_cast<double>(input_size) / profile_.modeledRatio;
    const double size = base * (0.8 + 0.4 * u);
    return std::min<std::uint32_t>(
        static_cast<std::uint32_t>(size),
        worstCaseCompressedSize(
            static_cast<std::uint32_t>(input_size)));
}

std::pair<Bytes, Tick>
CompressionEngine::compress(ByteSpan input, const Bytes *dict)
{
    bytes_compressed_ += input.size();
    Bytes out;
    if (profile_.modeledRatio > 0.0)
        out.assign(modeledSize(input.size()), 0);
    else if (dict && !dict->empty())
        compress::encodeShardRef(*codec_, *dict, input, out);
    else
        codec_->compressInto(input, out);
    return {std::move(out), durationFor(input.size(),
                                        profile_.compressGBps)};
}

std::pair<Bytes, Tick>
CompressionEngine::decompress(ByteSpan block,
                              std::uint32_t expected_raw,
                              const Bytes *dict)
{
    Bytes out;
    if (profile_.modeledRatio > 0.0) {
        XFM_ASSERT(expected_raw > 0,
                   "size-model decompression needs the expected "
                   "output size");
        out.assign(expected_raw, 0);
    } else if (dict && !dict->empty()) {
        // The driver staged the page's preset dictionary alongside
        // the descriptor (DESIGN.md §16); decodeShard validates it
        // against the 0xD2 header and ignores it for plain blocks.
        compress::decodeShard(*codec_, block, *dict, out);
    } else {
        compress::decodeShard(*codec_, block, out);
    }
    bytes_decompressed_ += out.size();
    return {std::move(out), durationFor(out.size(),
                                        profile_.decompressGBps)};
}

} // namespace nma
} // namespace xfm
