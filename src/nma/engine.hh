/**
 * @file
 * The NMA's (de)compression engine.
 *
 * Functionally it runs a real codec over real bytes, synchronously
 * on the calling thread; its timing is a throughput model matching
 * the paper's accelerator (14.8 GB/s compression, 17.2 GB/s
 * decompression on the AxDIMM prototype's customised open-source
 * engine). An alternative FPGA profile models the 1.4/1.7 GB/s
 * Deflate soft-core from Table 2's discussion. The simulated latency
 * depends only on the byte counts, so where the host runs the codec
 * cannot change any result.
 */

#ifndef XFM_NMA_ENGINE_HH
#define XFM_NMA_ENGINE_HH

#include <memory>
#include <utility>

#include "common/stats.hh"
#include "compress/compressor.hh"
#include "nma/offload.hh"

namespace xfm
{
namespace nma
{

/** Engine timing profile. */
struct EngineProfile
{
    double compressGBps = 14.8;    ///< AxDIMM custom engine
    double decompressGBps = 17.2;

    /**
     * When positive, the engine runs in *size-model* mode: instead
     * of executing a real codec it emits an output of
     * input/modeledRatio bytes (with deterministic jitter). Used by
     * timing/queueing experiments (Fig. 12) where data content is
     * irrelevant and real compression would dominate host runtime.
     * Outputs do not round-trip in this mode.
     */
    double modeledRatio = 0.0;

    /** FPGA soft-core Deflate profile (Sec. 8, Table 2). */
    static EngineProfile
    fpgaSoftCore()
    {
        return {1.4, 1.7};
    }
};

/**
 * Compression engine: real codec + throughput timing.
 */
class CompressionEngine
{
  public:
    CompressionEngine(compress::Algorithm algo,
                      EngineProfile profile = EngineProfile{});

    /**
     * Compress and report (output, compute latency).
     *
     * @param dict optional preset dictionary (DESIGN.md §16): when
     *        non-null and non-empty the output is a dict-referencing
     *        container (compress::encodeShardRef) unless the plain
     *        block is smaller — the dictionary itself is stored once
     *        per page by the backend, not replicated into shards.
     *        Ignored in size-model mode.
     */
    std::pair<Bytes, Tick>
    compress(ByteSpan input, const Bytes *dict = nullptr);

    /**
     * Decompress and report (output, compute latency).
     *
     * @param expected_raw expected decompressed size; required by
     *        size-model mode, ignored (0 allowed) otherwise.
     * @param dict preset dictionary staged by the driver for 0xD2
     *        blocks (DESIGN.md §16); may be null for plain blocks.
     */
    std::pair<Bytes, Tick>
    decompress(ByteSpan block, std::uint32_t expected_raw = 0,
               const Bytes *dict = nullptr);

    /**
     * Worst-case compressed size for an input, used for the SPM's
     * pessimistic reservation (stored-block fallback bound).
     */
    static std::uint32_t
    worstCaseCompressedSize(std::uint32_t input_size)
    {
        return input_size + 16;
    }

    std::uint64_t bytesCompressed() const
    {
        return bytes_compressed_.value();
    }
    std::uint64_t bytesDecompressed() const
    {
        return bytes_decompressed_.value();
    }

    const EngineProfile &profile() const { return profile_; }
    compress::Algorithm algorithm() const { return codec_->algorithm(); }

  private:
    Tick durationFor(std::size_t bytes, double gbps) const;
    std::uint32_t modeledSize(std::size_t input_size);

    std::unique_ptr<compress::Compressor> codec_;
    EngineProfile profile_;
    /**
     * Jitter counter for size-model mode. Per-engine state (not a
     * process-wide static): two engines — or two back-to-back runs
     * in one process — must produce identical modeled sizes from
     * identical inputs, or same-seed runs diverge.
     */
    std::uint64_t model_counter_ = 0;
    stats::Counter bytes_compressed_;
    stats::Counter bytes_decompressed_;
};

} // namespace nma
} // namespace xfm

#endif // XFM_NMA_ENGINE_HH
