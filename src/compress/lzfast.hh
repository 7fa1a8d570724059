/**
 * @file
 * LzFast: byte-aligned fast LZ codec in the lzo/lz4 class.
 *
 * Sequences of (literal run, match) are coded with a nibble token
 * and little-endian 16-bit offsets, trading compression ratio for
 * very low (de)compression cost — mirroring lzo's role in
 * production SFM deployments.
 */

#ifndef XFM_COMPRESS_LZFAST_HH
#define XFM_COMPRESS_LZFAST_HH

#include "compress/compressor.hh"

namespace xfm
{
namespace compress
{

/** Fast byte-aligned LZ compressor (lzo/lz4 class). */
class LzFastCodec : public Compressor
{
  public:
    /**
     * @param window_bytes back-reference reach, at most 65535
     *        (16-bit offsets).
     */
    explicit LzFastCodec(std::size_t window_bytes = 64 * 1024 - 1);

    Algorithm algorithm() const override { return Algorithm::LzFast; }
    std::size_t windowBytes() const override { return window_bytes_; }

  private:
    void encodeBody(ByteSpan full, std::size_t start,
                    Bytes &out) const override;
    void decodeBody(ByteSpan body, std::size_t raw_len,
                    Bytes &out) const override;

    std::size_t window_bytes_;
};

} // namespace compress
} // namespace xfm

#endif // XFM_COMPRESS_LZFAST_HH
