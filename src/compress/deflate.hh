/**
 * @file
 * Deflate-class codec: LZ77 (32 KiB window) plus canonical Huffman
 * coding of literals/lengths and distances, with an RFC1951-style
 * run-length encoding of the code-length tables.
 *
 * The container format is self-describing but intentionally not
 * bit-compatible with zlib; the SFM stack only requires that
 * compress/decompress round-trip and that ratios behave like
 * deflate's.
 */

#ifndef XFM_COMPRESS_DEFLATE_HH
#define XFM_COMPRESS_DEFLATE_HH

#include "compress/compressor.hh"

namespace xfm
{
namespace compress
{

/** Deflate-class block compressor. */
class DeflateCodec : public Compressor
{
  public:
    /**
     * @param window_bytes LZ77 window; defaults to deflate's 32 KiB.
     *        Fig. 8's interleave experiments shrink this.
     */
    explicit DeflateCodec(std::size_t window_bytes = 32 * 1024);

    Algorithm algorithm() const override { return Algorithm::Deflate; }
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

#endif // XFM_COMPRESS_DEFLATE_HH
