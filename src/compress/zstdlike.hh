/**
 * @file
 * ZstdLike: zstd-class codec.
 *
 * Like zstd it separates literals from sequences: literals are
 * entropy coded (canonical Huffman) in one stream while sequences
 * (literal-run length, match length, offset) are byte-aligned
 * varints with a repeat-offset shortcut. The window is larger than
 * deflate's, and the match finder searches deeper, trading speed
 * for ratio exactly the way zstd trades against lzo.
 */

#ifndef XFM_COMPRESS_ZSTDLIKE_HH
#define XFM_COMPRESS_ZSTDLIKE_HH

#include "compress/compressor.hh"

namespace xfm
{
namespace compress
{

/** Zstd-class block compressor. */
class ZstdLikeCodec : public Compressor
{
  public:
    /** @param window_bytes back-reference reach (default 128 KiB). */
    explicit ZstdLikeCodec(std::size_t window_bytes = 128 * 1024);

    Algorithm algorithm() const override { return Algorithm::ZstdLike; }
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

#endif // XFM_COMPRESS_ZSTDLIKE_HH
