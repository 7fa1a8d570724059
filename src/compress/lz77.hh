/**
 * @file
 * Shared LZ77 match finder.
 *
 * Produces a token stream of literals and (length, distance) matches
 * using hash-chain search. The window size and search effort are
 * configurable so the same engine backs all three codecs; Fig. 8's
 * window-truncation experiments reuse it directly.
 */

#ifndef XFM_COMPRESS_LZ77_HH
#define XFM_COMPRESS_LZ77_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "compress/compressor.hh"

namespace xfm
{
namespace compress
{

/** One LZ77 token: either a literal byte or a back-reference. */
struct Lz77Token
{
    bool isMatch;
    std::uint8_t literal;    ///< valid when !isMatch
    std::uint32_t length;    ///< valid when isMatch
    std::uint32_t distance;  ///< valid when isMatch; 1-based
};

/** Tuning knobs for the match finder. */
struct Lz77Params
{
    std::size_t windowBytes = 32 * 1024;  ///< max back-reference reach
    std::uint32_t minMatch = 3;           ///< shortest emitted match
    std::uint32_t maxMatch = 258;         ///< longest emitted match
    unsigned maxChainLength = 64;         ///< hash chain search depth
    bool lazyMatching = true;             ///< one-step lazy evaluation
};

/**
 * Run the match finder over @p input.
 *
 * Deterministic: identical inputs and params yield identical token
 * streams.
 */
std::vector<Lz77Token> lz77Tokenize(ByteSpan input,
                                    const Lz77Params &params);

/**
 * Tokenize only input[start..) into @p tokens (cleared first;
 * capacity reused) while letting matches reach back into the full
 * prefix input[0..start) (shared-history streaming: the prefix is
 * indexed but produces no tokens).
 */
void lz77TokenizeSuffix(ByteSpan input, const Lz77Params &params,
                        std::size_t start,
                        std::vector<Lz77Token> &tokens);

/** Reconstruct the original bytes from a token stream. */
Bytes lz77Reconstruct(const std::vector<Lz77Token> &tokens);

/**
 * Length of the common prefix of @p a and @p b, up to @p limit: the
 * match-extension kernel. Both buffers must be readable through
 * index limit - 1. Inline because it sits in the chain walk's
 * innermost loop.
 */
inline std::uint32_t
matchLength(const std::uint8_t *a, const std::uint8_t *b,
            std::uint32_t limit)
{
    // SWAR scan: compare 8 bytes per step via unaligned 64-bit loads;
    // the first differing byte index falls out of countr_zero on the
    // XOR, and the 8-byte loads never pass index limit - 1.
    std::uint32_t n = 0;
    if constexpr (std::endian::native == std::endian::little) {
        while (n + 8 <= limit) {
            std::uint64_t x;
            std::uint64_t y;
            std::memcpy(&x, a + n, 8);
            std::memcpy(&y, b + n, 8);
            const std::uint64_t diff = x ^ y;
            if (diff != 0)
                return n
                    + (static_cast<std::uint32_t>(
                           std::countr_zero(diff))
                       >> 3);
            n += 8;
        }
    }
    while (n < limit && a[n] == b[n])
        ++n;
    return n;
}

/**
 * Allocation stats of this thread's pooled finder tables:
 * {table growths, reuses}. Steady-state tokenisation of same-sized
 * inputs must only ever bump the reuse counter.
 */
std::pair<std::uint64_t, std::uint64_t> finderTableStats();

/**
 * Base offset of this thread's finder tables: the next tokenisation
 * stores input position i as base + i, after zeroing the head table
 * and restarting the base at 1 if a position would pass 2^32.
 */
std::uint64_t finderTableBase();

/**
 * Move finderTableBase() forward to @p base (<= 2^32), as if that
 * much more input had been tokenised: lets a test reach the clear
 * without 4 GiB of input.
 */
void setFinderTableBase(std::uint64_t base);

} // namespace compress
} // namespace xfm

#endif // XFM_COMPRESS_LZ77_HH
