/**
 * @file
 * Shared LZ77 match finder.
 *
 * Produces zstd-style sequences (a literal run, then a (length,
 * offset) match) using hash-chain search. Literal bytes are never
 * copied out: each codec reads a run straight from the input. The
 * window size and search effort are configurable so the same engine
 * backs all three codecs; Fig. 8's window-truncation experiments
 * reuse it directly.
 */

#ifndef XFM_COMPRESS_LZ77_HH
#define XFM_COMPRESS_LZ77_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "compress/compressor.hh"

namespace xfm
{
namespace compress
{

/**
 * One LZ77 sequence: litRun literal bytes taken from the input at
 * the current position, then a match of matchLen bytes copied from
 * offset bytes back. Only the last sequence of an input may have
 * matchLen 0 (trailing literals, offset 0); every other sequence
 * has matchLen >= minMatch.
 */
struct Lz77Seq
{
    std::uint32_t litRun;
    std::uint32_t matchLen;
    std::uint32_t offset;  ///< 1-based distance; 0 when matchLen is 0
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
 * Run the match finder over input[start..), letting matches reach
 * back into the prefix input[0..start) (shared-history streaming:
 * the prefix is indexed but produces no sequences). The sequences
 * cover exactly input.size() - start bytes.
 *
 * Deterministic: identical inputs and params yield identical
 * sequences. The result lives in this thread's pooled buffer and
 * stays valid until the thread's next call.
 */
std::span<const Lz77Seq> lz77Sequences(ByteSpan input,
                                       const Lz77Params &params,
                                       std::size_t start = 0);

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
 * {table growths, reuses}. Steady-state match finding over
 * same-sized inputs must only ever bump the reuse counter.
 */
std::pair<std::uint64_t, std::uint64_t> finderTableStats();

/**
 * Base offset of this thread's finder tables: the next input
 * stores its position i as base + i, after zeroing the head table
 * and restarting the base at 1 if a position would pass 2^32.
 */
std::uint64_t finderTableBase();

/**
 * Move finderTableBase() forward to @p base (<= 2^32), as if that
 * much more input had been searched: lets a test reach the clear
 * without 4 GiB of input.
 */
void setFinderTableBase(std::uint64_t base);

} // namespace compress
} // namespace xfm

#endif // XFM_COMPRESS_LZ77_HH
