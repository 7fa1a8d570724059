#include "lz77.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace xfm
{
namespace compress
{

namespace
{

constexpr std::size_t hashBits = 15;
constexpr std::size_t hashSize = std::size_t(1) << hashBits;

inline std::uint32_t
hash3(const std::uint8_t *p)
{
    // Multiplicative hash of 3 bytes.
    std::uint32_t v = static_cast<std::uint32_t>(p[0])
        | (static_cast<std::uint32_t>(p[1]) << 8)
        | (static_cast<std::uint32_t>(p[2]) << 16);
    return (v * 2654435761u) >> (32 - hashBits);
}

/** Positions are stored as base + index in 32 bits. */
constexpr std::uint64_t positionSpace = std::uint64_t(1) << 32;

/**
 * Pooled per-thread finder tables: head/prev are leased across
 * Finder constructions instead of reallocated (and cleared) per
 * page. Each tokenisation stores its positions as `base + index`
 * and the next one starts its base past all of them, so a head
 * bucket is live iff it holds a value >= base: entries of earlier
 * inputs read as empty without any clearing, and a chain walk stops
 * at the first entry below base + window start, which covers stale
 * and out-of-window entries in one compare. `prev` needs no
 * initialisation because a walk only follows links insert() wrote
 * for this input. When a base would push a position past 2^32 the
 * heads are zeroed and the base restarts at 1, so steady-state
 * tokenisation allocates nothing and clears once per 4 GiB.
 */
struct FinderTables
{
    std::vector<std::uint32_t> headPos; ///< hashSize buckets
    std::vector<std::uint32_t> prev;    ///< chain links per position
    std::uint64_t base = 1;             ///< base of the next input
    std::uint64_t allocs = 0;
    std::uint64_t reuses = 0;
};

FinderTables &
finderTables()
{
    thread_local FinderTables tables;
    return tables;
}

/** Unaligned little-endian 32-bit load for the chain prefilter. */
inline std::uint32_t
load32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

struct Finder
{
    ByteSpan in;
    const Lz77Params &p;
    FinderTables &t;
    std::uint32_t base;  ///< stored value of position 0

    Finder(ByteSpan input, const Lz77Params &params)
        : in(input), p(params), t(finderTables())
    {
        XFM_ASSERT(in.size() < (std::size_t(1) << 31),
                   "lz77 input too large for pooled chain links");
        bool grew = false;
        if (t.headPos.empty()) {
            t.headPos.resize(hashSize, 0);
            grew = true;
        }
        if (t.prev.size() < in.size()) {
            t.prev.resize(in.size());
            grew = true;
        }
        grew ? ++t.allocs : ++t.reuses;
        if (t.base + in.size() > positionSpace) {
            std::fill(t.headPos.begin(), t.headPos.end(), 0u);
            t.base = 1;
        }
        base = static_cast<std::uint32_t>(t.base);
        t.base += in.size();
    }

    void
    insert(std::size_t pos)
    {
        if (pos + 3 > in.size())
            return;
        const std::uint32_t h = hash3(in.data() + pos);
        t.prev[pos] = t.headPos[h];
        t.headPos[h] = base + static_cast<std::uint32_t>(pos);
    }

    /**
     * Best match at pos longer than @p floor; returns length 0 when
     * none qualifies. Candidates that cannot beat the floor are
     * rejected early, so a caller that only uses a result longer
     * than some length gets the unfloored search's exact answer
     * whenever it beats that length.
     */
    std::pair<std::uint32_t, std::uint32_t>
    bestMatch(std::size_t pos, std::uint32_t floor) const
    {
        if (pos + p.minMatch > in.size())
            return {0, 0};
        const auto limit = static_cast<std::uint32_t>(
            std::min<std::size_t>(p.maxMatch, in.size() - pos));
        if (floor >= limit)
            return {0, 0};
        const std::size_t window_start =
            pos > p.windowBytes ? pos - p.windowBytes : 0;

        std::uint32_t best_len = floor;
        std::uint32_t best_dist = 0;
        const std::uint32_t lowest =
            base + static_cast<std::uint32_t>(window_start);
        std::uint32_t cand = t.headPos[hash3(in.data() + pos)];
        unsigned chain = p.maxChainLength;
        const bool prefilter_ok = limit >= 4;
        while (cand >= lowest && chain-- > 0) {
            const std::size_t cpos = cand - base;
            if (cpos >= pos) {
                cand = t.prev[cpos];
                continue;
            }
            // 4-byte candidate prefilter: once any improvement
            // needs >= 4 matching bytes (minMatch >= 4, or a best
            // or floor of >= 3 already held), a first-dword
            // mismatch proves the candidate cannot improve, so match
            // selection is exactly that of a plain chain walk.
            if (prefilter_ok && (best_len >= 3 || p.minMatch >= 4)
                && load32(in.data() + cpos) != load32(in.data() + pos)) {
                cand = t.prev[cpos];
                continue;
            }
            // Quick reject on the byte past the current best.
            if (best_len == 0 ||
                in[cpos + best_len] == in[pos + best_len]) {
                const std::uint32_t len = matchLength(
                    in.data() + cpos, in.data() + pos, limit);
                if (len > best_len) {
                    best_len = len;
                    best_dist = static_cast<std::uint32_t>(pos - cpos);
                    if (best_len >= limit)
                        break;
                }
            }
            cand = t.prev[cpos];
        }
        if (best_dist == 0 || best_len < p.minMatch)
            return {0, 0};
        return {best_len, best_dist};
    }
};

} // namespace

std::pair<std::uint64_t, std::uint64_t>
finderTableStats()
{
    const FinderTables &t = finderTables();
    return {t.allocs, t.reuses};
}

std::uint64_t
finderTableBase()
{
    return finderTables().base;
}

void
setFinderTableBase(std::uint64_t base)
{
    FinderTables &t = finderTables();
    XFM_ASSERT(base >= t.base && base <= positionSpace,
               "finder base may only move forward, up to 2^32");
    t.base = base;
}

std::vector<Lz77Token>
lz77Tokenize(ByteSpan input, const Lz77Params &params)
{
    std::vector<Lz77Token> tokens;
    lz77TokenizeSuffix(input, params, 0, tokens);
    return tokens;
}

void
lz77TokenizeSuffix(ByteSpan input, const Lz77Params &params,
                   std::size_t start, std::vector<Lz77Token> &tokens)
{
    XFM_ASSERT(params.minMatch >= 3, "minMatch must be >= 3");
    XFM_ASSERT(params.windowBytes > 0, "window must be non-empty");
    XFM_ASSERT(start <= input.size(), "suffix start out of range");

    tokens.clear();
    tokens.reserve((input.size() - start) / 3);
    if (input.size() == start)
        return;

    Finder f(input, params);
    // Index the shared history without emitting tokens for it.
    for (std::size_t i = 0; i < start; ++i)
        f.insert(i);
    std::size_t pos = start;
    // A deferred lazy step has already searched the next position,
    // and nothing is inserted before that position is visited, so
    // its result is carried over instead of searched again.
    std::pair<std::uint32_t, std::uint32_t> next{0, 0};
    bool have_next = false;
    while (pos < input.size()) {
        const auto [len, dist] = have_next ? next : f.bestMatch(pos, 0);
        have_next = false;

        // Lazy matching: if the next position's match is longer by
        // two or more, emit a literal instead and take the later
        // match. Only such a match is used, so the probe searches
        // above that floor.
        if (params.lazyMatching && len > 0 && pos + 1 < input.size()) {
            f.insert(pos);
            next = f.bestMatch(pos + 1, len + 1);
            if (next.first > len + 1) {
                tokens.push_back({false, input[pos], 0, 0});
                ++pos;
                have_next = true;
                continue;
            }
            tokens.push_back({true, 0, len, dist});
            // pos itself was inserted above; insert interior.
            for (std::size_t i = pos + 1; i < pos + len; ++i)
                f.insert(i);
            pos += len;
            continue;
        }

        if (len > 0) {
            tokens.push_back({true, 0, len, dist});
            for (std::size_t i = pos; i < pos + len; ++i)
                f.insert(i);
            pos += len;
        } else {
            tokens.push_back({false, input[pos], 0, 0});
            f.insert(pos);
            ++pos;
        }
    }
}

Bytes
lz77Reconstruct(const std::vector<Lz77Token> &tokens)
{
    Bytes out;
    for (const auto &t : tokens) {
        if (!t.isMatch) {
            out.push_back(t.literal);
            continue;
        }
        if (t.distance == 0 || t.distance > out.size())
            fatal("lz77 reconstruct: bad distance ", t.distance,
                  " at output size ", out.size());
        std::size_t src = out.size() - t.distance;
        for (std::uint32_t i = 0; i < t.length; ++i)
            out.push_back(out[src + i]);
    }
    return out;
}

} // namespace compress
} // namespace xfm
