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

/** Multiplicative hash of 3 bytes packed little-endian in @p v. */
inline std::uint32_t
hashValue(std::uint32_t v)
{
    return (v * 2654435761u) >> (32 - hashBits);
}

inline std::uint32_t
hash3(const std::uint8_t *p)
{
    return hashValue(static_cast<std::uint32_t>(p[0])
                     | (static_cast<std::uint32_t>(p[1]) << 8)
                     | (static_cast<std::uint32_t>(p[2]) << 16));
}

/** Unaligned native-endian 32-bit load. */
inline std::uint32_t
load32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

/**
 * hash3(p) from one 32-bit load masked to its low 24 bits, which on
 * little-endian hosts hold p[0..2] in hash3's order; p[3] must be
 * readable.
 */
inline std::uint32_t
hash3Wide(const std::uint8_t *p)
{
    if constexpr (std::endian::native == std::endian::little)
        return hashValue(load32(p) & 0xFFFFFFu);
    else
        return hash3(p);
}

/** Positions are stored as base + index in 32 bits. */
constexpr std::uint64_t positionSpace = std::uint64_t(1) << 32;

/**
 * Pooled per-thread finder tables: head/prev and the sequence
 * buffer are leased across Finder constructions instead of
 * reallocated (and cleared) per page. Each input stores its
 * positions as `base + index` and the next one starts its base past
 * all of them, so a head bucket is live iff it holds a value >=
 * base: entries of earlier inputs read as empty without any
 * clearing, and a chain walk stops at the first entry below base +
 * window start, which covers stale and out-of-window entries in one
 * compare. `prev` needs no
 * initialisation because a walk only follows links link() wrote
 * for this input. When a base would push a position past 2^32 the
 * heads are zeroed and the base restarts at 1, so steady-state
 * match finding allocates nothing and clears once per 4 GiB.
 */
struct FinderTables
{
    std::vector<std::uint32_t> headPos; ///< hashSize buckets
    std::vector<std::uint32_t> prev;    ///< chain links per position
    std::vector<Lz77Seq> seqs;          ///< the last input's result
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

struct Finder
{
    ByteSpan in;
    const Lz77Params &p;
    FinderTables &t;
    std::uint32_t base;  ///< stored value of position 0

    /** Also reserves room for every sequence of input[start..). */
    Finder(ByteSpan input, const Lz77Params &params, std::size_t start)
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
        // Each sequence but the last covers at least minMatch bytes.
        const std::size_t max_seqs = (in.size() - start) / p.minMatch + 1;
        if (t.seqs.capacity() < max_seqs) {
            t.seqs.reserve(max_seqs);
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
    link(std::size_t pos, std::uint32_t h)
    {
        t.prev[pos] = t.headPos[h];
        t.headPos[h] = base + static_cast<std::uint32_t>(pos);
    }

    /** Hash of the 3-byte key at pos, which needs pos + 3 <= size. */
    std::uint32_t
    keyHash(std::size_t pos) const
    {
        return pos + 4 <= in.size() ? hash3Wide(in.data() + pos)
                                    : hash3(in.data() + pos);
    }

    /**
     * Link every position of [from, to) that starts a key, in
     * order. Positions with four readable bytes need no bound check
     * and hash one load; the last three positions of the input keep
     * the byte path, and the last two start no key.
     */
    void
    insertRange(std::size_t from, std::size_t to)
    {
        const std::size_t wide_end =
            std::min(to, in.size() > 3 ? in.size() - 3 : 0);
        const std::uint8_t *d = in.data();
        std::uint32_t *head = t.headPos.data();
        std::uint32_t *prev = t.prev.data();
        std::size_t i = from;
        for (; i < wide_end; ++i) {
            const std::uint32_t h = hash3Wide(d + i);
            prev[i] = head[h];
            head[h] = base + static_cast<std::uint32_t>(i);
        }
        for (; i < to && i + 3 <= in.size(); ++i)
            link(i, keyHash(i));
    }

    /** Smallest stored value a candidate for pos may hold. */
    std::uint32_t
    lowest(std::size_t pos) const
    {
        return base + static_cast<std::uint32_t>(
                   pos > p.windowBytes ? pos - p.windowBytes : 0);
    }

    /** Whether bucket @p h holds a candidate for pos at all. */
    bool
    live(std::size_t pos, std::uint32_t h) const
    {
        return t.headPos[h] >= lowest(pos);
    }

    /**
     * Best match at pos, whose key hashes to @p h, longer than
     * @p floor; returns length 0 when
     * none qualifies. Candidates that cannot beat the floor are
     * rejected early, so a caller that only uses a result longer
     * than some length gets the unfloored search's exact answer
     * whenever it beats that length.
     */
    std::pair<std::uint32_t, std::uint32_t>
    bestMatch(std::size_t pos, std::uint32_t floor, std::uint32_t h) const
    {
        if (pos + p.minMatch > in.size())
            return {0, 0};
        const auto limit = static_cast<std::uint32_t>(
            std::min<std::size_t>(p.maxMatch, in.size() - pos));
        if (floor >= limit)
            return {0, 0};
        std::uint32_t best_len = floor;
        std::uint32_t best_dist = 0;
        // Positions are linked in ascending order and only below
        // the position searched, so every live candidate precedes
        // pos.
        const std::uint32_t low = lowest(pos);
        std::uint32_t cand = t.headPos[h];
        unsigned chain = p.maxChainLength;
        const bool prefilter_ok = limit >= 4;
        while (cand >= low && chain-- > 0) {
            const std::size_t cpos = cand - base;
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

std::span<const Lz77Seq>
lz77Sequences(ByteSpan input, const Lz77Params &params,
              std::size_t start)
{
    XFM_ASSERT(params.minMatch >= 3, "minMatch must be >= 3");
    XFM_ASSERT(params.windowBytes > 0, "window must be non-empty");
    XFM_ASSERT(start <= input.size(), "suffix start out of range");

    std::vector<Lz77Seq> &seqs = finderTables().seqs;
    seqs.clear();
    if (input.size() == start)
        return seqs;

    Finder f(input, params, start);
    // Index the shared history without emitting sequences for it.
    f.insertRange(0, start);
    std::size_t pos = start;
    std::size_t lit_start = start;
    // A deferred lazy step has already searched the next position,
    // and nothing is inserted before that position is visited, so
    // its result is carried over instead of searched again.
    std::pair<std::uint32_t, std::uint32_t> next{0, 0};
    bool have_next = false;
    // Positions past size - 3 start no key: they end the last run.
    while (pos + 3 <= input.size()) {
        const std::uint32_t h = f.keyHash(pos);
        // Most literals meet an empty bucket: link them without
        // setting up a search.
        if (!have_next && !f.live(pos, h)) {
            f.link(pos, h);
            ++pos;
            continue;
        }
        const auto [len, dist] = have_next ? next : f.bestMatch(pos, 0, h);
        have_next = false;
        if (len == 0) {
            f.link(pos, h);
            ++pos;
            continue;
        }

        // Lazy matching: if the next position's match is longer by
        // two or more, leave pos in the literal run and take the
        // later match. Only such a match is used, so the probe
        // searches above that floor.
        if (params.lazyMatching) {
            f.link(pos, h);
            // pos + 1 starts a key only when pos + 4 <= size;
            // otherwise it has no match either.
            next = pos + 4 <= input.size()
                ? f.bestMatch(pos + 1, len + 1, f.keyHash(pos + 1))
                : std::pair<std::uint32_t, std::uint32_t>{0, 0};
            if (next.first > len + 1) {
                ++pos;
                have_next = true;
                continue;
            }
            f.insertRange(pos + 1, pos + len);
        } else {
            f.insertRange(pos, pos + len);
        }
        seqs.push_back(
            {static_cast<std::uint32_t>(pos - lit_start), len, dist});
        pos += len;
        lit_start = pos;
    }
    if (lit_start < input.size())
        seqs.push_back(
            {static_cast<std::uint32_t>(input.size() - lit_start), 0, 0});
    return seqs;
}

} // namespace compress
} // namespace xfm
