/**
 * @file
 * Token oracle for the LZ77 match finder.
 *
 * lz77Tokenize() is the finder's one-token-per-byte form: the same
 * base-offset hash chains, 4-byte candidate prefilter, floored lazy
 * probe and carried lookahead as compress::lz77Sequences(), but it
 * inserts every position through the 3-byte path and emits a token
 * per literal byte. Grouping its tokens into runs
 * (groupIntoSequences()) must give exactly the finder's sequences.
 * Its tables are built per call, so it shares no state with the
 * finder's pooled ones.
 */

#ifndef XFM_TESTS_LZ77_ORACLE_HH
#define XFM_TESTS_LZ77_ORACLE_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "compress/lz77.hh"

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

namespace token_oracle
{

constexpr std::size_t hashBits = 15;

inline std::uint32_t
hash3(const std::uint8_t *p)
{
    const std::uint32_t v = static_cast<std::uint32_t>(p[0])
        | (static_cast<std::uint32_t>(p[1]) << 8)
        | (static_cast<std::uint32_t>(p[2]) << 16);
    return (v * 2654435761u) >> (32 - hashBits);
}

inline std::uint32_t
load32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

/** Positions are stored as 1 + index; 0 marks an empty bucket. */
struct Finder
{
    static constexpr std::uint32_t base = 1;

    ByteSpan in;
    const Lz77Params &p;
    std::vector<std::uint32_t> headPos =
        std::vector<std::uint32_t>(std::size_t(1) << hashBits, 0);
    std::vector<std::uint32_t> prev;

    Finder(ByteSpan input, const Lz77Params &params)
        : in(input), p(params), prev(input.size())
    {
    }

    void
    insert(std::size_t pos)
    {
        if (pos + 3 > in.size())
            return;
        const std::uint32_t h = hash3(in.data() + pos);
        prev[pos] = headPos[h];
        headPos[h] = base + static_cast<std::uint32_t>(pos);
    }

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
        std::uint32_t cand = headPos[hash3(in.data() + pos)];
        unsigned chain = p.maxChainLength;
        const bool prefilter_ok = limit >= 4;
        while (cand >= lowest && chain-- > 0) {
            const std::size_t cpos = cand - base;
            if (cpos >= pos) {
                cand = prev[cpos];
                continue;
            }
            if (prefilter_ok && (best_len >= 3 || p.minMatch >= 4)
                && load32(in.data() + cpos) != load32(in.data() + pos)) {
                cand = prev[cpos];
                continue;
            }
            if (best_len == 0 || in[cpos + best_len] == in[pos + best_len]) {
                const std::uint32_t len = matchLength(
                    in.data() + cpos, in.data() + pos, limit);
                if (len > best_len) {
                    best_len = len;
                    best_dist = static_cast<std::uint32_t>(pos - cpos);
                    if (best_len >= limit)
                        break;
                }
            }
            cand = prev[cpos];
        }
        if (best_dist == 0 || best_len < p.minMatch)
            return {0, 0};
        return {best_len, best_dist};
    }
};

} // namespace token_oracle

/**
 * Tokens of input[start..), with input[0..start) indexed as shared
 * history that produces no tokens.
 */
inline std::vector<Lz77Token>
lz77Tokenize(ByteSpan input, const Lz77Params &params,
             std::size_t start = 0)
{
    std::vector<Lz77Token> tokens;
    if (input.size() == start)
        return tokens;
    token_oracle::Finder f(input, params);
    for (std::size_t i = 0; i < start; ++i)
        f.insert(i);
    std::size_t pos = start;
    std::pair<std::uint32_t, std::uint32_t> next{0, 0};
    bool have_next = false;
    while (pos < input.size()) {
        const auto [len, dist] = have_next ? next : f.bestMatch(pos, 0);
        have_next = false;
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
    return tokens;
}

/** Reconstruct the original bytes from a token stream. */
inline Bytes
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
        const std::size_t src = out.size() - t.distance;
        for (std::uint32_t i = 0; i < t.length; ++i)
            out.push_back(out[src + i]);
    }
    return out;
}

/**
 * Rebuild input[start..) from @p seqs: literal runs are read from
 * the input, matches are copied from what was rebuilt so far on top
 * of the history input[0..start), so a wrong match yields wrong
 * bytes.
 */
inline Bytes
lz77Reconstruct(ByteSpan input, std::size_t start,
                std::span<const Lz77Seq> seqs)
{
    Bytes out(input.begin(), input.begin() + start);
    for (const Lz77Seq &s : seqs) {
        if (out.size() + s.litRun > input.size())
            fatal("lz77 reconstruct: literal run past the input");
        out.insert(out.end(), input.begin() + out.size(),
                   input.begin() + out.size() + s.litRun);
        if (s.matchLen == 0)
            continue;
        if (s.offset == 0 || s.offset > out.size())
            fatal("lz77 reconstruct: bad distance ", s.offset,
                  " at output size ", out.size());
        const std::size_t src = out.size() - s.offset;
        for (std::uint32_t i = 0; i < s.matchLen; ++i)
            out.push_back(out[src + i]);
    }
    return Bytes(out.begin() + start, out.end());
}

/** @p tokens as sequences: each match closes the literal run before it. */
inline std::vector<Lz77Seq>
groupIntoSequences(const std::vector<Lz77Token> &tokens)
{
    std::vector<Lz77Seq> seqs;
    std::uint32_t run = 0;
    for (const auto &t : tokens) {
        if (t.isMatch) {
            seqs.push_back({run, t.length, t.distance});
            run = 0;
        } else {
            ++run;
        }
    }
    if (run > 0)
        seqs.push_back({run, 0, 0});
    return seqs;
}

} // namespace compress
} // namespace xfm

#endif // XFM_TESTS_LZ77_ORACLE_HH
