#include "huffman.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace xfm
{
namespace compress
{

namespace
{

/**
 * Pooled per-thread builder scratch, leased like lz77's finder
 * tables: every call resizes instead of reallocating, so steady
 * state allocates nothing.
 */
struct HuffmanScratch
{
    std::vector<std::uint32_t> live;   ///< live symbols, ascending
    std::vector<std::uint32_t> leaf;   ///< live by (count, symbol)
    std::vector<std::uint32_t> spare;  ///< radix sort ping-pong
    std::vector<std::uint64_t> weight; ///< leaves, then internal nodes
    std::vector<std::uint32_t> parent; ///< node -> parent node
    std::vector<std::uint32_t> depth;  ///< node -> depth (unclamped)
    std::vector<std::uint32_t> codes;  ///< code of each live symbol
};

HuffmanScratch &
huffmanScratch()
{
    thread_local HuffmanScratch scratch;
    return scratch;
}

/** Each byte value with its 8 bits reversed. */
constexpr std::array<std::uint8_t, 256> reversedBytes = [] {
    std::array<std::uint8_t, 256> table{};
    for (unsigned v = 0; v < 256; ++v)
        for (unsigned bit = 0; bit < 8; ++bit)
            if (v & (1u << bit))
                table[v] |= static_cast<std::uint8_t>(0x80u >> bit);
    return table;
}();

/** Reverse the low @p len bits of @p code (len <= 16). */
inline std::uint32_t
reverseBits(std::uint32_t code, unsigned len)
{
    const std::uint32_t r =
        (std::uint32_t(reversedBytes[code & 0xFF]) << 8)
        | reversedBytes[(code >> 8) & 0xFF];
    return r >> (16 - len);
}

/** Eight code lengths at @p p as one word (zero iff all are 0). */
inline std::uint64_t
load64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

/**
 * Canonical codes of the live symbols: @p live gets every symbol
 * of nonzero length in ascending order, and codes[i] the code of
 * live[i], bit-reversed for LSB-first emission. A shard's literal
 * table has a few dozen live symbols of 256, in clusters, so the
 * compaction skips eight zero lengths per load and every later
 * pass walks only the live list. The codes are RFC 1951 §3.2.2's:
 * the first code of each length follows from the counts of the
 * shorter lengths, and symbols of one length take consecutive codes
 * in symbol order. Returns the longest length (0 when none is
 * live).
 */
unsigned
liveCanonicalCodes(std::span<const std::uint8_t> lengths,
                   std::vector<std::uint32_t> &live,
                   std::vector<std::uint32_t> &codes)
{
    const std::size_t n = lengths.size();
    live.resize(n);
    std::size_t nlive = 0;
    std::uint8_t any = 0;
    std::size_t s = 0;
    for (; s + 8 <= n; s += 8) {
        if (load64(lengths.data() + s) == 0)
            continue;
        for (std::size_t k = s; k < s + 8; ++k) {
            live[nlive] = static_cast<std::uint32_t>(k);
            nlive += lengths[k] != 0;
            any |= lengths[k];
        }
    }
    for (; s < n; ++s) {
        live[nlive] = static_cast<std::uint32_t>(s);
        nlive += lengths[s] != 0;
        any |= lengths[s];
    }
    live.resize(nlive);
    XFM_ASSERT(any <= maxCodeLength,
               "huffman code exceeds the length limit");

    std::array<std::uint32_t, maxCodeLength + 1> next{};
    for (std::uint32_t sym : live)
        ++next[lengths[sym]];
    unsigned max_len = 0;
    std::uint32_t code = 0;
    std::uint32_t prev_count = 0;
    for (unsigned len = 1; len <= maxCodeLength; ++len) {
        code = (code + prev_count) << 1;
        prev_count = next[len];
        if (prev_count != 0)
            max_len = len;
        next[len] = code;
    }

    codes.resize(nlive);
    for (std::size_t i = 0; i < nlive; ++i) {
        const unsigned len = lengths[live[i]];
        codes[i] = reverseBits(next[len]++, len);
    }
    return max_len;
}

/**
 * Order @p live (ascending symbols) by (count, symbol) into
 * t.leaf: a stable LSD radix sort on the count, one byte per pass
 * and only as many passes as the largest count has bytes (one or
 * two for a shard's literals). Stability keeps equal counts in
 * symbol order.
 */
void
sortLeaves(std::span<const std::uint64_t> counts, HuffmanScratch &t)
{
    std::uint64_t max_count = 0;
    for (std::uint32_t s : t.live)
        max_count = std::max(max_count, counts[s]);
    t.leaf.assign(t.live.begin(), t.live.end());
    t.spare.resize(t.live.size());
    for (unsigned shift = 0; shift < 64 && (max_count >> shift) != 0;
         shift += 8) {
        // The top pass's digits stop at the largest count's, so
        // only that prefix of the buckets is summed.
        const std::size_t digits =
            std::min<std::uint64_t>(max_count >> shift, 0xFF) + 1;
        std::array<std::uint32_t, 257> start{};
        for (std::uint32_t s : t.leaf)
            ++start[((counts[s] >> shift) & 0xFF) + 1];
        for (std::size_t d = 1; d < digits; ++d)
            start[d] += start[d - 1];
        for (std::uint32_t s : t.leaf)
            t.spare[start[(counts[s] >> shift) & 0xFF]++] = s;
        t.leaf.swap(t.spare);
    }
}

} // namespace

void
huffmanCodeLengths(std::span<const std::uint64_t> counts,
                   std::vector<std::uint8_t> &lengths)
{
    const std::size_t n = counts.size();
    lengths.assign(n, 0);

    HuffmanScratch &t = huffmanScratch();
    std::vector<std::uint32_t> &live = t.live;
    // Branch-free compaction: which symbols of a shard's alphabet
    // occur is irregular, so a branch here mispredicts often.
    live.resize(n);
    std::size_t nlive = 0;
    for (std::size_t i = 0; i < n; ++i) {
        live[nlive] = static_cast<std::uint32_t>(i);
        nlive += counts[i] > 0;
    }
    live.resize(nlive);

    if (live.empty())
        return;
    if (live.size() == 1) {
        lengths[live[0]] = 1;
        return;
    }

    // Two-queue build. Nodes [0, L) are the leaves in (count,
    // symbol) order; internal node L + k is the k-th merge. Merged
    // weights never decrease, so the internal nodes form a sorted
    // FIFO and each step takes the lighter queue head, the leaf on
    // a tie: exactly the pop order of a (weight, creation order)
    // min-heap, hence the same tree.
    const std::size_t leaves = live.size();
    const std::size_t nodes = 2 * leaves - 1;
    sortLeaves(counts, t);
    t.weight.resize(nodes);
    t.parent.resize(nodes);
    t.depth.resize(nodes);
    for (std::size_t i = 0; i < leaves; ++i)
        t.weight[i] = counts[t.leaf[i]];
    std::size_t next_leaf = 0;
    std::size_t next_internal = leaves;
    auto take = [&](std::size_t merged) {
        const bool leaf = next_leaf < leaves
            && (next_internal == merged
                || t.weight[next_leaf] <= t.weight[next_internal]);
        const std::size_t node = leaf ? next_leaf : next_internal;
        next_leaf += leaf;
        next_internal += !leaf;
        t.parent[node] = static_cast<std::uint32_t>(merged);
        return t.weight[node];
    };
    for (std::size_t merged = leaves; merged < nodes; ++merged) {
        const std::uint64_t a = take(merged);
        t.weight[merged] = a + take(merged);
    }

    // Parents always follow their children, so one reverse pass
    // from the root assigns every depth.
    t.depth[nodes - 1] = 0;
    for (std::size_t i = nodes - 1; i-- > 0;)
        t.depth[i] = t.depth[t.parent[i]] + 1;

    // Length-limit: clamp, then repair the Kraft inequality.
    bool clamped = false;
    for (std::size_t i = 0; i < leaves; ++i) {
        const std::uint32_t depth = t.depth[i];
        clamped |= depth > maxCodeLength;
        lengths[t.leaf[i]] = static_cast<std::uint8_t>(
            std::min<std::uint32_t>(depth, maxCodeLength));
    }
    if (!clamped)
        return;
    const std::uint64_t budget = std::uint64_t(1) << maxCodeLength;
    std::uint64_t kraft = 0;
    for (std::uint32_t s : live)
        kraft += std::uint64_t(1) << (maxCodeLength - lengths[s]);
    // Each step lengthens the deepest code still below the cap,
    // lowest symbol first. That victim is then the only code at its
    // new depth, so it keeps being picked until it reaches the cap:
    // walking depths downward visits the victims in that order, and
    // the running sum drops by half the victim's share per step.
    for (unsigned len = maxCodeLength - 1; len > 0 && kraft > budget;
         --len) {
        for (std::uint32_t s : live) {
            if (lengths[s] != len)
                continue;
            while (lengths[s] < maxCodeLength && kraft > budget) {
                kraft -= std::uint64_t(1)
                    << (maxCodeLength - 1 - lengths[s]);
                ++lengths[s];
            }
            if (kraft <= budget)
                break;
        }
    }
    XFM_ASSERT(kraft <= budget, "cannot satisfy Kraft inequality");
}

void
canonicalCodes(std::span<const std::uint8_t> lengths,
               std::vector<std::uint32_t> &codes)
{
    HuffmanScratch &t = huffmanScratch();
    liveCanonicalCodes(lengths, t.live, t.codes);
    codes.assign(lengths.size(), 0);
    for (std::size_t i = 0; i < t.live.size(); ++i)
        codes[t.live[i]] = t.codes[i];
}

void
HuffmanEncoder::assign(std::span<const std::uint8_t> lengths)
{
    lengths_.assign(lengths.begin(), lengths.end());
    canonicalCodes(lengths, codes_);
}

void
HuffmanDecoder::assign(std::span<const std::uint8_t> lengths)
{
    XFM_ASSERT(lengths.size() <= 0xFFFF,
               "huffman alphabet too large for packed table");
    HuffmanScratch &t = huffmanScratch();
    const std::vector<std::uint32_t> &live = t.live;
    const std::vector<std::uint32_t> &codes = t.codes;
    const unsigned max_len = liveCanonicalCodes(lengths, t.live, t.codes);
    root_bits_ = std::max(1u, std::min<unsigned>(rootBits, max_len));
    const std::size_t root_size = std::size_t(1) << root_bits_;
    table_.assign(root_size, {0, 0, 0});
    if (max_len == 0)
        return;

    // Short codes fill the root directly (LSB-first: a code of
    // `len` bits owns every window whose low bits equal it).
    for (std::size_t i = 0; i < live.size(); ++i) {
        const unsigned len = lengths[live[i]];
        if (len > root_bits_)
            continue;
        const std::size_t step = std::size_t(1) << len;
        for (std::size_t idx = codes[i]; idx < root_size; idx += step) {
            table_[idx].sym = static_cast<std::uint16_t>(live[i]);
            table_[idx].len = static_cast<std::uint8_t>(len);
        }
    }
    // Long codes spill into one subtable per root prefix, sized by
    // the longest code sharing that prefix. One pass turns each
    // such prefix into a link holding its widest suffix; a second
    // places each subtable on first touch (offset 0 is the root, so
    // it marks "not placed yet") and fills it. Entries store the
    // FULL code length so a single skip() consumes root and sub
    // bits.
    if (max_len > root_bits_) {
        for (std::size_t i = 0; i < live.size(); ++i) {
            const unsigned len = lengths[live[i]];
            if (len <= root_bits_)
                continue;
            TableEntry &link = table_[codes[i] & (root_size - 1)];
            if (link.len != subLink)
                link = {0, 0, subLink};
            link.subBits = std::max<std::uint16_t>(
                link.subBits, static_cast<std::uint16_t>(len - root_bits_));
        }
        for (std::size_t i = 0; i < live.size(); ++i) {
            const unsigned len = lengths[live[i]];
            if (len <= root_bits_)
                continue;
            const std::uint32_t prefix = codes[i] & (root_size - 1);
            const unsigned sub_bits = table_[prefix].subBits;
            if (table_[prefix].sym == 0) {
                const std::size_t off = table_.size();
                XFM_ASSERT(off <= 0xFFFF,
                           "huffman subtables exceed the offset field");
                table_.resize(off + (std::size_t(1) << sub_bits),
                              {0, 0, 0});
                table_[prefix].sym = static_cast<std::uint16_t>(off);
            }
            const std::size_t off = table_[prefix].sym;
            const std::size_t step = std::size_t(1) << (len - root_bits_);
            for (std::size_t idx = codes[i] >> root_bits_;
                 idx < (std::size_t(1) << sub_bits); idx += step) {
                table_[off + idx].sym =
                    static_cast<std::uint16_t>(live[i]);
                table_[off + idx].len = static_cast<std::uint8_t>(len);
            }
        }
    }
}

void
writeCodeLengthsRle(BitWriter &bw,
                    std::span<const std::uint8_t> lengths)
{
    const std::size_t n = lengths.size();
    std::size_t i = 0;
    while (i < n) {
        const std::uint8_t cur = lengths[i];
        // Find the run's end a word at a time: the first length
        // that differs from `cur` is the lowest nonzero byte of
        // the word XOR `cur` in every byte. One test settles a
        // short run, and the long zero runs of a shard's unused
        // symbols take one test per eight lengths.
        const std::uint64_t same = 0x0101010101010101ull * cur;
        std::size_t end = i + 1;
        for (;;) {
            if (end + 8 > n) {
                while (end < n && lengths[end] == cur)
                    ++end;
                break;
            }
            const std::uint64_t diff =
                load64(lengths.data() + end) ^ same;
            if (diff != 0) {
                const int bit = std::endian::native == std::endian::little
                    ? std::countr_zero(diff)
                    : std::countl_zero(diff);
                end += static_cast<std::size_t>(bit) >> 3;
                break;
            }
            end += 8;
        }
        const std::size_t run = end - i;
        if (cur == 0 && run >= 3) {
            std::size_t left = run;
            while (left >= 11) {
                const std::size_t take = std::min<std::size_t>(left, 138);
                bw.put(18, 5);
                bw.put(static_cast<std::uint32_t>(take - 11), 7);
                left -= take;
            }
            if (left >= 3) {
                bw.put(17, 5);
                bw.put(static_cast<std::uint32_t>(left - 3), 3);
                left = 0;
            }
            while (left-- > 0)
                bw.put(0, 5);
        } else {
            bw.put(cur, 5);
            std::size_t left = run - 1;
            while (left >= 3) {
                const std::size_t take = std::min<std::size_t>(left, 6);
                bw.put(16, 5);
                bw.put(static_cast<std::uint32_t>(take - 3), 2);
                left -= take;
            }
            while (left-- > 0)
                bw.put(cur, 5);
        }
        i += run;
    }
}

void
readCodeLengthsRle(BitReader &br, std::size_t count,
                   std::vector<std::uint8_t> &lengths)
{
    lengths.resize(count);
    std::uint8_t *out = lengths.data();
    std::size_t i = 0;
    while (i < count) {
        const std::uint32_t sym = br.get(5);
        if (sym <= 15) {
            out[i++] = static_cast<std::uint8_t>(sym);
            continue;
        }
        std::uint32_t run = 0;
        std::uint8_t value = 0;
        if (sym == 16) {
            if (i == 0)
                fatal("codelen rle: repeat with no previous length");
            run = 3 + br.get(2);
            value = out[i - 1];
        } else if (sym == 17) {
            run = 3 + br.get(3);
        } else if (sym == 18) {
            run = 11 + br.get(7);
        } else {
            fatal("codelen rle: invalid symbol ", sym);
        }
        if (run > count - i)
            fatal("codelen rle: overran requested count (", i + run,
                  " vs ", count, ")");
        std::memset(out + i, value, run);
        i += run;
    }
}

std::uint32_t
HuffmanDecoder::decode(BitReader &br) const
{
    const TableEntry *e = &table_[br.peek(root_bits_)];
    if (e->len == subLink) {
        // Long code: re-peek wide enough for the subtable suffix.
        // The entry's len holds the FULL code length, so one skip()
        // consumes root and suffix bits together.
        const std::uint32_t suffix =
            br.peek(root_bits_ + e->subBits) >> root_bits_;
        e = &table_[e->sym + suffix];
    }
    if (e->len == 0)
        fatal("huffman decode: invalid code in bitstream");
    br.skip(e->len);
    return e->sym;
}

} // namespace compress
} // namespace xfm
