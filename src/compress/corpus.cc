#include "corpus.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstring>
#include <string_view>

#include "common/logging.hh"
#include "common/random.hh"

namespace xfm
{
namespace compress
{

namespace
{

/** Longest record any generator writes in one loop iteration. */
constexpr std::size_t maxRecord = 256;

/**
 * A word of at most 7 letters (a longer one fails to compile in a
 * constexpr table), stored in 8 bytes so that it copies as one
 * fixed-size store, without a branch on its length.
 */
struct Word
{
    constexpr Word(const char *s)
    {
        while (s[size] != '\0') {
            text[size] = s[size];
            ++size;
        }
    }

    char text[8] = {};
    std::size_t size = 0;
};

/**
 * Appends a corpus straight into its output buffer. The buffer holds
 * the requested size plus maxRecord bytes of slack, so a generator
 * writes whole records through a raw pointer, with no capacity check,
 * for as long as more() holds; finish() drops what overshoots.
 */
class Writer
{
  public:
    explicit Writer(std::size_t size)
        : buf_(size + maxRecord),
          p_(reinterpret_cast<char *>(buf_.data())), end_(p_ + size),
          size_(size)
    {}

    bool more() const { return p_ < end_; }

    void put(char c) { *p_++ = c; }

    void
    put(std::string_view s)
    {
        std::memcpy(p_, s.data(), s.size());
        p_ += s.size();
    }

    void
    word(const Word &w)
    {
        std::memcpy(p_, w.text, sizeof(w.text));
        p_ += w.size;
    }

    /** Decimal digits of @p v, as std::to_string writes them. */
    void num(std::uint64_t v) { p_ = std::to_chars(p_, p_ + 20, v).ptr; }

    /** The low @p n bytes of @p v, least significant first. */
    void
    le(std::uint64_t v, int n)
    {
        for (int k = 0; k < n; ++k)
            *p_++ = static_cast<char>(v >> (8 * k));
    }

    Bytes
    finish()
    {
        buf_.resize(size_);
        return std::move(buf_);
    }

  private:
    Bytes buf_;
    char *p_;
    char *end_;
    std::size_t size_;
};

constexpr std::array<Word, 64> commonWords = {
    "the", "of", "and", "to", "in", "is", "that", "it", "was", "for",
    "on", "are", "with", "as", "his", "they", "be", "at", "one",
    "have", "this", "from", "or", "had", "by", "but", "not", "what",
    "all", "were", "we", "when", "your", "can", "said", "there",
    "use", "an", "each", "which", "she", "do", "how", "their", "if",
    "will", "up", "other", "about", "out", "many", "then", "them",
    "these", "so", "some", "her", "would", "make", "like", "him",
    "into", "time", "has"
};

/** Draws one of commonWords. */
const Word &
commonWord(Rng &rng)
{
    static const ZipfSampler rank(commonWords.size(), 0.9);
    return commonWords[rank(rng)];
}

Bytes
genEnglishText(Rng &rng, std::size_t size)
{
    Writer out(size);
    std::size_t line_len = 0;
    while (out.more()) {
        const Word &w = commonWord(rng);
        out.word(w);
        line_len += w.size + 1;
        if (rng.chance(0.08)) {
            out.put(". ");
        } else if (line_len > 68) {
            out.put('\n');
            line_len = 0;
        } else {
            out.put(' ');
        }
    }
    return out.finish();
}

Bytes
genHtml(Rng &rng, std::size_t size)
{
    static const std::array<std::string_view, 8> tags = {
        "div", "span", "p", "a", "li", "td", "h2", "section"
    };
    static const std::array<std::string_view, 6> classes = {
        "container", "row", "col-md-6", "btn btn-primary",
        "nav-item active", "card-body text-muted"
    };
    Writer out(size);
    out.put("<!DOCTYPE html>\n<html><head><title>page</title>"
            "</head><body>\n");
    while (out.more()) {
        const std::string_view tag = tags[rng.uniformInt(tags.size())];
        const std::string_view cls =
            classes[rng.uniformInt(classes.size())];
        const std::uint64_t id = rng.uniformInt(500);
        out.put('<');
        out.put(tag);
        out.put(" class=\"");
        out.put(cls);
        out.put("\" id=\"el");
        out.num(id);
        out.put("\">");
        out.word(commonWord(rng));
        out.put("</");
        out.put(tag);
        out.put(">\n");
    }
    return out.finish();
}

// Json, CsvTable, LogLines, KeyValue and Dictionary draw a record's
// fields in the reverse of the order they print them; HeapObjects
// draws its packed field's low half first. That is the order GCC
// gave an earlier form of these generators, and the pinned corpus
// bytes depend on it. Each draw is its own statement, so the order
// holds under every compiler.

Bytes
genJson(Rng &rng, std::size_t size)
{
    Writer out(size);
    out.put("{\"results\":[\n");
    while (out.more()) {
        const std::uint64_t score = rng.uniformInt(100);
        const bool active = rng.chance(0.5);
        const std::uint64_t name = rng.uniformInt(5000);
        const std::uint64_t id = rng.uniformInt(100000);
        out.put("  {\"id\": ");
        out.num(id);
        out.put(", \"name\": \"user_");
        out.num(name);
        out.put("\", \"active\": ");
        out.put(active ? "true" : "false");
        out.put(", \"score\": ");
        out.num(score);
        out.put(", \"tags\": [\"alpha\", \"beta\"]},\n");
    }
    return out.finish();
}

Bytes
genSourceCode(Rng &rng, std::size_t size)
{
    static const std::array<std::string_view, 10> idents = {
        "buffer", "index", "count", "result", "status", "handler",
        "request", "response", "context", "offset"
    };
    Writer out(size);
    while (out.more()) {
        const std::string_view a = idents[rng.uniformInt(idents.size())];
        const std::string_view b = idents[rng.uniformInt(idents.size())];
        switch (rng.uniformInt(4)) {
          case 0:
            out.put("    int ");
            out.put(a);
            out.put(" = ");
            out.put(b);
            out.put(" + ");
            out.num(rng.uniformInt(16));
            out.put(";\n");
            break;
          case 1:
            out.put("    if (");
            out.put(a);
            out.put(" < ");
            out.put(b);
            out.put(") {\n        return ");
            out.put(a);
            out.put(";\n    }\n");
            break;
          case 2:
            out.put("    for (int i = 0; i < ");
            out.put(a);
            out.put("; ++i) {\n        ");
            out.put(b);
            out.put(" += i;\n    }\n");
            break;
          default:
            out.put("    ");
            out.put(a);
            out.put(" = process(");
            out.put(b);
            out.put(", sizeof(");
            out.put(b);
            out.put("));\n");
            break;
        }
    }
    return out.finish();
}

Bytes
genCsvTable(Rng &rng, std::size_t size)
{
    Writer out(size);
    out.put("timestamp,region,status,latency_ms,bytes\n");
    std::uint64_t ts = 1690000000;
    while (out.more()) {
        ts += rng.uniformInt(5);
        const std::uint64_t bytes = rng.uniformInt(65536);
        const std::uint64_t latency = rng.uniformInt(250);
        const std::uint64_t region = 1 + rng.uniformInt(2);
        out.num(ts);
        out.put(",us-east-");
        out.num(region);
        out.put(",200,");
        out.num(latency);
        out.put(',');
        out.num(bytes);
        out.put('\n');
    }
    return out.finish();
}

Bytes
genLogLines(Rng &rng, std::size_t size)
{
    static const std::array<std::string_view, 4> levels = {
        "INFO", "WARN", "DEBUG", "ERROR"
    };
    static const ZipfSampler level_rank(levels.size(), 1.0);
    Writer out(size);
    std::uint64_t ts = 0;
    while (out.more()) {
        ts += rng.uniformInt(1000);
        const std::uint64_t dur = rng.uniformInt(90);
        const std::uint64_t item = rng.uniformInt(2000);
        const std::uint64_t srv = rng.uniformInt(8);
        const std::string_view level = levels[level_rank(rng)];
        const std::uint64_t minute = 10 + rng.uniformInt(49);
        out.put("[2023-07-14T12:");
        out.num(minute);
        out.put(":00.");
        out.num(ts % 1000);
        out.put("Z] ");
        out.put(level);
        out.put(" srv-");
        out.num(srv);
        out.put(" request completed path=/api/v1/items/");
        out.num(item);
        out.put(" dur=");
        out.num(dur);
        out.put("ms\n");
    }
    return out.finish();
}

Bytes
genKeyValue(Rng &rng, std::size_t size)
{
    Writer out(size);
    while (out.more()) {
        const std::uint64_t second = rng.uniformInt(50);
        const std::uint64_t first = rng.uniformInt(50);
        const std::uint64_t session = rng.uniformInt(9999);
        out.put("SET session:");
        out.num(session);
        out.put(":state {\"cart\":[");
        out.num(first);
        out.put(',');
        out.num(second);
        out.put("],\"ttl\":3600}\r\n");
    }
    return out.finish();
}

Bytes
genNumericColumns(Rng &rng, std::size_t size)
{
    Writer out(size);
    std::uint32_t v = 1000000;
    while (out.more()) {
        v += static_cast<std::uint32_t>(rng.uniformInt(7));
        out.le(v, 4);
    }
    return out.finish();
}

Bytes
genBase64Blob(Rng &rng, std::size_t size)
{
    static const char alphabet[] =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
        "0123456789+/";
    Writer out(size);
    std::size_t col = 0;
    while (out.more()) {
        out.put(alphabet[rng.uniformInt(64)]);
        if (++col == 76) {
            out.put('\n');
            col = 0;
        }
    }
    return out.finish();
}

Bytes
genZeroHeavy(Rng &rng, std::size_t size)
{
    Bytes out(size, 0);
    // Sparse nonzero islands, like a calloc'd heap with a few
    // initialised fields.
    std::size_t pos = 0;
    while (pos < size) {
        pos += rng.uniformRange(64, 512);
        const std::size_t run = rng.uniformRange(4, 32);
        for (std::size_t k = 0; k < run && pos + k < size; ++k)
            out[pos + k] = static_cast<std::uint8_t>(rng.next());
        pos += run;
    }
    return out;
}

Bytes
genBitmap(Rng &rng, std::size_t size)
{
    Writer out(size);
    const double fx = 0.002 + rng.uniformReal() * 0.004;
    const double fy = 0.05 + rng.uniformReal() * 0.05;
    const std::size_t width = 256;
    for (std::size_t i = 0; out.more(); ++i) {
        const double x = static_cast<double>(i % width);
        const double y = static_cast<double>(i / width);
        const double v = 127.0 + 100.0 * std::sin(x * fy)
            * std::cos(y * fx * 40.0);
        out.put(static_cast<char>(
            static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0))));
    }
    return out.finish();
}

Bytes
genAudioPcm(Rng &rng, std::size_t size)
{
    Writer out(size);
    double phase = rng.uniformReal() * 6.28;
    const double freq = 0.02 + rng.uniformReal() * 0.04;
    double noise = 0.0;
    while (out.more()) {
        phase += freq;
        noise = 0.95 * noise + 0.05 * (rng.uniformReal() - 0.5);
        const double s = std::sin(phase) * 0.6 + noise;
        const auto v = static_cast<std::int16_t>(
            std::clamp(s, -1.0, 1.0) * 32000.0);
        out.le(static_cast<std::uint16_t>(v), 2);
    }
    return out.finish();
}

Bytes
genProteinSeq(Rng &rng, std::size_t size)
{
    static const char acids[] = "ACDEFGHIKLMNPQRSTVWY";
    static const ZipfSampler acid_rank(20, 0.4);
    Writer out(size);
    std::size_t col = 0;
    while (out.more()) {
        out.put(acids[acid_rank(rng)]);
        if (++col == 60) {
            out.put('\n');
            col = 0;
        }
    }
    return out.finish();
}

Bytes
genDictionary(Rng &rng, std::size_t size)
{
    static const std::array<std::string_view, 12> stems = {
        "account", "balance", "calibrat", "demonstrat", "establish",
        "fabricat", "generat", "illuminat", "investigat", "manufactur",
        "negotiat", "transport"
    };
    static const std::array<std::string_view, 8> suffixes = {
        "e", "es", "ed", "ing", "ion", "ions", "or", "ively"
    };
    Writer out(size);
    while (out.more()) {
        const std::string_view suffix =
            suffixes[rng.uniformInt(suffixes.size())];
        const std::string_view stem = stems[rng.uniformInt(stems.size())];
        out.put(stem);
        out.put(suffix);
        out.put('\n');
    }
    return out.finish();
}

Bytes
genHeapObjects(Rng &rng, std::size_t size)
{
    Writer out(size);
    // 32-byte "objects": vtable ptr, next ptr, two int fields,
    // 8 bytes padding. Pointers share a common heap base.
    const std::uint64_t heap_base = 0x00007F3A00000000ull;
    while (out.more()) {
        const std::uint64_t vtbl = 0x0000556600401000ull
            + rng.uniformInt(8) * 0x40;
        const std::uint64_t next = heap_base
            + rng.uniformInt(1 << 20) * 32;
        const std::uint64_t lo = rng.uniformInt(1024);
        const std::uint64_t hi = rng.uniformInt(4);
        out.le(vtbl, 8);
        out.le(next, 8);
        out.le(lo | (hi << 32), 8);
        out.le(0, 8);
    }
    return out.finish();
}

Bytes
genRandomBytes(Rng &rng, std::size_t size)
{
    Writer out(size);
    while (out.more())
        out.le(rng.next(), 8);
    return out.finish();
}

} // namespace

const std::vector<CorpusKind> &
allCorpusKinds()
{
    static const std::vector<CorpusKind> kinds = {
        CorpusKind::EnglishText, CorpusKind::Html, CorpusKind::Json,
        CorpusKind::SourceCode, CorpusKind::CsvTable,
        CorpusKind::LogLines, CorpusKind::KeyValue,
        CorpusKind::NumericColumns, CorpusKind::Base64Blob,
        CorpusKind::ZeroHeavy, CorpusKind::Bitmap, CorpusKind::AudioPcm,
        CorpusKind::ProteinSeq, CorpusKind::Dictionary,
        CorpusKind::HeapObjects, CorpusKind::RandomBytes,
    };
    return kinds;
}

std::string
corpusName(CorpusKind kind)
{
    switch (kind) {
      case CorpusKind::EnglishText: return "english-text";
      case CorpusKind::Html: return "html";
      case CorpusKind::Json: return "json";
      case CorpusKind::SourceCode: return "source-code";
      case CorpusKind::CsvTable: return "csv-table";
      case CorpusKind::LogLines: return "log-lines";
      case CorpusKind::KeyValue: return "key-value";
      case CorpusKind::NumericColumns: return "numeric-cols";
      case CorpusKind::Base64Blob: return "base64-blob";
      case CorpusKind::ZeroHeavy: return "zero-heavy";
      case CorpusKind::Bitmap: return "bitmap";
      case CorpusKind::AudioPcm: return "audio-pcm";
      case CorpusKind::ProteinSeq: return "protein-seq";
      case CorpusKind::Dictionary: return "dictionary";
      case CorpusKind::HeapObjects: return "heap-objects";
      case CorpusKind::RandomBytes: return "random-bytes";
    }
    panic("unknown corpus kind");
}

Bytes
generateCorpus(CorpusKind kind, std::uint64_t seed, std::size_t size)
{
    Rng rng(seed ^ (static_cast<std::uint64_t>(kind) * 0x1234567));
    switch (kind) {
      case CorpusKind::EnglishText: return genEnglishText(rng, size);
      case CorpusKind::Html: return genHtml(rng, size);
      case CorpusKind::Json: return genJson(rng, size);
      case CorpusKind::SourceCode: return genSourceCode(rng, size);
      case CorpusKind::CsvTable: return genCsvTable(rng, size);
      case CorpusKind::LogLines: return genLogLines(rng, size);
      case CorpusKind::KeyValue: return genKeyValue(rng, size);
      case CorpusKind::NumericColumns:
        return genNumericColumns(rng, size);
      case CorpusKind::Base64Blob: return genBase64Blob(rng, size);
      case CorpusKind::ZeroHeavy: return genZeroHeavy(rng, size);
      case CorpusKind::Bitmap: return genBitmap(rng, size);
      case CorpusKind::AudioPcm: return genAudioPcm(rng, size);
      case CorpusKind::ProteinSeq: return genProteinSeq(rng, size);
      case CorpusKind::Dictionary: return genDictionary(rng, size);
      case CorpusKind::HeapObjects: return genHeapObjects(rng, size);
      case CorpusKind::RandomBytes: return genRandomBytes(rng, size);
    }
    panic("unknown corpus kind");
}

std::vector<Bytes>
paginate(const Bytes &corpus, std::size_t page_bytes)
{
    XFM_ASSERT(page_bytes > 0, "page size must be positive");
    std::vector<Bytes> pages;
    pages.reserve(corpus.size() / page_bytes);
    for (std::size_t off = 0; off + page_bytes <= corpus.size();
         off += page_bytes) {
        pages.emplace_back(corpus.begin() + off,
                           corpus.begin() + off + page_bytes);
    }
    return pages;
}

} // namespace compress
} // namespace xfm
