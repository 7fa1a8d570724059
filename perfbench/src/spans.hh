/**
 * @file
 * Host-time spans recorded by the benchmark around its own calls into
 * the simulator's public functions.
 *
 * The simulator is single-threaded, so spans nest as a call stack: a
 * span's self time is its duration minus the time of the spans opened
 * inside it (e.g. the FarMemoryService::access calls made by event
 * callbacks run inside EventQueue::run). With recording off, opening a
 * span is one predictable branch, so the untraced run drives exactly
 * the same code.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench
{

/** The public function (and phase) a span times. */
enum class Layer : std::uint8_t
{
    Corpus,          ///< compress::generateCorpus (set-up)
    ServiceWrite,    ///< FarMemoryService::writePage (set-up)
    XfmWrite,        ///< XfmBackend::writePage (set-up)
    SimWarmup,       ///< EventQueue::run during warm-up
    SimRun,          ///< EventQueue::run inside the timed window
    ServiceAccess,   ///< FarMemoryService::access
    XfmSwapOut,      ///< XfmBackend::swapOut
    XfmSwapIn,       ///< XfmBackend::swapIn
    Snapshot,        ///< MetricRegistry::snapshot
    ShardCompress,   ///< Compressor::compressInto (codec probe)
    ShardDecompress, ///< Compressor::decompressInto (codec probe)
};

constexpr std::size_t numLayers = 11;

/** Name of the public function a layer's spans time. */
inline const char *
layerFunction(Layer l)
{
    switch (l) {
      case Layer::Corpus: return "compress::generateCorpus";
      case Layer::ServiceWrite: return "FarMemoryService::writePage";
      case Layer::XfmWrite: return "XfmBackend::writePage";
      case Layer::SimWarmup: return "EventQueue::run(warmup)";
      case Layer::SimRun: return "EventQueue::run";
      case Layer::ServiceAccess: return "FarMemoryService::access";
      case Layer::XfmSwapOut: return "XfmBackend::swapOut";
      case Layer::XfmSwapIn: return "XfmBackend::swapIn";
      case Layer::Snapshot: return "MetricRegistry::snapshot";
      case Layer::ShardCompress: return "Compressor::compressInto";
      case Layer::ShardDecompress: return "Compressor::decompressInto";
    }
    return "?";
}

/** Per-layer accumulators of a SpanLog at one moment. */
struct SpanTotals
{
    std::array<std::int64_t, numLayers> totalNs{};
    std::array<std::int64_t, numLayers> selfNs{};
    std::array<std::uint64_t, numLayers> calls{};

    double
    totalS(Layer l) const
    {
        return totalNs[static_cast<std::size_t>(l)] * 1e-9;
    }
    double
    selfS(Layer l) const
    {
        return selfNs[static_cast<std::size_t>(l)] * 1e-9;
    }
    std::uint64_t
    count(Layer l) const
    {
        return calls[static_cast<std::size_t>(l)];
    }

    /** Accumulation between @p base and this. */
    SpanTotals
    since(const SpanTotals &base) const
    {
        SpanTotals d;
        for (std::size_t i = 0; i < numLayers; ++i) {
            d.totalNs[i] = totalNs[i] - base.totalNs[i];
            d.selfNs[i] = selfNs[i] - base.selfNs[i];
            d.calls[i] = calls[i] - base.calls[i];
        }
        return d;
    }
};

/** In-memory span log with per-layer time and call accumulators. */
class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on), origin_(Clock::now())
    {
        if (on_)
            records_.reserve(std::size_t(1) << 20);
    }

    bool on() const { return on_; }

    std::size_t
    open(Layer l)
    {
        const std::size_t idx = records_.size();
        const std::int32_t parent =
            stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
        records_.push_back({l, parent, nowNs(), 0});
        stack_.push_back(idx);
        child_ns_.push_back(0);
        return idx;
    }

    void
    close(std::size_t idx)
    {
        Record &r = records_[idx];
        r.endNs = nowNs();
        const std::int64_t dur = r.endNs - r.startNs;
        const std::size_t li = static_cast<std::size_t>(r.layer);
        totals_.totalNs[li] += dur;
        totals_.selfNs[li] += dur - child_ns_.back();
        ++totals_.calls[li];
        stack_.pop_back();
        child_ns_.pop_back();
        if (!child_ns_.empty())
            child_ns_.back() += dur;
    }

    const SpanTotals &totals() const { return totals_; }

    /**
     * Write every span as a Chrome trace-event file (load it in
     * Perfetto or chrome://tracing); each event carries its parent's
     * index. Returns false when the file cannot be written.
     */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fputs("{\"traceEvents\": [\n", f);
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const Record &r = records_[i];
            std::fprintf(f,
                         "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                         layerFunction(r.layer), r.startNs * 1e-3,
                         (r.endNs - r.startNs) * 1e-3, i, r.parent,
                         i + 1 < records_.size() ? "," : "");
        }
        std::fputs("]}\n", f);
        return std::fclose(f) == 0;
    }

  private:
    using Clock = std::chrono::steady_clock;

    struct Record
    {
        Layer layer;
        std::int32_t parent;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    bool on_;
    Clock::time_point origin_;
    std::vector<Record> records_;
    std::vector<std::size_t> stack_;
    std::vector<std::int64_t> child_ns_;  ///< parallel to stack_
    SpanTotals totals_;
};

/** RAII span; a no-op when the log is off. */
class Span
{
  public:
    Span(SpanLog &log, Layer l)
        : log_(log), idx_(log.on() ? log.open(l) : none)
    {}
    ~Span()
    {
        if (idx_ != none)
            log_.close(idx_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    static constexpr std::size_t none = ~std::size_t(0);
    SpanLog &log_;
    std::size_t idx_;
};

/** Host wall clock in seconds since an arbitrary origin. */
inline double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
