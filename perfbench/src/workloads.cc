#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>

#include "common/random.hh"
#include "compress/corpus.hh"
#include "dram/ddr_config.hh"
#include "obs/registry.hh"
#include "service/service.hh"
#include "workload/fleet.hh"
#include "xfm/multichannel.hh"
#include "xfm/xfm_backend.hh"

namespace perfbench
{

using namespace xfm;

namespace
{

// ------------------------------------------------------------ helpers

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

constexpr std::uint64_t fnvBasis = 14695981039346656037ull;

/** Single-rank, single-channel DDR5 DIMMs, as the repo's benches use. */
void
useBenchDimms(xfmsys::XfmSystemConfig &cfg, std::size_t dimms)
{
    cfg.numDimms = dimms;
    cfg.dimmMem.rank.device = dram::ddr5Device32Gb();
    cfg.dimmMem.channels = 1;
    cfg.dimmMem.dimmsPerChannel = 1;
    cfg.dimmMem.ranksPerDimm = 1;
    cfg.sfmBase = gib(1);
    cfg.device.spmBytes = mib(2);
    cfg.device.queueDepth = 64;
}

/** Sum of the leaves whose name satisfies @p match. */
template <typename Match>
double
sumLeaves(const obs::Snapshot &s, Match match)
{
    double v = 0.0;
    for (const auto &leaf : s.leaves())
        if (match(leaf.name))
            v += leaf.asDouble();
    return v;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size()
        && s.compare(s.size() - suffix.size(), suffix.size(), suffix)
               == 0;
}

/** Key of a per-DIMM leaf ("x.dimm3.ring.reaped" -> "ring.reaped"). */
std::string
dimmKey(const std::string &name)
{
    const auto pos = name.rfind(".dimm");
    if (pos == std::string::npos)
        return {};
    const auto dot = name.find('.', pos + 5);
    if (dot == std::string::npos)
        return {};
    for (std::size_t i = pos + 5; i < dot; ++i)
        if (name[i] < '0' || name[i] > '9')
            return {};
    return name.substr(dot + 1);
}

/** Key of a per-tenant leaf ("svc.tenant7.swapIns" -> "swapIns"). */
std::string
tenantKey(const std::string &name)
{
    const auto pos = name.find(".tenant");
    if (pos == std::string::npos)
        return {};
    const auto dot = name.find('.', pos + 7);
    return dot == std::string::npos ? std::string() : name.substr(dot + 1);
}

/** Snapshot of @p reg inside a span. */
obs::Snapshot
snapshot(const obs::MetricRegistry &reg, SpanLog &spans)
{
    Span s(spans, Layer::Snapshot);
    return reg.snapshot();
}

/** The timed window: two snapshots and what they bracket. */
struct Window
{
    obs::Snapshot before;
    obs::Snapshot after;
    std::uint64_t events = 0;   ///< events executed inside
    double simMs = 0.0;         ///< simulated length
    double hostS = 0.0;         ///< host length
    SpanTotals setup;           ///< span accumulation before
    SpanTotals spans;           ///< span accumulation inside

    void
    open(const obs::MetricRegistry &reg, SpanLog &log, const EventQueue &eq)
    {
        setup = log.totals();
        events0_ = eq.executed();
        start_ = hostNow();
        before = snapshot(reg, log);
    }

    void
    close(const obs::MetricRegistry &reg, SpanLog &log, const EventQueue &eq)
    {
        after = snapshot(reg, log);
        hostS = hostNow() - start_;
        spans = log.totals().since(setup);
        events = eq.executed() - events0_;
    }

    /** Counter growth over the window of the matching leaves. */
    template <typename Match>
    double
    grew(Match match) const
    {
        return sumLeaves(after, match) - sumLeaves(before, match);
    }

    double
    dimmGrew(const std::string &key) const
    {
        return grew([&](const std::string &n) { return dimmKey(n) == key; });
    }

    double
    tenantGrew(const std::string &key) const
    {
        return grew(
            [&](const std::string &n) { return tenantKey(n) == key; });
    }

    /** Growth of one exact leaf. */
    double
    leafGrew(const std::string &name) const
    {
        return after.value(name) - before.value(name);
    }

  private:
    std::uint64_t events0_ = 0;
    double start_ = 0.0;
};

/** Pooled latency histogram over stats::Histogram's bucket layout. */
struct Pooled
{
    double lo = 0.0;
    double width = 0.0;
    std::vector<std::uint64_t> counts;  ///< [under, b0..bn-1, over]

    explicit Pooled(const stats::Histogram &layout)
        : lo(layout.lo()),
          width((layout.hi() - layout.lo()) / layout.buckets()),
          counts(layout.buckets() + 2, 0)
    {}

    /** Add @p h's buckets (same layout). */
    void
    add(const stats::Histogram &h)
    {
        counts.front() += h.underflow();
        for (std::size_t i = 0; i < h.buckets(); ++i)
            counts[i + 1] += h.bucketCount(i);
        counts.back() += h.overflow();
    }

    /** Remove an earlier pooling of the same histograms. */
    void
    subtract(const Pooled &base)
    {
        for (std::size_t i = 0; i < counts.size(); ++i)
            counts[i] -= base.counts[i];
    }

    std::uint64_t
    total() const
    {
        std::uint64_t t = 0;
        for (auto c : counts)
            t += c;
        return t;
    }

    /** Index into counts holding the @p p quantile (Histogram rule). */
    std::size_t
    rankIndex(double p) const
    {
        const auto target = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(p * static_cast<double>(total()))));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            seen += counts[i];
            if (seen >= target)
                return i;
        }
        return counts.size() - 1;
    }

    /** Upper edge of the quantile's bucket, as Histogram reports. */
    double
    percentile(double p) const
    {
        const std::size_t i = total() ? rankIndex(p) : 0;
        if (i == 0)
            return lo;
        return lo + width * static_cast<double>(i);
    }

    /** Samples in buckets above the p99 bucket. */
    std::uint64_t
    beyond(double p) const
    {
        std::uint64_t n = 0;
        for (std::size_t i = rankIndex(p) + 1; i < counts.size(); ++i)
            n += counts[i];
        return n;
    }
};

/** Total arbiter wait over every tenant lane (mean x count). */
double
laneWaitSum(const obs::Snapshot &s)
{
    const std::string count = ".arbiter.waitNs.count";
    double sum = 0.0;
    for (const auto &leaf : s.leaves())
        if (endsWith(leaf.name, count))
            sum += leaf.asDouble()
                * s.value(leaf.name.substr(0, leaf.name.size() - 5)
                          + "mean");
    return sum;
}

/** Swaps in the window, counted at the layer the workload drives. */
struct Swaps
{
    double completed = 0.0;
    double nma = 0.0;        ///< of completed, served by the NMA
    double attempted = 0.0;  ///< completed + failed
    double failed = 0.0;     ///< failed or failed
};

/** Fill @p ep.sim with the window's simulated results and counters. */
void
recordSim(Episode &ep, const Window &w, const std::string &backend,
          const Swaps &swaps, const Pooled &faults, double compress_ratio)
{
    const std::string b = backend + ".";
    const double offloaded = w.leafGrew(b + "offloadedSwapOuts")
        + w.leafGrew(b + "offloadedSwapIns");
    const double cond = w.dimmGrew("conditionalAccesses");
    const double rand = w.dimmGrew("randomAccesses");
    const double saved = w.dimmGrew("energySavedNanojoules");
    const double spent = w.dimmGrew("accessEnergyNanojoules");
    const double accesses = w.tenantGrew("accesses");
    const double lane_n = w.tenantGrew("arbiter.waitNs.count");
    const double lane_sum = laneWaitSum(w.after) - laneWaitSum(w.before);

    ep.sim = {
        {"window_ms", w.simMs},
        {"swaps", swaps.completed},
        {"attempted_swaps", swaps.attempted},
        {"nma_share", swaps.completed > 0 ? swaps.nma / swaps.completed : 0.0},
        {"fault_p50_ns", faults.percentile(0.50)},
        {"fault_p99_ns", faults.percentile(0.99)},
        {"sim.fault_samples", static_cast<double>(faults.total())},
        {"sim.fault_beyond_p99",
         static_cast<double>(faults.beyond(0.99))},
        {"sim.events", static_cast<double>(w.events)},
        {"nma.windows", w.dimmGrew("windows")},
        {"nma.conditional_accesses", cond},
        {"nma.random_accesses", rand},
        {"nma.conditional_share", cond + rand > 0 ? cond / (cond + rand) : 0.0},
        {"nma.energy_saved_frac",
         saved + spent > 0 ? saved / (saved + spent) : 0.0},
        {"nma.queue_rejects", w.dimmGrew("queueRejects")},
        {"nma.deadline_drops", w.dimmGrew("deadlineDrops")},
        {"nma.subarray_conflict_retries",
         w.dimmGrew("subarrayConflictRetries")},
        {"nma.ring.doorbells", w.dimmGrew("ring.doorbells")},
        {"nma.ring.reaped", w.dimmGrew("ring.reaped")},
        {"xfm.offloaded_swaps", offloaded},
        {"xfm.cpu_swaps",
         w.leafGrew(b + "cpuSwapOuts") + w.leafGrew(b + "cpuSwapIns")},
        {"xfm.fallback_capacity", w.leafGrew(b + "fallbackCapacity")},
        {"xfm.fallback_deadline", w.leafGrew(b + "fallbackDeadline")},
        {"xfm.fallback_alloc", w.leafGrew(b + "fallbackAlloc")},
        {"xfm.rejected_swap_outs", w.leafGrew(b + "rejectedSwapOuts")},
        {"xfm.compress_ratio", compress_ratio},
        {"xfm.fragmentation_bytes", w.after.value(b + "fragmentationBytes")},
        {"service.arbiter.windows",
         w.after.has("svc.arbiter.windows")
             ? w.leafGrew("svc.arbiter.windows") : 0.0},
        {"service.arbiter.dispatched",
         w.after.has("svc.arbiter.dispatched")
             ? w.leafGrew("svc.arbiter.dispatched") : 0.0},
        {"service.arbiter.preemptions",
         w.after.has("svc.arbiter.preemptions")
             ? w.leafGrew("svc.arbiter.preemptions") : 0.0},
        {"service.arbiter.wait_ns", lane_n > 0 ? lane_sum / lane_n : 0.0},
        {"service.degraded_to_cpu", w.tenantGrew("degradedToCpu")},
        {"service.quota_rejects", w.tenantGrew("quotaRejects")},
        {"sfm.demand_faults", w.tenantGrew("demandFaults")},
        {"sfm.local_hit_frac",
         accesses > 0 ? w.tenantGrew("localHits") / accesses : 0.0},
        {"sfm.kstaled.swap_outs_initiated",
         w.grew([](const std::string &n) {
             return endsWith(n, ".kstaled.swapOutsInitiated");
         })},
        {"sfm.senpai.reclaimed", w.grew([](const std::string &n) {
             return endsWith(n, ".senpai.reclaimed");
         })},
    };
}

/** Fill @p ep.host with the per-layer host times of the window. */
void
recordHost(Episode &ep, const Window &w)
{
    const SpanTotals &setup = w.setup;
    const SpanTotals &s = w.spans;
    const double run = s.selfS(Layer::SimRun);
    double covered = 0.0;
    for (Layer l : {Layer::SimRun, Layer::ServiceAccess, Layer::XfmSwapOut,
                    Layer::XfmSwapIn, Layer::Snapshot})
        covered += s.selfS(l);
    const auto perCallNs = [&](Layer l) {
        return s.count(l) ? s.selfS(l) * 1e9 / s.count(l) : 0.0;
    };
    ep.host = {
        {"workload.corpus_s", setup.selfS(Layer::Corpus)},
        {"service.write_page_s", setup.selfS(Layer::ServiceWrite)},
        {"xfm.write_page_s", setup.selfS(Layer::XfmWrite)},
        {"sim.warmup_s", setup.selfS(Layer::SimWarmup)},
        {"sim.run_s", s.totalS(Layer::SimRun)},
        {"sim.self_s", run},
        {"sim.ns_per_event", w.events ? run * 1e9 / w.events : 0.0},
        {"service.access_s", s.selfS(Layer::ServiceAccess)},
        {"service.access_calls",
         static_cast<double>(s.count(Layer::ServiceAccess))},
        {"service.access_ns", perCallNs(Layer::ServiceAccess)},
        {"xfm.swap_out_s", s.selfS(Layer::XfmSwapOut)},
        {"xfm.swap_out_calls",
         static_cast<double>(s.count(Layer::XfmSwapOut))},
        {"xfm.swap_in_s", s.selfS(Layer::XfmSwapIn)},
        {"xfm.swap_in_calls", static_cast<double>(s.count(Layer::XfmSwapIn))},
        {"obs.snapshot_s", s.selfS(Layer::Snapshot)},
        {"bench.layer_coverage_frac", w.hostS > 0 ? covered / w.hostS : 0.0},
    };
}

/**
 * Codec probe: time the workload's own codec on the workload's own
 * shards, and check every shard round-trips.
 * @return shards that did not round-trip.
 */
std::uint64_t
probeCodec(Episode &ep, SpanLog &spans, compress::Algorithm algo,
           std::size_t dimms, const std::vector<Bytes> &pages,
           int repeats)
{
    const auto codec = compress::makeCompressor(algo);
    std::vector<Bytes> shards;
    std::vector<Bytes> all;
    for (const Bytes &p : pages) {
        xfmsys::splitPageInto(p, dimms, xfmsys::defaultInterleave, shards);
        all.insert(all.end(), shards.begin(), shards.end());
    }
    const SpanTotals base = spans.totals();
    Bytes block, back;
    std::uint64_t bad = 0;
    for (int r = 0; r < repeats; ++r) {
        for (const Bytes &shard : all) {
            {
                Span s(spans, Layer::ShardCompress);
                codec->compressInto(shard, block);
            }
            {
                Span s(spans, Layer::ShardDecompress);
                codec->decompressInto(block, back);
            }
            bad += back != shard;
        }
    }
    const SpanTotals d = spans.totals().since(base);
    const auto ns = [&](Layer l) {
        return d.count(l) ? d.selfS(l) * 1e9 / d.count(l) : 0.0;
    };
    ep.host.push_back({"compress.shard_compress_ns",
                       ns(Layer::ShardCompress)});
    ep.host.push_back({"compress.shard_decompress_ns",
                       ns(Layer::ShardDecompress)});
    return bad;
}

/** Fingerprint: window metric delta, simulated values, audit. */
void
fingerprint(Episode &ep, const Window &w, std::uint64_t audit_hash)
{
    const std::string delta = w.after.delta(w.before).renderText();
    std::uint64_t h = fnv1a(fnvBasis, delta.data(), delta.size());
    for (const auto &[name, v] : ep.sim) {
        h = fnv1a(h, name.data(), name.size());
        h = fnv1a(h, &v, sizeof v);
    }
    ep.fingerprint = fnv1a(h, &audit_hash, sizeof audit_hash);
}

/** Byte pattern written over a Far page's frame before the audit
 *  swaps it in, so the compare proves the swap-in restored it. */
Bytes
poisonPage()
{
    return Bytes(pageBytes, 0xA5);
}

// -------------------------------------------------------------- fleet

constexpr std::size_t fleetTenants = 256;
constexpr std::size_t fleetDimms = 8;
constexpr double fleetWarmupMs = 2.0;
constexpr double fleetWindowMs = 2.0;
/** Pages per tenant the codec probe splits (all 8 corpus kinds). */
constexpr std::size_t probeTenants = 8;
constexpr std::size_t probePagesPerTenant = 16;

/** bench/fleet_throughput's service config, scaled to the fleet. */
service::ServiceConfig
fleetServiceConfig()
{
    service::ServiceConfig cfg;
    cfg.registry.maxTenants = fleetTenants;
    cfg.registry.pagesPerShard = 512;
    useBenchDimms(cfg.system, fleetDimms);
    cfg.system.sfmBytes = mib(16);
    cfg.batchSpmCapBytes = mib(4);
    return cfg;
}

workload::FleetConfig
fleetConfig(std::uint64_t seed)
{
    workload::FleetConfig f;
    f.numTenants = fleetTenants;
    f.pagesPerTenant = 128;
    f.accessesPerSecond = 100000.0;
    f.seed = seed;
    return f;
}

std::vector<Bytes>
tenantPages(const workload::FleetTenantSpec &spec)
{
    return compress::paginate(
        compress::generateCorpus(spec.corpus, spec.seed,
                                 spec.cfg.pages * pageBytes),
        pageBytes);
}

/**
 * The benchmark's own per-tenant event source. It admits and seeds
 * the tenants and draws page touches exactly as workload::FleetDriver
 * does (same RNG streams, same scheduling order), so the simulation is
 * identical; it differs only in timing each FarMemoryService call and
 * in being able to stop.
 */
class FleetSource
{
  public:
    FleetSource(EventQueue &eq, service::FarMemoryService &svc,
                const workload::FleetConfig &cfg, SpanLog &spans)
        : eq_(eq), svc_(svc), spans_(spans)
    {
        for (auto &spec : workload::heterogeneousFleet(cfg)) {
            const service::TenantId id = svc_.addTenant(spec.cfg);
            if (id == service::invalidTenant)
                throw std::runtime_error("fleet tenant not admitted: "
                                         + spec.cfg.name);
            std::vector<Bytes> pages;
            {
                Span s(spans_, Layer::Corpus);
                pages = tenantPages(spec);
            }
            for (std::size_t p = 0; p < pages.size(); ++p) {
                Span s(spans_, Layer::ServiceWrite);
                svc_.writePage(id, p, pages[p]);
            }
            const Tick gap = static_cast<Tick>(
                seconds(1.0) / cfg.accessesPerSecond);
            Rng rng(spec.seed * 0x9E3779B9ull + 1);
            streams_.push_back(Stream{id, std::move(spec), gap, rng});
        }
    }

    void
    start()
    {
        for (std::size_t i = 0; i < streams_.size(); ++i)
            eq_.scheduleIn(nextGap(streams_[i]), [this, i] { tick(i); });
    }

    /** Stop issuing touches (pending ticks fire and do nothing). */
    void stop() { stopped_ = true; }

    std::size_t size() const { return streams_.size(); }
    service::TenantId id(std::size_t i) const { return streams_[i].id; }
    const workload::FleetTenantSpec &
    spec(std::size_t i) const
    {
        return streams_[i].spec;
    }

  private:
    struct Stream
    {
        service::TenantId id;
        workload::FleetTenantSpec spec;
        Tick meanGap;
        Rng rng;
    };

    Tick
    nextGap(Stream &s)
    {
        const double u = s.rng.uniformReal();
        const double gap =
            -std::log(1.0 - u) * static_cast<double>(s.meanGap);
        return std::max<Tick>(1, static_cast<Tick>(gap));
    }

    void
    tick(std::size_t i)
    {
        if (stopped_)
            return;
        Stream &s = streams_[i];
        const sfm::VirtPage page =
            s.rng.zipf(s.spec.cfg.pages, s.spec.zipfTheta);
        {
            Span sp(spans_, Layer::ServiceAccess);
            svc_.access(s.id, page);
        }
        eq_.scheduleIn(nextGap(s), [this, i] { tick(i); });
    }

    EventQueue &eq_;
    service::FarMemoryService &svc_;
    SpanLog &spans_;
    std::vector<Stream> streams_;
    bool stopped_ = false;
};

/** Latency-class tenants' fault histograms, pooled. */
Pooled
pooledFaults(const service::FarMemoryService &svc, const FleetSource &src)
{
    Pooled pool(svc.registry().stats(src.id(0)).faultLatencyNs);
    for (std::size_t i = 0; i < src.size(); ++i)
        if (src.spec(i).cfg.cls == service::PriorityClass::LatencySensitive)
            pool.add(svc.registry().stats(src.id(i)).faultLatencyNs);
    return pool;
}

Episode
runFleet(std::uint64_t seed, SpanLog &spans)
{
    Episode ep;
    const double t0 = hostNow();
    EventQueue eq;
    service::FarMemoryService svc("svc", eq, fleetServiceConfig());
    FleetSource src(eq, svc, fleetConfig(seed), spans);
    svc.start();
    src.start();
    {
        Span s(spans, Layer::SimWarmup);
        eq.run(milliseconds(fleetWarmupMs));
    }
    ep.setupS = hostNow() - t0;

    Window w;
    const Pooled faults0 = pooledFaults(svc, src);
    w.open(svc.metrics(), spans, eq);
    {
        Span s(spans, Layer::SimRun);
        eq.run(milliseconds(fleetWarmupMs + fleetWindowMs));
    }
    w.close(svc.metrics(), spans, eq);
    w.simMs = fleetWindowMs;
    ep.windowS = w.hostS;
    Pooled faults = pooledFaults(svc, src);
    faults.subtract(faults0);

    Swaps swaps;
    swaps.completed = w.tenantGrew("swapOuts") + w.tenantGrew("swapIns");
    swaps.nma = w.tenantGrew("nmaOps");
    swaps.failed = w.tenantGrew("quotaRejects") + w.tenantGrew("shedRejects")
        + w.tenantGrew("abuseRejects") + w.tenantGrew("faultedOps");
    swaps.attempted = swaps.completed + swaps.failed;
    // Level at the window's end: raw over stored bytes of Far pages.
    const double stored = w.after.value("svc.backend.storedCompressedBytes");
    recordSim(ep, w, "svc.backend", swaps, faults,
              stored > 0 ? w.after.value("svc.backend.pagesFar")
                      * static_cast<double>(pageBytes) / stored
                         : 0.0);
    recordHost(ep, w);

    // Audit: stop the touches, then touch every Far page from the
    // highest page down, so each fault's CPU swap-in restores it and
    // no new prefetch is queued; compare all pages with the generator.
    // The controllers keep demoting pages (swap-outs copy, so frames
    // stay intact) and queued prefetches may still be in flight, so
    // the frames are not poisoned here, unlike the swap workloads.
    src.stop();
    const Tick audit_step = microseconds(50.0);
    eq.run(eq.now() + audit_step);
    for (std::size_t i = 0; i < src.size(); ++i) {
        auto &tb = svc.tenantBackend(src.id(i));
        for (sfm::VirtPage p = src.spec(i).cfg.pages; p-- > 0;)
            if (tb.pageState(p) == sfm::PageState::Far)
                svc.access(src.id(i), p);
    }
    eq.run(eq.now() + audit_step);
    std::uint64_t audit_hash = fnvBasis;
    std::vector<Bytes> probe_pages;
    for (std::size_t i = 0; i < src.size(); ++i) {
        const auto pages = tenantPages(src.spec(i));
        for (sfm::VirtPage p = 0; p < pages.size(); ++p) {
            const Bytes got = svc.readPage(src.id(i), p);
            ++ep.auditPages;
            ep.auditMismatches += got != pages[p];
            audit_hash = fnv1a(audit_hash, got.data(), got.size());
        }
        if (i < probeTenants)
            probe_pages.insert(probe_pages.end(), pages.begin(),
                               pages.begin() + probePagesPerTenant);
    }
    fingerprint(ep, w, audit_hash);
    if (spans.on())
        ep.auditMismatches +=
            probeCodec(ep, spans, svc.backend().config().algorithm,
                       fleetDimms, probe_pages, 8);
    return ep;
}

// -------------------------------------------------------- swap loops

/** Closed-loop XfmBackend workload shared by swap_cpu and swap_nma. */
struct SwapSetup
{
    std::size_t dimms;
    compress::Algorithm algorithm;
    std::size_t pages;
    std::vector<compress::CorpusKind> kinds;  ///< cycled over pages
    int probeRepeats;
};

std::vector<Bytes>
swapPages(const SwapSetup &cfg, std::uint64_t seed)
{
    std::vector<Bytes> pages;
    for (std::size_t p = 0; p < cfg.pages; ++p)
        pages.push_back(compress::generateCorpus(
            cfg.kinds[p % cfg.kinds.size()], seed * 1000003ull + p,
            pageBytes));
    return pages;
}

/** Swap-in latency in ns: the tenants' 250 ns buckets, out to 1 ms. */
stats::Histogram
swapInHistogram()
{
    return stats::Histogram(0.0, 1e6, 4000);
}

/** Swaps of a bare XfmBackend named "xfm"; @p failed counted by the
 *  caller's callbacks. */
Swaps
backendSwaps(const Window &w, std::uint64_t failed)
{
    Swaps s;
    s.completed = w.leafGrew("xfm.swapOuts") + w.leafGrew("xfm.swapIns");
    s.nma = w.leafGrew("xfm.offloadedSwapOuts")
        + w.leafGrew("xfm.offloadedSwapIns");
    s.failed = static_cast<double>(failed);
    s.attempted = s.completed + s.failed;
    return s;
}

/** Raw and stored bytes of completed swap-outs. */
struct SwapBytes
{
    double raw = 0.0;
    double stored = 0.0;

    void
    add(const sfm::SwapOutcome &o)
    {
        if (!o.success)
            return;
        raw += static_cast<double>(pageBytes);
        stored += o.compressedSize;
    }

    double ratio() const { return stored > 0 ? raw / stored : 0.0; }
};

xfmsys::XfmSystemConfig
swapSystem(const SwapSetup &cfg)
{
    xfmsys::XfmSystemConfig sys;
    useBenchDimms(sys, cfg.dimms);
    sys.localBase = 0;
    sys.localPages = cfg.pages;
    sys.sfmBytes = mib(32);
    sys.algorithm = cfg.algorithm;
    return sys;
}

/** One XfmBackend named "xfm", its registry, and its pages written. */
struct SwapRig
{
    EventQueue eq;
    xfmsys::XfmBackend backend;
    obs::MetricRegistry reg;
    std::vector<Bytes> pages;

    SwapRig(const SwapSetup &cfg, const xfmsys::XfmSystemConfig &sys,
            std::uint64_t seed, SpanLog &spans)
        : backend("xfm", eq, sys)
    {
        backend.registerMetrics(reg);
        {
            Span s(spans, Layer::Corpus);
            pages = swapPages(cfg, seed);
        }
        for (sfm::VirtPage p = 0; p < pages.size(); ++p) {
            Span s(spans, Layer::XfmWrite);
            backend.writePage(p, pages[p]);
        }
    }
};

/** Poison and swap in every Far page, then compare all pages. */
void
auditSwapPages(Episode &ep, EventQueue &eq, xfmsys::XfmBackend &backend,
               const std::vector<Bytes> &pages, Tick drain,
               std::uint64_t &audit_hash)
{
    eq.run(eq.now() + drain);
    const Bytes poison = poisonPage();
    std::uint64_t restore_failures = 0;
    for (sfm::VirtPage p = 0; p < pages.size(); ++p) {
        if (backend.pageState(p) != sfm::PageState::Far)
            continue;
        backend.writePage(p, poison);
        backend.swapIn(p, false, [&](const sfm::SwapOutcome &o) {
            restore_failures += !o.success;
        });
    }
    eq.run(eq.now() + drain);
    audit_hash = fnvBasis;
    for (sfm::VirtPage p = 0; p < pages.size(); ++p) {
        const Bytes got = backend.readPage(p);
        ++ep.auditPages;
        ep.auditMismatches += got != pages[p];
        ep.auditMismatches += backend.pageState(p) != sfm::PageState::Local;
        audit_hash = fnv1a(audit_hash, got.data(), got.size());
    }
    ep.auditMismatches += restore_failures;
}

const SwapSetup swapCpuSetup{
    8, compress::Algorithm::ZstdLike, 256,
    {compress::CorpusKind::LogLines, compress::CorpusKind::Json,
     compress::CorpusKind::ZeroHeavy, compress::CorpusKind::SourceCode,
     compress::CorpusKind::EnglishText, compress::CorpusKind::RandomBytes,
     compress::CorpusKind::KeyValue, compress::CorpusKind::HeapObjects},
    4};
constexpr int swapCpuWarmupCycles = 1;
constexpr int swapCpuWindowCycles = 48;

Episode
runSwapCpu(std::uint64_t seed, SpanLog &spans)
{
    const SwapSetup &cfg = swapCpuSetup;
    Episode ep;
    const double t0 = hostNow();
    SwapRig rig(cfg, swapSystem(cfg), seed, spans);
    EventQueue &eq = rig.eq;
    xfmsys::XfmBackend &backend = rig.backend;
    const std::vector<Bytes> &pages = rig.pages;
    // Refresh is never started: with allow_offload = false nothing
    // waits on a window, and the queue drains after every phase.
    std::uint64_t failed = 0;
    SwapBytes out_bytes;
    stats::Histogram swapin_ns = swapInHistogram();
    const auto cycle = [&](Layer run_layer) {
        for (sfm::VirtPage p = 0; p < pages.size(); ++p) {
            Span s(spans, Layer::XfmSwapOut);
            backend.swapOut(p, false, [&](const sfm::SwapOutcome &o) {
                failed += !o.success;
                out_bytes.add(o);
            });
        }
        {
            Span s(spans, run_layer);
            eq.run();
        }
        for (sfm::VirtPage p = 0; p < pages.size(); ++p) {
            if (backend.pageState(p) != sfm::PageState::Far)
                continue;
            Span s(spans, Layer::XfmSwapIn);
            const Tick submit = eq.now();
            backend.swapIn(p, false, [&, submit](const sfm::SwapOutcome &o) {
                failed += !o.success;
                if (o.success)
                    swapin_ns.sample(ticksToNs(o.completed - submit));
            });
        }
        {
            Span s(spans, run_layer);
            eq.run();
        }
    };
    for (int c = 0; c < swapCpuWarmupCycles; ++c)
        cycle(Layer::SimWarmup);
    ep.setupS = hostNow() - t0;

    Window w;
    swapin_ns.reset();
    out_bytes = {};
    const std::uint64_t failed0 = failed;
    const Tick tick0 = eq.now();
    w.open(rig.reg, spans, eq);
    for (int c = 0; c < swapCpuWindowCycles; ++c)
        cycle(Layer::SimRun);
    w.close(rig.reg, spans, eq);
    w.simMs = ticksToMs(eq.now() - tick0);
    ep.windowS = w.hostS;

    Pooled faults(swapin_ns);
    faults.add(swapin_ns);
    recordSim(ep, w, "xfm", backendSwaps(w, failed - failed0), faults,
              out_bytes.ratio());
    recordHost(ep, w);

    std::uint64_t audit_hash = 0;
    auditSwapPages(ep, eq, backend, pages, 0, audit_hash);
    fingerprint(ep, w, audit_hash);
    if (spans.on())
        ep.auditMismatches += probeCodec(ep, spans, cfg.algorithm,
                                         cfg.dimms, pages, cfg.probeRepeats);
    return ep;
}

/** bench/qd_sweep's depth-8 point. */
const SwapSetup swapNmaSetup{
    4, compress::Algorithm::LzFast, 48, {compress::CorpusKind::LogLines}, 40};
constexpr std::uint32_t swapNmaStreams = 8;
constexpr double swapNmaWarmupMs = 20.0;
constexpr double swapNmaWindowMs = 1200.0;

Episode
runSwapNma(std::uint64_t seed, SpanLog &spans)
{
    const SwapSetup &cfg = swapNmaSetup;
    Episode ep;
    const double t0 = hostNow();
    xfmsys::XfmSystemConfig sys = swapSystem(cfg);
    sys.device.sqDepth = swapNmaStreams;
    sys.device.cqCoalesce = 1;
    SwapRig rig(cfg, sys, seed, spans);
    EventQueue &eq = rig.eq;
    xfmsys::XfmBackend &backend = rig.backend;
    const std::vector<Bytes> &pages = rig.pages;
    backend.start();

    // Each stream cycles its own page out -> in until the horizon; a
    // failed swap-out retries the stream 1 us later.
    const Tick horizon = milliseconds(swapNmaWarmupMs + swapNmaWindowMs);
    const Tick window_start = milliseconds(swapNmaWarmupMs);
    std::uint64_t failed = 0;
    SwapBytes out_bytes;
    stats::Histogram swapin_ns = swapInHistogram();
    std::function<void(sfm::VirtPage)> cycle = [&](sfm::VirtPage p) {
        if (eq.now() >= horizon)
            return;
        Span so(spans, Layer::XfmSwapOut);
        backend.swapOut(p, true, [&, p](const sfm::SwapOutcome &o) {
            if (!o.success) {
                failed += eq.now() >= window_start && eq.now() < horizon;
                eq.scheduleIn(microseconds(1.0), [&, p] { cycle(p); });
                return;
            }
            if (eq.now() >= window_start && eq.now() < horizon)
                out_bytes.add(o);
            Span si(spans, Layer::XfmSwapIn);
            const Tick submit = eq.now();
            backend.swapIn(p, true, [&, p, submit](const sfm::SwapOutcome &in) {
                const bool counted = submit >= window_start && submit < horizon;
                failed += counted && !in.success;
                if (counted && in.success)
                    swapin_ns.sample(ticksToNs(in.completed - submit));
                eq.scheduleIn(1, [&, p] { cycle(p); });
            });
        });
    };
    for (std::uint32_t s = 0; s < swapNmaStreams; ++s)
        cycle(s);
    {
        Span s(spans, Layer::SimWarmup);
        eq.run(window_start);
    }
    ep.setupS = hostNow() - t0;

    Window w;
    w.open(rig.reg, spans, eq);
    {
        Span s(spans, Layer::SimRun);
        eq.run(horizon);
    }
    w.close(rig.reg, spans, eq);
    w.simMs = swapNmaWindowMs;
    ep.windowS = w.hostS;

    Pooled faults(swapin_ns);
    faults.add(swapin_ns);
    recordSim(ep, w, "xfm", backendSwaps(w, failed), faults,
              out_bytes.ratio());
    recordHost(ep, w);

    std::uint64_t audit_hash = 0;
    auditSwapPages(ep, eq, backend, pages, milliseconds(1.0), audit_hash);
    fingerprint(ep, w, audit_hash);
    if (spans.on())
        ep.auditMismatches += probeCodec(ep, spans, cfg.algorithm,
                                         cfg.dimms, pages, cfg.probeRepeats);
    return ep;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    if (name == "fleet")
        out = Workload::Fleet;
    else if (name == "swap_cpu")
        out = Workload::SwapCpu;
    else if (name == "swap_nma")
        out = Workload::SwapNma;
    else
        return false;
    return true;
}

Episode
runEpisode(Workload w, std::uint64_t seed, SpanLog &spans)
{
    switch (w) {
      case Workload::Fleet: return runFleet(seed, spans);
      case Workload::SwapCpu: return runSwapCpu(seed, spans);
      case Workload::SwapNma: return runSwapNma(seed, spans);
    }
    throw std::logic_error("unknown workload");
}

bool
fleetSourceMatchesDriver(std::uint64_t seed)
{
    const Tick horizon = milliseconds(fleetWarmupMs + 0.25);
    std::string via_driver;
    {
        EventQueue eq;
        service::FarMemoryService svc("svc", eq, fleetServiceConfig());
        workload::FleetDriver fleet("fleet", eq, svc, fleetConfig(seed));
        svc.start();
        fleet.start();
        eq.run(horizon);
        via_driver = svc.metrics().snapshot().renderText();
    }
    EventQueue eq;
    service::FarMemoryService svc("svc", eq, fleetServiceConfig());
    SpanLog off(false);
    FleetSource src(eq, svc, fleetConfig(seed), off);
    svc.start();
    src.start();
    eq.run(horizon);
    return svc.metrics().snapshot().renderText() == via_driver;
}

} // namespace perfbench
