#include "workload/app_model.hh"

#include <cmath>

#include "common/logging.hh"

namespace xfm
{
namespace workload
{

namespace
{

/** KV GET fraction; SETs rewrite the page content (dirty data). */
constexpr double kvGetFraction = 0.9;
/** KV requests issued back-to-back per arrival (pipelining). */
constexpr std::uint32_t kvRequestsPerBurst = 4;

/** Seed one tenant's shard with corpus content. */
void
seedShard(service::FarMemoryService &svc, service::TenantId id,
          compress::CorpusKind kind, std::uint64_t seed,
          std::uint64_t pages)
{
    const Bytes corpus =
        compress::generateCorpus(kind, seed, pages * pageBytes);
    const auto chunks = compress::paginate(corpus, pageBytes);
    for (std::size_t p = 0; p < chunks.size(); ++p)
        svc.writePage(id, p, chunks[p]);
}

/** Exponential gap around @p mean (ticks), at least one tick. */
Tick
exponentialGap(Rng &rng, double mean)
{
    const double u = rng.uniformReal();
    return std::max<Tick>(
        1, static_cast<Tick>(-std::log(1.0 - u) * mean));
}

} // namespace

KvStoreModel::KvStoreModel(std::string name, EventQueue &eq,
                           service::FarMemoryService &svc,
                           const KvStoreConfig &cfg,
                           service::TenantConfig tenant_cfg)
    : SimObject(std::move(name), eq), svc_(svc), cfg_(cfg),
      rng_(cfg.seed * 0x9E3779B9ull + 7)
{
    XFM_ASSERT(cfg_.opsPerSecond > 0.0,
               "kv model needs a positive request rate");
    tenant_cfg.pages = cfg_.pages;
    tenant_ = svc_.addTenant(tenant_cfg);
    if (tenant_ == service::invalidTenant)
        fatal(this->name(), ": tenant '", tenant_cfg.name,
              "' was not admitted");
    // KV values compress like serialized records.
    seedShard(svc_, tenant_, compress::CorpusKind::KeyValue,
              cfg_.seed, cfg_.pages);
}

void
KvStoreModel::start()
{
    const double mean_gap = seconds(1.0) * kvRequestsPerBurst
        / cfg_.opsPerSecond;
    eventq().scheduleIn(exponentialGap(rng_, mean_gap),
                        [this] { burst(); });
}

void
KvStoreModel::burst()
{
    ++stats_.bursts;
    for (std::uint32_t i = 0; i < kvRequestsPerBurst; ++i) {
        const sfm::VirtPage page =
            rng_.zipf(cfg_.pages, cfg_.zipfTheta);
        ++stats_.requests;
        const bool hit = svc_.access(tenant_, page);
        if (hit)
            ++stats_.localHits;
        else
            ++stats_.faults;
        // SETs dirty the page: rewrite its content in place (same
        // kind, request-dependent seed) like a value update would.
        // Only resident pages are rewritten — a miss must complete
        // its swap-in first, or the promotion would clobber the new
        // value with the stale compressed image.
        if (hit && rng_.uniformReal() >= kvGetFraction) {
            ++stats_.writes;
            const Bytes value = compress::generateCorpus(
                compress::CorpusKind::KeyValue,
                cfg_.seed + stats_.requests, pageBytes);
            svc_.writePage(tenant_, page, value);
        }
    }
    const double mean_gap = seconds(1.0) * kvRequestsPerBurst
        / cfg_.opsPerSecond;
    eventq().scheduleIn(exponentialGap(rng_, mean_gap),
                        [this] { burst(); });
}

InferenceBatchModel::InferenceBatchModel(
    std::string name, EventQueue &eq,
    service::FarMemoryService &svc, const InferenceBatchConfig &cfg,
    service::TenantConfig tenant_cfg)
    : SimObject(std::move(name), eq), svc_(svc), cfg_(cfg),
      rng_(cfg.seed * 0x9E3779B9ull + 11)
{
    XFM_ASSERT(cfg_.batchesPerSecond > 0.0,
               "inference model needs a positive batch rate");
    XFM_ASSERT(cfg_.activationWindow <= cfg_.activationPages,
               "activation window larger than the region");
    tenant_cfg.pages = cfg_.weightPages + cfg_.activationPages;
    tenant_ = svc_.addTenant(tenant_cfg);
    if (tenant_ == service::invalidTenant)
        fatal(this->name(), ": tenant '", tenant_cfg.name,
              "' was not admitted");
    // Weights look like packed binary (poorly compressible);
    // activations are sparse.
    const Bytes weights = compress::generateCorpus(
        compress::CorpusKind::Base64Blob, cfg_.seed,
        cfg_.weightPages * pageBytes);
    const auto wpages = compress::paginate(weights, pageBytes);
    for (std::size_t p = 0; p < wpages.size(); ++p)
        svc_.writePage(tenant_, p, wpages[p]);
    const Bytes acts = compress::generateCorpus(
        compress::CorpusKind::ZeroHeavy, cfg_.seed + 1,
        cfg_.activationPages * pageBytes);
    const auto apages = compress::paginate(acts, pageBytes);
    for (std::size_t p = 0; p < apages.size(); ++p)
        svc_.writePage(tenant_, cfg_.weightPages + p, apages[p]);
}

void
InferenceBatchModel::start()
{
    const Tick period = static_cast<Tick>(
        seconds(1.0) / cfg_.batchesPerSecond);
    eventq().scheduleIn(std::max<Tick>(1, period),
                        [this] { batch(); });
}

void
InferenceBatchModel::batch()
{
    ++stats_.bursts;

    auto touch = [this](sfm::VirtPage page) {
        ++stats_.requests;
        if (svc_.access(tenant_, page))
            ++stats_.localHits;
        else
            ++stats_.faults;
    };

    // Weight pass: a sequential cursor over the weight region. The
    // full cycle takes weightPages / batchTouches batches, so every
    // weight page is periodically reused with a long gap — exactly
    // the shape the compressed tier serves best.
    for (std::uint32_t i = 0; i < cfg_.batchTouches; ++i) {
        touch(weight_cursor_);
        weight_cursor_ = (weight_cursor_ + 1) % cfg_.weightPages;
    }

    // Activation pass: the live window, then drift. Pages behind
    // the window go fully cold and are the spill scan's fodder.
    for (std::uint32_t i = 0; i < cfg_.activationWindow; ++i) {
        const std::uint64_t off =
            (window_start_ + i) % cfg_.activationPages;
        touch(cfg_.weightPages + off);
    }
    window_start_ =
        (window_start_ + cfg_.driftPerBatch) % cfg_.activationPages;

    const Tick period = static_cast<Tick>(
        seconds(1.0) / cfg_.batchesPerSecond);
    eventq().scheduleIn(std::max<Tick>(1, period),
                        [this] { batch(); });
}

} // namespace workload
} // namespace xfm
