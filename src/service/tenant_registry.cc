#include "tenant_registry.hh"

#include "common/logging.hh"

namespace xfm
{
namespace service
{

const char *
priorityClassName(PriorityClass cls)
{
    return cls == PriorityClass::LatencySensitive ? "latency"
                                                  : "batch";
}

TenantRegistry::TenantRegistry(const RegistryConfig &cfg) : cfg_(cfg)
{
    XFM_ASSERT(cfg_.maxTenants > 0, "need at least one tenant slot");
    XFM_ASSERT(cfg_.pagesPerShard > 0, "empty page-table shards");
    // Admission control bounds size() by maxTenants; reserving that
    // keeps TenantStats addresses stable, so the service may hand
    // pointers into entries to the metric registry.
    tenants_.reserve(cfg_.maxTenants);
}

TenantId
TenantRegistry::add(const TenantConfig &cfg)
{
    if (tenants_.size() >= cfg_.maxTenants) {
        warn("tenant '", cfg.name, "' rejected: no shard slot left");
        ++rejected_;
        return invalidTenant;
    }
    if (cfg.pages == 0 || cfg.pages > cfg_.pagesPerShard) {
        warn("tenant '", cfg.name, "' rejected: ", cfg.pages,
             " pages do not fit a ", cfg_.pagesPerShard,
             "-page shard");
        ++rejected_;
        return invalidTenant;
    }
    Entry e;
    e.cfg = cfg;
    tenants_.push_back(std::move(e));
    return static_cast<TenantId>(tenants_.size() - 1);
}

const TenantRegistry::Entry &
TenantRegistry::entry(TenantId id) const
{
    XFM_ASSERT(id < tenants_.size(), "unknown tenant id ", id);
    return tenants_[id];
}

TenantRegistry::Entry &
TenantRegistry::entry(TenantId id)
{
    XFM_ASSERT(id < tenants_.size(), "unknown tenant id ", id);
    return tenants_[id];
}

const TenantConfig &
TenantRegistry::config(TenantId id) const
{
    return entry(id).cfg;
}

std::uint64_t
TenantRegistry::basePage(TenantId id) const
{
    XFM_ASSERT(id < tenants_.size(), "unknown tenant id ", id);
    return static_cast<std::uint64_t>(id) * cfg_.pagesPerShard;
}

std::uint64_t
TenantRegistry::farPages(TenantId id) const
{
    return entry(id).farPages;
}

bool
TenantRegistry::underFarQuota(TenantId id) const
{
    const Entry &e = entry(id);
    return e.farPages < e.cfg.quota.maxFarPages;
}

void
TenantRegistry::noteFarPages(TenantId id, std::int64_t delta)
{
    Entry &e = entry(id);
    XFM_ASSERT(delta >= 0
                   || e.farPages >= static_cast<std::uint64_t>(-delta),
               "far-page accounting underflow");
    e.farPages = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(e.farPages) + delta);
}

std::uint64_t
TenantRegistry::storedBytes(TenantId id) const
{
    return entry(id).storedBytes;
}

void
TenantRegistry::noteStoredBytes(TenantId id, std::int64_t delta)
{
    Entry &e = entry(id);
    XFM_ASSERT(delta >= 0
                   || e.storedBytes
                          >= static_cast<std::uint64_t>(-delta),
               "stored-bytes accounting underflow");
    e.storedBytes = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(e.storedBytes) + delta);
}

bool
TenantRegistry::tryChargeSpm(TenantId id, std::uint64_t bytes)
{
    Entry &e = entry(id);
    if (e.spmCharged + bytes > e.cfg.quota.spmBytes)
        return false;
    e.spmCharged += bytes;
    return true;
}

void
TenantRegistry::releaseSpm(TenantId id, std::uint64_t bytes)
{
    Entry &e = entry(id);
    XFM_ASSERT(e.spmCharged >= bytes, "SPM accounting underflow");
    e.spmCharged -= bytes;
}

std::uint64_t
TenantRegistry::spmCharged(TenantId id) const
{
    return entry(id).spmCharged;
}

TenantStats &
TenantRegistry::stats(TenantId id)
{
    return entry(id).stats;
}

const TenantStats &
TenantRegistry::stats(TenantId id) const
{
    return entry(id).stats;
}

} // namespace service
} // namespace xfm
