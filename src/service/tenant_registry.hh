/**
 * @file
 * TenantRegistry: admission control and runtime resource accounting
 * for the multi-tenant far-memory service.
 *
 * The registry owns the static page-table sharding (tenant i gets
 * the global page range [i * pagesPerShard, (i+1) * pagesPerShard))
 * and the per-tenant usage counters the quota checks consult: far
 * pages held, SPM staging bytes in flight, and stored compressed
 * bytes. Admission control rejects tenants whose shard or SPM quota
 * would oversubscribe the shared backend.
 */

#ifndef XFM_SERVICE_TENANT_REGISTRY_HH
#define XFM_SERVICE_TENANT_REGISTRY_HH

#include <vector>

#include "service/tenant.hh"

namespace xfm
{
namespace service
{

/** Static provisioning the registry admits tenants against. */
struct RegistryConfig
{
    /** Page-table shard slots (bounds tenant count). */
    std::size_t maxTenants = 16;
    /** Global pages reserved per shard. */
    std::uint64_t pagesPerShard = 512;
};

/**
 * Registry of admitted tenants.
 */
class TenantRegistry
{
  public:
    explicit TenantRegistry(const RegistryConfig &cfg);

    /**
     * Admit a tenant.
     *
     * @return its id, or invalidTenant when admission control
     *         rejects it (no shard slot left, or shard too small
     *         for its pages).
     */
    TenantId add(const TenantConfig &cfg);

    std::size_t size() const { return tenants_.size(); }
    /** Tenants turned away by admission control. */
    std::uint64_t rejectedAdmissions() const { return rejected_; }

    const TenantConfig &config(TenantId id) const;
    /** First global page of the tenant's shard. */
    std::uint64_t basePage(TenantId id) const;

    // Runtime accounting ---------------------------------------------
    /** Far pages currently held (plus in-flight swap-outs). */
    std::uint64_t farPages(TenantId id) const;
    /** True if one more swap-out stays within the far-page quota. */
    bool underFarQuota(TenantId id) const;
    /** A swap-out was initiated (+1) or a swap-in completed (-1). */
    void noteFarPages(TenantId id, std::int64_t delta);

    /** Compressed bytes the tenant stores in the SFM region. */
    std::uint64_t storedBytes(TenantId id) const;
    void noteStoredBytes(TenantId id, std::int64_t delta);

    /**
     * Charge @p bytes of in-flight SPM staging against the tenant's
     * quota.
     *
     * @retval false quota exceeded; the caller must degrade to CPU.
     */
    bool tryChargeSpm(TenantId id, std::uint64_t bytes);
    void releaseSpm(TenantId id, std::uint64_t bytes);
    std::uint64_t spmCharged(TenantId id) const;

    TenantStats &stats(TenantId id);
    const TenantStats &stats(TenantId id) const;

  private:
    struct Entry
    {
        TenantConfig cfg;
        std::uint64_t farPages = 0;
        std::uint64_t storedBytes = 0;
        std::uint64_t spmCharged = 0;
        TenantStats stats;
    };

    const Entry &entry(TenantId id) const;
    Entry &entry(TenantId id);

    RegistryConfig cfg_;
    std::vector<Entry> tenants_;
    std::uint64_t rejected_ = 0;
};

} // namespace service
} // namespace xfm

#endif // XFM_SERVICE_TENANT_REGISTRY_HH
