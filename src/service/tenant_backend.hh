/**
 * @file
 * TenantBackend: per-tenant view of the shared XFM backend.
 *
 * Each tenant addresses pages [0, pages) of its own shard; the
 * adapter translates them to the global range the shared
 * xfmsys::XfmBackend manages and enforces the tenant's quotas on the
 * way through:
 *
 *  - far-page quota exceeded  -> the swap-out is rejected outright
 *    (the tenant keeps the page local and is counted in
 *    quotaRejects);
 *  - SPM staging quota exceeded -> the operation degrades to the CPU
 *    path (allow_offload = false) instead of queueing on the shared
 *    accelerator, so one tenant's burst cannot crowd others out of
 *    the scratchpad.
 *
 * Offload-eligible operations are paced through the QosArbiter; the
 * CPU-only ones (demand faults, degraded operations) bypass it, as
 * they never contend for NMA slots.
 */

#ifndef XFM_SERVICE_TENANT_BACKEND_HH
#define XFM_SERVICE_TENANT_BACKEND_HH

#include "service/qos_arbiter.hh"
#include "service/tenant_registry.hh"
#include "workload/promotion_tracker.hh"
#include "xfm/xfm_backend.hh"

namespace xfm
{
namespace service
{

/**
 * SfmBackend adapter gating one tenant's traffic into the shared
 * backend. The tenant's controller (kstaled or senpai) talks to this
 * object exactly as it would to a private backend.
 */
class TenantBackend : public sfm::SfmBackend
{
  public:
    /**
     * @param arbiter pacing for offload-eligible submissions; may be
     *        null (direct dispatch) for unit tests.
     * @param partition SPM partition tag for this tenant's offloads
     *        (the service maps priority class to partition).
     */
    TenantBackend(TenantId id, TenantRegistry &registry,
                  xfmsys::XfmBackend &shared, QosArbiter *arbiter,
                  std::uint32_t partition);

    /**
     * Interpose a routing backend (the service's TierManager)
     * between this adapter and the shared device. Swaps, residence
     * queries, and access notes then flow through @p route (which
     * itself forwards XFM-tier legs to the shared backend); null
     * restores direct dispatch.
     */
    void
    setRoute(sfm::SfmBackend *route)
    {
        route_ = route ? route : &shared_;
    }

    /** Feed successful promotions into @p tracker (may be null). */
    void
    setPromotionTracker(workload::PromotionTracker *tracker)
    {
        promotions_ = tracker;
    }

    using SfmBackend::swapOut;  // keep the 2-arg convenience overload

    void swapOut(sfm::VirtPage page, sfm::SwapCallback done) override;
    void swapOut(sfm::VirtPage page, bool allow_offload,
                 sfm::SwapCallback done) override;
    void swapIn(sfm::VirtPage page, bool allow_offload,
                sfm::SwapCallback done) override;
    sfm::PageState pageState(sfm::VirtPage page) const override;
    void compact() override;
    std::uint64_t farPageCount() const override;
    std::uint64_t storedCompressedBytes() const override;
    const sfm::BackendStats &stats() const override { return stats_; }
    void
    noteAccess(sfm::VirtPage page, Tick now) override
    {
        route_->noteAccess(global(page), now);
    }

    TenantId id() const { return id_; }

    /** Data-plane helpers (shard-local page numbers). */
    void writePage(sfm::VirtPage page, ByteSpan data);
    Bytes readPage(sfm::VirtPage page) const;

  private:
    sfm::VirtPage global(sfm::VirtPage page) const;
    sfm::VirtPage local(sfm::VirtPage page) const;
    void submit(bool is_swap_out, sfm::VirtPage global_page,
                bool allow_offload, sfm::SwapCallback done);

    TenantId id_;
    TenantRegistry &registry_;
    xfmsys::XfmBackend &shared_;
    /** Dispatch target: the shared backend directly, or the
     *  service's TierManager when tiering is on. */
    sfm::SfmBackend *route_;
    QosArbiter *arbiter_;
    std::uint32_t partition_;
    workload::PromotionTracker *promotions_ = nullptr;

    sfm::BackendStats stats_;  ///< this tenant's slice of the traffic
};

} // namespace service
} // namespace xfm

#endif // XFM_SERVICE_TENANT_BACKEND_HH
