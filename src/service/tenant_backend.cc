#include "tenant_backend.hh"

#include "common/logging.hh"

namespace xfm
{
namespace service
{

TenantBackend::TenantBackend(TenantId id, TenantRegistry &registry,
                             xfmsys::XfmBackend &shared,
                             QosArbiter *arbiter,
                             std::uint32_t partition)
    : id_(id), registry_(registry), shared_(shared),
      route_(&shared), arbiter_(arbiter), partition_(partition)
{
    const std::uint64_t end =
        registry_.basePage(id_) + registry_.config(id_).pages;
    XFM_ASSERT(end <= shared_.config().localPages,
               "tenant shard exceeds the shared backend's page table");
}

sfm::VirtPage
TenantBackend::global(sfm::VirtPage page) const
{
    XFM_ASSERT(page < registry_.config(id_).pages,
               "page ", page, " outside tenant ", id_, "'s shard");
    return registry_.basePage(id_) + page;
}

sfm::VirtPage
TenantBackend::local(sfm::VirtPage page) const
{
    return page - registry_.basePage(id_);
}

void
TenantBackend::submit(bool is_swap_out, sfm::VirtPage global_page,
                      bool allow_offload, sfm::SwapCallback done)
{
    auto run = [this, is_swap_out, global_page, allow_offload,
                done = std::move(done)]() mutable {
        // XFM-tier legs land on the shared device whichever route is
        // installed, so the partition tag is set either way.
        shared_.setOffloadPartition(partition_);
        if (is_swap_out)
            route_->swapOut(global_page, allow_offload,
                            std::move(done));
        else
            route_->swapIn(global_page, allow_offload,
                           std::move(done));
    };
    // Only offload-eligible work contends for NMA slots; CPU-path
    // operations (demand faults, degraded ops) dispatch immediately.
    if (allow_offload && arbiter_)
        arbiter_->enqueue(id_, std::move(run));
    else
        run();
}

void
TenantBackend::swapOut(sfm::VirtPage page, bool allow_offload,
                       sfm::SwapCallback done)
{
    const sfm::VirtPage g = global(page);
    TenantStats &ts = registry_.stats(id_);

    // An abuse-throttled tenant loses demotion service entirely: its
    // refresh pressure already taxed everyone else's slots, so no new
    // far-memory work is accepted until the cooldown clears.
    if (arbiter_ && arbiter_->abuseThrottled(id_)) {
        ++ts.abuseRejects;
        sfm::SwapOutcome out;
        out.page = page;
        out.rejected = sfm::RejectReason::AbuseThrottle;
        out.completed = shared_.curTick();
        if (done)
            done(out);
        return;
    }

    if (!registry_.underFarQuota(id_)) {
        ++ts.quotaRejects;
        sfm::SwapOutcome out;
        out.page = page;
        out.rejected = sfm::RejectReason::QuotaFarPages;
        out.completed = shared_.curTick();
        if (done)
            done(out);
        return;
    }

    // SPM staging quota: an offloaded compression stages up to a
    // whole page of output in the scratchpad. Over quota -> the CPU
    // compresses instead (degrade, don't crowd the shared SPM).
    bool charged = false;
    if (allow_offload) {
        charged = registry_.tryChargeSpm(id_, pageBytes);
        if (!charged) {
            allow_offload = false;
            ++ts.degradedToCpu;
        }
    }

    registry_.noteFarPages(id_, 1);  // counts in-flight swap-outs

    auto cb = [this, charged, allow_offload, done = std::move(done)](
                  const sfm::SwapOutcome &o) {
        TenantStats &ts = registry_.stats(id_);
        if (charged)
            registry_.releaseSpm(id_, pageBytes);
        ts.offloadRetries += o.retries;
        sfm::SwapOutcome out = o;
        out.page = local(o.page);
        if (o.success) {
            ++ts.swapOuts;
            if (o.servedTier == sfm::Tier::Dfm) {
                // Spill-tier demotion: no compression, no NMA; the
                // outcome carries compressedSize 0 so stored-bytes
                // accounting stays symmetric with the swap-in side.
                ++ts.dfmOps;
                ++ts.cpuOps;
            } else if (o.usedCpu) {
                ++ts.cpuOps;
                if (allow_offload)
                    ++ts.nmaFallbacks;
            } else {
                ++ts.nmaOps;
            }
            registry_.noteStoredBytes(id_, o.compressedSize);
        } else {
            registry_.noteFarPages(id_, -1);
            ++ts.faultedOps;
        }
        if (done)
            done(out);
    };
    submit(true, g, allow_offload, std::move(cb));
}

void
TenantBackend::swapIn(sfm::VirtPage page, bool allow_offload,
                      sfm::SwapCallback done)
{
    const sfm::VirtPage g = global(page);
    TenantStats &ts = registry_.stats(id_);

    // Throttled tenants keep making progress on faults — blocking a
    // swap-in would wedge the application — but lose the offload
    // privilege so they stop contending for NMA slots.
    if (allow_offload && arbiter_
        && arbiter_->abuseThrottled(id_)) {
        allow_offload = false;
        ++ts.abuseDownTiers;
    }

    // Offloaded decompression stages the raw page in the SPM.
    bool charged = false;
    if (allow_offload) {
        charged = registry_.tryChargeSpm(id_, pageBytes);
        if (!charged) {
            allow_offload = false;
            ++ts.degradedToCpu;
        }
    }

    const Tick start = shared_.curTick();
    const bool demand = !allow_offload;
    auto cb = [this, charged, start, demand, allow_offload,
               done = std::move(done)](const sfm::SwapOutcome &o) {
        TenantStats &ts = registry_.stats(id_);
        if (charged)
            registry_.releaseSpm(id_, pageBytes);
        ts.offloadRetries += o.retries;
        sfm::SwapOutcome out = o;
        out.page = local(o.page);
        if (o.success) {
            ++ts.swapIns;
            if (o.servedTier == sfm::Tier::Dfm) {
                ++ts.dfmOps;
                ++ts.cpuOps;
            } else if (o.usedCpu) {
                ++ts.cpuOps;
                if (allow_offload)
                    ++ts.nmaFallbacks;
            } else {
                ++ts.nmaOps;
            }
            registry_.noteFarPages(id_, -1);
            registry_.noteStoredBytes(
                id_, -static_cast<std::int64_t>(o.compressedSize));
            if (promotions_)
                promotions_->recordPromotion(shared_.curTick(),
                                             pageBytes);
            if (demand)
                ts.faultLatencyNs.sample(
                    ticksToNs(o.completed - start));
        } else {
            ++ts.faultedOps;
        }
        if (done)
            done(out);
    };
    submit(false, g, allow_offload, std::move(cb));
}

sfm::PageState
TenantBackend::pageState(sfm::VirtPage page) const
{
    // Must go through the route: a DFM-tier page is Local as far as
    // the shared compressed backend knows (its frame was never
    // scrambled), but the TierManager reports it Far.
    return route_->pageState(global(page));
}

std::uint64_t
TenantBackend::farPageCount() const
{
    return registry_.farPages(id_);
}

std::uint64_t
TenantBackend::storedCompressedBytes() const
{
    return registry_.storedBytes(id_);
}

void
TenantBackend::writePage(sfm::VirtPage page, ByteSpan data)
{
    shared_.writePage(global(page), data);
}

Bytes
TenantBackend::readPage(sfm::VirtPage page) const
{
    return shared_.readPage(global(page));
}

} // namespace service
} // namespace xfm
