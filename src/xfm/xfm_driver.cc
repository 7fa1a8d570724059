#include "xfm_driver.hh"

#include "common/logging.hh"

namespace xfm
{
namespace xfmsys
{

XfmDriver::XfmDriver(nma::XfmDevice &dev)
    : dev_(dev), ring_(dev.ring())
{
    // Completions arrive through the CQ: the device's coalesced
    // interrupt triggers a reap round.
    dev_.setCqReadyCallback([this] { reapCompletions(); });
}

void
XfmDriver::handleComplete(const nma::OffloadCompletion &c)
{
    // Adjust the estimate to the real staged output size.
    auto it = tracked_.find(c.id);
    if (it != tracked_.end()) {
        bound_ += c.outputSize;
        bound_ -= it->second;
        it->second = c.outputSize;
    }
    if (on_complete_)
        on_complete_(c);
}

void
XfmDriver::handleWriteback(nma::OffloadId id, Tick t)
{
    auto it = tracked_.find(id);
    if (it != tracked_.end()) {
        bound_ -= it->second;
        tracked_.erase(it);
    }
    if (on_writeback_)
        on_writeback_(id, t);
}

void
XfmDriver::handleDrop(nma::OffloadId id, nma::DropReason reason)
{
    auto it = tracked_.find(id);
    if (it != tracked_.end()) {
        bound_ -= it->second;
        tracked_.erase(it);
    }
    if (on_drop_)
        on_drop_(id, reason);
}

void
XfmDriver::xfmParamset(std::uint64_t sfm_base, std::uint64_t sfm_bytes)
{
    dev_.regs().write(nma::Reg::SfmRegionBase, sfm_base);
    dev_.regs().write(nma::Reg::SfmRegionSize, sfm_bytes);
}

void
XfmDriver::xfmRegisterRegion(std::uint64_t base, std::uint64_t bytes)
{
    dev_.registerRegion(base, bytes);
}

bool
XfmDriver::canAccept(std::uint32_t worst_case)
{
    const std::uint64_t capacity = dev_.spm().capacityBytes();
    if (!always_sync_ && bound_ + worst_case <= capacity)
        return true;
    // 100% occupancy inferred: synchronise with the hardware via an
    // MMIO read of SP_Capacity_Register (paper Sec. 6).
    ++stats_.capacityRegisterReads;
    const std::uint64_t free = dev_.regs().read(nma::Reg::SpCapacity);
    if (free < worst_case)
        return false;  // truly no room: CPU_Fallback
    bound_ = capacity - free;
    return true;
}

nma::OffloadId
XfmDriver::submitTracked(const nma::OffloadRequest &req,
                         std::uint32_t worst_case)
{
    // Write the descriptor into a free SQ slot and arm one batched
    // doorbell write. Losses are handled at the flush, not per
    // submission.
    const nma::OffloadId id = dev_.submit(req);
    if (id == nma::invalidOffloadId) {
        ++stats_.fallbacks;  // full SQ or an unregistered address
        return id;
    }
    ++stats_.offloadsSubmitted;
    bound_ += worst_case;
    tracked_.emplace(id, worst_case);
    scheduleDoorbellFlush();
    return id;
}

void
XfmDriver::scheduleDoorbellFlush()
{
    if (doorbell_scheduled_)
        return;
    doorbell_scheduled_ = true;
    doorbell_attempts_ = 0;
    // Same-tick event: every submission of this tick (the tREFI
    // batch) is covered by one SQ tail doorbell MMIO write.
    dev_.eventq().scheduleIn(0, [this] { flushDoorbell(); });
}

void
XfmDriver::flushDoorbell()
{
    doorbell_scheduled_ = false;
    auto &sq = ring_.sq();
    if (sq.stagedCount() == 0)
        return;  // everything staged was aborted in the meantime
    if (injector_
        && injector_->shouldInject(fault::FaultSite::MmioDoorbellLoss)) {
        // The tail doorbell write never reached the device: the
        // whole staged batch stays invisible.
        ++stats_.doorbellLosses;
        ++doorbell_attempts_;
        if (doorbell_attempts_ >= fault::transientAttempts) {
            abandonBatch();
            return;
        }
        ++stats_.retries;
        const Tick backoff = fault::retryBackoff(doorbell_attempts_ - 1);
        stats_.backoffTicksAccrued += backoff;
        doorbell_scheduled_ = true;
        dev_.eventq().scheduleIn(backoff, [this] { flushDoorbell(); });
        return;
    }
    if (doorbell_attempts_ > 0)
        takeBatch(doorbell_attempts_);
    dev_.regs().write(nma::Reg::SqTailDoorbell, sq.tailIndex());
}

void
XfmDriver::takeBatch(std::uint32_t retries)
{
    ring_.sq().stagedTags(batch_);
    if (retries > 0 && on_retries_)
        for (nma::OffloadId id : batch_)
            on_retries_(id, retries);
}

void
XfmDriver::abandonBatch()
{
    // Nothing can make these descriptors device-visible any more:
    // cancel every one now and report it dropped, so the caller
    // redoes the work on the CPU. All are cancelled before the first
    // drop is reported, because a drop handler may submit anew. The
    // last loss was not followed by a re-ring.
    takeBatch(doorbell_attempts_ - 1);
    for (nma::OffloadId id : batch_)
        dev_.abort(id);
    for (nma::OffloadId id : batch_)
        handleDrop(id, nma::DropReason::DoorbellLost);
}

void
XfmDriver::reapCompletions()
{
    if (reaping_)
        return;
    reaping_ = true;
    auto &cq = ring_.cq();
    if (cq.pending() == 0) {
        reaping_ = false;
        return;
    }
    // The reap-site injection models a phase-bit misread: the
    // driver sees no valid entries this round and leaves every
    // record for the next interrupt or window flush.
    if (injector_
        && injector_->shouldInject(fault::FaultSite::MmioDoorbellLoss)) {
        ++ring_.stats().phaseCorruptions;
        reaping_ = false;
        return;
    }
    ++ring_.stats().reapBatches;
    obs::Tracer *tracer = dev_.tracer();
    nma::CompletionRecord rec;
    while (cq.reap(rec)) {
        if (!ring_.sq().validTag(rec.tag)) {
            // The command was aborted after this record was posted
            // and its slot retired: the generation tag is stale.
            ++ring_.stats().staleRejected;
            continue;
        }
        if (tracer && rec.traceId)
            tracer->record(rec.traceId, obs::Stage::CqReap, rec.tick,
                           dev_.curTick());
        switch (rec.type) {
          case nma::CompletionType::Complete:
            handleComplete(
                {rec.tag, rec.kind, rec.outputSize, rec.tick});
            break;
          case nma::CompletionType::Writeback:
            ring_.sq().retire(rec.tag);
            handleWriteback(rec.tag, rec.tick);
            break;
          case nma::CompletionType::Drop:
            ring_.sq().retire(rec.tag);
            handleDrop(rec.tag, rec.reason);
            break;
        }
    }
    // One MMIO write acknowledges the whole reaped batch.
    dev_.regs().write(nma::Reg::CqHeadDoorbell, cq.headIndex());
    reaping_ = false;
}

nma::OffloadId
XfmDriver::xfmCompress(std::uint64_t src, std::uint32_t size,
                       Tick deadline, std::uint32_t partition,
                       std::uint64_t trace_id,
                       std::shared_ptr<const Bytes> dict)
{
    const std::uint32_t worst =
        nma::CompressionEngine::worstCaseCompressedSize(size);
    if (!canAccept(worst)) {
        ++stats_.fallbacks;
        return nma::invalidOffloadId;
    }
    nma::OffloadRequest req;
    req.kind = nma::OffloadKind::Compress;
    req.srcAddr = src;
    req.size = size;
    req.deadline = deadline;
    req.partition = partition;
    req.traceId = trace_id;
    req.dict = std::move(dict);
    return submitTracked(req, worst);
}

nma::OffloadId
XfmDriver::xfmDecompress(std::uint64_t src, std::uint32_t size,
                         std::uint64_t dst, std::uint32_t raw_size,
                         Tick deadline, std::uint32_t partition,
                         std::uint64_t trace_id,
                         std::shared_ptr<const Bytes> dict)
{
    // The staged footprint of a decompression averages near its
    // compressed size: the 4 KiB output exists in the SPM only
    // between engine completion and the (already-armed) write-back.
    if (!canAccept(size)) {
        ++stats_.fallbacks;
        return nma::invalidOffloadId;
    }
    nma::OffloadRequest req;
    req.kind = nma::OffloadKind::Decompress;
    req.srcAddr = src;
    req.size = size;
    req.dstAddr = dst;
    req.rawSize = raw_size;
    req.deadline = deadline;
    req.partition = partition;
    req.traceId = trace_id;
    req.dict = std::move(dict);
    return submitTracked(req, size);
}

void
XfmDriver::commitWriteback(nma::OffloadId id, std::uint64_t dst)
{
    dev_.commitWriteback(id, dst);
}

void
XfmDriver::registerMetrics(obs::MetricRegistry &r,
                           const std::string &prefix)
{
    const std::string p = prefix + ".";
    r.counter(p + "offloadsSubmitted", &stats_.offloadsSubmitted);
    r.counter(p + "capacityRegisterReads",
              &stats_.capacityRegisterReads,
              "lazy-sync MMIO reads");
    r.counter(p + "fallbacks", &stats_.fallbacks,
              "resources exhausted");
    r.counter(p + "doorbellLosses", &stats_.doorbellLosses,
              "injected lost submissions");
    r.counter(p + "retries", &stats_.retries);
    r.counter(p + "backoffTicksAccrued",
              &stats_.backoffTicksAccrued,
              "modelled driver spin time");
    r.derived(p + "occupancyBound",
              [this] { return static_cast<double>(bound_); },
              "local SPM usage upper bound");
}

void
XfmDriver::abort(nma::OffloadId id)
{
    auto it = tracked_.find(id);
    if (it != tracked_.end()) {
        bound_ -= it->second;
        tracked_.erase(it);
    }
    dev_.abort(id);
}

} // namespace xfmsys
} // namespace xfm
