#include "xfm_device.hh"

#include <algorithm>

#include "common/config.hh"
#include "common/logging.hh"

namespace xfm
{
namespace nma
{

namespace
{

/** Probability a TRR cycle is unused in a given window. */
constexpr double trrIdleChance = 0.95;
/** Energy model: row activation saved by conditional accesses. */
constexpr double activateEnergyNj = 7.5;
/** On-DIMM IO energy per byte moved (25 Gb/s links, Sec. 4.1). */
constexpr double ioEnergyPjPerByte = 9.5;

/** SPM bytes an offload's read reserves for the engine output: the
 *  worst-case compressed size, or the page a decompression yields. */
std::uint32_t
spmReservation(const OffloadRequest &req)
{
    return req.kind == OffloadKind::Compress
        ? CompressionEngine::worstCaseCompressedSize(req.size)
        : req.rawSize;
}

} // namespace

XfmDeviceConfig
XfmDeviceConfig::fromConfig(const Config &cfg, XfmDeviceConfig base)
{
    XfmDeviceConfig c = std::move(base);
    c.spmBytes = cfg.getU64("xfm.spm_bytes", c.spmBytes);
    c.maxAccessesPerWindow =
        cfg.getU32("xfm.accesses_per_trfc", c.maxAccessesPerWindow);
    c.sqDepth = cfg.getU32("xfm.sq_depth", c.sqDepth);
    if (c.sqDepth == 0 || c.sqDepth > maxCommandSlots)
        fatal("config key 'xfm.sq_depth': '", c.sqDepth,
              "' is not in [1, ", maxCommandSlots, "]");
    c.cqCoalesce = cfg.getU32("xfm.cq_coalesce", c.cqCoalesce);
    c.watchdogWindows =
        cfg.getU32("xfm.watchdog_windows", c.watchdogWindows);
    return c;
}

XfmDevice::XfmDevice(std::string name, EventQueue &eq,
                     const XfmDeviceConfig &cfg,
                     const dram::AddressMap &map, dram::PhysMem &mem,
                     dram::RefreshController &refresh)
    : SimObject(std::move(name), eq), cfg_(cfg), map_(map), mem_(mem),
      spm_(cfg.spmBytes), ring_(cfg.sqDepth),
      engine_(cfg.algorithm, cfg.engine),
      bank_(refresh.device()), rng_(cfg.seed)
{
    if (cfg_.maxAccessesPerWindow == 0) {
        // Derive the budget from the device timing (paper Sec. 5).
        cfg_.maxAccessesPerWindow =
            dram::maxAccessesPerTrfc(refresh.device());
    }
    XFM_ASSERT(cfg_.maxAccessesPerWindow >= 1,
               "need at least one access per window");
    XFM_ASSERT(cfg_.maxRandomPerWindow <= cfg_.maxAccessesPerWindow,
               "random budget cannot exceed the window budget");

    if (cfg_.cqCoalesce == 0)
        cfg_.cqCoalesce = 1;

    regs_.bindReadOnly(Reg::SpCapacity,
                       [this] { return spm_.freeBytes(); });
    regs_.bindReadOnly(Reg::QueueDepth, [this]() -> std::uint64_t {
        return ring_.sq().inFlight();
    });
    // The tail doorbell is the only way staged descriptors become
    // device-visible: one MMIO write covers a whole tREFI batch.
    regs_.bindWrite(Reg::SqTailDoorbell, [this](std::uint64_t) {
        ring_.sq().ringDoorbell(curTick());
    });

    dev_trefi_ = refresh.device().tREFI();
    dev_cfg_ = refresh.device();
    refresh.addListener([this](const dram::RefreshWindow &w) {
        onWindow(w);
    });
}

void
XfmDevice::registerRegion(std::uint64_t base, std::uint64_t bytes)
{
    XFM_ASSERT(bytes > 0, "empty region");
    regions_.emplace_back(base, base + bytes);
}

bool
XfmDevice::regionRegistered(std::uint64_t addr,
                            std::uint64_t size) const
{
    if (regions_.empty())
        return true;  // bring-up mode: no restrictions configured
    for (const auto &[lo, hi] : regions_)
        if (addr >= lo && addr + size <= hi)
            return true;
    return false;
}

OffloadId
XfmDevice::submit(const OffloadRequest &req)
{
    XFM_ASSERT(req.size > 0, "offload with zero size");
    if (!regionRegistered(req.srcAddr, req.size)
        || (req.kind == OffloadKind::Decompress
            && !regionRegistered(req.dstAddr, req.rawSize))) {
        ++stats_.unregisteredRejects;
        return invalidOffloadId;
    }
    const Tick now = curTick();
    OffloadRequest r = req;
    r.submitTick = now;
    const CommandTag tag = ring_.sq().push(r, now);
    if (tag == 0) {
        // Full-SQ backpressure: every slot is owned by an in-flight
        // command, so the descriptor cannot even be written.
        ++stats_.queueRejects;
        return invalidOffloadId;
    }
    ring_.sampleOccupancy();
    if (tracer_ && r.traceId)
        trace_ids_[tag] = r.traceId;
    return tag;
}

std::uint64_t
XfmDevice::traceIdOf(OffloadId id) const
{
    const auto it = trace_ids_.find(id);
    return it == trace_ids_.end() ? 0 : it->second;
}

void
XfmDevice::postRecord(CompletionRecord rec)
{
    if (!ring_.cq().post(rec, curTick()))
        fatal(name(), ": completion ring overflow");
    if (ring_.cq().pending() >= cfg_.cqCoalesce)
        raiseCq();
}

void
XfmDevice::raiseCq()
{
    if (cq_ready_ && ring_.cq().pending() > 0)
        cq_ready_();
}

void
XfmDevice::postDrop(OffloadId id, DropReason reason,
                    std::uint64_t trace_id)
{
    CompletionRecord rec;
    rec.tag = id;
    rec.type = CompletionType::Drop;
    rec.reason = reason;
    rec.traceId = trace_id;
    postRecord(rec);
}

void
XfmDevice::drainSq()
{
    CommandDescriptor d;
    while (ring_.sq().consume(d)) {
        if (tracer_ && d.req.traceId) {
            tracer_->record(d.req.traceId, obs::Stage::SqEnqueue,
                            d.enqueued, d.doorbelled);
            tracer_->record(d.req.traceId, obs::Stage::Queue,
                            d.req.submitTick, curTick());
        }
        // Decoded once here: every window tests the row and bank.
        // Addresses are DIMM-local (the AddressMap describes only
        // this device's DRAM).
        const dram::DramCoord src = map_.decode(d.req.srcAddr);
        reads_.push_back({d.req.id, d.req, curTick(), src.row, src.bank});
    }
}

void
XfmDevice::dropExpired(Tick now)
{
    for (auto it = reads_.begin(); it != reads_.end();) {
        if (it->req.deadline < now) {
            ++stats_.deadlineDrops;
            const std::uint64_t tid = traceIdOf(it->id);
            trace_ids_.erase(it->id);
            postDrop(it->id, DropReason::Deadline, tid);
            it = reads_.erase(it);
        } else {
            ++it;
        }
    }
}

void
XfmDevice::runWatchdog(Tick now)
{
    if (cfg_.watchdogWindows == 0)
        return;
    const Tick limit = Tick(cfg_.watchdogWindows) * dev_trefi_;
    const auto fire = [this, now](OffloadId id) {
        const std::uint64_t tid = traceIdOf(id);
        ++stats_.watchdogFires;
        if (tracer_ && tid)
            tracer_->point(tid, obs::Stage::Fallback, now,
                           obs::fallbackWatchdog);
        trace_ids_.erase(id);
        postDrop(id, DropReason::Watchdog, tid);
    };

    // Doorbell'd offloads that never won a window slot (e.g. SPM
    // reservations failing window after window, or pathological
    // subarray conflicts).
    for (auto it = reads_.begin(); it != reads_.end();) {
        if (now > it->accepted + limit) {
            const OffloadId id = it->id;
            it = reads_.erase(it);
            fire(id);
        } else {
            ++it;
        }
    }
    // Committed write-backs stranded in the SPM past the deadline:
    // force completion-with-error and free the staging space.
    spm_.writebackIds(ids_);
    for (OffloadId id : ids_) {
        if (now > spm_.entry(id).stagedAt + limit) {
            spm_.release(id);
            fire(id);
        }
    }
}

void
XfmDevice::chargeAccess(std::size_t bytes, AccessClass cls)
{
    const double io = ioEnergyPjPerByte
        * static_cast<double>(bytes) / 1000.0;  // pJ -> nJ
    if (cls == AccessClass::Conditional) {
        // The row is open for its refresh already: activation free.
        stats_.accessEnergyNanojoules += io;
        stats_.energySavedNanojoules += activateEnergyNj;
        ++stats_.conditionalAccesses;
    } else {
        stats_.accessEnergyNanojoules += io + activateEnergyNj;
        ++stats_.randomAccesses;
    }
}

bool
XfmDevice::executeRead(const ReadOp &op, AccessClass cls)
{
    // Reserve SPM space for the engine output now; if the SPM is
    // full the access is deferred to a later window.
    if (!spm_.reserve(op.id, op.req.kind, spmReservation(op.req),
                      op.req.partition)) {
        ++stats_.deferredExecutions;
        return false;
    }
    if (op.req.kind == OffloadKind::Decompress) {
        const dram::DramCoord dst = map_.decode(op.req.dstAddr);
        spm_.setDestination(op.id, op.req.dstAddr, dst.row, dst.bank);
    }

    chargeAccess(op.req.size, cls);
    stats_.bytesReadFromDram += op.req.size;
    // Fig. 6b: the k-th access of this window finishes bursting at
    // tRCD + tCL + (k+1) x 32 x tBURST past the window start.
    const Tick transfer =
        dram::accessCompletionOffset(dev_cfg_, window_access_index_);
    ++window_access_index_;

    if (tracer_ && op.req.traceId) {
        tracer_->record(op.req.traceId, obs::Stage::WindowWait,
                        op.accepted, curTick());
        tracer_->point(op.req.traceId, obs::Stage::Classify,
                       curTick(),
                       cls == AccessClass::Conditional ? 0 : 1);
    }

    mem_.read(op.req.srcAddr, op.req.size, staging_);
    const OffloadId id = op.id;
    const OffloadKind kind = op.req.kind;

    if (injector_
        && injector_->shouldInject(fault::FaultSite::EngineStall)) {
        // Injected engine stall/timeout: the access slot and DRAM
        // read were spent but the engine never produces output.
        // Release the staging space and report the offload dropped
        // so the driver/backend redo the work on the CPU.
        ++stats_.engineStalls;
        spm_.release(id);
        const std::uint64_t tid = traceIdOf(id);
        trace_ids_.erase(id);
        stalled_.insert(id);
        eventq().scheduleIn(transfer, [this, id, tid] {
            if (!stalled_.erase(id))
                return;  // aborted before the timeout was noticed
            postDrop(id, DropReason::EngineStall, tid);
        });
        return true;
    }

    Bytes out;
    Tick latency;
    if (kind == OffloadKind::Compress) {
        ++stats_.compressOffloads;
        std::tie(out, latency) =
            engine_.compress(staging_, op.req.dict.get());
    } else {
        ++stats_.decompressOffloads;
        std::tie(out, latency) =
            engine_.decompress(staging_, op.req.rawSize,
                               op.req.dict.get());
    }

    if (tracer_ && op.req.traceId)
        tracer_->record(op.req.traceId, obs::Stage::Engine,
                        curTick(), curTick() + transfer + latency);

    eventq().scheduleIn(transfer + latency,
                        [this, id, kind,
                         out = std::move(out)]() mutable {
        if (aborted_.erase(id))
            return;  // offload abandoned mid-compute
        const auto out_size = static_cast<std::uint32_t>(out.size());
        spm_.complete(id, std::move(out), curTick());
        CompletionRecord rec;
        rec.tag = id;
        rec.kind = kind;
        rec.type = CompletionType::Complete;
        rec.outputSize = out_size;
        rec.traceId = traceIdOf(id);
        postRecord(rec);
    });
    return true;
}

void
XfmDevice::executeWriteback(SpmEntry entry, AccessClass cls)
{
    const std::uint64_t tid = traceIdOf(entry.id);
    chargeAccess(entry.data.size(), cls);
    stats_.bytesWrittenToDram += entry.data.size();
    const Tick transfer =
        dram::accessCompletionOffset(dev_cfg_, window_access_index_);
    ++window_access_index_;
    mem_.write(entry.dstAddr, entry.data);

    if (tracer_) {
        const auto tid = trace_ids_.find(entry.id);
        if (tid != trace_ids_.end()) {
            tracer_->record(tid->second, obs::Stage::SpmStage,
                            entry.stagedAt, curTick());
            tracer_->record(tid->second, obs::Stage::Writeback,
                            curTick(), curTick() + transfer);
            trace_ids_.erase(tid);
        }
    }

    eventq().scheduleIn(transfer, [this, id = entry.id, tid] {
        CompletionRecord rec;
        rec.tag = id;
        rec.type = CompletionType::Writeback;
        rec.traceId = tid;
        postRecord(rec);
    });
}

void
XfmDevice::commitWriteback(OffloadId id, std::uint64_t dst_addr)
{
    const auto &e = spm_.entry(id);
    if (!regionRegistered(dst_addr,
                          std::max<std::uint64_t>(e.data.size(), 1)))
        fatal("commitWriteback: destination ", dst_addr,
              " is not in a registered region");
    const dram::DramCoord dst = map_.decode(dst_addr);
    spm_.setDestination(id, dst_addr, dst.row, dst.bank);
}

void
XfmDevice::abort(OffloadId id)
{
    trace_ids_.erase(id);
    if (!ring_.sq().validTag(id))
        return;  // already retired (or never issued)
    if (ring_.sq().cancel(id))
        return;  // unconsumed descriptor: the engine never saw it
    // Consumed: walk the in-flight states, then retire the slot so
    // any completion record already posted for this command reads
    // as stale at reap time.
    if (stalled_.erase(id)) {
        ring_.sq().retire(id);  // the stall already released the SPM
        return;
    }
    for (auto it = reads_.begin(); it != reads_.end(); ++it) {
        if (it->id == id) {
            reads_.erase(it);  // not yet executed: no SPM held
            ring_.sq().retire(id);
            return;
        }
    }
    // Engine running (Pending) or finished (Completed): drop the SPM
    // entry; a still-running engine event checks aborted_ and skips.
    if (spm_.contains(id)) {
        const bool pending = spm_.entry(id).tag == SpmTag::Pending;
        spm_.release(id);
        if (pending)
            aborted_.insert(id);
    }
    ring_.sq().retire(id);
}

void
XfmDevice::registerMetrics(obs::MetricRegistry &r,
                           const std::string &prefix)
{
    const std::string p = prefix + ".";
    r.counter(p + "windows", &stats_.windows,
              "refresh windows observed");
    r.counter(p + "conditionalAccesses",
              &stats_.conditionalAccesses);
    r.counter(p + "randomAccesses", &stats_.randomAccesses);
    r.counter(p + "compressOffloads", &stats_.compressOffloads);
    r.counter(p + "decompressOffloads", &stats_.decompressOffloads);
    r.counter(p + "queueRejects", &stats_.queueRejects);
    r.counter(p + "unregisteredRejects",
              &stats_.unregisteredRejects);
    r.counter(p + "deadlineDrops", &stats_.deadlineDrops);
    r.counter(p + "watchdogFires", &stats_.watchdogFires,
              "stuck offloads forced to complete with error");
    r.counter(p + "deferredExecutions", &stats_.deferredExecutions,
              "SPM full at read time");
    r.counter(p + "engineStalls", &stats_.engineStalls,
              "injected engine stalls/timeouts");
    r.counter(p + "subarrayConflictRetries",
              &stats_.subarrayConflictRetries);
    r.counter(p + "trrSlotsUsed", &stats_.trrSlotsUsed);
    r.counter(p + "dramBytesRead", &stats_.bytesReadFromDram);
    r.counter(p + "dramBytesWritten", &stats_.bytesWrittenToDram);
    r.gauge(p + "accessEnergyNanojoules",
            &stats_.accessEnergyNanojoules);
    r.gauge(p + "energySavedNanojoules",
            &stats_.energySavedNanojoules);
    r.derived(p + "energySavedFraction",
              [this] { return stats_.energySavedFraction(); },
              "activation energy avoided by conditional accesses");
    r.derived(p + "spm.usedBytes",
              [this] {
                  return static_cast<double>(spm_.usedBytes());
              });
    r.derived(p + "spm.freeBytes",
              [this] {
                  return static_cast<double>(spm_.freeBytes());
              });
    // Refresh-realism counters only exist when the feature is
    // armed, so a default device's snapshot keeps the legacy
    // metric namespace byte-identical.
    if (dev_cfg_.refreshRealismArmed()) {
        r.counter(p + "pbWindows", &stats_.pbWindows,
                  "per-bank REFpb windows seen");
        r.counter(p + "rfmStolenWindows", &stats_.rfmStolenWindows,
                  "service windows destroyed by RFM");
        r.counter(p + "hiraBonusSlots", &stats_.hiraBonusSlots,
                  "extra slots granted by HiRA overlap");
    }
    ring_.registerMetrics(r, prefix);
}

void
XfmDevice::onWindow(const dram::RefreshWindow &window)
{
    if (window.rank != cfg_.rank)
        return;
    ++stats_.windows;
    window_access_index_ = 0;
    bank_.beginRefresh(window.firstRow, window.rowCount);

    // The window boundary closes the previous tREFI batch: flush any
    // completion records the coalescing threshold left unreaped,
    // then pull newly doorbell'd descriptors.
    raiseCq();
    drainSq();
    dropExpired(window.start);
    runWatchdog(window.start);

    // Per-bank REFpb window: only the refreshing bank's rows are
    // reachable, within the shorter tRFCpb budget.
    const bool pb = window.bank != dram::RefreshWindow::allBanks;
    std::uint32_t slots = cfg_.maxAccessesPerWindow;
    if (pb) {
        ++stats_.pbWindows;
        slots = dram::maxAccessesPerWindowOf(dev_cfg_,
                                             dev_cfg_.tRFCpb);
        if (tracer_) {
            if (!refresh_trace_req_)
                refresh_trace_req_ = tracer_->begin();
            tracer_->point(refresh_trace_req_, obs::Stage::RefPb,
                           window.start, window.bank);
        }
    }
    std::uint32_t random_budget = cfg_.maxRandomPerWindow;
    const std::uint32_t rows_per_bank = map_.rowsPerBank();

    // TRR slack: each reserved victim-row refresh cycle that goes
    // unused this window becomes one extra random access slot.
    std::uint32_t trr_bonus = 0;
    for (std::uint32_t k = 0; k < cfg_.trrRandomSlots; ++k)
        if (rng_.chance(trrIdleChance))
            ++trr_bonus;
    slots += trr_bonus;
    random_budget += trr_bonus;

    // HiRA overlap hides one extra activation behind the refresh,
    // widening both budgets by a slot.
    if (window.hira) {
        ++stats_.hiraBonusSlots;
        ++slots;
        ++random_budget;
    }

    // An RFM riding this slot steals the NMA's service window
    // entirely: the bank is busy with the forced victim refresh.
    if (window.rfm) {
        ++stats_.rfmStolenWindows;
        if (tracer_) {
            if (!refresh_trace_req_)
                refresh_trace_req_ = tracer_->begin();
            tracer_->point(refresh_trace_req_, obs::Stage::Rfm,
                           window.start,
                           pb ? window.bank : window.rank);
        }
        slots = 0;
        random_budget = 0;
    }

    // Under a per-bank window, conditional accesses must land in
    // the refreshing bank; randoms too, unless HiRA overlap lets an
    // activation hide elsewhere.
    const auto cond_reachable = [&](std::uint32_t bank) {
        return !pb || bank == window.bank;
    };
    const auto rand_reachable = [&](std::uint32_t bank) {
        return !pb || window.hira || bank == window.bank;
    };

    // Pass 1: conditional write-backs (rows being refreshed now).
    spm_.writebackIds(ids_);
    for (OffloadId id : ids_) {
        if (slots == 0)
            break;
        const SpmEntry &e = spm_.entry(id);
        if (e.data.empty())
            continue;
        if (window.coversRow(e.dstRow, rows_per_bank)
            && cond_reachable(e.dstBank)) {
            executeWriteback(spm_.take(id), AccessClass::Conditional);
            --slots;
        }
    }

    // Pass 2: conditional reads.
    for (auto it = reads_.begin(); it != reads_.end() && slots > 0;) {
        if (window.coversRow(it->srcRow, rows_per_bank)
            && cond_reachable(it->srcBank)) {
            if (!executeRead(*it, AccessClass::Conditional)) {
                ++it;  // SPM full: deferred
                continue;
            }
            it = reads_.erase(it);
            --slots;
        } else {
            ++it;
        }
    }

    // Pass 3: random accesses, most urgent first. Write-backs of
    // decompressed pages compete with reads on deadline order. A
    // candidate whose subarray is refreshing this window is skipped
    // in favour of the next one (Sec. 5: the pending accesses are
    // reordered to avoid subarray conflicts).
    auto subarray_free = [this](std::uint32_t row) {
        const auto res = bank_.accessRandom(row);
        if (res == dram::BankAccessResult::Ok) {
            bank_.releaseRandom();
            return true;
        }
        ++stats_.subarrayConflictRetries;
        return false;
    };
    while (slots > 0 && random_budget > 0) {
        // Earliest-deadline pending read in a conflict-free
        // subarray.
        auto best_read = reads_.end();
        for (auto it = reads_.begin(); it != reads_.end(); ++it) {
            if (best_read != reads_.end()
                && it->req.deadline >= best_read->req.deadline)
                continue;
            if (!rand_reachable(it->srcBank))
                continue;
            // A read whose partition is at its cap waits for its
            // partition's write-backs; it must not block the others.
            if (!spm_.partitionFits(it->req.partition,
                                    spmReservation(it->req)))
                continue;
            if (!subarray_free(it->srcRow))
                continue;
            best_read = it;
        }

        // Conflict-free, reachable write-back candidates only.
        spm_.writebackIds(ids_);
        std::erase_if(ids_, [&](OffloadId id) {
            const SpmEntry &e = spm_.entry(id);
            return !rand_reachable(e.dstBank)
                || !subarray_free(e.dstRow);
        });

        // Write-backs normally wait for their destination row's
        // refresh turn; only SPM pressure (or stranding) justifies
        // burning the random slot on one.
        const bool spm_pressure =
            spm_.usedBytes() * 2 > spm_.capacityBytes();
        if (spm_pressure && !ids_.empty()) {
            executeWriteback(spm_.take(ids_.front()),
                             AccessClass::Random);
        } else if (best_read != reads_.end()) {
            if (!executeRead(*best_read, AccessClass::Random))
                break;  // SPM full: nothing can execute this window
            reads_.erase(best_read);
        } else if (!ids_.empty()
                   && curTick() > spm_.entry(ids_.front()).stagedAt
                          + 2 * (window.end - window.start
                                 + dev_trefi_)) {
            // A write-back has been stranded (its destination row's
            // refresh turn is far away): use the random slot.
            executeWriteback(spm_.take(ids_.front()),
                             AccessClass::Random);
        } else {
            break;
        }
        --slots;
        --random_budget;
        // The last trr_bonus random uses of this window ride in
        // unused TRR cycles rather than the base SALP slot.
        if (random_budget < trr_bonus)
            ++stats_.trrSlotsUsed;
    }
    bank_.endRefresh();
}

} // namespace nma
} // namespace xfm
