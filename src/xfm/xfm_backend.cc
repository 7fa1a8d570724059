#include "xfm_backend.hh"

#include <algorithm>

#include "common/config.hh"
#include "common/logging.hh"
#include "compress/dict.hh"

namespace xfm
{
namespace xfmsys
{

namespace
{

/** Largest accepted `workers`: more contexts than any DIMM count
 *  could use, small enough that a typo cannot ask for a thread per
 *  page. */
constexpr std::uint64_t maxWorkers = 64;

} // namespace

XfmSystemConfig
XfmSystemConfig::fromConfig(const Config &cfg, XfmSystemConfig base)
{
    XfmSystemConfig c = std::move(base);
    c.numDimms = cfg.getU64("xfm.dimms", c.numDimms);
    c.shardDict = cfg.getBool("xfm.shard_dict", c.shardDict);
    c.quarantineCap = cfg.getU64("xfm.quarantine_cap", c.quarantineCap);
    c.workers = cfg.getU64("workers", c.workers);
    if (cfg.has("workers") && c.workers > maxWorkers)
        fatal("config key 'workers': '", c.workers,
              "' is above the ceiling of ", maxWorkers);
    c.device = nma::XfmDeviceConfig::fromConfig(cfg, c.device);
    c.dimmMem.rank.device =
        dram::DeviceConfig::fromConfig(cfg, c.dimmMem.rank.device);
    c.faults = fault::FaultPlan::fromConfig(cfg, c.faults);
    c.health = health::HealthConfig::fromConfig(cfg, c.health);
    return c;
}

using sfm::PageState;
using sfm::SwapCallback;
using sfm::SwapOutcome;
using sfm::VirtPage;

namespace
{

/** True when every shard of the op was handled on the CPU. */
bool
allOnCpu(const std::vector<std::uint8_t> &cpu_shard)
{
    return std::all_of(cpu_shard.begin(), cpu_shard.end(),
                       [](std::uint8_t f) { return f != 0; });
}

} // namespace

XfmBackend::XfmBackend(std::string name, EventQueue &eq,
                       const XfmSystemConfig &cfg,
                       dram::MemCtrl *host_ctrl)
    : SimObject(std::move(name), eq), cfg_(cfg),
      host_ctrl_(host_ctrl), injector_(cfg.faults),
      codec_(compress::makeCompressor(cfg.algorithm)),
      alloc_(cfg.sfmBytes), routes_(cfg.numDimms),
      shard_scratch_(cfg.numDimms), block_scratch_(cfg.numDimms),
      pool_(std::min(cfg.workers, cfg.numDimms))
{
    XFM_ASSERT(cfg_.numDimms >= 1, "need at least one DIMM");
    XFM_ASSERT(cfg_.dimmMem.channels == 1
                   && cfg_.dimmMem.dimmsPerChannel == 1
                   && cfg_.dimmMem.ranksPerDimm == 1,
               "per-DIMM geometry must be single-channel/rank");
    XFM_ASSERT(pageBytes % cfg_.numDimms == 0,
               "page must split evenly across DIMMs");
    XFM_ASSERT((pageBytes / defaultInterleave) % cfg_.numDimms == 0,
               "interleave chunks must split evenly across DIMMs");
    XFM_ASSERT(cfg_.localPages > 0, "no virtual pages configured");

    const std::uint64_t local_end =
        cfg_.localBase + cfg_.localPages * cfg_.shardBytes();
    XFM_ASSERT(local_end <= cfg_.sfmBase
                   || cfg_.sfmBase + cfg_.sfmBytes <= cfg_.localBase,
               "local and SFM regions overlap");
    XFM_ASSERT(cfg_.sfmBase + cfg_.sfmBytes
                   <= cfg_.dimmMem.totalCapacityBytes(),
               "SFM region beyond DIMM capacity");

    refresh_ = std::make_unique<dram::RefreshController>(
        this->name() + ".refresh", eq, cfg_.dimmMem.rank.device,
        static_cast<std::uint32_t>(cfg_.numDimms));

    dimms_.reserve(cfg_.numDimms);
    for (std::size_t d = 0; d < cfg_.numDimms; ++d) {
        Dimm dimm;
        dimm.map = std::make_unique<dram::AddressMap>(cfg_.dimmMem);
        dimm.mem = std::make_unique<dram::PhysMem>(
            cfg_.dimmMem.totalCapacityBytes());

        nma::XfmDeviceConfig dcfg = cfg_.device;
        dcfg.rank = static_cast<std::uint32_t>(d);
        dcfg.algorithm = cfg_.algorithm;
        dimm.device = std::make_unique<nma::XfmDevice>(
            this->name() + ".dimm" + std::to_string(d), eq, dcfg,
            *dimm.map, *dimm.mem, *refresh_);
        dimm.driver = std::make_unique<XfmDriver>(*dimm.device);
        dimm.driver->xfmParamset(cfg_.sfmBase, cfg_.sfmBytes);
        // Page registration (Sec. 6): the NMA may only touch the
        // local shard frames and the SFM region.
        dimm.driver->xfmRegisterRegion(
            cfg_.localBase, cfg_.localPages * cfg_.shardBytes());
        dimm.driver->xfmRegisterRegion(cfg_.sfmBase, cfg_.sfmBytes);

        dimm.driver->onComplete(
            [this, d](const nma::OffloadCompletion &c) {
            onComplete(d, c);
        });
        dimm.driver->onWriteback([this, d](nma::OffloadId id, Tick t) {
            onWriteback(d, id, t);
        });
        dimm.driver->onDrop(
            [this, d](nma::OffloadId id, nma::DropReason reason) {
            onDrop(d, id, reason);
        });
        // A batch's doorbell re-rings count against every swap whose
        // shard rode in it.
        dimm.driver->onRetries(
            [this, d](nma::OffloadId id, std::uint32_t retries) {
            const auto it = routes_[d].find(id);
            if (it == routes_[d].end())
                return;
            it->second->retries += retries;
            xfm_stats_.offloadRetries += retries;
        });
        // One injector for the whole backend: all sites share the
        // plan's RNG stream and statistics, and the event queue
        // orders evaluations deterministically across DIMMs.
        dimm.device->setFaultInjector(&injector_);
        dimm.driver->setFaultInjector(&injector_);
        dimms_.push_back(std::move(dimm));
        channel_health_.emplace_back(cfg_.health);
    }
}

void
XfmBackend::start()
{
    refresh_->start();
}

std::uint64_t
XfmBackend::shardFrameAddr(VirtPage page) const
{
    return cfg_.localBase + page * cfg_.shardBytes();
}

std::uint64_t
XfmBackend::slotAddr(std::uint64_t offset) const
{
    return cfg_.sfmBase + offset;
}

Tick
XfmBackend::decompressDeadline() const
{
    const Tick slack = cfg_.decompressSlack
        ? cfg_.decompressSlack
        : 10 * cfg_.dimmMem.rank.device.tREFI();
    return curTick() + slack;
}

std::shared_ptr<const Bytes>
XfmBackend::pageDict(VirtPage page) const
{
    // Single-DIMM mode is gated off: the shard IS the page, so the
    // codec's own window already sees everything the sampled
    // dictionary could carry and storing it can only lose bytes.
    if (!cfg_.shardDict || cfg_.numDimms < 2)
        return nullptr;
    auto dict = std::make_shared<Bytes>(compress::buildPresetDictionary(
        readPage(page), defaultInterleave, pageDictBytes));
    if (dict->empty())
        return nullptr;
    return dict;
}

std::shared_ptr<const Bytes>
XfmBackend::loadPageDict(const PageEntry &entry)
{
    if (entry.dictStored == 0)
        return nullptr;
    XFM_ASSERT(!entry.shardSizes.empty(),
               "dict-bearing page has no shard sizes");
    const auto stripes =
        compress::dictStripes(entry.shardSizes, entry.dictStored);
    Bytes packed;
    packed.reserve(entry.dictStored);
    Bytes stripe;
    for (std::size_t d = 0; d < stripes.size(); ++d) {
        if (stripes[d] == 0)
            continue;
        dimms_[d].mem->read(
            slotAddr(entry.offset) + entry.shardSizes[d], stripes[d],
            stripe);
        packed.insert(packed.end(), stripe.begin(), stripe.end());
    }
    return std::make_shared<Bytes>(
        compress::unpackDict(*codec_, packed));
}

void
XfmBackend::placePageDict(std::uint64_t offset,
                          const std::vector<std::uint32_t> &shard_sizes,
                          const Bytes &packed)
{
    if (packed.empty())
        return;
    const auto stripes = compress::dictStripes(
        shard_sizes, static_cast<std::uint32_t>(packed.size()));
    std::size_t off = 0;
    for (std::size_t d = 0; d < stripes.size(); ++d) {
        if (stripes[d] == 0)
            continue;
        const Bytes stripe(packed.begin() + off,
                           packed.begin() + off + stripes[d]);
        dimms_[d].mem->write(slotAddr(offset) + shard_sizes[d],
                             stripe);
        off += stripes[d];
    }
}

void
XfmBackend::countDictShard(ByteSpan block)
{
    if (!cfg_.shardDict)
        return;
    if (compress::isDictRefBlock(block))
        ++xfm_stats_.dictShards;
    else
        ++xfm_stats_.dictFallbacks;
}

void
XfmBackend::writePage(VirtPage page, ByteSpan data)
{
    XFM_ASSERT(page < cfg_.localPages, "page out of range");
    XFM_ASSERT(data.size() == pageBytes, "writePage needs a full page");
    splitPageInto(data, cfg_.numDimms, defaultInterleave, shard_scratch_);
    for (std::size_t d = 0; d < cfg_.numDimms; ++d)
        dimms_[d].mem->write(shardFrameAddr(page), shard_scratch_[d]);
}

Bytes
XfmBackend::readPage(VirtPage page) const
{
    XFM_ASSERT(page < cfg_.localPages, "page out of range");
    std::vector<Bytes> shards(cfg_.numDimms);
    for (std::size_t d = 0; d < cfg_.numDimms; ++d)
        dimms_[d].mem->read(shardFrameAddr(page), cfg_.shardBytes(),
                            shards[d]);
    Bytes page_data;
    gatherPageInto(shards, defaultInterleave, page_data);
    return page_data;
}

PageState
XfmBackend::pageState(VirtPage page) const
{
    return entries_.count(page) ? PageState::Far : PageState::Local;
}

std::uint64_t
XfmBackend::storedCompressedBytes() const
{
    std::uint64_t total = 0;
    for (const auto &[page, entry] : entries_)
        for (auto s : entry.shardSizes)
            total += s;
    return total;
}

std::uint64_t
XfmBackend::fragmentationBytes() const
{
    std::uint64_t frag = 0;
    for (const auto &[page, entry] : entries_) {
        const std::uint64_t slot =
            std::uint64_t(alloc_.slotSize(entry.offset)) * cfg_.numDimms;
        std::uint64_t stored = 0;
        for (auto s : entry.shardSizes)
            stored += s;
        frag += slot - stored;
    }
    return frag;
}

Tick
XfmBackend::chargeCpu(std::uint64_t bytes, bool compress_op)
{
    const auto cost = compress::cpuCost(cfg_.algorithm);
    const double per_byte = compress_op ? cost.compressCyclesPerByte
                                        : cost.decompressCyclesPerByte;
    const double cycles = per_byte * static_cast<double>(bytes);
    stats_.cpuCycles += static_cast<std::uint64_t>(cycles);
    return static_cast<Tick>(cycles / cfg_.cpuFreqGHz * 1000.0);
}

std::uint64_t
XfmBackend::allocateSlot(std::uint32_t size)
{
    std::uint64_t offset = alloc_.allocate(size);
    if (offset == SameOffsetAllocator::invalidOffset) {
        compact();
        offset = alloc_.allocate(size);
    }
    return offset;
}

void
XfmBackend::hostTraffic(VirtPage page, std::uint32_t raw_bytes,
                        std::uint32_t stored_bytes, bool compress_op)
{
    // CPU (de)compression burns host channel bandwidth: the read of
    // its input plus the write of its output (the traffic XFM
    // offloads avoid entirely).
    if (!host_ctrl_)
        return;
    host_ctrl_->submit({page * pageBytes,
                        compress_op ? raw_bytes : stored_bytes, false,
                        nullptr});
    host_ctrl_->submit({page * pageBytes,
                        compress_op ? stored_bytes : raw_bytes, true,
                        nullptr});
}

Tick
XfmBackend::cpuRefreshStall(std::uint64_t addr)
{
    if (!cfg_.dimmMem.rank.device.refreshRealismArmed())
        return 0;
    Tick stall = 0;
    const Tick now = curTick();
    for (std::size_t d = 0; d < cfg_.numDimms; ++d) {
        const auto coord = dimms_[d].map->decode(addr);
        stall = std::max(
            stall,
            refresh_->accessStall(static_cast<std::uint32_t>(d),
                                  coord.bank, now));
    }
    xfm_stats_.cpuRefreshStallTicks += stall;
    return stall;
}

void
XfmBackend::tracePoint(std::uint64_t tid, obs::Stage stage,
                       std::uint64_t arg)
{
    if (tracer_ && tid)
        tracer_->point(tid, stage, curTick(), arg);
}

void
XfmBackend::reject(VirtPage page, sfm::RejectReason reason,
                   std::uint64_t tid, const SwapCallback &done,
                   bool used_cpu, std::uint32_t retries)
{
    tracePoint(tid, obs::Stage::Complete, obs::outcomeFailed);
    SwapOutcome o;
    o.page = page;
    o.success = false;
    o.usedCpu = used_cpu;
    o.retries = retries;
    o.rejected = reason;
    o.completed = curTick();
    if (done)
        done(o);
}

void
XfmBackend::encodeShardBlock(const Bytes *dict, ByteSpan shard,
                             Bytes &block) const
{
    if (dict)
        compress::encodeShardRef(*codec_, *dict, shard, block);
    else
        codec_->compressInto(shard, block);
}

void
XfmBackend::decodeShardBlock(const Bytes *dict, ByteSpan block,
                             Bytes &shard) const
{
    if (dict)
        compress::decodeShard(*codec_, block, *dict, shard);
    else
        compress::decodeShard(*codec_, block, shard);
    XFM_ASSERT(shard.size() == cfg_.shardBytes(),
               "shard decompressed to wrong size");
}

// ------------------------------------------------------------ CPU legs

void
XfmBackend::codeShard(PendingOp &op, std::size_t d)
{
    const auto shard = static_cast<std::uint32_t>(cfg_.shardBytes());
    dram::PhysMem &mem = *dimms_[d].mem;
    if (op.isCompress) {
        mem.read(shardFrameAddr(op.page), shard, shard_scratch_[d]);
        encodeShardBlock(op.dict.get(), shard_scratch_[d],
                         op.cpuBlocks[d]);
        op.sizes[d] = static_cast<std::uint32_t>(op.cpuBlocks[d].size());
        return;
    }
    // The specialised CPU_Fallback decompression handles both
    // decompression and gathering without extra copies (Fig. 9b):
    // the shard decompresses straight into its DIMM-local frame.
    mem.read(slotAddr(op.offset), op.sizes[d], block_scratch_[d]);
    decodeShardBlock(op.dict.get(), block_scratch_[d], shard_scratch_[d]);
    mem.write(shardFrameAddr(op.page), shard_scratch_[d]);
}

void
XfmBackend::codeCpuShards(PendingOp &op)
{
    // The one fan-out: each index touches only its own DIMM's
    // memory, scratch and op slots, and every charge is made after
    // it in shard order, so results are byte-identical for any
    // worker count.
    pool_.parallelFor(cfg_.numDimms, [&](std::size_t d) {
        if (op.cpuShard[d])
            codeShard(op, d);
    });
}

Tick
XfmBackend::chargeCpuLeg(const PendingOp &op, std::uint32_t raw_bytes,
                         std::uint32_t stored_bytes, Tick stall)
{
    const Tick latency = chargeCpu(raw_bytes, op.isCompress) + stall;
    hostTraffic(op.page, raw_bytes, stored_bytes, op.isCompress);
    if (tracer_ && op.traceId)
        tracer_->record(op.traceId, obs::Stage::CpuCompute, curTick(),
                        curTick() + latency);
    return latency;
}

void
XfmBackend::runOnCpu(const std::shared_ptr<PendingOp> &op)
{
    const std::size_t n = cfg_.numDimms;
    op->pageCpuLeg = true;
    op->cpuShard.assign(n, 1);
    // Every route re-codes the whole page, against a dictionary
    // sampled (or loaded) now.
    if (op->isCompress) {
        op->dict = pageDict(op->page);
        op->packedDict.clear();
        if (op->dict)
            compress::packDict(*codec_, *op->dict, op->packedDict);
    } else {
        op->dict = loadPageDict(entries_.at(op->page));
    }
    codeCpuShards(*op);
    if (!op->isCompress) {
        op->writebacks = n;
        finishOp(op, curTick());
        return;
    }
    // Every shard kept a plain block: the dictionary would be dead
    // weight, so the page stores none.
    if (std::none_of(op->cpuBlocks.begin(), op->cpuBlocks.end(),
                     [](const Bytes &b) {
                         return compress::isDictRefBlock(b);
                     }))
        op->packedDict.clear();
    op->writebacks = 0;
    placeCompressWritebacks(op);
}

void
XfmBackend::completeCpuLeg(PendingOp &op, const SwapOutcome &outcome)
{
    // The host's page read (swap-out) or the demand fault's
    // compressed-slot read (swap-in) stalls on refresh/RFM locks
    // (0 while refresh realism is disarmed).
    const Tick stall = cpuRefreshStall(
        op.isCompress ? shardFrameAddr(op.page) : slotAddr(op.offset));
    const Tick latency =
        chargeCpuLeg(op, pageBytes, outcome.compressedSize, stall);
    eventq().scheduleIn(latency, [this, o = outcome, tid = op.traceId,
                                  done = std::move(op.done)]() mutable {
        o.completed = curTick();
        tracePoint(tid, obs::Stage::Complete, obs::outcomeCpu);
        if (done)
            done(o);
    });
}

// ------------------------------------------------------------- offloads

void
XfmBackend::swapOut(VirtPage page, bool allow_offload,
                    SwapCallback done)
{
    XFM_ASSERT(page < cfg_.localPages, "page out of range");
    if (entries_.count(page))
        fatal("swapOut: page ", page, " already in far memory");
    const std::uint64_t tid = tracer_ ? tracer_->begin() : 0;
    startSwap(page, true, allow_offload, tid, std::move(done));
}

void
XfmBackend::swapIn(VirtPage page, bool allow_offload, SwapCallback done)
{
    if (!entries_.count(page))
        fatal("swapIn: page ", page, " is not in far memory");
    const std::uint64_t tid = tracer_ ? tracer_->begin() : 0;
    // Quarantined pages fail fast: their compressed image took an
    // uncorrectable ECC error, so decompressing it would hand
    // corrupt data to the application.
    if (quarantined_.count(page)) {
        reject(page, sfm::RejectReason::Quarantined, tid, done);
        return;
    }
    if (injector_.armed()) {
        if (injector_.shouldInject(fault::FaultSite::EccCorrectable))
            ++xfm_stats_.eccCorrected;  // scrubbed transparently
        if (injector_.shouldInject(
                fault::FaultSite::EccUncorrectable)) {
            quarantinePage(page);
            ++xfm_stats_.eccQuarantines;
            reject(page, sfm::RejectReason::Quarantined, tid, done);
            return;
        }
    }
    startSwap(page, false, allow_offload, tid, std::move(done));
}

void
XfmBackend::startSwap(VirtPage page, bool compress_op, bool allow_offload,
                      std::uint64_t tid, SwapCallback done)
{
    if (busy_.count(page)) {
        reject(page, sfm::RejectReason::Busy, tid, done);
        return;
    }
    const std::size_t n = cfg_.numDimms;
    auto op = std::make_shared<PendingOp>();
    op->page = page;
    op->isCompress = compress_op;
    op->ids.assign(n, nma::invalidOffloadId);
    op->cpuShard.assign(n, 0);
    op->done = std::move(done);
    op->traceId = tid;
    op->traceStart = curTick();
    if (compress_op) {
        op->sizes.assign(n, 0);
        op->cpuBlocks.resize(n);
    } else {
        const PageEntry &entry = entries_.at(page);
        op->sizes = entry.shardSizes;
        op->offset = entry.offset;
    }

    // The service layer degrades over-quota tenants, and
    // latency-critical demand faults default (Sec. 6), to the CPU
    // path without touching the NMA's queues.
    if (!allow_offload) {
        runOnCpu(op);
        return;
    }

    // Channel-shard breakers: a Failed channel is routed around by
    // (de)compressing its shard on the CPU while the healthy
    // channels stay offloaded. If every channel is open, the whole
    // page goes to the CPU path.
    // The routing decision uses wouldAdmit() — no half-open probe
    // slot is consumed until the shard is actually submitted below,
    // so capacity fallbacks cannot churn a probation round. Each
    // refusal is counted as that channel's breakerReject here, the
    // one place a channel breaker turns work away.
    std::size_t cpu_shards = 0;
    for (std::size_t d = 0; d < n; ++d) {
        if (!channel_health_[d].wouldAdmit(curTick())) {
            channel_health_[d].recordReject();
            op->cpuShard[d] = 1;
            ++cpu_shards;
        }
    }
    if (cpu_shards == n) {
        ++xfm_stats_.breakerFallbacks;
        tracePoint(tid, obs::Stage::Fallback, obs::fallbackBreaker);
        runOnCpu(op);
        return;
    }

    // Lazy capacity check on every offloading DIMM before submitting
    // anywhere, so a partial submit (and abort storm) stays rare. A
    // compression may need the codec's worst case; a decompression
    // stages the stored shard.
    const PageEntry *entry = compress_op ? nullptr : &entries_.at(page);
    const auto worst = nma::CompressionEngine::worstCaseCompressedSize(
        static_cast<std::uint32_t>(cfg_.shardBytes()));
    for (std::size_t d = 0; d < n; ++d) {
        if (!op->cpuShard[d]
            && (!dimms_[d].driver->ringHasSlot()
                || !dimms_[d].driver->canAccept(
                       compress_op ? worst : entry->shardSizes[d]))) {
            ++xfm_stats_.fallbackCapacity;
            tracePoint(tid, obs::Stage::Fallback, obs::fallbackCapacity);
            runOnCpu(op);
            return;
        }
    }

    op->shardDone = op->cpuShard;
    op->completions = cpu_shards;  // CPU shards are done up front
    Tick deadline;
    if (compress_op) {
        op->dict = pageDict(page);
        if (op->dict)
            compress::packDict(*codec_, *op->dict, op->packedDict);
        deadline = curTick() + cfg_.dimmMem.rank.device.retention;
    } else {
        op->writebacks = cpu_shards;  // CPU shards land immediately
        // Pages stored with a preset dictionary: gather the packed
        // copy from the slot-tail stripes and stage it with every
        // descriptor. The host reads it once and fans it out to each
        // engine's SPM, so the dict transfer burns a little host
        // bandwidth per DIMM.
        op->dict = loadPageDict(*entry);
        if (op->dict && host_ctrl_)
            host_ctrl_->submit({slotAddr(op->offset), entry->dictStored,
                                false, nullptr});
        deadline = decompressDeadline();
    }
    if (cpu_shards)
        codeCpuShards(*op);

    const auto shard = static_cast<std::uint32_t>(cfg_.shardBytes());
    for (std::size_t d = 0; d < n; ++d) {
        if (op->cpuShard[d]) {
            // A one-shard leg: charged, but it does not delay the
            // swap's completion.
            ++xfm_stats_.shardCpuFallbacks;
            chargeCpuLeg(*op, shard, op->sizes[d]);
            continue;
        }
        if (!compress_op && op->dict && host_ctrl_)
            host_ctrl_->submit({slotAddr(op->offset), entry->dictStored,
                                true, nullptr});
        // Consume the channel's admission (a probe slot while in
        // probation) only now that the shard truly goes to hardware.
        // Its wouldAdmit(), the SQ slot and the SPM room were checked
        // this tick and nothing has run since, so neither the channel
        // nor the DIMM can refuse the shard.
        const bool admitted = channel_health_[d].admit(curTick());
        XfmDriver &drv = *dimms_[d].driver;
        const nma::OffloadId id = compress_op
            ? drv.xfmCompress(shardFrameAddr(page), shard, deadline,
                              partition_, tid, op->dict)
            : drv.xfmDecompress(slotAddr(op->offset), op->sizes[d],
                                shardFrameAddr(page), shard, deadline,
                                partition_, tid, op->dict);
        XFM_ASSERT(admitted && id != nma::invalidOffloadId,
                   "DIMM ", d, " refused a pre-checked submit");
        tracePoint(tid, obs::Stage::Submit, d);
        op->ids[d] = id;
        routes_[d].emplace(id, op);
    }
    busy_.emplace(page, op);
}

void
XfmBackend::onComplete(std::size_t dimm, const nma::OffloadCompletion &c)
{
    auto it = routes_[dimm].find(c.id);
    if (it == routes_[dimm].end())
        return;
    auto op = it->second;
    if (op->dead)
        return;

    // A swap-in's sizes stay the stored ones; its output is a whole
    // shard.
    if (op->isCompress)
        op->sizes[dimm] = c.outputSize;
    op->shardDone[dimm] = 1;
    if (++op->completions < cfg_.numDimms)
        return;
    if (!op->isCompress)
        return;  // decompress write-backs are already armed
    placeCompressWritebacks(op);
}

void
XfmBackend::placeCompressWritebacks(
    const std::shared_ptr<PendingOp> &op)
{
    // All shards compressed: size the same-offset slot by the
    // largest shard, grown only if the water-filled dictionary
    // stripes overflow the padding — then commit write-backs.
    const std::uint64_t offset = allocateSlot(compress::dictSlotSize(
        op->sizes, static_cast<std::uint32_t>(op->packedDict.size())));
    if (offset == SameOffsetAllocator::invalidOffset) {
        ++stats_.rejectedSwapOuts;
        ++xfm_stats_.fallbackAlloc;
        abortShards(*op);
        busy_.erase(op->page);
        tracePoint(op->traceId, obs::Stage::Fallback,
                   obs::fallbackAlloc);
        reject(op->page, sfm::RejectReason::SfmFull, op->traceId,
               op->done, allOnCpu(op->cpuShard), op->retries);
        return;
    }
    op->offset = offset;
    // The dictionary's slot-tail stripes can land now: engine
    // write-backs touch only the first sizes[d] bytes of each slot.
    placePageDict(offset, op->sizes, op->packedDict);
    for (std::size_t d = 0; d < cfg_.numDimms; ++d) {
        if (op->cpuShard[d]) {
            // The CPU-compressed shard block can land now that the
            // same-offset slot exists.
            dimms_[d].mem->write(slotAddr(offset), op->cpuBlocks[d]);
            ++op->writebacks;
            continue;
        }
        dimms_[d].driver->commitWriteback(op->ids[d],
                                          slotAddr(offset));
    }
    // Every shard was already serviced on the CPU (a page-level CPU
    // leg, or shard recovery redid the stragglers): nothing is left
    // in flight, so the op finishes here.
    if (op->writebacks == cfg_.numDimms)
        finishOp(op, curTick());
}

void
XfmBackend::onWriteback(std::size_t dimm, nma::OffloadId id, Tick t)
{
    // The channel shard delivered an offload end to end, whatever
    // became of the page-level operation.
    channel_health_[dimm].recordSuccess(t);
    auto it = routes_[dimm].find(id);
    if (it == routes_[dimm].end())
        return;
    auto op = it->second;
    routes_[dimm].erase(it);
    if (op->dead)
        return;
    if (++op->writebacks < cfg_.numDimms)
        return;
    finishOp(op, t);
}

void
XfmBackend::finishOp(const std::shared_ptr<PendingOp> &op, Tick now)
{
    busy_.erase(op->page);

    const bool used_cpu = allOnCpu(op->cpuShard);
    SwapOutcome outcome;
    outcome.page = op->page;
    outcome.success = true;
    outcome.usedCpu = used_cpu;
    outcome.completed = now;
    outcome.retries = op->retries;
    for (auto s : op->sizes)
        outcome.compressedSize += s;

    if (op->isCompress) {
        // Dict accounting reads each stored block's leading byte:
        // engine-staged shards never surface their bytes here.
        if (cfg_.shardDict) {
            Bytes lead;
            for (std::size_t d = 0; d < cfg_.numDimms; ++d) {
                dimms_[d].mem->read(slotAddr(op->offset), 1, lead);
                countDictShard(lead);
            }
        }
        PageEntry entry;
        entry.offset = op->offset;
        entry.shardSizes = op->sizes;
        entry.dictStored =
            static_cast<std::uint32_t>(op->packedDict.size());
        outcome.compressedSize += entry.dictStored;
        entries_.emplace(op->page, std::move(entry));
        ++stats_.swapOuts;
        if (used_cpu)
            ++stats_.cpuSwapOuts;
        else
            ++xfm_stats_.offloadedSwapOuts;
        stats_.bytesCompressed += pageBytes;
    } else {
        const auto it = entries_.find(op->page);
        XFM_ASSERT(it != entries_.end(),
                   "finishing swap-in of unknown page ", op->page);
        outcome.compressedSize += it->second.dictStored;
        alloc_.release(op->offset);
        entries_.erase(op->page);
        ++stats_.swapIns;
        if (used_cpu)
            ++stats_.cpuSwapIns;
        else
            ++xfm_stats_.offloadedSwapIns;
        stats_.bytesDecompressed += pageBytes;
    }
    // A page-level CPU leg commits now and completes one CPU latency
    // later, without a request span.
    if (op->pageCpuLeg) {
        completeCpuLeg(*op, outcome);
        return;
    }
    if (tracer_ && op->traceId) {
        tracer_->record(op->traceId,
                        op->isCompress ? obs::Stage::SwapOut
                                       : obs::Stage::SwapIn,
                        op->traceStart, now);
        tracer_->point(op->traceId, obs::Stage::Complete, now,
                       used_cpu ? obs::outcomeCpu
                                : obs::outcomeOffloaded);
    }
    if (op->done)
        op->done(outcome);
}

void
XfmBackend::onDrop(std::size_t dimm, nma::OffloadId id,
                   nma::DropReason reason)
{
    // Any drop — deadline, injected stall, watchdog, or a doorbell
    // given up on — means this channel shard failed to service an
    // offload.
    channel_health_[dimm].recordFault(curTick());
    auto it = routes_[dimm].find(id);
    if (it == routes_[dimm].end())
        return;
    auto op = it->second;
    routes_[dimm].erase(it);
    if (op->dead)
        return;
    // Both of these are scoped to one queue pair: the lost command
    // condemns only its own shard, which is redone on the CPU while
    // the page's other shards stay offloaded.
    if (reason == nma::DropReason::Watchdog) {
        ++xfm_stats_.watchdogShardRedos;
        recoverShardOnCpu(dimm, op);
        return;
    }
    if (reason == nma::DropReason::DoorbellLost) {
        ++xfm_stats_.doorbellShardRedos;
        tracePoint(op->traceId, obs::Stage::Fallback,
                   obs::fallbackDoorbell);
        recoverShardOnCpu(dimm, op);
        return;
    }
    ++xfm_stats_.fallbackDeadline;
    tracePoint(op->traceId, obs::Stage::Fallback, obs::fallbackDeadline);
    failToCpu(op);
}

void
XfmBackend::recoverShardOnCpu(std::size_t dimm,
                              const std::shared_ptr<PendingOp> &op)
{
    op->cpuShard[dimm] = 1;
    const bool was_done = op->shardDone[dimm];
    op->shardDone[dimm] = 1;
    // A compress redo reuses the op's dictionary, so the redone
    // block is byte-identical to the one the engine would have
    // staged; a decompress redo lands straight in the local frame.
    codeShard(*op, dimm);
    chargeCpuLeg(*op, static_cast<std::uint32_t>(cfg_.shardBytes()),
                 op->sizes[dimm]);

    if (!op->isCompress) {
        if (!was_done)
            ++op->completions;
        if (++op->writebacks == cfg_.numDimms)
            finishOp(op, curTick());
        return;
    }
    // Dropped before engine completion (a drop between completion
    // and placement cannot happen: a staged shard without a
    // destination is outside the watchdog's scans, and a lost
    // doorbell drops only commands the device never saw).
    if (!was_done) {
        if (++op->completions == cfg_.numDimms)
            placeCompressWritebacks(op);
        return;
    }
    if (op->offset != SameOffsetAllocator::invalidOffset) {
        // The write-back was stranded after placement: the codec is
        // deterministic, so the redone block matches the staged one
        // and fits the already-sized slot.
        dimms_[dimm].mem->write(slotAddr(op->offset),
                                op->cpuBlocks[dimm]);
        if (++op->writebacks == cfg_.numDimms)
            finishOp(op, curTick());
    }
}

void
XfmBackend::abortShards(PendingOp &op)
{
    op.dead = true;
    for (std::size_t d = 0; d < cfg_.numDimms; ++d) {
        auto rit = routes_[d].find(op.ids[d]);
        if (rit == routes_[d].end())
            continue;
        routes_[d].erase(rit);
        dimms_[d].driver->abort(op.ids[d]);
        // Aborted shards report no outcome: return any half-open
        // probe slot they were admitted under, so the faulting
        // channel alone carries the blame.
        channel_health_[d].cancelProbe(curTick());
    }
}

void
XfmBackend::failToCpu(const std::shared_ptr<PendingOp> &op)
{
    abortShards(*op);
    // A watchdog can drop a compress op after its same-offset slot
    // was already allocated (write-backs committed); release it or
    // the slot leaks — the CPU leg sizes its own.
    if (op->isCompress
        && op->offset != SameOffsetAllocator::invalidOffset) {
        alloc_.release(op->offset);
        op->offset = SameOffsetAllocator::invalidOffset;
    }
    runOnCpu(op);
}

void
XfmBackend::quarantinePage(VirtPage page)
{
    if (!quarantined_.insert(page).second)
        return;
    quarantine_order_.push_back(page);
    if (cfg_.quarantineCap == 0)
        return;
    while (quarantined_.size() > cfg_.quarantineCap) {
        // Evict the oldest quarantined page without an operation in
        // flight: free its retired slot (the poisoned image is
        // shipped to the DFM tier for repair) and re-establish the
        // page from its still-resident local shard frames.
        auto victim = quarantine_order_.end();
        for (auto it = quarantine_order_.begin();
             it != quarantine_order_.end(); ++it) {
            if (!busy_.count(*it)) {
                victim = it;
                break;
            }
        }
        if (victim == quarantine_order_.end())
            break;  // everything in flight; retry on the next UE
        const VirtPage evicted = *victim;
        quarantine_order_.erase(victim);
        quarantined_.erase(evicted);
        auto e = entries_.find(evicted);
        if (e != entries_.end()) {
            std::uint32_t freed = 0;
            for (auto s : e->second.shardSizes)
                freed += s;
            freed += e->second.dictStored;
            alloc_.release(e->second.offset);
            entries_.erase(e);
            if (reclaim_hook_)
                reclaim_hook_(evicted, freed);
        }
        ++xfm_stats_.quarantineEvicted;
    }
}

void
XfmBackend::registerMetrics(obs::MetricRegistry &r)
{
    const std::string p = name() + ".";
    r.counter(p + "swapOuts", &stats_.swapOuts);
    r.counter(p + "swapIns", &stats_.swapIns);
    r.counter(p + "offloadedSwapOuts",
              &xfm_stats_.offloadedSwapOuts);
    r.counter(p + "offloadedSwapIns", &xfm_stats_.offloadedSwapIns);
    r.counter(p + "cpuSwapOuts", &stats_.cpuSwapOuts);
    r.counter(p + "cpuSwapIns", &stats_.cpuSwapIns);
    r.counter(p + "rejectedSwapOuts", &stats_.rejectedSwapOuts,
              "SFM region full");
    r.counter(p + "fallbackCapacity", &xfm_stats_.fallbackCapacity,
              "whole pages to the CPU: a DIMM's SQ or SPM was full");
    r.counter(p + "fallbackDeadline", &xfm_stats_.fallbackDeadline,
              "window service too late");
    r.counter(p + "fallbackAlloc", &xfm_stats_.fallbackAlloc,
              "SFM region full at placement");
    r.counter(p + "offloadRetries", &xfm_stats_.offloadRetries,
              "driver re-submissions");
    r.counter(p + "eccCorrected", &xfm_stats_.eccCorrected);
    r.counter(p + "eccQuarantines", &xfm_stats_.eccQuarantines);
    r.counter(p + "quarantine.evicted",
              &xfm_stats_.quarantineEvicted,
              "quarantined pages evicted to honour the cap");
    r.counter(p + "shardCpuFallbacks",
              &xfm_stats_.shardCpuFallbacks,
              "single shards rerouted to the CPU by channel breakers");
    r.counter(p + "watchdogShardRedos",
              &xfm_stats_.watchdogShardRedos,
              "single shards redone on the CPU after watchdog drops");
    r.counter(p + "doorbellShardRedos",
              &xfm_stats_.doorbellShardRedos,
              "single shards redone on the CPU after lost doorbell batches");
    r.counter(p + "breakerFallbacks", &xfm_stats_.breakerFallbacks,
              "whole swaps rerouted: every channel breaker open");
    r.counter(p + "dictShards", &xfm_stats_.dictShards,
              "shards stored as preset-dictionary containers");
    r.counter(p + "dictFallbacks", &xfm_stats_.dictFallbacks,
              "dict-mode shards kept as plain blocks (smaller)");
    r.counter(p + "bytesCompressed", &stats_.bytesCompressed);
    r.counter(p + "bytesDecompressed", &stats_.bytesDecompressed);
    r.counter(p + "cpuCycles", &stats_.cpuCycles);
    r.counter(p + "compactions", &stats_.compactions);
    r.derived(p + "pagesFar",
              [this] { return static_cast<double>(farPageCount()); });
    r.derived(p + "storedCompressedBytes",
              [this] {
                  return static_cast<double>(storedCompressedBytes());
              });
    r.derived(p + "fragmentationBytes",
              [this] {
                  return static_cast<double>(fragmentationBytes());
              },
              "same-offset padding across all DIMMs");
    r.derived(p + "sfmRegionBytes",
              [this] {
                  return static_cast<double>(cfg_.sfmBytes);
              },
              "per DIMM");
    r.derived(p + "quarantinedPages",
              [this] {
                  return static_cast<double>(quarantinedPageCount());
              });
    r.derived(p + "cpuFraction",
              [this] { return stats_.cpuFraction(); },
              "swaps serviced by the CPU path");
    // Refresh-realism metrics only exist when armed, keeping the
    // default snapshot namespace byte-identical.
    if (cfg_.dimmMem.rank.device.refreshRealismArmed()) {
        r.counter(p + "cpuRefreshStallTicks",
                  &xfm_stats_.cpuRefreshStallTicks,
                  "CPU-path swaps waited on refresh/RFM locks");
        refresh_->registerMetrics(r, name());
    }
    injector_.registerMetrics(r, name() + ".fault");
    for (std::size_t d = 0; d < dimms_.size(); ++d) {
        const std::string dp = p + "dimm" + std::to_string(d);
        dimms_[d].device->registerMetrics(r, dp);
        dimms_[d].driver->registerMetrics(r, dp + ".driver");
        channel_health_[d].registerMetrics(r,
                                           dp + ".health.channel");
    }
}

void
XfmBackend::setTracer(obs::Tracer *t)
{
    tracer_ = t;
    for (std::size_t d = 0; d < dimms_.size(); ++d) {
        dimms_[d].device->setTracer(t);
        channel_health_[d].setTracer(t);
    }
}

void
XfmBackend::compact()
{
    ++stats_.compactions;

    // Reverse map: slot offset -> page entry.
    std::map<std::uint64_t, VirtPage> by_offset;
    for (const auto &[page, entry] : entries_)
        by_offset.emplace(entry.offset, page);

    // Slots referenced by in-flight offloads (committed write-back
    // destinations or pending decompress sources) must not move.
    std::set<std::uint64_t> pinned;
    for (const auto &[page, op] : busy_)
        if (op->offset != SameOffsetAllocator::invalidOffset)
            pinned.insert(op->offset);

    alloc_.repack(
        [this, &by_offset](std::uint64_t old_off, std::uint64_t new_off,
                           std::uint32_t size) {
        // memcpy the slot on every DIMM (xfm_compact semantics).
        for (auto &dimm : dimms_) {
            const Bytes data = dimm.mem->read(slotAddr(old_off), size);
            dimm.mem->write(slotAddr(new_off), data);
        }
        auto it = by_offset.find(old_off);
        if (it != by_offset.end()) {
            entries_.at(it->second).offset = new_off;
            by_offset.emplace(new_off, it->second);
            by_offset.erase(it);
        }
    },
        [&pinned](std::uint64_t off) { return pinned.count(off) > 0; });
}

} // namespace xfmsys
} // namespace xfm
