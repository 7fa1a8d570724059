#include "cpu_backend.hh"

#include <cstring>

#include "common/logging.hh"

namespace xfm
{
namespace sfm
{

CpuSfmBackend::CpuSfmBackend(std::string name, EventQueue &eq,
                             const CpuBackendConfig &cfg,
                             dram::PhysMem &mem,
                             dram::MemCtrl *mem_ctrl)
    : SimObject(std::move(name), eq), cfg_(cfg), mem_(mem),
      mem_ctrl_(mem_ctrl),
      pool_(mem, cfg.sfmBase, cfg.sfmBytes),
      codec_(compress::makeCompressor(cfg.algorithm))
{
    XFM_ASSERT(cfg_.localPages > 0, "local region must be non-empty");
    XFM_ASSERT(cfg_.localBase + cfg_.localPages * pageBytes
                   <= cfg_.sfmBase
               || cfg_.sfmBase + cfg_.sfmBytes <= cfg_.localBase,
               "local and SFM regions overlap");
}

namespace
{

/** Detect zswap's same-filled pages (every word one value). */
bool
sameFilled(const Bytes &raw, std::uint64_t &fill)
{
    std::uint64_t first;
    std::memcpy(&first, raw.data(), 8);
    for (std::size_t off = 8; off < raw.size(); off += 8) {
        std::uint64_t w;
        std::memcpy(&w, raw.data() + off, 8);
        if (w != first)
            return false;
    }
    fill = first;
    return true;
}

} // namespace

void
CpuSfmBackend::cpuSwapOut(VirtPage page, SwapCallback done)
{
    XFM_ASSERT(page < cfg_.localPages, "page out of range");
    if (entries_.count(page) || same_filled_.count(page))
        fatal("swapOut: page ", page, " already in far memory");

    const std::uint64_t src = frameAddr(page);
    mem_.read(src, pageBytes, raw_scratch_);
    const Bytes &raw = raw_scratch_;

    // zswap's same-filled-page optimisation: a page whose every word
    // repeats one value (zero pages above all) is recorded as a
    // marker, with no compression and no pool space.
    std::uint64_t fill;
    if (sameFilled(raw, fill)) {
        same_filled_.emplace(page, fill);
        ++stats_.swapOuts;
        ++stats_.cpuSwapOuts;
        ++stats_.sameFilledPages;
        SwapOutcome outcome;
        outcome.page = page;
        outcome.usedCpu = true;
        outcome.success = true;
        outcome.compressedSize = 8;  // just the marker
        eventq().scheduleIn(1, [outcome, done, this]() mutable {
            outcome.completed = curTick();
            if (done)
                done(outcome);
        });
        return;
    }
    codec_->compressInto(raw, block_scratch_);
    const Bytes &block = block_scratch_;

    // Incompressible pages gain nothing in far memory; reject them
    // (zswap likewise refuses pages that do not shrink).
    if (block.size() >= pageBytes) {
        ++stats_.rejectedSwapOuts;
        SwapOutcome outcome;
        outcome.page = page;
        outcome.usedCpu = true;
        outcome.success = false;
        outcome.rejected = RejectReason::Incompressible;
        outcome.completed = curTick();
        if (done)
            done(outcome);
        return;
    }

    // A failed insert compacts the pool and tries once more.
    ZHandle h = pool_.insert(block);
    if (h == invalidZHandle) {
        compact();
        h = pool_.insert(block);
    }

    SwapOutcome outcome;
    outcome.page = page;
    outcome.usedCpu = true;
    if (h == invalidZHandle) {
        ++stats_.rejectedSwapOuts;
        outcome.success = false;
        outcome.rejected = RejectReason::SfmFull;
        outcome.completed = curTick();
        if (done)
            done(outcome);
        return;
    }

    entries_.emplace(page, h);
    ++stats_.swapOuts;
    ++stats_.cpuSwapOuts;
    stats_.bytesCompressed += raw.size();
    const auto cost = compress::cpuCost(cfg_.algorithm);
    const double cycles =
        cost.compressCyclesPerByte * static_cast<double>(raw.size());
    stats_.cpuCycles += static_cast<std::uint64_t>(cycles);

    outcome.success = true;
    outcome.compressedSize = static_cast<std::uint32_t>(block.size());

    const Tick latency = cyclesToTicks(cycles);
    // CPU-side SFM traffic: read the cold page, write the block.
    if (mem_ctrl_) {
        mem_ctrl_->submit({src, static_cast<std::uint32_t>(pageBytes),
                           false, nullptr});
        mem_ctrl_->submit({pool_.addressOf(h),
                           static_cast<std::uint32_t>(block.size()),
                           true, nullptr});
    }
    std::uint64_t tid = 0;
    if (tracer_) {
        tid = tracer_->begin();
        tracer_->record(tid, obs::Stage::SwapOut, curTick(),
                        curTick() + latency);
        tracer_->record(tid, obs::Stage::CpuCompute, curTick(),
                        curTick() + latency);
    }
    eventq().scheduleIn(latency, [outcome, done, tid,
                                  this]() mutable {
        outcome.completed = curTick();
        if (tracer_ && tid)
            tracer_->point(tid, obs::Stage::Complete, curTick(),
                           obs::outcomeCpu);
        if (done)
            done(outcome);
    });
}

void
CpuSfmBackend::cpuSwapIn(VirtPage page, SwapCallback done)
{
    // Same-filled pages rematerialise with a fill, no decompression.
    auto sf = same_filled_.find(page);
    if (sf != same_filled_.end()) {
        Bytes &raw = raw_scratch_;
        raw.resize(pageBytes);
        for (std::size_t off = 0; off < raw.size(); off += 8)
            std::memcpy(raw.data() + off, &sf->second, 8);
        mem_.write(frameAddr(page), raw);
        same_filled_.erase(sf);
        ++stats_.swapIns;
        ++stats_.cpuSwapIns;
        SwapOutcome outcome;
        outcome.page = page;
        outcome.success = true;
        outcome.usedCpu = true;
        outcome.compressedSize = 8;
        eventq().scheduleIn(1, [outcome, done, this]() mutable {
            outcome.completed = curTick();
            if (done)
                done(outcome);
        });
        return;
    }

    auto it = entries_.find(page);
    if (it == entries_.end())
        fatal("swapIn: page ", page, " is not in far memory");

    const ZHandle h = it->second;
    const std::uint64_t block_addr = pool_.addressOf(h);
    pool_.fetchInto(h, block_scratch_);
    const Bytes &block = block_scratch_;
    codec_->decompressInto(block, raw_scratch_);
    const Bytes &raw = raw_scratch_;
    XFM_ASSERT(raw.size() == pageBytes,
               "decompressed page has wrong size");
    mem_.write(frameAddr(page), raw);
    pool_.erase(h);
    entries_.erase(it);

    ++stats_.swapIns;
    ++stats_.cpuSwapIns;
    stats_.bytesDecompressed += raw.size();
    const auto cost = compress::cpuCost(cfg_.algorithm);
    const double cycles =
        cost.decompressCyclesPerByte * static_cast<double>(raw.size());
    stats_.cpuCycles += static_cast<std::uint64_t>(cycles);

    if (mem_ctrl_) {
        mem_ctrl_->submit({block_addr,
                           static_cast<std::uint32_t>(block.size()),
                           false, nullptr});
        mem_ctrl_->submit({frameAddr(page),
                           static_cast<std::uint32_t>(pageBytes), true,
                           nullptr});
    }

    SwapOutcome outcome;
    outcome.page = page;
    outcome.success = true;
    outcome.usedCpu = true;
    outcome.compressedSize = static_cast<std::uint32_t>(block.size());
    const Tick latency = cyclesToTicks(cycles);
    std::uint64_t tid = 0;
    if (tracer_) {
        tid = tracer_->begin();
        tracer_->record(tid, obs::Stage::SwapIn, curTick(),
                        curTick() + latency);
        tracer_->record(tid, obs::Stage::CpuCompute, curTick(),
                        curTick() + latency);
    }
    eventq().scheduleIn(latency, [outcome, done, tid,
                                  this]() mutable {
        outcome.completed = curTick();
        if (tracer_ && tid)
            tracer_->point(tid, obs::Stage::Complete, curTick(),
                           obs::outcomeCpu);
        if (done)
            done(outcome);
    });
}

void
CpuSfmBackend::swapOut(VirtPage page, bool allow_offload,
                       SwapCallback done)
{
    (void)allow_offload;  // the CPU baseline has nothing to offload
    cpuSwapOut(page, std::move(done));
}

void
CpuSfmBackend::swapIn(VirtPage page, bool allow_offload,
                      SwapCallback done)
{
    (void)allow_offload;  // the CPU baseline has nothing to offload
    cpuSwapIn(page, std::move(done));
}

PageState
CpuSfmBackend::pageState(VirtPage page) const
{
    return entries_.count(page) || same_filled_.count(page)
        ? PageState::Far
        : PageState::Local;
}

void
CpuSfmBackend::compact()
{
    pool_.compact();
    ++stats_.compactions;
}

void
CpuSfmBackend::registerMetrics(obs::MetricRegistry &r)
{
    const std::string p = name() + ".";
    r.counter(p + "swapOuts", &stats_.swapOuts);
    r.counter(p + "swapIns", &stats_.swapIns);
    r.counter(p + "cpuSwapOuts", &stats_.cpuSwapOuts);
    r.counter(p + "cpuSwapIns", &stats_.cpuSwapIns);
    r.counter(p + "rejectedSwapOuts", &stats_.rejectedSwapOuts);
    r.counter(p + "sameFilledPages", &stats_.sameFilledPages,
              "stored as fill markers");
    r.counter(p + "bytesCompressed", &stats_.bytesCompressed);
    r.counter(p + "bytesDecompressed", &stats_.bytesDecompressed);
    r.counter(p + "cpuCycles", &stats_.cpuCycles);
    r.counter(p + "compactions", &stats_.compactions);
    r.derived(p + "pagesFar",
              [this] { return static_cast<double>(farPageCount()); });
    pool_.registerMetrics(r, name() + ".pool");
}

} // namespace sfm
} // namespace xfm
