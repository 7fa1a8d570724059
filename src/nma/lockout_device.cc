#include "lockout_device.hh"

#include "common/logging.hh"

namespace xfm
{
namespace nma
{

HostLockoutDevice::HostLockoutDevice(std::string name, EventQueue &eq,
                                     const LockoutDeviceConfig &cfg,
                                     dram::PhysMem &mem,
                                     dram::MemCtrl &ctrl)
    : SimObject(std::move(name), eq), cfg_(cfg), mem_(mem),
      ctrl_(ctrl), engine_(cfg.algorithm, cfg.engine)
{}

Tick
HostLockoutDevice::transferTime(std::size_t bytes) const
{
    const double ns =
        static_cast<double>(bytes) / cfg_.transferGBps;
    return nanoseconds(ns);
}

void
HostLockoutDevice::offload(const OffloadRequest &req,
                           CompletionCallback done)
{
    XFM_ASSERT(req.size > 0, "offload with zero size");
    const OffloadId id = next_id_++;
    ++stats_.offloads;

    // Do the data work now; timing determines the lock duration.
    Bytes data = mem_.read(req.srcAddr, req.size);
    Bytes output;
    Tick compute;
    if (req.kind == OffloadKind::Compress) {
        std::tie(output, compute) = engine_.compress(data);
    } else {
        std::tie(output, compute) =
            engine_.decompress(data, req.rawSize);
    }
    const Tick duration = transferTime(req.size) + compute
        + transferTime(output.size());
    stats_.bytesMoved += req.size + output.size();

    // Serialise offloads on the single engine, then lock the rank
    // for the whole operation: the host cannot touch it meanwhile.
    const Tick start = std::max(curTick(), busy_until_);
    const Tick end = start + duration;
    busy_until_ = end;
    stats_.rankLockedTicks += end - start;
    ctrl_.lockRank(cfg_.channel, cfg_.rank, end);

    const std::uint64_t dst = req.dstAddr;
    const auto out_size = static_cast<std::uint32_t>(output.size());
    const OffloadKind kind = req.kind;
    eventq().schedule(end, [this, id, kind, dst, out_size, done,
                            out = std::move(output)]() mutable {
        mem_.write(dst, out);
        if (done)
            done({id, kind, out_size, curTick()});
    });
}

} // namespace nma
} // namespace xfm
