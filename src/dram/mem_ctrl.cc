#include "mem_ctrl.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"

namespace xfm
{
namespace dram
{

MemCtrl::MemCtrl(std::string name, EventQueue &eq,
                 const MemSystemConfig &cfg, RefreshController *refresh)
    : SimObject(std::move(name), eq), cfg_(cfg), map_(cfg),
      refresh_(refresh),
      queues_(cfg.channels),
      busy_until_(cfg.channels, 0),
      pump_scheduled_(cfg.channels, false),
      open_row_(std::size_t(cfg.channels)
                    * map_.ranksPerChannel() * map_.banksPerRank(),
                -1),
      ext_lock_until_(std::size_t(cfg.channels)
                          * map_.ranksPerChannel(),
                      0)
{}

void
MemCtrl::lockRank(std::uint32_t channel, std::uint32_t rank,
                  Tick until)
{
    XFM_ASSERT(channel < cfg_.channels
                   && rank < map_.ranksPerChannel(),
               "lockRank: bad channel/rank");
    Tick &slot =
        ext_lock_until_[std::size_t(channel) * map_.ranksPerChannel()
                        + rank];
    slot = std::max(slot, until);
}

void
MemCtrl::submit(MemRequest req)
{
    XFM_ASSERT(req.size > 0, "zero-size request");
    XFM_ASSERT(req.addr + req.size <= map_.capacityBytes(),
               "request beyond capacity");

    // Count the chunks first so the completion latch is exact.
    const std::uint64_t ileave = cfg_.channelInterleave;
    std::uint32_t nchunks = 0;
    {
        std::uint64_t a = req.addr;
        std::uint64_t remaining = req.size;
        while (remaining > 0) {
            const std::uint64_t in_chunk =
                std::min<std::uint64_t>(remaining,
                                        ileave - (a % ileave));
            ++nchunks;
            a += in_chunk;
            remaining -= in_chunk;
        }
    }

    auto parent = std::make_shared<
        std::pair<std::uint32_t, std::function<void(Tick)>>>(
        nchunks, std::move(req.onComplete));

    std::uint64_t a = req.addr;
    std::uint64_t remaining = req.size;
    while (remaining > 0) {
        const std::uint64_t in_chunk = std::min<std::uint64_t>(
            remaining, ileave - (a % ileave));
        Chunk chunk;
        chunk.addr = a;
        chunk.size = static_cast<std::uint32_t>(in_chunk);
        chunk.isWrite = req.isWrite;
        chunk.enqueued = curTick();
        chunk.parent = parent;
        const auto coord = map_.decode(a);
        queues_[coord.channel].push_back(std::move(chunk));
        if (!pump_scheduled_[coord.channel]) {
            pump_scheduled_[coord.channel] = true;
            eventq().scheduleIn(0,
                                [this, ch = coord.channel] { pump(ch); },
                                EventQueue::controllerMin);
        }
        a += in_chunk;
        remaining -= in_chunk;
    }
}

void
MemCtrl::pump(std::uint32_t channel)
{
    pump_scheduled_[channel] = false;
    auto &q = queues_[channel];
    if (q.empty())
        return;

    // The data bus serialises chunks; wait for it to free up.
    if (busy_until_[channel] > curTick()) {
        pump_scheduled_[channel] = true;
        eventq().schedule(busy_until_[channel],
                          [this, channel] { pump(channel); },
                          EventQueue::controllerMin);
        return;
    }

    // FR-FCFS: prefer the oldest request that hits an open row,
    // searching a bounded window past the head so misses cannot
    // starve.
    std::size_t pick = 0;
    const std::size_t window = std::min(q.size(), frfcfsWindow);
    for (std::size_t i = 0; i < window; ++i) {
        const auto coord = map_.decode(q[i].addr);
        const std::size_t bank_idx =
            (std::size_t(coord.channel) * map_.ranksPerChannel()
             + coord.rank) * map_.banksPerRank() + coord.bank;
        if (open_row_[bank_idx]
            == static_cast<std::int64_t>(coord.row)) {
            pick = i;
            break;
        }
    }
    if (pick != 0)
        ++stats_.frfcfsBypasses;
    Chunk chunk = std::move(q[pick]);
    q.erase(q.begin() + static_cast<long>(pick));
    stats_.queueTicks += curTick() - chunk.enqueued;

    const Tick done = serviceChunk(chunk, curTick());
    busy_until_[channel] = done;

    eventq().schedule(done, [parent = chunk.parent, done] {
        if (--parent->first == 0 && parent->second)
            parent->second(done);
    });

    if (!q.empty()) {
        pump_scheduled_[channel] = true;
        eventq().schedule(done, [this, channel] { pump(channel); },
                          EventQueue::controllerMin);
    }
}

Tick
MemCtrl::serviceChunk(const Chunk &chunk, Tick start)
{
    const auto coord = map_.decode(chunk.addr);
    const auto &dev = cfg_.rank.device;

    Tick t = start;
    // Refresh lock (bank-granular under REFpb, the whole rank under
    // all-bank REF), plus RAAMMT ACT-blocking when RFM is armed.
    if (refresh_) {
        const Tick stall = refresh_->accessStall(coord.rank,
                                                 coord.bank, t);
        if (stall > 0) {
            stats_.refreshStallTicks += stall;
            t += stall;
        }
    }
    // Host-Lockout NMA: the accelerator holds the rank.
    const Tick ext_lock =
        ext_lock_until_[std::size_t(coord.channel)
                            * map_.ranksPerChannel()
                        + coord.rank];
    if (ext_lock > t) {
        stats_.extLockStallTicks += ext_lock - t;
        t = ext_lock;
    }

    // Open-page policy: row hit needs CAS only; a miss precharges
    // the open row (if any) and activates the new one.
    const std::size_t bank_idx =
        (std::size_t(coord.channel) * map_.ranksPerChannel()
         + coord.rank) * map_.banksPerRank() + coord.bank;
    Tick access = dev.tCL;
    if (open_row_[bank_idx] == static_cast<std::int64_t>(coord.row)) {
        ++stats_.rowHits;
    } else {
        ++stats_.rowMisses;
        access += dev.tRCD;
        if (open_row_[bank_idx] >= 0)
            access += dev.tRP;
        open_row_[bank_idx] = coord.row;
        // Each row miss is an ACT: feed the RAA counters.
        if (refresh_)
            refresh_->noteActivates(coord.rank, coord.bank, 1);
    }

    // 128 B cross the rank per tBURST (paper Sec. 5: 32 bursts move
    // a 4 KiB page).
    const std::uint32_t bursts =
        (chunk.size + cfg_.bankInterleave - 1) / cfg_.bankInterleave;
    const Tick transfer = dev.tBURST * bursts;

    const Tick done = t + access + transfer;
    stats_.busyTicks += done - start;
    if (chunk.isWrite) {
        ++stats_.writes;
        stats_.bytesWritten += chunk.size;
    } else {
        ++stats_.reads;
        stats_.bytesRead += chunk.size;
    }
    return done;
}

double
MemCtrl::busFraction(Tick elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    return static_cast<double>(stats_.busyTicks)
        / (static_cast<double>(elapsed) * cfg_.channels);
}

std::size_t
MemCtrl::pendingRequests() const
{
    std::size_t n = 0;
    for (const auto &q : queues_)
        n += q.size();
    return n;
}

void
MemCtrl::registerMetrics(obs::MetricRegistry &r)
{
    const std::string p = name() + ".";
    r.counter(p + "reads", &stats_.reads);
    r.counter(p + "writes", &stats_.writes);
    r.counter(p + "bytesRead", &stats_.bytesRead);
    r.counter(p + "bytesWritten", &stats_.bytesWritten);
    r.counter(p + "rowHits", &stats_.rowHits);
    r.counter(p + "rowMisses", &stats_.rowMisses);
    r.counter(p + "frfcfsBypasses", &stats_.frfcfsBypasses,
              "row hits served out of order");
    r.counter(p + "busyTicks", &stats_.busyTicks,
              "data-bus occupancy, all channels");
    r.counter(p + "refreshStallTicks", &stats_.refreshStallTicks,
              "waited on tRFC locks");
    r.counter(p + "extLockStallTicks", &stats_.extLockStallTicks,
              "waited on NMA rank lockouts");
    r.counter(p + "queueTicks", &stats_.queueTicks,
              "total queueing delay");
    r.derived(p + "rowHitRate",
              [this] { return stats_.rowHitRate(); });
}

} // namespace dram
} // namespace xfm
