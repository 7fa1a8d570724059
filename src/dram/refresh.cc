#include "refresh.hh"

#include <algorithm>

#include "common/logging.hh"

namespace xfm
{
namespace dram
{

bool
RefreshWindow::coversRow(std::uint32_t row,
                         std::uint32_t rows_per_bank) const
{
    // The refreshed range may wrap at the end of the bank.
    const std::uint32_t rel =
        (row + rows_per_bank - firstRow) % rows_per_bank;
    return rel < rowCount;
}

RefreshController::RefreshController(std::string name, EventQueue &eq,
                                     const DeviceConfig &dev,
                                     std::uint32_t num_ranks)
    : SimObject(std::move(name), eq), dev_(dev), num_ranks_(num_ranks),
      refresh_counter_(num_ranks, 0),
      window_start_(num_ranks, maxTick),
      ab_lock_end_(num_ranks, 0),
      pb_window_start_(std::size_t(num_ranks) * dev.banksPerChip,
                       maxTick),
      pb_lock_end_(std::size_t(num_ranks) * dev.banksPerChip, 0),
      raa_(std::size_t(num_ranks) * dev.banksPerChip, 0),
      contrib_(std::size_t(num_ranks) * dev.banksPerChip)
{
    XFM_ASSERT(num_ranks_ > 0, "need at least one rank");
    XFM_ASSERT(dev_.tRFC < dev_.tREFI(),
               "tRFC must be shorter than tREFI");
    if (dev_.refreshMode == RefreshMode::RefPb) {
        XFM_ASSERT(dev_.banksPerChip > 0, "need at least one bank");
        XFM_ASSERT(dev_.tSTAG > 0, "REFpb stagger must be non-zero");
        XFM_ASSERT(static_cast<Tick>(dev_.banksPerChip - 1)
                           * dev_.tSTAG
                       + dev_.tRFCpb
                   <= dev_.tREFI(),
                   "staggered REFpb train must fit in one tREFI");
    }
}

void
RefreshController::start()
{
    if (started_)
        return;
    started_ = true;
    // Stagger REF commands across ranks within one tREFI.
    for (std::uint32_t r = 0; r < num_ranks_; ++r) {
        const Tick phase = dev_.tREFI()
            * static_cast<std::uint64_t>(r) / num_ranks_;
        eventq().schedule(curTick() + phase,
                          [this, r] { issueRef(r); },
                          EventQueue::refreshPriority);
    }
}

void
RefreshController::addListener(RefreshListener listener)
{
    listeners_.push_back(std::move(listener));
}

void
RefreshController::addRfmListener(RfmListener listener)
{
    rfm_listeners_.push_back(std::move(listener));
}

void
RefreshController::noteActivates(std::uint32_t rank,
                                 std::uint32_t bank,
                                 std::uint64_t count,
                                 std::uint32_t source)
{
    if (!rfmArmed() || count == 0)
        return;
    XFM_ASSERT(rank < num_ranks_, "rank out of range");
    XFM_ASSERT(bank < dev_.banksPerChip, "bank out of range");
    const std::size_t idx = bankIndex(rank, bank);
    rstats_.activationsNoted += count;
    // The device caps the RAA counter at RAAMMT: beyond it further
    // ACTs are blocked (accessStall), not counted.
    raa_[idx] = std::min<std::uint64_t>(raa_[idx] + count,
                                        dev_.effectiveRaammt());
    contrib_[idx][source] += count;
}

std::uint64_t
RefreshController::raa(std::uint32_t rank, std::uint32_t bank) const
{
    XFM_ASSERT(rank < num_ranks_, "rank out of range");
    XFM_ASSERT(bank < dev_.banksPerChip, "bank out of range");
    return raa_[bankIndex(rank, bank)];
}

bool
RefreshController::takeRfm(std::uint32_t rank, std::uint32_t bank,
                           std::uint32_t report_bank,
                           std::uint32_t stolen_slots)
{
    if (!rfmArmed())
        return false;
    const std::size_t idx = bankIndex(rank, bank);
    if (raa_[idx] < dev_.rfmRaaimt)
        return false;
    raa_[idx] -= dev_.rfmRaaimt;
    // Charge the dominant activation source since the last RFM
    // (ordered map iteration: ties resolve to the lowest id).
    std::uint32_t source = hostSource;
    std::uint64_t best = 0;
    for (const auto &kv : contrib_[idx]) {
        if (kv.second > best) {
            best = kv.second;
            source = kv.first;
        }
    }
    contrib_[idx].clear();
    ++rstats_.rfmCommands;
    rstats_.rfmStolenSlots += stolen_slots;
    for (const auto &listener : rfm_listeners_)
        listener(rank, report_bank, source, stolen_slots);
    return true;
}

void
RefreshController::issueRef(std::uint32_t rank)
{
    ++refs_issued_;
    window_start_[rank] = curTick();
    const std::uint32_t first_row = refresh_counter_[rank];
    refresh_counter_[rank] =
        (first_row + dev_.rowsPerRefresh) % dev_.rowsPerBank;

    if (dev_.refreshMode == RefreshMode::RefPb) {
        // One REFpb per bank, staggered by tSTAG within the tREFI.
        issuePbWindow(rank, 0, first_row);
        for (std::uint32_t b = 1; b < dev_.banksPerChip; ++b) {
            eventq().scheduleIn(
                static_cast<Tick>(b) * dev_.tSTAG,
                [this, rank, b, first_row] {
                    issuePbWindow(rank, b, first_row);
                },
                EventQueue::refreshPriority);
        }
    } else {
        RefreshWindow window;
        window.rank = rank;
        window.start = curTick();
        window.firstRow = first_row;
        window.rowCount = dev_.rowsPerRefresh;
        Tick lock = dev_.tRFC;
        if (rfmArmed()) {
            // An all-bank REF carries at most one RFM: the hottest
            // bank past RAAIMT (ties to the lowest bank id).
            std::uint32_t hot = 0;
            std::uint64_t hot_raa = 0;
            for (std::uint32_t b = 0; b < dev_.banksPerChip; ++b) {
                const std::uint64_t v = raa_[bankIndex(rank, b)];
                if (v > hot_raa) {
                    hot_raa = v;
                    hot = b;
                }
            }
            if (hot_raa >= dev_.rfmRaaimt
                && takeRfm(rank, hot, RefreshWindow::allBanks,
                           maxAccessesPerTrfc(dev_))) {
                window.rfm = true;
                lock += dev_.tRFM;
            }
        }
        window.hira = dev_.hira && !window.rfm;
        if (window.hira)
            ++rstats_.hiraWindows;
        window.end = curTick() + lock;
        ab_lock_end_[rank] = window.end;

        for (const auto &listener : listeners_)
            listener(window);
    }

    eventq().scheduleIn(dev_.tREFI(), [this, rank] { issueRef(rank); },
                        EventQueue::refreshPriority);
}

void
RefreshController::issuePbWindow(std::uint32_t rank,
                                 std::uint32_t bank,
                                 std::uint32_t first_row)
{
    const std::size_t idx = bankIndex(rank, bank);
    ++rstats_.pbWindows;

    RefreshWindow window;
    window.rank = rank;
    window.bank = bank;
    window.start = curTick();
    window.firstRow = first_row;
    window.rowCount = dev_.rowsPerRefresh;
    Tick lock = dev_.tRFCpb;
    if (takeRfm(rank, bank, bank,
                std::max(1u, maxAccessesPerWindowOf(dev_,
                                                    dev_.tRFCpb)))) {
        window.rfm = true;
        lock += dev_.tRFM;
    }
    window.hira = dev_.hira && !window.rfm;
    if (window.hira)
        ++rstats_.hiraWindows;
    window.end = curTick() + lock;
    pb_window_start_[idx] = window.start;
    pb_lock_end_[idx] = window.end;

    for (const auto &listener : listeners_)
        listener(window);
}

namespace
{

/** Phase of the first REF for a rank under the stagger policy. */
Tick
rankPhase(const DeviceConfig &dev, std::uint32_t rank,
          std::uint32_t num_ranks)
{
    return dev.tREFI() * static_cast<std::uint64_t>(rank) / num_ranks;
}

} // namespace

Tick
RefreshController::pbPhase(std::uint32_t rank,
                           std::uint32_t bank) const
{
    return rankPhase(dev_, rank, num_ranks_)
        + static_cast<Tick>(bank) * dev_.tSTAG;
}

bool
RefreshController::rankLocked(std::uint32_t rank, Tick when) const
{
    XFM_ASSERT(rank < num_ranks_, "rank out of range");
    if (!started_)
        return false;
    const Tick phase = rankPhase(dev_, rank, num_ranks_);
    if (when < phase)
        return false;
    const Tick rel = (when - phase) % dev_.tREFI();
    if (dev_.refreshMode == RefreshMode::RefPb) {
        // Union of the staggered per-bank windows: the candidate is
        // the latest bank whose window has started; earlier banks'
        // windows end no later than its.
        const Tick b = std::min<Tick>(dev_.banksPerChip - 1,
                                      rel / dev_.tSTAG);
        return rel < b * dev_.tSTAG + dev_.tRFCpb;
    }
    return rel < dev_.tRFC;
}

Tick
RefreshController::lockEnd(std::uint32_t rank, Tick when) const
{
    if (!rankLocked(rank, when))
        return when;
    const Tick phase = rankPhase(dev_, rank, num_ranks_);
    if (dev_.refreshMode == RefreshMode::RefPb) {
        // Extend through the contiguous run of overlapping per-bank
        // windows covering @p when (bounded by banksPerChip steps).
        Tick end = when;
        while (rankLocked(rank, end)) {
            const Tick kk = (end - phase) / dev_.tREFI();
            const Tick rel = (end - phase) % dev_.tREFI();
            const Tick b = std::min<Tick>(dev_.banksPerChip - 1,
                                          rel / dev_.tSTAG);
            end = phase + kk * dev_.tREFI() + b * dev_.tSTAG
                + dev_.tRFCpb;
        }
        return end;
    }
    const Tick k = (when - phase) / dev_.tREFI();
    return phase + k * dev_.tREFI() + dev_.tRFC;
}

bool
RefreshController::bankLocked(std::uint32_t rank, std::uint32_t bank,
                              Tick when) const
{
    return bankLockEnd(rank, bank, when) > when;
}

Tick
RefreshController::bankLockEnd(std::uint32_t rank,
                               std::uint32_t bank, Tick when) const
{
    XFM_ASSERT(rank < num_ranks_, "rank out of range");
    XFM_ASSERT(bank < dev_.banksPerChip, "bank out of range");
    Tick end = when;
    if (!started_)
        return end;
    if (dev_.refreshMode == RefreshMode::RefPb) {
        const Tick phase = pbPhase(rank, bank);
        if (when >= phase) {
            const Tick rel = (when - phase) % dev_.tREFI();
            if (rel < dev_.tRFCpb)
                end = when - rel + dev_.tRFCpb;
        }
        // The tracked interval carries any RFM extension of the
        // bank's current window.
        const std::size_t idx = bankIndex(rank, bank);
        if (when >= pb_window_start_[idx] && when < pb_lock_end_[idx])
            end = std::max(end, pb_lock_end_[idx]);
        return end;
    }
    // All-bank mode: the rank lock is the bank lock; the tracked
    // interval carries any RFM extension of the current window.
    if (rankLocked(rank, when))
        end = lockEnd(rank, when);
    if (when >= window_start_[rank] && when < ab_lock_end_[rank])
        end = std::max(end, ab_lock_end_[rank]);
    return end;
}

Tick
RefreshController::nextBankWindowStart(std::uint32_t rank,
                                       std::uint32_t bank,
                                       Tick when) const
{
    if (dev_.refreshMode != RefreshMode::RefPb)
        return nextWindowStart(rank, when);
    const Tick phase = pbPhase(rank, bank);
    if (when <= phase)
        return phase;
    const Tick k = (when - phase + dev_.tREFI() - 1) / dev_.tREFI();
    return phase + k * dev_.tREFI();
}

Tick
RefreshController::accessStall(std::uint32_t rank, std::uint32_t bank,
                               Tick when)
{
    Tick stall = 0;
    const Tick lock_end = bankLockEnd(rank, bank, when);
    if (lock_end > when)
        stall = lock_end - when;
    if (rfmArmed()
        && raa_[bankIndex(rank, bank)] >= dev_.effectiveRaammt()) {
        // RAAMMT reached: the ACT blocks until the bank's next
        // refresh slot carries an RFM and drains the counter.
        ++rstats_.raammtBlocks;
        const Tick next = nextBankWindowStart(rank, bank,
                                              when + stall);
        const Tick window = dev_.refreshMode == RefreshMode::RefPb
            ? dev_.tRFCpb : dev_.tRFC;
        const Tick drained = next + window + dev_.tRFM;
        if (drained > when + stall)
            stall = drained - when;
    }
    return stall;
}

Tick
RefreshController::nextWindowStart(std::uint32_t rank, Tick when) const
{
    XFM_ASSERT(rank < num_ranks_, "rank out of range");
    const Tick phase = rankPhase(dev_, rank, num_ranks_);
    if (when <= phase)
        return phase;
    const Tick k = (when - phase + dev_.tREFI() - 1) / dev_.tREFI();
    return phase + k * dev_.tREFI();
}

void
RefreshController::registerMetrics(obs::MetricRegistry &r,
                                   const std::string &prefix)
{
    const std::string p = prefix + ".refresh.";
    r.counter(p + "pbWindows", &rstats_.pbWindows,
              "per-bank REFpb windows issued");
    r.counter(p + "rfmCommands", &rstats_.rfmCommands,
              "RFMs forced by RAAIMT");
    r.counter(p + "rfmStolenSlots", &rstats_.rfmStolenSlots,
              "NMA service slots destroyed by RFMs");
    r.counter(p + "raammtBlocks", &rstats_.raammtBlocks,
              "host ACTs blocked at RAAMMT");
    r.counter(p + "hiraWindows", &rstats_.hiraWindows,
              "windows widened by HiRA overlap");
    r.counter(p + "activationsNoted", &rstats_.activationsNoted,
              "row activations fed into RAA counters");
}

} // namespace dram
} // namespace xfm
