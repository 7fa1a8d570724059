/**
 * @file
 * Auto-refresh and refresh-management controller.
 *
 * In the legacy all-bank mode (RefAb) one REF command per tREFI
 * locks the whole rank for tRFC and refreshes `rowsPerRefresh`
 * consecutive rows in every bank — exactly the behaviour XFM
 * piggybacks on. In per-bank mode (RefPb) each tREFI instead issues
 * one REFpb per bank, staggered by tSTAG, locking only the
 * refreshing bank for the shorter tRFCpb; the CPU keeps
 * DSARP-style refresh-access parallelism on the other banks while
 * the NMA serves each bank's narrower window in turn.
 *
 * RFM (Refresh Management) realism rides on top of either mode:
 * per-(rank, bank) rolling-activation (RAA) counters accumulate via
 * noteActivates(); once a bank crosses RAAIMT its next refresh slot
 * is converted into an RFM — the bank stays locked for tRFM past
 * its REF window and the NMA's service slots there are stolen. At
 * or above RAAMMT further host ACTs to the bank block until the RFM
 * drains the counter — the denial-of-service lever RogueRFM
 * weaponizes, surfaced to the memory controller via accessStall().
 * Every RFM is attributed to the dominant activation source since
 * the last RFM so the QoS layer can charge the tenant whose
 * activity destroyed the window time.
 *
 * Listeners (the NMA refresh-window scheduler) are notified at each
 * window start with the refreshed row range, the bank (allBanks in
 * RefAb mode), and the rfm/hira flags, so they can schedule
 * conditional accesses or account stolen slots.
 *
 * With refreshMode == RefAb, rfmRaaimt == 0, and hira off (all
 * defaults) the controller is byte-identical to the all-bank-only
 * model this file used to implement.
 */

#ifndef XFM_DRAM_REFRESH_HH
#define XFM_DRAM_REFRESH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "dram/ddr_config.hh"
#include "obs/registry.hh"
#include "sim/sim_object.hh"

namespace xfm
{
namespace dram
{

/** Description of one refresh window on a rank. */
struct RefreshWindow
{
    /** Sentinel bank id: the window covers every bank (RefAb). */
    static constexpr std::uint32_t allBanks = 0xffffffffu;

    std::uint32_t rank;
    Tick start;
    Tick end;                 ///< start + lock duration
    std::uint32_t firstRow;   ///< first row refreshed in every bank
    std::uint32_t rowCount;   ///< rowsPerRefresh (may wrap the bank)
    /** Bank being refreshed (allBanks for all-bank REF). */
    std::uint32_t bank = allBanks;
    /** An RFM rides this slot: the lock extends by tRFM and the
     *  NMA's service slots here are stolen. */
    bool rfm = false;
    /** HiRA overlap widens the NMA's slot budget this window. */
    bool hira = false;

    /** True if @p row is inside the refreshed range (with wrap). */
    bool coversRow(std::uint32_t row, std::uint32_t rows_per_bank) const;
};

/** Observer of refresh-window starts (e.g. the XFM NMA). */
using RefreshListener = std::function<void(const RefreshWindow &)>;

/**
 * Observer of RFM issue: (rank, bank, source, stolenSlots). The
 * bank is RefreshWindow::allBanks when an all-bank REF carried the
 * RFM; source is the dominant activation contributor since the last
 * RFM (hostSource when the host memory controller dominated).
 */
using RfmListener = std::function<void(
    std::uint32_t, std::uint32_t, std::uint32_t, std::uint32_t)>;

/** Refresh-management statistics (all zero while disarmed). */
struct RefreshStats
{
    std::uint64_t pbWindows = 0;     ///< per-bank REFpb windows
    std::uint64_t rfmCommands = 0;   ///< RFMs forced by RAAIMT
    std::uint64_t rfmStolenSlots = 0;  ///< NMA slots RFMs destroyed
    std::uint64_t raammtBlocks = 0;  ///< host ACTs blocked at RAAMMT
    std::uint64_t hiraWindows = 0;   ///< windows widened by HiRA
    std::uint64_t activationsNoted = 0;  ///< ACTs fed into RAA
};

/**
 * Auto-refresh engine for all ranks of a memory system.
 *
 * REF commands to different ranks are staggered across tREFI so the
 * power-delivery constraint the paper mentions (tSTAG) is honoured
 * at rank granularity; REFpb commands within a rank are further
 * staggered by tSTAG at bank granularity.
 */
class RefreshController : public SimObject
{
  public:
    /** Activation source id for the host memory controller. */
    static constexpr std::uint32_t hostSource = 0xffffffffu;

    RefreshController(std::string name, EventQueue &eq,
                      const DeviceConfig &dev, std::uint32_t num_ranks);

    /** Begin issuing REF commands (idempotent). */
    void start();

    /** Register an observer of window starts. */
    void addListener(RefreshListener listener);

    /** Register an observer of RFM issue (attribution feed). */
    void addRfmListener(RfmListener listener);

    /**
     * Feed @p count row activations on (rank, bank) into the RAA
     * counters, attributed to @p source (a tenant id, or hostSource
     * for plain memory-controller traffic). No-op while RFM is
     * disarmed (rfmRaaimt == 0), so the legacy model takes no new
     * state transitions.
     */
    void noteActivates(std::uint32_t rank, std::uint32_t bank,
                       std::uint64_t count,
                       std::uint32_t source = hostSource);

    /**
     * True if the rank is inside an all-bank tRFC window at @p when.
     * In RefPb mode this reports whether ANY bank of the rank is
     * locked (the union of the staggered per-bank windows).
     */
    bool rankLocked(std::uint32_t rank, Tick when) const;

    /** End of the lock covering @p when (or @p when if unlocked). */
    Tick lockEnd(std::uint32_t rank, Tick when) const;

    /**
     * True if (rank, bank) is locked at @p when: the all-bank
     * window in RefAb mode, the bank's own staggered REFpb window
     * (plus any RFM extension) in RefPb mode.
     */
    bool bankLocked(std::uint32_t rank, std::uint32_t bank,
                    Tick when) const;

    /** End of the bank lock covering @p when (@p when if open). */
    Tick bankLockEnd(std::uint32_t rank, std::uint32_t bank,
                     Tick when) const;

    /**
     * Delay before a host access to (rank, bank) may proceed at
     * @p when: the remaining refresh/RFM lock, plus — at or above
     * RAAMMT — the wait for the bank's next RFM slot to drain the
     * RAA counter (ACTs are blocked until then). Counts
     * raammtBlocks; 0 in the default disarmed configuration.
     */
    Tick accessStall(std::uint32_t rank, std::uint32_t bank,
                     Tick when);

    /** Next window start at or after @p when for @p rank. */
    Tick nextWindowStart(std::uint32_t rank, Tick when) const;

    /** Rows refreshed per REF command. */
    std::uint32_t rowsPerRefresh() const { return dev_.rowsPerRefresh; }

    /** Total REF commands issued so far (all ranks). */
    std::uint64_t refsIssued() const { return refs_issued_.value(); }

    /** Current RAA counter of (rank, bank). */
    std::uint64_t raa(std::uint32_t rank, std::uint32_t bank) const;

    /** True when RFM tracking is armed (rfmRaaimt != 0). */
    bool rfmArmed() const { return dev_.rfmRaaimt != 0; }

    /** True when any realism feature changes observable behaviour
     *  (per-bank mode, RFM, or HiRA). */
    bool realismArmed() const { return dev_.refreshRealismArmed(); }

    const RefreshStats &refreshStats() const { return rstats_; }

    /**
     * Register the `<prefix>.refresh.*` metric family. Call only
     * when realismArmed(): disarmed runs keep their metric
     * namespace unchanged (the byte-identity contract).
     */
    void registerMetrics(obs::MetricRegistry &r,
                         const std::string &prefix);

    /** Fraction of time each rank spends locked (tRFC / tREFI). */
    double
    lockedFraction() const
    {
        return static_cast<double>(dev_.tRFC)
            / static_cast<double>(dev_.tREFI());
    }

    const DeviceConfig &device() const { return dev_; }

  private:
    void issueRef(std::uint32_t rank);
    void issuePbWindow(std::uint32_t rank, std::uint32_t bank,
                       std::uint32_t first_row);

    /** Flat (rank, bank) state index. */
    std::size_t
    bankIndex(std::uint32_t rank, std::uint32_t bank) const
    {
        return std::size_t(rank) * dev_.banksPerChip + bank;
    }

    /** Closed-form start of bank @p bank's REFpb slot k = 0. */
    Tick pbPhase(std::uint32_t rank, std::uint32_t bank) const;

    /** Next REFpb slot start for (rank, bank) at or after @p when
     *  (RefAb mode: the rank's next all-bank slot). */
    Tick nextBankWindowStart(std::uint32_t rank, std::uint32_t bank,
                             Tick when) const;

    /** Consume the bank's RFM decision for a window starting now:
     *  returns true (and drains RAA, attributes, notifies) when the
     *  slot converts to an RFM. @p stolen_slots is reported to RFM
     *  listeners. */
    bool takeRfm(std::uint32_t rank, std::uint32_t bank,
                 std::uint32_t report_bank,
                 std::uint32_t stolen_slots);

    DeviceConfig dev_;
    std::uint32_t num_ranks_;
    bool started_ = false;

    /** Next row to refresh, per rank. */
    std::vector<std::uint32_t> refresh_counter_;
    /** Start of the current/most recent window, per rank. */
    std::vector<Tick> window_start_;
    /** Exact end of the most recent rank lock (RFM-extended). */
    std::vector<Tick> ab_lock_end_;
    /** Per-(rank, bank) most recent REFpb lock interval. */
    std::vector<Tick> pb_window_start_;
    std::vector<Tick> pb_lock_end_;
    /** Per-(rank, bank) rolling activation counters. */
    std::vector<std::uint64_t> raa_;
    /** Per-(rank, bank) activation attribution since last RFM
     *  (ordered map: the dominant-source pick is deterministic). */
    std::vector<std::map<std::uint32_t, std::uint64_t>> contrib_;

    std::vector<RefreshListener> listeners_;
    std::vector<RfmListener> rfm_listeners_;

    stats::Counter refs_issued_;
    RefreshStats rstats_;
};

} // namespace dram
} // namespace xfm

#endif // XFM_DRAM_REFRESH_HH
