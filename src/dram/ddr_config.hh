/**
 * @file
 * DDR device and DIMM configuration.
 *
 * Encodes the DDR4/DDR5 device geometries and timing parameters the
 * paper uses, including Table 1 (rows per bank, banks per chip,
 * tRFC, rows refreshed per tRFC, subarrays per bank) and the
 * methodology section's DDR4-2400 / 3200 MT/s settings.
 */

#ifndef XFM_DRAM_DDR_CONFIG_HH
#define XFM_DRAM_DDR_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/config.hh"
#include "common/units.hh"

namespace xfm
{

namespace dram
{

/**
 * Refresh command granularity.
 *
 * RefAb is the classic all-bank REF (the whole rank locks for tRFC,
 * the behaviour every pre-existing experiment is calibrated to).
 * RefPb issues per-bank REFpb commands staggered by tSTAG inside
 * each tREFI: only the refreshing bank locks (for the shorter
 * tRFCpb), so the CPU keeps DSARP-style refresh-access parallelism
 * while the NMA serves each bank's window in turn.
 */
enum class RefreshMode : std::uint8_t
{
    RefAb,
    RefPb,
};

const char *refreshModeName(RefreshMode m);

/**
 * Per-chip DRAM device configuration.
 *
 * A device is one DRAM chip; eight (x8) act in lockstep to form a
 * 64-bit rank.
 */
struct DeviceConfig
{
    std::string name;

    std::uint64_t capacityBits = 0;   ///< device density, e.g. 32 Gb
    std::uint32_t banksPerChip = 32;
    std::uint32_t rowsPerBank = 128 * 1024;
    std::uint32_t subarraysPerBank = 256;
    std::uint32_t rowBytesPerChip = 1024;  ///< page size per chip
    std::uint32_t dataWidthBits = 8;       ///< x8 device

    /** Rows refreshed in each bank by one REF command. */
    std::uint32_t rowsPerRefresh = 16;

    // Core timing parameters.
    Tick tCK = 625;              ///< clock period (3200 MT/s => 625ps)
    Tick tRCD = nanoseconds(14.0);
    Tick tCL = nanoseconds(14.0);
    Tick tRP = nanoseconds(14.0);
    Tick tRC = nanoseconds(46.0);
    Tick tRFC = nanoseconds(410.0);   ///< all-bank refresh duration
    Tick tBURST = picoseconds(2500);  ///< BL16 on DDR5 at 3200 MT/s
    Tick tSTAG = nanoseconds(10.0);   ///< stagger between bank refreshes

    /** DRAM retention time: every row refreshed once per interval. */
    Tick retention = milliseconds(32.0);

    /** REF commands per retention interval (JEDEC: 8192). */
    std::uint32_t refCommandsPerRetention = 8192;

    // Refresh-management realism (ISSUE 9). All default-off: with
    // refreshMode == RefAb and rfmRaaimt == 0 the controller is
    // byte-identical to the all-bank-only model.
    /** Refresh command granularity (RefAb = legacy all-bank). */
    RefreshMode refreshMode = RefreshMode::RefAb;
    /** Per-bank refresh duration (REFpb locks one bank this long). */
    Tick tRFCpb = nanoseconds(130.0);
    /**
     * RFM (Refresh Management) duration: the bank stays locked this
     * long past its REF window while the forced victim refresh runs.
     */
    Tick tRFM = nanoseconds(350.0);
    /**
     * RAA Initial Management Threshold: once a bank's rolling
     * activation counter reaches this, the controller must issue an
     * RFM at the bank's next refresh slot (stealing the NMA's
     * service window there). 0 disables RFM tracking entirely.
     */
    std::uint32_t rfmRaaimt = 0;
    /**
     * HiRA-like hidden row activation: refresh of one subarray
     * overlaps with activation elsewhere, widening the NMA's service
     * slots (the device adds hiraBonusSlots per window).
     */
    bool hira = false;

    /** True when any refresh-management feature changes behaviour. */
    bool
    refreshRealismArmed() const
    {
        return refreshMode != RefreshMode::RefAb || rfmRaaimt != 0
            || hira;
    }

    /**
     * RAA Maximum Management Threshold, 4 x rfmRaaimt: at or above
     * it, further ACTs to the bank are blocked until an RFM drains
     * the counter — the CPU-visible denial-of-service lever
     * RogueRFM weaponizes.
     */
    std::uint32_t
    raammt() const
    {
        return 4 * rfmRaaimt;
    }

    /** Derived: the average interval between REF commands. */
    Tick
    tREFI() const
    {
        return retention / refCommandsPerRetention;
    }

    /** Rows per subarray (Table 1 assumes 512). */
    std::uint32_t
    rowsPerSubarray() const
    {
        return rowsPerBank / subarraysPerBank;
    }

    /** Rows that must be refreshed per REF command to cover the
     *  bank within the retention time. */
    std::uint32_t
    requiredRowsPerRefresh() const
    {
        return (rowsPerBank + refCommandsPerRetention - 1)
            / refCommandsPerRetention;
    }

    /**
     * @p base with the refresh-realism keys applied to the fields
     * above (absent keys keep the base's value, so a config without
     * them stays byte-identical to the pre-realism model):
     * refresh.mode (refab | refpb), refresh.hira, rfm.raaimt.
     * Timing (tRFCpb and tRFM included) and geometry come from the
     * base only.
     */
    static DeviceConfig
    fromConfig(const Config &cfg,
               DeviceConfig base = defaults<DeviceConfig>());
};

/**
 * Maximum 4 KiB accesses an NMA can stream out of a rank within one
 * tRFC window (paper Sec. 5): the first page costs
 * tRCD + tCL + 32 x tBURST; subsequent pages overlap their
 * activation latency with the previous burst, costing 32 x tBURST
 * each. Yields 2 / 3 / 4 for 8 / 16 / 32 Gb DDR5 devices.
 */
std::uint32_t maxAccessesPerTrfc(const DeviceConfig &dev);

/** Same pipeline arithmetic for an arbitrary window length (e.g.
 *  tRFCpb for per-bank windows). Returns 0 when nothing fits. */
std::uint32_t maxAccessesPerWindowOf(const DeviceConfig &dev,
                                     Tick window);

/** Time offset (from window start) at which access @p k completes:
 *  first access pays the full activation, later ones pipeline. */
Tick accessCompletionOffset(const DeviceConfig &dev, std::uint32_t k);

/** Table 1 devices: 8 Gb, 16 Gb, and 32 Gb DDR5. */
DeviceConfig ddr5Device8Gb();
DeviceConfig ddr5Device16Gb();
DeviceConfig ddr5Device32Gb();

/**
 * A rank: eight x8 devices in lockstep (plus implicit ECC chips).
 * A DIMM in this model carries one or two ranks and one NMA in the
 * buffer device.
 */
struct RankConfig
{
    DeviceConfig device;
    std::uint32_t chipsPerRank = 8;

    /** Usable rank capacity in bytes (excluding ECC). */
    std::uint64_t
    capacityBytes() const
    {
        return device.capacityBits / 8 * chipsPerRank;
    }

    /** Bytes per DRAM row across the whole rank. */
    std::uint32_t
    rowBytes() const
    {
        return device.rowBytesPerChip * chipsPerRank;
    }
};

/** Full channel/DIMM topology for a simulated memory system. */
struct MemSystemConfig
{
    RankConfig rank;
    std::uint32_t channels = 4;
    std::uint32_t dimmsPerChannel = 2;
    std::uint32_t ranksPerDimm = 1;

    /** Peak per-channel bandwidth in bytes/sec. */
    double
    channelBandwidthBps() const
    {
        // Data bus: 8 bytes transferred per tCK (double data rate).
        return 8.0 * 2.0 / (static_cast<double>(rank.device.tCK) * 1e-12);
    }

    std::uint32_t
    totalRanks() const
    {
        return channels * dimmsPerChannel * ranksPerDimm;
    }

    std::uint64_t
    totalCapacityBytes() const
    {
        return rank.capacityBytes() * totalRanks();
    }
};

/** The paper's experimental platform: 6x 16 GiB DDR4 DIMMs. */
MemSystemConfig defaultMemSystem();

} // namespace dram
} // namespace xfm

#endif // XFM_DRAM_DDR_CONFIG_HH
