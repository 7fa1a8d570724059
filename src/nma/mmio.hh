/**
 * @file
 * MMIO register file of an XFM DIMM.
 *
 * The driver talks to the DIMM exclusively through these registers;
 * every access is counted so tests can verify the backend's lazy
 * occupancy accounting really avoids synchronisation in the common
 * case (paper Sec. 6).
 */

#ifndef XFM_NMA_MMIO_HH
#define XFM_NMA_MMIO_HH

#include <array>
#include <cstdint>
#include <functional>

#include "common/stats.hh"

namespace xfm
{
namespace nma
{

/** Architectural register indices. */
enum class Reg : std::uint32_t
{
    SpCapacity,      ///< free SPM bytes (read-only)
    SfmRegionBase,   ///< physical base of the SFM region
    SfmRegionSize,   ///< SFM region size in bytes
    QueueDepth,      ///< occupied submission-queue slots (RO)
    Control,         ///< enable bit etc.
    SqTailDoorbell,  ///< SQ tail (batched doorbell)
    CqHeadDoorbell,  ///< CQ head (reap acknowledgement)
};

/**
 * Register file with access accounting.
 *
 * Read-only registers are backed by callbacks into device state so
 * an MMIO read always observes the live value.
 */
class RegisterFile
{
  public:
    using ReadHook = std::function<std::uint64_t()>;
    using WriteHook = std::function<void(std::uint64_t)>;

    /** Install the live-value provider for a read-only register. */
    void bindReadOnly(Reg reg, ReadHook hook);

    /** Install a device-side reaction to writes (doorbells). */
    void bindWrite(Reg reg, WriteHook hook);

    /** MMIO read (counted). */
    std::uint64_t read(Reg reg);

    /** MMIO write (counted); read-only registers reject writes. */
    void write(Reg reg, std::uint64_t value);

    std::uint64_t reads() const { return reads_.value(); }
    std::uint64_t writes() const { return writes_.value(); }

  private:
    struct Slot
    {
        std::uint64_t value = 0;
        ReadHook hook;        ///< non-null => read-only
        WriteHook writeHook;  ///< non-null => doorbell side effect
    };

    Slot &slot(Reg reg);

    std::array<Slot, 7> slots_;
    stats::Counter reads_;
    stats::Counter writes_;
};

} // namespace nma
} // namespace xfm

#endif // XFM_NMA_MMIO_HH
