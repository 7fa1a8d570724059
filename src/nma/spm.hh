/**
 * @file
 * ScratchPad Memory (SPM): the NMA-local staging buffer.
 *
 * Output of the (de)compression engine is parked here with a
 * PENDING tag while compute is underway and a COMPLETED tag once it
 * is ready for write-back to DRAM in a later refresh window
 * (paper Fig. 10). Capacity pressure in the SPM is what back-
 * propagates into CPU fallbacks (Fig. 12).
 */

#ifndef XFM_NMA_SPM_HH
#define XFM_NMA_SPM_HH

#include <cstdint>
#include <map>

#include "common/units.hh"

#include "common/logging.hh"
#include "compress/compressor.hh"
#include "fault/fault.hh"
#include "nma/offload.hh"

namespace xfm
{
namespace nma
{

/** SPM entry lifecycle tag. */
enum class SpmTag
{
    Pending,    ///< engine still producing output
    Completed,  ///< ready for write-back
};

/** One staged buffer inside the SPM. */
struct SpmEntry
{
    OffloadId id = invalidOffloadId;
    SpmTag tag = SpmTag::Pending;
    OffloadKind kind = OffloadKind::Compress;
    Bytes data;               ///< engine output (valid when Completed)
    std::uint32_t reserved = 0;   ///< bytes of SPM this entry holds
    std::uint64_t dstAddr = 0;
    std::uint32_t dstRow = 0;     ///< dstAddr's row within its bank
    std::uint32_t dstBank = 0;    ///< dstAddr's bank
    bool writebackReady = false;  ///< destination committed
    Tick stagedAt = 0;            ///< when the entry turned Completed
    std::uint32_t partition = 0;  ///< QoS partition charged (0 = none)
};

/**
 * Byte-accounted scratchpad.
 *
 * Reservations are made pessimistically (worst-case output size)
 * when an offload is accepted and trimmed to the actual output size
 * when the engine completes, mirroring how the backend's lazy
 * occupancy bound over-approximates usage.
 */
class ScratchPad
{
  public:
    explicit ScratchPad(std::size_t capacity_bytes)
        : capacity_(capacity_bytes)
    {
        XFM_ASSERT(capacity_ > 0, "SPM capacity must be positive");
    }

    std::size_t capacityBytes() const { return capacity_; }
    std::size_t usedBytes() const { return used_; }
    std::size_t freeBytes() const { return capacity_ - used_; }
    std::size_t entryCount() const { return entries_.size(); }

    /**
     * Reserve @p bytes for a new offload.
     *
     * @param partition QoS partition to charge. Partition 0 is the
     *        default, uncapped partition; non-zero partitions may be
     *        byte-capped via setPartitionCap() so one tenant class
     *        cannot monopolise the SPM (multi-tenant arbitration).
     * @retval true reservation succeeded and an entry was created.
     * @retval false SPM (or the partition) is full; caller must fall
     *         back to the CPU.
     */
    bool reserve(OffloadId id, OffloadKind kind, std::uint32_t bytes,
                 std::uint32_t partition = 0);

    /**
     * Cap the bytes reservations tagged @p partition may hold
     * concurrently. Partition 0 cannot be capped (it is the
     * default/privileged partition). A cap of 0 removes the cap.
     */
    void setPartitionCap(std::uint32_t partition, std::size_t bytes);

    /**
     * Whether @p partition has room for @p bytes more under its cap.
     * Side-effect free: it draws nothing from the fault injector, so
     * a scheduler may test a candidate before committing to it.
     */
    bool
    partitionFits(std::uint32_t partition, std::uint32_t bytes) const
    {
        if (partition == 0)
            return true;
        const auto cap = partition_caps_.find(partition);
        return cap == partition_caps_.end()
            || partitionUsed(partition) + bytes <= cap->second;
    }

    /** Bytes currently reserved under @p partition. */
    std::size_t partitionUsed(std::uint32_t partition) const;

    /** Configured cap for @p partition (0 = uncapped). */
    std::size_t partitionCap(std::uint32_t partition) const;

    /** Store engine output and mark COMPLETED (trims reservation).
     *  @param when current tick, recorded as the staging time. */
    void complete(OffloadId id, Bytes output, Tick when = 0);

    /** Attach the write-back destination and its decoded row and
     *  bank (the window model tests those every refresh window). */
    void setDestination(OffloadId id, std::uint64_t dst_addr,
                        std::uint32_t dst_row, std::uint32_t dst_bank);

    /** Entry lookup; panics if missing. */
    const SpmEntry &entry(OffloadId id) const;

    /** True if the id currently holds an SPM entry. */
    bool contains(OffloadId id) const
    {
        return entries_.find(id) != entries_.end();
    }

    /**
     * Pop one COMPLETED, destination-committed entry (FIFO order).
     *
     * @retval true an entry was popped into @p out.
     */
    bool popWriteback(SpmEntry &out);

    /** Refill @p out with the ids of COMPLETED,
     *  destination-committed entries (FIFO). */
    void writebackIds(std::vector<OffloadId> &out) const;

    /** Remove and return a specific entry (for write-back). */
    SpmEntry take(OffloadId id);

    /** Drop an entry (e.g. aborted offload), releasing its bytes. */
    void release(OffloadId id);

    /**
     * Attach a fault injector (may be null to detach). reserve()
     * then evaluates SpmReserveFail on every call and
     * SpmHighWatermark whenever occupancy already exceeds the
     * plan's watermark fraction; either injection fails the
     * reservation, which the device treats exactly like a full SPM
     * (deferred execution -> eventual deadline drop -> CPU).
     */
    void setFaultInjector(fault::FaultInjector *inj)
    {
        injector_ = inj;
    }

  private:
    void uncharge(const SpmEntry &e, std::size_t bytes);

    fault::FaultInjector *injector_ = nullptr;
    std::size_t capacity_;
    std::size_t used_ = 0;
    std::map<OffloadId, SpmEntry> entries_;  ///< ordered => FIFO pops
    std::map<std::uint32_t, std::size_t> partition_caps_;
    std::map<std::uint32_t, std::size_t> partition_used_;
};

} // namespace nma
} // namespace xfm

#endif // XFM_NMA_SPM_HH
