/**
 * @file
 * Disaggregated far memory (DFM) backend — the paper's Sec. 3
 * comparator.
 *
 * Instead of compressing cold pages into local DRAM, a DFM keeps
 * them *uncompressed* in a remote pool behind a serial interconnect
 * (CXL/PCIe class). Swaps cost link latency plus transfer time but
 * no CPU compression cycles; capacity is statically provisioned
 * (no elasticity), which is exactly the trade-off the cost model
 * quantifies.
 */

#ifndef XFM_SFM_DFM_BACKEND_HH
#define XFM_SFM_DFM_BACKEND_HH

#include <map>

#include "dram/phys_mem.hh"
#include "fault/fault.hh"
#include "obs/registry.hh"
#include "obs/tracer.hh"
#include "sfm/backend.hh"
#include "sim/sim_object.hh"

namespace xfm
{
namespace sfm
{

/** DFM interconnect and pool parameters. */
struct DfmBackendConfig
{
    std::uint64_t localBase = 0;   ///< local region base address
    std::uint64_t localPages = 0;  ///< local region size in pages
    std::uint64_t poolBase = 0;    ///< remote pool base address
    std::uint64_t poolBytes = 0;   ///< provisioned pool capacity

    /** Link fault scenario (DfmLinkDelay / DfmLinkDrop sites). The
     *  default plan is disarmed and adds no overhead. */
    fault::FaultPlan faults{};
    /** Bounded retry for dropped link transfers. */
    fault::RetryPolicy retry{};
};

/** Link-level fault statistics (zero unless a plan is armed). */
struct DfmFaultStats
{
    std::uint64_t linkDelays = 0;    ///< latency spikes injected
    std::uint64_t linkDrops = 0;     ///< transfers dropped
    std::uint64_t linkRetries = 0;   ///< re-transfers attempted
    std::uint64_t deliveryFailures = 0;  ///< retries exhausted
};

/**
 * CXL/PCIe-pool far-memory backend.
 */
class DfmBackend : public SimObject, public SfmBackend
{
  public:
    DfmBackend(std::string name, EventQueue &eq,
               const DfmBackendConfig &cfg, dram::PhysMem &mem);

    void swapOut(VirtPage page, bool allow_offload,
                 SwapCallback done) override;
    void swapIn(VirtPage page, bool allow_offload,
                SwapCallback done) override;
    PageState pageState(VirtPage page) const override;
    void compact() override {}  // nothing to compact: fixed slots
    std::uint64_t farPageCount() const override
    {
        return entries_.size();
    }
    std::uint64_t storedCompressedBytes() const override
    {
        // DFM stores pages uncompressed.
        return entries_.size() * pageBytes;
    }
    const BackendStats &stats() const override { return stats_; }

    /** Local frame address of a virtual page. */
    std::uint64_t
    frameAddr(VirtPage page) const
    {
        return cfg_.localBase + page * pageBytes;
    }

    Bytes readLocalPage(VirtPage page) const override
    {
        return mem_.read(frameAddr(page), pageBytes);
    }
    void writeLocalPage(VirtPage page, ByteSpan data) override
    {
        mem_.write(frameAddr(page), data);
    }

    /** Pool slots provisioned / free. */
    std::uint64_t poolSlots() const
    {
        return cfg_.poolBytes / pageBytes;
    }
    std::uint64_t freeSlots() const
    {
        return poolSlots() - entries_.size();
    }

    /** Time to move one page across the link. */
    Tick pageTransferTime() const;

    const fault::FaultInjector &faultInjector() const
    {
        return injector_;
    }

    /** Register backend + link-fault metrics under `<name()>.*`. */
    void registerMetrics(obs::MetricRegistry &r);

    /**
     * Attach a span tracer (null detaches). Each swap records a
     * SwapOut/SwapIn span whose DfmLink leg covers the modelled
     * transfer (including injected delays and re-transfers).
     */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

  private:
    /**
     * Model one page transfer across the faulty link: evaluates
     * delay spikes and drops, retrying dropped transfers with
     * exponential backoff up to the retry budget.
     *
     * @param[out] total    modelled wall time of all attempts.
     * @param[out] retries  re-transfers consumed.
     * @return true when the page was eventually delivered.
     */
    bool transferPage(Tick &total, std::uint32_t &retries);

    DfmBackendConfig cfg_;
    dram::PhysMem &mem_;
    fault::FaultInjector injector_;
    DfmFaultStats fault_stats_;
    /** Virtual page -> pool slot index. */
    std::map<VirtPage, std::uint64_t> entries_;
    std::vector<std::uint64_t> free_slots_;
    BackendStats stats_;
    obs::Tracer *tracer_ = nullptr;
};

} // namespace sfm
} // namespace xfm

#endif // XFM_SFM_DFM_BACKEND_HH
