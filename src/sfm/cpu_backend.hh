/**
 * @file
 * Baseline CPU SFM backend (zswap-style).
 *
 * The CPU reads the cold page from DRAM, compresses it, and stores
 * it via the ZPool; swap-ins reverse the path. Every operation
 * burns modelled CPU cycles (EQ3.4 cost) and, when a MemCtrl is
 * attached, issues the DRAM traffic whose interference Fig. 11
 * measures: a page read plus a compressed write on swap-out, and
 * the converse on swap-in.
 */

#ifndef XFM_SFM_CPU_BACKEND_HH
#define XFM_SFM_CPU_BACKEND_HH

#include <map>
#include <memory>

#include "compress/compressor.hh"
#include "dram/mem_ctrl.hh"
#include "dram/phys_mem.hh"
#include "obs/registry.hh"
#include "obs/tracer.hh"
#include "sfm/backend.hh"
#include "sfm/zpool.hh"
#include "sim/sim_object.hh"

namespace xfm
{
namespace sfm
{

/** Configuration of the baseline backend. */
struct CpuBackendConfig
{
    std::uint64_t localBase = 0;      ///< local region base address
    std::uint64_t localPages = 0;     ///< local region size in pages
    std::uint64_t sfmBase = 0;        ///< SFM region base address
    std::uint64_t sfmBytes = 0;       ///< SFM region size
    compress::Algorithm algorithm = compress::Algorithm::ZstdLike;
    double cpuFreqGHz = 2.6;          ///< Xeon E5-2670 (Sec. 3.1)
};

/**
 * zswap-style CPU backend.
 *
 * The red-black tree mapping faulting pages to SFM entries that
 * xfm_swap_out() consults (paper Sec. 6) is std::map here.
 */
class CpuSfmBackend : public SimObject, public SfmBackend
{
  public:
    /**
     * @param mem_ctrl optional: when non-null every swap issues real
     *        DRAM traffic through it (interference experiments).
     */
    CpuSfmBackend(std::string name, EventQueue &eq,
                  const CpuBackendConfig &cfg, dram::PhysMem &mem,
                  dram::MemCtrl *mem_ctrl = nullptr);

    void swapOut(VirtPage page, bool allow_offload,
                 SwapCallback done) override;
    void swapIn(VirtPage page, bool allow_offload,
                SwapCallback done) override;
    PageState pageState(VirtPage page) const override;
    /** Compact the zpool (xfm_compact()); swapOut runs it when an
     *  allocation fails. */
    void compact();
    std::uint64_t farPageCount() const override
    {
        return entries_.size() + same_filled_.size();
    }
    std::uint64_t storedCompressedBytes() const override
    {
        return pool_.usedBytes();
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

    const ZPool &pool() const { return pool_; }
    const CpuBackendConfig &config() const { return cfg_; }

    /** Register backend + ZPool metrics under `<name()>.*`. */
    void registerMetrics(obs::MetricRegistry &r);

    /**
     * Attach a span tracer (null detaches). Each swap records a
     * SwapOut/SwapIn request span with its CpuCompute leg.
     */
    void setTracer(obs::Tracer *t) { tracer_ = t; }

    /** Convert CPU cycles to simulated time. */
    Tick
    cyclesToTicks(double cycles) const
    {
        return static_cast<Tick>(cycles / cfg_.cpuFreqGHz * 1000.0);
    }

  protected:
    /** Synchronous CPU compression path (shared with XFM fallback). */
    void cpuSwapOut(VirtPage page, SwapCallback done);
    void cpuSwapIn(VirtPage page, SwapCallback done);

    CpuBackendConfig cfg_;
    dram::PhysMem &mem_;
    dram::MemCtrl *mem_ctrl_;
    ZPool pool_;
    std::unique_ptr<compress::Compressor> codec_;
    std::map<VirtPage, ZHandle> entries_;  ///< the rb-tree lookup
    /** Same-filled pages: virtual page -> 64-bit fill pattern. */
    std::map<VirtPage, std::uint64_t> same_filled_;
    BackendStats stats_;
    obs::Tracer *tracer_ = nullptr;
    /** Page/block staging reused across swaps (zero steady-state
     *  allocation once grown to the working size). */
    Bytes raw_scratch_;
    Bytes block_scratch_;
};

} // namespace sfm
} // namespace xfm

#endif // XFM_SFM_CPU_BACKEND_HH
