/**
 * @file
 * Pressure-driven SFM controller in the style of Meta's senpai/TMO
 * (paper Sec. 2.1): instead of scanning page-age like Google's
 * kstaled, it watches a memory-pressure signal (the rate of demand
 * faults, standing in for PSI) and continuously adjusts how
 * aggressively it reclaims, probing downward when pressure is low
 * and backing off when faults spike.
 */

#ifndef XFM_SFM_SENPAI_HH
#define XFM_SFM_SENPAI_HH

#include <vector>

#include "common/stats.hh"
#include "obs/registry.hh"
#include "sfm/backend.hh"
#include "sim/sim_object.hh"

namespace xfm
{
namespace sfm
{

/** Controller statistics. */
struct SenpaiStats
{
    std::uint64_t intervals = 0;
    std::uint64_t reclaimed = 0;
    std::uint64_t backoffs = 0;
    std::uint64_t probes = 0;
    std::uint64_t demandFaults = 0;
    stats::Average reclaimRate;  ///< pages per interval over time
};

/**
 * senpai-style proportional reclaim controller.
 *
 * Reclaim victims are chosen round-robin over the Local pages (the
 * kernel's LRU stands in); the pressure feedback loop is the point
 * of this controller, not victim selection. Its period, pressure
 * target and batch bounds are constants in senpai.cc, the
 * datacenter's seconds re-scaled to the simulator's milliseconds.
 */
class SenpaiController : public SimObject
{
  public:
    SenpaiController(std::string name, EventQueue &eq,
                     SfmBackend &backend, std::uint64_t num_pages);

    /** Begin the control loop. */
    void start();

    /**
     * The application touched @p page. Far pages fault and feed the
     * pressure signal.
     *
     * @retval true local hit.
     */
    bool recordAccess(VirtPage page);

    /** Current per-interval reclaim batch size. */
    std::size_t reclaimBatch() const { return reclaim_; }

    const SenpaiStats &stats() const { return stats_; }

    /** Register pressure-loop metrics under `<name()>.*`. */
    void registerMetrics(obs::MetricRegistry &r);

  private:
    void tick();

    SfmBackend &backend_;
    std::uint64_t num_pages_;
    bool started_ = false;

    std::size_t reclaim_;
    VirtPage clock_hand_ = 0;
    std::uint64_t faults_this_interval_ = 0;
    std::vector<bool> inflight_;

    SenpaiStats stats_;
};

} // namespace sfm
} // namespace xfm

#endif // XFM_SFM_SENPAI_HH
