/**
 * @file
 * Adversarial tenant models against the shared refresh machinery.
 *
 * With REFpb/RFM realism armed, a tenant's activation pressure raises
 * per-bank RAA counters until the device forces RFM commands that
 * destroy NMA service slots (and, at RAAMMT, block further activates
 * outright). That shared state is a resource-exhaustion surface and a
 * timing side channel; these models exercise both:
 *
 *  - RfmStarverModel: hammers one bank's RAA counter so RFMs steal
 *    the victim's service slots and RAAMMT blocks stall its CPU-path
 *    faults — a noisy-neighbour DoS in the RogueRFM mould.
 *
 *  - CovertSenderModel / CovertReceiverModel: a refresh-timing covert
 *    channel. The sender modulates RFM pressure per bit period
 *    (hammer = 1, idle = 0); the receiver probes its own arbiter lane
 *    and decodes bits from slot-grant latency. Both sides derive the
 *    bit schedule from a shared seed, so the receiver can report bit
 *    error rate and the resulting channel capacity.
 *
 * Each model admits its own tenant (like the app models) so the
 * defense layer can attribute, flag, and throttle it individually.
 * Hammering is injected via RefreshController::noteActivates with the
 * tenant id as the activation source — the modelling shortcut for
 * "this tenant's row-activation traffic", which a throttled tenant
 * loses along with its far-memory service.
 */

#ifndef XFM_WORKLOAD_ADVERSARY_HH
#define XFM_WORKLOAD_ADVERSARY_HH

#include <vector>

#include "common/config.hh"
#include "common/random.hh"
#include "service/service.hh"

namespace xfm
{
namespace workload
{

/** Shape of the RFM-starver attack. */
struct RfmStarverConfig
{
    /** Shard-local pages (the attacker still looks like a tenant). */
    std::uint64_t pages = 64;
    /** Hammer bursts per second. */
    double burstsPerSecond = 200000.0;
    /** Row activations injected per burst. */
    std::uint32_t activationsPerBurst = 32;
    /** DIMM (refresh-controller rank) under attack. */
    std::uint32_t targetDimm = 0;
    /** Bank under attack; ignored when sweepBanks is set. */
    std::uint32_t targetBank = 0;
    /** Rotate the hammered bank every burst (spread the pressure). */
    bool sweepBanks = false;
    /** Stop hammering after this many bursts (0 = unlimited); a
     *  bounded budget leaves a quiet tail for detector settlement. */
    std::uint64_t burstBudget = 0;
    std::uint64_t seed = 1;

    /** @p base with the adversary.* keys applied to the fields
     *  above (absent keys keep the base's value): adversary.pages,
     *  .bursts_per_second, .activations_per_burst, .target_dimm,
     *  .sweep_banks, .burst_budget. */
    static RfmStarverConfig
    fromConfig(const Config &cfg,
               RfmStarverConfig base = defaults<RfmStarverConfig>());
};

/** Attack-side statistics (starver and covert sender share it). */
struct AdversaryStats
{
    std::uint64_t bursts = 0;      ///< hammer bursts attempted
    std::uint64_t activationsInjected = 0;
    /** Bursts skipped while the abuse detector held the tenant
     *  throttled (the defense visibly bites here). */
    std::uint64_t suppressedBursts = 0;
};

/**
 * RFM slot-starvation attacker (one tenant).
 */
class RfmStarverModel : public SimObject
{
  public:
    /** Admits its own tenant via @p tenant_cfg (pages forced to
     *  cfg.pages); fatal if admission fails. */
    RfmStarverModel(std::string name, EventQueue &eq,
                    service::FarMemoryService &svc,
                    const RfmStarverConfig &cfg,
                    service::TenantConfig tenant_cfg);

    void start();

    service::TenantId tenantId() const { return tenant_; }
    const AdversaryStats &stats() const { return stats_; }

  private:
    void burst();

    service::FarMemoryService &svc_;
    RfmStarverConfig cfg_;
    service::TenantId tenant_;
    std::uint32_t bank_cursor_ = 0;
    AdversaryStats stats_;
};

/** Shared shape of the covert-channel pair. */
struct CovertConfig
{
    /** Shard-local pages per endpoint tenant. */
    std::uint64_t pages = 32;
    /** Signalling interval: one bit of the schedule per period. */
    Tick bitPeriod = microseconds(50.0);
    /** Bits transmitted before the channel falls silent. */
    std::uint32_t bits = 64;
    /** Sender hammer bursts within a 1-bit period. */
    std::uint32_t burstsPerBit = 8;
    /** Row activations injected per hammer burst. */
    std::uint32_t activationsPerBurst = 32;
    std::uint32_t targetDimm = 0;
    std::uint32_t targetBank = 0;
    /** Receiver arbiter-lane probes per bit period. */
    std::uint32_t probesPerBit = 4;
    /** Shared secret: both endpoints derive the bit schedule from
     *  it, so the receiver can self-score its decoding. */
    std::uint64_t scheduleSeed = 0x5eedu;
    /**
     * Minimum hi-lo spread (ns) of per-bit probe latencies before
     * the receiver trusts a decode threshold. A refresh-timing
     * signal must stall grants by at least about a tREFI; smaller
     * spread is dispatch-phase noise and the trace decodes as flat
     * (all zeros).
     */
    double flatThresholdNs = 4000.0;

    /** @p base with the covert.* keys applied to the fields above
     *  (absent keys keep the base's value): covert.bits,
     *  .bit_period_us, .bursts_per_bit, .activations_per_burst,
     *  .probes_per_bit, .seed (scheduleSeed). */
    static CovertConfig
    fromConfig(const Config &cfg,
               CovertConfig base = defaults<CovertConfig>());
};

/** The bit the shared schedule assigns to position @p k. */
bool covertBit(std::uint64_t schedule_seed, std::uint32_t k);

/** Binary entropy of @p p in bits (H2; 0 at p in {0, 1}). */
double binaryEntropy(double p);

/**
 * Covert-channel sender: modulates RFM pressure by the schedule.
 */
class CovertSenderModel : public SimObject
{
  public:
    CovertSenderModel(std::string name, EventQueue &eq,
                      service::FarMemoryService &svc,
                      const CovertConfig &cfg,
                      service::TenantConfig tenant_cfg);

    void start();

    service::TenantId tenantId() const { return tenant_; }
    const AdversaryStats &stats() const { return stats_; }
    std::uint32_t bitsSent() const { return bit_; }

  private:
    void bitStart();
    void burst(std::uint32_t remaining);

    service::FarMemoryService &svc_;
    CovertConfig cfg_;
    service::TenantId tenant_;
    std::uint32_t bit_ = 0;  ///< schedule position
    AdversaryStats stats_;
};

/** Receiver-side decode results. */
struct CovertReceiverStats
{
    std::uint64_t probes = 0;      ///< arbiter probes issued
    std::uint64_t probesServed = 0;
    std::uint32_t bitsDecoded = 0;
    std::uint32_t bitErrors = 0;

    double
    bitErrorRate() const
    {
        return bitsDecoded
            ? static_cast<double>(bitErrors) / bitsDecoded : 0.0;
    }
};

/**
 * Covert-channel receiver: probes its own arbiter lane and decodes
 * the schedule from slot-grant latency.
 */
class CovertReceiverModel : public SimObject
{
  public:
    CovertReceiverModel(std::string name, EventQueue &eq,
                        service::FarMemoryService &svc,
                        const CovertConfig &cfg,
                        service::TenantConfig tenant_cfg);

    void start();

    service::TenantId tenantId() const { return tenant_; }
    const CovertReceiverStats &stats() const { return stats_; }

    /** True once all cfg.bits bit periods have been sampled. */
    bool done() const { return stats_.bitsDecoded >= cfg_.bits; }

    /** Fastest probe wait (ns) observed in each bit period — the
     *  minimum rides out queueing carried over from earlier bits,
     *  which the mean does not. */
    const std::vector<double> &bitLatencies() const
    {
        return bit_latency_ns_;
    }

    /**
     * Measured channel capacity in bits/s: the signalling rate
     * discounted by the binary symmetric channel's capacity at the
     * observed bit error rate, 1 - H2(BER). Zero until decoding ran.
     */
    double channelCapacityBps() const;

  private:
    void bitStart();
    void probe(std::uint32_t idx);
    void decode();

    service::FarMemoryService &svc_;
    CovertConfig cfg_;
    service::TenantId tenant_;
    std::uint32_t bit_ = 0;
    /** Fastest probe wait seen per bit period (indexed by bit). */
    std::vector<double> wait_min_ns_;
    std::vector<double> bit_latency_ns_;
    CovertReceiverStats stats_;
};

} // namespace workload
} // namespace xfm

#endif // XFM_WORKLOAD_ADVERSARY_HH
