/**
 * @file
 * Application-model workload generators for the tiered service.
 *
 * Two app shapes drive tier churn through the service layer:
 *
 *  - KvStoreModel: a memtier-like key-value arrival process.
 *    Requests arrive in pipelined bursts with exponential
 *    inter-burst gaps; keys are zipf-popular, so the shard splits
 *    into a hot head (stays NEAR), a warm middle (XFM), and a cold
 *    tail the spill scan pushes to DFM.
 *
 *  - InferenceBatchModel: an inference-serving working set. Each
 *    batch touches the weight pages sequentially (cyclic cursor —
 *    periodic reuse with long gaps, the canonical XFM-tier shape)
 *    plus a window of activation pages that drifts across the
 *    activation region, retiring pages behind it for demotion.
 *
 * Both are SimObjects over one tenant of a FarMemoryService: they
 * seed the shard with corpus content and issue `svc.access(tenant,
 * page)` streams, exactly like FleetDriver, so tier policies can be
 * compared under realistic application structure rather than a
 * single zipf knob.
 */

#ifndef XFM_WORKLOAD_APP_MODEL_HH
#define XFM_WORKLOAD_APP_MODEL_HH

#include "common/random.hh"
#include "compress/corpus.hh"
#include "service/service.hh"

namespace xfm
{
namespace workload
{

/** Shape of the memtier-like key-value arrival process. */
struct KvStoreConfig
{
    /** Shard-local pages backing the keyspace. */
    std::uint64_t pages = 128;
    /** Mean request rate (requests/s, arriving in pipelined
     *  bursts; 90% GETs, SETs rewrite the page content). */
    double opsPerSecond = 50000.0;
    /** Key-popularity skew (memtier's default gaussian roughly
     *  matches a high-theta zipf over pages). */
    double zipfTheta = 0.99;
    std::uint64_t seed = 1;
};

/** Per-model statistics (both app models share the struct). */
struct AppModelStats
{
    std::uint64_t requests = 0;   ///< page touches issued
    std::uint64_t bursts = 0;     ///< arrival events
    std::uint64_t localHits = 0;  ///< touches served from NEAR
    std::uint64_t faults = 0;     ///< touches that demand-faulted
    std::uint64_t writes = 0;     ///< SET-style page rewrites
};

/**
 * Memtier-like key-value tenant driver.
 */
class KvStoreModel : public SimObject
{
  public:
    /** Admits its own tenant via @p tenant_cfg (pages forced to
     *  cfg.pages); fatal if admission fails. */
    KvStoreModel(std::string name, EventQueue &eq,
                 service::FarMemoryService &svc,
                 const KvStoreConfig &cfg,
                 service::TenantConfig tenant_cfg);

    void start();

    service::TenantId tenantId() const { return tenant_; }
    const AppModelStats &stats() const { return stats_; }

  private:
    void burst();

    service::FarMemoryService &svc_;
    KvStoreConfig cfg_;
    service::TenantId tenant_;
    Rng rng_;
    AppModelStats stats_;
};

/** Shape of the inference-batch working-set model. */
struct InferenceBatchConfig
{
    /** Model-weight pages, touched cyclically every batch. */
    std::uint64_t weightPages = 96;
    /** Activation pages, used through a drifting window. */
    std::uint64_t activationPages = 64;
    /** Batch arrival rate (deterministic period — serving cadence
     *  is paced, not Poisson). */
    double batchesPerSecond = 200.0;
    /** Weight pages touched per batch (sequential cursor). */
    std::uint32_t batchTouches = 32;
    /** Live activation pages per batch. */
    std::uint32_t activationWindow = 16;
    /** Pages the activation window slides per batch; retired pages
     *  go cold and demote. */
    std::uint32_t driftPerBatch = 1;
    std::uint64_t seed = 1;
};

/**
 * Inference-serving tenant driver (weights + drifting activations).
 */
class InferenceBatchModel : public SimObject
{
  public:
    /** Admits its own tenant (pages forced to weightPages +
     *  activationPages); fatal if admission fails. */
    InferenceBatchModel(std::string name, EventQueue &eq,
                        service::FarMemoryService &svc,
                        const InferenceBatchConfig &cfg,
                        service::TenantConfig tenant_cfg);

    void start();

    service::TenantId tenantId() const { return tenant_; }
    const AppModelStats &stats() const { return stats_; }

  private:
    void batch();

    service::FarMemoryService &svc_;
    InferenceBatchConfig cfg_;
    service::TenantId tenant_;
    std::uint64_t weight_cursor_ = 0;
    std::uint64_t window_start_ = 0;  ///< activation window offset
    Rng rng_;
    AppModelStats stats_;
};

} // namespace workload
} // namespace xfm

#endif // XFM_WORKLOAD_APP_MODEL_HH
