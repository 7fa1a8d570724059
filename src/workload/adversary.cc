#include "workload/adversary.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/config.hh"
#include "common/logging.hh"

namespace xfm
{
namespace workload
{

RfmStarverConfig
RfmStarverConfig::fromConfig(const Config &cfg, RfmStarverConfig base)
{
    RfmStarverConfig c = base;
    c.pages = cfg.getU64("adversary.pages", c.pages);
    c.burstsPerSecond =
        cfg.getDouble("adversary.bursts_per_second", c.burstsPerSecond);
    c.activationsPerBurst = cfg.getU32("adversary.activations_per_burst",
                                       c.activationsPerBurst);
    c.targetDimm = cfg.getU32("adversary.target_dimm", c.targetDimm);
    c.sweepBanks = cfg.getBool("adversary.sweep_banks", c.sweepBanks);
    return c;
}

CovertConfig
CovertConfig::fromConfig(const Config &cfg, CovertConfig base)
{
    CovertConfig c = base;
    c.bits = cfg.getU32("covert.bits", c.bits);
    if (cfg.has("covert.bit_period_us"))
        c.bitPeriod =
            microseconds(cfg.getDouble("covert.bit_period_us"));
    c.burstsPerBit = cfg.getU32("covert.bursts_per_bit", c.burstsPerBit);
    c.activationsPerBurst = cfg.getU32("covert.activations_per_burst",
                                       c.activationsPerBurst);
    c.probesPerBit = cfg.getU32("covert.probes_per_bit", c.probesPerBit);
    c.scheduleSeed = cfg.getU64("covert.seed", c.scheduleSeed);
    return c;
}

bool
covertBit(std::uint64_t schedule_seed, std::uint32_t k)
{
    // splitmix64 over the bit position: both endpoints evaluate the
    // same schedule without sharing any simulation state.
    std::uint64_t z =
        schedule_seed + 0x9E3779B97F4A7C15ull * (k + 1ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return (z >> 63) != 0;
}

double
binaryEntropy(double p)
{
    if (p <= 0.0 || p >= 1.0)
        return 0.0;
    return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

namespace
{

/** Bank the starver (unless it sweeps) and the covert sender
 *  hammer on their target DIMM. */
constexpr std::uint32_t hammeredBank = 0;
/**
 * Minimum hi-lo spread (ns) of per-bit probe latencies before the
 * receiver trusts a decode threshold. A refresh-timing signal must
 * stall grants by at least about a tREFI; smaller spread is
 * dispatch-phase noise and the trace decodes as flat (all zeros).
 */
constexpr double flatSpreadNs = 4000.0;

/** Admit the model's tenant or die trying. */
service::TenantId
admit(service::FarMemoryService &svc, const std::string &who,
      service::TenantConfig tenant_cfg, std::uint64_t pages)
{
    tenant_cfg.pages = pages;
    const service::TenantId id = svc.addTenant(tenant_cfg);
    if (id == service::invalidTenant)
        fatal(who, ": tenant '", tenant_cfg.name,
              "' was not admitted");
    return id;
}

/** Validate a hammer target against the backend's geometry. */
void
checkTarget(const service::FarMemoryService &svc,
            const std::string &who, std::uint32_t dimm)
{
    const auto &sys = svc.config().system;
    if (dimm >= sys.numDimms)
        fatal(who, ": target DIMM ", dimm, " out of range (",
              sys.numDimms, " DIMMs)");
}

} // namespace

// --------------------------------------------------------------- //
//  RfmStarverModel                                                 //
// --------------------------------------------------------------- //

RfmStarverModel::RfmStarverModel(std::string name, EventQueue &eq,
                                 service::FarMemoryService &svc,
                                 const RfmStarverConfig &cfg,
                                 service::TenantConfig tenant_cfg)
    : SimObject(std::move(name), eq), svc_(svc), cfg_(cfg)
{
    XFM_ASSERT(cfg_.burstsPerSecond > 0.0,
               "starver needs a positive burst rate");
    XFM_ASSERT(cfg_.activationsPerBurst > 0,
               "starver needs activations per burst");
    checkTarget(svc_, this->name(), cfg_.targetDimm);
    tenant_ = admit(svc_, this->name(), std::move(tenant_cfg),
                    cfg_.pages);
}

void
RfmStarverModel::start()
{
    const Tick period = std::max<Tick>(
        1, static_cast<Tick>(seconds(1.0) / cfg_.burstsPerSecond));
    eventq().scheduleIn(period, [this] { burst(); });
}

void
RfmStarverModel::burst()
{
    ++stats_.bursts;
    if (svc_.arbiter().abuseThrottled(tenant_)) {
        // Throttled: the tenant's far-memory traffic is refused, so
        // its attributed activation pressure disappears with it.
        ++stats_.suppressedBursts;
    } else {
        const std::uint32_t banks =
            svc_.config().system.dimmMem.rank.device.banksPerChip;
        const std::uint32_t bank = cfg_.sweepBanks
            ? (bank_cursor_ = (bank_cursor_ + 1) % banks)
            : hammeredBank;
        svc_.backend().refresh().noteActivates(
            cfg_.targetDimm, bank, cfg_.activationsPerBurst,
            tenant_);
        stats_.activationsInjected += cfg_.activationsPerBurst;
    }
    const Tick period = std::max<Tick>(
        1, static_cast<Tick>(seconds(1.0) / cfg_.burstsPerSecond));
    eventq().scheduleIn(period, [this] { burst(); });
}

// --------------------------------------------------------------- //
//  CovertSenderModel                                               //
// --------------------------------------------------------------- //

CovertSenderModel::CovertSenderModel(std::string name,
                                     EventQueue &eq,
                                     service::FarMemoryService &svc,
                                     const CovertConfig &cfg,
                                     service::TenantConfig tenant_cfg)
    : SimObject(std::move(name), eq), svc_(svc), cfg_(cfg)
{
    XFM_ASSERT(cfg_.bitPeriod > 0, "bit period must be positive");
    XFM_ASSERT(cfg_.bits > 0, "need at least one bit");
    XFM_ASSERT(cfg_.burstsPerBit > 0 && cfg_.activationsPerBurst > 0,
               "sender needs hammer pressure for a 1 bit");
    checkTarget(svc_, this->name(), cfg_.targetDimm);
    tenant_ = admit(svc_, this->name(), std::move(tenant_cfg),
                    cfg_.pages);
}

void
CovertSenderModel::start()
{
    eventq().scheduleIn(cfg_.bitPeriod, [this] { bitStart(); });
}

void
CovertSenderModel::bitStart()
{
    if (bit_ >= cfg_.bits)
        return;  // transmission complete; fall silent
    const bool one = covertBit(cfg_.scheduleSeed, bit_);
    ++bit_;
    if (one)
        burst(cfg_.burstsPerBit);
    eventq().scheduleIn(cfg_.bitPeriod, [this] { bitStart(); });
}

void
CovertSenderModel::burst(std::uint32_t remaining)
{
    ++stats_.bursts;
    if (svc_.arbiter().abuseThrottled(tenant_)) {
        ++stats_.suppressedBursts;
    } else {
        svc_.backend().refresh().noteActivates(
            cfg_.targetDimm, hammeredBank, cfg_.activationsPerBurst,
            tenant_);
        stats_.activationsInjected += cfg_.activationsPerBurst;
    }
    if (remaining <= 1)
        return;
    const Tick gap =
        std::max<Tick>(1, cfg_.bitPeriod / cfg_.burstsPerBit);
    eventq().scheduleIn(gap, [this, remaining] {
        burst(remaining - 1);
    });
}

// --------------------------------------------------------------- //
//  CovertReceiverModel                                             //
// --------------------------------------------------------------- //

CovertReceiverModel::CovertReceiverModel(
    std::string name, EventQueue &eq,
    service::FarMemoryService &svc, const CovertConfig &cfg,
    service::TenantConfig tenant_cfg)
    : SimObject(std::move(name), eq), svc_(svc), cfg_(cfg),
      wait_min_ns_(cfg.bits, std::numeric_limits<double>::max())
{
    XFM_ASSERT(cfg_.probesPerBit > 0, "receiver needs probes");
    tenant_ = admit(svc_, this->name(), std::move(tenant_cfg),
                    cfg_.pages);
}

void
CovertReceiverModel::start()
{
    eventq().scheduleIn(cfg_.bitPeriod, [this] { bitStart(); });
}

void
CovertReceiverModel::bitStart()
{
    if (bit_ >= cfg_.bits) {
        // One full period after the last bit: late grants have
        // drained (or provably never will within a period).
        decode();
        return;
    }
    const std::uint32_t idx = bit_++;
    // Interior offsets only: a probe right at the bit edge would
    // sample the lane before the sender's first activations have
    // reached a REF slot and forced an RFM, reading a hammered
    // period as open.
    const Tick gap =
        std::max<Tick>(1, cfg_.bitPeriod / (cfg_.probesPerBit + 1));
    for (std::uint32_t p = 0; p < cfg_.probesPerBit; ++p)
        eventq().scheduleIn(std::max<Tick>(1, (p + 1) * gap),
                            [this, idx] { probe(idx); });
    eventq().scheduleIn(cfg_.bitPeriod, [this] { bitStart(); });
}

void
CovertReceiverModel::probe(std::uint32_t idx)
{
    ++stats_.probes;
    const Tick t0 = curTick();
    svc_.arbiter().enqueue(tenant_, [this, idx, t0] {
        ++stats_.probesServed;
        wait_min_ns_[idx] = std::min(wait_min_ns_[idx],
                                     ticksToNs(curTick() - t0));
    });
}

void
CovertReceiverModel::decode()
{
    if (stats_.bitsDecoded)
        return;  // already decoded
    // Per-bit signal = the FASTEST grant inside the period: during
    // a hammered bit even the best probe waits out stolen windows,
    // while one fast grant in an idle bit proves the lane was open
    // no matter how much queueing bled over from earlier bits. A
    // bit whose probes were never served at all saw effectively
    // unbounded latency — the strongest possible "hammered" signal.
    bit_latency_ns_ = wait_min_ns_;
    // A bit none of whose probes were ever served is pinned to a
    // huge-but-finite wait so threshold arithmetic stays sane.
    constexpr double starvedNs = 1.0e12;
    for (double &v : bit_latency_ns_)
        v = std::min(v, starvedNs);
    // The decode threshold sits in the largest relative gap of the
    // sorted per-bit latencies: hammered bits wait out whole bit
    // periods (and drain queues at different depths, so they spread
    // widely), idle bits sit at dispatch-phase scale, and the jump
    // between the two clusters dwarfs any jump inside either. A
    // flat trace (defense killed the modulation; spread below the
    // refresh-scale floor) has no usable threshold: everything
    // decodes 0 and BER collapses to the schedule's 1-density,
    // i.e. near-zero capacity.
    std::vector<double> sorted = bit_latency_ns_;
    std::sort(sorted.begin(), sorted.end());
    const double lo = sorted.front(), hi = sorted.back();
    const bool flat = !(hi > lo + flatSpreadNs);
    double threshold = hi + 1.0;
    double best = 0.0;
    for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
        const double a = sorted[k], b = sorted[k + 1];
        const double score = (b - a) / (a + flatSpreadNs);
        if (score > best) {
            best = score;
            threshold = a + (b - a) / 2.0;
        }
    }
    for (std::uint32_t k = 0; k < cfg_.bits; ++k) {
        const bool rx = !flat && bit_latency_ns_[k] >= threshold;
        ++stats_.bitsDecoded;
        if (rx != covertBit(cfg_.scheduleSeed, k))
            ++stats_.bitErrors;
    }
}

double
CovertReceiverModel::channelCapacityBps() const
{
    if (!stats_.bitsDecoded)
        return 0.0;
    const double rate =
        seconds(1.0) / static_cast<double>(cfg_.bitPeriod);
    return rate * (1.0 - binaryEntropy(stats_.bitErrorRate()));
}

} // namespace workload
} // namespace xfm
