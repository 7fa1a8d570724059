#include "shed.hh"

#include "common/logging.hh"

namespace xfm
{
namespace health
{

ShedConfig
ShedConfig::fromConfig(const Config &cfg, ShedConfig base)
{
    ShedConfig c = base;
    c.enabled = cfg.getBool("shed.enabled", c.enabled);
    c.queueHigh = cfg.getU64("shed.queue_high", c.queueHigh);
    c.queueLow = cfg.getU64("shed.queue_low", c.queueLow);
    c.spmHigh = cfg.getDouble("shed.spm_high", c.spmHigh);
    c.spmLow = cfg.getDouble("shed.spm_low", c.spmLow);

    if (c.queueLow > c.queueHigh)
        fatal("shed.queue_low must not exceed shed.queue_high");
    if (c.spmHigh < 0.0 || c.spmHigh > 1.0 || c.spmLow < 0.0
        || c.spmLow > 1.0)
        fatal("shed SPM watermarks must be fractions in [0, 1]");
    if (c.spmLow > c.spmHigh)
        fatal("shed.spm_low must not exceed shed.spm_high");

    cfg.requireAllConsumed("shed.");
    return c;
}

OverloadShedder::OverloadShedder(const ShedConfig &cfg) : cfg_(cfg)
{
}

void
OverloadShedder::observe(std::size_t queued, double spm_fraction,
                         Tick now)
{
    if (!cfg_.enabled)
        return;
    if (!shedding_) {
        if (queued > cfg_.queueHigh || spm_fraction > cfg_.spmHigh) {
            shedding_ = true;
            ++stats_.engages;
            if (tracer_) {
                if (!trace_req_)
                    trace_req_ = tracer_->begin();
                tracer_->point(trace_req_, obs::Stage::Shed, now, 1);
            }
        }
        return;
    }
    // Hysteresis: disengage only when both signals are calm again.
    if (queued <= cfg_.queueLow && spm_fraction <= cfg_.spmLow) {
        shedding_ = false;
        ++stats_.disengages;
        if (tracer_) {
            if (!trace_req_)
                trace_req_ = tracer_->begin();
            tracer_->point(trace_req_, obs::Stage::Shed, now, 0);
        }
    }
}

ShedDecision
OverloadShedder::decide(bool latency_class, bool is_swap_out)
{
    if (!cfg_.enabled || !shedding_ || latency_class)
        return ShedDecision::Admit;
    if (is_swap_out) {
        ++stats_.rejects;
        return ShedDecision::Reject;
    }
    ++stats_.downTiers;
    return ShedDecision::DownTier;
}

void
OverloadShedder::registerMetrics(obs::MetricRegistry &r,
                                 const std::string &prefix)
{
    if (!cfg_.enabled)
        return;
    const std::string p = prefix + ".";
    r.counter(p + "engages", &stats_.engages);
    r.counter(p + "disengages", &stats_.disengages);
    r.counter(p + "rejects", &stats_.rejects,
              "batch swap-outs refused while overloaded");
    r.counter(p + "downTiers", &stats_.downTiers,
              "batch ops forced onto the CPU path");
    r.derived(p + "active",
              [this] { return shedding_ ? 1.0 : 0.0; });
}

} // namespace health
} // namespace xfm
