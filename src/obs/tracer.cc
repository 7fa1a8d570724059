#include "tracer.hh"

#include <cstdio>

#include "common/logging.hh"

namespace xfm
{
namespace obs
{

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::SwapOut: return "swap_out";
      case Stage::SwapIn: return "swap_in";
      case Stage::Submit: return "submit";
      case Stage::Queue: return "queue";
      case Stage::WindowWait: return "window_wait";
      case Stage::Classify: return "classify";
      case Stage::Engine: return "engine";
      case Stage::SpmStage: return "spm_stage";
      case Stage::Writeback: return "writeback";
      case Stage::CpuCompute: return "cpu_compute";
      case Stage::DfmLink: return "dfm_link";
      case Stage::Fallback: return "fallback";
      case Stage::Complete: return "complete";
      case Stage::Health: return "health";
      case Stage::SqEnqueue: return "sq_enqueue";
      case Stage::CqReap: return "cq_reap";
      case Stage::TierShift: return "tier_shift";
      case Stage::RefPb: return "refpb";
      case Stage::Rfm: return "rfm";
      case Stage::SlotSteal: return "slot_steal";
    }
    return "unknown";
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity)
{
    XFM_ASSERT(capacity_ > 0, "tracer capacity must be positive");
    ring_.reserve(capacity_);
}

std::uint64_t
Tracer::begin()
{
    return next_req_++;
}

void
Tracer::record(std::uint64_t req, Stage stage, Tick start, Tick end,
               std::uint64_t arg)
{
    XFM_ASSERT(end >= start, "trace span ends before it starts");
    TraceEvent ev;
    ev.req = req;
    ev.stage = stage;
    ev.start = start;
    ev.end = end;
    ev.arg = arg;
    ++recorded_;
    if (ring_.size() < capacity_) {
        ring_.push_back(ev);
    } else {
        ring_[head_] = ev;
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
    }
}

std::vector<TraceEvent>
Tracer::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    return out;
}

std::string
Tracer::toJsonLines() const
{
    std::string out;
    char buf[256];
    for (const auto &ev : events()) {
        std::snprintf(buf, sizeof(buf),
                      "{\"req\": %llu, \"stage\": \"%s\", "
                      "\"start\": %llu, \"end\": %llu, "
                      "\"arg\": %llu}\n",
                      (unsigned long long)ev.req, stageName(ev.stage),
                      (unsigned long long)ev.start,
                      (unsigned long long)ev.end,
                      (unsigned long long)ev.arg);
        out += buf;
    }
    return out;
}

void
Tracer::clear()
{
    ring_.clear();
    head_ = 0;
    recorded_ = 0;
    dropped_ = 0;
    next_req_ = 1;
}

} // namespace obs
} // namespace xfm
