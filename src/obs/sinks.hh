/**
 * @file
 * The files a command-line run writes its metric snapshot and trace
 * to.
 */

#ifndef XFM_OBS_SINKS_HH
#define XFM_OBS_SINKS_HH

#include <string>

#include "common/config.hh"
#include "obs/registry.hh"
#include "obs/tracer.hh"

namespace xfm
{
namespace obs
{

/**
 * A run's metric-snapshot and trace outputs. Config keys (all
 * optional; an unset path writes nothing):
 *   stats.json = out.json     # metric registry snapshot as JSON
 *   trace.out  = trace.jsonl  # per-swap span trace (JSON lines)
 *   trace.cap  = 65536        # trace ring capacity in events
 */
class RunSinks
{
  public:
    explicit RunSinks(const Config &cfg);

    /** The tracer to attach; null unless trace.out is set. */
    Tracer *tracer() { return trace_out_.empty() ? nullptr : &tracer_; }

    /** Write @p snap and the trace to the configured files.
     *  @return the trace summary line, empty when not tracing. */
    std::string write(const Snapshot &snap) const;

  private:
    std::string stats_json_;
    std::string trace_out_;
    Tracer tracer_;
};

} // namespace obs
} // namespace xfm

#endif // XFM_OBS_SINKS_HH
