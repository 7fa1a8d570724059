#include "obs/sinks.hh"

#include <cstdio>

#include "common/logging.hh"

namespace xfm
{
namespace obs
{

namespace
{

/** Write @p text to @p path, fatally on failure. */
void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot open '", path, "' for writing");
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

} // namespace

RunSinks::RunSinks(const Config &cfg)
    : stats_json_(cfg.getString("stats.json")),
      trace_out_(cfg.getString("trace.out")),
      tracer_(cfg.getU64("trace.cap", 65536))
{
}

std::string
RunSinks::write(const Snapshot &snap) const
{
    if (!stats_json_.empty())
        writeFile(stats_json_, snap.toJson());
    if (trace_out_.empty())
        return "";
    writeFile(trace_out_, tracer_.toJsonLines());
    return "trace: " + std::to_string(tracer_.recorded())
        + " events recorded, " + std::to_string(tracer_.dropped())
        + " dropped -> " + trace_out_;
}

} // namespace obs
} // namespace xfm
