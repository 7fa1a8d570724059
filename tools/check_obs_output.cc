/**
 * @file
 * check_obs_output: validate the files the simulators emit through
 * the observability layer.
 *
 * Modes:
 *   check_obs_output stats <stats.json>
 *     The file must be a JSON object with schema == xfm.metrics.v1
 *     and a non-empty "metrics" object whose values are numbers.
 *     The schema is additive-only: new metric families may appear,
 *     existing names never change meaning. When any async-ring
 *     metric (*.ring.*) is present the core ring family must be
 *     complete — a partial family means a registration bug.
 *
 *   check_obs_output trace <trace.jsonl>
 *     Every line must be a JSON object carrying integral req (> 0),
 *     start, end (end >= start), arg, and a stage drawn from the
 *     canonical stage vocabulary (including the ring stages
 *     sq_enqueue and cq_reap) — an unknown stage name means a
 *     producer/consumer skew in the trace schema.
 *
 *   check_obs_output health <stats.json>
 *     Everything `stats` checks, plus: at least one health-monitor
 *     state leaf (*.health.*.state) must be present, and every one
 *     must read healthy (0), degraded (1), or failed (2) — a monitor
 *     still in probation (3) at the end of a chaos soak means a
 *     half-open round never resolved, i.e. the breaker is stuck —
 *     and the summed *.health.*.trips must be non-zero: a soak whose
 *     breakers never opened proves nothing about their recovery.
 *     When shards were routed around open channels (summed
 *     *.shardCpuFallbacks > 0), the summed
 *     *.health.channel.breakerRejects must be non-zero too: each
 *     such shard was a refusal of its channel's breaker.
 *
 *   check_obs_output abuse <stats.json>
 *     Everything `stats` checks, plus: at least one abuse-monitor
 *     state leaf (*.abuse.state) must be present and settled (not
 *     probation), and the abuse detector must have escalated at
 *     least once — the contract of an adversarial soak's quiet tail.
 *
 * Exits 0 when the file validates, 1 with a diagnostic otherwise —
 * small enough for CI to run after every smoke simulation.
 */

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "obs/json.hh"
#include "obs/registry.hh"

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "check_obs_output: cannot read '%s'\n",
                     path.c_str());
        std::exit(1);
    }
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** The canonical trace-stage vocabulary (obs/tracer.cc). */
const std::set<std::string> &
knownStages()
{
    static const std::set<std::string> stages = {
        "swap_out",  "swap_in",   "submit",      "queue",
        "window_wait", "classify", "engine",     "spm_stage",
        "writeback", "cpu_compute", "dfm_link",  "fallback",
        "complete",  "health",    "sq_enqueue",  "cq_reap",
        "tier_shift", "refpb",    "rfm",         "slot_steal",
    };
    return stages;
}

int
fail(const std::string &path, const std::string &why)
{
    std::fprintf(stderr, "check_obs_output: %s: %s\n", path.c_str(),
                 why.c_str());
    return 1;
}

int
checkStats(const std::string &path)
{
    using xfm::obs::json::Value;
    Value v;
    std::string error;
    if (!xfm::obs::json::parse(slurp(path), v, error))
        return fail(path, "invalid JSON: " + error);
    if (!v.isObject())
        return fail(path, "top level is not an object");
    if (!v.has("schema")
        || !v.at("schema").isString()
        || v.at("schema").str() != xfm::obs::snapshotSchema)
        return fail(path, std::string("schema key missing or != ")
                              + xfm::obs::snapshotSchema);
    if (!v.has("metrics")
        || !v.at("metrics").isObject())
        return fail(path, "metrics object missing");
    const auto &metrics = v.at("metrics").object();
    if (metrics.empty())
        return fail(path, "metrics object is empty");
    for (const auto &[name, value] : metrics) {
        if (name.empty())
            return fail(path, "empty metric name");
        if (!value.isNumber())
            return fail(path, "metric '" + name
                                  + "' is not a number");
    }
    // Additive-only ring family check: a run with the async command
    // rings enabled exports `<dimm>.ring.*`; if any such leaf shows
    // up, the core counters of that queue pair must all be there.
    std::set<std::string> ring_families;
    for (const auto &[name, value] : metrics) {
        const std::size_t at = name.find(".ring.");
        if (at != std::string::npos)
            ring_families.insert(name.substr(0, at + 6));
    }
    for (const auto &family : ring_families) {
        for (const char *leaf :
             {"sqEnqueues", "doorbells", "consumed", "cqPosts",
              "reaped", "staleRejected", "phaseFlips",
              "sqOccupancy", "cqPending"}) {
            if (metrics.find(family + leaf) == metrics.end())
                return fail(path, "ring family '" + family
                                      + "*' is missing '" + leaf
                                      + "'");
        }
    }
    if (!ring_families.empty())
        std::printf("%s: %zu ring famil%s complete\n", path.c_str(),
                    ring_families.size(),
                    ring_families.size() == 1 ? "y" : "ies");
    // Same rule for the tier family: a tiered run exports
    // `<manager>.tier.*`; any such leaf means the TierManager
    // registered, so its full stats family must be there.
    std::set<std::string> tier_families;
    for (const auto &[name, value] : metrics) {
        const std::size_t at = name.find(".tier.");
        if (at != std::string::npos)
            tier_families.insert(name.substr(0, at + 6));
    }
    for (const auto &family : tier_families) {
        for (const char *leaf :
             {"demotedNearToXfm", "demotedNearToDfm",
              "demotedXfmToDfm", "promotedFromXfm",
              "promotedFromDfm", "spillScans", "spillRejects",
              "watermarkHolds", "nearPages", "xfmPages",
              "dfmPages"}) {
            if (metrics.find(family + leaf) == metrics.end())
                return fail(path, "tier family '" + family
                                      + "*' is missing '" + leaf
                                      + "'");
        }
    }
    if (!tier_families.empty())
        std::printf("%s: %zu tier famil%s complete\n", path.c_str(),
                    tier_families.size(),
                    tier_families.size() == 1 ? "y" : "ies");
    // Refresh-realism family: armed runs export `<name>.refresh.*`
    // (RefreshController::registerMetrics); any leaf means the
    // controller registered, so its full counter set must be there.
    std::set<std::string> refresh_families;
    for (const auto &[name, value] : metrics) {
        const std::size_t at = name.find(".refresh.");
        if (at != std::string::npos)
            refresh_families.insert(name.substr(0, at + 9));
    }
    for (const auto &family : refresh_families) {
        for (const char *leaf :
             {"pbWindows", "rfmCommands", "rfmStolenSlots",
              "raammtBlocks", "hiraWindows", "activationsNoted"}) {
            if (metrics.find(family + leaf) == metrics.end())
                return fail(path, "refresh family '" + family
                                      + "*' is missing '" + leaf
                                      + "'");
        }
    }
    if (!refresh_families.empty())
        std::printf("%s: %zu refresh famil%s complete\n",
                    path.c_str(), refresh_families.size(),
                    refresh_families.size() == 1 ? "y" : "ies");
    // Abuse-detector families come in two shapes: the arbiter's
    // totals (`<arbiter>.abuse.evals/flags/escalations`) and each
    // tenant's throttle monitor (`<tenant>.abuse.state/...`). A
    // family is identified by which anchor leaf it carries; either
    // way a partial family means a registration bug.
    std::set<std::string> abuse_families;
    for (const auto &[name, value] : metrics) {
        const std::size_t at = name.find(".abuse.");
        if (at != std::string::npos)
            abuse_families.insert(name.substr(0, at + 7));
    }
    for (const auto &family : abuse_families) {
        if (metrics.find(family + "evals") != metrics.end()) {
            for (const char *leaf : {"evals", "flags",
                                     "escalations"}) {
                if (metrics.find(family + leaf) == metrics.end())
                    return fail(path, "abuse family '" + family
                                          + "*' is missing '" + leaf
                                          + "'");
            }
        } else {
            for (const char *leaf : {"state", "successes", "faults",
                                     "trips", "breakerRejects"}) {
                if (metrics.find(family + leaf) == metrics.end())
                    return fail(path, "abuse family '" + family
                                          + "*' is missing '" + leaf
                                          + "'");
            }
        }
    }
    if (!abuse_families.empty())
        std::printf("%s: %zu abuse famil%s complete\n", path.c_str(),
                    abuse_families.size(),
                    abuse_families.size() == 1 ? "y" : "ies");
    std::printf("%s: ok (%zu metrics)\n", path.c_str(),
                metrics.size());
    return 0;
}

int
checkHealth(const std::string &path)
{
    using xfm::obs::json::Value;
    if (checkStats(path) != 0)
        return 1;
    Value v;
    std::string error;
    if (!xfm::obs::json::parse(slurp(path), v, error))
        return fail(path, "invalid JSON: " + error);
    const auto &metrics = v.at("metrics").object();
    std::size_t monitors = 0;
    double trips = 0.0;
    double channel_rejects = 0.0;
    double routed_shards = 0.0;
    for (const auto &[name, value] : metrics) {
        if (name.ends_with(".shardCpuFallbacks"))
            routed_shards += value.number();
        if (name.ends_with(".health.channel.breakerRejects"))
            channel_rejects += value.number();
        if (name.find(".health.") == std::string::npos)
            continue;
        if (name.ends_with(".trips"))
            trips += value.number();
        if (!name.ends_with(".state"))
            continue;
        ++monitors;
        const double s = value.number();
        if (s != 0.0 && s != 1.0 && s != 2.0)
            return fail(path, "monitor '" + name
                                  + "' ended the run in state "
                                  + std::to_string(s)
                                  + " (stuck breaker?)");
    }
    if (monitors == 0)
        return fail(path, "no health-monitor state leaves found "
                          "(was health.enabled set?)");
    if (trips < 1.0)
        return fail(path, "no health monitor ever tripped "
                          "(fault plan too weak to open a breaker?)");
    // Every shard routed around an open channel was refused by that
    // channel's breaker, so the refusals must show.
    if (routed_shards > 0.0 && channel_rejects < 1.0)
        return fail(path, "shards were routed around open channels "
                          "but no channel breakerRejects were counted");
    std::printf("%s: health ok (%zu monitors settled, %g trips, "
                "%g channel breakerRejects)\n",
                path.c_str(), monitors, trips, channel_rejects);
    return 0;
}

int
checkAbuse(const std::string &path)
{
    using xfm::obs::json::Value;
    if (checkStats(path) != 0)
        return 1;
    Value v;
    std::string error;
    if (!xfm::obs::json::parse(slurp(path), v, error))
        return fail(path, "invalid JSON: " + error);
    const auto &metrics = v.at("metrics").object();
    // Quiet-tail settlement: every tenant's throttle monitor must
    // have left probation (a stuck half-open round means the
    // detector never resolved the offender), and the detector must
    // actually have escalated at least once during the soak.
    std::size_t monitors = 0;
    double escalations = 0.0;
    for (const auto &[name, value] : metrics) {
        const std::size_t at = name.find(".abuse.");
        if (at == std::string::npos)
            continue;
        const std::string leaf = name.substr(at + 7);
        if (leaf == "escalations")
            escalations += value.number();
        if (leaf != "state")
            continue;
        ++monitors;
        const double s = value.number();
        if (s != 0.0 && s != 1.0 && s != 2.0)
            return fail(path, "abuse monitor '" + name
                                  + "' ended the run in state "
                                  + std::to_string(s)
                                  + " (stuck throttle?)");
    }
    if (monitors == 0)
        return fail(path, "no abuse-monitor state leaves found "
                          "(was qos.defense set?)");
    if (escalations < 1.0)
        return fail(path, "abuse detector never escalated "
                          "(attack not detected?)");
    std::printf("%s: abuse ok (%zu monitors settled, %g "
                "escalations)\n",
                path.c_str(), monitors, escalations);
    return 0;
}

int
checkTrace(const std::string &path)
{
    using xfm::obs::json::Value;
    const std::string text = slurp(path);
    std::size_t events = 0;
    std::size_t line_no = 0;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        ++line_no;
        if (line.empty())
            continue;
        const std::string where =
            "line " + std::to_string(line_no);
        Value v;
        std::string error;
        if (!xfm::obs::json::parse(line, v, error))
            return fail(path, where + ": invalid JSON: " + error);
        if (!v.isObject())
            return fail(path, where + ": not an object");
        for (const char *key : {"req", "start", "end", "arg"}) {
            if (!v.has(key) || !v.at(key).isIntegral())
                return fail(path, where + ": missing integral '"
                                      + key + "'");
        }
        if (v.at("req").integer() <= 0)
            return fail(path, where + ": req must be positive");
        if (v.at("end").integer() < v.at("start").integer())
            return fail(path, where + ": end precedes start");
        if (!v.has("stage")
            || !v.at("stage").isString()
            || v.at("stage").str().empty())
            return fail(path, where + ": missing stage string");
        if (knownStages().find(v.at("stage").str())
            == knownStages().end())
            return fail(path, where + ": unknown stage '"
                                  + v.at("stage").str() + "'");
        ++events;
    }
    std::printf("%s: ok (%zu events)\n", path.c_str(), events);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr,
                     "usage: check_obs_output stats <stats.json>\n"
                     "       check_obs_output trace <trace.jsonl>\n"
                     "       check_obs_output health <stats.json>\n"
                     "       check_obs_output abuse <stats.json>\n");
        return 1;
    }
    const std::string mode = argv[1];
    if (mode == "stats")
        return checkStats(argv[2]);
    if (mode == "trace")
        return checkTrace(argv[2]);
    if (mode == "health")
        return checkHealth(argv[2]);
    if (mode == "abuse")
        return checkAbuse(argv[2]);
    std::fprintf(stderr, "check_obs_output: unknown mode '%s'\n",
                 mode.c_str());
    return 1;
}
