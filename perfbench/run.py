#!/usr/bin/env python3
"""Repository benchmark for the XFM far-memory simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet|swap_cpu|swap_nma \
        --seed N --seconds S --trace 0|1

The first call builds perfbench/ (which compiles ../src) into
.bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench when that
is set. Each episode is one xfm_perfbench process: it builds the
workload from the seed, warms it up, measures one timed window of fixed
simulated length, then swaps every page back in and compares its bytes
with the generator. Episodes repeat until their timed windows add up
to --seconds, and host times are reported as medians over episodes.

--trace 0 prints every end-to-end metric of BENCHMARK.json, measured
with span recording off. --trace 1 alternates untraced and traced
episodes and prints every per-layer metric; the traced episodes write
their spans to <build>/spans/<workload>-seed<N>.json as they exit.

The result is the last line of stdout:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"attempted" counts audited pages plus episodes, "failed" the pages
whose bytes differed, the episodes whose simulated results differ from
the first episode's, and failed trace checks. Any failure prints the
result and exits 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fleet", "swap_cpu", "swap_nma")
MIN_EPISODES = 3          # untraced episodes with --trace 0
MIN_TRACED_EPISODES = 2   # of each kind with --trace 1
WALL_BUDGET_S = 110.0     # no new episode starts after this
EPISODE_TIMEOUT_S = 60.0
BUILD_TIMEOUT_S = 840.0
MIN_LAYER_COVERAGE = 0.95


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = Path.cwd() / out
    return out / "perfbench"


def build(bdir):
    """Configure and build xfm_perfbench; returns the binary path."""
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = bdir / "build.log"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(bdir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(bdir), "--target", "xfm_perfbench",
         "-j", "4"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=env, timeout=BUILD_TIMEOUT_S)
            if r.returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return bdir / "xfm_perfbench"


def run_episode(binary, workload, seed, spans_path=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if spans_path is not None:
        cmd += ["--trace", "--spans", str(spans_path)]
    r = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=EPISODE_TIMEOUT_S)
    if r.returncode != 0:
        fail(f"episode failed ({r.returncode}): {r.stderr.strip()}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def run_episodes(binary, args, spans_path):
    """Untraced episodes (and, with --trace 1, traced ones alternating
    with them) until the timed windows add up to --seconds."""
    kinds = [False, True] if args.trace else [False]
    need = MIN_TRACED_EPISODES if args.trace else MIN_EPISODES
    eps = {False: [], True: []}
    start = time.monotonic()
    windows = 0.0
    i = 0
    while True:
        enough = windows >= args.seconds and all(
            len(eps[k]) >= need for k in kinds)
        late = time.monotonic() - start > WALL_BUDGET_S
        if enough or (late and all(eps[k] for k in kinds)):
            return eps
        traced = kinds[i % len(kinds)]
        ep = run_episode(binary, args.workload, args.seed,
                         spans_path if traced else None)
        eps[traced].append(ep)
        windows += ep["window_s"]
        i += 1


def median(xs):
    return statistics.median(xs)


def end_to_end(eps):
    sim = eps[0]["sim"]
    sim_s = sim["window_ms"] / 1000.0
    return {
        "setup_s": median(e["setup_s"] for e in eps),
        "host_s_per_sim_ms": median(
            e["window_s"] / e["sim"]["window_ms"] for e in eps),
        "host_swaps_per_s": median(
            e["sim"]["swaps"] / e["window_s"] for e in eps),
        "peak_rss_mb": median(e["peak_rss_mb"] for e in eps),
        "sim_swaps_per_s": sim["swaps"] / sim_s,
        "sim_fault_p50_ns": sim["fault_p50_ns"],
        "sim_fault_p99_ns": sim["fault_p99_ns"],
        "swap_success_frac": sim["swaps"] / sim["attempted_swaps"],
    }


def per_layer(untraced, traced):
    values = dict(traced[0]["sim"])
    for key in traced[0]["host"]:
        values[key] = median(e["host"][key] for e in traced)
    values["bench.trace_overhead_frac"] = (
        median(e["window_s"] for e in traced)
        / median(e["window_s"] for e in untraced) - 1.0)
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    spec_path = HERE.parent / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bdir = build_dir()
    binary = build(bdir)
    spans_path = None
    if args.trace:
        (bdir / "spans").mkdir(exist_ok=True)
        spans_path = bdir / "spans" / f"{args.workload}-seed{args.seed}.json"

    eps = run_episodes(binary, args, spans_path)
    every = eps[False] + eps[True]

    problems = []
    first = every[0]["fingerprint"]
    diverged = sum(e["fingerprint"] != first for e in every)
    if diverged:
        problems.append(f"{diverged} episode(s) diverged from the "
                        f"first episode's simulated results")
    mismatches = sum(e["audit_mismatches"] for e in every)
    if mismatches:
        problems.append(f"{mismatches} page(s) failed the byte audit")
    checks_failed = 0
    if args.trace:
        if args.workload == "fleet":
            r = subprocess.run([str(binary), "--check-fleet-driver",
                                "--seed", str(args.seed)],
                               capture_output=True, text=True,
                               timeout=EPISODE_TIMEOUT_S)
            if r.returncode != 0:
                checks_failed += 1
                problems.append("fleet event source does not reproduce "
                                "workload::FleetDriver's snapshot")
        coverage = min(e["host"]["bench.layer_coverage_frac"]
                       for e in eps[True])
        if coverage < MIN_LAYER_COVERAGE:
            checks_failed += 1
            problems.append(f"per-layer self times cover only "
                            f"{coverage:.3f} of the traced window")
        values = per_layer(eps[False], eps[True])
    else:
        values = end_to_end(eps[False])

    sim = every[0]["sim"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(eps[False])} untraced + {len(eps[True])} traced episodes, "
          f"{sim['window_ms']:g} simulated ms per window")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        v = float(values[m["name"]])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"  {m['name']:34s} {v:16.6g} {m['unit']}")
    print(f"  fault latency: {sim['sim.fault_samples']:.0f} samples, "
          f"{sim['sim.fault_beyond_p99']:.0f} beyond p99")
    for p in problems:
        print(f"  FAILED: {p}")

    pages = sum(e["audit_pages"] for e in every)
    result = {
        "correct": not problems,
        "attempted": pages + len(every),
        "failed": mismatches + diverged + checks_failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
