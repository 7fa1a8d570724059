#!/usr/bin/env python3
"""Measure every workload over several seeds and summarise the spread.

Usage (from the repository root):

    python3 perfbench/baseline.py [--seeds 1-10] [--seconds 10]
                                  [--workloads fleet,swap_cpu,swap_nma]
                                  [--out perfbench/baseline.json]

Runs perfbench/run.py --trace 0 once per (workload, seed) and prints,
for each end-to-end metric, the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (third minus first
quartile, over the median) next to the metric's bound. With --out, the
summary is written as JSON so a later change can be compared with it.
Exits 1 if any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--workloads", default="fleet,swap_cpu,swap_nma")
    ap.add_argument("--out")
    args = ap.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    summary = {"seeds": seeds, "seconds": float(args.seconds),
               "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            r = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", args.seconds,
                 "--trace", "0"], capture_output=True, text=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed: {r.stderr}")
            for name, m in json.loads(lines[-1])["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload} ({len(seeds)} seeds)")
        rows = summary["workloads"][workload] = {}
        for name, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[name]}
            print(f"  {name:20s} median {med:14.6g}  q1 {q1:14.6g}  "
                  f"q3 {q3:14.6g}  spread {spread:.4f}  "
                  f"bound {bounds[name]}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
