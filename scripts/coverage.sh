#!/usr/bin/env bash
# Coverage join: which src/ functions only the tests run, and which
# nothing runs. This is a survey tool, not part of the gate
# (scripts/ci.sh); CI runs it only in the manual `coverage` job.
#
# It builds the repository with `--coverage -O0` into its own build
# directory (BUILD_DIR, default build-coverage/) and runs two sets:
#   (a) every non-test consumer of src/: the smokes of scripts/ci.sh,
#       every example, every bench, and perfbench's three workloads
#       plus `xfm_perfbench --check-fleet-driver` (perfbench built
#       with the same flags in <build-dir>/perfbench);
#   (b) tier-1 (ctest).
# Per-function counts come from `gcov --json-format` after each set.
# A function is keyed by its source file and first line, so the
# instantiations of one template count together; lambdas are left
# out. Only files under src/ are listed. The script prints, and
# writes to <build-dir>/coverage/:
#   tier1-only.txt  functions that (b) runs and (a) does not;
#   never-run.txt   functions that neither set runs.
# Each line is `src/<file>:<line> <function>`.
#
# Needs gcc's gcov (12 or later for the JSON format) and python3.
# The full run takes about 40 minutes on 4 cores.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="${JOBS:-$(nproc 2>/dev/null || echo 4)}"
build_dir="${BUILD_DIR:-${repo_root}/build-coverage}"
out_dir="${build_dir}/coverage"
run_dir="${build_dir}/coverage-runs"
pb_dir="${build_dir}/perfbench"

cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage" \
    -DCMAKE_CXX_FLAGS_DEBUG="-O0 -g" \
    -DCMAKE_EXE_LINKER_FLAGS="--coverage"
cmake --build "${build_dir}" -j "${jobs}"

cmake -S "${repo_root}/perfbench" -B "${pb_dir}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="--coverage" \
    -DCMAKE_CXX_FLAGS_DEBUG="-O0 -g" \
    -DCMAKE_EXE_LINKER_FLAGS="--coverage" > /dev/null
cmake --build "${pb_dir}" --target xfm_perfbench -j "${jobs}" > /dev/null

# Start from zero counts, so a rerun does not carry the last one's.
find "${build_dir}" -name '*.gcda' -delete
rm -rf "${out_dir}" "${run_dir}"
mkdir -p "${out_dir}" "${run_dir}"

# ---------------------------------------------------------- set (a)
# Each command runs for its coverage only; ci.sh holds the checks.
# The refused flags and deleted keys exit non-zero by design.
(
    cd "${run_dir}"
    ex="${build_dir}/examples"
    bn="${build_dir}/bench"
    tools="${build_dir}/tools"

    cat > smoke.cfg <<EOF
backend          = xfm
pages            = 256
workload.seconds = 0.05
xfm.sq_depth     = 8
xfm.cq_coalesce  = 2
tier.enabled     = 1
tier.spill_cold_ms = 10
stats.json       = ${run_dir}/stats.json
trace.out        = ${run_dir}/trace.jsonl
trace.cap        = 16384
EOF
    "${ex}/xfmsim" smoke.cfg > /dev/null
    "${tools}/check_obs_output" stats stats.json
    "${tools}/check_obs_output" trace trace.jsonl

    { cat "${repo_root}/configs/chaos.cfg"
      echo "stats.json = ${run_dir}/chaos.json"; } > chaos.cfg
    "${ex}/xfmsim" chaos.cfg > /dev/null
    "${tools}/check_obs_output" health chaos.json

    { cat "${repo_root}/configs/xfm.cfg"
      echo "refresh.hira = true"; echo "verify = 1"; } > hira.cfg
    "${ex}/xfmsim" hira.cfg > /dev/null
    { cat "${repo_root}/configs/faults.cfg"; echo "verify = 1"; } > faults.cfg
    "${ex}/xfmsim" faults.cfg > /dev/null
    { cat "${repo_root}/configs/xfm.cfg"; echo "workers = 1"; } > w1.cfg
    "${ex}/xfmsim" w1.cfg > /dev/null
    for cfg in xfm baseline; do
        "${ex}/xfmsim" "${repo_root}/configs/${cfg}.cfg" > /dev/null
    done

    { cat "${repo_root}/configs/adversary.cfg"
      echo "stats.json = ${run_dir}/adversary.json"; } > adversary.cfg
    "${ex}/fleet_sim" --config adversary.cfg > /dev/null
    "${tools}/check_obs_output" abuse adversary.json
    for bad in xyz nan inf; do
        "${ex}/fleet_sim" --ms "${bad}" > /dev/null 2>&1 || true
    done
    for stale_key in shed.enabled tier.xfm_capacity_pages \
            adversary.burst_budget qos.abuse_z qos.slot_debt; do
        echo "${stale_key} = 1" > stale.cfg
        "${ex}/fleet_sim" --config stale.cfg > /dev/null 2>&1 || true
    done
    echo "workload.model = apps" > stale.cfg
    "${ex}/fleet_sim" --config stale.cfg > /dev/null 2>&1 || true

    for example in compress_tool cost_explorer dataframe_analytics \
            fleet_sim quickstart refresh_timeline web_frontend; do
        "${ex}/${example}" > /dev/null
    done

    for bench in perf_harness qd_sweep tier_sweep dict_sweep \
            adv_interference; do
        "${bn}/${bench}" --smoke --out "${run_dir}/${bench}.json" \
            > /dev/null
    done
    "${bn}/micro_benchmarks" \
        --benchmark_filter='BM_(Compress|CompressShard|Decompress)/' \
        --benchmark_min_time=0 > /dev/null
    for bench in ablation_access_policy ablation_compaction \
            ablation_far_tier_latency ablation_io_amplification \
            ablation_lazy_mmio ablation_placement ablation_prefetch \
            endtoend_bandwidth fig01_bandwidth fig03_cost_model \
            fig08_multichannel_ratio fig11_interference \
            fig12_cpu_fallbacks fleet_throughput table1_ddr5_config \
            table23_overheads; do
        "${bn}/${bench}" > /dev/null
    done

    # One episode each, as perfbench/run.py starts them; run.py's
    # 60 s episode timeout is too short for fleet at -O0.
    for workload in swap_cpu swap_nma fleet; do
        "${pb_dir}/xfm_perfbench" --workload "${workload}" --seed 1 \
            > /dev/null
    done
    "${pb_dir}/xfm_perfbench" --check-fleet-driver --seed 1 > /dev/null
)

# Dump the counts of every object directory into one JSON-lines file.
# gcov reads the .gcno notes, so an object that no run loaded still
# lists its functions, at count 0.
dump_counts() {
    local dest="$1"
    : > "${dest}"
    find "${build_dir}" -name '*.gcno' -printf '%h\n' | sort -u |
        while read -r dir; do
            (cd "${dir}" && gcov --json-format --stdout --demangled-names \
                ./*.gcno 2> /dev/null) >> "${dest}"
        done
}

dump_counts "${out_dir}/set-a.jsonl"

# ---------------------------------------------------------- set (b)
ctest --test-dir "${build_dir}" -j "${jobs}" > "${out_dir}/ctest.log"
dump_counts "${out_dir}/set-ab.jsonl"

python3 - "${repo_root}" "${out_dir}" <<'EOF'
import json
import os
import sys

root, out = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep


def counts(path):
    """(file, line) -> [name, executions] over src/, lambdas left out."""
    funcs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            doc = json.loads(line)
            for unit in doc["files"]:
                name = os.path.normpath(os.path.join(
                    doc["current_working_directory"], unit["file"]))
                if not name.startswith(src):
                    continue
                rel = os.path.relpath(name, root)
                for fn in unit["functions"]:
                    label = fn.get("demangled_name", fn["name"])
                    if "{lambda" in label:
                        continue
                    key = (rel, fn["start_line"])
                    entry = funcs.setdefault(key, [label, 0])
                    entry[1] += fn["execution_count"]
    return funcs


after_a = counts(os.path.join(out, "set-a.jsonl"))
after_ab = counts(os.path.join(out, "set-ab.jsonl"))
lists = {
    "tier1-only": [k for k, (_, n) in after_ab.items()
                   if n > 0 and after_a.get(k, ["", 0])[1] == 0],
    "never-run": [k for k, (_, n) in after_ab.items() if n == 0],
}
for title, keys in lists.items():
    rows = [f"{f}:{l} {after_ab[(f, l)][0]}" for f, l in sorted(keys)]
    with open(os.path.join(out, title + ".txt"), "w") as f:
        f.write("".join(r + "\n" for r in rows))
    print(f"== {title}: {len(rows)} functions")
    for r in rows:
        print(r)
EOF
