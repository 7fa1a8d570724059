#!/usr/bin/env bash
# Tier-1 verification: configure with warnings-as-errors, build
# everything (Release: -O2 -DNDEBUG), run the full test suite. This
# is the gate every change must pass (see ROADMAP.md).
#
# SANITIZE=1 runs the same suite under ASan+UBSan (separate build
# dir, RelWithDebInfo so stacks symbolise), with both sanitizers set
# to fail hard on any report.
#
# SANITIZE=thread builds under TSan and runs the concurrency-facing
# tests (worker pool, event kernel, service layer, the pinned-hash
# determinism tests, the workers = 4 rows of the feature-combination
# audit, which are the System-level threaded check, the adversary
# worker matrix, the codec tests, whose per-thread scratch the
# shard fan-out leases, and the XfmBackend and System families,
# which fan out at the default `workers` on any multi-CPU host)
# plus the perf-harness smoke.
# The only threaded code is WorkerPool::parallelFor in
# XfmBackend::codeCpuShards, the per-DIMM codec fan-out of every
# CPU-coded shard (whole-page CPU legs and breaker-routed shards
# alike); the NMA engine runs its codec inline.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="${JOBS:-$(nproc 2>/dev/null || echo 4)}"

sanitize="${SANITIZE:-0}"
cxx_flags="-Werror"
build_type="${BUILD_TYPE:-Release}"
if [[ "${sanitize}" == "1" ]]; then
    build_dir="${BUILD_DIR:-${repo_root}/build-asan}"
    build_type="${BUILD_TYPE:-RelWithDebInfo}"
    cxx_flags+=" -fsanitize=address,undefined -fno-sanitize-recover=all"
    export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:abort_on_error=1}"
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
elif [[ "${sanitize}" == "thread" ]]; then
    build_dir="${BUILD_DIR:-${repo_root}/build-tsan}"
    build_type="${BUILD_TYPE:-RelWithDebInfo}"
    cxx_flags+=" -fsanitize=thread"
    export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
else
    build_dir="${BUILD_DIR:-${repo_root}/build-ci}"
fi

cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE="${build_type}" \
    -DCMAKE_CXX_FLAGS="${cxx_flags}"
cmake --build "${build_dir}" -j "${jobs}"

if [[ "${sanitize}" == "thread" ]]; then
    ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
        -R 'WorkerPool|EventQueue|Determinism|FeatureAudit.*_w4|ServiceTest|ArbiterTest|WorkerMatrix|Codec|XfmBackendTest|SystemTest|SystemComparison'
    "${build_dir}/bench/perf_harness" --smoke \
        --out "${build_dir}/BENCH_PERF.json"
    exit 0
fi

ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"

# Observability smoke: run a short xfmsim with JSON snapshot and
# trace export enabled, then validate both emitted files (parseable,
# schema-tagged, required keys) with the schema checker.
obs_dir="${build_dir}/obs-smoke"
mkdir -p "${obs_dir}"
cat > "${obs_dir}/smoke.cfg" <<EOF
backend          = xfm
pages            = 256
workload.seconds = 0.05
xfm.sq_depth     = 8
xfm.cq_coalesce  = 2
tier.enabled     = 1
tier.spill_cold_ms = 10
stats.json       = ${obs_dir}/stats.json
trace.out        = ${obs_dir}/trace.jsonl
trace.cap        = 16384
EOF
"${build_dir}/examples/xfmsim" "${obs_dir}/smoke.cfg" > /dev/null
"${build_dir}/tools/check_obs_output" stats "${obs_dir}/stats.json"
"${build_dir}/tools/check_obs_output" trace "${obs_dir}/trace.jsonl"

# Chaos soak: the full fault plan with circuit breakers, watchdog,
# quarantine eviction, and the end-of-run page-content audit armed
# (verify = 1 makes xfmsim exit non-zero on any data corruption).
# The health checker then asserts that at least one breaker tripped,
# that every breaker settled — re-closed or persistently Failed,
# never stuck mid-probation — and that shards routed around open
# channels show up as channel breakerRejects.
chaos_dir="${build_dir}/chaos-smoke"
mkdir -p "${chaos_dir}"
cat "${repo_root}/configs/chaos.cfg" > "${chaos_dir}/chaos.cfg"
echo "stats.json = ${chaos_dir}/stats.json" >> "${chaos_dir}/chaos.cfg"
"${build_dir}/examples/xfmsim" "${chaos_dir}/chaos.cfg" > /dev/null
"${build_dir}/tools/check_obs_output" health "${chaos_dir}/stats.json"

# HiRA end to end: the shipped XFM config with HiRA overlap on, so
# every window carries a bonus slot, and the page audit armed
# (verify = 1 exits non-zero on any corrupted byte).
hira_dir="${build_dir}/hira-smoke"
mkdir -p "${hira_dir}"
cat "${repo_root}/configs/xfm.cfg" > "${hira_dir}/hira.cfg"
echo "refresh.hira = true" >> "${hira_dir}/hira.cfg"
echo "verify = 1" >> "${hira_dir}/hira.cfg"
"${build_dir}/examples/xfmsim" "${hira_dir}/hira.cfg" > /dev/null

# Fault scenario end to end: the shipped fault config, watchdog off,
# with the page audit armed. Every lost doorbell batch, engine stall
# and SPM fault must end in a byte-exact page (verify = 1 exits
# non-zero on any corrupted byte).
faults_dir="${build_dir}/faults-smoke"
mkdir -p "${faults_dir}"
cat "${repo_root}/configs/faults.cfg" > "${faults_dir}/faults.cfg"
echo "verify = 1" >> "${faults_dir}/faults.cfg"
"${build_dir}/examples/xfmsim" "${faults_dir}/faults.cfg" > /dev/null

# Shipped configs: the remaining example configs must run to
# completion (set -e fails the gate on any non-zero exit, such as a
# key no component parses any more).
for cfg in xfm baseline; do
    "${build_dir}/examples/xfmsim" "${repo_root}/configs/${cfg}.cfg" \
        > /dev/null
done

# Worker-count identity: the shipped XFM config at workers = 1 (one
# thread, the simulator without the shard fan-out) and at the
# default (one context per DIMM, up to the CPUs this process may run
# on) must print byte-identical output.
workers_dir="${build_dir}/workers-smoke"
mkdir -p "${workers_dir}"
cat "${repo_root}/configs/xfm.cfg" > "${workers_dir}/w1.cfg"
echo "workers = 1" >> "${workers_dir}/w1.cfg"
"${build_dir}/examples/xfmsim" "${workers_dir}/w1.cfg" \
    > "${workers_dir}/w1.out"
"${build_dir}/examples/xfmsim" "${repo_root}/configs/xfm.cfg" \
    > "${workers_dir}/default.out"
if ! cmp -s "${workers_dir}/w1.out" "${workers_dir}/default.out"; then
    echo "ci: xfmsim configs/xfm.cfg output differs between workers = 1 and the default" >&2
    diff "${workers_dir}/w1.out" "${workers_dir}/default.out" | head -20 >&2
    exit 1
fi

# Adversary soak: the RFM-starver and covert pair against a victim
# fleet with the full QoS defense armed (configs/adversary.cfg).
# The abuse checker then asserts the detector settled: at least one
# escalation fired and no abuse monitor is stuck mid-probation. The
# run is traced too: the trace must pass the schema check and hold
# the service layer's slot_steal records. The ring holds the whole
# run (about 170k events); at the default cap of 65536 per-bank
# refresh points crowd out every slot_steal record.
adv_dir="${build_dir}/adversary-smoke"
mkdir -p "${adv_dir}"
cat "${repo_root}/configs/adversary.cfg" > "${adv_dir}/adversary.cfg"
{
    echo "stats.json = ${adv_dir}/stats.json"
    echo "trace.out = ${adv_dir}/trace.jsonl"
    echo "trace.cap = 262144"
} >> "${adv_dir}/adversary.cfg"
"${build_dir}/examples/fleet_sim" --config "${adv_dir}/adversary.cfg" \
    > /dev/null
"${build_dir}/tools/check_obs_output" abuse "${adv_dir}/stats.json"
"${build_dir}/tools/check_obs_output" trace "${adv_dir}/trace.jsonl"
if ! grep -q '"slot_steal"' "${adv_dir}/trace.jsonl"; then
    echo "ci: the adversary trace holds no slot_steal record" >&2
    exit 1
fi

# Flag validation: fleet_sim reads its flags through the same
# Config getters as its file keys, so a malformed or non-finite
# value is a config error (exit 1), never a silent run with a
# garbage value (nan never ends; inf simulates nothing).
for bad in xyz nan inf; do
    if "${build_dir}/examples/fleet_sim" --ms "${bad}" > /dev/null 2>&1; then
        echo "ci: fleet_sim accepted '--ms ${bad}'" >&2
        exit 1
    fi
done
# A key of a deleted component or setting is unknown: fleet_sim must
# refuse it by name instead of running without it. One file per key,
# because the qos.* check fails before the top-level check could
# list the others.
stale_cfg="${build_dir}/stale-key.cfg"
for stale_key in shed.enabled tier.xfm_capacity_pages \
        adversary.burst_budget qos.abuse_z qos.slot_debt \
        health.degrade health.fail health.probe_quota \
        health.probe_successes qos.slots_per_window qos.min_batch_slots \
        fault.spm_watermark fault.dfm_delay_ns retry.max_attempts \
        retry.backoff_ns retry.cap_ns rfm.raammt xfm.dict_bytes; do
    echo "${stale_key} = 1" > "${stale_cfg}"
    if stale_out="$("${build_dir}/examples/fleet_sim" --config "${stale_cfg}" 2>&1)"; then
        echo "ci: fleet_sim accepted the deleted config key ${stale_key}" >&2
        exit 1
    fi
    if [[ "${stale_out}" != *"unknown config key '${stale_key}'"* ]]; then
        echo "ci: fleet_sim refused ${stale_key} without naming it: ${stale_out}" >&2
        exit 1
    fi
done
# A site key under a deleted setting's prefix still arms its site.
echo "fault.spm_watermark.p = 0.1" > "${stale_cfg}"
if ! site_out="$("${build_dir}/examples/fleet_sim" --config "${stale_cfg}" --ms 1 2>&1)"; then
    echo "ci: fleet_sim refused fault.spm_watermark.p: ${site_out}" >&2
    exit 1
fi
# The KV/inference application models are gone: the apps workload
# must be refused by name, not run as some other fleet.
echo "workload.model = apps" > "${stale_cfg}"
if apps_out="$("${build_dir}/examples/fleet_sim" --config "${stale_cfg}" 2>&1)"; then
    echo "ci: fleet_sim accepted workload.model = apps" >&2
    exit 1
fi
if [[ "${apps_out}" != *"'apps'"* ]]; then
    echo "ci: fleet_sim refused workload.model = apps without naming it: ${apps_out}" >&2
    exit 1
fi

# Repository benchmark (BENCHMARK.json): one short run per workload.
# run.py builds its own tree under the build dir and exits non-zero
# when a page fails its byte audit or episodes disagree on the
# simulated results; the timings are informational.
for workload in swap_cpu swap_nma fleet; do
    CARGO_TARGET_DIR="${build_dir}/perfbench" \
        python3 "${repo_root}/perfbench/run.py" \
        --workload "${workload}" --seconds 1
done

# run.py checks that perfbench's own fleet event source reproduces
# workload::FleetDriver's metric snapshot only with --trace 1, so run
# that check here with the binary it just built (non-zero on any
# difference).
"${build_dir}/perfbench/perfbench/xfm_perfbench" --check-fleet-driver \
    --seed 1 > /dev/null

# Perf smoke: the CPU-pipeline worker sweep at tiny sizes. Exits
# non-zero only if results diverge across worker counts (the
# determinism contract) — the measured speedup is informational and
# depends on the runner's core count, so it is never gated on.
"${build_dir}/bench/perf_harness" --smoke \
    --out "${build_dir}/BENCH_PERF.json"

# Microbenchmark smoke: one iteration of each codec's whole-page
# compress and decompress, of the two shard compress sizes and of
# same-offset slot placement in a fragmented region (min_time 0 is
# the shortest run this google-benchmark accepts), so the tools that
# measure codec and allocator changes keep building and running.
# Timings are not gated.
"${build_dir}/bench/micro_benchmarks" \
    --benchmark_filter='BM_(Compress|CompressShard|Decompress|SameOffsetAllocate)/' \
    --benchmark_min_time=0 > /dev/null

# Queue-depth sweep smoke: simulated swap throughput versus async
# command-ring depth. Exits non-zero only if the restored page bytes
# diverge across depths (data integrity); the pages/sec curve is a
# measurement archived by CI, not a gate.
"${build_dir}/bench/qd_sweep" --smoke \
    --out "${build_dir}/BENCH_QD.json"

# Tier-policy sweep smoke: the three demotion policies (xfm_first,
# auto, dfm_first) under working-set drift. Exits non-zero only if
# the restored page bytes diverge across policies (data integrity);
# the policy separation is a measurement archived by CI, not a gate.
"${build_dir}/bench/tier_sweep" --smoke \
    --out "${build_dir}/BENCH_TIER.json"

# Preset-dictionary sweep smoke: compression ratio and modeled
# restore latency versus channel count with `xfm.shard_dict` off and
# on. Exits non-zero only if any dict-mode page fails its byte-exact
# round-trip (asserted inside the measurement); ratios and recovery
# fractions are measurements archived by CI, not a gate.
"${build_dir}/bench/dict_sweep" --smoke \
    --out "${build_dir}/BENCH_DICT.json"

# Adversarial-interference sweep smoke: victim fault-tail latency
# across attacker intensities with the defense off and on. Exits
# non-zero only if the restored victim pages diverge across configs
# (data integrity); the tail separation is a measurement archived by
# CI, not a gate.
"${build_dir}/bench/adv_interference" --smoke \
    --out "${build_dir}/BENCH_ADV.json"
