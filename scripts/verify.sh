#!/usr/bin/env bash
# Full verification matrix: configure, build and test every CMake
# preset (default, asan, ubsan, release; all with warnings as errors),
# then gate the perf report against the committed baseline with
# perf_report_diff and every bench table against bench/golden/.
#
#   scripts/verify.sh                 # everything
#   AGENTSIM_PRESETS="default" scripts/verify.sh   # subset
#   AGENTSIM_PERF_THRESHOLD=0.10 scripts/verify.sh # looser gate
#   AGENTSIM_EVENTS_FLOOR=50000 scripts/verify.sh  # events/s floor
set -euo pipefail
cd "$(dirname "$0")/.."

read -ra presets <<< "${AGENTSIM_PRESETS:-default asan ubsan release}"
jobs="${JOBS:-$(nproc)}"

for preset in "${presets[@]}"; do
    echo "==> preset: ${preset}"
    cmake --preset "${preset}" > /dev/null
    cmake --build --preset "${preset}" -j "${jobs}"
    ctest --preset "${preset}" -j "${jobs}"
done

# Perf regression gate: regenerate the baseline bench's report with
# the default-preset build and diff it against the committed one.
# Sim-domain metrics are deterministic, so any drift is a real
# behaviour change; sim_* self-timing entries are informational only.
echo "==> perf report gate (fig14_qps_sweep vs BENCH_agentsim.json)"
report="$(mktemp)"
trace="$(mktemp)"
prom="$(mktemp)"
series="$(mktemp)"
trap 'rm -f "${report}" "${trace}" "${prom}" "${series}"' EXIT
build/bench/fig14_qps_sweep --report "${report}" > /dev/null
# The relative diff never gates host-noisy sim_* metrics, so the
# simulator's own throughput gets an absolute catastrophe floor
# instead (docs/DETERMINISM.md "What is exempt"). 50k events/s is
# ~5x below what a 1-core container sustains.
build/bench/perf_report_diff BENCH_agentsim.json "${report}" \
    --threshold "${AGENTSIM_PERF_THRESHOLD:-0.05}" \
    --floor "sim_events_per_second=${AGENTSIM_EVENTS_FLOOR:-50000}"

# Golden table gate: every bench table must match the committed
# corpus byte for byte (builds the release preset if the loop above
# skipped it).
echo "==> golden table gate (scripts/check_golden.sh)"
scripts/check_golden.sh

# Trace-validity gate: a smoke serving run and a closed-loop probe
# run must each emit a parseable Chrome trace with balanced span
# exemplars and a non-empty blame export (DESIGN.md §3g).
echo "==> trace validity gate (tail_blame --smoke, fig03_timelines)"
build/bench/tail_blame --smoke --trace "${trace}" \
    --metrics "${prom}" > /dev/null
python3 scripts/check_trace.py "${trace}" "${prom}"
build/bench/fig03_timelines --trace "${trace}" \
    --metrics "${prom}" > /dev/null
python3 scripts/check_trace.py "${trace}" "${prom}"

# Time-series gate: --csv on a serving run and on a cluster run must
# each write a time-series CSV with well-formed rows, times that never
# go back within a series, and at least one sample.
echo "==> time-series gate (tail_blame --smoke --csv, chaos_slo --smoke --csv)"
build/bench/tail_blame --smoke --csv "${series}" > /dev/null
python3 scripts/check_trace.py --timeseries "${series}"
build/bench/chaos_slo --smoke --csv "${series}" > /dev/null
python3 scripts/check_trace.py --timeseries "${series}"

# Incident-capture gate: the chaos smoke run's injected engine stalls
# must trip the SLO burn alerter and dump at least one incident
# bundle whose window and blame table pass schema validation
# (DESIGN.md §3i). A second run into the same directory rewrites every
# bundle file in place and must leave an identical tree. The asan
# build runs the same gate when its preset was built.
incidents="$(mktemp -d)"
trap 'rm -f "${report}" "${trace}" "${prom}" "${series}"; rm -rf "${incidents}"' EXIT
incident_gate() {
    local bin="$1"
    rm -rf "${incidents:?}"/*
    "${bin}/chaos_slo" --smoke --flight-record \
        --incident-dir "${incidents}/run" > /dev/null
    python3 scripts/check_trace.py --bundle "${incidents}/run"
    cp -r "${incidents}/run" "${incidents}/first"
    "${bin}/chaos_slo" --smoke --flight-record \
        --incident-dir "${incidents}/run" > /dev/null
    diff -r "${incidents}/first" "${incidents}/run"
}
echo "==> incident capture gate (chaos_slo --smoke --flight-record, twice)"
incident_gate build/bench
if [[ " ${presets[*]} " == *" asan "* ]]; then
    echo "==> incident capture gate (asan)"
    incident_gate build-asan/bench
fi

# Chaos/recovery gate: both chaos smokes must pass under asan — the
# crash/resume path (checkpointed state, parked tier blocks,
# cancelled coroutines) is where lifetime bugs hide. chaos_recovery
# additionally gates fault-schedule determinism and the >= 50%
# recomputed-GPU-seconds reduction (DESIGN.md §3j). Skipped when the
# asan preset was excluded from AGENTSIM_PRESETS.
if [[ " ${presets[*]} " == *" asan "* ]]; then
    echo "==> chaos recovery gate (chaos_slo + chaos_recovery --smoke, asan)"
    build-asan/bench/chaos_slo --smoke > /dev/null
    build-asan/bench/chaos_recovery --smoke > /dev/null
fi

# The KV micro-benchmarks drive allocation, prefix hits, LRU and FIFO
# eviction churn, restore+hit allocations against full spill tiers,
# per-token decode appends of output runs and prompt-chain hashing of
# made tokens and of stream runs in closed form; the token-stream one
# steps makeTokens' GF(p) arithmetic; the engine one cancels requests
# mid-step and reuses their request-slab slots in the same tick, and
# its churn arm finishes requests and completes new prompts' prefill
# inside the timed steps; the SLO one takes a step's decoders as one
# weighted observation whose alert is placed by binary search; the
# trace ones add a step's records by name id and name lanes once, and
# append 64-byte records of every arg kind to a log that keeps its
# chunks; the recorder one rewrites incident bundles in place from a
# ~300k-record trace log. A short
# sanitized run of each catches memory errors and undefined behaviour
# on the block pool's, the token chain's, the engine's, the SLO
# tracker's, the trace sink's and the recorder's hot paths.
for preset in asan ubsan; do
    if [[ " ${presets[*]} " == *" ${preset} "* ]]; then
        echo "==> KV, engine, telemetry and recorder micro-benchmark smoke (micro_substrates, ${preset})"
        "build-${preset}/bench/micro_substrates" \
            --benchmark_filter='BM_Kv|BM_Engine|BM_FlightRecorderDump|BM_TokenStream|BM_Slo|BM_Trace' \
            --benchmark_min_time=0.01 > /dev/null
    fi
done

echo "verify: OK (${presets[*]})"
