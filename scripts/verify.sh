#!/usr/bin/env bash
# Full verification matrix: configure, build and test every CMake
# preset (default, asan, ubsan, release; all with warnings as errors),
# then gate the perf report against the committed baseline with
# perf_report_diff.
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
trap 'rm -f "${report}" "${trace}" "${prom}"' EXIT
build/bench/fig14_qps_sweep --report "${report}" > /dev/null
# The relative diff never gates host-noisy sim_* metrics, so the
# simulator's own throughput gets an absolute catastrophe floor
# instead (docs/DETERMINISM.md "What is exempt"). 50k events/s is
# ~5x below what a 1-core container sustains.
build/bench/perf_report_diff BENCH_agentsim.json "${report}" \
    --threshold "${AGENTSIM_PERF_THRESHOLD:-0.05}" \
    --floor "sim_events_per_second=${AGENTSIM_EVENTS_FLOOR:-50000}"

# Trace-validity gate: a smoke serving run must emit a parseable
# Chrome trace with balanced span exemplars and a non-empty blame
# export (DESIGN.md §3g).
echo "==> trace validity gate (tail_blame --smoke)"
build/bench/tail_blame --smoke --trace "${trace}" \
    --metrics "${prom}" > /dev/null
python3 scripts/check_trace.py "${trace}" "${prom}"

# Incident-capture gate: the chaos smoke run's injected engine stalls
# must trip the SLO burn alerter and dump at least one incident
# bundle whose window and blame table pass schema validation
# (DESIGN.md §3i).
echo "==> incident capture gate (chaos_slo --smoke --flight-record)"
incidents="$(mktemp -d)"
trap 'rm -f "${report}" "${trace}" "${prom}"; rm -rf "${incidents}"' EXIT
build/bench/chaos_slo --smoke --flight-record \
    --incident-dir "${incidents}" > /dev/null
python3 scripts/check_trace.py --bundle "${incidents}"

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

echo "verify: OK (${presets[*]})"
