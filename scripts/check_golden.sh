#!/usr/bin/env bash
# Golden table gate: every table the bench binaries print is a pure
# function of the simulator's inputs, so a refactor that claims
# bit-identity must reproduce them byte for byte.
#
# Builds the release preset, runs every table bench under
# build-release/bench/ with AGENTSIM_CSV_DIR set, and diffs each CSV
# against bench/golden/<bench>.<table-slug>.csv.
#
#   scripts/check_golden.sh            # build, run, diff (exit 1 on drift)
#   scripts/check_golden.sh --update   # rewrite bench/golden/ instead
#   AGENTSIM_GOLDEN_BUILD=dir scripts/check_golden.sh  # reuse a build
#
# Regenerating the corpus is a deliberate act: every table that
# drifts under --update needs its own CHANGES.md line saying why.
set -euo pipefail
cd "$(dirname "$0")/.."

update=0
case "${1:-}" in
  --update) update=1 ;;
  "") ;;
  *) echo "usage: $0 [--update]" >&2; exit 2 ;;
esac

golden="bench/golden"
build="${AGENTSIM_GOLDEN_BUILD:-}"
if [[ -z "${build}" ]]; then
    build="build-release"
    cmake --preset release > /dev/null
    cmake --build --preset release -j "${JOBS:-$(nproc)}" > /dev/null
fi
build="$(cd "${build}" && pwd)"

# Not table benches: google-benchmark host timings and the report
# differ (which needs two report files as arguments).
skip_bench=" micro_substrates perf_report_diff "
# Tables that report host wall time, not simulated quantities.
skip_table=" obs_overhead.observability-overhead-react-hotpotqa-open-loop "

out="$(mktemp -d)"
trap 'rm -rf "${out}"' EXIT
mkdir -p "${out}/csv" "${out}/run"

for exe in "${build}"/bench/*; do
    [[ -f "${exe}" && -x "${exe}" ]] || continue
    name="$(basename "${exe}")"
    [[ "${skip_bench}" == *" ${name} "* ]] && continue
    dir="${out}/run/${name}"
    mkdir -p "${dir}"
    # Run from a scratch directory: some benches drop trace files in
    # the working directory.
    if ! (cd "${dir}" && AGENTSIM_LOG_LEVEL=quiet \
          AGENTSIM_CSV_DIR="${dir}" "${exe}" > /dev/null); then
        echo "check_golden: ${name} failed" >&2
        exit 1
    fi
    for csv in "${dir}"/*.csv; do
        [[ -e "${csv}" ]] || continue
        key="${name}.$(basename "${csv}" .csv)"
        [[ "${skip_table}" == *" ${key} "* ]] && continue
        cp "${csv}" "${out}/csv/${key}.csv"
    done
done

if [[ "${update}" == 1 ]]; then
    mkdir -p "${golden}"
    changed="$(diff -rq "${golden}" "${out}/csv" || true)"
    rm -f "${golden}"/*.csv
    cp "${out}/csv"/*.csv "${golden}/"
    if [[ -n "${changed}" ]]; then
        echo "${changed}"
        echo "check_golden: corpus rewritten; add one CHANGES.md line" \
             "per drifted table" >&2
    fi
    echo "check_golden: $(ls "${golden}" | wc -l) tables written"
    exit 0
fi

if ! diff -ru "${golden}" "${out}/csv"; then
    echo "check_golden: tables drifted from ${golden}" \
         "(rerun with --update only for an intended change)" >&2
    exit 1
fi
echo "check_golden: OK ($(ls "${golden}" | wc -l) tables)"
