#!/usr/bin/env bash
# Runs the determinism table: every bench export this repo reproduces must
# be byte-identical across worker counts and store shard counts, and the
# legacy write discipline (--write-quorum=1) must byte-match the exports
# captured before the quorum machinery existed (tests/golden/).
#
# Usage: tools/determinism_table.sh BUILD_DIR BUILD_TYPE
#
# BUILD_DIR is a CMake build directory configured as BUILD_TYPE
# (RelWithDebInfo or Release); only that build type's rows run. Each row
# runs one bench once per entry of its run list, each run from its own
# scratch directory with identical relative output names, and compares
# every export of each run with the same export of the run before it
# ("name") or with a checked-in file ("name:path", path relative to the
# repo root). "stdout" is the command's standard output with
# "threads=<n>" normalised to "threads=N". Prints one line per comparison
# ("same" or "DIFFERS"; "ran" for a row without exports) and exits 0 when
# all match, 1 when any differs, 2 on a usage error or a build type with
# no rows. A run that exits non-zero stops the table with its status:
# fig8_offered_load exits non-zero when its goodput knee falls outside the
# band around the analytic M/M/1 saturation, and the fig10-coherence row
# only has to run clean. Outputs are kept in a fresh mktemp directory,
# printed at the end.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR BUILD_TYPE" >&2
  exit 2
fi

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$(cd "$1" && pwd)"
build_type="$2"
if [[ ! -d "$build/bench" ]]; then
  echo "$0: no bench/ directory under $build" >&2
  exit 2
fi
out="$(mktemp -d)"

# name | build type | bench binary and the arguments of every run | runs,
# separated by ';', each adding its own arguments (empty: one run) |
# exports. Paths under configs/ resolve against the repo root.
rows=(
  "fig4|RelWithDebInfo|fig4_response_time --scale 0.02 --metrics-out metrics.json --trace-out trace.csv|--threads 1;--threads 4|metrics.json trace.csv"
  "chaos|RelWithDebInfo|chaos_sweep --scale 0.02 --fault-plan $root/configs/chaos_smoke.plan --fault-seed 7 --metrics-out metrics.json --trace-out trace.csv|--threads 1;--threads 4|metrics.json trace.csv"
  "fig9|RelWithDebInfo|fig9_consistency --scale 0.05 --fault-plan $root/configs/fig9_consistency.plan --metrics-out metrics.json|--threads 1;--threads 4|metrics.json stdout"
  "golden-chaos|RelWithDebInfo|chaos_sweep --scale 0.05 --threads 1 --write-quorum=1 --metrics-out metrics.json||metrics.json:tests/golden/chaos_sweep_prequorum_metrics.json"
  "golden-fig4|RelWithDebInfo|fig4_response_time --scale 0.05 --threads 1 --write-quorum=1 --metrics-out metrics.json||metrics.json:tests/golden/fig4_prequorum_metrics.json"
  "fig8|RelWithDebInfo|fig8_offered_load --scale 0.1 --metrics-out metrics.json --trace-out trace.csv|--threads 1;--threads 4|metrics.json trace.csv"
  "fig10|RelWithDebInfo|fig10_mobility --scale 0.05 --metrics-out metrics.json|--threads 1;--threads 4|metrics.json stdout"
  "fig10-coherence|RelWithDebInfo|fig10_mobility --scale 0.05 --threads 4 --cache=capacity=4096,ttl_ms=500,invalidate_on_update=1 --batch-updates=8||"
  "fig4-release|Release|fig4_response_time --scale 0.02 --metrics-out metrics.json --trace-out trace.csv|--threads 1;--threads 4;--threads 4 --shards 16;--threads 4 --shards 1|metrics.json trace.csv"
)

differs=0
matched=0
compare() {  # FILE_A FILE_B LABEL
  if cmp -s "$1" "$2"; then
    echo "same     $3"
  else
    echo "DIFFERS  $3"
    differs=1
  fi
}

for row in "${rows[@]}"; do
  IFS='|' read -r name type command runs exports <<<"$row"
  [[ $type == "$build_type" ]] || continue
  matched=1
  read -r -a argv <<<"$command"
  IFS=';' read -r -a run_args <<<"$runs"
  [[ ${#run_args[@]} -gt 0 ]] || run_args=("")
  for i in "${!run_args[@]}"; do
    read -r -a extra <<<"${run_args[i]}"
    dir="$out/$name/$i"
    mkdir -p "$dir"
    (cd "$dir" && "$build/bench/${argv[0]}" "${argv[@]:1}" "${extra[@]}" \
      > stdout)
    sed -i 's/threads=[0-9]*/threads=N/' "$dir/stdout"
  done
  [[ -n $exports ]] || echo "ran      $name"
  for export in $exports; do
    if [[ $export == *:* ]]; then
      file="${export%%:*}"
      golden="${export#*:}"
      compare "$out/$name/0/$file" "$root/$golden" "$name/$file ($golden)"
      continue
    fi
    for ((i = 1; i < ${#run_args[@]}; ++i)); do
      compare "$out/$name/$((i - 1))/$export" "$out/$name/$i/$export" \
        "$name/$export (${run_args[i - 1]} vs ${run_args[i]})"
    done
  done
done

if [[ $matched == 0 ]]; then
  echo "$0: no rows for build type $build_type" >&2
  exit 2
fi
echo "outputs kept in $out"
exit "$differs"
