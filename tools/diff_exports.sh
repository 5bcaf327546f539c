#!/usr/bin/env bash
# Byte-compares the deterministic exports of two builds of this repo.
#
# Usage: tools/diff_exports.sh BUILD_A BUILD_B
#
# BUILD_A and BUILD_B are CMake build directories (each with the bench
# binaries under bench/). Every command below runs once against each build
# from its own scratch directory, with identical relative output names, and
# each pair of exports is compared with cmp. Prints one line per export
# ("same" or "DIFFERS") and exits 0 when all are identical, 1 when any
# differs, 2 on a usage error. Outputs are kept under $DIFF_EXPORTS_OUT
# (default: a fresh mktemp directory, printed at the end) for inspection.
#
# The list covers the refactor-sensitive surfaces: the pre-quorum golden
# commands of tools/determinism_table.sh (chaos_sweep under
# --write-quorum=1, and fig4 at its defaults: fig4 times no insert, so it
# takes no quorum flag), fig4 and fig7 (the closed-form
# multi-K sweep, RunResponseTimeSweep), fig5
# (LookupWithView under stale BGP views, which never reuses a GUID's
# stored resolutions), fig6 (Algorithm 1 through the resolver's DIR-24-8
# snapshot), ablation_convergence (Rehome after churn of the service's own
# table, where stored resolutions go stale), chaos_sweep
# and fig9 (wire protocol under faults and quorums; their stdout tables
# carry the wire's own counts: availability, retransmits and repairs,
# stale reads, quorum failures and anti-entropy repairs), fig8 (event-driven
# executor with a serving tier), fig10 (mobility and cache, at one worker
# and at four, so the cache's serial and shard-parallel fill merges are
# both covered), ablation_staleness (the mobility-staleness harness,
# sim/staleness.cc) and ablation_dmap, whose row (c) ranks replicas by
# hop count, table (e) places GUIDs directly on AS numbers and table (f)
# drives a single-owner cache through Get/Put, and ablation_baselines
# (RunBaselineComparison: DMap, the Chord DHT, the home agent and the
# central directory through one NameResolver loop).
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_A BUILD_B" >&2
  exit 2
fi

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_a="$(cd "$1" && pwd)"
build_b="$(cd "$2" && pwd)"
for build in "$build_a" "$build_b"; do
  if [[ ! -d "$build/bench" ]]; then
    echo "$0: no bench/ directory under $build" >&2
    exit 2
  fi
done
out="${DIFF_EXPORTS_OUT:-$(mktemp -d)}"
mkdir -p "$out"

# name | bench binary and arguments | exports to compare ("stdout" is the
# command's standard output). Paths under configs/ resolve against the
# repo root.
commands=(
  "golden-chaos|chaos_sweep --scale 0.05 --threads 1 --write-quorum=1 --metrics-out metrics.json|metrics.json"
  "golden-fig4|fig4_response_time --scale 0.05 --threads 1 --metrics-out metrics.json|metrics.json"
  "fig4|fig4_response_time --scale 0.02 --threads 4 --metrics-out metrics.json --trace-out trace.csv|metrics.json trace.csv"
  "fig7|fig7_analytical --scale 0.05 --threads 4 --metrics-out metrics.json|metrics.json stdout"
  "fig5|fig5_churn --scale 0.05 --threads 4 --metrics-out metrics.json|metrics.json stdout"
  "fig6|fig6_load_balance --scale 0.05 --threads 4 --metrics-out metrics.json|metrics.json stdout"
  "chaos|chaos_sweep --scale 0.02 --threads 4 --fault-plan $root/configs/chaos_smoke.plan --fault-seed 7 --metrics-out metrics.json --trace-out trace.csv|metrics.json trace.csv stdout"
  "fig8|fig8_offered_load --scale 0.1 --threads 4 --metrics-out metrics.json --trace-out trace.csv|metrics.json trace.csv"
  "fig9|fig9_consistency --scale 0.05 --threads 4 --fault-plan $root/configs/fig9_consistency.plan --metrics-out metrics.json --trace-out trace.csv|metrics.json trace.csv stdout"
  "fig10|fig10_mobility --scale 0.05 --threads 4 --metrics-out metrics.json|metrics.json stdout"
  "fig10-t1|fig10_mobility --scale 0.05 --threads 1 --metrics-out metrics.json|metrics.json stdout"
  "staleness|ablation_staleness --scale 0.05 --threads 4 --metrics-out metrics.json --trace-out trace.csv|metrics.json trace.csv stdout"
  "ablation|ablation_dmap --scale 0.05 --threads 4 --metrics-out metrics.json|metrics.json stdout"
  "convergence|ablation_convergence --scale 0.05 --threads 4 --metrics-out metrics.json|metrics.json stdout"
  "baselines|ablation_baselines --scale 0.05 --threads 4 --metrics-out metrics.json|metrics.json stdout"
)

differs=0
for entry in "${commands[@]}"; do
  IFS='|' read -r name command exports <<<"$entry"
  read -r -a argv <<<"$command"
  for side in a b; do
    build="$build_a"
    [[ $side == b ]] && build="$build_b"
    dir="$out/$side/$name"
    mkdir -p "$dir"
    (cd "$dir" && "$build/bench/${argv[0]}" "${argv[@]:1}" > stdout)
  done
  for export in $exports; do
    if cmp -s "$out/a/$name/$export" "$out/b/$name/$export"; then
      echo "same     $name/$export"
    else
      echo "DIFFERS  $name/$export"
      differs=1
    fi
  done
done

echo "outputs kept in $out"
exit "$differs"
