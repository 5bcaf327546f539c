#!/usr/bin/env python3
"""Builds dmapbench from source and runs one workload of it.

    python3 bench/perf/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first call configures the repository's
top-level CMake project with bench/perf/perf.cmake as its project include,
which adds the dmapbench target, and builds that target into
$CARGO_TARGET_DIR/dmapbench (default .bench_build/dmapbench); later calls
rebuild incrementally. The binary's `name value unit` lines are passed
through; the last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

with the end-to-end metrics BENCHMARK.json lists (--trace 0), or its
per-layer metrics from a traced run (--trace 1). `correct` also requires
the model's outputs to match golden.json (see golden_mismatches). Exits
non-zero without a result when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden.json"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "dmapbench"


def build(out_dir):
    """Configures once, then rebuilds the dmapbench target incrementally."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources under {ROOT}")
    # Keeps the compiler's temporary files inside the build directory.
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT), "-B", str(out_dir),
                     f"-DCMAKE_PROJECT_dmap_INCLUDE={HERE / 'perf.cmake'}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(out_dir), "--target", "dmapbench",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, env=env).returncode:
        fail("build failed")
    return out_dir / "bench" / "dmapbench"


def run_binary(binary, args, out_path, quiet=False):
    """Runs dmapbench with `args` and returns (exit code, result JSON)."""
    out_path.unlink(missing_ok=True)
    command = [str(binary), *args, f"--out={out_path}"]
    try:
        proc = subprocess.run(
            command, timeout=RUN_TIMEOUT_S,
            stdout=subprocess.DEVNULL if quiet else None)
    except subprocess.TimeoutExpired:
        fail(f"dmapbench did not finish within {RUN_TIMEOUT_S} s")
    if not out_path.is_file():
        fail(f"dmapbench exited {proc.returncode} without a result")
    return proc.returncode, json.loads(out_path.read_text())


def golden_values(binary, workload, out_path):
    """The deterministic metrics of `workload` at smoke size, seed 1, or
    None when that run fails its correctness gate."""
    code, result = run_binary(
        binary, [f"--workload={workload}", "--seed=1", "--size=smoke"],
        out_path, quiet=True)
    if code != 0 or not result["correct"]:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["deterministic"]}


def golden_mismatches(binary, workload, out_path):
    """Deterministic metrics of the smoke run that differ from golden.json.

    A performance change must not change the model's outputs, so every
    deterministic metric must match exactly. A change that means to change
    the model rewrites the file with `bench.py golden --update`.
    """
    expected = json.loads(GOLDEN.read_text())[workload]
    actual = golden_values(binary, workload, out_path)
    if actual is None:
        return [f"{workload}: the smoke run failed its correctness gate"]
    return [f"{workload} {name}: golden {expected.get(name)!r}, "
            f"now {actual.get(name)!r}"
            for name in sorted(set(expected) | set(actual))
            if expected.get(name) != actual.get(name)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[section]]

    out_dir = build_dir()
    binary = build(out_dir)
    results = out_dir / "results"
    results.mkdir(exist_ok=True)
    mismatches = golden_mismatches(binary, args.workload,
                                   results / "golden-run.json")
    for line in mismatches:
        print(f"run.py: model output changed: {line}", file=sys.stderr)

    stem = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    run_args = [f"--workload={args.workload}", f"--seed={args.seed}",
                f"--seconds={args.seconds}"]
    if args.trace:
        run_args.append(f"--trace={results / (stem + '.spans.json')}")
    code, result = run_binary(binary, run_args, results / f"{stem}.json")

    source = result["per_layer" if args.trace else "metrics"]
    missing = [name for name in wanted if name not in source]
    if missing:
        fail(f"result lacks metrics {missing}")
    print(json.dumps({
        "correct": bool(result["correct"]) and code == 0 and not mismatches,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": source[name]["value"],
                           "unit": source[name]["unit"]}
                    for name in wanted},
    }))


if __name__ == "__main__":
    main()
