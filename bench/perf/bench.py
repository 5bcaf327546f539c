#!/usr/bin/env python3
"""Runs dmapbench repeatedly, compares two sets of runs, and checks it in CI.

    python3 bench/perf/bench.py run --runs 10 --out results/base
    python3 bench/perf/bench.py compare results/base results/change
    python3 bench/perf/bench.py golden [--update]
    python3 bench/perf/bench.py ci

`run` builds dmapbench (as run.py does) and runs every workload once per run
with seeds 1..N for BENCHMARK.json's run_seconds, alternating the workload
order between runs. It writes one result JSON per (workload, seed) into
--out and prints each metric's median, quartiles and spread (quartile
distance / median).

`compare` pairs the two sets by (workload, seed) and prints each workload x
metric as old -> new median with quartiles. Deterministic metrics must match
exactly per seed ("changed" otherwise): a performance change must not change
the model's outputs. The others are judged with BENCHMARK.json's direction
and bound:
  regression  new median worse than old by more than the bound (any
              worsening of a zero median);
  unresolved  the old runs' spread is wider than the bound and not every
              new run beats every old run;
  gain        new wins >= 9 of 10 pairs and the medians differ by more
              than the old quartile distance;
  same        otherwise.
A wall-clock metric BENCHMARK.json does not list gets no verdict
("unlisted"). Exits 1 on any regression or change.

`golden` checks every workload's deterministic metrics at smoke size, seed
1, against golden.json, as run.py does for its workload on every run;
`--update` rewrites the file after a change that means to change the model.

`ci` is the check a CI job runs, and never gates on wall-clock numbers: the
dmapbench_smoke ctest, `golden`, every workload at smoke size at 1 and at 4
threads, and `compare` of those two sets as its self-test, which must
report every metric of every workload and no changed deterministic one.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as runner  # noqa: E402  (shares the build and golden steps)

WORKLOADS = ["closed-read-zipf", "mobility-cache", "wire-mixed",
             "event-overload"]
SPEC = json.loads((runner.ROOT / "BENCHMARK.json").read_text())
LISTED = {m["name"]: m for m in SPEC["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def load(directory):
    """{workload: {seed: result}} from a directory of result JSONs."""
    results = {}
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        if data.get("schema") != "dmapbench.v1":
            continue
        results.setdefault(data["workload"], {})[data["seed"]] = data
    return results


def run_set(binary, out, runs, extra_args):
    """Runs every workload `runs` times (seeds 1..runs) into `out`."""
    out.mkdir(parents=True, exist_ok=True)
    for seed in range(1, runs + 1):
        order = WORKLOADS if seed % 2 else WORKLOADS[::-1]
        for workload in order:
            code, _ = runner.run_binary(
                binary, [f"--workload={workload}", f"--seed={seed}",
                         *extra_args],
                out / f"{workload}-seed{seed}.json", quiet=True)
            print(f"run {seed}/{runs} {workload}: "
                  f"{'ok' if code == 0 else 'FAILED'}", flush=True)
            if code != 0:
                return False
    return True


def cmd_run(args):
    binary = runner.build(runner.build_dir())
    out = Path(args.out)
    if not run_set(binary, out, args.runs,
                   [f"--seconds={SPEC['run_seconds']}"]):
        return 1
    print(f"\n{'workload':17} {'metric':16} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8}")
    results = load(out)
    for workload in WORKLOADS:
        runs = list(results.get(workload, {}).values())
        for name in runs[0]["metrics"] if runs else []:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            print(f"{workload:17} {name:16} {q2:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread(values):8.2%}")
    return 0


def judge(old, new, bound, better):
    """Verdict on a wall-clock metric; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    o1, om, o3 = quartiles(old)
    nm = quartiles(new)[1]
    if om:
        worse_by = sign * (om - nm) / abs(om)
    else:
        worse_by = float("inf") if sign * (om - nm) > 0 else 0.0
    if worse_by > bound:
        return "regression"
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    if wins >= 0.9 * len(pairs) and abs(nm - om) > (o3 - o1):
        return "gain"
    if spread(old) > bound and not all(
            sign * (n - o) > 0 for o in old for n in new):
        return "unresolved"
    return "same"


def compare(old_dir, new_dir):
    """Rows (workload, metric, old values, new values, verdict)."""
    old, new = load(old_dir), load(new_dir)
    rows = []
    for workload in WORKLOADS:
        seeds = sorted(set(old.get(workload, {})) & set(new.get(workload, {})))
        if not seeds:
            continue
        for name, meta in old[workload][seeds[0]]["metrics"].items():
            o = [old[workload][s]["metrics"][name]["value"] for s in seeds]
            n = [new[workload][s]["metrics"][name]["value"] for s in seeds]
            if meta["deterministic"]:
                verdict = "same" if o == n else "changed"
            elif name in LISTED:
                verdict = judge(o, n, LISTED[name]["bound"],
                                LISTED[name]["better"])
            else:
                verdict = "unlisted"
            rows.append((workload, name, o, n, verdict))
    return rows


def cmd_compare(args):
    rows = compare(args.old, args.new)
    print(f"{'workload':17} {'metric':16} {'old median [q1, q3]':>36}   "
          f"{'new median [q1, q3]':>36}  verdict")
    for workload, name, o, n, verdict in rows:
        oq, nq = quartiles(o), quartiles(n)
        print(f"{workload:17} {name:16} "
              f"{oq[1]:12.6g} [{oq[0]:10.6g}, {oq[2]:10.6g}] -> "
              f"{nq[1]:12.6g} [{nq[0]:10.6g}, {nq[2]:10.6g}]  {verdict}")
    bad = [r for r in rows if r[4] in ("regression", "changed")]
    return 1 if bad else 0


def check_golden(binary, update):
    scratch = runner.build_dir() / "results" / "golden-run.json"
    scratch.parent.mkdir(parents=True, exist_ok=True)
    if update:
        values = {w: runner.golden_values(binary, w, scratch)
                  for w in WORKLOADS}
        failed = [w for w, v in values.items() if v is None]
        if failed:
            print(f"golden: smoke runs failed: {failed}", file=sys.stderr)
            return 1
        runner.GOLDEN.write_text(json.dumps(values, indent=2) + "\n")
        print(f"golden: wrote {runner.GOLDEN}")
        return 0
    mismatches = [line for w in WORKLOADS
                  for line in runner.golden_mismatches(binary, w, scratch)]
    for line in mismatches:
        print(f"golden: {line}", file=sys.stderr)
    print(f"golden: {'FAILED' if mismatches else 'ok'}")
    return 1 if mismatches else 0


def cmd_golden(args):
    return check_golden(runner.build(runner.build_dir()), args.update)


def cmd_ci(_args):
    out_dir = runner.build_dir()
    binary = runner.build(out_dir)
    ctest = ["ctest", "--test-dir", str(out_dir), "-R", "^dmapbench_smoke$",
             "--output-on-failure"]
    if subprocess.run(ctest).returncode:
        print("ci: dmapbench_smoke failed", file=sys.stderr)
        return 1
    if check_golden(binary, update=False):
        return 1
    ci = out_dir / "ci"
    for threads in (1, 4):
        if not run_set(binary, ci / f"t{threads}", 1,
                       ["--size=smoke", f"--threads={threads}"]):
            return 1
    rows = compare(ci / "t1", ci / "t4")
    metrics = {name for _, name, _, _, _ in rows}
    if len(rows) != len(WORKLOADS) * len(metrics) or not LISTED.keys() <= metrics:
        print("ci: compare did not report every metric of every workload",
              file=sys.stderr)
        return 1
    changed = [f"{w} {name}" for w, name, _, _, v in rows if v == "changed"]
    if changed:
        print(f"ci: deterministic metrics differ between 1 and 4 threads: "
              f"{changed}", file=sys.stderr)
        return 1
    print(f"ci: ok ({len(rows)} workload x metric pairs compared)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run every workload N times")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--out", required=True)
    compare_cmd = sub.add_parser("compare", help="compare two result sets")
    compare_cmd.add_argument("old")
    compare_cmd.add_argument("new")
    golden = sub.add_parser("golden", help="check golden.json")
    golden.add_argument("--update", action="store_true")
    sub.add_parser("ci", help="the CI check")
    args = parser.parse_args()
    return {"run": cmd_run, "compare": cmd_compare, "golden": cmd_golden,
            "ci": cmd_ci}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
