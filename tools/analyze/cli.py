"""Command-line driver for the semantic analyzer.

    python3 -m tools.analyze [paths...] \
        [--frontend auto|clang|lite] [--compile-commands build/...] \
        [--json-out report.json] [--baseline known.json] \
        [--checks a,b,...] [--dump-callgraph]

Exit status: 0 when no new findings, 1 when findings remain after baseline
filtering, 2 on usage/environment errors.

Baseline format:

    {"schema": "dmap.lint_baseline.v1", "findings": ["<fingerprint>", ...]}

Fingerprints are line-free (checker::file::function::message-head) so a
baseline survives unrelated edits; `--json-out` reports carry each
finding's fingerprint for copy-paste into a baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import checkers, frontend_lite, ir

DEFAULT_CHECKS = list(checkers.CHECKERS)
BASELINE_SCHEMA = "dmap.lint_baseline.v1"
REPORT_SCHEMA = "dmap.semantic_analysis.v1"


def load_baseline(path: Path) -> set[str]:
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("schema") != BASELINE_SCHEMA:
        raise ValueError(f"{path}: unexpected schema {data.get('schema')!r};"
                         f" expected {BASELINE_SCHEMA!r}")
    findings = data.get("findings")
    if not isinstance(findings, list) or \
            not all(isinstance(f, str) for f in findings):
        raise ValueError(f"{path}: 'findings' must be a list of fingerprint "
                         "strings")
    return set(findings)


def build_program(root: Path, paths: list[Path], frontend: str,
                  compile_commands: Path) -> ir.Program:
    program = lower(root, paths, frontend, compile_commands)
    ir.scan_allows(program, root, paths)
    return program


def lower(root: Path, paths: list[Path], frontend: str,
          compile_commands: Path) -> ir.Program:
    if frontend in ("auto", "clang"):
        from . import frontend_clang  # noqa: PLC0415 — optional dependency
        clang_ok = frontend_clang.available() and compile_commands.is_file()
        if frontend == "clang":
            if not frontend_clang.available():
                raise RuntimeError(
                    "--frontend clang: python 'clang' bindings or libclang "
                    "not available (pip install libclang==<pinned>)")
            if not compile_commands.is_file():
                raise RuntimeError(
                    f"--frontend clang: {compile_commands} not found; "
                    "configure with cmake first (compile_commands.json is "
                    "exported unconditionally)")
            return frontend_clang.load(root, paths, compile_commands)
        if clang_ok:
            return frontend_clang.load(root, paths, compile_commands)
    program = frontend_lite.load(root, paths)
    if frontend == "auto":
        program.warnings.append(
            "frontend=auto fell back to the lite parser (libclang or "
            "compile_commands.json unavailable)")
    return program


def dump_callgraph(program: ir.Program) -> dict:
    return {
        "schema": "dmap.callgraph.v1",
        "frontend": program.frontend,
        "functions": {
            qname: {
                "file": info.file,
                "line": info.line,
                "annotations": sorted(info.annotations),
                "facts": [[f.kind, f.line, f.detail] for f in info.facts],
                "calls": sorted({c.callee for c in info.calls}),
            }
            for qname, info in sorted(program.functions.items())
        },
        "parallel_entries": [
            {"callee": e.callee, "api": e.api, "file": e.file,
             "line": e.line}
            for e in program.parallel_entries
        ],
        "metric_sites": [
            {"kind": s.kind, "name": s.name, "literal": s.literal,
             "stability": s.stability, "function": s.function,
             "file": s.file, "line": s.line}
            for s in program.metric_sites
        ],
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="tools.analyze",
        description="dmap semantic call-graph analyzer")
    parser.add_argument("paths", nargs="*", default=[],
                        help="files/directories to analyze (default: src/)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--frontend", choices=("auto", "clang", "lite"),
                        default="auto")
    parser.add_argument("--compile-commands", default=None,
                        help="path to compile_commands.json "
                             "(default: <root>/build/compile_commands.json)")
    parser.add_argument("--checks", default=",".join(DEFAULT_CHECKS),
                        help="comma-separated checker subset "
                             f"(default: {','.join(DEFAULT_CHECKS)})")
    parser.add_argument("--metrics-inventory", default=None,
                        help="inventory JSON for the metrics-stability "
                             "checker (default: tools/analyze/"
                             "metrics_inventory.json)")
    parser.add_argument("--baseline", default=None,
                        help="JSON baseline of known finding fingerprints")
    parser.add_argument("--json-out", default=None,
                        help="write the findings report as JSON")
    parser.add_argument("--dump-callgraph", default=None,
                        help="write the resolved call graph as JSON and "
                             "skip the checkers")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve() if args.root else \
        Path(__file__).resolve().parent.parent.parent
    paths = [Path(p) if Path(p).is_absolute() else root / p
             for p in (args.paths or ["src"])]
    for p in paths:
        if not p.exists():
            print(f"error: no such path: {p}", file=sys.stderr)
            return 2
    compile_commands = Path(args.compile_commands) if \
        args.compile_commands else root / "build" / "compile_commands.json"

    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in checks if c not in checkers.CHECKERS]
    if unknown:
        print(f"error: unknown checker(s): {', '.join(unknown)}; known: "
              f"{', '.join(checkers.CHECKERS)}", file=sys.stderr)
        return 2

    try:
        program = build_program(root, paths, args.frontend, compile_commands)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.dump_callgraph:
        Path(args.dump_callgraph).write_text(
            json.dumps(dump_callgraph(program), indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
        print(f"[analyze] call graph ({len(program.functions)} functions, "
              f"{len(program.parallel_entries)} parallel entries) -> "
              f"{args.dump_callgraph}")
        return 0

    inventory = None
    if "metrics-stability" in checks:
        inv_path = Path(args.metrics_inventory) if args.metrics_inventory \
            else Path(__file__).resolve().parent / "metrics_inventory.json"
        if inv_path.is_file():
            try:
                inventory = checkers.load_metrics_inventory(inv_path)
            except (ValueError, json.JSONDecodeError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        # A missing inventory is only an error when the checker was named
        # explicitly; the default run records a warning instead.
        elif args.checks != ",".join(DEFAULT_CHECKS):
            print(f"error: metrics inventory not found: {inv_path}",
                  file=sys.stderr)
            return 2

    baseline: set[str] = set()
    if args.baseline:
        try:
            baseline = load_baseline(Path(args.baseline))
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    findings = checkers.run_checkers(program, checks, inventory)
    new = [f for f in findings if f.fingerprint not in baseline]
    suppressed = len(findings) - len(new)

    if args.json_out:
        report = {
            "schema": REPORT_SCHEMA,
            "frontend": program.frontend,
            "checks": checks,
            "functions": len(program.functions),
            "parallel_entries": len(program.parallel_entries),
            "metric_sites": len(program.metric_sites),
            "findings": [f.to_json() for f in new],
            "suppressed_by_baseline": suppressed,
            "warnings": program.warnings,
        }
        Path(args.json_out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    for warning in program.warnings:
        print(f"[analyze] warning: {warning}", file=sys.stderr)
    for f in new:
        print(f"{f.file}:{f.line}: [{f.checker}] {f.function}: {f.message}")
    summary = (f"[analyze] frontend={program.frontend} "
               f"functions={len(program.functions)} "
               f"parallel_entries={len(program.parallel_entries)} "
               f"findings={len(new)} suppressed={suppressed}")
    print(summary, file=sys.stderr)
    return 1 if new else 0
