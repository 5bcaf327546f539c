"""The semantic checkers, running over the frontend-agnostic IR.

Each checker returns a list of Finding objects. Findings carry a stable
fingerprint (no line numbers, so baselines survive unrelated edits) used by
--baseline mode to accept known violations while failing on new ones.

Checkers (DESIGN.md "Semantic analysis"):

  serial-confinement  Functions annotated REQUIRES_SERIAL() or (function-
                      level) WRITE_SERIAL_READ_SHARED() must be unreachable
                      from any callable handed to ThreadPool::ParallelFor/
                      RunChunks. REQUIRES_ALL_SHARDS is deliberately NOT a
                      serial-only annotation: it is a per-object discipline
                      (a worker may Snapshot() its own private registry
                      mid-phase, as sim/offered_load.cc does).

  hot-path-purity     Functions annotated DMAP_HOT_PATH must not
                      transitively lock, allocate, or perform I/O.
                      DMAP_HOT_PATH_ALLOW("reason") functions are reached
                      but not descended into; an empty reason, or carrying
                      both annotations, is itself an error.

  seed-purity         Experiment entry points (main, dmap::Run*) and
                      initializers outside function bodies must not
                      transitively reach banned nondeterminism sources
                      (rand, std::random_device, wall clocks, std::hash
                      over pointers); a source no entry point reaches is
                      still banned. Unwaivable.

  metrics-stability   Every MetricsRegistry::Counter/Histogram registration
                      site must agree with the checked-in inventory
                      (tools/analyze/metrics_inventory.json) — the export
                      layer's stable set — on whether the metric is
                      deterministic or kExecution; unknown sites and stale
                      inventory entries are both errors.

  float-accumulation  `x +=` onto a float/double inside src/obs/: merges
                      there must use fixed-point integers, since float
                      addition is not associative and the merged value
                      would depend on which worker handled each operation.

  unordered-iteration Iterating a std::unordered_* container (a range-for
                      over it, or its begin()/cbegin(); an end() lookup
                      is not iteration) inside src/obs/ or inside a
                      function that feeds an exporter or a merged result
                      (CRITICAL_FUNCTION): iteration order is
                      implementation- and run-dependent.

  allow-audit         The two rules above are waived by
                      `// lint:allow(determinism:<rule>) <reason>` on the
                      flagged line or the line above. A marker naming
                      any other rule, or carrying no reason, waives
                      nothing and is itself a finding, which cannot be
                      waived.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path
from typing import Callable, Optional

from . import ir

SEED_ROOT_PATTERNS = [
    re.compile(r"(?:^|::)main$"),
    re.compile(r"(?:^|::)Run[A-Z]\w*$"),
    # Initializers run before main or in every constructor of their class.
    re.compile(r"(?:^|::)\{initializer@[^}]*\}$"),
]

# Functions that feed an exporter or a merged result, by simple name —
# including the sharded-store merges that fold per-shard maps into one
# visible value (src/core/mapping_store.cc).
CRITICAL_FUNCTION = re.compile(
    r"(?i)(export|snapshot|drain|merge|summari[sz]e|csv|json|write"
    r"|sizeat|sizesby|storedin|foreach)")

# The rules a lint:allow may name. allow-audit is absent on purpose: its
# findings cannot be waived.
WAIVABLE = ("float-accumulation", "unordered-iteration")


@dataclasses.dataclass
class Finding:
    checker: str
    file: str
    line: int
    function: str
    message: str
    path: list[str] = dataclasses.field(default_factory=list)

    @property
    def fingerprint(self) -> str:
        # Line-free so the baseline survives unrelated edits; the message
        # is reduced to its stable head (text before any " via "/" at line"
        # qualifier).
        head = re.split(r" via | at line ", self.message)[0]
        return "::".join([self.checker, self.file, self.function, head])

    def to_json(self) -> dict:
        return {
            "checker": self.checker,
            "file": self.file,
            "line": self.line,
            "function": self.function,
            "message": self.message,
            "path": self.path,
            "fingerprint": self.fingerprint,
        }


def _fmt_path(path: list[str]) -> str:
    return " -> ".join(path)


# ---------------------------------------------------------------------------
# Checker 1: serial-phase confinement.
# ---------------------------------------------------------------------------

def check_serial_confinement(program: ir.Program) -> list[Finding]:
    findings: list[Finding] = []
    roots = sorted({entry.callee for entry in program.parallel_entries})
    parents = ir.reachable(program, roots)
    entry_by_root = {}
    for entry in program.parallel_entries:
        entry_by_root.setdefault(entry.callee, entry)
    for qname in sorted(program.functions):
        info = program.functions[qname]
        serial = [a for a in ir.SERIAL_ONLY_ANNOTATIONS
                  if a in info.annotations]
        if not serial or qname not in parents:
            continue
        path = ir.call_path(parents, qname)
        root_entry = entry_by_root.get(path[0])
        where = (f"{root_entry.api} at {root_entry.file}:{root_entry.line}"
                 if root_entry else "a parallel dispatch")
        findings.append(Finding(
            checker="serial-confinement", file=info.file, line=info.line,
            function=qname,
            message=(f"{serial[0]} function is reachable from {where}"
                     f" via {_fmt_path(path)}"),
            path=path))
    return findings


# ---------------------------------------------------------------------------
# Checker 2: hot-path purity.
# ---------------------------------------------------------------------------

IMPURE_FACTS = (ir.FACT_LOCKS, ir.FACT_ALLOCATES, ir.FACT_IO)


def check_hot_path_purity(program: ir.Program) -> list[Finding]:
    findings: list[Finding] = []
    allow: set[str] = set()
    for qname in sorted(program.functions):
        info = program.functions[qname]
        if ir.ANN_HOT_PATH_ALLOW in info.annotations:
            allow.add(qname)
            if not (info.hot_path_allow_reason or "").strip():
                findings.append(Finding(
                    checker="hot-path-purity", file=info.file,
                    line=info.line, function=qname,
                    message=("DMAP_HOT_PATH_ALLOW requires a non-empty "
                             "reason string")))
            if ir.ANN_HOT_PATH in info.annotations:
                findings.append(Finding(
                    checker="hot-path-purity", file=info.file,
                    line=info.line, function=qname,
                    message=("function carries both DMAP_HOT_PATH and "
                             "DMAP_HOT_PATH_ALLOW; pick one")))

    for qname in sorted(program.functions):
        info = program.functions[qname]
        if ir.ANN_HOT_PATH not in info.annotations:
            continue
        parents = ir.reachable(program, [qname], stop=allow - {qname})
        for reached in sorted(parents):
            if reached in allow and reached != qname:
                continue
            reached_info = program.functions.get(reached)
            if reached_info is None:
                continue
            for fact in reached_info.facts:
                if fact.kind not in IMPURE_FACTS:
                    continue
                path = ir.call_path(parents, reached)
                findings.append(Finding(
                    checker="hot-path-purity",
                    file=fact.file or reached_info.file,
                    line=fact.line, function=qname,
                    message=(f"hot path {fact.kind}: {fact.detail} in "
                             f"{reached} at line {fact.line}"
                             f" via {_fmt_path(path)}"),
                    path=path))
    return findings


# ---------------------------------------------------------------------------
# Checker 3: seed purity.
# ---------------------------------------------------------------------------

def seed_roots(program: ir.Program) -> list[str]:
    roots = []
    for qname, info in program.functions.items():
        if info.is_lambda:
            continue
        if any(p.search(qname) for p in SEED_ROOT_PATTERNS):
            roots.append(qname)
    return sorted(roots)


def check_seed_purity(program: ir.Program) -> list[Finding]:
    findings: list[Finding] = []
    parents = ir.reachable(program, seed_roots(program))
    for reached in sorted(parents):
        info = program.functions.get(reached)
        if info is None:
            continue
        for fact in info.facts:
            if fact.kind != ir.FACT_SEED:
                continue
            path = ir.call_path(parents, reached)
            findings.append(Finding(
                checker="seed-purity", file=fact.file or info.file,
                line=fact.line,
                function=reached,
                message=(f"banned nondeterminism source: {fact.detail}"
                         f" at line {fact.line} via {_fmt_path(path)}"),
                path=path))
    # Sources in functions not reachable from any entry point are still
    # banned: dead code with a banned source is one refactor away from
    # live.
    for qname in sorted(program.functions):
        if qname in parents:
            continue
        info = program.functions[qname]
        for fact in info.facts:
            if fact.kind != ir.FACT_SEED:
                continue
            findings.append(Finding(
                checker="seed-purity", file=fact.file or info.file,
                line=fact.line,
                function=qname,
                message=(f"banned nondeterminism source: {fact.detail}"
                         f" at line {fact.line} (not reachable from an "
                         "entry point, still banned)")))
    return findings


# ---------------------------------------------------------------------------
# Checker 4: metrics stability.
# ---------------------------------------------------------------------------

def load_metrics_inventory(path: Path) -> dict:
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("schema") != "dmap.metrics_inventory.v1":
        raise ValueError(
            f"{path}: unexpected schema {data.get('schema')!r}")
    return data


def _inventory_lookup(name: str, names: list[str]) -> Optional[str]:
    """Matches a site name against inventory entries (exact or '*suffix')."""
    if name in names:
        return name
    for entry in names:
        if entry.startswith("*") and name != "*" and \
                not name.startswith("*") and name.endswith(entry[1:]):
            return entry
    return None


def check_metrics_stability(program: ir.Program,
                            inventory: dict) -> list[Finding]:
    findings: list[Finding] = []
    stable = list(inventory.get("stable", []))
    execution = list(inventory.get("execution", []))
    both = sorted(set(stable) & set(execution))
    for name in both:
        findings.append(Finding(
            checker="metrics-stability", file="tools/analyze/"
            "metrics_inventory.json", line=1, function="-",
            message=f"inventory lists {name!r} as both stable and execution"))

    used_entries: set[str] = set()
    by_name: dict[str, set[str]] = {}
    for site in program.metric_sites:
        # Registration sites inside the registry itself (the member
        # functions named Counter/Histogram) are not registrations.
        if site.function.endswith("MetricsRegistry::Counter") or \
                site.function.endswith("MetricsRegistry::Histogram"):
            continue
        by_name.setdefault(site.name, set()).add(site.stability)
        expected = None
        matched = _inventory_lookup(site.name, stable)
        if matched is not None:
            expected = "deterministic"
        else:
            matched = _inventory_lookup(site.name, execution)
            if matched is not None:
                expected = "execution"
        if matched is None:
            findings.append(Finding(
                checker="metrics-stability", file=site.file, line=site.line,
                function=site.function,
                message=(f"metric {site.name!r} is not in the inventory; "
                         "add it to 'stable' or 'execution' in "
                         "tools/analyze/metrics_inventory.json")))
            continue
        used_entries.add(matched)
        if site.stability != expected:
            findings.append(Finding(
                checker="metrics-stability", file=site.file, line=site.line,
                function=site.function,
                message=(f"metric {site.name!r} registered as "
                         f"{site.stability} but the inventory (export "
                         f"stable set) classifies it as {expected}")))

    for name, stabilities in sorted(by_name.items()):
        if len(stabilities) > 1:
            sites = [s for s in program.metric_sites if s.name == name]
            findings.append(Finding(
                checker="metrics-stability", file=sites[0].file,
                line=sites[0].line, function=sites[0].function,
                message=(f"metric {name!r} registered with conflicting "
                         "stabilities at different sites")))

    for entry in sorted(set(stable) | set(execution)):
        if entry in used_entries:
            continue
        findings.append(Finding(
            checker="metrics-stability",
            file="tools/analyze/metrics_inventory.json", line=1,
            function="-",
            message=(f"stale inventory entry {entry!r}: no registration "
                     "site registers this metric")))
    return findings


# ---------------------------------------------------------------------------
# Checkers 5-7: float accumulation, unordered iteration, allow audit.
# ---------------------------------------------------------------------------

def _in_obs(file: str, qname: str) -> bool:
    return file.startswith("src/obs/")


def _is_critical(file: str, qname: str) -> bool:
    """In src/obs/, or named like an exporter/merge (a lambda takes the
    name of the function it is defined in)."""
    named = [p for p in qname.split("::") if not p.startswith("{")]
    return _in_obs(file, qname) or bool(
        named and CRITICAL_FUNCTION.search(named[-1]))


def _waived(program: ir.Program, rule: str, file: str, line: int) -> bool:
    return any(a.rule == rule and a.reason and a.file == file
               and a.line in (line - 1, line) for a in program.allows)


def _fact_checker(rule: str, in_scope: Callable[[str, str], bool],
                  message: str) -> Callable[[ir.Program], list[Finding]]:
    """A checker reporting every `rule` fact in scope and not waived."""
    def check(program: ir.Program) -> list[Finding]:
        findings: list[Finding] = []
        for qname in sorted(program.functions):
            info = program.functions[qname]
            for fact in info.facts:
                file = fact.file or info.file
                if fact.kind == rule and in_scope(file, qname) and \
                        not _waived(program, rule, file, fact.line):
                    findings.append(Finding(
                        checker=rule, file=file, line=fact.line,
                        function=qname,
                        message=message.format(detail=fact.detail)))
        return findings
    return check


check_float_accumulation = _fact_checker(
    ir.FACT_FLOAT_ACCUM, _in_obs,
    "`{detail} +=` accumulates a float in a merge/export path; use "
    "fixed-point integers (see MetricsRegistry::kFixedPoint)")

check_unordered_iteration = _fact_checker(
    ir.FACT_UNORDERED_ITER, _is_critical,
    "iterating unordered container `{detail}` in an exporter/merge path; "
    "iteration order is run-dependent, sort keys first")


def check_allow_audit(program: ir.Program) -> list[Finding]:
    findings: list[Finding] = []
    for allow in program.allows:
        problems = []
        if allow.rule not in WAIVABLE:
            problems.append(f"lint:allow names unknown rule '{allow.rule}'; "
                            f"known rules: {', '.join(WAIVABLE)}")
        if not allow.reason:
            problems.append("lint:allow requires a reason after the marker")
        findings.extend(Finding(checker="allow-audit", file=allow.file,
                                line=allow.line, function="-", message=m)
                        for m in problems)
    return findings


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

CHECKERS: dict[str, Callable[..., list[Finding]]] = {
    "serial-confinement": check_serial_confinement,
    "hot-path-purity": check_hot_path_purity,
    "seed-purity": check_seed_purity,
    "metrics-stability": check_metrics_stability,
    "float-accumulation": check_float_accumulation,
    "unordered-iteration": check_unordered_iteration,
    "allow-audit": check_allow_audit,
}


def run_checkers(program: ir.Program, checks: list[str],
                 inventory: Optional[dict]) -> list[Finding]:
    findings: list[Finding] = []
    for name in checks:
        checker = CHECKERS[name]
        if name == "metrics-stability":
            if inventory is None:
                program.warnings.append(
                    "metrics-stability skipped: no inventory file")
                continue
            findings.extend(checker(program, inventory))
        else:
            findings.extend(checker(program))
    findings.sort(key=lambda f: (f.checker, f.file, f.line, f.function,
                                 f.message))
    return findings
