"""Shared intermediate representation for the semantic analyzer.

Both frontends (libclang and the dependency-free "lite" parser) lower C++
translation units into this IR; the checkers in checkers.py only ever see
the IR, so every rule behaves identically regardless of which frontend
produced the program.

The IR is deliberately small:

  * FunctionInfo — one node per function/method/lambda, carrying the
    annotations attached to any of its declarations, the per-function
    "facts" (locks / allocates / io / banned seed sources / float
    accumulation / unordered iteration, with line and detail), and the
    outgoing call edges that could be resolved. Code outside any function
    body (namespace-scope variables, default member initializers, macro
    bodies) that carries a fact lowers to a synthetic
    `<scope>::{initializer@<file>}` node.
  * Program — the whole-program view: the function index, the lambdas
    passed to ThreadPool::ParallelFor/RunChunks (the parallel-phase entry
    set), every MetricsRegistry registration site, and every
    `lint:allow` waiver marker in the analyzed files.

Qualified names use `::` separators (`dmap::HoleResolver::ResolveBatch`);
lambdas get synthetic names `<parent>::{lambda@<line>}`. Anonymous
namespaces are qualified by file so same-named statics in different TUs do
not collide.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path
from typing import Iterable, Optional

SOURCE_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}

# Annotation identifiers, as produced by both frontends.
ANN_REQUIRES_SERIAL = "requires_serial"
ANN_REQUIRES_ALL_SHARDS = "requires_all_shards"
ANN_WRITE_SERIAL_READ_SHARED = "write_serial_read_shared"
ANN_HOT_PATH = "hot_path"
ANN_HOT_PATH_ALLOW = "hot_path_allow"

# Annotations that confine a function to the global serial write point.
SERIAL_ONLY_ANNOTATIONS = (ANN_REQUIRES_SERIAL, ANN_WRITE_SERIAL_READ_SHARED)

# Fact kinds.
FACT_LOCKS = "locks"
FACT_ALLOCATES = "allocates"
FACT_IO = "io"
FACT_SEED = "seed"  # detail names the banned source (rand, wall-clock, ...)
FACT_FLOAT_ACCUM = "float-accumulation"  # `x +=` onto a float/double
FACT_UNORDERED_ITER = "unordered-iteration"  # iterates an unordered_* container


def initializer_name(scope: str, file: str) -> str:
    """The synthetic node holding one scope's initializer facts in `file`
    (the file keeps same-named namespaces of different TUs apart)."""
    node = "{initializer@%s}" % file
    return f"{scope}::{node}" if scope else node


@dataclasses.dataclass
class Fact:
    kind: str
    line: int
    detail: str
    # Where the fact was seen. Same-named definitions in different files
    # (overloads, `main`s) share one FunctionInfo, so this can differ from
    # the function's own file.
    file: str = ""


@dataclasses.dataclass
class CallSite:
    """One resolved call edge (or parallel dispatch) out of a function."""

    callee: str  # qualified name of the callee FunctionInfo
    line: int


@dataclasses.dataclass
class FunctionInfo:
    qname: str
    file: str
    line: int
    annotations: set[str] = dataclasses.field(default_factory=set)
    hot_path_allow_reason: Optional[str] = None  # None = not annotated
    facts: list[Fact] = dataclasses.field(default_factory=list)
    calls: list[CallSite] = dataclasses.field(default_factory=list)
    is_lambda: bool = False
    parent: Optional[str] = None  # enclosing function for lambdas

    def callees(self) -> Iterable[str]:
        return (c.callee for c in self.calls)

    def merge_declaration(self, other: "FunctionInfo") -> None:
        """Folds a declaration-only sighting into this definition."""
        self.annotations |= other.annotations
        if other.hot_path_allow_reason is not None:
            if self.hot_path_allow_reason is None:
                self.hot_path_allow_reason = other.hot_path_allow_reason


@dataclasses.dataclass
class ParallelEntry:
    """A callable handed to ThreadPool::ParallelFor/RunChunks."""

    callee: str  # lambda or function qname that runs inside the pool
    api: str  # 'ParallelFor' or 'RunChunks'
    file: str
    line: int


@dataclasses.dataclass
class MetricSite:
    """One MetricsRegistry::Counter/Histogram registration call."""

    kind: str  # 'counter' or 'histogram'
    name: str  # literal name, or '*<suffix>' / '*' for computed names
    literal: bool  # True when `name` is a full compile-time literal
    stability: str  # 'deterministic' or 'execution'
    function: str  # enclosing function qname
    file: str
    line: int


@dataclasses.dataclass
class Allow:
    """One `// lint:allow(determinism:<rule>) <reason>` marker."""

    file: str
    line: int
    rule: str
    reason: str  # empty when the marker carries none


ALLOW_RE = re.compile(r"//\s*lint:allow\(determinism:([\w-]+)\)\s*(\S.*)?")


@dataclasses.dataclass
class Program:
    functions: dict[str, FunctionInfo] = dataclasses.field(default_factory=dict)
    parallel_entries: list[ParallelEntry] = dataclasses.field(
        default_factory=list)
    metric_sites: list[MetricSite] = dataclasses.field(default_factory=list)
    allows: list[Allow] = dataclasses.field(default_factory=list)
    # Frontend name + per-TU parse warnings, carried into the JSON report.
    frontend: str = ""
    warnings: list[str] = dataclasses.field(default_factory=list)

    def add_function(self, info: FunctionInfo, is_definition: bool) -> None:
        existing = self.functions.get(info.qname)
        if existing is None:
            self.functions[info.qname] = info
            return
        if is_definition and not existing.calls and not existing.facts:
            # Definition supersedes a declaration-only record; keep the
            # declaration's annotations.
            info.merge_declaration(existing)
            self.functions[info.qname] = info
        else:
            existing.merge_declaration(info)

    def function(self, qname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qname)


def source_files(paths: Iterable[Path]) -> list[Path]:
    """The C++ sources under `paths` (files or directories), sorted."""
    files = []
    for target in paths:
        if target.is_file():
            candidates = [target]
        elif target.is_dir():
            candidates = sorted(target.rglob("*"))
        else:
            raise FileNotFoundError(f"no such file or directory: {target}")
        files.extend(f for f in candidates
                     if f.is_file() and f.suffix in SOURCE_SUFFIXES)
    return files


def relative(root: Path, path: Path) -> str:
    return path.relative_to(root).as_posix() if path.is_relative_to(root) \
        else path.as_posix()


def scan_allows(program: Program, root: Path, paths: list[Path]) -> None:
    """Records every lint:allow marker in the sources under `paths`.

    Markers live in comments, which neither frontend lowers, so both share
    this raw-text scan."""
    for f in source_files(paths):
        text = f.read_text(encoding="utf-8", errors="replace")
        for line_no, line in enumerate(text.splitlines(), start=1):
            m = ALLOW_RE.search(line)
            if m:
                program.allows.append(Allow(relative(root, f), line_no,
                                            m.group(1),
                                            (m.group(2) or "").strip()))


def reachable(program: Program, roots: Iterable[str],
              stop: Optional[set[str]] = None) -> dict[str, Optional[str]]:
    """BFS over call edges from `roots`.

    Returns {qname: predecessor} for every reached function (roots map to
    None), never descending *into* functions listed in `stop` (they are
    reached, but their callees are not explored).
    """
    stop = stop or set()
    parent: dict[str, Optional[str]] = {}
    queue: list[str] = []
    for root in roots:
        if root not in parent:
            parent[root] = None
            queue.append(root)
    while queue:
        current = queue.pop(0)
        if current in stop:
            continue
        info = program.functions.get(current)
        if info is None:
            continue
        for callee in info.callees():
            if callee not in parent:
                parent[callee] = current
                queue.append(callee)
    return parent


def call_path(parents: dict[str, Optional[str]], target: str) -> list[str]:
    """Reconstructs root -> ... -> target from a `reachable` parent map."""
    path = [target]
    while parents.get(path[-1]) is not None:
        path.append(parents[path[-1]])  # type: ignore[arg-type]
    path.reverse()
    return path
