"""libclang frontend for the semantic analyzer.

Parses each translation unit listed in compile_commands.json with
DMAP_SEMANTIC_ANALYSIS defined, so the annotation macros in
src/common/thread_annotations.h materialize as
__attribute__((annotate("dmap::..."))) AST attributes. Lowers the ASTs into
the same IR as the lite frontend; the checkers cannot tell which frontend
produced the program.

This frontend is strictly more precise than the lite one: it sees through
overload resolution, resolves receiver types semantically, attributes
allocation in operator[] on map types, and types the operands of `+=` and
range-for loops instead of matching names. It requires the `clang` Python
package and a loadable libclang — the CI semantic-analysis job pins both;
local runs without them fall back to the lite frontend (frontend='auto').

Virtual dispatch is expanded structurally (class hierarchy + same-named
virtual methods in the derived closure) because the Python bindings do not
portably expose clang_getOverriddenCursors.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from . import ir

# Imported lazily so `--frontend lite` never touches libclang.
cindex = None

LOCK_TYPES = re.compile(
    r"\b(MutexLock|lock_guard|unique_lock|scoped_lock)\b")
LOCK_CALLS = {"lock", "Lock", "pthread_mutex_lock"}
ALLOC_CALLS = {
    "push_back", "emplace_back", "push_front", "emplace_front", "resize",
    "reserve", "assign", "insert", "emplace", "try_emplace", "emplace_hint",
    "append", "push", "make_unique", "make_shared", "malloc", "calloc",
    "realloc", "strdup", "to_string", "operator new",
}
# operator[] allocates on node/hash map types (the lite frontend's known
# blind spot).
MAP_TYPES = re.compile(r"\b(unordered_map|unordered_set|map|set|multimap)\b")
IO_CALLS = {
    "printf", "fprintf", "fputs", "puts", "fwrite", "fread", "fopen",
    "fclose", "getline", "fflush", "system",
}
IO_TYPES = re.compile(r"\b(ofstream|ifstream|fstream)\b")
IO_DECLS = {"cout", "cerr", "clog"}
SEED_CALLS = {
    "rand", "srand", "time", "gettimeofday", "clock_gettime", "clock",
    "localtime", "gmtime", "strftime",
}
SEED_TYPES = re.compile(
    r"\b(random_device|default_random_engine|system_clock|"
    r"high_resolution_clock)\b")

FLOAT_KINDS = set()  # filled by _lazy_import: FLOAT, DOUBLE, LONGDOUBLE
UNORDERED = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")
# Only begin() starts an iteration: `m.find(k) != m.end()` is a lookup.
ITER_CALLS = {"begin", "cbegin"}

PARALLEL_APIS = ("ParallelFor", "RunChunks")


def _lazy_import():
    global cindex
    if cindex is None:
        from clang import cindex as _cindex  # noqa: PLC0415
        cindex = _cindex
        FLOAT_KINDS.update((cindex.TypeKind.FLOAT, cindex.TypeKind.DOUBLE,
                            cindex.TypeKind.LONGDOUBLE))
    return cindex


def available() -> bool:
    try:
        ci = _lazy_import()
        ci.Index.create()
        return True
    except Exception:  # noqa: BLE001 — any load failure means unavailable
        return False


class ClangFrontend:
    def __init__(self, root: Path, compile_commands: Path):
        ci = _lazy_import()
        self.ci = ci
        self.root = root
        self.program = ir.Program(frontend="clang")
        self.compile_commands = compile_commands
        self.index = ci.Index.create()
        # Class hierarchy for virtual-dispatch expansion.
        self.class_bases: dict[str, set[str]] = {}
        self.methods_by_class: dict[str, dict[str, str]] = {}
        self.virtual_methods: set[str] = set()
        # Deferred call edges: (caller_qname, target_qname, line).
        self._calls: list[tuple[str, str, int]] = []

    # -- compile database ---------------------------------------------------

    def _commands(self) -> list[tuple[Path, list[str]]]:
        data = json.loads(self.compile_commands.read_text(encoding="utf-8"))
        out = []
        for entry in data:
            path = Path(entry["directory"]) / entry["file"]
            if "arguments" in entry:
                argv = list(entry["arguments"])
            else:
                argv = entry["command"].split()
            args = self._filter_args(argv[1:])
            out.append((path.resolve(), args))
        return out

    @staticmethod
    def _filter_args(argv: list[str]) -> list[str]:
        """Keeps -I/-D/-std/-isystem; drops compiler-specific noise and the
        output/input file operands."""
        keep: list[str] = []
        expect_value_for: str | None = None
        for arg in argv:
            if expect_value_for is not None:
                if expect_value_for in ("-I", "-isystem", "-D"):
                    keep.append(arg)
                expect_value_for = None
                continue
            if arg in ("-I", "-isystem", "-D", "-o", "-MF", "-MT", "-MQ"):
                if arg in ("-I", "-isystem", "-D"):
                    keep.append(arg)
                expect_value_for = arg
                continue
            if arg == "-c":
                continue
            if arg.startswith(("-I", "-D", "-std=", "-isystem")):
                keep.append(arg)
        return keep

    # -- parsing ------------------------------------------------------------

    def run(self, paths: list[Path]) -> ir.Program:
        ci = self.ci
        wanted = [p.resolve() for p in paths]

        def in_scope(file_path: Path) -> bool:
            return any(w == file_path or w in file_path.parents
                       for w in wanted)

        parsed = 0
        for tu_path, args in self._commands():
            if not in_scope(tu_path):
                continue
            full_args = args + ["-DDMAP_SEMANTIC_ANALYSIS",
                                "-ferror-limit=0"]
            try:
                tu = self.index.parse(
                    str(tu_path), args=full_args,
                    options=ci.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD)
            except Exception as exc:  # noqa: BLE001
                self.program.warnings.append(
                    f"{tu_path}: parse failed: {exc}")
                continue
            errors = [d for d in tu.diagnostics if d.severity >= 3]
            if errors:
                self.program.warnings.append(
                    f"{tu_path}: {len(errors)} parse error(s); first: "
                    f"{errors[0].spelling}")
            self._walk_tu(tu, in_scope)
            parsed += 1
        if parsed == 0:
            raise RuntimeError(
                "compile_commands.json matched no translation units under "
                + ", ".join(str(w) for w in wanted))
        self._finalize_calls()
        # Inline functions and data members of a header are lowered once
        # per including TU; keep each fact once.
        for info in self.program.functions.values():
            info.facts = list({(f.kind, f.line, f.detail, f.file): f
                               for f in info.facts}.values())
        return self.program

    def _rel(self, location) -> str:
        try:
            p = Path(str(location.file)).resolve()
            return p.relative_to(self.root).as_posix()
        except Exception:  # noqa: BLE001
            return str(location.file)

    def _in_scope_cursor(self, cursor, in_scope) -> bool:
        loc = cursor.location
        if loc.file is None:
            return False
        try:
            return in_scope(Path(str(loc.file)).resolve())
        except Exception:  # noqa: BLE001
            return False

    def _walk_tu(self, tu, in_scope) -> None:
        ci = self.ci
        fn_kinds = {
            ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD,
            ci.CursorKind.CONSTRUCTOR, ci.CursorKind.DESTRUCTOR,
            ci.CursorKind.FUNCTION_TEMPLATE,
            ci.CursorKind.CONVERSION_FUNCTION,
        }
        class_kinds = {
            ci.CursorKind.CLASS_DECL, ci.CursorKind.STRUCT_DECL,
            ci.CursorKind.CLASS_TEMPLATE,
        }

        def visit(cursor):
            if cursor.kind in class_kinds and cursor.is_definition() and \
                    self._in_scope_cursor(cursor, in_scope):
                self._record_class(cursor)
            if cursor.kind in fn_kinds:
                if self._in_scope_cursor(cursor, in_scope):
                    self._lower_function(cursor)
                return  # bodies handled inside _lower_function
            if cursor.kind in (ci.CursorKind.VAR_DECL,
                               ci.CursorKind.FIELD_DECL):
                if self._in_scope_cursor(cursor, in_scope):
                    self._lower_initializer(cursor)
                return
            for child in cursor.get_children():
                visit(child)

        visit(tu.cursor)

    def _record_class(self, cursor) -> None:
        ci = self.ci
        qname = self._qname(cursor)
        if not qname:
            return
        bases = self.class_bases.setdefault(qname, set())
        for child in cursor.get_children():
            if child.kind == ci.CursorKind.CXX_BASE_SPECIFIER:
                ref = child.referenced
                base = self._qname(ref) if ref is not None else \
                    child.type.spelling
                if base:
                    bases.add(base)

    def _qname(self, cursor) -> str:
        parts = []
        c = cursor
        ci = self.ci
        while c is not None and c.kind != ci.CursorKind.TRANSLATION_UNIT:
            if c.kind == ci.CursorKind.NAMESPACE and not c.spelling:
                parts.append("{anon@%s}" % self._rel(c.location))
            elif c.spelling:
                parts.append(c.spelling)
            c = c.semantic_parent
        return "::".join(reversed(parts))

    def _annotations(self, cursor) -> tuple[set[str], str | None]:
        ci = self.ci
        anns: set[str] = set()
        reason = None
        for child in cursor.get_children():
            if child.kind != ci.CursorKind.ANNOTATE_ATTR:
                continue
            text = child.spelling or ""
            if not text.startswith("dmap::"):
                continue
            tag = text[len("dmap::"):]
            if tag.startswith("hot_path_allow"):
                anns.add(ir.ANN_HOT_PATH_ALLOW)
                reason = tag[len("hot_path_allow"):].lstrip(":")
            else:
                anns.add(tag)
        return anns, reason

    def _lower_function(self, cursor, parent_qname=None) -> None:
        ci = self.ci
        if parent_qname is None:
            qname = self._qname(cursor)
        else:
            qname = "%s::{lambda@%d}" % (parent_qname, cursor.location.line)
        if not qname:
            return
        if cursor.kind == ci.CursorKind.CXX_METHOD:
            cls = self._qname(cursor.semantic_parent)
            if cls:
                self.methods_by_class.setdefault(cls, {}).setdefault(
                    cursor.spelling, qname)
                if cursor.is_virtual_method():
                    self.virtual_methods.add(qname)
        anns, reason = self._annotations(cursor)
        info = ir.FunctionInfo(
            qname=qname, file=self._rel(cursor.location),
            line=cursor.location.line, annotations=anns,
            hot_path_allow_reason=reason,
            is_lambda=parent_qname is not None, parent=parent_qname)
        is_definition = bool(cursor.is_definition()) or \
            parent_qname is not None
        self.program.add_function(info, is_definition=is_definition)
        info = self.program.functions[qname]
        if not is_definition:
            return
        first_fact = len(info.facts)
        for child in cursor.get_children():
            self._lower_body(child, info)
        for fact in info.facts[first_fact:]:
            fact.file = self._rel(cursor.location)

    def _lower_initializer(self, cursor) -> None:
        """A namespace-scope variable or a data member: its facts go to the
        scope's synthetic initializer node."""
        file = self._rel(cursor.location)
        qname = ir.initializer_name(self._qname(cursor.semantic_parent), file)
        info = ir.FunctionInfo(qname=qname, file=file,
                               line=cursor.location.line)
        self._lower_body(cursor, info)
        if not info.facts:
            return
        for fact in info.facts:
            fact.file = file
        self.program.add_function(info, is_definition=True)
        if self.program.functions[qname] is not info:
            self.program.functions[qname].facts.extend(info.facts)

    def _lower_body(self, node, info: ir.FunctionInfo) -> None:
        ci = self.ci
        kind = node.kind
        line = node.location.line or info.line

        if kind == ci.CursorKind.LAMBDA_EXPR:
            self._lower_function(node, parent_qname=info.qname)
            lam_qname = "%s::{lambda@%d}" % (info.qname, node.location.line)
            info.calls.append(ir.CallSite(callee=lam_qname, line=line))
            return

        if kind == ci.CursorKind.CXX_NEW_EXPR:
            info.facts.append(ir.Fact(ir.FACT_ALLOCATES, line,
                                      "operator new"))
        elif kind == ci.CursorKind.DECL_REF_EXPR and \
                node.spelling in IO_DECLS:
            info.facts.append(ir.Fact(ir.FACT_IO, line, "iostream write"))
        elif kind == ci.CursorKind.COMPOUND_ASSIGNMENT_OPERATOR:
            operands = list(node.get_children())
            tokens = [t.spelling for t in node.get_tokens()]
            lhs_tokens = len(list(operands[0].get_tokens())) if operands \
                else 0
            if operands and tokens[lhs_tokens:lhs_tokens + 1] == ["+="] and \
                    operands[0].type.get_canonical().kind in FLOAT_KINDS:
                info.facts.append(ir.Fact(ir.FACT_FLOAT_ACCUM, line,
                                          operands[0].spelling or "<expr>"))
        elif kind == ci.CursorKind.CXX_FOR_RANGE_STMT:
            for child in node.get_children():  # the range expression
                if child.kind.is_expression() and UNORDERED.search(
                        child.type.get_canonical().spelling or ""):
                    info.facts.append(ir.Fact(ir.FACT_UNORDERED_ITER, line,
                                              child.spelling or "<range>"))
                    break
        elif kind in (ci.CursorKind.VAR_DECL, ci.CursorKind.FIELD_DECL):
            type_name = node.type.spelling or ""
            if LOCK_TYPES.search(type_name):
                info.facts.append(ir.Fact(ir.FACT_LOCKS, line,
                                          f"constructs {type_name}"))
            if IO_TYPES.search(type_name):
                info.facts.append(ir.Fact(ir.FACT_IO, line,
                                          f"constructs {type_name}"))
            if SEED_TYPES.search(type_name):
                info.facts.append(ir.Fact(ir.FACT_SEED, line,
                                          f"constructs {type_name}"))

        if kind == ci.CursorKind.CALL_EXPR:
            self._lower_call(node, info, line)

        for child in node.get_children():
            self._lower_body(child, info)

    def _lower_call(self, node, info: ir.FunctionInfo, line: int) -> None:
        ci = self.ci
        callee = node.referenced
        name = node.spelling or (callee.spelling if callee else "")

        if callee is not None:
            target = self._qname(callee)
            if target:
                self._calls.append((info.qname, target, line))

        simple = name.split("::")[-1] if name else ""
        if simple in LOCK_CALLS:
            info.facts.append(ir.Fact(ir.FACT_LOCKS, line,
                                      f"calls {simple}()"))
        if simple in ALLOC_CALLS:
            owner = ""
            if callee is not None and callee.semantic_parent is not None:
                owner = callee.semantic_parent.spelling or ""
            info.facts.append(ir.Fact(
                ir.FACT_ALLOCATES, line,
                f"calls {owner + '::' if owner else ''}{simple}()"))
        if simple == "operator[]" and callee is not None:
            owner_type = (callee.semantic_parent.spelling
                          if callee.semantic_parent else "")
            if MAP_TYPES.search(owner_type or ""):
                info.facts.append(ir.Fact(
                    ir.FACT_ALLOCATES, line,
                    f"{owner_type}::operator[] may insert"))
        if simple in ITER_CALLS and callee is not None and \
                callee.semantic_parent is not None and \
                UNORDERED.search(callee.semantic_parent.spelling or ""):
            info.facts.append(ir.Fact(ir.FACT_UNORDERED_ITER, line,
                                      f"{simple}()"))
        if simple in IO_CALLS:
            info.facts.append(ir.Fact(ir.FACT_IO, line, f"calls {simple}()"))
        if simple in SEED_CALLS:
            info.facts.append(ir.Fact(ir.FACT_SEED, line,
                                      f"calls {simple}()"))
        if callee is not None and "hash<" in (callee.displayname or "") and \
                "*" in (callee.displayname or ""):
            info.facts.append(ir.Fact(ir.FACT_SEED, line,
                                      "std::hash over a pointer"))

        if simple in PARALLEL_APIS:
            self._record_dispatch(node, info, simple, line)

        if simple in ("Counter", "Histogram") and callee is not None:
            owner = (callee.semantic_parent.spelling
                     if callee.semantic_parent else "")
            if owner == "MetricsRegistry" and not \
                    info.qname.endswith(("MetricsRegistry::Counter",
                                         "MetricsRegistry::Histogram")):
                self._record_metric_site(node, simple, info, line)

    def _record_dispatch(self, node, info: ir.FunctionInfo, api: str,
                         line: int) -> None:
        ci = self.ci
        for arg in node.get_arguments() or []:
            a = arg
            while a is not None and a.kind in (
                    ci.CursorKind.UNEXPOSED_EXPR,
                    ci.CursorKind.CXX_FUNCTIONAL_CAST_EXPR,
                    ci.CursorKind.UNARY_OPERATOR):
                children = list(a.get_children())
                a = children[0] if children else None
            if a is None:
                continue
            if a.kind == ci.CursorKind.LAMBDA_EXPR:
                self.program.parallel_entries.append(ir.ParallelEntry(
                    callee="%s::{lambda@%d}" % (info.qname,
                                                a.location.line),
                    api=api, file=self._rel(a.location), line=line))
            elif a.kind == ci.CursorKind.DECL_REF_EXPR and \
                    a.referenced is not None:
                ref = a.referenced
                if ref.kind in (ci.CursorKind.FUNCTION_DECL,
                                ci.CursorKind.CXX_METHOD):
                    self.program.parallel_entries.append(ir.ParallelEntry(
                        callee=self._qname(ref), api=api,
                        file=self._rel(a.location), line=line))
                elif ref.kind == ci.CursorKind.VAR_DECL:
                    # `auto fn = [...]; pool.RunChunks(n, fn);` — find the
                    # lambda initializer (it was lowered when the VAR_DECL
                    # was walked, under the same enclosing function).
                    for child in ref.walk_preorder():
                        if child.kind == ci.CursorKind.LAMBDA_EXPR:
                            self.program.parallel_entries.append(
                                ir.ParallelEntry(
                                    callee="%s::{lambda@%d}" % (
                                        info.qname, child.location.line),
                                    api=api,
                                    file=self._rel(child.location),
                                    line=line))
                            break

    def _record_metric_site(self, node, simple: str, info: ir.FunctionInfo,
                            line: int) -> None:
        ci = self.ci
        args = list(node.get_arguments() or [])
        name = "*"
        literal = False
        if args:
            tokens = list(args[0].get_tokens())
            literals = [t.spelling[1:-1] for t in tokens
                        if t.kind == ci.TokenKind.LITERAL
                        and t.spelling.startswith('"')]
            non_literal = [t for t in tokens
                           if t.kind not in (ci.TokenKind.LITERAL,
                                             ci.TokenKind.PUNCTUATION)]
            if literals and not non_literal:
                name = "".join(literals)
                literal = True
            elif literals:
                name = "*" + literals[-1]
        stability = "deterministic"
        all_tokens = [t.spelling for t in node.get_tokens()]
        if any(t in ("kExecution", "kExec") for t in all_tokens):
            stability = "execution"
        self.program.metric_sites.append(ir.MetricSite(
            kind="counter" if simple == "Counter" else "histogram",
            name=name, literal=literal, stability=stability,
            function=info.qname, file=self._rel(node.location), line=line))

    # -- virtual-dispatch expansion -----------------------------------------

    def _derived_map(self) -> dict[str, list[str]]:
        derived: dict[str, list[str]] = {}
        for cls, bases in self.class_bases.items():
            for base in bases:
                # Bases may be recorded as spellings ("dmap::NameResolver")
                # or qnames; normalize by suffix match against known classes.
                target = base
                if target not in self.class_bases and \
                        target not in self.methods_by_class:
                    simple = base.split("::")[-1]
                    matches = sorted(
                        c for c in set(self.class_bases)
                        | set(self.methods_by_class)
                        if c.split("::")[-1] == simple)
                    target = matches[0] if matches else base
                derived.setdefault(target, []).append(cls)
        return derived

    def _finalize_calls(self) -> None:
        derived = self._derived_map()

        def overrides_of(method_qname: str) -> list[str]:
            if method_qname not in self.virtual_methods:
                return []
            cls, _, simple = method_qname.rpartition("::")
            out = []
            queue = list(derived.get(cls, ()))
            seen = set()
            while queue:
                d = queue.pop()
                if d in seen:
                    continue
                seen.add(d)
                sub = self.methods_by_class.get(d, {}).get(simple)
                if sub:
                    out.append(sub)
                queue.extend(derived.get(d, ()))
            return out

        for caller, target, line in self._calls:
            caller_info = self.program.functions.get(caller)
            if caller_info is None:
                continue
            caller_info.calls.append(ir.CallSite(callee=target, line=line))
            for override in overrides_of(target):
                caller_info.calls.append(ir.CallSite(callee=override,
                                                     line=line))


def load(root: Path, paths: list[Path], compile_commands: Path) -> ir.Program:
    frontend = ClangFrontend(root, compile_commands)
    return frontend.run(paths)
