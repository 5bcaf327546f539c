"""Dependency-free C++ frontend for the semantic analyzer.

Lowers the DMap tree into the IR of ir.py without libclang: a length-
preserving comment/string stripper, a brace-structure scanner that
classifies every scope (namespace / class / function / lambda / block), and
regex passes over each function's own text for calls, facts, annotations
and MetricsRegistry registration sites. Namespace- and class-scope text
outside any function body is scanned for banned seed sources too (static
variables, default member initializers, macro bodies). Designed for the
constrained, clang-formatted C++ in this repository — not arbitrary C++ —
and kept honest by the call-graph fixtures in
tests/tools/analyze_fixtures/.

Known blind spots versus the libclang frontend (documented in DESIGN.md
"Semantic analysis"): allocation through `operator[]` on map types,
overload selection (overloads share one IR node), and calls through
receivers whose type cannot be inferred from a declaration in the same
file. The checkers only *miss* through these holes; they never gain false
positives from them. Float accumulation and unordered iteration match
names, not types: a name the file declares float/double (and never as an
integer) or as an unordered_* container. That heuristic can both miss and
over-report; `lint:allow` waives an over-report.
"""

from __future__ import annotations

import re
from pathlib import Path

from . import ir

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "else", "do", "throw", "case", "new", "delete", "static_assert",
    "decltype", "noexcept", "alignas", "assert", "defined", "co_await",
    "co_return", "co_yield", "requires",
}

# Identifiers that look like calls but are casts/constructions of builtin or
# value types — never call-graph edges, so drop them early.
CAST_NAMES = {
    "int", "unsigned", "long", "short", "char", "bool", "float", "double",
    "size_t", "std::size_t", "ptrdiff_t", "std::ptrdiff_t", "auto",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "std::int8_t", "std::int16_t", "std::int32_t", "std::int64_t",
    "std::uint8_t", "std::uint16_t", "std::uint32_t", "std::uint64_t",
}

ANNOTATION_PATTERNS = [
    (re.compile(r"\bREQUIRES_SERIAL\s*\(\s*\)"), ir.ANN_REQUIRES_SERIAL),
    (re.compile(r"\bREQUIRES_ALL_SHARDS\s*\(\s*\)"),
     ir.ANN_REQUIRES_ALL_SHARDS),
    (re.compile(r"\bWRITE_SERIAL_READ_SHARED\s*\(\s*\)"),
     ir.ANN_WRITE_SERIAL_READ_SHARED),
    (re.compile(r"\bDMAP_HOT_PATH\b(?!_ALLOW)"), ir.ANN_HOT_PATH),
]
HOT_PATH_ALLOW = re.compile(r"\bDMAP_HOT_PATH_ALLOW\s*\(")

LOCK_FACTS = [
    (re.compile(r"\bMutexLock\b"), "constructs dmap::MutexLock"),
    (re.compile(r"(?:\.|->)\s*Lock\s*\(\s*\)"), "calls Mutex::Lock"),
    (re.compile(r"(?:\.|->)\s*lock\s*\(\s*\)"), "calls .lock()"),
    (re.compile(r"\block_guard\b"), "constructs std::lock_guard"),
    (re.compile(r"\bunique_lock\b"), "constructs std::unique_lock"),
    (re.compile(r"\bscoped_lock\b"), "constructs std::scoped_lock"),
    (re.compile(r"\bpthread_mutex_lock\b"), "calls pthread_mutex_lock"),
]

GROWTH_METHODS = (
    "push_back|emplace_back|push_front|emplace_front|resize|reserve|assign|"
    "insert|emplace|try_emplace|emplace_hint|append|push")
ALLOC_FACTS = [
    (re.compile(r"\bnew\b(?!\s*\()"), "operator new"),
    (re.compile(r"(?:\.|->)\s*(" + GROWTH_METHODS + r")\s*\("),
     "container growth"),
    (re.compile(r"\bmake_unique\b|\bmake_shared\b"), "make_unique/shared"),
    (re.compile(r"\bmalloc\b|\bcalloc\b|\brealloc\b|\bstrdup\b"),
     "C allocation"),
    (re.compile(r"(?<![\w:])(?:std\s*::\s*)?to_string\s*\("),
     "std::to_string builds a heap string"),
]

IO_FACTS = [
    (re.compile(r"\b(?:f?printf|fputs|puts|fwrite|fread|fopen|fclose|"
                r"getline|fflush)\s*\("), "C stdio"),
    (re.compile(r"\bstd\s*::\s*(?:cout|cerr|clog)\b"), "iostream write"),
    (re.compile(r"\bo?f?i?fstream\b"), "file stream"),
    (re.compile(r"(?<![\w:])system\s*\("), "system()"),
]

# Banned seed/wall-clock sources.
SEED_FACTS = [
    (re.compile(r"std\s*::\s*chrono\s*::\s*system_clock"),
     "std::chrono::system_clock"),
    (re.compile(r"std\s*::\s*chrono\s*::\s*high_resolution_clock"),
     "std::chrono::high_resolution_clock"),
    (re.compile(r"(?<![\w:])(?:std\s*::\s*)?time\s*\(\s*(?:nullptr|NULL|0|&)"),
     "time()"),
    (re.compile(r"(?<![\w:])gettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w:])clock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"(?<![\w:])(?:std\s*::\s*)?clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"(?<![\w:])(?:std\s*::\s*)?(?:localtime|gmtime|strftime)"
                r"\s*\("), "calendar time"),
    (re.compile(r"(?<![\w:])(?:std\s*::\s*)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w:])(?:std\s*::\s*)?random_device\b"),
     "std::random_device"),
    (re.compile(r"(?<![\w:])(?:std\s*::\s*)?default_random_engine\b"),
     "std::default_random_engine"),
    (re.compile(r"std\s*::\s*hash\s*<[^>;]*\*\s*>"),
     "std::hash over a pointer"),
]

# Float accumulation and unordered iteration. Types are not resolved: a
# name counts as float when the file declares it float/double and never
# with an integer type, and as unordered when the file declares it an
# unordered_* container.
FLOAT_DECL = re.compile(r"\b(?:double|float)\s+(\w+)\s*(?:[=;,){\[]|$)")
INT_DECL = re.compile(
    r"\b(?:(?:std\s*::\s*)?u?int(?:8|16|32|64)_t|(?:std\s*::\s*)?size_t|"
    r"unsigned|int|long|short)\s+(\w+)\s*(?:[=;,){\[]|$)")
UNORDERED_DECL = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s*"
    r"[&*]?\s*(\w+)\s*(?:[=;{(),]|$)")
COMPOUND_ASSIGN = re.compile(r"([\w\]\[.>-]+)\s*\+=")
RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*?:\s*(?:\w+(?:\.|->))?(\w+)\s*\)")
# begin() only: `m.find(k) != m.end()` is a lookup, not an iteration.
BEGIN_ITER = re.compile(r"\b(\w+)\s*(?:\.|->)\s*c?begin\s*\(")

PATTERN_FACTS = {
    ir.FACT_LOCKS: LOCK_FACTS,
    ir.FACT_ALLOCATES: ALLOC_FACTS,
    ir.FACT_IO: IO_FACTS,
    ir.FACT_SEED: SEED_FACTS,
}
FACT_KINDS = (*PATTERN_FACTS, ir.FACT_FLOAT_ACCUM, ir.FACT_UNORDERED_ITER)

CALL_RE = re.compile(
    r"(?:(\b[A-Za-z_]\w*)\s*(\[[^\][]*\])?\s*(\.|->)\s*)?"
    r"((?:[A-Za-z_]\w*\s*::\s*)*(?:operator\s*(?:\(\)|\[\]|[^\s\w(]{1,3})"
    r"|~?[A-Za-z_]\w*))\s*\(")

# Receiver containers unwrapped when called through a subscript
# (`parts[p].Reserve(...)` resolves against the element type).
SUBSCRIPT_WRAPPERS = {
    "std::vector", "vector", "std::array", "array", "std::deque", "deque",
}

LAMBDA_HEADING = re.compile(
    r"\[(?:[^\[\]]*)\]\s*(?:\([^()]*(?:\([^()]*\)[^()]*)*\))?\s*"
    r"(?:mutable\b\s*)?(?:noexcept\b\s*)?(?:->\s*[\w:<>,\s&*]+?)?\s*$")

# Type-then-name declarations, for receiver-type inference. Matches params,
# locals and member variables; the optional template args are captured to
# see through unique_ptr/shared_ptr.
DECL_RE = re.compile(
    r"(?<![\w:.<>])(?:const\s+|static\s+|mutable\s+|constexpr\s+|inline\s+)*"
    r"([A-Za-z_][\w:]*)\s*(?:<\s*([\w:]+)[^;(){}]*?>)?\s*(?:const\s*)?"
    r"[&*]{0,2}\s+([a-z_]\w*)\s*[;=,)({\[]")

DEREF_WRAPPERS = {
    "std::unique_ptr", "unique_ptr", "std::shared_ptr", "shared_ptr",
    "std::optional", "optional",
}

NOT_TYPE_HEADS = {
    "return", "delete", "new", "throw", "case", "goto", "else", "typename",
    "template", "using", "namespace", "public", "private", "protected",
    "virtual", "override", "final", "explicit", "operator", "friend",
    "typedef", "struct", "class", "enum", "union", "if", "for", "while",
    "switch", "do", "catch", "sizeof", "co_return",
}

FN_PTR_ASSIGN = re.compile(
    r"\b([a-z_]\w*)\s*=\s*&?\s*([A-Za-z_][\w:]*)\s*[;,)]")

# Annotation/attribute macro names that look like calls in a declaration
# heading but never name the declared function itself.
ANNOTATION_MACRO_NAME = re.compile(
    r"^(GUARDED_BY|PT_GUARDED_BY|SHARD_CONFINED|"
    r"WRITE_SERIAL_READ_SHARED|REQUIRES|REQUIRES_SHARED|"
    r"REQUIRES_SHARD|REQUIRES_ALL_SHARDS|REQUIRES_SERIAL|"
    r"EXCLUDES|ACQUIRE|RELEASE|DMAP_\w+|alignas)$")
LAMBDA_VAR = re.compile(r"\b(?:const\s+)?auto\s+([a-z_]\w*)\s*=\s*$")

PARALLEL_APIS = ("ParallelFor", "RunChunks")

METRIC_LITERAL = re.compile(r"^\s*(?:\"[^\"]*\"\s*)+$")
METRIC_SUFFIX = re.compile(r"\+\s*\"([^\"]*)\"\s*$")
METRIC_EXEC = re.compile(r"\bkExec(?:ution)?\b")


NOT_NEWLINE = re.compile(r"[^\n]")


def is_digit_separator(text: str, i: int) -> bool:
    """Whether the `'` at `i` ends a numeric-literal prefix (`1'000`), and
    so is a C++14 digit separator rather than a character literal."""
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "_.'"):
        j -= 1
    return j < i and text[j].isdigit()


def strip_comments_and_strings(text: str,
                               keep_directives: bool = False) -> str:
    """Blanks comments, string/char literals and (unless `keep_directives`)
    preprocessor directives, preserving offsets and line structure."""
    out = []
    i, n = 0, len(text)
    line_start = True
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            chunk = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c == "'" and is_digit_separator(text, i):
            out.append(c)  # digit separator: 1'000'000
            i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            j = min(j, n - 1)
            out.append(quote + "".join(ch if ch == "\n" else " "
                                       for ch in text[i + 1:j]) + quote)
            i = j + 1
        elif c == "#" and line_start and not keep_directives:
            # Preprocessor directive (with continuations): blank it out.
            j = i
            while j < n:
                eol = text.find("\n", j)
                eol = n if eol == -1 else eol
                if text[eol - 1] == "\\":
                    j = eol + 1
                else:
                    j = eol
                    break
            out.append("".join(ch if ch == "\n" else " " for ch in
                               text[i:j]))
            i = j
        else:
            if c == "\n":
                line_start = True
            elif not c.isspace():
                line_start = False
            out.append(c)
            i += 1
    return "".join(out)


class Scope:
    __slots__ = ("kind", "name", "start", "end", "parent", "children",
                 "heading", "bases", "qname")

    def __init__(self, kind, name, start, parent, heading=""):
        self.kind = kind  # 'file' | 'namespace' | 'class' | 'function' |
        #                   'lambda' | 'block' | 'other'
        self.name = name
        self.start = start  # offset of '{' (file scope: 0)
        self.end = -1  # offset of matching '}'
        self.parent = parent
        self.children = []
        self.heading = heading
        self.bases = []
        self.qname = ""
        if parent is not None:
            parent.children.append(self)


def heading_before(code: str, brace: int) -> tuple[int, str]:
    """Text from the enclosing statement boundary up to `brace`, skipping
    balanced parens (so `for (a; b; c) {` comes back whole)."""
    depth = 0
    j = brace - 1
    while j >= 0:
        c = code[j]
        if c == ")":
            depth += 1
        elif c == "(":
            if depth == 0:
                break  # unmatched open paren: we are inside an argument list
            depth -= 1
        elif depth == 0 and c in ";{}":
            break
        j -= 1
    return j + 1, code[j + 1:brace]


def top_level_candidates(heading: str) -> list[str]:
    """Identifiers (possibly qualified / operator names) directly followed
    by '(' at paren depth 0 of `heading`, in order."""
    out = []
    depth = 0
    for m in CALL_RE.finditer(heading):
        pos = m.start(4)
        depth = heading.count("(", 0, pos) - heading.count(")", 0, pos)
        if depth == 0:
            out.append(re.sub(r"\s+", "", m.group(4)))
    return out


def classify_brace(code: str, brace: int, scope: Scope) -> tuple[str, str, str]:
    """Returns (kind, name, heading) for the '{' at `brace`."""
    _, heading = heading_before(code, brace)
    stripped = heading.strip()

    if scope.kind in ("function", "lambda", "block"):
        if LAMBDA_HEADING.search(heading) and "[" in heading:
            return "lambda", "", heading
        return "block", "", heading

    if re.match(r"^(?:inline\s+)?namespace\b", stripped):
        m = re.match(r"^(?:inline\s+)?namespace\s+([\w:]+)", stripped)
        return "namespace", m.group(1) if m else "{anon}", heading
    if stripped.startswith("extern"):
        return "other", "", heading
    if re.search(r"\benum\b", stripped):
        return "other", "", heading

    class_m = re.search(r"\b(class|struct|union)\b", stripped)
    candidates = top_level_candidates(heading)
    if class_m and not candidates or (
            class_m and candidates and not _looks_like_function(stripped)):
        pre = stripped[class_m.end():]
        # Cut the base clause at the first top-level ':' (':' of '::' is not
        # a base clause).
        depth = 0
        cut = len(pre)
        k = 0
        while k < len(pre):
            c = pre[k]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == ":" and depth == 0:
                if k + 1 < len(pre) and pre[k + 1] == ":":
                    k += 2
                    continue
                if k > 0 and pre[k - 1] == ":":
                    k += 1
                    continue
                cut = k
                break
            k += 1
        head, base_clause = pre[:cut], pre[cut + 1:] if cut < len(pre) else ""
        names = [t for t in re.findall(r"\b[A-Za-z_]\w*\b", _mask_parens(head))
                 if t not in ("final", "alignas", "CAPABILITY",
                              "SCOPED_CAPABILITY", "DMAP_EXPORT")]
        name = names[-1] if names else "{anon-class}"
        bases = re.findall(
            r"(?:^|,)\s*(?:public\s+|protected\s+|private\s+|virtual\s+)*"
            r"([\w:]+)", base_clause)
        return "class", name, heading + "\x00" + ",".join(bases)

    if candidates:
        name = candidates[0]
        if name.split("::")[-1] not in CONTROL_KEYWORDS:
            return "function", name, heading
    return "other", "", heading


def _mask_parens(text: str) -> str:
    out = []
    depth = 0
    for c in text:
        if c == "(":
            depth += 1
            out.append(" ")
        elif c == ")":
            depth -= 1
            out.append(" ")
        else:
            out.append(c if depth == 0 else " ")
    return "".join(out)


def _looks_like_function(stripped: str) -> bool:
    """Distinguishes `struct tm* Fn(...)` from `struct Foo : Base`."""
    # A function heading's last top-level paren group is its parameter list,
    # after which only qualifier tokens may appear.
    m = re.search(r"\)\s*(?:const|noexcept|override|final|mutable|->|\w|\s)*$",
                  stripped)
    return bool(m) and "(" in stripped and not stripped.endswith("=")


def scan_scopes(code: str, rel: str) -> Scope:
    root = Scope("file", rel, 0, None)
    scope = root
    for i, c in enumerate(code):
        if c == "{":
            kind, name, heading = classify_brace(code, i, scope)
            bases = []
            if kind == "class" and "\x00" in heading:
                heading, base_str = heading.split("\x00", 1)
                bases = [b for b in base_str.split(",") if b]
            child = Scope(kind, name, i, scope, heading)
            child.bases = bases
            scope = child
        elif c == "}":
            if scope.parent is not None:
                scope.end = i
                scope = scope.parent
    # Unterminated scopes (unbalanced braces) close at EOF.
    s = scope
    while s is not None:
        if s.end < 0:
            s.end = len(code)
        s = s.parent
    return root


def line_of(code: str, pos: int) -> int:
    return code.count("\n", 0, pos) + 1


class LiteFrontend:
    def __init__(self, root: Path):
        self.root = root
        self.program = ir.Program(frontend="lite")
        # class qname -> {"bases": [...], "methods": {name: qname},
        #                 "members": {var: type}, "virtual": set(names)}
        self.classes: dict[str, dict] = {}
        self.free_by_name: dict[str, list[str]] = {}
        # Call candidates awaiting global resolution:
        # (caller_qname, receiver_var, accessor, name, line, open, close, file)
        self.pending_calls: list[tuple] = []
        # caller -> {var: type} for receiver inference
        self.var_types: dict[str, dict[str, tuple[str, str]]] = {}
        # caller -> {var: lambda_or_function_qname}
        self.callable_vars: dict[str, dict[str, str]] = {}
        # (caller, api, open, close, file, line) for parallel-dispatch calls
        self.dispatch_sites: list[tuple] = []
        # lambda qname -> (parent_qname, intro_pos, file)
        self.lambda_pos: dict[str, tuple[str, int, str]] = {}

    # -- file pass ----------------------------------------------------------

    def parse_file(self, raw: str, rel: str) -> None:
        code = strip_comments_and_strings(raw)
        # Directive text only (macro bodies), blank elsewhere.
        self._directives = "".join(
            k if k != c else (c if c == "\n" else " ")
            for k, c in zip(strip_comments_and_strings(raw, True), code))
        self._float_names = set(FLOAT_DECL.findall(code)) - set(
            INT_DECL.findall(code))
        self._unordered_names = set(UNORDERED_DECL.findall(code))
        tree = scan_scopes(code, rel)
        self._assign_qnames(tree, [], rel)
        self._collect_initializers(tree, raw, code, rel)
        self._collect(tree, raw, code, rel)

    def _assign_qnames(self, scope: Scope, stack: list[str], rel: str) -> None:
        for child in scope.children:
            if child.kind == "namespace":
                name = child.name if child.name != "{anon}" else (
                    "{anon@%s}" % rel)
                child.qname = "::".join(stack + [name])
                self._assign_qnames(child, stack + [name], rel)
            elif child.kind == "class":
                child.qname = "::".join(stack + [child.name])
                self._assign_qnames(child, stack + [child.name], rel)
            elif child.kind == "function":
                name = re.sub(r"\s+", "", child.name)
                child.qname = "::".join(stack + [name])
                self._assign_qnames(child, stack + [name], rel)
            elif child.kind == "lambda":
                parent_fn = enclosing_function(child)
                base = parent_fn.qname if parent_fn is not None else (
                    "::".join(stack) or rel)
                child.qname = "%s::{lambda@%d}" % (base, child.start)
                self._assign_qnames(child, stack, rel)
            else:
                child.qname = scope.qname
                self._assign_qnames(child, stack, rel)

    def _collect(self, scope: Scope, raw: str, code: str, rel: str) -> None:
        for child in scope.children:
            if child.kind == "class":
                self._collect_class(child, raw, code, rel)
            elif child.kind in ("function", "lambda"):
                self._collect_function(child, raw, code, rel)
            elif child.kind == "namespace":
                self._collect_free_decls(child, raw, code, rel)
            if child.kind in ("class", "namespace"):
                self._collect_initializers(child, raw, code, rel)
            self._collect(child, raw, code, rel)

    def _collect_initializers(self, scope: Scope, raw, code, rel) -> None:
        """Seed facts in a file/namespace/class scope's own text — namespace-
        scope variables, default member initializers, default arguments of
        declarations, and at file scope every macro body in the file,
        wherever its #define sits — onto one synthetic
        initializer node. Function, lambda, class and namespace scopes are
        masked with their headings (they are lowered on their own); brace
        initializers and other blocks stay visible."""
        start = scope.start + 1 if scope.parent is not None else 0
        masked = []
        stack = list(scope.children)
        while stack:
            child = stack.pop()
            if child.kind in ("other", "block"):
                stack.extend(child.children)
            else:
                masked.append((child.start - len(child.heading), child.end + 1))
        pieces, pos = [], start
        for begin, end in sorted(masked):
            begin = max(begin, pos)
            pieces += [code[pos:begin], NOT_NEWLINE.sub(" ", code[begin:end])]
            pos = max(pos, end)
        pieces.append(code[pos:scope.end])
        own = "".join(pieces)
        if scope.parent is None:
            own = "".join(d if d.strip() else c
                          for c, d in zip(own, self._directives))
        info = ir.FunctionInfo(qname=ir.initializer_name(scope.qname, rel),
                               file=rel, line=line_of(raw, start))
        self._extract_facts(info, own, start, raw, rel, kinds=(ir.FACT_SEED,))
        if info.facts:
            self.program.add_function(info, is_definition=True)

    def _class_entry(self, qname: str) -> dict:
        return self.classes.setdefault(
            qname, {"bases": [], "methods": {}, "members": {},
                    "virtual": set()})

    def _collect_class(self, scope: Scope, raw, code, rel) -> None:
        entry = self._class_entry(scope.qname)
        for base in scope.bases:
            base = base.strip()
            if base and base not in entry["bases"]:
                entry["bases"].append(base)
        # The class's own text: body minus nested scopes, with nested
        # function bodies replaced by ';' so member chunks split cleanly.
        body = list(code[scope.start + 1:scope.end])
        offset = scope.start + 1
        for child in scope.children:
            for k in range(child.start - offset, child.end + 1 - offset):
                if 0 <= k < len(body) and body[k] != "\n":
                    body[k] = " "
            if child.kind in ("function", "lambda", "other"):
                k = child.end - offset
                if 0 <= k < len(body):
                    body[k] = ";"
        own = "".join(body)

        for chunk_m in re.finditer(r"[^;]+", own):
            chunk = chunk_m.group(0)
            chunk_start = scope.start + 1 + chunk_m.start()
            self._collect_member_chunk(scope, entry, chunk, chunk_start, raw,
                                       rel)

    def _collect_member_chunk(self, scope: Scope, entry: dict, chunk: str,
                              chunk_start: int, raw: str, rel: str) -> None:
        stripped = chunk.strip()
        if not stripped:
            return
        cands = top_level_candidates(chunk)
        is_method = False
        if cands:
            name = cands[0].split("::")[-1]
            if name not in CONTROL_KEYWORDS and not ANNOTATION_MACRO_NAME.match(
                    cands[0]):
                # Method declaration (or inline definition already recorded
                # as a function scope — merging is idempotent).
                is_method = True
                qname = scope.qname + "::" + name
                info = ir.FunctionInfo(
                    qname=qname, file=rel,
                    line=line_of(raw, chunk_start))
                self._apply_annotations(info, chunk, raw, chunk_start)
                self.program.add_function(info, is_definition=False)
                entry["methods"].setdefault(name, qname)
                if re.search(r"\bvirtual\b|\boverride\b", chunk):
                    entry["virtual"].add(name)
        if not is_method:
            m = DECL_RE.search(chunk + ";")
            if m and m.group(1) not in NOT_TYPE_HEADS:
                head, targ, var = m.group(1), m.group(2), m.group(3)
                entry["members"][var] = (head, targ or "")

    def _collect_free_decls(self, scope: Scope, raw, code, rel) -> None:
        """Annotated free-function declarations at namespace scope:
        `int Fast(int) DMAP_HOT_PATH;` has no body, so the scope walk never
        visits it — chunk the namespace's own text like a class body and
        record any declaration carrying a contract annotation. Unannotated
        declarations are skipped (they add nothing to the checkers and the
        matching definition supersedes them anyway)."""
        start = scope.start + 1
        body = list(code[start:scope.end])
        for child in scope.children:
            for k in range(child.start - start, child.end + 1 - start):
                if 0 <= k < len(body) and body[k] != "\n":
                    body[k] = " "
            k = child.end - start
            if 0 <= k < len(body):
                body[k] = ";"
        own = "".join(body)
        prefix = scope.qname + "::" if scope.qname else ""
        for chunk_m in re.finditer(r"[^;]+", own):
            chunk = chunk_m.group(0)
            if not any(p.search(chunk) for p, _ in ANNOTATION_PATTERNS) and \
                    not HOT_PATH_ALLOW.search(chunk):
                continue
            cands = top_level_candidates(chunk)
            if not cands:
                continue
            name = cands[0].split("::")[-1]
            if name in CONTROL_KEYWORDS or \
                    ANNOTATION_MACRO_NAME.match(cands[0]):
                continue
            chunk_start = start + chunk_m.start()
            info = ir.FunctionInfo(qname=prefix + name, file=rel,
                                   line=line_of(raw, chunk_start))
            self._apply_annotations(info, chunk, raw, chunk_start)
            self.program.add_function(info, is_definition=False)

    def _apply_annotations(self, info: ir.FunctionInfo, text: str, raw: str,
                           offset: int) -> None:
        for pattern, ann in ANNOTATION_PATTERNS:
            if pattern.search(text):
                info.annotations.add(ann)
        m = HOT_PATH_ALLOW.search(text)
        if m:
            info.annotations.add(ir.ANN_HOT_PATH_ALLOW)
            open_pos = offset + m.end() - 1
            close_pos = match_paren(raw, open_pos)
            arg = raw[open_pos + 1:close_pos]
            lit = re.findall(r'"([^"]*)"', arg)
            info.hot_path_allow_reason = "".join(lit)

    @staticmethod
    def _owned(scope: Scope) -> list[Scope]:
        """Direct lambda/class/function scopes of `scope`, looking through
        transparent block/other scopes (a lambda inside a `for` body still
        belongs to the enclosing function)."""
        out = []
        stack = list(scope.children)
        while stack:
            child = stack.pop()
            if child.kind in ("lambda", "class", "function"):
                out.append(child)
            else:
                stack.extend(child.children)
        out.sort(key=lambda s: s.start)
        return out

    def _collect_function(self, scope: Scope, raw, code, rel) -> None:
        qname = scope.qname
        info = ir.FunctionInfo(
            qname=qname, file=rel, line=line_of(raw, scope.start),
            is_lambda=(scope.kind == "lambda"))
        if scope.kind == "lambda":
            parent_fn = enclosing_function(scope)
            info.parent = parent_fn.qname if parent_fn else None
            hstart, _ = heading_before(code, scope.start)
            intro = code.find("[", hstart, scope.start)
            self.lambda_pos[qname] = (info.parent, intro if intro >= 0
                                      else scope.start, rel)
        self._apply_annotations(info, scope.heading, raw,
                                scope.start - len(scope.heading))
        self.program.add_function(info, is_definition=True)
        info = self.program.functions[qname]

        # Own text: body minus nested lambda/class bodies (blocks are
        # transparent; a lambda defined inside a `for` is still masked).
        body_start = scope.start + 1
        body = list(code[body_start:scope.end])
        owned = self._owned(scope)
        for child in owned:
            for k in range(child.start - body_start,
                           child.end + 1 - body_start):
                if 0 <= k < len(body) and body[k] != "\n":
                    body[k] = " "
        own = "".join(body)
        # Heading participates too: constructor-initializer lists call
        # functions, and parameter declarations feed type inference.
        heading = scope.heading

        self._infer_types(qname, heading + "," + own)
        self._track_callables(owned, code, own, qname)
        self._extract_calls(qname, heading, scope.start - len(heading), raw,
                            rel, skip_self=True)
        self._extract_calls(qname, own, body_start, raw, rel)
        self._extract_facts(info, heading, scope.start - len(heading), raw,
                            rel)
        self._extract_facts(info, own, body_start, raw, rel)

        # Every lambda defined inside a function is an edge from it (the
        # lambda's body runs on some path through the function).
        for child in owned:
            if child.kind == "lambda":
                info.calls.append(ir.CallSite(
                    callee=child.qname, line=line_of(raw, child.start)))

    def _infer_types(self, qname: str, text: str) -> None:
        types = self.var_types.setdefault(qname, {})
        for m in DECL_RE.finditer(text):
            head, targ, var = m.group(1), m.group(2) or "", m.group(3)
            if head in NOT_TYPE_HEADS or head in CAST_NAMES:
                continue
            types.setdefault(var, (head, targ))

    def _track_callables(self, owned: list[Scope], code: str,
                         own: str, qname: str) -> None:
        table = self.callable_vars.setdefault(qname, {})
        # `auto name = [...]...{` — the lambda child whose heading binds it.
        for child in owned:
            if child.kind != "lambda":
                continue
            hstart, heading = heading_before(code, child.start)
            intro = heading.find("[")
            m = LAMBDA_VAR.search(heading[:intro]) if intro > 0 else None
            if m:
                table[m.group(1)] = child.qname
        # Function pointers: `fp = &Target;` / `Fn fp = Target;`.
        for m in FN_PTR_ASSIGN.finditer(own):
            var, target = m.group(1), m.group(2)
            if var in table or target in NOT_TYPE_HEADS or target == var:
                continue
            table.setdefault(var, "&" + target)

    def _extract_calls(self, qname: str, text: str, offset: int, raw: str,
                       rel: str, skip_self: bool = False) -> None:
        for m in CALL_RE.finditer(text):
            receiver, subscript, accessor, name = (
                m.group(1), m.group(2), m.group(3), m.group(4))
            name = re.sub(r"\s+", "", name)
            simple = name.split("::")[-1]
            if simple in CONTROL_KEYWORDS or name in CAST_NAMES:
                continue
            if skip_self and (qname == name or qname.endswith("::" + name)):
                continue  # the function's own signature is not a call
            open_pos = offset + m.end() - 1
            close_pos = match_paren(raw, open_pos)
            line = line_of(raw, open_pos)
            self.pending_calls.append(
                (qname, receiver, subscript is not None, accessor, name,
                 line, open_pos, close_pos, rel))
            if simple in PARALLEL_APIS:
                self.dispatch_sites.append(
                    (qname, simple, open_pos, close_pos, rel, line))
            if simple in ("Counter", "Histogram") and accessor:
                self._metric_site(qname, simple.lower(), raw, open_pos,
                                  close_pos, rel, line)

    def _metric_site(self, qname, kind, raw, open_pos, close_pos, rel,
                     line) -> None:
        args = raw[open_pos + 1:close_pos]
        first = split_args(args)
        first_arg = first[0] if first else ""
        if METRIC_LITERAL.match(first_arg):
            name = "".join(re.findall(r'"([^"]*)"', first_arg))
            literal = True
        else:
            suffix = METRIC_SUFFIX.search(first_arg.strip())
            name = "*" + suffix.group(1) if suffix else "*"
            literal = False
        stability = ("execution" if METRIC_EXEC.search(args)
                     else "deterministic")
        self.program.metric_sites.append(ir.MetricSite(
            kind=("counter" if kind == "counter" else "histogram"),
            name=name, literal=literal, stability=stability, function=qname,
            file=rel, line=line))

    def _extract_facts(self, info: ir.FunctionInfo, text: str, offset: int,
                       raw: str, rel: str,
                       kinds: tuple[str, ...] = FACT_KINDS) -> None:
        found: list[tuple[str, int, str]] = []
        first_line = line_of(raw, offset)
        for line_no, line in enumerate(text.splitlines(), start=first_line):
            if not line.strip():
                continue
            for kind in kinds:
                found.extend((kind, line_no, detail)
                             for pattern, detail in PATTERN_FACTS.get(kind, ())
                             if pattern.search(line))
            if ir.FACT_FLOAT_ACCUM in kinds:
                for m in COMPOUND_ASSIGN.finditer(line):
                    # Last member of the access path: `cell.sum` -> `sum`,
                    # `slab->counters[id]` -> `counters`.
                    leaf = re.sub(r"\[.*", "",
                                  re.split(r"\.|->", m.group(1))[-1])
                    if leaf in self._float_names:
                        found.append((ir.FACT_FLOAT_ACCUM, line_no, leaf))
            if ir.FACT_UNORDERED_ITER in kinds:
                iterated = set(RANGE_FOR.findall(line)) | set(
                    BEGIN_ITER.findall(line))
                found.extend((ir.FACT_UNORDERED_ITER, line_no, name)
                             for name in sorted(iterated &
                                                self._unordered_names))
        info.facts.extend(ir.Fact(kind, line_no, detail, rel)
                          for kind, line_no, detail in found)

    # -- global resolution --------------------------------------------------

    def resolve(self) -> ir.Program:
        self._index_free_functions()
        self._derived = self._build_derived_map()
        for (caller, receiver, subscripted, accessor, name, line, open_pos,
             close_pos, rel) in self.pending_calls:
            targets = self._resolve_call(caller, receiver, accessor, name,
                                         subscripted)
            caller_info = self.program.functions.get(caller)
            if caller_info is None:
                continue
            for target in targets:
                caller_info.calls.append(ir.CallSite(callee=target,
                                                     line=line))
        self._resolve_dispatch_sites()
        return self.program

    def _index_free_functions(self) -> None:
        method_names = set()
        for entry in self.classes.values():
            method_names.update(entry["methods"].values())
        for qname in self.program.functions:
            simple = qname.split("::")[-1]
            self.free_by_name.setdefault(simple, []).append(qname)

    def _build_derived_map(self) -> dict[str, list[str]]:
        derived: dict[str, list[str]] = {}
        for cls, entry in self.classes.items():
            for base in entry["bases"]:
                base_qname = self._class_by_name(base)
                if base_qname:
                    derived.setdefault(base_qname, []).append(cls)
        return derived

    def _class_by_name(self, name: str) -> str | None:
        name = name.strip()
        if name in self.classes:
            return name
        simple = name.split("::")[-1]
        matches = sorted(c for c in self.classes
                         if c.split("::")[-1] == simple)
        return matches[0] if matches else None

    def _method_in_hierarchy(self, cls: str, method: str):
        """(owner_class, method_qname) walking `cls` then its bases."""
        seen = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            entry = self.classes.get(current)
            if entry is None:
                continue
            if method in entry["methods"]:
                return current, entry["methods"][method]
            for base in entry["bases"]:
                base_qname = self._class_by_name(base)
                if base_qname:
                    queue.append(base_qname)
        return None, None

    def _overrides_of(self, owner: str, method: str) -> list[str]:
        """Method qnames overriding `owner::method` in the derived closure."""
        out = []
        queue = list(self._derived.get(owner, ()))
        seen = set()
        while queue:
            cls = queue.pop(0)
            if cls in seen:
                continue
            seen.add(cls)
            entry = self.classes.get(cls)
            if entry and method in entry["methods"]:
                out.append(entry["methods"][method])
            queue.extend(self._derived.get(cls, ()))
        return out

    def _enclosing_class_of(self, qname: str) -> str | None:
        parts = qname.split("::")
        for k in range(len(parts) - 1, 0, -1):
            candidate = "::".join(parts[:k])
            if candidate in self.classes:
                return candidate
        return None

    def _receiver_class(self, caller: str, receiver: str,
                        subscripted: bool = False) -> str | None:
        if receiver == "this":
            return self._enclosing_class_of(caller)
        # Walk the lambda parent chain: a lambda body sees the enclosing
        # function's locals through its captures.
        var_type = None
        scope_fn: str | None = caller
        while scope_fn is not None:
            var_type = self.var_types.get(scope_fn, {}).get(receiver)
            if var_type is not None:
                break
            info = self.program.functions.get(scope_fn)
            scope_fn = info.parent if info is not None else None
        if var_type is None:
            cls = self._enclosing_class_of(caller)
            if cls:
                var_type = self.classes[cls]["members"].get(receiver)
        if var_type is None:
            return None
        head, targ = var_type
        if head in DEREF_WRAPPERS and targ:
            head = targ
        elif subscripted and head in SUBSCRIPT_WRAPPERS and targ:
            head = targ
        return self._class_by_name(head)

    def _resolve_call(self, caller: str, receiver, accessor, name,
                      subscripted: bool = False) -> list:
        simple = name.split("::")[-1]

        # Calls through a tracked callable variable (lambda / fn pointer),
        # looking through the lambda parent chain for captured callables.
        if receiver is None and "::" not in name:
            bound = None
            scope_fn: str | None = caller
            while scope_fn is not None and bound is None:
                bound = self.callable_vars.get(scope_fn, {}).get(name)
                info = self.program.functions.get(scope_fn)
                scope_fn = info.parent if info is not None else None
            if bound == "&" + name:
                bound = None  # self-referential binding (x = x + ...)
            if bound:
                if bound.startswith("&"):
                    return self._resolve_call(caller, None, None, bound[1:])
                return [bound]

        if "::" in name:
            # Explicitly qualified: match by trailing components; no virtual
            # expansion (matches C++ semantics for qualified calls).
            suffix = "::" + name
            matches = sorted(q for q in self.program.functions
                             if q == name or q.endswith(suffix))
            return matches[:1]

        if receiver is not None:
            cls = self._receiver_class(caller, receiver, subscripted)
            if cls is None:
                return []
            owner, method_qname = self._method_in_hierarchy(cls, simple)
            if method_qname is None:
                return []
            targets = [method_qname]
            if simple in self.classes.get(owner, {}).get("virtual", ()):  # noqa
                targets.extend(self._overrides_of(owner, simple))
            return sorted(set(targets))

        # Unqualified: own class first (virtual dispatch through `this`
        # included), then enclosing namespaces, then a unique global match.
        cls = self._enclosing_class_of(caller)
        if cls is not None:
            owner, method_qname = self._method_in_hierarchy(cls, simple)
            if method_qname is not None:
                targets = [method_qname]
                if simple in self.classes.get(owner, {}).get("virtual", ()):
                    targets.extend(self._overrides_of(owner, simple))
                return sorted(set(targets))
        parts = caller.split("::")
        for k in range(len(parts) - 1, -1, -1):
            candidate = "::".join(parts[:k] + [simple])
            if candidate in self.program.functions and candidate != caller:
                return [candidate]
        matches = self.free_by_name.get(simple, [])
        free = sorted(m for m in matches
                      if self._enclosing_class_of(m) is None)
        if len(free) == 1 and free[0] != caller:
            return free
        return []

    def _resolve_dispatch_sites(self) -> None:
        for (caller, api, open_pos, close_pos, rel, line) in \
                self.dispatch_sites:
            # Lambdas written directly in the argument list.
            for lam, (parent, intro, lam_file) in self.lambda_pos.items():
                if (parent == caller and lam_file == rel
                        and open_pos < intro < close_pos):
                    self.program.parallel_entries.append(ir.ParallelEntry(
                        callee=lam, api=api, file=rel, line=line))
            # Callable variables / function names passed as arguments.
            raw_args = self._raw_by_file[rel][open_pos + 1:close_pos]
            for arg in split_args(raw_args):
                token = arg.strip().lstrip("&").strip()
                if not re.fullmatch(r"[A-Za-z_][\w:]*", token):
                    continue
                bound = self.callable_vars.get(caller, {}).get(token)
                if bound and not bound.startswith("&"):
                    self.program.parallel_entries.append(ir.ParallelEntry(
                        callee=bound, api=api, file=rel, line=line))
                    continue
                target = bound[1:] if bound else token
                resolved = self._resolve_call(caller, None, None, target)
                for fn in resolved:
                    self.program.parallel_entries.append(ir.ParallelEntry(
                        callee=fn, api=api, file=rel, line=line))

    # -- driver -------------------------------------------------------------

    def run(self, paths: list[Path]) -> ir.Program:
        self._raw_by_file: dict[str, str] = {}
        for f in ir.source_files(paths):
            rel = ir.relative(self.root, f)
            raw = f.read_text(encoding="utf-8", errors="replace")
            self._raw_by_file[rel] = raw
            self.parse_file(raw, rel)
        return self.resolve()


def enclosing_function(scope: Scope):
    s = scope.parent
    while s is not None:
        if s.kind in ("function", "lambda"):
            return s
        s = s.parent
    return None


def match_paren(text: str, open_pos: int) -> int:
    depth = 0
    for k in range(open_pos, len(text)):
        if text[k] == "(":
            depth += 1
        elif text[k] == ")":
            depth -= 1
            if depth == 0:
                return k
    return len(text) - 1


def split_args(args: str) -> list[str]:
    out = []
    depth = 0
    current = []
    for c in args:
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        if c == "," and depth == 0:
            out.append("".join(current))
            current = []
        else:
            current.append(c)
    if current:
        out.append("".join(current))
    return out


def load(root: Path, paths: list[Path]) -> ir.Program:
    frontend = LiteFrontend(root)
    return frontend.run(paths)
