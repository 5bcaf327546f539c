#!/usr/bin/env python3
"""Tests for tools/analyze (the semantic call-graph analyzer).

Each fixture under tests/tools/analyze_fixtures/ carries known violations;
the tests copy fixtures into a throwaway tree (under src/obs/ where a rule
is scoped to it), run the analyzer as a subprocess with the lite frontend
(always available), and assert the expected checker fires the expected
number of times — or, for a waived construct, does not. The call-graph tests
assert resolved edges (virtual dispatch, nested lambdas, function pointers)
via --dump-callgraph. The clang-frontend parity tests run only when the
python bindings and libclang are installed (the CI semantic-analysis job);
elsewhere they are skipped.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "analyze_fixtures"


def clang_frontend_available():
    sys.path.insert(0, str(REPO))
    try:
        from tools.analyze import frontend_clang
        return frontend_clang.available()
    except Exception:  # pragma: no cover - import machinery varies
        return False
    finally:
        sys.path.pop(0)


def run_analyzer(root, *extra, frontend="lite"):
    return subprocess.run(
        [sys.executable, "-m", "tools.analyze", "--root", str(root),
         "--frontend", frontend, *extra],
        capture_output=True, text=True, check=False, cwd=REPO)


def stage(tmp, *fixtures, rel="src"):
    """Copies fixtures into <tmp>/<rel>/; src/ is the analyzer's default
    path."""
    dest = Path(tmp) / rel
    dest.mkdir(parents=True, exist_ok=True)
    for fixture in fixtures:
        shutil.copy(FIXTURES / fixture, dest / fixture)
    return dest


def write_compile_commands(tmp, fixtures, rel="src"):
    """A compile_commands.json for fixtures staged under <tmp>/<rel>/, as
    the clang frontend needs."""
    path = Path(tmp) / "compile_commands.json"
    path.write_text(json.dumps([
        {"directory": str(tmp),
         "command": f"clang++ -std=c++20 -I{REPO}/src -c {rel}/{f}",
         "file": f"{rel}/{f}"}
        for f in fixtures
    ]))
    return path


class AnalyzeCheckerTest(unittest.TestCase):
    def analyze_fixture(self, fixture, *extra, rel="src", frontend="lite"):
        with tempfile.TemporaryDirectory() as tmp:
            stage(tmp, fixture, rel=rel)
            if frontend == "clang":
                extra += ("--compile-commands",
                          str(write_compile_commands(tmp, [fixture], rel)))
            return run_analyzer(tmp, *extra, frontend=frontend)

    def assert_findings(self, result, checker, count):
        self.assertEqual(result.returncode, 1,
                         result.stdout + result.stderr)
        self.assertEqual(result.stdout.count(f"[{checker}]"), count,
                         result.stdout)

    def test_serial_confinement_fires(self):
        result = self.analyze_fixture("serial_confinement.cc",
                                      "--checks", "serial-confinement")
        self.assert_findings(result, "serial-confinement", 2)
        self.assertIn("fix::Store::Commit", result.stdout)
        self.assertIn("fix::Store::Publish", result.stdout)
        self.assertIn("RunChunks", result.stdout)  # dispatch site is named
        self.assertNotIn("ReadOnly", result.stdout)

    def test_hot_path_purity_fires(self):
        result = self.analyze_fixture("hot_path.cc",
                                      "--checks", "hot-path-purity")
        self.assert_findings(result, "hot-path-purity", 3)
        self.assertIn("allocates", result.stdout)
        self.assertIn("locks", result.stdout)
        self.assertIn("io", result.stdout)
        # The allocating callee is named with the full path from the hot
        # function; the allow-hatch user stays clean.
        self.assertIn("fix::Index::Grow", result.stdout)
        self.assertNotIn("FastClean", result.stdout)
        self.assertNotIn("ScratchFor", result.stdout)

    def test_hot_path_allow_misuse_fires(self):
        result = self.analyze_fixture("hot_path_allow.cc",
                                      "--checks", "hot-path-purity")
        self.assert_findings(result, "hot-path-purity", 2)
        self.assertIn("non-empty reason", result.stdout)
        self.assertIn("pick one", result.stdout)

    def test_seed_purity_fires(self):
        result = self.analyze_fixture("seed_purity.cc",
                                      "--checks", "seed-purity")
        self.assert_findings(result, "seed-purity", 3)
        self.assertIn("rand()", result.stdout)
        self.assertIn("time()", result.stdout)
        self.assertIn("std::random_device", result.stdout)
        # The dead-code source is reported with the unreachable qualifier.
        self.assertEqual(result.stdout.count("not reachable"), 1,
                         result.stdout)
        # The reachable one names the entry point on its path.
        self.assertIn("RunFixtureExperiment", result.stdout)

    def test_wall_clock_and_rand_fire_under_seed_purity(self):
        for fixture in ("wall_clock.cc", "rand.cc"):
            with self.subTest(fixture=fixture):
                result = self.analyze_fixture(fixture,
                                              "--checks", "seed-purity")
                self.assert_findings(result, "seed-purity", 2)

    # Seed sources of file_scope.cc that both frontends lower: a namespace-
    # scope static and a default member initializer, each on its scope's
    # synthetic `<scope>::{initializer@<file>}` node.
    FILE_SCOPE_INITIALIZERS = (
        (15, "fix::{initializer@", "std::random_device"),
        (18, "fix::Stamped::{initializer@", "clock()"))

    def assert_file_scope_sources(self, result, sources):
        for line, node, source in sources:
            self.assertRegex(
                result.stdout,
                rf"file_scope\.cc:{line}: \[seed-purity\] "
                rf"{re.escape(node)}[^\n]*{re.escape(source)}")

    def test_file_scope_sources_fire_seed_purity(self):
        result = self.analyze_fixture("file_scope.cc",
                                      "--checks", "seed-purity")
        self.assert_findings(result, "seed-purity", 4)
        self.assert_file_scope_sources(
            result, self.FILE_SCOPE_INITIALIZERS + (
                (8, "{initializer@", "time()"),
                (22, "{initializer@", "rand()")))

    @unittest.skipUnless(clang_frontend_available(),
                         "libclang python bindings not installed")
    def test_clang_frontend_parity_on_file_scope_initializers(self):
        # The two #define bodies are never expanded, so only the lite
        # frontend, which scans macro text, reports them.
        result = self.analyze_fixture("file_scope.cc", "--checks",
                                      "seed-purity", frontend="clang")
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assert_file_scope_sources(result, self.FILE_SCOPE_INITIALIZERS)

    def assert_float_accumulation(self, frontend):
        result = self.analyze_fixture("float_accumulation.cc", "--checks",
                                      "float-accumulation", rel="src/obs",
                                      frontend=frontend)
        self.assert_findings(result, "float-accumulation", 1)
        self.assertIn("`merged +=`", result.stdout)
        # The same construct outside src/obs/ is not a merge/export path.
        result = self.analyze_fixture("float_accumulation.cc", "--checks",
                                      "float-accumulation", rel="src/core",
                                      frontend=frontend)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_float_accumulation_fires_only_in_obs(self):
        self.assert_float_accumulation("lite")

    @unittest.skipUnless(clang_frontend_available(),
                         "libclang python bindings not installed")
    def test_clang_frontend_parity_on_float_accumulation(self):
        self.assert_float_accumulation("clang")

    def assert_unordered_iteration(self, result):
        # ExportCounters is flagged; ExportOne only looks a key up with
        # find()/end(), and CountNonZero iterates the same map but is not
        # an exporter/merge path.
        self.assert_findings(result, "unordered-iteration", 1)
        self.assertIn("dmap::ExportCounters", result.stdout)
        self.assertNotIn("ExportOne", result.stdout)

    def test_unordered_iteration_fires_in_export_function(self):
        self.assert_unordered_iteration(self.analyze_fixture(
            "unordered_iteration.cc", "--checks", "unordered-iteration"))

    @unittest.skipUnless(clang_frontend_available(),
                         "libclang python bindings not installed")
    def test_clang_frontend_parity_on_unordered_iteration(self):
        self.assert_unordered_iteration(self.analyze_fixture(
            "unordered_iteration.cc", "--checks", "unordered-iteration",
            frontend="clang"))

    def test_shard_merge_functions_are_critical(self):
        result = self.analyze_fixture(
            "shard_merge.cc", "--checks", "unordered-iteration,allow-audit")
        # SizesByAs is flagged; GuidsStoredIn carries a well-formed allow
        # and ScanShards is not a merge path.
        self.assert_findings(result, "unordered-iteration", 1)
        self.assertIn("fixture::SizesByAs", result.stdout)
        self.assertNotIn("[allow-audit]", result.stdout)

    def test_allow_waives_only_a_waivable_rule_with_a_reason(self):
        result = self.analyze_fixture(
            "allowed.cc", "--checks",
            "float-accumulation,seed-purity,allow-audit", rel="src/obs")
        # MergeBare's bare allow waives nothing; MergeTwo's allow does.
        self.assert_findings(result, "float-accumulation", 1)
        self.assertIn("dmap::MergeBare", result.stdout)
        # seed-purity is unwaivable: the wall-clock allow is unknown.
        self.assertEqual(result.stdout.count("[seed-purity]"), 1,
                         result.stdout)
        self.assertEqual(result.stdout.count("[allow-audit]"), 2,
                         result.stdout)
        self.assertIn("unknown rule 'wall-clock'", result.stdout)
        self.assertIn("requires a reason", result.stdout)

    def test_stale_allow_rule_and_missing_reason_are_errors(self):
        result = self.analyze_fixture(
            "stale_allow.cc", "--checks", "unordered-iteration,allow-audit")
        self.assert_findings(result, "allow-audit", 2)
        self.assertIn("unknown rule 'unordered-iteraton'", result.stdout)
        self.assertIn("requires a reason", result.stdout)
        # The misspelt allow waives nothing; the well-formed one waives.
        self.assertEqual(result.stdout.count("[unordered-iteration]"), 1,
                         result.stdout)
        self.assertIn("dmap::ExportTypo", result.stdout)

    def test_metrics_stability_fires(self):
        result = self.analyze_fixture(
            "metrics_stability.cc", "--checks", "metrics-stability",
            "--metrics-inventory", str(FIXTURES / "metrics_inventory.json"))
        self.assert_findings(result, "metrics-stability", 5)
        self.assertIn("'fix.wrong'", result.stdout)
        self.assertIn("not in the inventory", result.stdout)
        self.assertIn("'fix.unknown'", result.stdout)
        self.assertIn("conflicting stabilities", result.stdout)
        self.assertIn("stale inventory entry 'fix.stale'", result.stdout)
        # Correctly classified and pattern-matched sites stay silent.
        self.assertNotIn("fix.good", result.stdout)
        self.assertNotIn("latency_ms", result.stdout)

    def test_clean_tree_passes(self):
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            src.mkdir()
            # Prose and string literals never fire.
            (src / "clean.cc").write_text(
                "// rand() and std::chrono::system_clock in a comment.\n"
                "namespace dmap {\n"
                "const char* kHelp = \"never calls time(nullptr)\";\n"
                "int Add(int a, int b) { return a + b; }\n"
                "}  // namespace dmap\n")
            result = run_analyzer(
                tmp, "--checks",
                "serial-confinement,hot-path-purity,seed-purity,"
                "float-accumulation,unordered-iteration,allow-audit")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_baseline_suppresses_known_findings(self):
        with tempfile.TemporaryDirectory() as tmp:
            stage(tmp, "serial_confinement.cc")
            report_path = Path(tmp) / "report.json"
            first = run_analyzer(tmp, "--checks", "serial-confinement",
                                 "--json-out", str(report_path))
            self.assertEqual(first.returncode, 1, first.stdout + first.stderr)
            report = json.loads(report_path.read_text())
            self.assertEqual(report["schema"], "dmap.semantic_analysis.v1")
            fingerprints = [f["fingerprint"] for f in report["findings"]]
            self.assertEqual(len(fingerprints), 2, report)

            baseline_path = Path(tmp) / "baseline.json"
            baseline_path.write_text(json.dumps({
                "schema": "dmap.lint_baseline.v1",
                "findings": fingerprints,
            }))
            second = run_analyzer(tmp, "--checks", "serial-confinement",
                                  "--baseline", str(baseline_path))
            self.assertEqual(second.returncode, 0,
                             second.stdout + second.stderr)
            self.assertIn("suppressed=2", second.stderr)

            # A partial baseline still fails on the remaining finding.
            baseline_path.write_text(json.dumps({
                "schema": "dmap.lint_baseline.v1",
                "findings": fingerprints[:1],
            }))
            third = run_analyzer(tmp, "--checks", "serial-confinement",
                                 "--baseline", str(baseline_path))
            self.assertEqual(third.returncode, 1)
            self.assertIn("suppressed=1", third.stderr)

            # A baseline of another schema is a usage error.
            baseline_path.write_text(json.dumps({
                "schema": "not.the.schema", "findings": []}))
            fourth = run_analyzer(tmp, "--baseline", str(baseline_path))
            self.assertEqual(fourth.returncode, 2)
            self.assertIn("unexpected schema", fourth.stderr)


class AnalyzeCallGraphTest(unittest.TestCase):
    def dump(self, *fixtures, frontend="lite", tree=None):
        with tempfile.TemporaryDirectory() as tmp:
            stage(tmp, *fixtures)
            out = Path(tmp) / "callgraph.json"
            args = ["--dump-callgraph", str(out)]
            if frontend == "clang":
                args += ["--compile-commands",
                         str(write_compile_commands(tmp, fixtures))]
            result = run_analyzer(tmp, *args, frontend=frontend)
            self.assertEqual(result.returncode, 0,
                             result.stdout + result.stderr)
            return json.loads(out.read_text())

    def assert_virtual_dispatch(self, graph):
        calls = graph["functions"]["fix::Dispatch"]["calls"]
        for backend in ("fix::TrieBackend::Resolve",
                        "fix::HashBackend::Resolve",
                        "fix::SnapshotBackend::Resolve",
                        "fix::RemoteBackend::Resolve"):
            self.assertIn(backend, calls, calls)

    def test_virtual_dispatch_reaches_all_backends(self):
        self.assert_virtual_dispatch(self.dump("callgraph_virtual.cc"))

    def test_nested_lambdas_resolve_through_the_chain(self):
        graph = self.dump("callgraph_lambda.cc")
        entries = graph["parallel_entries"]
        self.assertEqual(len(entries), 1, entries)
        entry = entries[0]["callee"]
        self.assertIn("{lambda@", entry)
        self.assertTrue(entry.startswith("fix::Nested::"), entry)
        # Entry lambda -> inner lambda -> Leaf.
        outer_calls = graph["functions"][entry]["calls"]
        inner = [c for c in outer_calls if "{lambda@" in c]
        self.assertEqual(len(inner), 1, outer_calls)
        self.assertIn("fix::Leaf", graph["functions"][inner[0]]["calls"])

    def test_function_pointers_resolve(self):
        graph = self.dump("callgraph_fnptr.cc")
        calls = graph["functions"]["fix::Apply"]["calls"]
        self.assertIn("fix::Worker", calls, calls)
        self.assertIn("fix::Other", calls, calls)
        entries = [(e["api"], e["callee"]) for e in graph["parallel_entries"]]
        self.assertIn(("ParallelFor", "fix::Worker"), entries, entries)

    @unittest.skipUnless(clang_frontend_available(),
                         "libclang python bindings not installed")
    def test_clang_frontend_parity_on_virtual_dispatch(self):
        graph = self.dump("callgraph_virtual.cc", frontend="clang")
        self.assertEqual(graph["frontend"], "clang")
        self.assert_virtual_dispatch(graph)


if __name__ == "__main__":
    unittest.main()
