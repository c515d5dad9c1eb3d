"""Incremental runner: summary cache, graph-aware invalidation, parallel
parse identity, SARIF rendering, and baseline hygiene.

The ≥3x warm-over-cold assertion is the acceptance bar for the cache: a
warm run re-parses nothing, so its cost is the (shared) graph assembly
plus checker passes — wall-clock must sit well under the cold run's
parse-everything cost even on a loaded CI box.
"""

from __future__ import annotations

import json
import textwrap
import time
from pathlib import Path

from repro.analysis.lint import (
    lint_paths,
    load_baseline,
    render_json,
    render_sarif,
    write_baseline,
)
from repro.analysis.lint.findings import Finding, FindingStatus
from repro.cli import main

MODULE_TEMPLATE = """
import json
import threading

_LOCK_{i} = threading.Lock()


class Widget{i}:
    def __init__(self, seed):
        self._lock = threading.Lock()
        self._items = []
        self.seed = seed

    def add(self, value):
        with self._lock:
            self._items.append(value)
            return len(self._items)

    def render(self):
        with self._lock:
            return json.dumps(
                {{"items": list(self._items)}}, sort_keys=True, separators=(",", ":")
            )


def helper_{i}(xs):
    acc = 0
    for x in sorted(xs):
        acc += x * {i}
    return acc


def emit_{i}(fh, payload):
    fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
"""


def _synth_tree(tmp_path: Path, count: int = 60) -> Path:
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    for i in range(count):
        (pkg / f"mod_{i:03d}.py").write_text(
            textwrap.dedent(MODULE_TEMPLATE.format(i=i))
        )
    return pkg


class TestSummaryCache:
    def test_warm_run_hits_everything_and_is_3x_faster(self, tmp_path):
        _synth_tree(tmp_path)
        cache = tmp_path / "cache.json"

        start = time.perf_counter()
        cold = lint_paths(["pkg"], root=tmp_path, cache_path=cache)
        cold_s = time.perf_counter() - start
        assert cold.cache_misses == 60 and cold.cache_hits == 0
        assert cache.exists()

        start = time.perf_counter()
        warm = lint_paths(["pkg"], root=tmp_path, cache_path=cache)
        warm_s = time.perf_counter() - start
        assert warm.cache_hits == 60 and warm.cache_misses == 0
        assert render_json(warm) == render_json(cold)
        assert warm_s * 3 <= cold_s, f"warm {warm_s:.3f}s vs cold {cold_s:.3f}s"

    def test_edited_file_misses_unchanged_files_hit(self, tmp_path):
        pkg = _synth_tree(tmp_path, count=10)
        cache = tmp_path / "cache.json"
        lint_paths(["pkg"], root=tmp_path, cache_path=cache)
        target = pkg / "mod_003.py"
        target.write_text(target.read_text() + "\n\nEXTRA = 1\n")
        report = lint_paths(["pkg"], root=tmp_path, cache_path=cache)
        assert report.cache_misses == 1 and report.cache_hits == 9

    def test_graph_aware_invalidation_across_modules(self, tmp_path):
        # Editing only the *helper* must re-derive the program finding whose
        # entry point lives in a different (cached, unchanged) module.
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "wire.py").write_text(
            textwrap.dedent(
                """
                # repro-lint: scope=canonical
                from pkg.util_io import write_report

                def respond(payload, fh):
                    write_report(payload, fh)
                """
            )
        )
        helper = pkg / "util_io.py"
        helper.write_text(
            textwrap.dedent(
                """
                import json

                def write_report(payload, fh):
                    fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
                """
            )
        )
        cache = tmp_path / "cache.json"
        clean = lint_paths(["pkg"], root=tmp_path, cache_path=cache)
        assert [f.code for f in clean.new] == []

        helper.write_text(
            textwrap.dedent(
                """
                import json

                def write_report(payload, fh):
                    fh.write(json.dumps(payload))
                """
            )
        )
        dirty = lint_paths(["pkg"], root=tmp_path, cache_path=cache)
        assert dirty.cache_hits == 1 and dirty.cache_misses == 1
        assert [f.code for f in dirty.new] == ["WIRE001"]

    def test_checker_set_change_discards_cache(self, tmp_path):
        from repro.analysis.lint.registry import get_checker

        _synth_tree(tmp_path, count=5)
        cache = tmp_path / "cache.json"
        lint_paths(["pkg"], root=tmp_path, cache_path=cache)
        limited = lint_paths(
            ["pkg"], root=tmp_path, cache_path=cache, checkers=[get_checker("DET002")]
        )
        # Different checker set → different fingerprint → full re-parse.
        assert limited.cache_misses == 5 and limited.cache_hits == 0

    def test_damaged_cache_is_ignored(self, tmp_path):
        _synth_tree(tmp_path, count=5)
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        report = lint_paths(["pkg"], root=tmp_path, cache_path=cache)
        assert report.cache_misses == 5
        # ...and the save repaired it for the next run.
        assert lint_paths(["pkg"], root=tmp_path, cache_path=cache).cache_hits == 5


class TestParallelParse:
    def test_parallel_report_identical_to_serial(self, tmp_path):
        pkg = _synth_tree(tmp_path, count=12)
        # Give the parallel path real findings to carry across processes.
        (pkg / "dirty.py").write_text(
            textwrap.dedent(
                """
                # repro-lint: scope=deterministic
                import random

                def solve(xs):
                    random.shuffle(xs)
                    return xs
                """
            )
        )
        serial = lint_paths(["pkg"], root=tmp_path, jobs=1)
        parallel = lint_paths(["pkg"], root=tmp_path, jobs=4)
        assert render_json(serial) == render_json(parallel)
        assert [f.code for f in parallel.new] == ["DET001"]


class TestSarif:
    def _tree(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "dirty.py").write_text(
            textwrap.dedent(
                """
                # repro-lint: scope=deterministic
                import random

                def solve(xs):
                    random.shuffle(xs)
                    return [i for i in set(xs)]  # repro-lint: disable=DET003
                """
            )
        )
        return pkg

    def test_sarif_structure_and_determinism(self, tmp_path):
        self._tree(tmp_path)
        a = lint_paths(["pkg"], root=tmp_path)
        b = lint_paths(["pkg"], root=tmp_path)
        assert render_sarif(a) == render_sarif(b)
        doc = json.loads(render_sarif(a))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert {"WIRE001", "DET101", "CONC101"} <= set(rule_ids)
        assert len(run["results"]) == len(a.findings)
        for result in run["results"]:
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].startswith("pkg/")
            assert result["partialFingerprints"]["reproLint/baselineKey"]

    def test_sarif_marks_suppressions(self, tmp_path):
        pkg = self._tree(tmp_path)
        (pkg / "clean.py").write_text("X = 1\n")
        report = lint_paths(["pkg"], root=tmp_path)
        doc = json.loads(render_sarif(report))
        by_status = {}
        for finding, result in zip(report.findings, doc["runs"][0]["results"]):
            kinds = [s["kind"] for s in result.get("suppressions", [])]
            by_status.setdefault(finding.status, set()).update(kinds)
        assert by_status.get(FindingStatus.NEW, set()) == set()
        assert by_status.get(FindingStatus.SUPPRESSED) == {"inSource"}

    def test_cli_writes_sarif_file(self, tmp_path, capsys):
        self._tree(tmp_path)
        out = tmp_path / "lint.sarif"
        assert (
            main(
                ["lint", "pkg", "--root", str(tmp_path), "--sarif", str(out)]
            )
            == 1
        )
        doc = json.loads(out.read_text())
        assert doc["runs"][0]["results"]
        capsys.readouterr()


class TestBaselineHygiene:
    def test_missing_file_warns_but_exits_zero(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "clean.py").write_text("X = 1\n")
        ghost = Finding("DET001", "msg", "pkg/deleted.py", 3, 1, snippet="bad()")
        baseline_file = tmp_path / "lint-baseline.json"
        write_baseline([ghost], baseline_file)
        assert main(["lint", "pkg", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pkg/deleted.py" in out
        assert "baseline references deleted file" in out

    def test_update_baseline_prunes_stale_entries(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "dirty.py").write_text(
            textwrap.dedent(
                """
                # repro-lint: scope=deterministic
                import random

                def solve(xs):
                    random.shuffle(xs)
                    return xs
                """
            )
        )
        ghost = Finding("DET001", "msg", "pkg/deleted.py", 3, 1, snippet="bad()")
        baseline_file = tmp_path / "lint-baseline.json"
        write_baseline([ghost], baseline_file)
        assert (
            main(["lint", "pkg", "--root", str(tmp_path), "--update-baseline"]) == 0
        )
        out = capsys.readouterr().out
        assert "1 stale entry pruned" in out
        rewritten = load_baseline(baseline_file)
        assert len(rewritten.entries) == 1
        assert all("deleted.py" not in key for key in rewritten.entries)
