"""``repro lint`` — the determinism & concurrency static-analysis pass.

Every execution surface in this repository — backends, kernels, the
solver service, the distributed coordinator — stakes its correctness on
*byte-identical* outputs across execution modes.  The runtime test suite
can only sample that invariant (a handful of configurations per CI run);
this package proves whole classes of it at review time by walking the
AST of every source module and rejecting the patterns that historically
break reproducibility:

========  ==============================================================
DET001    unseeded global RNG (``random.*`` / ``np.random.*`` module
          state) reachable from solver/kernel/backend code
DET002    ``json.dumps`` on a wire/canonical path without
          ``sort_keys=True`` (or with a lossy ``default=`` encoder /
          non-canonical separators)
DET003    iteration over a ``set`` whose order can escape into records,
          shard assignments, or cache keys
DET004    wall-clock reads (``time.time``, ``datetime.now``) inside
          solver/mapreduce/kernel modules instead of injected clocks
CONC001   lock-guarded mutable state in the threaded modules mutated
          outside a held-lock region
REG001    ``@register_algorithm`` specs missing kind/bounds or with
          non-derivable parameters
========  ==============================================================

A second, whole-program tier (``repro.analysis.graph``) parses the tree
once, builds import and call graphs, propagates scopes transitively, and
runs the interprocedural checkers:

========  ==============================================================
WIRE001   non-canonical serialization reaching a wire/trace sink through
          helper calls (taint tracked across modules)
DET101    unseeded RNG / wall-clock / set-order in helpers *reachable*
          from deterministic or clock-free entry points
CONC101   unlocked mutation of lock-guarded state on a cross-module
          thread-reachable path (lock discipline across functions)
========  ==============================================================

Findings can be silenced three ways, in decreasing order of preference:
fix the code; suppress one line with ``# repro-lint: disable=CODE`` (a
permanent, reviewed exemption with a rationale comment); or record it in
the committed baseline (``lint-baseline.json``) for pre-existing debt
that should not grow.  CI runs ``repro lint src --json`` as a hard gate:
zero non-baselined findings.

See ``docs/ANALYSIS.md`` for the checker catalogue and workflows.
"""

from .baseline import Baseline, load_baseline, missing_files, write_baseline
from .findings import Finding, FindingStatus
from .registry import (
    all_checkers,
    all_program_checkers,
    get_checker,
    register_checker,
    register_program_checker,
)
from .reporting import render_json, render_sarif, render_text
from .runner import LintReport, lint_paths, lint_source, lint_sources

__all__ = [
    "Baseline",
    "Finding",
    "FindingStatus",
    "LintReport",
    "all_checkers",
    "all_program_checkers",
    "get_checker",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "load_baseline",
    "missing_files",
    "register_checker",
    "register_program_checker",
    "render_json",
    "render_sarif",
    "render_text",
    "write_baseline",
]

# Importing the checker modules registers them; keep this after the
# framework imports so the registry exists when the decorators run.
from . import checkers as _checkers  # noqa: E402,F401  (registration side effect)
