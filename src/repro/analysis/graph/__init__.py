"""Whole-program analysis: import graph, call graph, scope propagation.

The per-file lint pass (:mod:`repro.analysis.lint`) classifies modules by
*path* — ``kernels/`` is deterministic, ``service/`` is threaded — which
is exactly right for code that lives where its invariant binds, and
exactly wrong for the helper one directory over.  A serialiser in
``analysis/tables.py`` that a solver calls is solver code; a mutation
helper the service's executor thread reaches is threaded code.  This
package parses the source tree **once**, builds a module import graph and
a name-resolved call graph over per-function summaries, and propagates
the lint scopes transitively along call edges, so the interprocedural
checkers (WIRE001, DET101, CONC101) judge code by what *reaches*
it, not by where it sits.

Layering: :mod:`~repro.analysis.graph.summary` extracts one cacheable
:class:`ModuleSummary` per file (imports, exports, functions, per-function
facts); :mod:`~repro.analysis.graph.callgraph` resolves call sites to
function ids across aliased imports, re-exports and ``import *``;
:mod:`~repro.analysis.graph.program` assembles the
:class:`ProgramGraph` — reachability, scope propagation, call chains;
:mod:`~repro.analysis.graph.cache` persists summaries keyed by content
sha256 so warm lint runs skip parsing entirely.
"""

from .cache import SummaryCache, cache_fingerprint
from .program import ProgramGraph, build_program
from .summary import FunctionSummary, ModuleSummary, summarize_module

__all__ = [
    "FunctionSummary",
    "ModuleSummary",
    "ProgramGraph",
    "SummaryCache",
    "build_program",
    "cache_fingerprint",
    "summarize_module",
]
