"""Per-module summaries: the cacheable unit of whole-program analysis.

One structured pass over a module's AST produces a :class:`ModuleSummary`
holding everything the program graph and the interprocedural checkers
need — import bindings, the export table, per-function call sites with
held-lock context, determinism facts, serialization flow, wire-sink
writes, and attribute mutations.  Summaries are
plain data (``to_dict``/``from_dict`` round-trip through JSON), which is
what lets the incremental runner cache them by content sha256 and skip
re-parsing unchanged files entirely.

Conventions:

* **Function ids** are ``"<module>:<qualname>"`` — ``repro.service.
  server:SolverService.drain``, ``repro.backends.sweep:run_sweep``, and
  the pseudo-function ``pkg.mod:<module>`` for module-body statements
  (import-time execution is reachable from every importer).
* **Nested functions and lambdas are flattened** into their enclosing
  top-level function or method: their calls and facts are attributed to
  the frame that creates them.  This over-approximates (a closure might
  never run) in exactly the direction a determinism/lock checker wants.
* Call sites record the *import-resolved* spelling (``np.random.rand`` →
  ``numpy.random.rand``); resolution to function ids happens later, at
  program-build time, when every module's exports are known.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator

from ..lint.checkers._imports import ImportMap, build_import_map, resolve_call_target
from ..lint.checkers.determinism import (
    iter_global_rng,
    iter_set_order,
    iter_wall_clock,
    json_dump_canonicality,
)
from ..lint.scopes import classify, scope_override
from .modules import module_name, resolve_relative_import

__all__ = [
    "CallSite",
    "ClassSummary",
    "DetFact",
    "FunctionSummary",
    "GlobalMutation",
    "ModuleSummary",
    "Mutation",
    "SinkWrite",
    "content_sha",
    "summarize_module",
]

MODULE_FUNCTION = "<module>"

#: Lock factory call targets (shared convention with CONC001).
_LOCK_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "asyncio.Lock",
        "asyncio.Condition",
    }
)

#: Method calls that mutate the receiver in place.
_MUTATORS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "extendleft", "insert", "pop", "popitem", "popleft", "remove",
        "reverse", "rotate", "setdefault", "sort", "update",
    }
)

_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "collections.deque", "collections.defaultdict",
     "collections.OrderedDict", "collections.Counter"}
)

#: Attribute calls that put bytes on a wire or into a saved trace.
_WRITE_SINKS = frozenset({"write", "sendall", "send", "sendto"})


def content_sha(source: str) -> str:
    """The cache key of one file's content."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Records
# --------------------------------------------------------------------------- #
@dataclass
class CallSite:
    """One outgoing call (or callable registration) from a function.

    ``kind`` selects how ``target`` is later resolved:

    ========== ==========================================================
    ``plain``   import-resolved dotted path (``repro.backends.run_sweep``,
                ``helper`` for a same-module name)
    ``self``    method name on ``self`` (resolved in the enclosing class)
    ``var``     ``<local var>.<method>`` — typed via the caller's
                ``var_types``
    ``selfattr`` ``<self attr>.<method>`` — typed via the class's
                ``attr_types``
    ``attr``    bare method name on an unresolvable receiver (matched
                only when globally unique)
    ========== ==========================================================
    """

    target: str
    kind: str
    line: int
    col: int
    under_lock: bool = False
    via_thread: bool = False


@dataclass
class DetFact:
    """One determinism hazard inside a function (DET101 raw material)."""

    kind: str  # "rng" | "clock" | "set-order"
    message: str
    line: int
    col: int


@dataclass
class SinkWrite:
    """One wire/trace write whose payload needs canonical provenance."""

    line: int
    col: int
    direct: str = ""  # "noncanonical" | "stringified" | "" (decided by callees)
    callees: list[str] = field(default_factory=list)  # plain dotted call targets


@dataclass
class Mutation:
    """One ``self.<attr>`` mutation inside a method."""

    attr: str
    line: int
    col: int
    under_lock: bool


@dataclass
class GlobalMutation:
    """One mutation of a module-level mutable from a function body."""

    name: str
    line: int
    col: int
    under_lock: bool


@dataclass
class FunctionSummary:
    """Everything recorded about one top-level function or method."""

    qualname: str
    line: int
    cls: str = ""  # enclosing class name, "" for module functions
    calls: list[CallSite] = field(default_factory=list)
    det_facts: list[DetFact] = field(default_factory=list)
    serial_direct: str = ""  # "canonical" | "noncanonical" | "stringified" | ""
    serial_callees: list[str] = field(default_factory=list)
    sinks: list[SinkWrite] = field(default_factory=list)
    mutations: list[Mutation] = field(default_factory=list)
    var_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ClassSummary:
    """Class-level structure needed for lock discipline and typing."""

    name: str
    line: int
    bases: list[str] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    lock_attrs: list[str] = field(default_factory=list)
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """The complete, cacheable analysis record of one source file."""

    relpath: str
    module: str
    sha: str
    scopes: list[str] = field(default_factory=list)
    scope_overridden: bool = False
    imported_modules: list[str] = field(default_factory=list)
    exports: dict[str, str] = field(default_factory=dict)
    star_from: list[str] = field(default_factory=list)
    all_names: list[str] | None = None
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    mutable_globals: list[str] = field(default_factory=list)
    module_locks: list[str] = field(default_factory=list)
    global_mutations: list[GlobalMutation] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ModuleSummary":
        summary = cls(
            relpath=payload["relpath"],
            module=payload["module"],
            sha=payload["sha"],
            scopes=list(payload.get("scopes", [])),
            scope_overridden=bool(payload.get("scope_overridden", False)),
            imported_modules=list(payload.get("imported_modules", [])),
            exports=dict(payload.get("exports", {})),
            star_from=list(payload.get("star_from", [])),
            all_names=payload.get("all_names"),
            mutable_globals=list(payload.get("mutable_globals", [])),
            module_locks=list(payload.get("module_locks", [])),
            global_mutations=[
                GlobalMutation(**m) for m in payload.get("global_mutations", [])
            ],
        )
        for qualname, fn in payload.get("functions", {}).items():
            summary.functions[qualname] = FunctionSummary(
                qualname=fn["qualname"],
                line=fn["line"],
                cls=fn.get("cls", ""),
                calls=[CallSite(**c) for c in fn.get("calls", [])],
                det_facts=[DetFact(**f) for f in fn.get("det_facts", [])],
                serial_direct=fn.get("serial_direct", ""),
                serial_callees=list(fn.get("serial_callees", [])),
                sinks=[SinkWrite(**s) for s in fn.get("sinks", [])],
                mutations=[Mutation(**m) for m in fn.get("mutations", [])],
                var_types=dict(fn.get("var_types", {})),
            )
        for name, cl in payload.get("classes", {}).items():
            summary.classes[name] = ClassSummary(
                name=cl["name"],
                line=cl["line"],
                bases=list(cl.get("bases", [])),
                methods=list(cl.get("methods", [])),
                lock_attrs=list(cl.get("lock_attrs", [])),
                attr_types=dict(cl.get("attr_types", {})),
            )
        return summary


# --------------------------------------------------------------------------- #
# Expression helpers
# --------------------------------------------------------------------------- #
def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _self_attr(node: ast.AST) -> str | None:
    """``X`` when ``node`` is (a chain rooted at) ``self.X``."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        node = node.value
    return None


#: Serialization-classification priority (highest wins when combining).
_SERIAL_PRIORITY = ("noncanonical", "stringified", "canonical", "other", "none")


def _combine_serial(parts: list[tuple[str, set[str]]]) -> tuple[str, set[str]]:
    calls: set[str] = set()
    verdict = "none"
    for direct, part_calls in parts:
        calls |= part_calls
        if _SERIAL_PRIORITY.index(direct) < _SERIAL_PRIORITY.index(verdict):
            verdict = direct
    return verdict, calls


# --------------------------------------------------------------------------- #
# The structured extraction visitor
# --------------------------------------------------------------------------- #
class _Extractor(ast.NodeVisitor):
    """One pass over a module collecting every per-function record."""

    def __init__(self, summary: ModuleSummary, imports: ImportMap) -> None:
        self.summary = summary
        self.imports = imports
        self.frame: FunctionSummary | None = None
        self.frame_class: ClassSummary | None = None
        self.cls: ClassSummary | None = None
        self.lock_depth = 0
        self.fn_depth = 0
        self.serial_env: dict[str, tuple[str, set[str]]] = {}
        self.frame_imports: dict[str, str] = {}
        self.module_fn = FunctionSummary(qualname=MODULE_FUNCTION, line=1)
        summary.functions[MODULE_FUNCTION] = self.module_fn

    # -- frame helpers -------------------------------------------------- #
    @property
    def current(self) -> FunctionSummary:
        return self.frame if self.frame is not None else self.module_fn

    def _resolve_name(self, name: str) -> str:
        """Resolve a bare name through function-local then module imports."""
        bound = self.frame_imports.get(name)
        if bound is not None:
            return bound
        return self.imports.resolve(name)

    def _resolve_dotted_spelling(self, dotted: str) -> str:
        """Rewrite a dotted spelling's head through function-local imports."""
        head, sep, rest = dotted.partition(".")
        bound = self.frame_imports.get(head)
        if bound is not None:
            return f"{bound}{sep}{rest}" if rest else bound
        return self.imports.resolve(dotted)

    # -- function-level imports ------------------------------------------ #
    # ``build_import_map`` covers module-level absolute imports; imports
    # inside a function body (the CLI's lazy-import idiom) bind names only
    # in that frame, and *executing* one runs the imported module's body —
    # recorded as a call edge to its pseudo-function.
    def visit_Import(self, node: ast.Import) -> None:
        if self.fn_depth:
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                self.frame_imports[bound] = (
                    alias.name if alias.asname else alias.name.partition(".")[0]
                )
                self.current.calls.append(
                    CallSite(
                        alias.name, "plain", node.lineno, node.col_offset + 1,
                        self.lock_depth > 0,
                    )
                )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.fn_depth:
            target = resolve_relative_import(
                self.summary.relpath, node.module, node.level
            )
            if target is None:
                return
            for alias in node.names:
                if alias.name == "*":
                    continue
                self.frame_imports[alias.asname or alias.name] = f"{target}.{alias.name}"
            self.current.calls.append(
                CallSite(
                    target, "plain", node.lineno, node.col_offset + 1,
                    self.lock_depth > 0,
                )
            )

    def _is_lock_expr(self, expr: ast.expr) -> bool:
        attr = _self_attr(expr)
        if (
            attr is not None
            and self.frame_class is not None
            and attr in self.frame_class.lock_attrs
        ):
            return True
        return (
            isinstance(expr, ast.Name) and expr.id in self.summary.module_locks
        )

    # -- structure ------------------------------------------------------ #
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.fn_depth or self.cls is not None:
            # Nested classes fold into the enclosing frame like closures.
            for stmt in node.body:
                self.visit(stmt)
            return
        cls = self.summary.classes[node.name]
        previous, self.cls = self.cls, cls
        for stmt in node.body:
            self.visit(stmt)
        self.cls = previous

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if self.fn_depth:
            # Nested def: flatten into the enclosing frame.
            self.fn_depth += 1
            for stmt in node.body:
                self.visit(stmt)
            self.fn_depth -= 1
            return
        qualname = f"{self.cls.name}.{node.name}" if self.cls is not None else node.name
        frame = FunctionSummary(
            qualname=qualname,
            line=node.lineno,
            cls=self.cls.name if self.cls is not None else "",
        )
        self.summary.functions[qualname] = frame
        self.frame = frame
        self.frame_class = self.cls
        self.serial_env = {}
        self.frame_imports = {}
        saved_lock = self.lock_depth
        self.lock_depth = 0
        self.fn_depth = 1
        for stmt in node.body:
            self.visit(stmt)
        self.fn_depth = 0
        self.lock_depth = saved_lock
        self.frame = None
        self.frame_class = None

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function  # type: ignore[assignment]

    def visit_With(self, node: ast.With) -> None:
        holds = any(self._is_lock_expr(item.context_expr) for item in node.items)
        if holds:
            self.lock_depth += 1
        self.generic_visit(node)
        if holds:
            self.lock_depth -= 1

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    # -- serialization classification ----------------------------------- #
    def _classify(self, expr: ast.expr) -> tuple[str, set[str]]:
        if isinstance(expr, ast.Call):
            verdict = json_dump_canonicality(expr, self.imports)
            if verdict is not None:
                return ("other" if verdict == "unknown" else verdict), set()
            func = expr.func
            if isinstance(func, ast.Attribute) and func.attr == "encode":
                return self._classify(func.value)
            if isinstance(func, ast.Attribute) and func.attr == "join" and expr.args:
                return self._classify(expr.args[0])
            if (
                isinstance(func, ast.Name)
                and func.id in ("str", "repr")
                and expr.args
                and not isinstance(expr.args[0], ast.Constant)
            ):
                return "stringified", set()
            if isinstance(func, ast.Name) and func.id in ("bytes", "bytearray"):
                return (
                    self._classify(expr.args[0]) if expr.args else ("none", set())
                )
            dotted = _dotted(func)
            if dotted is not None:
                return "none", {self._resolve_dotted_spelling(dotted)}
            return "other", set()
        if isinstance(expr, ast.Name):
            return self.serial_env.get(expr.id, ("other", set()))
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            return _combine_serial([self._classify(expr.left), self._classify(expr.right)])
        if isinstance(expr, ast.JoinedStr):
            parts = [
                self._classify(value.value)
                for value in expr.values
                if isinstance(value, ast.FormattedValue)
            ]
            return _combine_serial(parts) if parts else ("none", set())
        if isinstance(expr, ast.IfExp):
            return _combine_serial([self._classify(expr.body), self._classify(expr.orelse)])
        if isinstance(expr, ast.Constant):
            return "none", set()
        return "other", set()

    # -- statements ----------------------------------------------------- #
    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        # Local type inference: x = ClassName(...)
        if isinstance(value, ast.Call):
            spelled = _dotted(value.func)
            dotted = self._resolve_dotted_spelling(spelled) if spelled else None
            if dotted is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name) and self.fn_depth:
                        self.current.var_types[target.id] = dotted
                    attr = _self_attr(target)
                    if (
                        attr is not None
                        and isinstance(target, ast.Attribute)
                        and self.frame_class is not None
                        and dotted not in _LOCK_FACTORIES
                    ):
                        self.frame_class.attr_types.setdefault(attr, dotted)
        # Serialization env for locals.
        if self.fn_depth:
            for target in node.targets:
                if isinstance(target, ast.Name) and not isinstance(value, ast.Lambda):
                    self.serial_env[target.id] = self._classify(value)
        # Instance-attribute mutations (methods only).
        if self.frame_class is not None:
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    self.current.mutations.append(
                        Mutation(attr, node.lineno, node.col_offset + 1, self.lock_depth > 0)
                    )
        self._record_global_mutation_targets(node.targets, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            if self.frame_class is not None:
                attr = _self_attr(node.target)
                if attr is not None:
                    self.current.mutations.append(
                        Mutation(attr, node.lineno, node.col_offset + 1, self.lock_depth > 0)
                    )
            self._record_global_mutation_targets([node.target], node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self.frame_class is not None:
            attr = _self_attr(node.target)
            if attr is not None:
                self.current.mutations.append(
                    Mutation(attr, node.lineno, node.col_offset + 1, self.lock_depth > 0)
                )
        self._record_global_mutation_targets([node.target], node)
        self.generic_visit(node)

    def _record_global_mutation_targets(
        self, targets: list[ast.expr], node: ast.stmt
    ) -> None:
        if not self.fn_depth:
            return
        for target in targets:
            base = target
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if (
                isinstance(base, ast.Name)
                and base is not target
                and base.id in self.summary.mutable_globals
            ):
                self.summary.global_mutations.append(
                    GlobalMutation(
                        base.id, node.lineno, node.col_offset + 1, self.lock_depth > 0
                    )
                )

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None and self.frame is not None:
            verdict, calls = self._classify(node.value)
            frame = self.frame
            if verdict in ("noncanonical", "stringified", "canonical"):
                if _SERIAL_PRIORITY.index(verdict) < _SERIAL_PRIORITY.index(
                    frame.serial_direct or "none"
                ):
                    frame.serial_direct = verdict
            for callee in sorted(calls):
                if callee not in frame.serial_callees:
                    frame.serial_callees.append(callee)
        self.generic_visit(node)

    # -- calls ----------------------------------------------------------- #
    def _callable_ref_site(
        self, expr: ast.expr, node: ast.Call, *, via_thread: bool
    ) -> CallSite | None:
        """Encode a callable *reference* (thread target, executor arg)."""
        if isinstance(expr, ast.Name):
            return CallSite(
                self._resolve_name(expr.id),
                "plain",
                node.lineno,
                node.col_offset + 1,
                self.lock_depth > 0,
                via_thread,
            )
        if isinstance(expr, ast.Attribute):
            base = expr.value
            if isinstance(base, ast.Name) and base.id == "self":
                return CallSite(
                    expr.attr, "self", node.lineno, node.col_offset + 1,
                    self.lock_depth > 0, via_thread,
                )
            attr = _self_attr(base)
            if attr is not None:
                return CallSite(
                    f"{attr}.{expr.attr}", "selfattr", node.lineno,
                    node.col_offset + 1, self.lock_depth > 0, via_thread,
                )
            if isinstance(base, ast.Name):
                return CallSite(
                    f"{base.id}.{expr.attr}", "var", node.lineno,
                    node.col_offset + 1, self.lock_depth > 0, via_thread,
                )
            return CallSite(
                expr.attr, "attr", node.lineno, node.col_offset + 1,
                self.lock_depth > 0, via_thread,
            )
        return None

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        current = self.current
        line, col = node.lineno, node.col_offset + 1
        locked = self.lock_depth > 0

        # Outgoing call edge.
        if isinstance(func, ast.Name):
            current.calls.append(
                CallSite(self._resolve_name(func.id), "plain", line, col, locked)
            )
        elif isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self":
                current.calls.append(CallSite(func.attr, "self", line, col, locked))
            else:
                attr = _self_attr(base)
                dotted = _dotted(func)
                if attr is not None:
                    current.calls.append(
                        CallSite(f"{attr}.{func.attr}", "selfattr", line, col, locked)
                    )
                elif dotted is not None:
                    resolved = self._resolve_dotted_spelling(dotted)
                    head = dotted.partition(".")[0]
                    if (
                        self.fn_depth
                        and head in current.var_types
                        and dotted == f"{head}.{func.attr}"
                    ):
                        current.calls.append(
                            CallSite(f"{head}.{func.attr}", "var", line, col, locked)
                        )
                    else:
                        current.calls.append(
                            CallSite(resolved, "plain", line, col, locked)
                        )
                else:
                    current.calls.append(CallSite(func.attr, "attr", line, col, locked))

        # Instance-mutator calls (self.X.append(...)).
        if (
            self.frame_class is not None
            and isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
        ):
            attr = _self_attr(func.value)
            if attr is not None:
                current.mutations.append(Mutation(attr, line, col, locked))

        # Module-global mutator calls (CACHE.setdefault(...)).
        if (
            self.fn_depth
            and isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in self.summary.mutable_globals
        ):
            self.summary.global_mutations.append(
                GlobalMutation(func.value.id, line, col, locked)
            )

        # Wire/trace sinks.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _WRITE_SINKS
            and node.args
        ):
            verdict, calls = self._classify(node.args[0])
            if verdict in ("noncanonical", "stringified"):
                current.sinks.append(SinkWrite(line, col, direct=verdict))
            elif calls:
                current.sinks.append(SinkWrite(line, col, callees=sorted(calls)))
        # json.dump(obj, fh) writes the file itself — treat as a sink too.
        direct_dump = json_dump_canonicality(node, self.imports)
        if direct_dump == "noncanonical" and resolve_call_target(
            node, self.imports
        ) == "json.dump":
            current.sinks.append(SinkWrite(line, col, direct="noncanonical"))

        # Thread/executor registrations.
        target_dotted = resolve_call_target(node, self.imports)
        if target_dotted == "threading.Thread":
            for kw in node.keywords:
                if kw.arg == "target":
                    site = self._callable_ref_site(kw.value, node, via_thread=True)
                    if site is not None:
                        current.calls.append(site)
        elif isinstance(func, ast.Attribute) and func.attr == "submit" and node.args:
            site = self._callable_ref_site(node.args[0], node, via_thread=True)
            if site is not None:
                current.calls.append(site)
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "run_in_executor"
            and len(node.args) >= 2
        ):
            site = self._callable_ref_site(node.args[1], node, via_thread=True)
            if site is not None:
                current.calls.append(site)

        self.generic_visit(node)


# --------------------------------------------------------------------------- #
# Module-level structure (imports, exports, locks, globals, classes)
# --------------------------------------------------------------------------- #
def _collect_module_level(
    summary: ModuleSummary, tree: ast.Module, imports: ImportMap
) -> None:
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                summary.imported_modules.append(alias.name)
                bound = alias.asname or alias.name.partition(".")[0]
                summary.exports[bound] = alias.name if alias.asname else alias.name.partition(".")[0]
        elif isinstance(stmt, ast.ImportFrom):
            target = resolve_relative_import(summary.relpath, stmt.module, stmt.level)
            if target is None:
                continue
            summary.imported_modules.append(target)
            for alias in stmt.names:
                if alias.name == "*":
                    summary.star_from.append(target)
                else:
                    summary.exports[alias.asname or alias.name] = f"{target}.{alias.name}"
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.exports[stmt.name] = f"{summary.module}.{stmt.name}"
        elif isinstance(stmt, ast.ClassDef):
            summary.exports[stmt.name] = f"{summary.module}.{stmt.name}"
            cls = ClassSummary(name=stmt.name, line=stmt.lineno)
            for base in stmt.bases:
                dotted = _dotted(base)
                if dotted is not None:
                    cls.bases.append(imports.resolve(dotted))
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods.append(member.name)
            summary.classes[stmt.name] = cls
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            value = stmt.value
            if value is None:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names == ["__all__"] and isinstance(value, (ast.List, ast.Tuple)):
                summary.all_names = [
                    e.value
                    for e in value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                ]
                continue
            is_mutable = isinstance(value, (ast.Dict, ast.List, ast.Set))
            if isinstance(value, ast.Call):
                dotted = resolve_call_target(value, imports)
                if dotted in _LOCK_FACTORIES:
                    summary.module_locks.extend(names)
                    continue
                is_mutable = is_mutable or dotted in _MUTABLE_FACTORIES
            if is_mutable:
                summary.mutable_globals.extend(names)
            for name in names:
                summary.exports.setdefault(name, f"{summary.module}.{name}")

    # Lock attributes per class: any `self.X = threading.Lock()` anywhere.
    for cls_summary in summary.classes.values():
        node = next(
            (
                n
                for n in tree.body
                if isinstance(n, ast.ClassDef) and n.name == cls_summary.name
            ),
            None,
        )
        if node is None:
            continue
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Assign):
                continue
            if not isinstance(inner.value, ast.Call):
                continue
            if resolve_call_target(inner.value, imports) not in _LOCK_FACTORIES:
                continue
            for target in inner.targets:
                attr = _self_attr(target)
                if attr is not None and attr not in cls_summary.lock_attrs:
                    cls_summary.lock_attrs.append(attr)


def _bucket_det_facts(
    summary: ModuleSummary, tree: ast.Module, imports: ImportMap
) -> None:
    """Attribute DET-pattern facts to their enclosing top-level frame."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node

    owner_cache: dict[ast.AST, str] = {}

    def owner(node: ast.AST) -> str:
        if node in owner_cache:
            return owner_cache[node]
        chain: list[ast.AST] = []
        cursor: ast.AST | None = node
        qualname = MODULE_FUNCTION
        seen_fn: ast.AST | None = None
        while cursor is not None:
            chain.append(cursor)
            if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                seen_fn = cursor
            cursor = parents.get(cursor)
        if seen_fn is not None:
            # The *outermost* function on the chain is the frame.
            for item in reversed(chain):
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    parent = parents.get(item)
                    if isinstance(parent, ast.ClassDef) and parents.get(parent) is tree:
                        qualname = f"{parent.name}.{item.name}"
                    else:
                        qualname = item.name
                    break
        owner_cache[node] = qualname
        return qualname

    facts: list[tuple[str, ast.AST, str]] = []
    facts.extend(("rng", node, message) for node, message in iter_global_rng(tree, imports))
    facts.extend(("clock", node, message) for node, message in iter_wall_clock(tree, imports))
    facts.extend(("set-order", node, message) for node, message in iter_set_order(tree))
    for kind, node, message in facts:
        qualname = owner(node)
        frame = summary.functions.get(qualname)
        if frame is None:
            frame = summary.functions[MODULE_FUNCTION]
        frame.det_facts.append(
            DetFact(
                kind,
                message,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0) + 1,
            )
        )


def summarize_module(relpath: str, source: str, tree: ast.Module | None = None) -> ModuleSummary:
    """Build the :class:`ModuleSummary` of one source file."""
    if tree is None:
        tree = ast.parse(source, filename=relpath)
    override = scope_override(source)
    scopes = override if override is not None else classify(relpath)
    imports = build_import_map(tree)
    summary = ModuleSummary(
        relpath=relpath,
        module=module_name(relpath),
        sha=content_sha(source),
        scopes=sorted(scopes),
        scope_overridden=override is not None,
    )
    _collect_module_level(summary, tree, imports)
    extractor = _Extractor(summary, imports)
    for stmt in tree.body:
        extractor.visit(stmt)
    _bucket_det_facts(summary, tree, imports)
    return summary


def iter_functions(summary: ModuleSummary) -> Iterator[FunctionSummary]:
    yield from summary.functions.values()
