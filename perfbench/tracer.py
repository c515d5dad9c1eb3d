"""Spans recorded from outside the program, at the call sites of each layer.

:func:`install` replaces each layer's public functions, with ``setattr``,
in the namespace of the module that calls them (``from x import f`` binds
``f`` in the caller, so that is where the caller looks it up).  Nothing
under ``src/`` changes.  A wrapper records one span per call: span id,
parent span, request id, layer, function, start and end
(``time.perf_counter``), the thread, and for the memory-heavy layers the
growth of the resident-set high-water mark during the call.  Spans stay
in memory until :meth:`Tracer.dump` writes them out.

Parents come from a per-thread stack.  The request id comes from, in
order: a per-function lookup on the call's arguments (an executor thread
of ``repro serve`` has no context of its own, so the point or body object
that the request handed over carries it), the parent span, and the
``REQUEST_ID`` context variable the client or the HTTP handler set.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import functools
import itertools
import json
import sys
import threading
import time
import types

REQUEST_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_request_id", default=None
)

#: Layers a span can be attributed to; anything else is "unattributed".
NAMED_LAYERS = (
    "registry",
    "backends",
    "generators",
    "core",
    "kernels",
    "validation",
    "baselines.exact",
    "baselines.lp",
    "baselines.misra_gries",
    "baselines.other",
    "bounds",
    "render",
    "service",
)

#: Layers whose spans also record resident-set growth.
RSS_LAYERS = ("generators", "baselines.lp")

#: Name of the header that carries the client's request id to the server.
REQUEST_HEADER = "x-perfbench-request"

_GENERATOR_MODULES = ("repro.graphs.generators", "repro.setcover.generators")
_GENERATOR_NAMES = ("build_scenario", "ensure_edge_weights")
_VALIDATION_MODULES = ("repro.graphs.validation", "repro.setcover.validation")
_LP_NAMES = ("lp_vertex_cover_bound", "lp_set_cover_bound", "fractional_matching_bound")


def _read_proc_kb(field_name: bytes) -> float:
    with open("/proc/self/status", "rb") as fh:
        for line in fh:
            if line.startswith(field_name):
                return float(line.split()[1])
    return 0.0


def _reset_hwm() -> bool:
    """Reset this process's RSS high-water mark (Linux ``clear_refs`` 5)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


class Tracer:
    """Holds the spans of one process and builds the wrappers that feed it."""

    def __init__(self) -> None:
        # (span, parent, request, layer, name, start, end, thread, rss_growth_mb, extra)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.point_rid: dict[int, str] = {}
        self.body_rid: dict[int, str] = {}
        self._experiments: dict = {}
        self._rss_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn, *, rid_of=None, extra_of=None):
        """A traced stand-in for ``fn`` (same name, module and qualname).

        ``rid_of(*args)`` may name the request from the call's arguments;
        ``extra_of(*args)`` adds data to the span (a batch's request ids).
        """
        label = fn.__name__
        rss = layer in RSS_LAYERS
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent, parent_rid = stack[-1] if stack else (0, None)
            rid = rid_of(*args) if rid_of is not None else None
            if rid is None:
                rid = parent_rid if parent_rid is not None else REQUEST_ID.get()
            sid = next(ids)
            extra = extra_of(*args) if extra_of is not None else None
            if rss:
                base = self._rss_begin()
            stack.append((sid, rid))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                growth = self._rss_end(base) if rss else 0.0
                spans.append(
                    (sid, parent, rid, layer, label, start, end,
                     threading.get_ident(), growth, extra)
                )

        return traced

    def _rss_begin(self) -> float:
        with self._rss_lock:
            rss = _read_proc_kb(b"VmRSS:")
            return rss if _reset_hwm() else _read_proc_kb(b"VmHWM:")

    def _rss_end(self, base: float) -> float:
        return max(0.0, _read_proc_kb(b"VmHWM:") - base) / 1024.0

    def record(self, layer, name, rid, start, end) -> None:
        """A span measured by the caller (async code, outside any stack)."""
        self.spans.append((next(self._ids), 0, rid, layer, name, start, end, None, 0.0, None))

    @contextlib.contextmanager
    def root(self, rid: str):
        """The client's span around one whole request."""
        sid, stack = next(self._ids), self._stack()
        token = REQUEST_ID.set(rid)
        stack.append((sid, rid))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            REQUEST_ID.reset(token)
            self.spans.append(
                (sid, 0, rid, "request", "solve", start, end, threading.get_ident(), 0.0, None)
            )

    def experiment(self, fn):
        """The registered experiment function behind a point, traced."""
        traced = self._experiments.get(fn)
        if traced is None:
            traced = self._experiments[fn] = self.wrap("experiment", fn)
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


# ---------------------------------------------------------------------- #
# Installation
# ---------------------------------------------------------------------- #
def _patch(module, name, wrapped) -> None:
    if not hasattr(module, name):
        raise RuntimeError(f"{module.__name__} has no {name!r} to trace")
    setattr(module, name, wrapped)


def _functions(module):
    return [
        (name, value)
        for name, value in sorted(vars(module).items())
        if isinstance(value, types.FunctionType) and not name.startswith("_")
    ]


def _figure1_layer(fn) -> str | None:
    """Layer of a function that the Figure-1 experiments call directly."""
    module, name = fn.__module__, fn.__name__
    if module.startswith("repro.core."):
        return "core"
    if module in _GENERATOR_MODULES or name in _GENERATOR_NAMES:
        return "generators"
    if module in _VALIDATION_MODULES:
        return "validation"
    if module.startswith("repro.baselines."):
        if name == "exact_matching":
            return "baselines.exact"
        if name in _LP_NAMES:
            return "baselines.lp"
        if name == "misra_gries_edge_colouring":
            return "baselines.misra_gries"
        return "baselines.other"
    return None


def install(tracer: Tracer, *, serve: bool = False) -> None:
    """Trace every layer on the request path (``serve``: the service's too)."""
    import repro
    import repro.kernels

    modules = sys.modules
    figure1 = modules["repro.experiments.figure1"]
    solve = modules["repro.registry.solve"]  # repro.registry.solve is the function

    def patch(module, name, layer, **kwargs):
        _patch(module, name, tracer.wrap(layer, getattr(module, name), **kwargs))

    # registry: request validation and the request -> point mapping.  The
    # point's experiment function is swapped for a traced one; the wrapper
    # keeps its module and qualname, so the point signature is unchanged.
    def traced_request_point(original):
        def request_point(request):
            point = original(request)
            point = dataclasses.replace(point, fn=tracer.experiment(point.fn))
            rid = REQUEST_ID.get()
            if rid is not None:
                tracer.point_rid[id(point)] = rid
            return point

        return functools.update_wrapper(request_point, original)

    patch(solve, "build_request", "registry")
    _patch(solve, "request_point",
           tracer.wrap("registry", traced_request_point(solve.request_point)))
    # backends: sweep dispatch, point evaluation and signatures.
    patch(solve, "run_sweep", "backends")
    point_rid = lambda point, *a: tracer.point_rid.get(id(point))  # noqa: E731
    for module_name in ("repro.backends.serial", "repro.backends.batch"):
        patch(modules[module_name], "execute_point", "backends", rid_of=point_rid)
    for name in ("config_signature", "point_signature"):
        patch(modules["repro.backends.batch"], name, "backends")
    for name in ("point_signature", "spawn_rngs"):
        patch(modules["repro.backends.base"], name, "backends")
    # render: canonical bytes (SolveResult.canonical_json looks it up here).
    patch(solve, "canonical_response", "render")
    # generators / core / validation / baselines, as the experiments call them.
    for name, fn in _functions(figure1):
        layer = _figure1_layer(fn)
        if layer is not None:
            patch(figure1, name, layer)
    # The edge-colouring driver runs Misra-Gries on every colour group.
    patch(modules["repro.core.colouring.edge_colouring"],
          "misra_gries_edge_colouring", "baselines.misra_gries")
    # bounds: the experiments call them as attributes of the module.
    bounds = modules["repro.analysis.bounds"]
    for name, fn in _functions(bounds):
        if fn.__module__ == bounds.__name__:
            patch(bounds, name, "bounds")
    # kernels: the public kernel functions, where the core modules import them.
    public = {id(getattr(repro.kernels, n)) for n in repro.kernels.__all__}
    for module_name in sorted(modules):
        if module_name.startswith("repro.core."):
            module = modules[module_name]
            for name, fn in _functions(module):
                if id(fn) in public:
                    patch(module, name, "kernels")
    if serve:
        _install_service(tracer, traced_request_point)


def _install_service(tracer: Tracer, traced_request_point) -> None:
    from repro.service import api, batcher, server

    body_rid = lambda body, *a: tracer.body_rid.pop(id(body), None)  # noqa: E731

    def batch_rids(points, *a, **k):
        return [tracer.point_rid.get(id(p)) for p in points]

    _patch(server, "parse_solve_request",
           tracer.wrap("service", server.parse_solve_request, rid_of=body_rid))
    _patch(server, "request_point",
           tracer.wrap("registry", traced_request_point(server.request_point)))
    _patch(server, "render_response", tracer.wrap("render", server.render_response))
    _patch(api, "build_request", tracer.wrap("registry", api.build_request))
    _patch(api, "canonical_response", tracer.wrap("render", api.canonical_response))
    _patch(batcher, "run_sweep",
           tracer.wrap("backends", batcher.run_sweep, extra_of=batch_rids))

    # Methods are looked up on the class, so the class is the call site.
    handle = server.SolverService.handle
    submit = batcher.MicroBatcher.submit

    @functools.wraps(handle)
    async def traced_handle(self, method, path, body, headers=None):
        rid = (headers or {}).get(REQUEST_HEADER)
        if rid is None:
            return await handle(self, method, path, body, headers)
        token = REQUEST_ID.set(rid)
        tracer.body_rid[id(body)] = rid
        start = time.perf_counter()
        try:
            return await handle(self, method, path, body, headers)
        finally:
            tracer.record("service", "handle", rid, start, time.perf_counter())
            REQUEST_ID.reset(token)

    @functools.wraps(submit)
    async def traced_submit(self, point):
        now = time.perf_counter()
        tracer.record("service", "submit", REQUEST_ID.get(), now, now)
        return await submit(self, point)

    server.SolverService.handle = traced_handle
    batcher.MicroBatcher.submit = traced_submit
