"""Per-layer numbers from a span dump.

A span is the tuple :class:`tracer.Tracer` records: ``(id, parent, request,
layer, name, start, end, thread, rss_growth_mb, extra)``.  Spans measured
in async code (``thread`` is None) sit outside the call tree and only
give durations.  A span's self time is its duration minus the part of
that interval its children cover.
"""

from __future__ import annotations

import json
from collections import defaultdict

from tracer import NAMED_LAYERS

#: Layers reported as ``<layer>.self_ms`` (``service`` has its own metrics).
SELF_LAYERS = tuple(layer for layer in NAMED_LAYERS if layer != "service")
RSS_METRICS = ("generators", "baselines.lp")
CALL_METRICS = ("core", "kernels")

SID, PARENT, RID, LAYER, NAME, START, END, THREAD, RSS, EXTRA = range(10)


def load(path: str) -> list[tuple]:
    with open(path) as fh:
        return [tuple(span) for span in json.load(fh)["spans"]]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, run_lo, run_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def tree(spans: list[tuple]) -> list[tuple]:
    """The spans that belong to the call tree (not measured in async code)."""
    return [s for s in spans if s[THREAD] is not None]


def self_times(spans: list[tuple]) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        if s[PARENT]:
            children[s[PARENT]].append((s[START], s[END]))
    return {
        s[SID]: (s[END] - s[START]) - _covered(children.get(s[SID], ()), s[START], s[END])
        for s in spans
    }


def select(spans: list[tuple], rids: set[str]) -> list[tuple]:
    """Spans of the measured requests: by request id, or by the batch they ran in."""
    by_id = {s[SID]: s for s in spans}
    roots: dict[int, tuple] = {}

    def root(s):
        trail = []
        while s[PARENT] and s[SID] not in roots:
            trail.append(s[SID])
            s = by_id[s[PARENT]]
        top = roots.get(s[SID], s)
        for sid in trail:
            roots[sid] = top
        return top

    chosen = []
    for s in spans:
        top = root(s) if s[THREAD] is not None else s
        if top[RID] in rids or any(r in rids for r in (top[EXTRA] or ())):
            chosen.append(s)
    return chosen


def layer_metrics(spans: list[tuple], solves: int) -> tuple[dict[str, float], float]:
    """Per-solve layer metrics, and the total self time of the call tree.

    Self time in layers outside :data:`tracer.NAMED_LAYERS` — the client's
    request span and the experiment function's own code — is
    ``unattributed``.
    """
    calls_tree = tree(spans)
    selft = self_times(calls_tree)
    self_sum: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    rss: dict[str, float] = defaultdict(float)
    for s in calls_tree:
        layer = s[LAYER] if s[LAYER] in NAMED_LAYERS else "unattributed"
        self_sum[layer] += selft[s[SID]]
        calls[layer] += 1
        rss[layer] += s[RSS]
    per = max(1, solves)
    out = {f"{layer}.self_ms": 1000.0 * self_sum[layer] / per for layer in SELF_LAYERS}
    out["unattributed.self_ms"] = 1000.0 * self_sum["unattributed"] / per
    for layer in RSS_METRICS:
        out[f"{layer}.rss_growth_mb"] = rss[layer] / per
    for layer in CALL_METRICS:
        out[f"{layer}.calls"] = calls[layer] / per
    return out, sum(selft.values())


def by_request(spans: list[tuple], layer: str, name: str) -> dict[str, float]:
    """Duration of the ``layer``/``name`` span of each request (seconds, summed)."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if s[LAYER] == layer and s[NAME] == name and s[RID] is not None:
            out[s[RID]] += s[END] - s[START]
    return out


def queue_waits(spans: list[tuple]) -> dict[str, float]:
    """Per request: from ``MicroBatcher.submit`` to its batch's ``run_sweep`` start."""
    submitted = {s[RID]: s[START] for s in spans if s[NAME] == "submit"}
    waits = {}
    for s in spans:
        if s[NAME] == "run_sweep" and s[EXTRA]:
            for rid in s[EXTRA]:
                if rid in submitted:
                    waits[rid] = s[START] - submitted[rid]
    return waits
