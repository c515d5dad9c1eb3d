"""Correctness checks on response bytes, and the summary statistics.

The checks read only the canonical response bytes, so the library worker
and the HTTP client judge a response the same way.  They re-implement the
guarantee test instead of importing it from the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics

#: Record metrics that compare the solution against an optimum or an LP
#: bound; each must stay within the record's ``bounds.approximation``.
RATIO_METRICS = ("ratio_vs_lp", "ratio_vs_optimal")

#: Exact per-record counts reported as ``mapreduce.*`` / ``core.*`` metrics.
COUNT_METRICS = {
    "mapreduce.rounds": "rounds",
    "mapreduce.max_space_words": "max_space_per_machine",
    "core.sampling_iterations": "sampling_iterations",
}

#: A timing tail needs at least this many samples beyond it.
TAIL_BEYOND = 10


def sha256(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def within_guarantee(ratio: float, guarantee: float, slack: float = 1e-9) -> bool:
    return ratio <= guarantee * (1.0 + slack) + slack


def check_body(body: bytes, golden: str | None) -> tuple[list[str], dict[str, float]]:
    """Problems found in one response, and its summed record counts.

    A response fails when its bytes do not hash to the golden sha256, when
    a record's certificate check failed (``valid`` false), or when a ratio
    breaks the record's approximation guarantee.
    """
    problems = []
    if golden is None:
        problems.append("no golden sha256 for this request")
    elif sha256(body) != golden:
        problems.append("response bytes differ from the golden sha256")
    counts = {name: 0.0 for name in COUNT_METRICS}
    try:
        records = json.loads(body)["records"]
    except (ValueError, KeyError, TypeError):
        return problems + ["response is not a solve payload"], counts
    for record in records:
        if record.get("valid") is not True:
            problems.append(f"{record.get('experiment')}: certificate check failed")
        guarantee = record.get("bounds", {}).get("approximation")
        metrics = record.get("metrics", {})
        for name in RATIO_METRICS:
            if guarantee is not None and name in metrics:
                if not within_guarantee(metrics[name], guarantee):
                    problems.append(
                        f"{record.get('experiment')}: {name}={metrics[name]} "
                        f"exceeds the guarantee {guarantee}"
                    )
        for name, metric in COUNT_METRICS.items():
            counts[name] += float(metrics.get(metric, 0.0))
    return problems, counts


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it, at least p90.

    Returns ``(value, percentile, samples)``: the value that exactly
    ``TAIL_BEYOND`` samples exceed in rank and its nearest-rank percentile,
    or, with fewer than ``10 * TAIL_BEYOND`` samples (where that percentile
    would be below p90), the nearest-rank p90; and the sample count.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 10 * TAIL_BEYOND:
        rank = max(1, math.ceil(0.9 * n))
        return ordered[rank - 1], 100.0 * rank / n, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
