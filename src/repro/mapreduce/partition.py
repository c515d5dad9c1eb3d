"""Partitioning strategies for distributing items across machines.

The MRC formalization assigns input items (edges, elements, sets) to
machines.  The paper uses two flavours:

* *arbitrary / balanced* assignment — e.g. "each element j will be assigned
  arbitrarily to one of the machines, with ``n^{1+µ}`` elements per machine"
  (Theorem 2.4);
* *random* assignment — e.g. "each vertex and its adjacency list is assigned
  to one of the M machines, randomly chosen" (Theorem 3.3), where a Chernoff
  bound keeps loads balanced w.h.p.

Both are provided here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["balanced_partition", "random_partition"]


def balanced_partition(num_items: int, num_machines: int) -> np.ndarray:
    """Assign items ``0..num_items-1`` to machines in contiguous balanced blocks.

    Returns an array ``assign`` of length ``num_items`` with
    ``assign[i]`` ∈ ``[0, num_machines)``; block sizes differ by at most one.
    """
    if num_machines <= 0:
        raise ValueError("num_machines must be positive")
    if num_items < 0:
        raise ValueError("num_items must be non-negative")
    # np.array_split gives blocks whose sizes differ by at most one.
    assign = np.empty(num_items, dtype=np.int64)
    boundaries = np.linspace(0, num_items, num_machines + 1).astype(np.int64)
    for machine, (lo, hi) in enumerate(zip(boundaries[:-1], boundaries[1:])):
        assign[lo:hi] = machine
    return assign


def random_partition(
    num_items: int, num_machines: int, rng: np.random.Generator
) -> np.ndarray:
    """Assign each item independently and uniformly to a machine."""
    if num_machines <= 0:
        raise ValueError("num_machines must be positive")
    if num_items < 0:
        raise ValueError("num_items must be non-negative")
    return rng.integers(0, num_machines, size=num_items, dtype=np.int64)

