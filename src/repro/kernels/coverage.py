"""Incremental coverage counting for the greedy set cover algorithms.

Both the hungry-greedy Algorithm 3 and the sequential greedy baselines need
``|S_ℓ \\ C|`` — the number of still-uncovered elements of every set — after
every insertion into the cover ``C``.  Recomputing it by rescanning each
set's element list costs ``O(Σ|S_ℓ|)`` per refresh; :class:`CoverageCounter`
maintains the counts incrementally instead: when elements become covered,
one CSR gather of their owner lists plus one ``np.bincount`` decrements
exactly the affected sets.  Total maintenance cost over a whole run is
``O(Σ_j f_j)`` — each (set, element) incidence is touched once, when the
element is first covered.

Counts are integers, so the incremental path is trivially byte-identical to
the rescans it replaces (golden tests in ``tests/kernels/`` assert it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..setcover.instance import SetCoverInstance

__all__ = ["CoverageCounter"]


class CoverageCounter:
    """Tracks covered elements and per-set residual (uncovered) counts.

    Attributes
    ----------
    covered:
        Boolean mask over elements; mutate only through the methods.
    residual_counts:
        ``|S_ℓ \\ C|`` for every set, maintained incrementally.
    num_covered:
        Number of covered elements.
    """

    __slots__ = (
        "instance",
        "covered",
        "residual_counts",
        "num_covered",
        "_num_elements",
        "_num_sets",
        "_indptr",
        "_indices",
    )

    def __init__(self, instance: SetCoverInstance):
        self.instance = instance
        self.covered = np.zeros(instance.num_elements, dtype=bool)
        self.residual_counts = instance.set_sizes.astype(np.int64).copy()
        self.num_covered = 0
        self._num_elements = instance.num_elements
        self._num_sets = instance.num_sets
        self._indptr, self._indices = instance.element_incidence()

    def all_covered(self) -> bool:
        """``True`` when every element of the ground set is covered."""
        return self.num_covered == self._num_elements

    def uncovered_count(self, set_id: int) -> int:
        """``|S_{set_id} \\ C|``."""
        return int(self.residual_counts[set_id])

    def cover_elements(self, elements: np.ndarray) -> int:
        """Mark ``elements`` covered; returns how many were newly covered."""
        elements = np.asarray(elements, dtype=np.int64)
        if elements.size == 0:
            return 0
        new = elements[~self.covered[elements]]
        if new.size == 0:
            return 0
        self.covered[new] = True
        self.num_covered += int(new.size)
        if new.size <= 32:
            # Few rows: direct slices beat the fixed cost of the vectorized
            # gather (this is the per-pick shape of the greedy algorithms).
            indptr, indices = self._indptr, self._indices
            owners = np.concatenate(
                [indices[indptr[e] : indptr[e + 1]] for e in new.tolist()]
            )
        else:
            starts = self._indptr[new]
            lengths = self._indptr[new + 1] - starts
            ends = np.cumsum(lengths)
            offsets = np.repeat(starts - (ends - lengths), lengths)
            owners = self._indices[offsets + np.arange(int(ends[-1]))]
        if owners.size:
            self.residual_counts -= np.bincount(owners, minlength=self._num_sets)
        return int(new.size)

    def add_set(self, set_id: int) -> int:
        """Cover all elements of ``set_id``; returns the newly covered count."""
        return self.cover_elements(self.instance.set_elements(int(set_id)))
