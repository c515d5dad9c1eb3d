"""Memory regression guard for the LP bounds.

Each instance is sized so that a dense constraint matrix alone would take
at least 200 MB (vertex cover n=3000 once took 7.6 GB that way, and
fractional matching n=4000 ran out of memory).  The sparse constraint
matrices keep every bound's peak traced allocation below a tenth of that.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.baselines import (
    fractional_matching_bound,
    lp_set_cover_bound,
    lp_vertex_cover_bound,
)
from repro.graphs import gnm_graph
from repro.setcover.generators import random_frequency_bounded_instance

DENSE_FLOOR_BYTES = 200 * 2**20
PEAK_LIMIT_BYTES = DENSE_FLOOR_BYTES // 10


def _peak_traced_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module", autouse=True)
def _scipy_imported():
    # The first bound imports scipy.optimize; keep that out of the traced window.
    lp_vertex_cover_bound(gnm_graph(4, 3, np.random.default_rng(0)), np.ones(4))


@pytest.fixture(scope="module")
def sparse_graph():
    graph = gnm_graph(10_000, 2_700, np.random.default_rng(0), weights="uniform")
    assert graph.num_vertices * graph.num_edges * 8 >= DENSE_FLOOR_BYTES
    graph.incidence()  # build the cached CSR index outside the traced window
    return graph


def test_vertex_cover_bound_peak_memory(sparse_graph):
    weights = np.random.default_rng(1).uniform(1.0, 20.0, size=sparse_graph.num_vertices)
    assert _peak_traced_bytes(lp_vertex_cover_bound, sparse_graph, weights) < PEAK_LIMIT_BYTES


def test_fractional_matching_bound_peak_memory(sparse_graph):
    assert _peak_traced_bytes(fractional_matching_bound, sparse_graph) < PEAK_LIMIT_BYTES


def test_set_cover_bound_peak_memory():
    instance = random_frequency_bounded_instance(5_200, 5_200, 2, np.random.default_rng(2))
    assert instance.num_sets * instance.num_elements * 8 >= DENSE_FLOOR_BYTES
    instance.element_incidence()
    assert _peak_traced_bytes(lp_set_cover_bound, instance) < PEAK_LIMIT_BYTES


def test_lp_bounds_leave_cached_incidence_untouched(sparse_graph):
    instance = random_frequency_bounded_instance(40, 300, 3, np.random.default_rng(3))
    graph_cache = [a.copy() for a in sparse_graph.incidence()]
    element_cache = [a.copy() for a in instance.element_incidence()]
    fractional_matching_bound(sparse_graph)
    lp_set_cover_bound(instance)
    for before, after in zip(graph_cache, sparse_graph.incidence()):
        np.testing.assert_array_equal(before, after)
    for before, after in zip(element_cache, instance.element_incidence()):
        np.testing.assert_array_equal(before, after)
