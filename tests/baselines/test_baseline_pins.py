"""Byte-identity pins for the LP bounds and the Misra–Gries edge colouring.

The expected values below were computed by the dense-matrix LP bounds and
the original fan scan that preceded the sparse constraint matrices and the
dict-based fan; any later rewrite of these baselines must reproduce them
exactly.  LP optima are compared through ``float.hex()`` (bitwise, not
approximately), colourings through the sha256 of their canonical JSON.

The grid mixes small instances with the sizes the ``large-baselines``
benchmark workload solves (vertex cover n=1000, set cover 1200 × 12000,
fractional matching n=700, edge colouring n=500).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.baselines import (
    fractional_matching_bound,
    lp_set_cover_bound,
    lp_vertex_cover_bound,
    misra_gries_edge_colouring,
)
from repro.core.colouring.edge_colouring import mapreduce_edge_colouring
from repro.graphs import densified_graph, gnm_graph, power_law_graph
from repro.setcover.generators import random_frequency_bounded_instance

#: (n, c, seed) → ``lp_vertex_cover_bound(densified_graph(n, c), U(1, 20)^n).hex()``
VERTEX_COVER_PINS = {
    (12, 0.5, 0): "0x1.f3a3c9777b2b2p+5",
    (120, 0.45, 1): "0x1.15f71fc27c954p+9",
    (400, 0.3, 2): "0x1.061464074dd06p+11",
    (1000, 0.45, 3): "0x1.392b57d4f0359p+12",
}

#: (num_sets, num_elements, seed) → ``lp_set_cover_bound(f=4 instance).hex()``
SET_COVER_PINS = {
    (10, 40, 0): "0x1.c99f0ee3e4873p+4",
    (60, 900, 1): "0x1.64ccc6e107254p+8",
    (1200, 12000, 2): "0x1.8584194d4acd9p+12",
}

#: (n, c, seed) → ``fractional_matching_bound(weighted densified_graph).hex()``
MATCHING_PINS = {
    (16, 0.5, 0): "0x1.55a96089d07c2p+9",
    (130, 0.45, 1): "0x1.6f912ee77f436p+12",
    (700, 0.45, 2): "0x1.06ff478354ee9p+15",
}

#: (generator, n, m, seed) → sha256 of ``misra_gries_edge_colouring`` output
MISRA_GRIES_PINS = {
    ("gnm", 60, 400, 0): "05df6b2ca345d625937d295c15a4acb1a949450cdb6d2648a8ede8467ce4ed69",
    ("gnm", 200, 3000, 1): "ad21a2b5b225cae1c3c7c3e9841cd3a932ef12a602c6df3ecebeffbaa115bc41",
    ("gnm", 500, 6006, 2): "c8cb226d1167d0cfe8ce1a4fd813f102d6ba7eb6095a5eda34c6efbceb9e397e",
    ("power_law", 300, 2000, 3): "8a6481683eff2c00a08fec02cfeec50b2969b26b8803036c3748a8f24b585d75",
    ("power_law", 600, 3000, 4): "3f9af1235d27721e76ad41297ba6ef167925ee011bbbc5b9c9bc5c2635e60a45",
}

#: (n, c, mu, seed) → sha256 of ``mapreduce_edge_colouring(..., "misra-gries")`` colours
MAPREDUCE_PINS = {
    (140, 0.4, 0.2, 0): "6f1f2ed63a837ca33630847c4f0b9cc026787337e68ff0d52e25719b168e04fc",
    (500, 0.4, 0.2, 1): "f4f6daef85b775cdfdbd21792b3974cc65ebf938c1cfb07eb1fdc867b1a3d83b",
    (400, 0.6, 0.1, 2): "038e9e669b5c2f4f3f5b8554e0ff1e5ab5961a004f1d067fa63064dd11aee267",
}


def _digest(payload: object) -> str:
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


def vertex_cover_value(n: int, c: float, seed: int) -> str:
    rng = np.random.default_rng(seed)
    graph = densified_graph(n, c, rng)
    weights = rng.uniform(1.0, 20.0, size=n)
    return lp_vertex_cover_bound(graph, weights).hex()


def set_cover_value(num_sets: int, num_elements: int, seed: int) -> str:
    instance = random_frequency_bounded_instance(
        num_sets, num_elements, 4, np.random.default_rng(seed)
    )
    return lp_set_cover_bound(instance).hex()


def matching_value(n: int, c: float, seed: int) -> str:
    graph = densified_graph(n, c, np.random.default_rng(seed), weights="uniform")
    return fractional_matching_bound(graph).hex()


def misra_gries_value(generator: str, n: int, m: int, seed: int) -> str:
    make = {"gnm": gnm_graph, "power_law": power_law_graph}[generator]
    graph = make(n, m, np.random.default_rng(seed))
    colours = misra_gries_edge_colouring(graph)
    return _digest([graph.num_edges, sorted(colours.items())])


def mapreduce_value(n: int, c: float, mu: float, seed: int) -> str:
    rng = np.random.default_rng(seed)
    graph = densified_graph(n, c, rng)
    result = mapreduce_edge_colouring(graph, mu, rng, local_algorithm="misra-gries")
    items = sorted((e, list(colour)) for e, colour in result.colours.items())
    return _digest([graph.num_edges, result.num_groups, items])


@pytest.mark.parametrize("key", list(VERTEX_COVER_PINS), ids=str)
def test_vertex_cover_lp_bound_pinned(key):
    assert vertex_cover_value(*key) == VERTEX_COVER_PINS[key]


@pytest.mark.parametrize("key", list(SET_COVER_PINS), ids=str)
def test_set_cover_lp_bound_pinned(key):
    assert set_cover_value(*key) == SET_COVER_PINS[key]


@pytest.mark.parametrize("key", list(MATCHING_PINS), ids=str)
def test_fractional_matching_bound_pinned(key):
    assert matching_value(*key) == MATCHING_PINS[key]


@pytest.mark.parametrize("key", list(MISRA_GRIES_PINS), ids=str)
def test_misra_gries_colouring_pinned(key):
    assert misra_gries_value(*key) == MISRA_GRIES_PINS[key]


@pytest.mark.parametrize("key", list(MAPREDUCE_PINS), ids=str)
def test_mapreduce_misra_gries_colouring_pinned(key):
    assert mapreduce_value(*key) == MAPREDUCE_PINS[key]
