"""Byte-identity pins for the graph generators and the CSR indexes.

The expected digests below were computed by the per-pair rejection loop
that preceded the batched edge sampler and by the ``int64`` stable-argsort
index builds that preceded the radix kernel; any later rewrite of the
sampler, ``Graph._build_adjacency`` or ``SetCoverInstance.element_incidence``
must reproduce them exactly.

Each generator pin hashes the canonical edge columns (and weights, when
drawn) and appends ``float.hex()`` of the generator's *next* draw, so the
pin also fixes how much of the random stream the generator consumed.  The
grid runs from n = 2 to n = 20000 and covers both sampling branches of
``gnm_graph`` (rejection sampling and the dense ``triu_indices`` choice),
``m = 0``, and ``power_law_graph`` stopping at its attempt cap.

The index pins use the instance sizes of the ``large-core`` benchmark
workload with the experiments' default parameters.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graphs import Graph, densified_graph, gnm_graph, power_law_graph
from repro.setcover.generators import random_coverage_instance, random_frequency_bounded_instance

#: (n, m, weights, seed) → pin of ``gnm_graph``
GNM_PINS = {
    (2, 1, None, 0): "3a95c57666656d2c1da6b638974191ca769b7c7260b3046cf232cb3bc8a426b6:0x1.461fd79fb3850p-1",
    (3, 1, None, 1): "3a95c57666656d2c1da6b638974191ca769b7c7260b3046cf232cb3bc8a426b6:0x1.80fcd815653b3p-1",
    (5, 5, None, 2): "5e01460931ee4dfa71282347b266a2e972b12a27b2202813bbfa3c734a01ec5c:0x1.a78111efa0098p-2",
    (5, 6, None, 3): "59e7d24df97091951cf0be1d23096e6115dc4c8321262ea691764138092adba6:0x1.ea8c6c6a7c232p-2",
    (5, 0, None, 4): "565d240f5343e625ae579a4d45a770f1f02c6368b5ed4d06da4fbe6f47c28866:0x1.e2d83ff773f04p-1",
    (50, 612, None, 5): "ae7a1cf0dc219278ca5c5b166b31f1af64d985f08037f25209eab20886700e42:0x1.992c87a57614ep-1",
    (50, 613, "uniform", 6): "d8127503bbc86573a75812c461152a211158e5ba2c3dfb891052c53888ce6a60:0x1.1669663e0bf18p-4",
    (300, 4000, "exponential", 7): "e4dfe0506c792e76a1031e7a91567ee76b39b411b222d899114b92ce7d34c2f6:0x1.fe2c0a34fc878p-2",
    (1000, 20000, None, 8): "f2ae292e3caffb2edf4b363eeca82ff30d9c65950b7810eaa2366ec290793394:0x1.55d5c9dfc52ddp-1",
    (20000, 60000, "uniform", 9): "a7c31ae029c29e19aa315de72bf2b970221d4b5c12fd013db31ea9b5cc664313:0x1.ea9de9bd0010fp-1",
}

#: (n, c, seed) → pin of ``densified_graph``
DENSIFIED_PINS = {
    (2, 0.5, 0): "3a95c57666656d2c1da6b638974191ca769b7c7260b3046cf232cb3bc8a426b6:0x1.461fd79fb3850p-1",
    (40, 1.0, 1): "dff59a591a8e50ef493fa83ef78d0c9e7b5e719539faf433f068f2b424cc6fef:0x1.b74d3181f3ee4p-1",
    (150, 0.45, 2): "3b381551b6f9088e64b8656e1ef1e1d5408f4a45a7bb1f4538705bbc52d95bb2:0x1.61b635ef193c9p-1",
    (4000, 0.45, 3): "41ca38cf49a19b342c7cb26ffaecf4e82aea5f0d9426d72ace07af37ca28f1a8:0x1.c281130a2b83ep-1",
    (20000, 0.2, 4): "be040a8ed0985c1d6e60a1c02973ac18d7a4c9d778af821bb7d3ec75e41ddaca:0x1.d7a67b71a2b1bp-1",
}

#: (n, m, exponent, seed) → pin of ``power_law_graph``; the first two rows
#: stop at the attempt cap with fewer than ``m`` edges.
POWER_LAW_PINS = {
    (200, 5000, 1.3, 0): "dcd68d9f9c4e6404526c65a858acc0bf942cb5b10de4af8c500d37ef26b534ac:0x1.4467ecd47ae0cp-1",
    (500, 3000, 1.5, 1): "1d2926093309014d9b5cd167e8616060bc8d2edc50c55ecce3560150051f1da2:0x1.02975ac5d121fp-1",
    (2, 1, 2.5, 2): "3a95c57666656d2c1da6b638974191ca769b7c7260b3046cf232cb3bc8a426b6:0x1.524124d80970ep-1",
    (300, 2000, 2.5, 3): "2586835f6ab6bd9ea45e55937138ffe030d513ba90eaa925e3a08a00efa8762a:0x1.51f9f7d4ab78bp-1",
    (3000, 20000, 2.1, 4): "91b6572e56fec545bc9752465ffabcda0c5e2149b0618e5ff328f7f7b7aab635:0x1.e25c30161e47dp-1",
    (20000, 50000, 2.5, 5): "41c4fa027f45886eda026f17e5ad61866bf80d0e6d4abed24b463be04f62ce39:0x1.c09a8ecb3ad1ap-1",
}

#: (row, seed) → sha256 of the CSR indexes of a ``large-core`` instance
INDEX_PINS = {
    ("mis", 0): "b0ac5d354fcfc6fcbae2f2a5ec22bfcb116495e7863310c7e7191e78537e015d",
    ("maximal-clique", 1): "3d764a03dbfceb52534f4789b04d6688867bc856a5503aa7a6ba2ba5ccbe4858",
    ("b-matching", 2): "db92ec3a68a1886569a0ebb7647403f9fc183cc7c5a3e7e5260ae685190f493d",
    ("vertex-colouring", 3): "292dcc64d7fc1c24a7db303564dac6c1eb69d90756646d0d8120276cac2b9bdd",
    ("vertex-cover", 4): "226859cdab97834d78413835c06229a2923412846c662fc33d2531ca69dfe120",
    ("set-cover-greedy", 5): "36ade443ad1948ab5e902c834db0a07c04c0d249ec7c50708392aec90d4ca0a1",
    ("set-cover", 6): "777680b2eb146b90893a26539ccbc93cc738bf8046f2a3bbe8723924548b5bc3",
}

#: Graph rows of ``large-core``: name → (n, c) at the experiment defaults.
_GRAPH_ROWS = {
    "mis": (4000, 0.45),
    "maximal-clique": (2000, 0.55),
    "b-matching": (1500, 0.45),
    "vertex-colouring": (2000, 0.45),
    "vertex-cover": (2500, 0.45),
}


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
        h.update(b"|")
    return h.hexdigest()


def _graph_pin(graph: Graph, rng: np.random.Generator, *, weighted: bool) -> str:
    arrays = [graph.edge_u, graph.edge_v] + ([graph.weights] if weighted else [])
    return f"{_digest(*arrays)}:{float(rng.random()).hex()}"


def gnm_pin(n: int, m: int, weights: str | None, seed: int) -> str:
    rng = np.random.default_rng(seed)
    graph = gnm_graph(n, m, rng, weights=weights)
    return _graph_pin(graph, rng, weighted=weights is not None)


def densified_pin(n: int, c: float, seed: int) -> str:
    rng = np.random.default_rng(seed)
    return _graph_pin(densified_graph(n, c, rng), rng, weighted=False)


def power_law_pin(n: int, m: int, exponent: float, seed: int) -> str:
    rng = np.random.default_rng(seed)
    return _graph_pin(power_law_graph(n, m, rng, exponent=exponent), rng, weighted=False)


def index_pin(row: str, seed: int) -> str:
    rng = np.random.default_rng(seed)
    if row in _GRAPH_ROWS:
        graph = densified_graph(*_GRAPH_ROWS[row], rng)
        indptr, indices = graph.adjacency()
        incidence_indptr, edge_ids = graph.incidence()
        assert incidence_indptr is indptr
        return _digest(indptr, indices, edge_ids)
    if row == "set-cover":
        instance = random_frequency_bounded_instance(1500, 15000, 4, rng)
    else:
        instance = random_coverage_instance(1500, 400, rng, density=0.08)
    return _digest(*instance.element_incidence())


@pytest.mark.parametrize("key", sorted(GNM_PINS, key=str))
def test_gnm_graph_pins(key):
    assert gnm_pin(*key) == GNM_PINS[key]


@pytest.mark.parametrize("key", sorted(DENSIFIED_PINS))
def test_densified_graph_pins(key):
    assert densified_pin(*key) == DENSIFIED_PINS[key]


@pytest.mark.parametrize("key", sorted(POWER_LAW_PINS))
def test_power_law_graph_pins(key):
    assert power_law_pin(*key) == POWER_LAW_PINS[key]


def test_power_law_attempt_cap_rows_are_short():
    for n, m, exponent, seed in [(200, 5000, 1.3, 0), (500, 3000, 1.5, 1)]:
        graph = power_law_graph(n, m, np.random.default_rng(seed), exponent=exponent)
        assert graph.num_edges < m


@pytest.mark.parametrize("key", sorted(INDEX_PINS))
def test_csr_index_pins(key):
    assert index_pin(*key) == INDEX_PINS[key]
