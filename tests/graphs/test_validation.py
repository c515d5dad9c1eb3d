"""Unit tests for the solution certificate checkers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    gnm_graph,
    complete_graph,
    cycle_graph,
    is_b_matching,
    is_clique,
    is_independent_set,
    is_matching,
    is_maximal_clique,
    is_maximal_independent_set,
    is_maximal_matching,
    is_proper_edge_colouring,
    is_proper_vertex_colouring,
    is_vertex_cover,
    matching_weight,
    num_colours_used,
    path_graph,
    star_graph,
    vertex_cover_weight,
)


class TestVertexCover:
    def test_full_vertex_set_is_cover(self, triangle):
        assert is_vertex_cover(triangle, [0, 1, 2])

    def test_two_vertices_cover_triangle(self, triangle):
        assert is_vertex_cover(triangle, [0, 1])

    def test_single_vertex_does_not_cover_triangle(self, triangle):
        assert not is_vertex_cover(triangle, [0])

    def test_star_centre_covers(self, small_star):
        assert is_vertex_cover(small_star, [0])
        assert not is_vertex_cover(small_star, [1, 2])

    def test_empty_cover_of_empty_graph(self):
        assert is_vertex_cover(Graph(4, []), [])

    def test_out_of_range_vertex_rejected(self, triangle):
        assert not is_vertex_cover(triangle, [5])

    def test_cover_weight(self):
        weights = [1.0, 2.0, 4.0]
        assert vertex_cover_weight(weights, [0, 2]) == 5.0
        assert vertex_cover_weight(weights, []) == 0.0
        assert vertex_cover_weight(weights, [1, 1]) == 2.0  # duplicates ignored


class TestMatching:
    def test_disjoint_edges_are_matching(self, small_path):
        # path 0-1-2-3-4: edges 0=(0,1),1=(1,2),2=(2,3),3=(3,4)
        assert is_matching(small_path, [0, 2])

    def test_adjacent_edges_are_not_matching(self, small_path):
        assert not is_matching(small_path, [0, 1])

    def test_empty_matching(self, small_path):
        assert is_matching(small_path, [])

    def test_invalid_edge_id(self, small_path):
        assert not is_matching(small_path, [99])

    def test_maximal_matching(self, small_path):
        assert is_maximal_matching(small_path, [0, 2])
        assert is_maximal_matching(small_path, [1, 3])
        assert not is_maximal_matching(small_path, [0])  # edge (2,3) still free

    def test_matching_weight(self, triangle):
        assert matching_weight(triangle, [2]) == 3.0
        assert matching_weight(triangle, []) == 0.0

    def test_b_matching_respects_capacities(self, small_star):
        edges = list(range(3))
        assert is_b_matching(small_star, edges, 3)
        assert not is_b_matching(small_star, edges, 2)
        assert is_b_matching(small_star, edges, {0: 3})  # leaves default to 1

    def test_b_matching_with_vector(self, small_path):
        caps = {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}
        assert is_b_matching(small_path, [0, 1, 2, 3], caps)


class TestIndependentSetAndClique:
    def test_alternate_vertices_of_cycle(self, small_cycle):
        assert is_independent_set(small_cycle, [0, 2, 4])
        assert is_maximal_independent_set(small_cycle, [0, 2, 4])

    def test_adjacent_vertices_are_dependent(self, small_cycle):
        assert not is_independent_set(small_cycle, [0, 1])

    def test_non_maximal_independent_set(self, small_cycle):
        assert is_independent_set(small_cycle, [0])
        assert not is_maximal_independent_set(small_cycle, [0])

    def test_empty_set_not_maximal_in_nonempty_graph(self, small_cycle):
        assert is_independent_set(small_cycle, [])
        assert not is_maximal_independent_set(small_cycle, [])

    def test_isolated_vertices_must_be_included(self):
        g = Graph(4, [(0, 1)])
        assert not is_maximal_independent_set(g, [0])
        assert is_maximal_independent_set(g, [0, 2, 3])

    def test_clique_checks(self, small_complete):
        assert is_clique(small_complete, [0, 1, 2])
        assert is_maximal_clique(small_complete, list(range(6)))
        assert not is_maximal_clique(small_complete, [0, 1, 2])

    def test_clique_in_sparse_graph(self, small_path):
        assert is_clique(small_path, [0, 1])
        assert not is_clique(small_path, [0, 1, 2])
        assert is_maximal_clique(small_path, [1, 2])

    def test_singleton_and_empty_cliques(self):
        g = Graph(3, [(0, 1)])
        assert is_clique(g, [2])
        assert is_maximal_clique(g, [2])
        assert not is_maximal_clique(g, [])


class TestColourings:
    def test_proper_vertex_colouring_of_cycle(self):
        g = cycle_graph(4)
        assert is_proper_vertex_colouring(g, {0: 0, 1: 1, 2: 0, 3: 1})
        assert not is_proper_vertex_colouring(g, {0: 0, 1: 0, 2: 1, 3: 1})

    def test_vertex_colouring_must_cover_all_vertices(self, triangle):
        assert not is_proper_vertex_colouring(triangle, {0: 0, 1: 1})

    def test_vertex_colouring_accepts_sequences_and_tuple_colours(self, triangle):
        assert is_proper_vertex_colouring(triangle, [(0, 0), (0, 1), (1, 0)])

    def test_proper_edge_colouring_of_path(self, small_path):
        colours = {0: 0, 1: 1, 2: 0, 3: 1}
        assert is_proper_edge_colouring(small_path, colours)
        assert not is_proper_edge_colouring(small_path, {0: 0, 1: 0, 2: 1, 3: 1})

    def test_edge_colouring_must_cover_all_edges(self, small_path):
        assert not is_proper_edge_colouring(small_path, {0: 0, 1: 1})

    def test_star_needs_distinct_edge_colours(self):
        g = star_graph(3)
        assert is_proper_edge_colouring(g, {0: 0, 1: 1, 2: 2})
        assert not is_proper_edge_colouring(g, {0: 0, 1: 1, 2: 1})

    def test_num_colours_used(self):
        assert num_colours_used({0: "a", 1: "b", 2: "a"}) == 2
        assert num_colours_used([(0, 1), (0, 1), (1, 0)]) == 2

    def test_vertex_colouring_mapping_missing_a_vertex(self):
        # As many entries as vertices, but vertex 2 is absent: not a
        # colouring (this used to raise KeyError).
        assert not is_proper_vertex_colouring(path_graph(3), {0: 1, 1: 2, 7: 1})


class TestCrossChecks:
    def test_complement_relationship_mis_vs_clique(self, rng):
        """An independent set of G is a clique of the complement."""
        from repro.graphs import gnm_graph

        g = gnm_graph(12, 30, rng)
        # complement graph
        comp_edges = [
            (u, v)
            for u in range(12)
            for v in range(u + 1, 12)
            if not g.has_edge(u, v)
        ]
        comp = Graph(12, np.asarray(comp_edges).reshape(-1, 2))
        subset = [0, 1, 2]
        assert is_independent_set(g, subset) == is_clique(comp, subset)

    def test_matched_vertices_form_vertex_cover_of_maximal_matching(self, medium_graph):
        """Classic fact: endpoints of any maximal matching form a vertex cover."""
        from repro.baselines import greedy_matching

        matching = greedy_matching(medium_graph)
        cover = set()
        for e in matching.edge_ids:
            u, v = medium_graph.edge_endpoints(e)
            cover.update((u, v))
        assert is_maximal_matching(medium_graph, matching.edge_ids)
        assert is_vertex_cover(medium_graph, cover)


# --------------------------------------------------------------------------- #
# Brute-force references for the vectorized checkers
# --------------------------------------------------------------------------- #
def _reference_maximal_clique(graph: Graph, vertices) -> bool:
    vset = {int(v) for v in vertices}
    if any(v < 0 or v >= graph.num_vertices for v in vset):
        return False
    adjacent = {(int(u), int(v)) for u, v in zip(graph.edge_u, graph.edge_v)}
    adjacent |= {(v, u) for u, v in adjacent}
    if any((a, b) not in adjacent for a in vset for b in vset if a != b):
        return False
    return not any(
        all((c, member) in adjacent for member in vset)
        for c in range(graph.num_vertices)
        if c not in vset
    )


def _reference_vertex_colouring(graph: Graph, colours) -> bool:
    lookup = {}
    for v in range(graph.num_vertices):
        try:
            lookup[v] = colours[v]
        except (KeyError, IndexError):
            return False
        if lookup[v] is None:
            return False
    return all(lookup[int(u)] != lookup[int(v)] for u, v in zip(graph.edge_u, graph.edge_v))


def _reference_edge_colouring(graph: Graph, colours) -> bool:
    lookup = {}
    for e in range(graph.num_edges):
        try:
            lookup[e] = colours[e]
        except (KeyError, IndexError):
            return False
        if lookup[e] is None:
            return False
    for v in range(graph.num_vertices):
        incident = [
            e for e in range(graph.num_edges) if v in (int(graph.edge_u[e]), int(graph.edge_v[e]))
        ]
        seen = [lookup[e] for e in incident]
        if any(seen[i] == seen[j] for i in range(len(seen)) for j in range(i)):
            return False
    return True


def _random_small_graphs(seed: int, count: int = 30):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        yield rng, gnm_graph(n, m, rng)


class TestCheckersAgreeWithBruteForce:
    @pytest.mark.parametrize("seed", range(4))
    def test_maximal_clique(self, seed):
        for rng, g in _random_small_graphs(seed):
            for _ in range(6):
                k = int(rng.integers(0, g.num_vertices + 1))
                candidate = rng.choice(g.num_vertices, size=k, replace=False).tolist()
                assert is_maximal_clique(g, candidate) == _reference_maximal_clique(g, candidate)
            # Greedily grown cliques exercise the "maximal" branch.
            clique: list[int] = []
            for v in rng.permutation(g.num_vertices).tolist():
                if all(g.has_edge(v, w) for w in clique):
                    clique.append(v)
                    assert is_maximal_clique(g, clique) == _reference_maximal_clique(g, clique)

    @pytest.mark.parametrize("seed", range(4))
    def test_vertex_colouring(self, seed):
        for rng, g in _random_small_graphs(seed):
            for palette in (2, 3, g.num_vertices):
                colours = rng.integers(0, palette, size=g.num_vertices).tolist()
                as_map = dict(enumerate(colours))
                assert is_proper_vertex_colouring(g, colours) == _reference_vertex_colouring(
                    g, colours
                )
                assert is_proper_vertex_colouring(g, as_map) == _reference_vertex_colouring(
                    g, as_map
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_edge_colouring(self, seed):
        for rng, g in _random_small_graphs(seed):
            for palette in (2, 4, max(1, g.num_edges)):
                colours = rng.integers(0, palette, size=g.num_edges).tolist()
                as_map = dict(enumerate(colours))
                assert is_proper_edge_colouring(g, colours) == _reference_edge_colouring(
                    g, colours
                )
                assert is_proper_edge_colouring(g, as_map) == _reference_edge_colouring(
                    g, as_map
                )

    def test_clique_edge_cases(self):
        for g in (Graph(0, []), Graph(1, []), path_graph(2), complete_graph(4)):
            for candidate in ([], [0], [0, 1], [0, 1, 2, 3]):
                assert is_maximal_clique(g, candidate) == _reference_maximal_clique(g, candidate)
        assert is_maximal_clique(Graph(0, []), [])
        assert not is_maximal_clique(Graph(1, []), [])
        assert is_maximal_clique(Graph(1, []), [0])

    @pytest.mark.parametrize(
        "colours",
        [
            ["red", "blue", "red"],
            ["red", "red", "blue"],
            {0: "a", 1: "b", 2: "c"},
            [None, 1, 2],
            {0: 1, 1: None, 2: 1},
            [None, None, None],
            [1, 2],
            {0: 1, 1: 2},
            [(0, 1), (0, 2), (0, 1)],
            [1, 2, 1, 2, 1],
        ],
    )
    def test_vertex_colouring_edge_cases(self, colours):
        g = path_graph(3)
        assert is_proper_vertex_colouring(g, colours) == _reference_vertex_colouring(g, colours)

    @pytest.mark.parametrize(
        "colours",
        [
            ["red", "blue"],
            ["red", "red"],
            [None, 1],
            {0: 1, 1: None},
            [1],
            {0: 1, 5: 2},
            [(0, 1), (0, 2), (0, 1)],
        ],
    )
    def test_edge_colouring_edge_cases(self, colours):
        g = path_graph(3)
        assert is_proper_edge_colouring(g, colours) == _reference_edge_colouring(g, colours)

    def test_colourings_of_empty_graphs(self):
        for n in (0, 1):
            g = Graph(n, [])
            for colours in ([], [0], {}, {0: None}):
                assert is_proper_vertex_colouring(g, colours) == _reference_vertex_colouring(
                    g, colours
                )
                assert is_proper_edge_colouring(g, colours) == _reference_edge_colouring(
                    g, colours
                )
