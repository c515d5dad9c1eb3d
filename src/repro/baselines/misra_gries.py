"""Misra–Gries constructive edge colouring (``∆ + 1`` colours).

The constructive proof of Vizing's theorem by Misra and Gries (1992) colours
the edges of any simple graph with at most ``∆ + 1`` colours in polynomial
time.  The paper uses it as the per-group local colouring step of its
``(1 + o(1))∆`` edge colouring algorithm (Remark 6.5), and we additionally
benchmark it as the sequential baseline for the edge colouring experiment.

The implementation follows the classical description: for each uncoloured
edge ``(u, v)`` build a maximal *fan* of ``u`` starting at ``v``, pick a
colour ``c`` free at ``u`` and a colour ``d`` free at the fan's last vertex,
invert the maximal ``cd``-path through ``u``, then rotate a prefix of the
fan and colour the last rotated edge ``d``.
"""

from __future__ import annotations

from ..graphs.graph import Graph

__all__ = ["misra_gries_edge_colouring"]


class _ColouringState:
    """Mutable edge-colouring state with per-vertex colour→edge lookup."""

    def __init__(self, graph: Graph, num_colours: int):
        self.num_colours = num_colours
        self.edge_u: list[int] = graph.edge_u.tolist()
        self.edge_v: list[int] = graph.edge_v.tolist()
        self.colour: list[int | None] = [None] * graph.num_edges
        # at[v][c] = edge id of the edge at v coloured c (if any)
        self.at: list[dict[int, int]] = [dict() for _ in range(graph.num_vertices)]
        # incident[v] = {w: edge id of vw}, inserted in CSR adjacency order
        self.incident = _build_incident(graph)

    def edge_between(self, u: int, v: int) -> int:
        return self.incident[u][v]

    def is_free(self, vertex: int, colour: int) -> bool:
        return colour not in self.at[vertex]

    def first_free(self, vertex: int) -> int:
        for colour in range(self.num_colours):
            if colour not in self.at[vertex]:
                return colour
        raise RuntimeError("no free colour available — should be impossible with ∆+1 colours")

    def set_colour(self, edge: int, colour: int) -> None:
        u, v = self.edge_u[edge], self.edge_v[edge]
        old = self.colour[edge]
        if old is not None:
            self.at[u].pop(old, None)
            self.at[v].pop(old, None)
        self.colour[edge] = colour
        self.at[u][colour] = edge
        self.at[v][colour] = edge

    def uncolour(self, edge: int) -> None:
        u, v = self.edge_u[edge], self.edge_v[edge]
        old = self.colour[edge]
        if old is not None:
            self.at[u].pop(old, None)
            self.at[v].pop(old, None)
        self.colour[edge] = None


def _build_incident(graph: Graph) -> list[dict[int, int]]:
    """Per-vertex ``{neighbour: edge id}`` dicts built from the CSR adjacency and incidence."""
    indptr, neighbours = graph.adjacency()
    _, edge_ids = graph.incidence()
    bounds, ws, es = indptr.tolist(), neighbours.tolist(), edge_ids.tolist()
    return [dict(zip(ws[lo:hi], es[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]


def _build_fan(state: _ColouringState, u: int, v: int) -> list[int]:
    """Maximal fan of ``u`` starting at ``v``: successive edge colours are free on the previous fan vertex.

    Each extension appends the first neighbour ``w`` of ``u`` in CSR order
    that is not yet in the fan and whose edge ``uw`` is coloured with a
    colour free at the current last fan vertex; the scan then restarts,
    because the qualifying set depends on the new last vertex.  Restarts
    are cheap: the scan walks ``u``'s ``{neighbour: edge}`` dict (whose
    insertion order is the CSR order) with the colour and free checks
    inlined, so no probe slices an array or calls a method.
    """
    colour, at = state.colour, state.at
    neighbours = state.incident[u].items()
    fan = [v]
    in_fan = {v}
    last_colours = at[v]
    while True:
        for w, e in neighbours:
            c = colour[e]
            if c is not None and c not in last_colours and w not in in_fan:
                break
        else:
            return fan
        fan.append(w)
        in_fan.add(w)
        last_colours = at[w]


def _invert_cd_path(state: _ColouringState, u: int, c: int, d: int) -> None:
    """Invert the maximal path through ``u`` whose edges alternate colours ``c`` and ``d``.

    Since ``c`` is free at ``u`` the path leaves ``u`` (if at all) through an
    edge coloured ``d``.  Swapping ``c`` and ``d`` along the path keeps the
    colouring proper and makes ``d`` free at ``u``.
    """
    if c == d:
        return
    path: list[int] = []
    current, colour = u, d
    previous_edge = -1
    while True:
        edge = state.at[current].get(colour)
        if edge is None or edge == previous_edge:
            break
        path.append(edge)
        a, b = state.edge_u[edge], state.edge_v[edge]
        current = b if a == current else a
        colour = c if colour == d else d
        previous_edge = edge
    # Swap in two passes: uncolour every path edge first, then assign the
    # flipped colours.  Doing it edge by edge would transiently leave two
    # edges of the same colour at a shared path vertex and corrupt the
    # per-vertex colour→edge lookup table.
    new_colours = []
    for edge in path:
        old = state.colour[edge]
        assert old is not None
        new_colours.append((edge, c if old == d else d))
        state.uncolour(edge)
    for edge, new_colour in new_colours:
        state.set_colour(edge, new_colour)


def misra_gries_edge_colouring(graph: Graph) -> dict[int, int]:
    """Colour the edges of ``graph`` with at most ``∆ + 1`` colours.

    Returns a mapping from edge id to colour (integers in ``[0, ∆]``).
    """
    m = graph.num_edges
    if m == 0:
        return {}
    delta = graph.max_degree()
    state = _ColouringState(graph, delta + 1)

    for edge, (u, v) in enumerate(zip(state.edge_u, state.edge_v)):
        fan = _build_fan(state, u, v)
        c = state.first_free(u)
        d = state.first_free(fan[-1])
        _invert_cd_path(state, u, c, d)
        # After the inversion, find the longest prefix of the fan that is
        # still a fan and whose last vertex has d free; rotate it.
        w_index: int | None = None
        for i, vertex in enumerate(fan):
            if i > 0:
                e_prev = state.edge_between(u, fan[i])
                colour_prev = state.colour[e_prev]
                if colour_prev is None or not state.is_free(fan[i - 1], colour_prev):
                    break
            if state.is_free(vertex, d):
                w_index = i
                break
        if w_index is None:
            # The classical argument guarantees a valid prefix exists; as a
            # defensive fallback (e.g. against floating assumptions broken by
            # unusual inputs) colour the edge with any colour free at both
            # endpoints, extending the palette if necessary.
            colour = 0
            while not (state.is_free(u, colour) and state.is_free(v, colour)):
                colour += 1
                if colour >= state.num_colours:
                    state.num_colours = colour + 1
            state.set_colour(edge, colour)
            continue
        # Rotate the prefix fan: shift each fan edge's colour to its predecessor.
        for i in range(w_index):
            e_next = state.edge_between(u, fan[i + 1])
            next_colour = state.colour[e_next]
            assert next_colour is not None
            target = state.edge_between(u, fan[i])
            state.uncolour(e_next)
            state.set_colour(target, next_colour)
        final_edge = state.edge_between(u, fan[w_index])
        state.set_colour(final_edge, d)

    return {e: int(state.colour[e]) for e in range(m) if state.colour[e] is not None}
