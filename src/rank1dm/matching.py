"""Maximum independent matching on the stability graph.

The two sides of the graph carry vector matroids: a set of hyperplane
vertices is independent when the normals picked inside each block are
linearly independent.  A matching is independent when both endpoint sets
are.  The classic augmenting scheme applies on the auxiliary digraph
(graph edges oriented left to right, matched edges reversed as well, plus
matroid exchange arcs): find a shortest source-to-sink path by BFS, flip
it, repeat until no path remains.  Each side's matroid holds the matched
vertices as its selection, so a round re-eliminates only the blocks its
augmentation changed, and it expands a node only when the search dequeues
it; the digraph is built in full for the maximum matching alone, whose
reachability sets give the decomposition.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .field import Field
from .linalg import span_coordinates
from .partmat import StabilityGraph

_log = logging.getLogger("rank1dm")


class VectorMatroid:
    """Direct sum over blocks of linear matroids on hyperplane normals,
    holding one selection of its elements, at first the empty one.

    ``circuit[j]`` is ``[]`` for a selected j; for an unselected j in the
    closure of the selection, the selected elements whose normals carry a
    nonzero coefficient when j's normal is written in them, ascending (for
    an independent selection, j's fundamental circuit less j); and None
    outside the closure.  ``holders[i]`` lists, ascending, the elements whose
    circuit holds i, and is ``[]`` for an unselected i.  Read both lists
    only; ``select`` rewrites them."""

    def __init__(self, field: Field, elements: list[tuple[int, tuple]], block_dims: tuple):
        self.field = field
        self.elements = list(elements)
        self.block_dims = tuple(block_dims)
        self._members: list[list[int]] = [[] for _ in self.block_dims]
        for j, (blk, _) in enumerate(self.elements):
            if not 0 <= blk < len(block_dims):
                raise ValueError("element block index out of range")
            self._members[blk].append(j)
        self.circuit: list[list[int] | None] = [None] * len(self.elements)
        self.holders: list[list[int]] = [[] for _ in self.elements]
        self._selected: set[int] = set()
        self._ranks = [0] * len(self.block_dims)

    def select(self, subset) -> int:
        """Hold ``subset`` as the selection and return its rank.  One
        elimination solves the unselected members of each block whose
        selected members changed against the selected ones, ascending;
        every other block keeps its entries."""
        subset = set(subset)
        changed = {self.elements[i][0] for i in subset ^ self._selected}
        self._selected = subset
        zero = self.field.zero_raw
        for blk in changed:
            members = self._members[blk]
            ids = [i for i in members if i in subset]
            others = [j for j in members if j not in subset]
            for j in members:
                self.circuit[j] = [] if j in subset else None
                self.holders[j] = []
            self._ranks[blk] = 0
            if not ids:
                continue
            span = span_coordinates(
                self.field,
                self.block_dims[blk],
                [self.elements[i][1] for i in ids],
                [self.elements[j][1] for j in others],
            )
            self._ranks[blk] = span.rank
            for j, coeffs in zip(others, span.coords):
                if coeffs is not None:
                    self.circuit[j] = [i for i, c in zip(ids, coeffs) if c != zero]
                    for i in self.circuit[j]:
                        self.holders[i].append(j)
        return sum(self._ranks)


def matroid_pi(g: StabilityGraph) -> VectorMatroid:
    return VectorMatroid(g.field, g.pi, g.row_blocks)


def matroid_sigma(g: StabilityGraph) -> VectorMatroid:
    return VectorMatroid(g.field, g.sigma, g.col_blocks)


@dataclass
class IndependentMatchingState:
    """A matching together with its auxiliary digraph.

    Node ids: row-side vertex i is node i, column-side vertex j is node
    n_pi + j.  Arcs carry the graph edge index they correspond to, or None
    for matroid exchange arcs.
    """

    graph: StabilityGraph
    matching: frozenset[int]
    adjacency: dict[int, list[tuple[int, int | None]]]
    sources: list[int]
    sinks: list[int]
    matched_pi: set[int]
    matched_sigma: set[int]
    augmentations: int = 0

    @property
    def size(self) -> int:
        return len(self.matching)


def build_auxiliary_digraph(g: StabilityGraph, matching) -> IndependentMatchingState:
    """Auxiliary digraph, source set and sink set for an independent matching.

    An unmatched vertex outside the closure of the matched ones is a source
    (row side) or a sink (column side); inside it, it has an exchange arc
    with every matched vertex of its fundamental circuit."""
    matching = frozenset(matching)
    lazy = _lazy_digraph(g, matroid_pi(g), matroid_sigma(g), _graph_arcs(g), matching)
    return _auxiliary_digraph(g, matching, lazy)


def _graph_arcs(g: StabilityGraph) -> list[list[tuple[int, int]]]:
    """Each row-side node's graph edges as (column node, edge), in edge order."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(g.n_pi)]
    for k, e in enumerate(g.edges):
        out[e.pi].append((g.n_pi + e.sigma, k))
    return out


def _lazy_digraph(g: StabilityGraph, mp: VectorMatroid, ms: VectorMatroid, graph_arcs, matching):
    """Sources, sinks, the out-arc function and the matched vertex sets of
    the auxiliary digraph of ``matching``, on the graph's two matroids and
    row-side graph arcs, which the caller builds once."""
    npi = g.n_pi
    d_plus: set[int] = set()
    d_minus: set[int] = set()
    mate: dict[int, list[tuple[int, int]]] = {}
    for k in matching:
        e = g.edges[k]
        if e.pi in d_plus or e.sigma in d_minus:
            raise ValueError("edge set is not a matching")
        d_plus.add(e.pi)
        d_minus.add(e.sigma)
        mate[npi + e.sigma] = [(e.pi, k)]
    if mp.select(d_plus) != len(d_plus) or ms.select(d_minus) != len(d_minus):
        raise ValueError("matching endpoints are not independent")
    holders_pi, circuit_sigma = mp.holders, ms.circuit

    def arcs(v: int) -> list[tuple[int, int | None]]:
        # ascending by target, the order _search reads them: a row-side
        # node's exchange arcs, then its graph edges; a column-side node's
        # reversed matched edge, then its exchange arcs
        if v < npi:
            return [(new, None) for new in holders_pi[v]] + graph_arcs[v]
        return mate.get(v, []) + [(npi + old, None) for old in circuit_sigma[v - npi] or ()]

    sources = [i for i, c in enumerate(mp.circuit) if c is None]
    sinks = [npi + j for j, c in enumerate(circuit_sigma) if c is None]
    return sources, sinks, arcs, d_plus, d_minus


def _auxiliary_digraph(g: StabilityGraph, matching, lazy) -> IndependentMatchingState:
    """The state of ``matching``, with every node's out-arcs materialized."""
    sources, sinks, arcs, d_plus, d_minus = lazy
    adjacency = {v: arcs(v) for v in range(g.n_pi + g.n_sigma)}
    return IndependentMatchingState(g, matching, adjacency, sources, sinks, d_plus, d_minus)


def _search(
    arcs: Callable[[int], list[tuple[int, int | None]]], starts, targets=()
) -> tuple[dict[int, tuple[int, int | None] | None], int | None]:
    """Breadth-first search of the auxiliary digraph from ``starts``.

    Returns the arc (node, edge) by which each reached node was first
    entered (None for a start) and the first target reached, where the
    search stops, or None after reaching everything it can.  A node's
    out-arcs are asked for when it is dequeued.  Starts are seeded in the
    given order and each node's arcs are read in the order ``arcs`` gives
    them, which ascends by target, so the search, and the shortest path it
    finds, are deterministic."""
    targets = set(targets)
    parent: dict[int, tuple[int, int | None] | None] = dict.fromkeys(starts)
    queue = deque(parent)
    while queue:
        v = queue.popleft()
        for w, edge in arcs(v):
            if w not in parent:
                parent[w] = (v, edge)
                if w in targets:
                    return parent, w
                queue.append(w)
    return parent, None


def reachability_sets(state: IndependentMatchingState) -> tuple[set[int], set[int]]:
    """C0 = nodes reachable from the source set, Cinf = nodes that reach the
    sink set, both in the auxiliary digraph of a maximum matching."""
    back: dict[int, list[tuple[int, int | None]]] = {v: [] for v in state.adjacency}
    for v, arcs in state.adjacency.items():
        for w, edge in arcs:
            back[w].append((v, edge))
    forward = _search(state.adjacency.__getitem__, state.sources)[0]
    return set(forward), set(_search(back.__getitem__, state.sinks)[0])


def max_independent_matching(g: StabilityGraph) -> IndependentMatchingState:
    """Run the augmenting-path algorithm from the empty matching.

    Each round flips the graph edges used by a shortest path between the
    source set and the sink set, growing the matching by one; when no path
    exists the matching is maximum.  A round re-eliminates only the blocks
    whose matched vertices changed and expands nodes lazily; only the
    returned state's digraph is materialized.  Every augmentation emits a
    DEBUG record on the ``rank1dm`` logger whose ``matching`` attribute
    holds the new matching's edge indices.
    """
    mp, ms, graph_arcs = matroid_pi(g), matroid_sigma(g), _graph_arcs(g)
    matching: frozenset[int] = frozenset()
    rounds = 0
    while True:
        lazy = _lazy_digraph(g, mp, ms, graph_arcs, matching)
        sources, sinks, arcs, _, _ = lazy
        parent, node = _search(arcs, sources, sinks)
        if node is None:
            state = _auxiliary_digraph(g, matching, lazy)
            state.augmentations = rounds
            return state
        flipped = set()
        while parent[node] is not None:
            node, edge = parent[node]
            if edge is not None:
                flipped.add(edge)
        matching = matching.symmetric_difference(flipped)
        rounds += 1
        _log.debug(
            "augmentation %d: matching of size %d", rounds, len(matching),
            extra={"matching": matching},
        )
