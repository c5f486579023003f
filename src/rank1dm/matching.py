"""Maximum independent matching on the stability graph.

The two sides of the graph carry vector matroids: a set of hyperplane
vertices is independent when the normals picked inside each block are
linearly independent.  A matching is independent when both endpoint sets
are.  The classic augmenting scheme applies: build the auxiliary digraph
(graph edges oriented left to right, matched edges reversed as well, plus
matroid exchange arcs), find a shortest source-to-sink path by BFS, flip it,
repeat until no path remains.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

from .linalg import Matrix, Vector, rref, span_coordinates
from .partmat import StabilityGraph

_log = logging.getLogger("rank1dm")


class VectorMatroid:
    """Direct sum over blocks of linear matroids on hyperplane normals."""

    def __init__(self, elements: list[tuple[int, Vector]], block_dims: tuple[int, ...]):
        self.elements = list(elements)
        self.block_dims = tuple(block_dims)
        if any(blk >= len(block_dims) for blk, _ in self.elements):
            raise ValueError("element block index out of range")

    def __len__(self):
        return len(self.elements)

    def _by_block(self, subset) -> dict[int, list[int]]:
        grouped: dict[int, list[int]] = {}
        for i in subset:
            grouped.setdefault(self.elements[i][0], []).append(i)
        return grouped

    def _block_rank(self, blk: int, members: list[int]) -> int:
        f = self.elements[members[0]][1].field
        vecs = [self.elements[i][1] for i in members]
        return rref(Matrix.from_row_vectors(f, vecs, self.block_dims[blk])).rank

    def rank(self, subset) -> int:
        return sum(self._block_rank(blk, ids) for blk, ids in self._by_block(subset).items())

    def is_independent(self, subset) -> bool:
        subset = list(subset)
        if len(set(subset)) != len(subset):
            return False
        return self.rank(subset) == len(subset)

    def circuits(self, subset) -> tuple[int, list[list[int] | None]]:
        """Rank of the selected set and, for every ground element, the
        selected elements whose normals carry a nonzero coefficient when its
        normal is written in them, or None outside the closure.  For an
        independent selection that is the element's fundamental circuit
        (less the element itself).  One elimination per block the selection
        meets."""
        found: list[list[int] | None] = [None] * len(self.elements)
        total = 0
        block_members = self._by_block(range(len(self.elements)))
        for blk, ids in self._by_block(subset).items():
            members = block_members[blk]
            f = self.elements[ids[0]][1].field
            span = span_coordinates(
                f,
                self.block_dims[blk],
                [self.elements[i][1] for i in ids],
                [self.elements[j][1] for j in members],
            )
            total += span.rank
            for j, coeffs in zip(members, span.coords):
                if coeffs is not None:
                    found[j] = [i for i, c in zip(ids, coeffs) if c != f.zero_raw]
        return total, found

    def closure(self, subset) -> set[int]:
        """Ground elements whose normal lies in the span of the selected
        normals of the same block."""
        return {j for j, circuit in enumerate(self.circuits(subset)[1]) if circuit is not None}


def matroid_pi(g: StabilityGraph) -> VectorMatroid:
    return VectorMatroid([(v.block, v.normal) for v in g.pi], g.row_blocks)


def matroid_sigma(g: StabilityGraph) -> VectorMatroid:
    return VectorMatroid([(v.block, v.normal) for v in g.sigma], g.col_blocks)


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


def _check_matching(g: StabilityGraph, matching) -> tuple[set[int], set[int], list, list]:
    """Endpoint sets of an independent matching and the circuits of every
    vertex against them, from one elimination per block and side."""
    pis: set[int] = set()
    sigmas: set[int] = set()
    for k in matching:
        e = g.edges[k]
        if e.pi in pis or e.sigma in sigmas:
            raise ValueError("edge set is not a matching")
        pis.add(e.pi)
        sigmas.add(e.sigma)
    rank_pi, circuits_pi = matroid_pi(g).circuits(pis)
    rank_sigma, circuits_sigma = matroid_sigma(g).circuits(sigmas)
    if rank_pi != len(pis) or rank_sigma != len(sigmas):
        raise ValueError("matching endpoints are not independent")
    return pis, sigmas, circuits_pi, circuits_sigma


def build_auxiliary_digraph(g: StabilityGraph, matching) -> IndependentMatchingState:
    """Auxiliary digraph, source set and sink set for an independent matching.

    An unmatched vertex outside the closure of the matched ones is a source
    (row side) or a sink (column side); inside it, it has an exchange arc
    with every matched vertex of its fundamental circuit."""
    matching = frozenset(matching)
    d_plus, d_minus, circuits_pi, circuits_sigma = _check_matching(g, matching)

    npi = g.n_pi
    adjacency: dict[int, list[tuple[int, int | None]]] = {
        v: [] for v in range(npi + g.n_sigma)
    }
    for k, e in enumerate(g.edges):
        adjacency[e.pi].append((npi + e.sigma, k))
        if k in matching:
            adjacency[npi + e.sigma].append((e.pi, k))

    # exchange arcs live inside one block on each side
    for new, circuit in enumerate(circuits_pi):
        if circuit is not None and new not in d_plus:
            for old in circuit:
                adjacency[old].append((new, None))
    for new, circuit in enumerate(circuits_sigma):
        if circuit is not None and new not in d_minus:
            adjacency[npi + new].extend((npi + old, None) for old in circuit)

    for v in adjacency:
        adjacency[v].sort(key=lambda arc: (arc[0], -1 if arc[1] is None else arc[1]))

    sources = [i for i in range(npi) if circuits_pi[i] is None]
    sinks = [npi + j for j in range(g.n_sigma) if circuits_sigma[j] is None]
    return IndependentMatchingState(
        graph=g,
        matching=matching,
        adjacency=adjacency,
        sources=sources,
        sinks=sinks,
        matched_pi=d_plus,
        matched_sigma=d_minus,
    )


def _shortest_path_arcs(state: IndependentMatchingState) -> list[tuple[int, int, int | None]] | None:
    """Shortest source-to-sink path as (from, to, edge) arcs, or None.

    Plain BFS; sources are seeded in vertex order and adjacency lists are
    sorted, so the path choice is deterministic.
    """
    sink_set = set(state.sinks)
    parent: dict[int, tuple[int, int | None] | None] = {}
    queue: deque[int] = deque()
    for s in state.sources:
        parent[s] = None
        queue.append(s)
        if s in sink_set:  # cannot happen (sides disjoint) but keeps BFS honest
            return []
    while queue:
        v = queue.popleft()
        for w, edge in state.adjacency[v]:
            if w in parent:
                continue
            parent[w] = (v, edge)
            if w in sink_set:
                arcs = []
                node = w
                while parent[node] is not None:
                    prev, ed = parent[node]
                    arcs.append((prev, node, ed))
                    node = prev
                arcs.reverse()
                return arcs
            queue.append(w)
    return None


def max_independent_matching(g: StabilityGraph) -> IndependentMatchingState:
    """Run the augmenting-path algorithm from the empty matching.

    Each round flips the graph edges used by a shortest path between the
    source set and the sink set, growing the matching by one; when no path
    exists the matching is maximum.  Every augmentation emits a DEBUG record
    on the ``rank1dm`` logger whose ``matching`` attribute holds the new
    matching's edge indices.
    """
    matching: frozenset[int] = frozenset()
    rounds = 0
    while True:
        state = build_auxiliary_digraph(g, matching)
        arcs = _shortest_path_arcs(state)
        if arcs is None:
            state.augmentations = rounds
            return state
        flipped = {edge for _, _, edge in arcs if edge is not None}
        matching = matching.symmetric_difference(flipped)
        rounds += 1
        _log.debug(
            "augmentation %d: matching of size %d", rounds, len(matching),
            extra={"matching": matching},
        )


@dataclass(frozen=True)
class Cover:
    """Vertex sets meeting every edge; H on the row side, K on the column side."""

    H: frozenset[int]
    K: frozenset[int]


def _reach(adjacency: dict[int, list[tuple[int, int | None]]], starts) -> set[int]:
    seen = set(starts)
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w, _ in adjacency[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def reachable_from(state: IndependentMatchingState, starts) -> set[int]:
    """Forward reachability in the auxiliary digraph."""
    return _reach(state.adjacency, starts)


def coreachable_to(state: IndependentMatchingState, targets) -> set[int]:
    """Vertices with a directed path into the target set."""
    back: dict[int, list[tuple[int, int | None]]] = {v: [] for v in state.adjacency}
    for v, arcs in state.adjacency.items():
        for w, edge in arcs:
            back[w].append((v, edge))
    return _reach(back, targets)


def min_cover(state: IndependentMatchingState) -> Cover:
    """The canonical minimum cover read off the reachability set of the
    sources; requires the matching to be maximum."""
    if _shortest_path_arcs(state) is not None:
        raise ValueError("matching is not maximum: an augmenting path exists")
    c = reachable_from(state, state.sources)
    npi = state.graph.n_pi
    h = frozenset(i for i in range(npi) if i not in c)
    k = frozenset(j for j in range(state.graph.n_sigma) if npi + j in c)
    return Cover(h, k)


def cover_value(g: StabilityGraph, cover: Cover) -> int:
    return matroid_pi(g).rank(cover.H) + matroid_sigma(g).rank(cover.K)
