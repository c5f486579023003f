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

from collections import deque
from dataclasses import dataclass, field as dc_field

from .linalg import Matrix, Vector, rref
from .partmat import StabilityGraph


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

    def closure(self, subset) -> set[int]:
        """Ground elements whose normal lies in the span of the selected
        normals of the same block."""
        grouped = self._by_block(subset)
        closed: set[int] = set()
        for blk, ids in grouped.items():
            f = self.elements[ids[0]][1].field
            vecs = [self.elements[i][1] for i in ids]
            base = rref(Matrix.from_row_vectors(f, vecs, self.block_dims[blk]))
            base_rows = [base.R.row_raw(r) for r in range(base.rank)]
            for j, (eblk, normal) in enumerate(self.elements):
                if eblk != blk:
                    continue
                stacked = base_rows + [list(normal.data)]
                flat = [x for row in stacked for x in row]
                m = Matrix(f, len(stacked), self.block_dims[blk], flat)
                if rref(m).rank == base.rank:
                    closed.add(j)
        return closed


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
    history: list[frozenset[int]] = dc_field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.matching)

    def sigma_node(self, j: int) -> int:
        return self.graph.n_pi + j

    def matching_pairs(self) -> list[tuple[int, int]]:
        """Matched (pi index, sigma index) pairs in edge order."""
        return [
            (e.pi, e.sigma)
            for k, e in enumerate(self.graph.edges)
            if k in self.matching
        ]


def _check_matching(g: StabilityGraph, matching) -> tuple[set[int], set[int]]:
    pis: set[int] = set()
    sigmas: set[int] = set()
    for k in matching:
        e = g.edges[k]
        if e.pi in pis or e.sigma in sigmas:
            raise ValueError("edge set is not a matching")
        pis.add(e.pi)
        sigmas.add(e.sigma)
    if not matroid_pi(g).is_independent(pis) or not matroid_sigma(g).is_independent(sigmas):
        raise ValueError("matching endpoints are not independent")
    return pis, sigmas


def build_auxiliary_digraph(g: StabilityGraph, matching) -> IndependentMatchingState:
    """Auxiliary digraph, source set and sink set for an independent matching."""
    matching = frozenset(matching)
    d_plus, d_minus = _check_matching(g, matching)
    m_pi = matroid_pi(g)
    m_sigma = matroid_sigma(g)
    cl_plus = m_pi.closure(d_plus)
    cl_minus = m_sigma.closure(d_minus)

    npi = g.n_pi
    adjacency: dict[int, list[tuple[int, int | None]]] = {
        v: [] for v in range(npi + g.n_sigma)
    }
    for k, e in enumerate(g.edges):
        adjacency[e.pi].append((npi + e.sigma, k))
        if k in matching:
            adjacency[npi + e.sigma].append((e.pi, k))

    # exchange arcs live inside one block on each side
    for alpha in range(len(g.row_blocks)):
        block_ids = g.pi_in_block(alpha)
        ins = [i for i in block_ids if i in d_plus]
        outs = [i for i in block_ids if i in cl_plus and i not in d_plus]
        for old in ins:
            kept = [i for i in ins if i != old]
            for new in outs:
                if m_pi.is_independent(kept + [new]):
                    adjacency[old].append((new, None))
    for beta in range(len(g.col_blocks)):
        block_ids = g.sigma_in_block(beta)
        ins = [j for j in block_ids if j in d_minus]
        outs = [j for j in block_ids if j in cl_minus and j not in d_minus]
        for new in outs:
            for old in ins:
                kept = [j for j in ins if j != old]
                if m_sigma.is_independent(kept + [new]):
                    adjacency[npi + new].append((npi + old, None))

    for v in adjacency:
        adjacency[v].sort(key=lambda arc: (arc[0], -1 if arc[1] is None else arc[1]))

    sources = [i for i in range(npi) if i not in cl_plus]
    sinks = [npi + j for j in range(g.n_sigma) if j not in cl_minus]
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
    exists the matching is maximum.
    """
    matching: frozenset[int] = frozenset()
    history = [matching]
    rounds = 0
    while True:
        state = build_auxiliary_digraph(g, matching)
        arcs = _shortest_path_arcs(state)
        if arcs is None:
            state.augmentations = rounds
            state.history = history
            return state
        flipped = {edge for _, _, edge in arcs if edge is not None}
        matching = matching.symmetric_difference(flipped)
        history.append(matching)
        rounds += 1


@dataclass(frozen=True)
class Cover:
    """Vertex sets meeting every edge; H on the row side, K on the column side."""

    H: frozenset[int]
    K: frozenset[int]


def reachable_from(state: IndependentMatchingState, starts) -> set[int]:
    """Forward reachability in the auxiliary digraph."""
    seen = set(starts)
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w, _ in state.adjacency[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def coreachable_to(state: IndependentMatchingState, targets) -> set[int]:
    """Vertices with a directed path into the target set."""
    back: dict[int, list[int]] = {v: [] for v in state.adjacency}
    for v, arcs in state.adjacency.items():
        for w, _ in arcs:
            back[w].append(v)
    seen = set(targets)
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for u in back[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


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
