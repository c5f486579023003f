"""Maximum independent matching on the stability graph.

The two sides of the graph carry vector matroids: a set of hyperplane
vertices is independent when the normals picked inside each block are
linearly independent.  A matching is independent when its endpoints are
independent in the direct sum of both sides' matroids over all mu + nu
blocks, whose elements are the auxiliary digraph's nodes.  The classic
augmenting scheme applies on that digraph (graph edges oriented left to
right, matched edges reversed as well, plus matroid exchange arcs): find a
shortest source-to-sink path by BFS, flip it, repeat until no path remains.
One ``IndependentMatchingState`` holds the matching, the fundamental
circuits of its matched nodes and so its digraph, and ``flip`` is its only
update: it re-eliminates only the blocks of the flipped edges' ends.  The
searches read a node's arcs off the state's lists and the graph's edge-end
lists in place, and the state grows itself by the first rounds, which flip
one edge each, in one greedy pass.  The graph derives those lists and the
int normals once, and a memo of eliminations keyed by what they read, the
block's kind (its size and members' int normals) and its matched positions,
which every round and later state, the verifier's witness included, reads.
"""

from __future__ import annotations

import logging
from collections import deque
from collections.abc import KeysView
from itertools import chain

from .linalg import extended, span_supports
from .partmat import StabilityGraph

_log = logging.getLogger("rank1dm")
_ROUND = "augmentation %d: matching of size %d"


class IndependentMatchingState:
    """A matching of a stability graph together with its auxiliary digraph,
    advanced in place by ``flip``.

    Node ids: row-side vertex i is node i, column-side vertex j is node
    n_pi + j, and node v is an element of the direct sum of vector matroids
    over the row blocks, then the column blocks.  ``arcs(v)`` lists v's
    out-arcs ascending by target, each carrying the graph edge index it
    corresponds to, or None for a matroid exchange arc.  An unmatched
    vertex outside the closure of the matched ones is a source (row side)
    or a sink (column side); inside it, it has an exchange arc with every
    matched vertex of its fundamental circuit.

    ``circuit[v]`` is ``[]`` for a matched v; for an unmatched v in the
    closure, the matched nodes of its block whose normals carry a nonzero
    coefficient when v's normal is written in them, ascending (v's
    fundamental circuit less v); and None outside the closure.
    ``holders[u]`` lists, ascending, the nodes whose circuit holds u, and is
    ``[]`` for an unmatched u.  ``free[blk]`` lists, ascending, the members
    of block blk outside the closure.  Read the three lists only: ``flip``
    rewrites them.
    """

    def __init__(self, graph: StabilityGraph, matching=()):
        self.graph = graph
        self.matching: frozenset[int] = frozenset()
        self._blocks, self._ends, self._members, self._ints, self._shelves = graph.nodes
        self.circuit: list[list[int] | None] = [None] * len(self._blocks)
        self.holders: list[list[int]] = [[] for _ in self._blocks]
        self.free = [list(members) for members in self._members]
        # _mate[v]: a matched v's matched edge as (other end, edge index), like ends[v]
        self._mate: dict[int, list[tuple[int, int]]] = {}
        self.flip(matching)

    def _grow(self) -> list[int]:
        """From the empty matching, flip the edges of the rounds that flip
        one edge each and return them in order.  An unmatched row-side node
        holds no circuit, so its out-arcs are its graph edges, and a search
        seeds the sources ascending: a round flips the first source's first
        edge to a sink.  Sources and sinks only shrink, so one scan of the
        row side makes every pick.  A node is a source or a sink while its
        int normal extends its block's echelon of picked normals."""
        blocks, ends, ints, p, picks = self._blocks, self._ends, self._ints, self.graph.field.p, []
        echelon: list[list] = [[] for _ in self._members]
        for v in range(self.graph.n_pi):
            if ends[v] and (row := extended(p, echelon[blocks[v]], ints[v])):
                for w, k in ends[v]:
                    if col := extended(p, echelon[blocks[w]], ints[w]):
                        picks.append(k)
                        echelon[blocks[v]].append(row)
                        echelon[blocks[w]].append(col)
                        break
        self.flip(picks)
        return picks

    def flip(self, edges) -> None:
        """Replace the matching by its symmetric difference with ``edges``,
        then solve, in one elimination per block of a flipped edge's end, the
        block's unmatched members against its matched ones, ascending, unless
        the graph's memo holds that elimination for the block's kind and
        matched positions; every other block keeps its lists.  Raises
        ValueError before any change when an edge index is not a plain int in
        range (a negative alias or a bool is not), and when the result is not
        an independent matching, after which the state is not to be used."""
        edges, mate = frozenset(edges), self._mate
        graph_edges, npi, count = self.graph.edges, self.graph.n_pi, len(self.graph.edges)
        if stray := sorted(repr(k) for k in edges if type(k) is not int or not 0 <= k < count):
            raise ValueError(f"{stray[0]} is not an edge index")
        for k in edges & self.matching:
            e = graph_edges[k]
            del mate[e.pi], mate[npi + e.sigma]
        for k in edges - self.matching:
            e = graph_edges[k]
            if e.pi in mate or npi + e.sigma in mate:
                raise ValueError("edge set is not a matching")
            mate[e.pi], mate[npi + e.sigma] = [(npi + e.sigma, k)], [(e.pi, k)]
        self.matching = self.matching ^ edges
        blocks, circuit, holders, shelves = self._blocks, self.circuit, self.holders, self._shelves
        flipped = [graph_edges[k] for k in edges]
        for blk in {blocks[e.pi] for e in flipped} | {blocks[npi + e.sigma] for e in flipped}:
            members, mask, ids, others = self._members[blk], 0, [], []
            for pos, v in enumerate(members):  # mask: the matched positions
                holders[v] = []
                if v in mate:
                    mask |= 1 << pos
                    ids.append(v)
                    circuit[v] = []
                else:
                    others.append(v)
                    circuit[v] = None
            if (entry := shelves[blk].get(mask)) is None:
                basis, rest = [self._ints[u] for u in ids], [self._ints[v] for v in others]
                dim = len(self._ints[members[0]])  # a normal has its block's length
                rank, supports = span_supports(self.graph.field.p, dim, basis, rest)
                circuits = [None if s is None else [ids[k] for k in s] for s in supports]
                entry = shelves[blk][mask] = rank, circuits, members[0]
            rank, circuits, shift = entry[0], entry[1], members[0] - entry[2]
            if rank < len(ids):
                raise ValueError("matching endpoints are not independent")
            self.free[blk] = [v for v, c in zip(others, circuits) if c is None]
            for v, c in zip(others, circuits):
                if c is not None:
                    circuit[v] = c = [u + shift for u in c] if shift else c
                    for u in c:
                        holders[u].append(v)

    @property
    def size(self) -> int:
        return len(self.matching)

    @property
    def matched(self) -> KeysView[int]:
        """The matched nodes, row-side and column-side alike."""
        return self._mate.keys()

    # vertices are sorted by block first, so the free lists chain ascending
    @property
    def sources(self) -> list[int]:
        return list(chain.from_iterable(self.free[: len(self.graph.row_blocks)]))

    @property
    def sinks(self) -> list[int]:
        return list(chain.from_iterable(self.free[len(self.graph.row_blocks) :]))

    def arcs(self, v: int) -> list[tuple[int, int | None]]:
        """v's out-arcs, ascending by target, the order ``_search`` reads
        them: a row-side node's exchange arcs, then its graph edges; a
        column-side node's reversed matched edge, then its exchange arcs."""
        if v < self.graph.n_pi:
            return [(new, None) for new in self.holders[v]] + self._ends[v]
        return self._mate.get(v, []) + [(old, None) for old in self.circuit[v] or ()]

    @property
    def adjacency(self) -> dict[int, list[tuple[int, int | None]]]:
        """Every node's out-arcs, built on each read; the searches read the lists."""
        return {v: self.arcs(v) for v in range(self.graph.n_pi + self.graph.n_sigma)}


def _search(
    state: IndependentMatchingState, starts, targets=()
) -> tuple[dict[int, tuple[int, int | None] | None], int | None]:
    """Breadth-first search of ``state``'s auxiliary digraph from ``starts``.

    Returns the arc (node, edge) by which each reached node was first
    entered (None for a start) and the first target reached, where the
    search stops, or None after reaching everything it can.  Starts are
    seeded in the given order and a dequeued node's out-arcs are read off
    the state's lists in place, in the order ``arcs`` lists them (a
    column-side node has a matched edge or a circuit, never both), so the
    search, and the shortest path it finds, are deterministic."""
    npi, ends, mate = state.graph.n_pi, state._ends, state._mate
    circuit, holders, targets = state.circuit, state.holders, set(targets)
    parent: dict[int, tuple[int, int | None] | None] = dict.fromkeys(starts)
    queue = deque(parent)
    while queue:
        v = queue.popleft()
        exchange, edges = (holders[v], ends[v]) if v < npi else (circuit[v] or (), mate.get(v, ()))
        for w in exchange:
            if w not in parent:
                parent[w] = (v, None)
                if w in targets:
                    return parent, w
                queue.append(w)
        for w, edge in edges:
            if w not in parent:
                parent[w] = (v, edge)
                if w in targets:
                    return parent, w
                queue.append(w)
    return parent, None


def reachability_sets(state: IndependentMatchingState) -> tuple[set[int], set[int]]:
    """C0 = nodes reachable from the source set, Cinf = nodes that reach the
    sink set, both in the auxiliary digraph of a maximum matching.  Cinf is
    walked back along the lists ``_search`` reads: a row-side node is entered
    by its matched edge or from its circuit, a column-side node by its graph
    edges and from its holders."""
    npi, ends, mate = state.graph.n_pi, state._ends, state._mate
    circuit, holders, cinf = state.circuit, state.holders, set(state.sinks)
    stack = list(cinf)
    while stack:
        v = stack.pop()
        edges, exchange = (mate.get(v, ()), circuit[v] or ()) if v < npi else (ends[v], holders[v])
        for w in chain((w for w, _ in edges), exchange):
            if w not in cinf:
                cinf.add(w)
                stack.append(w)
    return set(_search(state, state.sources)[0]), cinf


def max_independent_matching(g: StabilityGraph) -> IndependentMatchingState:
    """Run the augmenting-path algorithm from the empty matching.

    Each round flips the graph edges used by a shortest path between the
    source set and the sink set, growing the matching by one; when no path
    exists the matching is maximum.  The state grows itself by the first
    rounds, which flip one edge each, in one pass, and the search goes on
    from there.  Every round, those included, emits a DEBUG record on the
    ``rank1dm`` logger whose ``matching`` attribute holds the new
    matching's edge indices; round n's matching has n edges.
    """
    state = IndependentMatchingState(g)
    picks = state._grow()
    for n in range(1, len(picks) + 1) if _log.isEnabledFor(logging.DEBUG) else ():
        _log.debug(_ROUND, n, n, extra={"matching": frozenset(picks[:n])})
    while True:
        parent, node = _search(state, state.sources, state.sinks)
        if node is None:
            return state
        path = set()
        while parent[node] is not None:
            node, edge = parent[node]
            if edge is not None:
                path.add(edge)
        state.flip(path)
        _log.debug(_ROUND, state.size, state.size, extra={"matching": state.matching})
