"""Maximum independent matching on the stability graph.

The two sides of the graph carry vector matroids: a set of hyperplane
vertices is independent when the normals picked inside each block are
linearly independent.  A matching is independent when its endpoints are
independent in the direct sum of both sides' matroids over all mu + nu
blocks, whose elements are the auxiliary digraph's nodes.  The classic
augmenting scheme applies on that digraph (graph edges oriented left to
right, matched edges reversed as well, plus matroid exchange arcs): find a
shortest source-to-sink path by BFS, flip it, repeat until no path remains.
One ``IndependentMatchingState`` holds the matching and its digraph, and
``flip`` is its only update: one matroid holds the matched nodes as its
selection, so a flip re-eliminates only the blocks it changed.  The state
answers a node's arcs off the graph's edge-end lists when asked, and grows
itself by the first rounds, which flip one edge each, in one greedy pass.
The graph derives those lists and the int normals once, and keeps each
block's last elimination, which a later state on it with the same
selection, such as the verifier's witness state, reads instead.
"""

from __future__ import annotations

import logging
from collections import deque
from collections.abc import Callable, KeysView
from itertools import chain

from .field import Field
from .linalg import extended, span_supports
from .partmat import StabilityGraph, matroid_inputs

_log = logging.getLogger("rank1dm")
_ROUND = "augmentation %d: matching of size %d"


class VectorMatroid:
    """Direct sum over blocks of linear matroids on hyperplane normals,
    holding one selection of its elements, at first the empty one.

    ``circuit[j]`` is ``[]`` for a selected j; for an unselected j in the
    closure of the selection, the selected elements whose normals carry a
    nonzero coefficient when j's normal is written in them, ascending (for
    an independent selection, j's fundamental circuit less j); and None
    outside the closure.  ``holders[i]`` lists, ascending, the elements whose
    circuit holds i, and is ``[]`` for an unselected i.  ``free[blk]`` lists,
    ascending, the members of block blk outside the closure.  Read the three
    lists only: ``select`` rewrites them, and every matroid on the same
    ``inputs`` (``matroid_inputs`` of the elements, derived unless given, as
    a graph's ``nodes`` give them) shares the circuit lists in their memo."""

    def __init__(self, field: Field, elements, block_dims: tuple, inputs=None):
        self.field = field
        self.elements = list(elements)
        self.block_dims = tuple(block_dims)
        self._members, self._ints, self._memo = inputs or matroid_inputs(
            field, self.elements, self.block_dims
        )
        self.circuit: list[list[int] | None] = [None] * len(self.elements)
        self.holders: list[list[int]] = [[] for _ in self.elements]
        self.free = [list(members) for members in self._members]
        self._selected: set[int] = set()
        self._ranks = [0] * len(self.block_dims)

    def select(self, subset) -> int:
        """Hold ``subset`` as the selection and return its rank.  One
        elimination solves the unselected members of each block whose
        selected members changed against the selected ones, ascending, unless
        the inputs' memo holds the block's last one for the same selection;
        every other block keeps its entries.  A member that is not a plain
        int element index raises ValueError before any change."""
        subset = set(subset)
        count = len(self.elements)
        if stray := sorted(repr(i) for i in subset if type(i) is not int or not 0 <= i < count):
            raise ValueError(f"{stray[0]} is not an element")
        changed = {self.elements[i][0] for i in subset ^ self._selected}
        self._selected = subset
        circuit, holders, memo = self.circuit, self.holders, self._memo
        for blk in changed:
            members = self._members[blk]
            ids = [i for i in members if i in subset]
            others = [j for j in members if j not in subset]
            for j in members:
                circuit[j] = [] if j in subset else None
                holders[j] = []
            if (entry := memo.get(blk)) is None or entry[0] != ids:
                basis, rest = [self._ints[i] for i in ids], [self._ints[j] for j in others]
                rank, supports = span_supports(self.field.p, self.block_dims[blk], basis, rest)
                circuits = [None if s is None else [ids[k] for k in s] for s in supports]
                entry = memo[blk] = ids, rank, circuits
            _, self._ranks[blk], circuits = entry
            self.free[blk] = [j for j, c in zip(others, circuits) if c is None]
            for j, c in zip(others, circuits):
                if c is not None:
                    circuit[j] = c
                    for i in c:
                        holders[i].append(j)
        return sum(self._ranks)


class IndependentMatchingState:
    """A matching of a stability graph together with its auxiliary digraph,
    advanced in place by ``flip``.

    Node ids: row-side vertex i is node i, column-side vertex j is node
    n_pi + j, and node v is element v of one matroid whose blocks are the
    row blocks, then the column blocks.  ``arcs(v)`` lists v's out-arcs
    ascending by target, each carrying the graph edge index it corresponds
    to, or None for a matroid exchange arc; ``arcs_into(v)`` lists v's
    in-arcs, each by its tail.  An unmatched vertex outside the closure of
    the matched ones is a source (row side) or a sink (column side); inside
    it, it has an exchange arc with every matched vertex of its fundamental
    circuit.
    """

    def __init__(self, graph: StabilityGraph, matching=()):
        self.graph = graph
        self.matching: frozenset[int] = frozenset()
        npi, dims = graph.n_pi, graph.row_blocks + graph.col_blocks
        elements, ends, inputs = graph.nodes
        self._matroid = VectorMatroid(graph.field, elements, dims, inputs)
        # _mate[v]: a matched v's matched edge as (other end, edge index), like ends[v]
        self._ends = ends
        self._mate: dict[int, list[tuple[int, int]]] = {}
        mate, circuit, holders = self._mate, self._matroid.circuit, self._matroid.holders

        def arcs(v: int) -> list[tuple[int, int | None]]:
            # ascending by target, the order _search reads them: a row-side
            # node's exchange arcs, then its graph edges; a column-side node's
            # reversed matched edge, then its exchange arcs
            if v < npi:
                return [(new, None) for new in holders[v]] + ends[v]
            return mate.get(v, []) + [(old, None) for old in circuit[v] or ()]

        def arcs_into(v: int) -> list[tuple[int, int | None]]:
            if v < npi:
                return mate.get(v, []) + [(old, None) for old in circuit[v] or ()]
            return ends[v] + [(new, None) for new in holders[v]]

        self.arcs, self.arcs_into = arcs, arcs_into
        self.flip(matching)

    def _grow(self) -> list[int]:
        """From the empty matching, flip the edges of the rounds that flip
        one edge each and return them in order.  An unselected row-side node
        holds no circuit, so its out-arcs are its graph edges, and a search
        seeds the sources ascending: a round flips the first source's first
        edge to a sink.  Sources and sinks only shrink, so one scan of the
        row side makes every pick.  A node is a source or a sink while its
        int normal extends its block's rows, the picked normals eliminated."""
        m, ends, p, picks = self._matroid, self._ends, self.graph.field.p, []
        elements, ints = m.elements, m._ints
        echelon: list[list] = [[] for _ in m.block_dims]
        for v in range(self.graph.n_pi):
            if ends[v] and (row := extended(p, echelon[elements[v][0]], ints[v])):
                for w, k in ends[v]:
                    if col := extended(p, echelon[elements[w][0]], ints[w]):
                        picks.append(k)
                        echelon[elements[v][0]], echelon[elements[w][0]] = row, col
                        break
        self.flip(picks)
        return picks

    def flip(self, edges) -> None:
        """Replace the matching by its symmetric difference with ``edges``.
        The matroid re-eliminates only the blocks whose matched nodes
        changed.  Raises ValueError before any change when an edge index is
        not a plain int in range (a negative alias or a bool is not), and
        when the result is not an independent matching, after which the
        state is not to be used."""
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
        if self._matroid.select(mate) != len(mate):
            raise ValueError("matching endpoints are not independent")

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
        return list(chain.from_iterable(self._matroid.free[: len(self.graph.row_blocks)]))

    @property
    def sinks(self) -> list[int]:
        return list(chain.from_iterable(self._matroid.free[len(self.graph.row_blocks) :]))

    @property
    def adjacency(self) -> dict[int, list[tuple[int, int | None]]]:
        """Every node's out-arcs, built on each read: the library calls ``arcs``."""
        return {v: self.arcs(v) for v in range(self.graph.n_pi + self.graph.n_sigma)}


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
    forward = _search(state.arcs, state.sources)[0]
    return set(forward), set(_search(state.arcs_into, state.sinks)[0])


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
        parent, node = _search(state.arcs, state.sources, state.sinks)
        if node is None:
            return state
        path = set()
        while parent[node] is not None:
            node, edge = parent[node]
            if edge is not None:
                path.add(edge)
        state.flip(path)
        _log.debug(_ROUND, state.size, state.size, extra={"matching": state.matching})
