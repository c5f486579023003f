"""Block-triangular decomposition driven by a maximum independent matching.

Pipeline: from the maximum matching's auxiliary digraph, take the vertices
reachable from the sources (C0) and co-reachable to the sinks (Cinf), delete
them, and decompose the rest into strongly connected components.  Components
containing matched vertices form a poset whose ideals parameterize all
maximum stable subspaces.  Bases adapted to a linear extension of the poset
give E and F with E^T A F block-triangular; the trailing columns of E and
the leading ones of F span the maximal chain its prefix ideals yield.  The
verifier reads A's factors, graph and eliminations, derived once per matrix,
rebuilds the digraph from the matching witness, reads h, the poset's component
count A's graph records for that matching, or derives and records it, and
requires one diagonal block per component: it certifies that chain to be maximal.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from heapq import heappop, heappush
from itertools import accumulate, chain
from operator import lt
from typing import Callable, Iterable, NamedTuple, Sequence

from .field import Field
from .linalg import Matrix, _gauss_jordan, reduced
from .matching import (
    IndependentMatchingState,
    max_independent_matching,
    reachability_sets,
)
from .partmat import (
    HyperplaneVertex,
    PartitionedMatrix,
    RankConditionViolated,
    StabilityGraph,
    build_stability_graph,
    column_parts,
    product_matches,
)


def _tarjan_scc(nodes: Sequence[int], adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """Iterative Tarjan from the roots ``nodes``, ``adj[v]`` the successors of
    node v; components come out in reverse topological order.  ``index``
    and ``low`` are lists by node, -1 marking a node not yet visited, and
    the nodes of an emitted component get index len(adj), past every other
    index, so no low link reads them."""
    done = len(adj)
    index, low = [-1] * done, [0] * done
    stack: list[int] = []
    sccs: list[list[int]] = []
    count = 0
    for root in nodes:
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work: list[tuple[int, Iterable[int]]] = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if (i := index[w]) < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if i < low[v]:
                    low[v] = i
            else:
                work.pop()
                if work and low[v] < low[pv := work[-1][0]]:
                    low[pv] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = done
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(comp)
    return sccs


class PosetComponent(NamedTuple):
    """One strongly connected component carrying matched vertices, given by them."""

    label: int
    h_pi: tuple[int, ...]
    k_sigma: tuple[int, ...]


class _Poset(NamedTuple):
    state: IndependentMatchingState
    c0: frozenset[int]
    cinf: frozenset[int]
    components: list[PosetComponent]
    relations: frozenset[tuple[int, int]]
    h0: tuple[int, ...]
    k0: tuple[int, ...]
    hinf: tuple[int, ...]
    kinf: tuple[int, ...]


class ChainPoset(_Poset):
    """The component poset plus the boundary groups H0/K0 and Hinf/Kinf; a
    subclass of its fields' NamedTuple, whose ``__dict__`` caches ``adapted_bases``."""

    @property
    def h(self) -> int:
        return len(self.components)

    def is_ideal(self, j: Iterable[int]) -> bool:
        j = set(j)
        if not j <= set(range(1, self.h + 1)):
            return False
        return all(k in j for k, l in self.relations if l in j)

    def ideals(self) -> list[frozenset[int]]:
        """All ideals, smallest first (by size, then sorted content).  Labels
        are a linear extension, so the ideals within 1..l are those within
        1..l-1 and each of them joined with l if it holds all below l."""
        below: dict[int, set[int]] = {l: set() for l in range(1, self.h + 1)}
        for k, l in self.relations:
            below[l].add(k)
        out = [frozenset()]
        for l, ks in below.items():
            out += [j | {l} for j in out if ks <= j]
        out.sort(key=lambda j: (len(j), sorted(j)))
        return out

    @cached_property
    def adapted_bases(self) -> tuple[list[BasisEntry], list[BasisEntry]]:
        """Row-side and column-side bases adapted to the chain, built once
        per poset and shared by E, F and every ideal's stable subspace.

        Groups run bottom (H0/K0), the components in label order, top
        (Hinf/Kinf); completion vectors join the bottom group on the row
        side and the top group on the column side."""
        g, top, memo = self.state.graph, self.h + 1, {}  # one memo for both sides
        rows = [(0, self.h0), *((c.label, c.h_pi) for c in self.components), (top, self.hinf)]
        cols = [(0, self.k0), *((c.label, c.k_sigma) for c in self.components), (top, self.kinf)]
        return (
            _adapted_basis(g.field, g.pi, g.row_blocks, rows, 0, g.nodes[3], memo),
            _adapted_basis(g.field, g.sigma, g.col_blocks, cols, top, g.nodes[3][g.n_pi :], memo),
        )


def _matched_vertices(
    state: IndependentMatchingState, nodes: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The matched row-side vertices among ``nodes`` and the matched
    column-side ones as column-side indices, each sorted."""
    npi, matched = state.graph.n_pi, state.matched
    ends = sorted(v for v in nodes if v in matched)
    return tuple(v for v in ends if v < npi), tuple(v - npi for v in ends if v >= npi)


def _labels(below: dict[int, set[int]], key: dict[int, int]) -> dict[int, int]:
    """Labels 1, 2, ... for the keys of ``below``, each to the one of smallest distinct
    ``key`` whose below set is all labeled: Kahn's order on a heap (a sorted list is one)."""
    above, waiting = {c: [] for c in below}, {c: len(under) for c, under in below.items()}
    for c, under in below.items():
        for k in under:
            above[k].append(c)
    ready, label_of = sorted([(key[c], c) for c, n in waiting.items() if not n]), {}
    while ready:
        label_of[c := heappop(ready)[1]] = len(label_of) + 1
        for up in above[c]:
            waiting[up] -= 1
            if not waiting[up]:
                heappush(ready, (key[up], up))
    return label_of


def scc_poset(
    state: IndependentMatchingState, c0: set[int], cinf: set[int]
) -> ChainPoset:
    """Condense the pruned auxiliary digraph and order the matched components.

    k is below l when a directed path runs from component l to component k;
    labels are a linear extension of that order, chosen deterministically by
    the smallest column-side vertex of each component's matched set.
    """
    if c0 & cinf:
        raise ValueError("C0 and Cinf intersect: the matching is not maximum")
    removed, npi = c0 | cinf, state.graph.n_pi
    ends, mate, circuit, holders = state._ends, state._mate, state.circuit, state.holders
    nodes = [v for v in range(npi + state.graph.n_sigma) if v not in removed]
    # each kept node's kept successors, in the order _search reads them
    adj: list[list[int]] = [[] for _ in range(npi + state.graph.n_sigma)]
    for v in nodes:
        edges, exchange = (ends[v], holders[v]) if v < npi else (mate.get(v, ()), circuit[v] or ())
        adj[v] = [w for w in exchange if w not in removed]
        adj[v] += [w for w, _ in edges if w not in removed]

    # Tarjan emits each component after all it reaches, so one pass finds the
    # matched components below each one, also through unmatched components
    comp_of = [0] * len(adj)
    reach: list[set[int]] = []  # matched components reachable, itself included
    below: dict[int, set[int]] = {}  # keyed by matched component
    parts: dict[int, tuple] = {}
    for i, scc in enumerate(_tarjan_scc(nodes, adj)):
        for v in scc:
            comp_of[v] = i
        under = set().union(*(reach[comp_of[w]] for v in scc for w in adj[v] if comp_of[w] != i))
        h_pi, k_sigma = _matched_vertices(state, scc)
        if h_pi or k_sigma:
            if len(h_pi) != len(k_sigma):
                raise AssertionError("matched pairs split across components")
            below[i], parts[i] = under, (h_pi, k_sigma)
        reach.append(under | {i} if i in below else under)

    label_of = _labels(below, {c: ks[0] for c, (_, ks) in parts.items()}) if below else {}
    return ChainPoset(
        state,
        frozenset(c0),
        frozenset(cinf),
        [PosetComponent(l, *parts[c]) for c, l in label_of.items()],
        frozenset((label_of[k], l) for c, l in label_of.items() for k in below[c]),
        *_matched_vertices(state, c0),  # h0, k0
        *_matched_vertices(state, cinf),  # hinf, kinf
    )


class StableSubspace(NamedTuple):
    """Block-respecting subspace pair given by per-block column bases."""

    x_bases: tuple[tuple[tuple, ...], ...]
    y_bases: tuple[tuple[tuple, ...], ...]

    @property
    def dim_x(self) -> int:
        return sum(len(b) for b in self.x_bases)

    @property
    def dim_y(self) -> int:
        return sum(len(b) for b in self.y_bases)


def ideal_to_stable_subspace(j: Iterable[int], poset: ChainPoset) -> StableSubspace:
    """Map an ideal of the component poset to its maximum stable subspace.

    The row-side space, cut out by Hinf and the components above the ideal,
    is spanned by the duals of the bottom group and the ideal; the
    column-side space, cut out by K0 and the components inside the ideal,
    by the duals of the other groups.
    """
    j = frozenset(j)
    if not poset.is_ideal(j):
        raise ValueError(f"{sorted(j)} is not an ideal of the poset")
    rows, cols = poset.adapted_bases
    graph = poset.state.graph
    below = j | {0}
    return StableSubspace(
        _select(rows, len(graph.row_blocks), lambda group: group in below),
        _select(cols, len(graph.col_blocks), lambda group: group not in below),
    )


def maximal_chain(poset: ChainPoset, g: StabilityGraph) -> list[StableSubspace]:
    """The chain of stable subspaces for the prefix ideals {}, {1}, ..., {1..h}.

    ``g`` is not read; the frozen benchmark replay still passes it."""
    return [
        ideal_to_stable_subspace(range(1, k + 1), poset)
        for k in range(poset.h + 1)
    ]


class BasisEntry(NamedTuple):
    """One basis vector of a block: a matched vertex's normal or a
    completion vector, with its dual.

    ``group`` runs 0 (bottom), 1..h (components), h+1 (top).  The dual pairs
    to one with the entry's normal and to zero with the other normals of its
    block, so the duals of any set of entries span the subspace cut out by
    the normals of the rest of the block."""

    group: int
    block: int
    normal: tuple
    dual: tuple


def _adapted_basis(
    f: Field,
    vertices: Sequence[HyperplaneVertex],
    dims: Sequence[int],
    groups: Iterable[tuple[int, Sequence[int]]],
    completion_group: int,
    ints: Sequence[tuple],
    memo: dict,
) -> list[BasisEntry]:
    """Entries for the matched vertices group by group, completed per block
    by unit vectors that follow the matched entries of ``completion_group``.

    One reduction per block of [N | I], N its normals as columns, gives
    [PN | P], only P as carriers, P the inverse of the completed basis: the
    identity columns taking a pivot are the greedy completion, and row k of
    P is the dual of the k-th basis vector (the normals, then the completion).
    ``memo`` keeps P by the block's size and its normals' int forms, in order
    (``ints[i]`` is vertex i's), for every block of either side with that key."""
    by_block: list[list[tuple]] = [[] for _ in dims]  # (group, normal, int normal)
    for group, ids in groups:
        for i in ids:
            by_block[vertices[i].block].append((group, vertices[i].normal, ints[i]))
    matched, completion = [], []
    for blk, (dim, normals) in enumerate(zip(dims, by_block)):
        p, units = len(normals), _units(dim)
        if (inverse := memo.get(key := (dim, *[x for _, _, x in normals]))) is None:
            rows, pivots = reduced(f, [[u[r] for _, u, _ in normals] + [*units[r]]
                                       for r in range(dim)], p)
            if pivots[:p] != list(range(p)):
                raise ValueError(f"the normals of block {blk} are linearly dependent")
            duals = list(map(tuple, rows))
            inverse = memo[key] = duals, list(zip(pivots[p:], duals[p:]))
        matched += [BasisEntry(group, blk, u, d) for (group, u, _), d in zip(normals, inverse[0])]
        completion += [BasisEntry(completion_group, blk, units[c - p], d) for c, d in inverse[1]]
    # ids ascend within a group and vertices by block, so the stable sort keeps id order
    return sorted(matched + completion, key=lambda e: e.group)


@lru_cache(maxsize=None)
def _units(dim: int) -> tuple[tuple[int, ...], ...]:
    """The unit vectors of a block space of size ``dim`` (0 and 1 are carriers of every field)."""
    return tuple(tuple(int(r == c) for c in range(dim)) for r in range(dim))


def _select(
    entries: list[BasisEntry], blocks: int, keep: Callable[[int], bool]
) -> tuple[tuple[tuple, ...], ...]:
    """Per block, the duals of the entries whose group passes ``keep``."""
    bases: list[list[tuple]] = [[] for _ in range(blocks)]
    for e in entries:
        if keep(e.group):
            bases[e.block].append(e.dual)
    return tuple(tuple(b) for b in bases)


def _scatter(f: Field, entries: list[BasisEntry], offsets: Sequence[int], size: int) -> Matrix:
    """The duals in global coordinates: the dual of the i-th entry becomes
    column size-1-i (reverse chain order), and only its nonzeros are written."""
    m = Matrix.zeros(f, size, size)
    for col, e in enumerate(reversed(entries)):
        for r, x in enumerate(e.dual, start=offsets[e.block]):
            if x:
                m.indices[r].append(col)
                m.values[r].append(x)
    return m


def _group_sizes(entries: list[BasisEntry], count: int) -> list[int]:
    sizes = [0] * count
    for e in entries:
        sizes[e.group] += 1
    return sizes


class BasisAssembly(NamedTuple):
    """Basis entries in chain order and the matrices E and F of their duals."""

    h_entries: list[BasisEntry]
    k_entries: list[BasisEntry]
    E: Matrix
    F: Matrix
    h_group_sizes: list[int]
    k_group_sizes: list[int]


def build_bases(
    poset: ChainPoset, g: StabilityGraph, a: PartitionedMatrix
) -> BasisAssembly:
    """Scatter the poset's adapted bases into the transformation matrices E
    and F."""
    rows, cols = poset.adapted_bases
    n = a.matrix.rows
    m = a.matrix.cols
    if len(rows) != n or len(cols) != m:
        raise AssertionError("basis entry counts disagree with the matrix shape")
    return BasisAssembly(
        h_entries=rows,
        k_entries=cols,
        E=_scatter(g.field, rows, a.row_offsets, n),
        F=_scatter(g.field, cols, a.col_offsets, m),
        h_group_sizes=_group_sizes(rows, poset.h + 2),
        k_group_sizes=_group_sizes(cols, poset.h + 2),
    )


class DMResult(NamedTuple):
    """Everything the decomposition produces."""

    row_blocks: tuple[int, ...]
    col_blocks: tuple[int, ...]
    E: Matrix
    F: Matrix
    a_dm: Matrix
    diag_blocks: list[tuple[int, int]]
    chain_dims: list[tuple[int, int]]
    matching_size: int
    v_star: int
    graph: StabilityGraph | None = None
    state: IndependentMatchingState | None = None
    poset: ChainPoset | None = None
    # only the frozen benchmark replay sets it and nothing reads it;
    # ROADMAP item 1 removes it with the replay's call
    chain: list[StableSubspace] | None = None
    assembly: BasisAssembly | None = None


def dm_decompose(a: PartitionedMatrix) -> DMResult:
    """Full pipeline: stability graph, maximum independent matching,
    reachability pruning, component poset, chain bases, E^T A F."""
    g = build_stability_graph(a)
    state = max_independent_matching(g)
    c0, cinf = reachability_sets(state)
    poset = scc_poset(state, c0, cinf)
    g.heights[state.matching] = poset.h  # the verifier's chain check reads it
    assembly = build_bases(poset, g, a)
    a_dm = a.transform(assembly.E, assembly.F)

    # groups top, h, ..., 1, bottom; scc_poset keeps each component square
    diag_blocks = list(zip(assembly.h_group_sizes, assembly.k_group_sizes))[::-1]
    n, m = a.matrix.rows, a.matrix.cols
    size = state.size
    return DMResult(
        row_blocks=a.row_blocks,
        col_blocks=a.col_blocks,
        E=assembly.E,
        F=assembly.F,
        a_dm=a_dm,
        diag_blocks=diag_blocks,
        chain_dims=_chain_dims(diag_blocks, m),
        matching_size=size,
        v_star=n + m - size,
        graph=g,
        state=state,
        poset=poset,
        assembly=assembly,
    )


def _chain_dims(diag_blocks: Sequence[tuple[int, int]], m: int) -> list[tuple[int, int]]:
    """Chain element k spans the rows of the last k+1 diagonal blocks and
    leaves m minus their columns."""
    bottom_up = diag_blocks[:0:-1]
    rows = accumulate(r for r, _ in bottom_up)
    cols = accumulate(c for _, c in bottom_up)
    return [(i, m - j) for i, j in zip(rows, cols)]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class VerificationReport(NamedTuple):
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __str__(self):
        return "\n".join(
            f"{'PASS' if c.passed else 'FAIL'} {c.name}"
            + (f": {c.detail}" if c.detail else "")
            for c in self.checks
        )


def _partition_problem(side: str, got, want: tuple[int, ...]) -> str:
    """Why the result's block sizes on one side are not A's as plain ints, or ""."""
    ok = got == want and all(type(x) is int for x in got)
    return "" if ok else f"{side} blocks {got!r} are not A's {want!r}"


def _form_problem(name: str, mat: Matrix, rows: int, cols: int, f: Field) -> str:
    """Why ``mat``, ``name`` in the reason, is not a rows x cols Matrix over
    f storing each row as a list of ascending int column indices in range
    and one of as many nonzero carriers of f, or "", read off those lists."""
    if not isinstance(mat, Matrix):
        return f"{name} is not a Matrix"
    # a float shape compares like an int, yet it is not one
    shape = (type(mat.rows), type(mat.cols), mat.rows, mat.cols, mat.field)
    if shape != (int, int, rows, cols, f):
        return f"{name} is {mat.rows}x{mat.cols} over {mat.field}, wants {rows}x{cols} over {f}"
    idx, vals = mat.indices, mat.values
    if not (type(idx) is type(vals) is list and len(idx) == len(vals) == rows
            and {*map(type, idx), *map(type, vals)} <= {list}):
        return f"{name} does not store {rows} rows as lists of indices and of values"
    if list(map(len, idx)) != list(map(len, vals)):
        i = next(i for i, (js, xs) in enumerate(zip(idx, vals)) if len(js) != len(xs))
        return f"{name}'s row {i} has {len(idx[i])} column indices and {len(vals[i])} values"
    # each entry's row-major position, -1 at an index not an int in range (or a bool)
    keys = [i * cols + j if type(j) is int and 0 <= j < cols else -1
            for i, row in enumerate(idx) for j in row]
    if -1 in keys:
        j = next(j for row in idx for j in row if type(j) is not int or not 0 <= j < cols)
        return f"{name} stores column index {j!r}, not an int in [0, {cols})"
    if not all(map(lt, keys, keys[1:])):
        k = next(k for k in range(1, len(keys)) if keys[k] <= keys[k - 1])
        return f"{name}'s column indices do not ascend in row {keys[k] // cols}"
    xs = list(chain.from_iterable(vals))
    if f.carries(xs) and all(xs):  # 0 is the false carrier
        return ""
    k = next(k for k, x in enumerate(xs) if not (f.carries([x]) and x))
    why = "a stored zero" if f.carries(xs[k : k + 1]) else f"not a value of {f}"
    return f"{name} holds {xs[k]!r} at {divmod(keys[k], cols)}, {why}"


def _admissibility_problem(name: str, parts, blocks: tuple[int, ...], f: Field) -> str:
    """Why the matrix ``name``, sliced into ``parts`` by ``column_parts`` on
    the partition ``blocks``, is not blockdiag(nonsingular) times a
    permutation, or "": each column lies inside one block, each block holds
    as many columns as its size, and their ints' square submatrix is nonsingular."""
    hits = Counter(col for _, part in parts for col, _ in part)
    for col in range(sum(blocks)):
        if col not in hits:
            return f"{name}: column {col} is zero"
        if hits[col] > 1:
            return f"{name}: column {col} crosses block boundaries"
    for blk, (_, part) in enumerate(parts):
        if len(part) != blocks[blk]:
            return f"{name}: block {blk} has {len(part)} columns, wants {blocks[blk]}"
        # the square submatrix's transpose on ints: one row per column of the block
        if len(_gauss_jordan([x for _, x in part], blocks[blk], f.p)) != blocks[blk]:
            return f"{name}: block {blk} columns are singular"
    return ""


def _malformed_pairs(pairs, name: str) -> str:
    """Why ``pairs``, ``name``s (the diagonal blocks or the chain dims), are
    not a non-empty list of pairs of plain ints, or ""."""
    if not isinstance(pairs, (list, tuple)) or not pairs:
        return f"{name}s are empty or not a list"
    for k, b in enumerate(pairs):
        if not isinstance(b, (list, tuple)) or len(b) != 2 or not all(type(x) is int for x in b):
            return f"{name} {k} is {b!r}, not a pair of integers"
    return ""


def _staircase_problem(a_dm: Matrix, blocks, n: int, m: int) -> str:
    """Why the declared diagonal blocks do not put a zero staircase under
    A_dm, a well-formed n x m matrix, or "": each row's first stored index.  The
    middle blocks D_h .. D_1 are square and not empty: each holds at least
    one matched pair."""
    if any(r < 0 or c < 0 for r, c in blocks):
        return "a diagonal block has a negative size"
    for k, (r, c) in enumerate(blocks[1:-1], start=1):
        if r != c:
            return f"middle diagonal block {k} is {r}x{c}, not square"
        if not r:
            return f"middle diagonal block {k} is empty"
    if sum(r for r, _ in blocks) != n or sum(c for _, c in blocks) != m:
        return "diagonal block sizes do not tile the matrix"
    # row group gr's entries below the staircase are its columns [0, col_starts[gr])
    row_starts = list(accumulate((r for r, _ in blocks), initial=0))
    col_starts = list(accumulate((c for _, c in blocks), initial=0))
    for gr in range(1, len(blocks)):
        for i in range(row_starts[gr], row_starts[gr + 1]):
            if (idx := a_dm.indices[i]) and idx[0] < col_starts[gr]:
                return f"nonzero entry below the staircase at ({i}, {idx[0]})"
    return ""


def _witness_state(
    a: PartitionedMatrix, result: DMResult
) -> tuple[IndependentMatchingState | None, str]:
    """The auxiliary digraph of the witness matching on A's own stability
    graph, which the result's graph must equal, or None and the reason.
    Building it proves the matching independent and each of its edge
    indices a plain int in range.  A satisfies the rank condition."""
    if result.graph is None or result.state is None:
        return None, "no matching witness attached"
    g = build_stability_graph(a)
    try:
        if result.graph != g:
            return None, "the witness graph is not A's stability graph"
        return IndependentMatchingState(g, result.state.matching), ""
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        return None, f"malformed matching witness: {exc}"


def _chain_problem(state: IndependentMatchingState, result: DMResult, m: int) -> str:
    """Why the diagonal blocks are not the finest block triangularization, or "".  By
    the structure theorem every maximal chain of maximum stable subspaces has h + 1
    elements, h the number of components of the witness's poset (not its height: three
    incomparable components give chains of 4); given the other checks, E's and F's
    columns span a chain of h + 1 of them when there are h middle blocks, so that chain
    is maximal.  The chain dims must be that chain's.  h is A's graph's record for the
    witness state's own matching, or is derived and recorded; a non-maximum one records none."""
    dims, blocks = result.chain_dims, result.diag_blocks
    if why := _malformed_pairs(dims, "chain dim"):
        return why
    if list(map(tuple, dims)) != _chain_dims(blocks, m):
        return "chain dims disagree with the diagonal blocks"
    heights, key = state.graph.heights, state.matching
    if (h := heights.get(key)) is None:
        try:
            h = heights[key] = scc_poset(state, *reachability_sets(state)).h
        except ValueError as exc:
            return str(exc)
    if len(blocks) != h + 2:
        return f"{len(blocks) - 2} middle diagonal blocks for a poset of {h} components"
    return ""


def _duality_problem(state: IndependentMatchingState, result: DMResult, n: int, m: int) -> str:
    """Why v* = n + m - |M| is not certified, or "".

    Upper bound: the witness is an independent matching of A's stability
    graph.  Lower bound: given product, admissibility and staircase, the
    columns r.. of E and ..c-1 of F, (r, c) the first diagonal block, form
    a stable pair."""
    r, c = result.diag_blocks[0]
    size, v_star = result.matching_size, result.v_star
    if not (type(size) is type(v_star) is int and size == state.size
            and v_star == n + m - size == n - r + c):
        return (
            f"|M| is {size!r} and v* {v_star!r}, but the witness has {state.size} matched"
            f" edges and the first diagonal block spans a stable pair of dimension {n - r + c}"
        )
    return ""


def verify(a: PartitionedMatrix, result: DMResult) -> VerificationReport:
    """Re-check a decomposition from first principles.

    (a) the product identity, A_dm against the terms of E^T A F, (b)
    admissibility of E and F for A's partition, which the result must
    restate, (c) the zero staircase under the declared diagonal blocks,
    whose sizes are nonnegative and whose middle blocks are non-empty
    squares, (d) the finest decomposition: the chain dims are the diagonal
    blocks', and there is one middle block per component of the poset of A
    and the matching witness, h read from A's graph for the witness's
    matching or derived and recorded there, (e) v* = n + m - |M|, bounded
    above by the witness, an independent matching of A's own stability
    graph, and below by the first diagonal block.  The rank condition (the
    form of A when it fails to factor), the form of each of E, F and A_dm (a
    Matrix of A's shape and field storing only nonzero carriers) and that of
    the diagonal blocks are each judged once, and every check that reads them
    reports that verdict.  (d) and (e) read one auxiliary digraph, built on
    A's graph from the witness matching, which reads the graph's memo of
    eliminations keyed by block kind and matched positions; A's factors and
    graph are derived once per matrix.
    """
    checks: list[CheckResult] = []
    n, m = a.matrix.rows, a.matrix.cols
    e_form = _form_problem("E", result.E, n, n, a.field)
    f_form = _form_problem("F", result.F, m, m, a.field)
    a_dm_form = _form_problem("A_dm", result.a_dm, n, m, a.field)
    # each of E and F is sliced into int column parts once, for product and admissible
    e_parts = None if e_form else column_parts(result.E, a.row_offsets)
    f_parts = None if f_form else column_parts(result.F, a.col_offsets)
    rank = ""
    try:
        a.factors  # noqa: B018  (the rank condition, decided once)
    except RankConditionViolated as exc:
        rank = f"A has {exc}"
    except (ArithmeticError, AttributeError, LookupError, TypeError, ValueError):
        # a malformed A fails to factor; a well-formed one that does is a library fault
        if not (rank := _form_problem("A", a.matrix, n, m, a.field)):
            raise

    if why := "; ".join(filter(None, (e_form, f_form, a_dm_form))) or rank:
        checks.append(CheckResult("product", False, why))
    else:
        matches = product_matches(a, e_parts, f_parts, result.a_dm)
        checks.append(CheckResult("product", matches, "A_dm == E^T A F"))

    why = "; ".join(filter(None, (
        _partition_problem("row", result.row_blocks, a.row_blocks),
        _partition_problem("column", result.col_blocks, a.col_blocks),
        e_form or _admissibility_problem("E", e_parts, a.row_blocks, a.field),
        f_form or _admissibility_problem("F", f_parts, a.col_blocks, a.field),
    )))
    checks.append(
        CheckResult("admissible", not why, why or "E, F block-diagonal times permutation")
    )

    malformed = _malformed_pairs(result.diag_blocks, "diagonal block")
    detail = a_dm_form or malformed or _staircase_problem(result.a_dm, result.diag_blocks, n, m)
    checks.append(CheckResult("staircase", not detail, detail))

    state, missing = (None, rank) if rank else _witness_state(a, result)
    detail = missing or malformed or _chain_problem(state, result, m)
    checks.append(CheckResult("chain", not detail, detail))

    detail = missing or malformed or _duality_problem(state, result, n, m)
    checks.append(CheckResult("duality", not detail, detail or "v* == n + m - |M|"))
    return VerificationReport(checks)
