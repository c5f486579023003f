"""Block-triangular decomposition driven by a maximum independent matching.

Pipeline: from the maximum matching's auxiliary digraph, take the vertices
reachable from the sources (C0) and co-reachable to the sinks (Cinf), delete
them, and decompose the rest into strongly connected components.  Components
containing matched vertices form a poset whose ideals parameterize all
maximum stable subspaces.  Bases adapted to a linear extension of the poset
give transformation matrices E and F with E^T A F in block-triangular form;
the maximal chain its prefix ideals yield is spanned by the trailing columns
of E and the leading columns of F.  The verifier rebuilds the poset from A
and the matching witness and requires one diagonal block per component, so
it certifies that chain, and no stored copy of it, to be maximal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterable, Sequence

from .field import Field
from .linalg import Matrix, Vector, rref
from .matching import (
    IndependentMatchingState,
    build_auxiliary_digraph,
    max_independent_matching,
    reachability_sets,
)
from .partmat import (
    HyperplaneVertex,
    PartitionedMatrix,
    RankConditionViolated,
    StabilityGraph,
    build_stability_graph,
    col_vertex_label,
    column_parts,
    row_vertex_label,
)


def _tarjan_scc(nodes: Sequence[int], adj: dict[int, list[int]]) -> list[list[int]]:
    """Iterative Tarjan; components come out in reverse topological order."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    onstack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work: list[tuple[int, Iterable[int]]] = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            descended = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(adj[w])))
                    descended = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


@dataclass(frozen=True)
class PosetComponent:
    """One strongly connected component carrying matched vertices."""

    label: int
    h_pi: tuple[int, ...]
    k_sigma: tuple[int, ...]
    nodes: frozenset[int]


@dataclass
class ChainPoset:
    """The component poset plus the boundary groups H0/K0 and Hinf/Kinf."""

    state: IndependentMatchingState
    c0: frozenset[int]
    cinf: frozenset[int]
    components: list[PosetComponent]
    relations: frozenset[tuple[int, int]]
    h0: tuple[int, ...]
    k0: tuple[int, ...]
    hinf: tuple[int, ...]
    kinf: tuple[int, ...]

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
        g = self.state.graph
        top = self.h + 1
        rows = [(0, self.h0), *((c.label, c.h_pi) for c in self.components), (top, self.hinf)]
        cols = [(0, self.k0), *((c.label, c.k_sigma) for c in self.components), (top, self.kinf)]
        return (
            _adapted_basis(g.field, g.pi, g.row_blocks, rows, 0),
            _adapted_basis(g.field, g.sigma, g.col_blocks, cols, top),
        )


def _matched_vertices(
    state: IndependentMatchingState, nodes: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The matched row-side vertices among ``nodes`` and the matched
    column-side ones as column-side indices, each sorted."""
    npi = state.graph.n_pi
    h = tuple(sorted(v for v in nodes if v in state.matched_pi))
    return h, tuple(sorted(v - npi for v in nodes if v - npi in state.matched_sigma))


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
    removed = c0 | cinf
    nodes = [v for v in range(state.graph.n_pi + state.graph.n_sigma) if v not in removed]
    adj = {v: [w for w, _ in state.adjacency[v] if w not in removed] for v in nodes}

    # Tarjan emits each component after all it reaches, so one pass finds the
    # matched components below each one, also through unmatched components
    comp_of: dict[int, int] = {}
    reach: list[set[int]] = []  # matched components reachable, itself included
    below: dict[int, set[int]] = {}  # keyed by matched component
    parts: dict[int, tuple] = {}
    for i, scc in enumerate(_tarjan_scc(nodes, adj)):
        comp_of.update((v, i) for v in scc)
        under = set().union(*(reach[comp_of[w]] for v in scc for w in adj[v] if comp_of[w] != i))
        h_pi, k_sigma = _matched_vertices(state, scc)
        if h_pi or k_sigma:
            if len(h_pi) != len(k_sigma):
                raise AssertionError("matched pairs split across components")
            below[i], parts[i] = under, (h_pi, k_sigma, frozenset(scc))
        reach.append(under | {i} if i in below else under)

    label_of: dict[int, int] = {}
    pending = sorted(below, key=lambda c: parts[c][1][0])
    while pending:
        pick = next(c for c in pending if below[c] <= label_of.keys())
        pending.remove(pick)
        label_of[pick] = len(label_of) + 1
    return ChainPoset(
        state,
        frozenset(c0),
        frozenset(cinf),
        [PosetComponent(l, *parts[c]) for c, l in label_of.items()],
        frozenset((label_of[k], l) for c, l in label_of.items() for k in below[c]),
        *_matched_vertices(state, c0),  # h0, k0
        *_matched_vertices(state, cinf),  # hinf, kinf
    )


@dataclass(frozen=True)
class StableSubspace:
    """Block-respecting subspace pair given by per-block column bases."""

    x_bases: tuple[tuple[Vector, ...], ...]
    y_bases: tuple[tuple[Vector, ...], ...]

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


@dataclass(frozen=True)
class BasisEntry:
    """One basis vector of a block: a matched vertex's normal or a
    completion vector, with its dual.

    ``group`` runs 0 (bottom), 1..h (components), h+1 (top).  The dual pairs
    to one with the entry's normal and to zero with the other normals of its
    block, so the duals of any set of entries span the subspace cut out by
    the normals of the rest of the block."""

    group: int
    block: int
    normal: Vector
    dual: Vector


def _adapted_basis(
    f: Field,
    vertices: Sequence[HyperplaneVertex],
    dims: Sequence[int],
    groups: Iterable[tuple[int, Sequence[int]]],
    completion_group: int,
) -> list[BasisEntry]:
    """Entries for the matched vertices group by group, completed per block
    by unit vectors that follow the matched entries of ``completion_group``.

    One rref per block of [N | I], N its normals as columns, gives [PN | P]
    with P the inverse of the completed basis: the identity columns taking a
    pivot are the greedy completion, and row k of P is the dual of the k-th
    basis vector (the normals, then the completion)."""
    normals = [
        (group, vertices[i].block, vertices[i].normal)
        for group, ids in groups
        for i in ids
    ]
    duals, completion = [], []
    for blk, dim in enumerate(dims):
        present = [u for _, b, u in normals if b == blk]
        p = len(present)
        eye = Matrix.identity(f, dim)
        red = rref(Matrix(f, dim, p + dim, [
            x for r in range(dim) for x in [u.data[r] for u in present] + eye.row_raw(r)
        ]))
        if red.pivots[:p] != list(range(p)):
            raise ValueError(f"the normals of block {blk} are linearly dependent")
        inverse = [Vector(f, red.R.row_raw(k)[p:]) for k in range(dim)]
        duals.append(iter(inverse))
        completion += [
            BasisEntry(completion_group, blk, Vector.unit(f, dim, c - p), d)
            for c, d in zip(red.pivots[p:], inverse[p:])
        ]
    matched = [BasisEntry(group, blk, u, next(duals[blk])) for group, blk, u in normals]
    return sorted(matched + completion, key=lambda e: e.group)


def _select(
    entries: list[BasisEntry], blocks: int, keep: Callable[[int], bool]
) -> tuple[tuple[Vector, ...], ...]:
    """Per block, the duals of the entries whose group passes ``keep``."""
    bases: list[list[Vector]] = [[] for _ in range(blocks)]
    for e in entries:
        if keep(e.group):
            bases[e.block].append(e.dual)
    return tuple(tuple(b) for b in bases)


def _scatter(f: Field, entries: list[BasisEntry], offsets: Sequence[int], size: int) -> Matrix:
    """The duals in global coordinates: the dual of the i-th entry becomes
    column size-1-i (reverse chain order)."""
    data = [f.zero_raw] * (size * size)
    for i, e in enumerate(entries):
        col = size - 1 - i
        base = offsets[e.block]
        for r, x in enumerate(e.dual.data):
            data[(base + r) * size + col] = x
    return Matrix(f, size, size, data)


def _group_sizes(entries: list[BasisEntry], count: int) -> list[int]:
    sizes = [0] * count
    for e in entries:
        sizes[e.group] += 1
    return sizes


@dataclass
class BasisAssembly:
    """Basis entries in chain order and the matrices E and F of their duals."""

    h_entries: list[BasisEntry]
    k_entries: list[BasisEntry]
    E: Matrix
    F: Matrix
    h_group_sizes: list[int]
    k_group_sizes: list[int]

    def h_labels(self, g: StabilityGraph) -> list[str]:
        return [row_vertex_label(g.field, e.block, e.normal) for e in self.h_entries]

    def k_labels(self, g: StabilityGraph) -> list[str]:
        return [col_vertex_label(g.field, e.block, e.normal) for e in self.k_entries]


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


@dataclass
class DMResult:
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
    # ROADMAP item 3 removes it with the replay's call
    chain: list[StableSubspace] | None = None
    assembly: BasisAssembly | None = None


def dm_decompose(a: PartitionedMatrix) -> DMResult:
    """Full pipeline: stability graph, maximum independent matching,
    reachability pruning, component poset, chain bases, E^T A F."""
    g = build_stability_graph(a)
    state = max_independent_matching(g)
    c0, cinf = reachability_sets(state)
    poset = scc_poset(state, c0, cinf)
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
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
    """Why the result's block sizes on one side are not A's, or ""."""
    return "" if got == want else f"{side} blocks {got!r} are not A's {want!r}"


def _foreign_value(name: str, mat: Matrix, f: Field) -> str:
    """Why ``mat``, ``name`` in the reason, holds a non-carrier of f, or ""."""
    if not isinstance(mat, Matrix) or f.carries(mat.data):
        return ""
    k = next(k for k, x in enumerate(mat.data) if not f.carries([x]))
    return f"{name} holds {mat.data[k]!r} at {divmod(k, mat.cols)}, not a value of {f}"


def _admissibility_problem(name: str, mat: Matrix, blocks: tuple[int, ...]) -> str:
    """Why mat, named ``name`` in the reason, is not blockdiag(nonsingular)
    times a permutation, or "": each column lies inside one block, each block
    holds as many columns as its size, and their square submatrix is
    nonsingular."""
    if not isinstance(mat, Matrix):
        return f"{name}: {type(mat).__name__} is not a Matrix"
    offsets = tuple(accumulate(blocks, initial=0))
    if mat.rows != offsets[-1] or mat.cols != offsets[-1]:
        return f"{name}: matrix size does not match the partition"
    hits: list[list[int]] = [[] for _ in range(mat.cols)]
    for blk, part in enumerate(column_parts(mat, offsets)):
        for col, _ in part:
            hits[col].append(blk)
    by_block: dict[int, list[int]] = {i: [] for i in range(len(blocks))}
    for col, blks in enumerate(hits):
        if not blks:
            return f"{name}: column {col} is zero"
        if len(blks) > 1:
            return f"{name}: column {col} crosses block boundaries"
        by_block[blks[0]].append(col)
    for blk, cols in by_block.items():
        if len(cols) != blocks[blk]:
            return f"{name}: block {blk} has {len(cols)} columns, wants {blocks[blk]}"
        sub = Matrix.from_rows(
            mat.field,
            [
                [mat.raw(r, c) for c in cols]
                for r in range(offsets[blk], offsets[blk + 1])
            ],
        )
        if rref(sub).rank != blocks[blk]:
            return f"{name}: block {blk} columns are singular"
    return ""


def _malformed_blocks(blocks) -> str:
    """Why the diagonal blocks are not a non-empty list of integer pairs, or ""."""
    if not isinstance(blocks, (list, tuple)) or not blocks:
        return "diagonal blocks are empty or not a list"
    for k, b in enumerate(blocks):
        if not isinstance(b, (list, tuple)) or len(b) != 2 or not all(isinstance(x, int) for x in b):
            return f"diagonal block {k} is {b!r}, not a pair of integers"
    return ""


def _staircase_problem(a_dm: Matrix, blocks, n: int, m: int) -> str:
    """Why the declared diagonal blocks do not put a zero staircase under
    A_dm, or "" when they do.  The middle blocks D_h .. D_1 are square and
    not empty: each holds at least one matched pair."""
    if not isinstance(a_dm, Matrix):
        return "A_dm is not a Matrix"
    if (a_dm.rows, a_dm.cols) != (n, m):
        return "A_dm does not have the shape of A"
    if bad := _malformed_blocks(blocks):
        return bad
    if any(r < 0 or c < 0 for r, c in blocks):
        return "a diagonal block has a negative size"
    for k, (r, c) in enumerate(blocks[1:-1], start=1):
        if r != c:
            return f"middle diagonal block {k} is {r}x{c}, not square"
        if not r:
            return f"middle diagonal block {k} is empty"
    if sum(r for r, _ in blocks) != n or sum(c for _, c in blocks) != m:
        return "diagonal block sizes do not tile the matrix"
    zero = a_dm.field.zero_raw
    row_starts = list(accumulate((r for r, _ in blocks), initial=0))
    col_starts = list(accumulate((c for _, c in blocks), initial=0))
    for gr in range(len(blocks)):
        for gc in range(gr):
            for i in range(row_starts[gr], row_starts[gr + 1]):
                for j in range(col_starts[gc], col_starts[gc + 1]):
                    if a_dm.raw(i, j) != zero:
                        return f"nonzero entry below the staircase at ({i}, {j})"
    return ""


def _witness_state(
    a: PartitionedMatrix, result: DMResult
) -> tuple[IndependentMatchingState | None, str]:
    """The auxiliary digraph of the witness matching on A's own stability
    graph, which the result's graph must equal, or None and the reason.
    Building it proves the matching independent."""
    if result.graph is None or result.state is None:
        return None, "no matching witness attached"
    try:
        g = build_stability_graph(a)
    except RankConditionViolated as exc:
        return None, f"A has {exc}"
    try:
        if result.graph != g:
            return None, "the witness graph is not A's stability graph"
        return build_auxiliary_digraph(g, result.state.matching), ""
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        return None, f"malformed matching witness: {exc}"


def _chain_problem(
    state: IndependentMatchingState | None, missing: str, result: DMResult, m: int
) -> str:
    """Why the diagonal blocks are not the finest block triangularization,
    or "".  By the structure theorem every maximal chain of maximum stable
    subspaces has h + 1 elements, h the height of the witness's poset; given
    the other checks, E's and F's columns span a chain of h + 1 of them when
    there are h middle blocks, so that chain is maximal.  The chain dims
    must be that chain's."""
    dims, blocks = result.chain_dims, result.diag_blocks
    if not isinstance(dims, (list, tuple)):
        return f"chain dims {dims!r} is not a list"
    if bad := _malformed_blocks(blocks):
        return bad
    if list(dims) != _chain_dims(blocks, m):
        return "chain dims disagree with the diagonal blocks"
    if state is None:
        return missing
    try:
        h = scc_poset(state, *reachability_sets(state)).h
    except ValueError as exc:
        return str(exc)
    if len(blocks) != h + 2:
        return f"{len(blocks) - 2} middle diagonal blocks for a poset of {h} components"
    return ""


def _duality_problem(
    state: IndependentMatchingState | None, missing: str, result: DMResult, n: int, m: int
) -> str:
    """Why v* = n + m - |M| is not certified, or "".

    Upper bound: the witness is an independent matching of A's stability
    graph.  Lower bound: given product, admissibility and staircase, the
    columns r.. of E and ..c-1 of F, (r, c) the first diagonal block, form
    a stable pair."""
    if state is None:
        return missing
    if bad := _malformed_blocks(result.diag_blocks):
        return bad
    r, c = result.diag_blocks[0]
    size, v_star = result.matching_size, result.v_star
    if not (size == state.size and v_star == n + m - size == n - r + c):
        return (
            f"|M| is {size!r} and v* {v_star!r}, but the witness has {state.size} matched"
            f" edges and the first diagonal block spans a stable pair of dimension {n - r + c}"
        )
    return ""


def verify(a: PartitionedMatrix, result: DMResult) -> VerificationReport:
    """Re-check a decomposition from first principles.

    (a) the product identity, E^T A F built from A's rank-1 factors, once
    every entry of E, F and A_dm is a carrier of A's field, (b)
    admissibility of E and F for A's partition, which the result must
    restate, (c) the zero staircase under the declared diagonal blocks,
    whose sizes are nonnegative and whose middle blocks are non-empty
    squares, (d) the finest decomposition: the chain dims are the diagonal
    blocks', and there is one middle block per component of the poset
    rebuilt from A and the matching witness, (e) v* = n + m - |M|, bounded
    above by the witness, an independent matching of A's own stability
    graph, and below by the first diagonal block.  (d) and (e) read one
    auxiliary digraph, built once from A's graph and the witness matching.
    """
    checks: list[CheckResult] = []
    n, m = a.matrix.rows, a.matrix.cols

    shapes = [("E", result.E, n, n), ("F", result.F, m, m), ("A_dm", result.a_dm, n, m)]
    foreign = {name: _foreign_value(name, mat, a.field) for name, mat, _, _ in shapes}
    misfits = [
        f"{name} is {mat.rows}x{mat.cols} over {mat.field}, wants {r}x{c} over {a.field}"
        if isinstance(mat, Matrix)
        else f"{name} is not a Matrix"
        for name, mat, r, c in shapes
        if not isinstance(mat, Matrix) or (mat.rows, mat.cols, mat.field) != (r, c, a.field)
    ] or list(filter(None, foreign.values()))
    if misfits:
        checks.append(CheckResult("product", False, "; ".join(misfits)))
    else:
        try:
            product = a.transform(result.E, result.F)
        except RankConditionViolated as exc:
            checks.append(CheckResult("product", False, f"A has {exc}"))
        else:
            checks.append(
                CheckResult("product", product == result.a_dm, "A_dm == E^T A F")
            )

    why = "; ".join(filter(None, (
        _partition_problem("row", result.row_blocks, a.row_blocks),
        _partition_problem("column", result.col_blocks, a.col_blocks),
        foreign["E"] or _admissibility_problem("E", result.E, a.row_blocks),
        foreign["F"] or _admissibility_problem("F", result.F, a.col_blocks),
    )))
    checks.append(
        CheckResult("admissible", not why, why or "E, F block-diagonal times permutation")
    )

    detail = _staircase_problem(result.a_dm, result.diag_blocks, n, m)
    checks.append(CheckResult("staircase", not detail, detail))

    state, missing = _witness_state(a, result)
    detail = _chain_problem(state, missing, result, m)
    checks.append(CheckResult("chain", not detail, detail))

    detail = _duality_problem(state, missing, result, n, m)
    checks.append(CheckResult("duality", not detail, detail or "v* == n + m - |M|"))
    return VerificationReport(checks)
