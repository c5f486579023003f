"""Block-triangular decomposition driven by a maximum independent matching.

Pipeline: from the maximum matching's auxiliary digraph, take the vertices
reachable from the sources (C0) and co-reachable to the sinks (Cinf), delete
them, and decompose the rest into strongly connected components.  Components
containing matched vertices form a poset whose ideals parameterize all
maximum stable subspaces; a maximal chain of ideals yields nested subspaces,
and bases adapted to the chain give transformation matrices E and F with
E^T A F in block-triangular form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterable, Sequence

from .field import Field
from .linalg import (
    Matrix,
    Vector,
    complete_to_basis,
    invert,
    rref,
)
from .matching import (
    IndependentMatchingState,
    max_independent_matching,
    reachability_sets,
)
from .oracle import is_stable
from .partmat import (
    HyperplaneVertex,
    PartitionedMatrix,
    StabilityGraph,
    build_stability_graph,
    col_vertex_label,
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
    def adapted_bases(self) -> tuple[AdaptedBasis, AdaptedBasis]:
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

    @property
    def dims(self) -> tuple[int, int]:
        return (self.dim_x, self.dim_y)

    def canonical(self, field: Field, row_dims: Sequence[int], col_dims: Sequence[int]):
        """Hashable canonical form: per-block reduced-echelon bases."""
        return (
            tuple(
                _echelon_form(field, basis, d)
                for basis, d in zip(self.x_bases, row_dims)
            ),
            tuple(
                _echelon_form(field, basis, d)
                for basis, d in zip(self.y_bases, col_dims)
            ),
        )


def _echelon_form(field: Field, vectors: Sequence[Vector], dim: int) -> tuple:
    if not vectors:
        return ()
    r = rref(Matrix.from_row_vectors(field, list(vectors), dim))
    return tuple(tuple(r.R.row_raw(i)) for i in range(r.rank))


def ideal_to_stable_subspace(
    j: Iterable[int], poset: ChainPoset, g: StabilityGraph
) -> StableSubspace:
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
    below = j | {0}
    return StableSubspace(
        rows.select(lambda group: group in below),
        cols.select(lambda group: group not in below),
    )


def maximal_chain(poset: ChainPoset, g: StabilityGraph) -> list[StableSubspace]:
    """The chain of stable subspaces for the prefix ideals {}, {1}, ..., {1..h}."""
    return [
        ideal_to_stable_subspace(range(1, k + 1), poset, g)
        for k in range(poset.h + 1)
    ]


@dataclass(frozen=True)
class BasisEntry:
    """One basis row vector: a matched vertex or a completion vector.

    ``group`` runs 0 (bottom), 1..h (components), h+1 (top); ``vertex`` is
    the stability-graph vertex id for matched entries and None for
    completion vectors."""

    group: int
    block: int
    normal: Vector
    vertex: int | None


@dataclass(frozen=True)
class AdaptedBasis:
    """One side's basis entries in chain order and, per block, the inverse of
    their normals stacked in that order.

    Column lam of a block's inverse, the dual of the block's lam-th entry,
    pairs to one with that entry's normal and to zero with the others, so
    the duals of any set of entries span the subspace cut out by the
    normals of the rest of the block."""

    entries: list[BasisEntry]
    inverses: list[Matrix]
    duals: list[Vector]

    def select(self, keep: Callable[[int], bool]) -> tuple[tuple[Vector, ...], ...]:
        """Per block, the duals of the entries whose group passes ``keep``."""
        bases: list[list[Vector]] = [[] for _ in self.inverses]
        for entry, dual in zip(self.entries, self.duals):
            if keep(entry.group):
                bases[entry.block].append(dual)
        return tuple(tuple(b) for b in bases)

    def scatter(self, f: Field, offsets: Sequence[int], size: int) -> Matrix:
        """The duals in global coordinates: the dual of the i-th entry
        becomes column size-1-i (reverse chain order)."""
        data = [f.zero_raw] * (size * size)
        for i, (entry, dual) in enumerate(zip(self.entries, self.duals)):
            col = size - 1 - i
            base = offsets[entry.block]
            for r, x in enumerate(dual.data):
                data[(base + r) * size + col] = x
        return Matrix(f, size, size, data)

    def group_sizes(self, count: int) -> list[int]:
        sizes = [0] * count
        for e in self.entries:
            sizes[e.group] += 1
        return sizes


def _adapted_basis(
    f: Field,
    vertices: Sequence[HyperplaneVertex],
    dims: Sequence[int],
    groups: Iterable[tuple[int, Sequence[int]]],
    completion_group: int,
) -> AdaptedBasis:
    """Entries for the matched vertices group by group, completed per block
    by unit vectors that follow the matched entries of ``completion_group``;
    then each block's inverse, which supplies every entry's dual."""
    entries = [
        BasisEntry(group, vertices[i].block, vertices[i].normal, i)
        for group, ids in groups
        for i in ids
    ]
    for blk, dim in enumerate(dims):
        present = [e.normal for e in entries if e.block == blk]
        entries.extend(
            BasisEntry(completion_group, blk, vec, None)
            for vec in complete_to_basis(present, dim, f)
        )
    entries.sort(key=lambda e: e.group)
    inverses = [
        invert(Matrix.from_row_vectors(f, [e.normal for e in entries if e.block == blk], dim))
        for blk, dim in enumerate(dims)
    ]
    columns = [iter([inv.col(lam) for lam in range(inv.cols)]) for inv in inverses]
    duals = [next(columns[e.block]) for e in entries]
    return AdaptedBasis(entries, inverses, duals)


@dataclass
class BasisAssembly:
    """Ordered dual bases and the transformation matrices built from them."""

    h_entries: list[BasisEntry]
    k_entries: list[BasisEntry]
    e_blocks: list[Matrix]
    f_blocks: list[Matrix]
    E: Matrix
    F: Matrix
    h_group_sizes: list[int]
    k_group_sizes: list[int]

    def h_labels(self, g: StabilityGraph) -> list[str]:
        return [
            g.pi_label(e.vertex)
            if e.vertex is not None
            else row_vertex_label(g.field, e.block, e.normal)
            for e in self.h_entries
        ]

    def k_labels(self, g: StabilityGraph) -> list[str]:
        return [
            g.sigma_label(e.vertex)
            if e.vertex is not None
            else col_vertex_label(g.field, e.block, e.normal)
            for e in self.k_entries
        ]


def build_bases(
    poset: ChainPoset, g: StabilityGraph, a: PartitionedMatrix
) -> BasisAssembly:
    """Scatter the poset's adapted bases into the transformation matrices E
    and F."""
    rows, cols = poset.adapted_bases
    n = a.matrix.rows
    m = a.matrix.cols
    if len(rows.entries) != n or len(cols.entries) != m:
        raise AssertionError("basis entry counts disagree with the matrix shape")
    return BasisAssembly(
        h_entries=rows.entries,
        k_entries=cols.entries,
        e_blocks=rows.inverses,
        f_blocks=cols.inverses,
        E=rows.scatter(g.field, a.row_offsets, n),
        F=cols.scatter(g.field, a.col_offsets, m),
        h_group_sizes=rows.group_sizes(poset.h + 2),
        k_group_sizes=cols.group_sizes(poset.h + 2),
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
    a_dm = assembly.E.transpose() @ a.matrix @ assembly.F

    # groups top, h, ..., 1, bottom; scc_poset keeps each component square
    diag_blocks = list(zip(assembly.h_group_sizes, assembly.k_group_sizes))[::-1]
    n, m = a.matrix.rows, a.matrix.cols
    chain_dims = _chain_dims(diag_blocks, m)
    chain = maximal_chain(poset, g)
    size = state.size
    return DMResult(
        row_blocks=a.row_blocks,
        col_blocks=a.col_blocks,
        E=assembly.E,
        F=assembly.F,
        a_dm=a_dm,
        diag_blocks=diag_blocks,
        chain_dims=chain_dims,
        matching_size=size,
        v_star=n + m - size,
        graph=g,
        state=state,
        poset=poset,
        chain=chain,
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


def _block_permutation_ok(mat: Matrix, blocks: tuple[int, ...]) -> tuple[bool, str]:
    """Check mat = blockdiag(nonsingular) times a permutation: each column
    supported inside one block, per-block column counts matching the block
    size, and each per-block square submatrix nonsingular."""
    if not isinstance(mat, Matrix):
        return False, f"{type(mat).__name__} is not a Matrix"
    offsets = list(accumulate(blocks, initial=0))
    if mat.rows != offsets[-1] or mat.cols != offsets[-1]:
        return False, "matrix size does not match the partition"
    zero = mat.field.zero_raw
    by_block: dict[int, list[int]] = {i: [] for i in range(len(blocks))}
    for col in range(mat.cols):
        support = [r for r in range(mat.rows) if mat.raw(r, col) != zero]
        if not support:
            return False, f"column {col} is zero"
        blk = next(
            b for b in range(len(blocks)) if offsets[b] <= support[0] < offsets[b + 1]
        )
        if not all(offsets[blk] <= r < offsets[blk + 1] for r in support):
            return False, f"column {col} crosses block boundaries"
        by_block[blk].append(col)
    for blk, cols in by_block.items():
        if len(cols) != blocks[blk]:
            return False, f"block {blk} has {len(cols)} columns, wants {blocks[blk]}"
        sub = Matrix.from_rows(
            mat.field,
            [
                [mat.raw(r, c) for c in cols]
                for r in range(offsets[blk], offsets[blk + 1])
            ],
        )
        if rref(sub).rank != blocks[blk]:
            return False, f"block {blk} columns are singular"
    return True, ""


def _malformed_blocks(blocks) -> str:
    """Why the declared diagonal blocks are not a list of integer pairs, or ""."""
    if not isinstance(blocks, (list, tuple)):
        return "diagonal blocks are not a list"
    for k, b in enumerate(blocks):
        if not isinstance(b, (list, tuple)) or len(b) != 2 or not all(isinstance(x, int) for x in b):
            return f"diagonal block {k} is {b!r}, not a pair of integers"
    return ""


def _staircase_problem(a_dm: Matrix, blocks, n: int, m: int) -> str:
    """Why the declared diagonal blocks do not put a zero staircase under
    A_dm, or "" when they do.  The middle blocks D_h .. D_1 are square."""
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


def _chain_problem(a: PartitionedMatrix, result: DMResult) -> str:
    """Why the attached chain does not certify the decomposition, or "".

    Every element is stable of dimension n + m - |M|; element k belongs to
    the last k+1 diagonal blocks, so its dimensions are their row count and
    m minus their column count."""
    chain, dims, blocks = result.chain, result.chain_dims, result.diag_blocks
    for name, value in (("chain", chain), ("chain dims", dims)):
        if not isinstance(value, (list, tuple)):
            return f"{name} {value!r} is not a list"
    if not isinstance(result.matching_size, int):
        return f"matching size {result.matching_size!r} is not an integer"
    m = a.matrix.cols
    want = a.matrix.rows + m - result.matching_size
    for k, sub in enumerate(chain):
        if not isinstance(sub, StableSubspace):
            return f"chain element {k} is not a StableSubspace"
        try:
            stable = is_stable(a, sub.x_bases, sub.y_bases)
        except (TypeError, ValueError) as exc:
            return f"chain element {k}: {exc}"
        if not stable:
            return f"chain element {k} is not stable"
        if sub.dim_x + sub.dim_y != want:
            return f"chain element {k} has dimension {sub.dims}"
    if bad := _malformed_blocks(blocks):
        return bad
    if not len(chain) == len(dims) == len(blocks) - 1:
        return (
            f"{len(chain)} chain elements and {len(dims)} chain dims"
            f" for {len(blocks)} diagonal blocks"
        )
    if list(dims) != _chain_dims(blocks, m):
        return "chain dims disagree with the diagonal blocks"
    if [sub.dims for sub in chain] != list(dims):
        return "chain element dimensions disagree with the chain dims"
    return ""


def verify(a: PartitionedMatrix, result: DMResult) -> VerificationReport:
    """Re-check a decomposition from first principles.

    (a) the product identity, (b) admissibility of E and F, (c) the zero
    staircase under the declared diagonal blocks, whose sizes are
    nonnegative and whose middle blocks are square, (d) when a chain is
    attached, stability and common dimension of its elements and their
    agreement with the chain dimensions and the diagonal blocks, (e) the
    dimension/matching duality.
    """
    checks: list[CheckResult] = []
    n, m = a.matrix.rows, a.matrix.cols

    shapes = [("E", result.E, n, n), ("F", result.F, m, m), ("A_dm", result.a_dm, n, m)]
    misfits = [
        f"{name} is {mat.rows}x{mat.cols} over {mat.field}, wants {r}x{c} over {a.field}"
        if isinstance(mat, Matrix)
        else f"{name} is not a Matrix"
        for name, mat, r, c in shapes
        if not isinstance(mat, Matrix) or (mat.rows, mat.cols, mat.field) != (r, c, a.field)
    ]
    if misfits:
        checks.append(CheckResult("product", False, "; ".join(misfits)))
    else:
        product = result.E.transpose() @ a.matrix @ result.F
        checks.append(
            CheckResult("product", product == result.a_dm, "A_dm == E^T A F")
        )

    ok_e, why_e = _block_permutation_ok(result.E, a.row_blocks)
    ok_f, why_f = _block_permutation_ok(result.F, a.col_blocks)
    checks.append(
        CheckResult(
            "admissible",
            ok_e and ok_f,
            "; ".join(x for x in (why_e, why_f) if x) or "E, F block-diagonal times permutation",
        )
    )

    detail = _staircase_problem(result.a_dm, result.diag_blocks, n, m)
    checks.append(CheckResult("staircase", not detail, detail))

    if result.chain is not None:
        detail = _chain_problem(a, result)
        checks.append(CheckResult("chain", not detail, detail))

    size = result.matching_size
    if isinstance(size, int):
        checks.append(CheckResult("duality", result.v_star == n + m - size, "v* == n + m - |M|"))
    else:
        checks.append(CheckResult("duality", False, f"matching size {size!r} is not an integer"))
    return VerificationReport(checks)
