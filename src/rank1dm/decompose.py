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
from itertools import accumulate
from typing import Iterable, Sequence

from .field import Field
from .linalg import (
    Matrix,
    Vector,
    complete_to_basis,
    invert,
    kernel_basis,
    rref,
)
from .matching import (
    IndependentMatchingState,
    coreachable_to,
    max_independent_matching,
    reachable_from,
)
from .oracle import is_stable
from .partmat import (
    PartitionedMatrix,
    StabilityGraph,
    build_stability_graph,
    col_vertex_label,
    row_vertex_label,
)


def reachability_sets(state: IndependentMatchingState) -> tuple[set[int], set[int]]:
    """C0 = nodes reachable from the source set, Cinf = nodes that reach the
    sink set, both in the auxiliary digraph of a maximum matching."""
    return reachable_from(state, state.sources), coreachable_to(state, state.sinks)


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
        """All ideals, smallest first (by size, then sorted content)."""
        if self.h > 20:
            raise ValueError("ideal enumeration is limited to small posets")
        out = []
        for mask in range(1 << self.h):
            j = frozenset(k + 1 for k in range(self.h) if mask >> k & 1)
            if self.is_ideal(j):
                out.append(j)
        out.sort(key=lambda j: (len(j), sorted(j)))
        return out


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
    g = state.graph
    npi = g.n_pi
    removed = c0 | cinf
    nodes = [v for v in range(npi + g.n_sigma) if v not in removed]
    adj = {
        v: [w for w, _ in state.adjacency[v] if w not in removed] for v in nodes
    }
    sccs = _tarjan_scc(nodes, adj)

    comp_of = {v: i for i, scc in enumerate(sccs) for v in scc}
    comp_adj: list[set[int]] = [set() for _ in sccs]
    for v in nodes:
        cv = comp_of[v]
        for w in adj[v]:
            cw = comp_of[w]
            if cw != cv:
                comp_adj[cv].add(cw)

    matched_nodes_pi = state.matched_pi
    matched_nodes_sigma = {npi + j for j in state.matched_sigma}
    matched_comps = []
    for i, scc in enumerate(sccs):
        h_pi = sorted(v for v in scc if v in matched_nodes_pi)
        k_sig = sorted(v - npi for v in scc if v in matched_nodes_sigma)
        if h_pi or k_sig:
            if len(h_pi) != len(k_sig):
                raise AssertionError("matched pairs split across components")
            matched_comps.append((i, tuple(h_pi), tuple(k_sig)))

    # descendants over the condensation (paths may pass through unmatched
    # components); desc[c] excludes c itself
    desc: dict[int, set[int]] = {}
    for i, _, _ in matched_comps:
        seen: set[int] = set()
        stack = list(comp_adj[i])
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            stack.extend(comp_adj[c])
        desc[i] = seen

    matched_ids = [i for i, _, _ in matched_comps]
    below = {
        b: {a for a in matched_ids if a != b and a in desc[b]} for b in matched_ids
    }

    by_id = {i: (hs, ks) for i, hs, ks in matched_comps}
    labeled: list[int] = []
    labeled_set: set[int] = set()
    remaining = set(matched_ids)
    while remaining:
        ready = [c for c in remaining if below[c] <= labeled_set]
        pick = min(ready, key=lambda c: by_id[c][1][0])
        labeled.append(pick)
        labeled_set.add(pick)
        remaining.discard(pick)

    label_of = {c: k + 1 for k, c in enumerate(labeled)}
    components = [
        PosetComponent(
            label=k + 1,
            h_pi=by_id[c][0],
            k_sigma=by_id[c][1],
            nodes=frozenset(sccs[c]),
        )
        for k, c in enumerate(labeled)
    ]
    relations = frozenset(
        (label_of[a], label_of[b]) for b in matched_ids for a in below[b]
    )

    h0 = tuple(sorted(v for v in c0 if v in matched_nodes_pi))
    k0 = tuple(sorted(v - npi for v in c0 if v in matched_nodes_sigma))
    hinf = tuple(sorted(v for v in cinf if v in matched_nodes_pi))
    kinf = tuple(sorted(v - npi for v in cinf if v in matched_nodes_sigma))
    return ChainPoset(
        state=state,
        c0=frozenset(c0),
        cinf=frozenset(cinf),
        components=components,
        relations=relations,
        h0=h0,
        k0=k0,
        hinf=hinf,
        kinf=kinf,
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


def _hyperplane_intersection(
    field: Field, normals: list[Vector], dim: int
) -> tuple[Vector, ...]:
    """Basis of the intersection of hyperplanes with the given normals."""
    m = Matrix.from_row_vectors(field, normals, dim)
    return tuple(kernel_basis(m))


def ideal_to_stable_subspace(
    j: Iterable[int], poset: ChainPoset, g: StabilityGraph
) -> StableSubspace:
    """Map an ideal of the component poset to its maximum stable subspace.

    The row-side space is cut out by the matched normals of the components
    above the ideal together with Hinf; the column-side space by the matched
    normals inside the ideal together with K0.
    """
    j = frozenset(j)
    if not poset.is_ideal(j):
        raise ValueError(f"{sorted(j)} is not an ideal of the poset")
    h_sel: list[int] = list(poset.hinf)
    for comp in poset.components:
        if comp.label not in j:
            h_sel.extend(comp.h_pi)
    k_sel: list[int] = list(poset.k0)
    for comp in poset.components:
        if comp.label in j:
            k_sel.extend(comp.k_sigma)

    f = g.field
    x_bases = []
    for alpha, dim in enumerate(g.row_blocks):
        normals = [g.pi[i].normal for i in sorted(h_sel) if g.pi[i].block == alpha]
        x_bases.append(_hyperplane_intersection(f, normals, dim))
    y_bases = []
    for beta, dim in enumerate(g.col_blocks):
        normals = [g.sigma[i].normal for i in sorted(k_sel) if g.sigma[i].block == beta]
        y_bases.append(_hyperplane_intersection(f, normals, dim))
    return StableSubspace(tuple(x_bases), tuple(y_bases))


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


@dataclass
class BasisAssembly:
    """Ordered dual bases and the transformation matrices built from them."""

    h_entries: list[BasisEntry]
    k_entries: list[BasisEntry]
    r_blocks: list[Matrix]
    e_blocks: list[Matrix]
    s_blocks: list[Matrix]
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
    """Complete the matched normals to per-block bases, order them along the
    chain, and turn them into the transformation matrices E and F.

    Completion vectors join the bottom group on the row side and the top
    group on the column side.  Per block, the selected rows stacked in chain
    order form R_alpha (resp. S_beta); its inverse supplies the basis
    columns, which are scattered into block coordinates and collected in
    reverse chain order."""
    f = g.field
    h = poset.h

    h_entries: list[BasisEntry] = []
    k_entries: list[BasisEntry] = []
    top = h + 1

    h_entries.extend(
        BasisEntry(0, g.pi[i].block, g.pi[i].normal, i) for i in poset.h0
    )
    h_completions: list[BasisEntry] = []
    matched_pi = sorted(poset.state.matched_pi)
    for alpha, dim in enumerate(g.row_blocks):
        present = [g.pi[i].normal for i in matched_pi if g.pi[i].block == alpha]
        for vec in complete_to_basis(present, dim, f):
            h_completions.append(BasisEntry(0, alpha, vec, None))
    h_entries.extend(h_completions)
    for comp in poset.components:
        h_entries.extend(
            BasisEntry(comp.label, g.pi[i].block, g.pi[i].normal, i)
            for i in comp.h_pi
        )
    h_entries.extend(
        BasisEntry(top, g.pi[i].block, g.pi[i].normal, i) for i in poset.hinf
    )

    k_entries.extend(
        BasisEntry(0, g.sigma[j].block, g.sigma[j].normal, j) for j in poset.k0
    )
    for comp in poset.components:
        k_entries.extend(
            BasisEntry(comp.label, g.sigma[j].block, g.sigma[j].normal, j)
            for j in comp.k_sigma
        )
    k_entries.extend(
        BasisEntry(top, g.sigma[j].block, g.sigma[j].normal, j) for j in poset.kinf
    )
    matched_sigma = sorted(poset.state.matched_sigma)
    for beta, dim in enumerate(g.col_blocks):
        present = [g.sigma[j].normal for j in matched_sigma if g.sigma[j].block == beta]
        for vec in complete_to_basis(present, dim, f):
            k_entries.append(BasisEntry(top, beta, vec, None))

    n = a.matrix.rows
    m = a.matrix.cols
    if len(h_entries) != n or len(k_entries) != m:
        raise AssertionError("basis entry counts disagree with the matrix shape")

    r_blocks, e_blocks = [], []
    for alpha, dim in enumerate(g.row_blocks):
        rows = [e.normal for e in h_entries if e.block == alpha]
        r = Matrix.from_row_vectors(f, rows, dim)
        r_blocks.append(r)
        e_blocks.append(invert(r))
    s_blocks, f_blocks = [], []
    for beta, dim in enumerate(g.col_blocks):
        rows = [e.normal for e in k_entries if e.block == beta]
        s = Matrix.from_row_vectors(f, rows, dim)
        s_blocks.append(s)
        f_blocks.append(invert(s))

    E = _scatter_columns(f, h_entries, e_blocks, a.row_offsets, n)
    F = _scatter_columns(f, k_entries, f_blocks, a.col_offsets, m)

    h_sizes = [0] * (h + 2)
    for e in h_entries:
        h_sizes[e.group] += 1
    k_sizes = [0] * (h + 2)
    for e in k_entries:
        k_sizes[e.group] += 1

    return BasisAssembly(
        h_entries=h_entries,
        k_entries=k_entries,
        r_blocks=r_blocks,
        e_blocks=e_blocks,
        s_blocks=s_blocks,
        f_blocks=f_blocks,
        E=E,
        F=F,
        h_group_sizes=h_sizes,
        k_group_sizes=k_sizes,
    )


def _scatter_columns(
    f: Field,
    entries: list[BasisEntry],
    transforms: list[Matrix],
    offsets: list[int],
    size: int,
) -> Matrix:
    """Place per-block transform columns into global coordinates; the column
    for the i-th entry lands at global column size-1-i (reverse order)."""
    position_in_block: dict[int, int] = {}
    data = [f.zero_raw] * (size * size)
    for i, entry in enumerate(entries):
        lam = position_in_block.get(entry.block, 0)
        position_in_block[entry.block] = lam + 1
        tr = transforms[entry.block]
        col = size - 1 - i
        base = offsets[entry.block]
        for r in range(tr.rows):
            data[(base + r) * size + col] = tr.raw(r, lam)
    return Matrix(f, size, size, data)


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

    @property
    def h(self) -> int:
        return len(self.diag_blocks) - 2


def dm_decompose(a: PartitionedMatrix) -> DMResult:
    """Full pipeline: stability graph, maximum independent matching,
    reachability pruning, component poset, chain bases, E^T A F."""
    g = build_stability_graph(a)
    state = max_independent_matching(g)
    c0, cinf = reachability_sets(state)
    poset = scc_poset(state, c0, cinf)
    assembly = build_bases(poset, g, a)
    a_dm = assembly.E.transpose() @ a.matrix @ assembly.F

    h = poset.h
    hs, ks = assembly.h_group_sizes, assembly.k_group_sizes
    diag_blocks = [(hs[h + 1], ks[h + 1])]
    for k in range(h, 0, -1):
        if hs[k] != ks[k]:
            raise AssertionError("component group sizes differ between sides")
        diag_blocks.append((hs[k], ks[k]))
    diag_blocks.append((hs[0], ks[0]))

    n, m = a.matrix.rows, a.matrix.cols
    chain_dims = []
    ik = 0
    jk = 0
    for k in range(h + 1):
        ik += hs[k]
        jk += ks[k]
        chain_dims.append((ik, m - jk))

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


def verify(a: PartitionedMatrix, result: DMResult) -> VerificationReport:
    """Re-check a decomposition from first principles.

    (a) the product identity, (b) admissibility of E and F, (c) the zero
    staircase under the declared diagonal blocks, (d) stability and common
    dimension of the chain elements when a chain is attached, (e) the
    dimension/matching duality.
    """
    checks: list[CheckResult] = []
    n, m = a.matrix.rows, a.matrix.cols

    shapes = [("E", result.E, n, n), ("F", result.F, m, m), ("A_dm", result.a_dm, n, m)]
    misfits = [
        f"{name} is {mat.rows}x{mat.cols} over {mat.field}, wants {r}x{c} over {a.field}"
        for name, mat, r, c in shapes
        if (mat.rows, mat.cols, mat.field) != (r, c, a.field)
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

    rows_total = sum(r for r, _ in result.diag_blocks)
    cols_total = sum(c for _, c in result.diag_blocks)
    a_dm_fits = (result.a_dm.rows, result.a_dm.cols) == (n, m)
    stair_ok = rows_total == n and cols_total == m and a_dm_fits
    detail = ""
    if stair_ok:
        zero = a.field.zero_raw
        row_starts = list(accumulate((r for r, _ in result.diag_blocks), initial=0))
        col_starts = list(accumulate((c for _, c in result.diag_blocks), initial=0))
        for gr in range(len(result.diag_blocks)):
            for gc in range(gr):
                for i in range(row_starts[gr], row_starts[gr + 1]):
                    for j in range(col_starts[gc], col_starts[gc + 1]):
                        if result.a_dm.raw(i, j) != zero:
                            stair_ok = False
                            detail = f"nonzero entry below the staircase at ({i}, {j})"
    elif not a_dm_fits:
        detail = "A_dm does not have the shape of A"
    else:
        detail = "diagonal block sizes do not tile the matrix"
    checks.append(CheckResult("staircase", stair_ok, detail))

    if result.chain is not None:
        want = n + m - result.matching_size
        chain_ok = True
        detail = ""
        for k, sub in enumerate(result.chain):
            try:
                stable = is_stable(a, sub.x_bases, sub.y_bases)
            except ValueError as exc:
                chain_ok, detail = False, f"chain element {k}: {exc}"
                break
            if not stable:
                chain_ok = False
                detail = f"chain element {k} is not stable"
                break
            if sub.dim_x + sub.dim_y != want:
                chain_ok = False
                detail = f"chain element {k} has dimension {sub.dims}"
                break
        checks.append(CheckResult("chain", chain_ok, detail))

    checks.append(
        CheckResult(
            "duality",
            result.v_star == n + m - result.matching_size,
            "v* == n + m - |M|",
        )
    )
    return VerificationReport(checks)
