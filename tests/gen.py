"""Shared builders for the test suite: the worked 6x6 example, random
instance generators, exact subspace utilities used by oracle-style checks,
the reference checks (stability from the definition, classic bipartite DM,
the dense product E^T A F, Gaussian binomials, elimination and rank-1
factoring one carrier operation at a time through ``Arith``, the monic
directions by enumerating GF(p)^dim, the vertex order on Fraction keys),
each side's matroid on its own with its rank and closure by that
elimination, a plain breadth-first search over a materialized adjacency,
the minimum cover that the matching tests check against, and
the rank-1 skeleton instances and mod-q rank of the scaled-rank oracle for
|M|."""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING

from rank1dm import (
    GF,
    QQ,
    Matrix,
    PartitionedMatrix,
    StabilityGraph,
    reachability_sets,
)
from rank1dm.linalg import Rank1Factor, RrefResult, rref

if TYPE_CHECKING:  # the references share no code with the matching state
    from rank1dm import IndependentMatchingState


class Arith:
    """Carrier arithmetic of one field, for the references and the instance
    builders: ``Fraction`` operators over QQ (p = 0), each result an ``int``
    when it is integral, ints reduced mod p over GF(p).  The library
    computes on ints in its kernels and has no such operations, so a
    reference built on these shares no arithmetic with the code it checks."""

    def __init__(self, field):
        self.p = field.p

    def _carrier(self, x):
        return x % self.p if self.p else rational(x)

    def add(self, a, b):
        return self._carrier(a + b)

    def neg(self, a):
        return self._carrier(-a)

    def mul(self, a, b):
        return self._carrier(a * b)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, -1, self.p) if self.p else rational(1, a)

    def dot(self, xs, ys):
        return self._carrier(sum(map(operator.mul, xs, ys), 0))


EXAMPLE_ROWS = [
    [1, 0, 1, 1, 0, 0],
    [0, 0, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 0],
    [0, 0, 0, 0, 1, 0],
    [1, 0, 1, 1, 1, 0],
    [1, 0, 1, 1, 0, 0],
]


def rational(n, d=1):
    """The canonical carrier of n/d, made without the library: an ``int``
    when it is integral, else a ``Fraction``."""
    x = Fraction(n, d)
    return x.numerator if x.denominator == 1 else x


def canonical(field, x) -> bool:
    """Whether ``x`` is a canonical carrier of ``field``, decided without
    the library: an int in [0, p) over GF(p); over QQ an int that is not a
    bool, or a Fraction in lowest terms with a denominator above 1."""
    if field.p:
        return type(x) is int and 0 <= x < field.p
    return type(x) is int or (
        type(x) is Fraction and x.denominator > 1 and gcd(x.numerator, x.denominator) == 1
    )


def dense(m: Matrix) -> list:
    """The entries of ``m`` in row-major order, its zeros included: the
    dense view through which the tests read a Matrix."""
    return [x for i in range(m.rows) for x in m.row_raw(i)]


def from_dense(field, rows: int, cols: int, data: list) -> Matrix:
    """The Matrix of ``data``, a row-major list of rows * cols values, each
    stored as it is but for the field's zeros (a ``0.0`` or ``None`` is
    stored, for the verifier to refuse)."""
    assert len(data) == rows * cols, "entry count does not match the shape"
    zero = field.zero_raw
    dense_rows = [data[i * cols : (i + 1) * cols] for i in range(rows)]
    indices = [
        [j for j, x in enumerate(row) if not (type(x) is type(zero) and x == zero)]
        for row in dense_rows
    ]
    values = [[row[j] for j in idx] for row, idx in zip(dense_rows, indices)]
    return Matrix(field, rows, cols, indices, values)


def worked_example() -> PartitionedMatrix:
    f = GF(2)
    return PartitionedMatrix(Matrix.from_rows(f, EXAMPLE_ROWS), (2, 2, 2), (2, 2, 2))


def random_rank1_instance(
    rng: random.Random,
    field,
    mu: int,
    nu: int,
    max_dim: int = 2,
    zero_prob: float = 0.3,
) -> PartitionedMatrix:
    """A random partitioned matrix whose blocks are zero or rank one."""
    ar = Arith(field)
    row_dims = [rng.randint(1, max_dim) for _ in range(mu)]
    col_dims = [rng.randint(1, max_dim) for _ in range(nu)]
    blocks = []
    for na in row_dims:
        brow = []
        for mb in col_dims:
            if rng.random() < zero_prob:
                brow.append(Matrix.zeros(field, na, mb))
            else:
                u = _random_nonzero_vector(rng, field, na)
                v = _random_nonzero_vector(rng, field, mb)
                brow.append(_outer(ar, field, _random_nonzero_scalar(rng, field), u, v))
        blocks.append(brow)
    return from_blocks(blocks)


def skeleton_instance(
    rng: random.Random, field, mu: int, nu: int, dim: int = 3, pool: int = 1, zero_prob=0.0
) -> PartitionedMatrix:
    """A mu x nu grid of dim x dim blocks, each zero or a_alpha b_beta u v^T.
    The coefficients form the rank-1 skeleton a b^T, and u (v) is drawn from
    a pool of ``pool`` normals kept per row (column) block.  With a pool of
    one and no zero block, rank A = 1 while |M| = min(mu, nu), so plain rank
    does not pin |M|."""
    ar = Arith(field)
    a, b = ([_random_nonzero_scalar(rng, field) for _ in range(k)] for k in (mu, nu))
    us, vs = (
        [[_random_nonzero_vector(rng, field, dim) for _ in range(pool)] for _ in range(k)]
        for k in (mu, nu)
    )
    blocks = []
    for alpha in range(mu):
        brow = []
        for beta in range(nu):
            if rng.random() < zero_prob:
                brow.append(Matrix.zeros(field, dim, dim))
            else:
                u, v = rng.choice(us[alpha]), rng.choice(vs[beta])
                brow.append(_outer(ar, field, ar.mul(a[alpha], b[beta]), u, v))
        blocks.append(brow)
    return from_blocks(blocks)


def dense_product(e: Matrix, a: Matrix, f: Matrix) -> Matrix:
    """E^T A F entry by entry through ``Arith``, the reference for the
    verifier's product check."""
    ar = Arith(a.field)

    def columns(m):
        entries = dense(m)
        return [entries[j :: m.cols] for j in range(m.cols)]

    eta = [[ar.dot(ec, ac) for ac in columns(a)] for ec in columns(e)]
    entries = [ar.dot(row, fc) for row in eta for fc in columns(f)]
    return from_dense(a.field, e.cols, f.cols, entries)


def _outer(ar: Arith, field, c, u, v) -> Matrix:
    return from_dense(field, len(u), len(v), [ar.mul(c, ar.mul(x, y)) for x in u for y in v])


def scaled_rows(a: PartitionedMatrix, q: int, scalars) -> list[list[int]]:
    """A(x) mod the prime q: each entry of block (alpha, beta), read as a
    residue mod q, times ``scalars[alpha][beta]``."""
    def residue(x):
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, q) % q

    row_of = [alpha for alpha, size in enumerate(a.row_blocks) for _ in range(size)]
    col_of = [beta for beta, size in enumerate(a.col_blocks) for _ in range(size)]
    return [
        [residue(x) * scalars[row_of[i]][col_of[j]] % q for j, x in enumerate(a.matrix.row_raw(i))]
        for i in range(a.matrix.rows)
    ]


def rank_mod(rows: list[list[int]], q: int) -> int:
    """Rank over GF(q), q prime, of rows of residues: each row is reduced
    against the monic pivot rows kept so far, in the order they were kept,
    and kept itself when an entry survives.  It calls nothing in
    ``rank1dm.linalg``."""
    pivots: list[tuple[int, list[int]]] = []
    for row in rows:
        for c, pivot in pivots:
            if f := row[c]:
                row = [(x - f * y) % q for x, y in zip(row, pivot)]
        c = next((j for j, x in enumerate(row) if x), None)
        if c is not None:
            inverse = pow(row[c], -1, q)
            pivots.append((c, [x * inverse % q for x in row]))
    return len(pivots)


def from_blocks(blocks: list[list[Matrix]]) -> PartitionedMatrix:
    """Assemble from a mu x nu grid of block matrices."""
    f = blocks[0][0].field
    row_sizes = tuple(row[0].rows for row in blocks)
    col_sizes = tuple(b.cols for b in blocks[0])
    data = []
    for brow, nr in zip(blocks, row_sizes):
        for i in range(nr):
            for b in brow:
                data.extend(b.row_raw(i))
    total = from_dense(f, sum(row_sizes), sum(col_sizes), data)
    return PartitionedMatrix(total, row_sizes, col_sizes)


def _random_nonzero_vector(rng, field, dim):
    while True:
        if field is QQ or getattr(field, "p", None) is None:
            vals = [rng.randint(-3, 3) for _ in range(dim)]
        else:
            vals = [rng.randrange(field.p) for _ in range(dim)]
        if any(v != field.zero_raw for v in vals):
            return vals


def _random_nonzero_scalar(rng, field):
    if field is QQ or getattr(field, "p", None) is None:
        return rng.randint(1, 9)
    return rng.randrange(1, field.p)


def random_unit_pattern_instance(rng: random.Random, n: int, m: int, density=0.4) -> PartitionedMatrix:
    """Random 0/1 matrix over GF(2), all blocks 1x1."""
    f = GF(2)
    data = [1 if rng.random() < density else 0 for _ in range(n * m)]
    return PartitionedMatrix(from_dense(f, n, m, data), (1,) * n, (1,) * m)


def random_nonsingular(rng: random.Random, field, n: int) -> Matrix:
    while True:
        if field is QQ:
            data = [rng.randint(-3, 3) for _ in range(n * n)]
        else:
            data = [rng.randrange(field.p) for _ in range(n * n)]
        m = from_dense(field, n, n, data)
        if rref(m).rank == n:
            return m


def permutation_matrix(field, perm: list[int]) -> Matrix:
    return Matrix(field, len(perm), len(perm), [[j] for j in perm], [[field.one_raw] for _ in perm])


def _block_respecting_perm(rng, sizes):
    """Coordinate permutation shuffling within blocks and swapping whole
    blocks of equal size; the partition type is left unchanged."""
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(sizes):
        groups.setdefault(s, []).append(i)
    dest_of = list(range(len(sizes)))
    for group in groups.values():
        targets = group[:]
        rng.shuffle(targets)
        for src, dst in zip(group, targets):
            dest_of[src] = dst
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    perm = [0] * offsets[-1]
    for src, s in enumerate(sizes):
        inner = list(range(s))
        rng.shuffle(inner)
        for k in range(s):
            perm[offsets[src] + k] = offsets[dest_of[src]] + inner[k]
    return perm


def random_admissible_pair(rng: random.Random, a: PartitionedMatrix) -> tuple[Matrix, Matrix]:
    """A random admissible E and F for A's partition: per-block nonsingular
    factors composed with block-respecting permutations."""
    f = a.field
    big_e = _blockdiag(f, [random_nonsingular(rng, f, s) for s in a.row_blocks])
    big_f = _blockdiag(f, [random_nonsingular(rng, f, s) for s in a.col_blocks])
    p = permutation_matrix(f, _block_respecting_perm(rng, a.row_blocks))
    q = permutation_matrix(f, _block_respecting_perm(rng, a.col_blocks))
    return big_e @ p, big_f @ q


def random_admissible_transform(rng: random.Random, a: PartitionedMatrix) -> PartitionedMatrix:
    """A random member of the transformation group, E^T A F for a random
    admissible pair."""
    e, f = random_admissible_pair(rng, a)
    return PartitionedMatrix(e.transpose() @ a.matrix @ f, a.row_blocks, a.col_blocks)


def _blockdiag(field, blocks):
    n = sum(b.rows for b in blocks)
    data = [field.zero_raw] * (n * n)
    off = 0
    for b in blocks:
        for i in range(b.rows):
            data[(off + i) * n + off : (off + i) * n + off + b.cols] = b.row_raw(i)
        off += b.rows
    return from_dense(field, n, n, data)


def reference_rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form through ``Arith``, one carrier operation at
    a time: the reference for ``rref``'s integer rows."""
    f, ar = m.field, Arith(m.field)
    zero = f.zero_raw
    work = [m.row_raw(i) for i in range(m.rows)]
    pivots: list[int] = []
    for pc in range(m.cols):
        pr = len(pivots)
        pivot_row = next((i for i in range(pr, m.rows) if work[i][pc] != zero), None)
        if pivot_row is None:
            continue
        work[pr], work[pivot_row] = work[pivot_row], work[pr]
        s = ar.inv(work[pr][pc])
        prow = work[pr] = [ar.mul(s, v) for v in work[pr]]
        for i in range(m.rows):
            if i != pr and work[i][pc] != zero:
                c = work[i][pc]
                work[i] = [ar.add(v, ar.neg(ar.mul(c, pv))) for v, pv in zip(work[i], prow)]
        pivots.append(pc)
    flat = [v for row in work for v in row]
    return RrefResult(from_dense(f, m.rows, m.cols, flat), pivots, len(pivots))


def reference_rank1_factor(m: Matrix) -> Rank1Factor:
    """Zero / rank one / higher rank from the definition, through
    ``Arith``: the first nonzero entry c in row-major order gives v (its
    row over c) and u (its column over c), and every entry must equal
    c u_i v_j.  The reference for ``rank1_factor``'s int rows."""
    ar = Arith(m.field)
    zero = m.field.zero_raw
    data = dense(m)
    pos = next((k for k, val in enumerate(data) if val != zero), None)
    if pos is None:
        return Rank1Factor(rank=0)
    i0, j0 = divmod(pos, m.cols)
    c = data[pos]
    cinv = ar.inv(c)
    v = tuple(ar.mul(cinv, data[i0 * m.cols + j]) for j in range(m.cols))
    u = tuple(ar.mul(cinv, data[i * m.cols + j0]) for i in range(m.rows))
    for i in range(m.rows):
        for j in range(m.cols):
            if data[i * m.cols + j] != ar.mul(c, ar.mul(u[i], v[j])):
                return Rank1Factor(rank=2)
    return Rank1Factor(rank=1, u=u, v=v, coeff=c)


# subspace utilities on raw row bases -------------------------------------


def kernel_basis(m: Matrix) -> list[tuple]:
    """Basis of the right kernel {y : M y = 0}, one vector per free column."""
    f, ar = m.field, Arith(m.field)
    r = rref(m)
    pivot_of_col = {c: i for i, c in enumerate(r.pivots)}
    basis = []
    for free in range(m.cols):
        if free in pivot_of_col:
            continue
        vals = [f.zero_raw] * m.cols
        vals[free] = f.one_raw
        for pc, prow in pivot_of_col.items():
            vals[pc] = ar.neg(r.R.row_raw(prow)[free])
        basis.append(tuple(vals))
    return basis


def echelon(field, rows, dim):
    """Canonical reduced-echelon basis of the row space (tuple of tuples);
    rows are sequences of raw values or ints."""
    if not rows:
        return ()
    data = [field.coerce_raw(x) for r in rows for x in r]
    m = from_dense(field, len(rows), dim, data)
    r = rref(m)
    return tuple(tuple(r.R.row_raw(i)) for i in range(r.rank))


def subspace_sum(field, rows_a, rows_b, dim):
    return echelon(field, list(rows_a) + list(rows_b), dim)


def subspace_intersection(field, rows_a, rows_b, dim):
    """Intersection of two row spaces by solving a^T A = b^T B."""
    if not rows_a or not rows_b:
        return ()
    ka, kb = len(rows_a), len(rows_b)
    ar = Arith(field)
    # columns: coefficients on A-rows then B-rows; rows: coordinates
    data = []
    for j in range(dim):
        row = [field.coerce_raw(rows_a[i][j]) for i in range(ka)]
        row += [ar.neg(field.coerce_raw(rows_b[i][j])) for i in range(kb)]
        data.append(row)
    m = Matrix.from_rows(field, data)
    combos = kernel_basis(m)
    vectors = []
    for combo in combos:
        vec = [
            ar.dot(combo[:ka], [field.coerce_raw(rows_a[i][j]) for i in range(ka)])
            for j in range(dim)
        ]
        vectors.append(vec)
    return echelon(field, vectors, dim)


def contains(field, rows, vec, dim):
    """Row-space membership."""
    base = echelon(field, rows, dim)
    grown = echelon(field, list(base) + [vec], dim)
    return len(grown) == len(base)


def subspace_pair_canonical(field, a: PartitionedMatrix, xs, ys):
    """Canonical form of a per-block subspace pair: per-block echelon bases."""
    return tuple(
        tuple(echelon(field, b, d) for b, d in zip(bases, dims))
        for bases, dims in ((xs, a.row_blocks), (ys, a.col_blocks))
    )


# reference checks ---------------------------------------------------------


def is_stable_block(a: PartitionedMatrix, alpha: int, beta: int, x_basis, y_basis) -> bool:
    """Stability of one block against explicit bases (raw integer rows):
    x^T B y = 0 for every basis pair."""
    block = a.block(alpha, beta)
    if any(len(x) != block.rows for x in x_basis) or any(
        len(y) != block.cols for y in y_basis
    ):
        raise ValueError(f"basis of block ({alpha}, {beta}) has the wrong length")
    ar = Arith(a.field)
    entries = dense(block)
    columns = [entries[j :: block.cols] for j in range(block.cols)]
    return all(
        ar.dot([ar.dot(x, col) for col in columns], y) == a.field.zero_raw
        for x in x_basis
        for y in y_basis
    )


def is_stable(a: PartitionedMatrix, x_bases, y_bases) -> bool:
    """Definition check: x^T A_block y vanishes for every basis pair, on the
    raw blocks of A; basis vectors are tuples of raw values or rows of integers."""
    if len(x_bases) != a.mu or len(y_bases) != a.nu:
        raise ValueError("one basis list per block is required")
    return all(
        is_stable_block(a, alpha, beta, x_bases[alpha], y_bases[beta])
        for alpha in range(a.mu)
        for beta in range(a.nu)
    )


def monic_directions(p: int, dim: int) -> list[tuple]:
    """All monic vectors of GF(p)^dim in colexicographic order, found by
    enumerating every vector of the space and keeping those led by a 1."""
    vecs = [()]
    for _ in range(dim):
        vecs = [v + (r,) for r in range(p) for v in vecs]
    # vecs were built most-significant-last, so plain order is colex already
    return [v for v in vecs if next((x for x in v if x), None) == 1]


def colex_key(v) -> tuple:
    """The canonical order of hyperplane vertices on the normals' own
    values: block first, then the normal read from its last entry to its
    first.  The reference for the int keys ``build_stability_graph`` sorts
    on."""
    return (v.block, v.normal[::-1])


def gaussian_binomial(d: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^d."""
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (d - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def classic_dm_check(a: PartitionedMatrix) -> tuple[int, int]:
    """Bipartite matching on the nonzero pattern for the all-1x1 partition.

    Returns (matching size, n + m - matching size); the independent matching
    on such instances must agree because both side matroids are free."""
    if any(b != 1 for b in a.row_blocks) or any(b != 1 for b in a.col_blocks):
        raise ValueError("classic check requires unit blocks on both sides")
    n, m = a.matrix.rows, a.matrix.cols
    zero = a.field.zero_raw
    adj = [
        [j for j, x in enumerate(a.matrix.row_raw(i)) if x != zero] for i in range(n)
    ]
    match_of_col = [-1] * m

    def try_augment(root: int, seen: list[bool]) -> bool:
        """Depth-first search for an augmenting path from ``root``; the stack
        is explicit so that long paths need no recursion."""
        stack = [(root, iter(adj[root]))]
        taken: list[int] = []  # the column leading from stack[k] to stack[k + 1]
        while stack:
            j = next((j for j in stack[-1][1] if not seen[j]), None)
            if j is None:
                stack.pop()
                if taken:
                    taken.pop()
                continue
            seen[j] = True
            taken.append(j)
            if match_of_col[j] == -1:
                for (row, _), col in zip(stack, taken):
                    match_of_col[col] = row
                return True
            stack.append((match_of_col[j], iter(adj[match_of_col[j]])))
        return False

    size = 0
    for i in range(n):
        if try_augment(i, [False] * m):
            size += 1
    return size, n + m - size


# matroid closure and the minimum cover ----------------------------------


class SideMatroid:
    """One side's vector matroid from the definition, element i the side's
    vertex i: a set's rank is the sum over blocks of the rank of its normals
    in the block by ``reference_rref``, and its closure adds every vertex
    whose normal leaves the rank unchanged."""

    def __init__(self, field, vertices):
        self.field, self.vertices = field, vertices

    def rank(self, subset) -> int:
        by_block: dict[int, list] = {}
        for i in set(subset):
            by_block.setdefault(self.vertices[i].block, []).append(self.vertices[i].normal)
        return sum(reference_rref(Matrix.from_rows(self.field, rows)).rank
                   for rows in by_block.values())

    def closure(self, subset) -> set[int]:
        subset, rank = set(subset), self.rank(subset)
        return {j for j in range(len(self.vertices)) if self.rank(subset | {j}) == rank}


def matroid_pi(g: StabilityGraph) -> SideMatroid:
    """The row side's matroid on its own, element i the row-side vertex i."""
    return SideMatroid(g.field, g.pi)


def matroid_sigma(g: StabilityGraph) -> SideMatroid:
    """The column side's matroid on its own, element j the column-side vertex j."""
    return SideMatroid(g.field, g.sigma)


def reference_bfs(adjacency: dict, starts, targets=()) -> tuple[dict, int | None]:
    """Breadth-first search of the digraph ``adjacency`` maps each node to
    the (head, edge) out-arcs of, read in the stored order, from ``starts``
    seeded in order: the arc (tail, edge) each reached node was first entered
    by (None for a start), and the first node of ``targets`` reached, where
    it stops, or None.  It reads only the dict, so it checks the library's
    search, which reads the matching state's lists in place."""
    parent = {v: None for v in starts}
    frontier = list(parent)
    while frontier:
        later = []
        for v in frontier:
            for w, edge in adjacency[v]:
                if w in parent:
                    continue
                parent[w] = (v, edge)
                if w in targets:
                    return parent, w
                later.append(w)
        frontier = later
    return parent, None


def matched_sides(state: IndependentMatchingState) -> tuple[set[int], set[int]]:
    """The matched row-side vertices and the matched column-side ones, each
    by its index on its own side."""
    npi = state.graph.n_pi
    return {v for v in state.matched if v < npi}, {v - npi for v in state.matched if v >= npi}


@dataclass(frozen=True)
class Cover:
    """Vertex sets meeting every edge; H on the row side, K on the column side."""

    H: frozenset[int]
    K: frozenset[int]


def min_cover(state: IndependentMatchingState) -> Cover:
    """The canonical minimum cover read off the reachability set of the
    sources; requires the matching to be maximum."""
    c0, _ = reachability_sets(state)
    if c0 & set(state.sinks):
        raise ValueError("matching is not maximum: an augmenting path exists")
    npi = state.graph.n_pi
    h = frozenset(i for i in range(npi) if i not in c0)
    k = frozenset(j for j in range(state.graph.n_sigma) if npi + j in c0)
    return Cover(h, k)


def cover_value(g: StabilityGraph, cover: Cover) -> int:
    return matroid_pi(g).rank(cover.H) + matroid_sigma(g).rank(cover.K)
