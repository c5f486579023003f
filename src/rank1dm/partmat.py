"""Partitioned matrices, the rank-1 block condition, and the stability graph.

A partitioned matrix is a matrix, stored by its nonzeros, together with row
and column block sizes.  What depends on A alone is derived once per matrix, for
``dm_decompose`` and ``verify`` alike: each nonzero block's factorization
coeff * u^T v with monic u and v (a block of rank >= 2 breaks the rank-1
condition, which factoring reports), born with their int forms, and the
frozen stability graph, which keys, orders and hands its matching states
those int normals and derives once what the states read.  E's and F's
column parts have one int form, cleared once per call.  A vector is a tuple
of raw values of the field its container records.  The u's become hyperplane
vertices on the row side (one vertex per distinct kernel of a block
transpose, per block row) and the v's on the column side.  Each rank-1 block
contributes one edge joining its pair of vertices.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import accumulate, pairwise, product
from math import lcm
from operator import mul
from typing import NamedTuple

from .field import QQ, Field
from .linalg import Matrix, Rank1Factor, rank1_of


class RankConditionViolated(ValueError):
    """Some block has rank 2 or more; offending (alpha, beta) pairs attached."""

    def __init__(self, offenders: list[tuple[int, int]]):
        self.offenders = offenders
        pretty = ", ".join(f"({a + 1},{b + 1})" for a, b in offenders)
        super().__init__(f"blocks of rank >= 2 at {pretty}")


class _Derives:
    """Mixin, listed first, for a NamedTuple subclass that derives what its
    fields determine into its ``__dict__``: no attribute is assigned after
    ``__new__``, and ``_replace`` builds its copy through the constructor."""

    __slots__ = ()

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    __delattr__ = __setattr__

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class _Partition(NamedTuple):
    matrix: Matrix
    row_blocks: tuple[int, ...]
    col_blocks: tuple[int, ...]


class PartitionedMatrix(_Derives, _Partition):
    """A matrix with block structure (n_1 .. n_mu ; m_1 .. m_nu)."""

    def __new__(cls, matrix: Matrix, row_blocks, col_blocks):
        self = super().__new__(cls, matrix, tuple(row_blocks), tuple(col_blocks))
        if not self.row_blocks or not self.col_blocks:
            raise ValueError("at least one block per side is required")
        # a bool or a float compares like an int, yet it is not a block size
        if any(type(s) is not int or s <= 0 for s in self.row_blocks + self.col_blocks):
            raise ValueError("block sizes must be positive ints")
        if sum(self.row_blocks) != self.matrix.rows:
            raise ValueError("row block sizes do not sum to the row count")
        if sum(self.col_blocks) != self.matrix.cols:
            raise ValueError("column block sizes do not sum to the column count")
        return self

    @property
    def field(self) -> Field:
        return self.matrix.field

    @property
    def mu(self) -> int:
        return len(self.row_blocks)

    @property
    def nu(self) -> int:
        return len(self.col_blocks)

    @cached_property
    def row_offsets(self) -> tuple[int, ...]:
        return tuple(accumulate(self.row_blocks, initial=0))

    @cached_property
    def col_offsets(self) -> tuple[int, ...]:
        return tuple(accumulate(self.col_blocks, initial=0))

    @cached_property
    def factors(self) -> dict[tuple[int, int], Rank1Factor]:
        """The factor of every nonzero block, keyed by (alpha, beta) in
        row-major block order; zero blocks are left out.  Each row of a band
        is cut once into the runs of its stored entries in one block, and
        each block is factored on its runs.  Raises ValueError when A stores
        a value that is not a carrier of its field, and RankConditionViolated,
        naming every block of rank 2 or more."""
        fld, ro, co, idx, vals = (self.field, self.row_offsets, self.col_offsets,
                                  self.matrix.indices, self.matrix.values)
        if not fld.carries([x for row in vals for x in row]):
            raise ValueError(f"A stores a value that is not a value of {fld}")
        block_of = [beta for beta, size in enumerate(self.col_blocks) for _ in range(size)]
        out = {}
        for alpha in range(self.mu):
            height, runs = ro[alpha + 1] - ro[alpha], {}
            for r, i in enumerate(range(ro[alpha], ro[alpha + 1])):
                js, xs, k = idx[i], vals[i], 0
                while k < len(js):
                    beta = block_of[js[k]]
                    end = bisect_left(js, co[beta + 1], k)
                    if beta not in runs:  # the shared empty rows are only read
                        runs[beta] = [[]] * height, [[]] * height
                    runs[beta][0][r], runs[beta][1][r] = js[k:end], xs[k:end]
                    k = end
            for beta in sorted(runs):
                out[alpha, beta] = rank1_of(fld, co[beta + 1] - co[beta], co[beta], *runs[beta])
        if offenders := [key for key, fac in out.items() if fac.rank >= 2]:
            raise RankConditionViolated(offenders)
        return out

    @cached_property
    def graph(self) -> StabilityGraph:
        """The stability graph, built once per matrix; see ``build_stability_graph``."""
        fld, factors = self.field, self.factors.items()
        pi, pints, pis = _vertices(fld, [(a, fac.u, fac.ints[2]) for (a, _), fac in factors])
        sigma, sints, sigmas = _vertices(fld, [(b, fac.v, fac.ints[3]) for (_, b), fac in factors])
        edges, ints = tuple(map(Edge, pis, sigmas)), pints + sints
        return StabilityGraph(fld, self.row_blocks, self.col_blocks, pi, sigma, edges, ints)

    def transform(self, e: Matrix, f: Matrix) -> Matrix:
        """E^T A F, the sum of A's ``_terms``, exact for any E with n rows and F
        with m; for admissible E and F every entry gets at most one term.
        Raises RankConditionViolated when a block of A has rank 2 or more."""
        fld, p = self.field, self.field.p
        if (e.field, f.field, e.rows, f.rows) != (fld, fld, self.matrix.rows, self.matrix.cols):
            raise ValueError("E^T A F needs E and F over A's field with n and m rows")
        out: list[dict] = [{} for _ in range(e.cols)]
        for i, s, d, qs in _terms(self, column_parts(e, self.row_offsets),
                                  column_parts(f, self.col_offsets)):
            row = out[i]
            for j, q in qs:
                t = s * q % p if p else QQ.ratio(s * q, d)
                # only a non-admissible E or F sends a second term here, and a sum may cancel
                if j in row and not (t := fld.canon(row.pop(j) + t)):
                    continue
                row[j] = t
        indices = list(map(sorted, out))
        values = [list(map(row.__getitem__, js)) for row, js in zip(out, indices)]
        return Matrix(fld, e.cols, f.cols, indices, values)

    def block(self, alpha: int, beta: int) -> Matrix:
        """The submatrix at block position (alpha, beta), zero-based."""
        if not (0 <= alpha < self.mu and 0 <= beta < self.nu):
            raise IndexError(f"block ({alpha}, {beta}) out of range")
        ro, co = self.row_offsets, self.col_offsets
        return self.matrix.submatrix(ro[alpha], ro[alpha + 1], co[beta], co[beta + 1])


def column_parts(mat: Matrix, offsets: tuple[int, ...]) -> list[tuple[int, list]]:
    """Per block of ``offsets``, (d, cols): each column of ``mat`` nonzero in
    it as (column index, d times its entries in the block), read off the block
    rows' stored entries and cleared once by ``field.cleared`` (d = 1 over GF(p))."""
    cleared, parts = mat.field.cleared, []
    for lo, hi in pairwise(offsets):
        cols: dict[int, list] = {}
        for r, (idx, vals) in enumerate(zip(mat.indices[lo:hi], mat.values[lo:hi])):
            for j, x in zip(idx, vals):
                if j not in cols:
                    cols[j] = [0] * (hi - lo)
                cols[j][r] = x
        d, ints = cleared(list(cols.values()))
        parts.append((d, sorted(zip(cols, ints))))
    return parts


def _terms(a: PartitionedMatrix, e_parts, f_parts):
    """The terms of E^T A F by result row, as (i, s, d, qs): s q / d adds to
    entry (i, j) for each (j, q) in qs, given E's ``column_parts`` on A's row
    offsets and F's on its column offsets.  Block (alpha, beta) = c u^T v
    gives the outer product of s_i = c (u . rows alpha of E's column i) and
    q_j = v . rows beta of F's column j, on the parts' ints and the int
    forms the factors were born with, over one denominator, each dot an int
    sum, reduced mod p over GF(p), where d is 1 and s unreduced."""
    p = a.field.p
    dot = (lambda xs, ys: sum(map(mul, xs, ys)) % p) if p else lambda xs, ys: sum(map(mul, xs, ys))
    for (alpha, beta), fac in a.factors.items():
        c, d, u, v = fac.ints
        (dx, xs), (dy, ys) = e_parts[alpha], f_parts[beta]
        d *= dx * dy
        if qs := [(j, q) for j, y in ys if (q := dot(v, y))]:
            for i, x in xs:
                if s := c * dot(x, u):
                    yield i, s, d, qs


def product_matches(a: PartitionedMatrix, e_parts, f_parts, a_dm: Matrix) -> bool:
    """Whether ``a_dm``, a well-formed matrix of carriers, is E^T A F, read
    off the ``_terms`` of E's and F's column parts with no product built:
    each stored entry less the terms that land on it, kept exactly (an int
    pair n/d over QQ once a term landed, a residue over GF(p)) and dropped
    at zero, and each entry that only terms land on, must come to zero."""
    p = a.field.p
    rest = [dict(zip(idx, vals)) for idx, vals in zip(a_dm.indices, a_dm.values)]
    for i, s, d, qs in _terms(a, e_parts, f_parts):
        row = rest[i]
        for j, q in qs:
            x = row.pop(j, 0)
            if p:
                x = (x - s * q) % p
            else:
                xn, xd = x if type(x) is tuple else (x.numerator, x.denominator)
                xn = xn * d - s * q * xd
                x = (xn, xd * d) if xn else 0
            if x:
                row[j] = x
    return not any(rest)  # no entry is left


class HyperplaneVertex(NamedTuple):
    """A hyperplane inside one block space, identified by its monic normal."""

    block: int
    normal: tuple


class Edge(NamedTuple):
    """One rank-1 block seen as an edge of the stability graph: the indices
    of its row-side and column-side vertices, whose blocks are the edge's."""

    pi: int
    sigma: int


class _Graph(NamedTuple):
    field: Field
    row_blocks: tuple[int, ...]
    col_blocks: tuple[int, ...]
    pi: tuple[HyperplaneVertex, ...]
    sigma: tuple[HyperplaneVertex, ...]
    edges: tuple[Edge, ...]


class StabilityGraph(_Derives, _Graph):
    """Bipartite graph on the row-side and column-side hyperplane vertices.

    Vertices are listed in the canonical order (block index, then
    colexicographic order of the monic normal); edges follow the row-major
    block order of their source blocks.  Frozen, on tuples: no holder changes what it
    compares.  ``ints``, the normals on ints (pi, then sigma) from A's factors, spares
    ``nodes``; ``heights`` maps a matching to its poset's h, once derived.  Neither is
    compared, hashed or printed, and each graph, a ``_replace`` copy too, starts its own."""

    def __new__(cls, field: Field, row_blocks, col_blocks, pi=(), sigma=(), edges=(),
                ints: list | None = None):
        self = super().__new__(cls, field, row_blocks, col_blocks, pi, sigma, edges)
        self.__dict__.update(ints=ints, heights={})
        return self

    @cached_property
    def nodes(self) -> tuple[list, list, list, list, list]:
        """What every matching state on the graph reads, derived once: node v's
        matroid block, column-side blocks after the mu row blocks; each node's
        (other end, edge index) pairs; each block's members, ascending; the
        normals on ints (a positive scale keeps every support); and each
        block's memo shelf, shared by its kind (its size and its members' int
        normals, all an elimination reads).  ValueError on a misfit vertex."""
        npi, mu, vertices = self.n_pi, len(self.row_blocks), self.pi + self.sigma
        for side, dims in ((self.pi, self.row_blocks), (self.sigma, self.col_blocks)):
            if any(not 0 <= v.block < len(dims) or len(v.normal) != dims[v.block] for v in side):
                raise ValueError("vertex block index out of range or normal not of its length")
        blocks = [v.block for v in self.pi] + [mu + v.block for v in self.sigma]
        ends: list[list[tuple[int, int]]] = [[] for _ in blocks]
        for k, (i, j) in enumerate(self.edges):
            ends[i].append((npi + j, k))
            ends[npi + j].append((i, k))
        dims, kinds = self.row_blocks + self.col_blocks, {}
        members: list[list[int]] = [[] for _ in dims]
        for v, blk in enumerate(blocks):
            members[blk].append(v)
        ints = self.ints or [*map(tuple, self.field.cleared([v.normal for v in vertices])[1])]
        shelves = [kinds.setdefault((dim, *map(ints.__getitem__, ms)), {})
                   for dim, ms in zip(dims, members)]
        return blocks, ends, members, ints, shelves

    @property
    def n_pi(self) -> int:
        return len(self.pi)

    @property
    def n_sigma(self) -> int:
        return len(self.sigma)

    def pi_label(self, i: int) -> str:
        v = self.pi[i]
        return vertex_label(self.field, v.block, v.normal, "")

    def sigma_label(self, j: int) -> str:
        v = self.sigma[j]
        return vertex_label(self.field, v.block, v.normal, "'")

    def node_label(self, v: int) -> str:
        """The name of auxiliary-digraph node ``v``: row-side vertices come
        first, then the column-side ones shifted by ``n_pi``."""
        return self.pi_label(v) if v < self.n_pi else self.sigma_label(v - self.n_pi)


def vertex_label(field: Field, block: int, normal: tuple, mark: str) -> str:
    """The name of a hyperplane vertex, as every document prints it.

    A name is the 1-based block number, then ``mark`` (empty on the row
    side, ``'`` on the column side), then a tag.  Over GF(p), when the block
    space GF(p)^dim holds at most 26 monic directions, the tag is a letter
    a, b, c, ... by the normal's colexicographic rank among them, as in
    ``2c`` or ``3'a``.  Otherwise it is ``v`` and the entries joined by
    ``_``, as in ``9'v1_25_81`` over GF(101) or ``2'v1_1_-1/3`` over QQ."""
    letters = _direction_letters(field.p, len(normal)) if field.p else None
    tag = letters[normal] if letters else "v" + "_".join(map(field.format, normal))
    return f"{block + 1}{mark}{tag}"


@lru_cache(maxsize=None)
def _direction_letters(p: int, dim: int) -> dict[tuple, str]:
    """Each monic direction of GF(p)^dim with its letter by colex rank, or
    an empty table when there are more than 26 of them.  A monic vector is
    a 1 at its leading position and any tail after it, so at most 26 are
    ever built and the field is never enumerated."""
    if (p**dim - 1) // (p - 1) > 26:
        return {}
    monic = sorted(
        ((0,) * k + (1,) + t for k in range(dim) for t in product(range(p), repeat=dim - k - 1)),
        key=lambda v: v[::-1],
    )
    return {v: chr(ord("a") + r) for r, v in enumerate(monic)}


def _vertices(field: Field, ends: list[tuple[int, tuple, tuple]]) -> tuple[tuple, list, list[int]]:
    """The distinct (block, normal) pairs of (block, normal, int form) ``ends`` as
    vertices in the canonical order, their int forms, and each end's vertex
    index.  Keys are int forms read last entry first; over QQ the order scales
    each by D / d, d its leading entry and D the lcm of every d in its block,
    so order and equality are the carriers' and no Fraction is sorted or hashed."""
    keys = [(blk, ints[::-1]) for blk, _, ints in ends]
    vertex = dict(zip(keys, ends))
    if field.p:
        order = sorted(vertex)
    else:
        lead, scale = {k: next(filter(None, reversed(k[1]))) for k in vertex}, {}
        for (blk, _), d in lead.items():  # only a block's vertices are compared
            scale[blk] = lcm(scale.get(blk, 1), d)
        order = sorted(vertex, key=lambda k: (k[0], [*map((scale[k[0]] // lead[k]).__mul__, k[1])]))
    index = {k: i for i, k in enumerate(order)}
    chosen = [vertex[k] for k in order]
    vertices = tuple([HyperplaneVertex(blk, normal) for blk, normal, _ in chosen])
    return vertices, [ints for _, _, ints in chosen], [index[k] for k in keys]


def build_stability_graph(a: PartitionedMatrix) -> StabilityGraph:
    """The bipartite stability graph of a rank-1 partitioned matrix, built
    once per matrix and cached on it as ``a.graph``.

    Zero blocks contribute nothing; each rank-1 block (alpha, beta) with
    factorization coeff * u^T v adds the vertex u to the row side of block
    alpha, v to the column side of block beta (deduplicated by monic normal)
    and one edge between them.
    """
    return a.graph
