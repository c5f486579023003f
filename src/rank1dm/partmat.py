"""Partitioned matrices, the rank-1 block condition, and the stability graph.

A partitioned matrix is a dense matrix together with row and column block
sizes.  Its blocks are factored once per matrix: each nonzero block gets its
rank verdict and, at rank one, its factorization coeff * u^T v with monic u
and v.  The graph builder and the verifier both read those factors.  The u's
become hyperplane vertices on the row side (one vertex per distinct kernel of
a block transpose, per block row) and the v's on the column side.  Each
rank-1 block contributes one edge joining its pair of vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Any

from .field import Field, PrimeField
from .linalg import Matrix, Rank1Factor, Vector, rank1_factor


class RankConditionViolated(ValueError):
    """Some block has rank 2 or more; offending (alpha, beta) pairs attached."""

    def __init__(self, offenders: list[tuple[int, int]]):
        self.offenders = offenders
        pretty = ", ".join(f"({a + 1},{b + 1})" for a, b in offenders)
        super().__init__(f"blocks of rank >= 2 at {pretty}")


@dataclass(frozen=True)
class PartitionedMatrix:
    """A matrix with block structure (n_1 .. n_mu ; m_1 .. m_nu)."""

    matrix: Matrix
    row_blocks: tuple[int, ...]
    col_blocks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "row_blocks", tuple(self.row_blocks))
        object.__setattr__(self, "col_blocks", tuple(self.col_blocks))
        if not self.row_blocks or not self.col_blocks:
            raise ValueError("at least one block per side is required")
        if any(n <= 0 for n in self.row_blocks) or any(m <= 0 for m in self.col_blocks):
            raise ValueError("block sizes must be positive")
        if sum(self.row_blocks) != self.matrix.rows:
            raise ValueError("row block sizes do not sum to the row count")
        if sum(self.col_blocks) != self.matrix.cols:
            raise ValueError("column block sizes do not sum to the column count")

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
        row-major block order; zero blocks are left out."""
        out = {}
        for alpha in range(self.mu):
            for beta in range(self.nu):
                fac = rank1_factor(self.block(alpha, beta))
                if fac.rank:
                    out[alpha, beta] = fac
        return out

    def transform(self, e: Matrix, f: Matrix) -> Matrix:
        """E^T A F from A's factors, exact for any E with n rows and F with m.

        Block (alpha, beta) = c u^T v adds the outer product of p and q,
        where p_i = c (u . rows alpha of E's column i), for each column i of
        E nonzero in those rows, and q_j = v . rows beta of F's column j,
        for each column j of F nonzero in them.  For admissible E and F
        every entry gets at most one term.  Raises RankConditionViolated
        when a block of A has rank 2 or more."""
        factors = check_rank1_condition(self)
        fld = self.field
        if (e.field, f.field, e.rows, f.rows) != (fld, fld, self.matrix.rows, self.matrix.cols):
            raise ValueError("E^T A F needs E and F over A's field with n and m rows")
        e_parts = column_parts(e, self.row_offsets)
        f_parts = column_parts(f, self.col_offsets)
        zero, mul, add, dot = fld.zero_raw, fld.mul, fld.add, fld.dot
        width = f.cols
        out = [zero] * (e.cols * width)
        for (alpha, beta), fac in factors.items():
            u, v = fac.u.data, fac.v.data
            qs = [(j, q) for j, y in f_parts[beta] if (q := dot(v, y))]
            for i, x in e_parts[alpha]:
                if p := dot(x, u):
                    p = mul(fac.coeff, p)
                    for j, q in qs:
                        k = i * width + j
                        # only a non-admissible E or F sends a second term here
                        out[k] = mul(p, q) if out[k] is zero else add(out[k], mul(p, q))
        return Matrix(fld, e.cols, width, out)

    def block(self, alpha: int, beta: int) -> Matrix:
        """The submatrix at block position (alpha, beta), zero-based."""
        if not (0 <= alpha < self.mu and 0 <= beta < self.nu):
            raise IndexError(f"block ({alpha}, {beta}) out of range")
        ro, co = self.row_offsets, self.col_offsets
        return self.matrix.submatrix(ro[alpha], ro[alpha + 1], co[beta], co[beta + 1])


def column_parts(mat: Matrix, offsets: tuple[int, ...]) -> list[list[tuple[int, list]]]:
    """Per block of ``offsets``, each column of ``mat`` that is nonzero in
    it, as (column index, its entries in the block).  Both carriers, 0 and
    Fraction(0), are false exactly at zero, so ``any`` finds the support."""
    bounds = list(zip(offsets, offsets[1:]))
    parts: list[list[tuple[int, list]]] = [[] for _ in bounds]
    for i in range(mat.cols):
        col = mat.data[i :: mat.cols]
        for part, (lo, hi) in zip(parts, bounds):
            if any(x := col[lo:hi]):
                part.append((i, x))
    return parts


@dataclass(frozen=True)
class HyperplaneVertex:
    """A hyperplane inside one block space, identified by its monic normal."""

    block: int
    normal: Vector

    def sort_key(self):
        return (self.block, self.normal.colex_key())


def check_rank1_condition(a: PartitionedMatrix) -> dict[tuple[int, int], Rank1Factor]:
    """A's factors; raise RankConditionViolated if a block has rank >= 2."""
    offenders = [key for key, fac in a.factors.items() if fac.rank >= 2]
    if offenders:
        raise RankConditionViolated(offenders)
    return a.factors


@dataclass(frozen=True)
class Edge:
    """One rank-1 block seen as an edge of the stability graph."""

    pi: int
    sigma: int
    alpha: int
    beta: int
    coeff: Any


@dataclass
class StabilityGraph:
    """Bipartite graph on the row-side and column-side hyperplane vertices.

    Vertices are listed in the canonical order (block index, then
    colexicographic order of the monic normal); edges follow the row-major
    block order of their source blocks.
    """

    field: Field
    row_blocks: tuple[int, ...]
    col_blocks: tuple[int, ...]
    pi: list[HyperplaneVertex] = dc_field(default_factory=list)
    sigma: list[HyperplaneVertex] = dc_field(default_factory=list)
    edges: list[Edge] = dc_field(default_factory=list)

    @property
    def n_pi(self) -> int:
        return len(self.pi)

    @property
    def n_sigma(self) -> int:
        return len(self.sigma)

    def pi_label(self, i: int) -> str:
        v = self.pi[i]
        return row_vertex_label(self.field, v.block, v.normal)

    def sigma_label(self, j: int) -> str:
        v = self.sigma[j]
        return col_vertex_label(self.field, v.block, v.normal)


def _monic_directions(p: int, dim: int) -> list[tuple]:
    """All monic vectors of GF(p)^dim in colexicographic order."""
    vecs = [()]
    for _ in range(dim):
        vecs = [(v + (r,)) for r in range(p) for v in vecs]
    # vecs were built most-significant-last, so plain order is colex already
    out = []
    for v in vecs:
        lead = next((x for x in v if x != 0), None)
        if lead == 1:
            out.append(tuple(v))
    return out


@lru_cache(maxsize=None)
def _direction_index_table(p: int, dim: int) -> dict[tuple, int]:
    return {v: k for k, v in enumerate(_monic_directions(p, dim))}


def _direction_tag(field: Field, normal: Vector) -> str:
    """Short name for a monic normal: letters a, b, c, ... by colex rank
    among all monic directions when the field and dimension are small enough,
    otherwise a positional fallback."""
    if isinstance(field, PrimeField):
        dim = len(normal)
        count = (field.p**dim - 1) // (field.p - 1)
        if count <= 26:
            table = _direction_index_table(field.p, dim)
            return chr(ord("a") + table[normal.data])
    return "v" + "_".join(field.format(x) for x in normal.data)


def row_vertex_label(field: Field, block: int, normal: Vector) -> str:
    """Display name of a row-side direction, e.g. ``2c`` for block 2."""
    return f"{block + 1}{_direction_tag(field, normal)}"


def col_vertex_label(field: Field, block: int, normal: Vector) -> str:
    """Display name of a column-side direction, e.g. ``3'a`` for block 3."""
    return f"{block + 1}'{_direction_tag(field, normal)}"


def build_stability_graph(a: PartitionedMatrix) -> StabilityGraph:
    """Build the bipartite stability graph of a rank-1 partitioned matrix.

    Zero blocks contribute nothing; each rank-1 block (alpha, beta) with
    factorization coeff * u^T v adds the vertex u to the row side of block
    alpha, v to the column side of block beta (deduplicated by monic normal)
    and one edge between them carrying coeff.
    """
    factors = check_rank1_condition(a)
    g = StabilityGraph(a.field, a.row_blocks, a.col_blocks)

    # keyed by raw coordinates: every normal is over A's field
    pi_seen: dict[tuple[int, tuple], Vector] = {}
    sigma_seen: dict[tuple[int, tuple], Vector] = {}
    for (alpha, beta), fac in factors.items():
        pi_seen.setdefault((alpha, fac.u.data), fac.u)
        sigma_seen.setdefault((beta, fac.v.data), fac.v)

    g.pi = sorted(
        (HyperplaneVertex(blk, nrm) for (blk, _), nrm in pi_seen.items()),
        key=HyperplaneVertex.sort_key,
    )
    g.sigma = sorted(
        (HyperplaneVertex(blk, nrm) for (blk, _), nrm in sigma_seen.items()),
        key=HyperplaneVertex.sort_key,
    )
    pi_index = {(v.block, v.normal.data): i for i, v in enumerate(g.pi)}
    sigma_index = {(v.block, v.normal.data): j for j, v in enumerate(g.sigma)}
    g.edges = [
        Edge(pi_index[alpha, fac.u.data], sigma_index[beta, fac.v.data], alpha, beta, fac.coeff)
        for (alpha, beta), fac in factors.items()
    ]
    return g
