"""Dense exact linear algebra over a Field.

Elimination is one exact Gauss-Jordan on int rows: GF(p) residues reduce
mod p, and rational rows are cleared of denominators and eliminated
fraction-free.  ``rref`` builds ``Fraction``s only for its result;
``span_supports``, which the vector matroid calls, reads only which
coefficients are nonzero, so it builds no Matrix and no Fraction.  The
pivot is always the first nonzero entry in column order, so every result is
deterministic and there is no numerical tolerance anywhere.  A vector (a
normal, a dual or a basis vector) is a tuple of raw carrier values of the
field its container records; a matrix holds raw values too, read through
``data`` and ``raw``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd
from typing import Any, NamedTuple, Sequence

from .field import Field


class Matrix:
    """Dense exact matrix of raw field values, stored row-major."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, raw_data: list):
        if len(raw_data) != rows * cols:
            raise ValueError("entry count does not match the shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = raw_data

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        data = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            data.extend(field.coerce_raw(v) for v in r)
        return cls(field, nrows, ncols, data)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, [field.zero_raw] * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.data[i * n + i] = field.one_raw
        return m

    def raw(self, i: int, j: int):
        return self.data[i * self.cols + j]

    def row_raw(self, i: int) -> list:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def transpose(self) -> "Matrix":
        data = [self.data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return Matrix(self.field, self.cols, self.rows, data)

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        data = []
        for i in range(r0, r1):
            data.extend(self.data[i * self.cols + c0 : i * self.cols + c1])
        return Matrix(self.field, r1 - r0, c1 - c0, data)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch in matrix product")
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        f = self.field
        zero = f.zero_raw
        n, k, m = self.rows, self.cols, other.cols
        brows = [other.data[t * m : (t + 1) * m] for t in range(k)]
        data = []
        for i in range(n):
            # only the row's nonzero positions enter (E^T is mostly zero)
            arow = self.data[i * k : (i + 1) * k]
            support = [t for t, x in enumerate(arow) if x != zero]
            if not support:
                data.extend([zero] * m)
                continue
            vals = [arow[t] for t in support]
            data.extend(f.dot(vals, col) for col in zip(*(brows[t] for t in support)))
        return Matrix(f, n, m, data)

    def __eq__(self, other):
        if isinstance(other, Matrix):
            return (
                self.field == other.field
                and self.rows == other.rows
                and self.cols == other.cols
                and self.data == other.data
            )
        return NotImplemented

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(map(fmt, self.row_raw(i))) for i in range(self.rows))
        return f"Matrix[{self.rows}x{self.cols}: {body}]"


class RrefResult(NamedTuple):
    R: Matrix
    pivots: list[int]
    rank: int


def _gauss_jordan(rows: list[list[int]], ncols: int, p: int) -> list[int]:
    """Gauss-Jordan on int rows, in place; returns the pivot columns.  Mod p
    a pivot row is scaled to a leading 1 and a row updates as (v - c w) mod
    p; for p = 0 a row updates fraction-free as a v - c w over its content,
    a the pivot.  Every pivot column ends zero outside its pivot row, and
    the rows past the rank end zero."""
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols):
        if pr == len(rows):
            break
        for i in range(pr, len(rows)):
            if rows[i][pc]:
                break
        else:
            continue
        rows[pr], rows[i] = rows[i], rows[pr]
        prow = rows[pr]
        a = prow[pc]
        if p and a != 1:
            s = pow(a, -1, p)
            rows[pr] = prow = [s * v % p for v in prow]
        for k, row in enumerate(rows):
            if k == pr or not (c := row[pc]):
                continue
            if p:
                rows[k] = [(v - c * w) % p for v, w in zip(row, prow)]
            else:
                row = [a * v - c * w for v, w in zip(row, prow)]
                g = gcd(*row)
                rows[k] = [v // g for v in row] if g > 1 else row
        pivots.append(pc)
        pr += 1
    return pivots


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form, pivot columns and rank, by Gauss-Jordan on
    int rows: rational rows are scaled by the lcm of their denominators, and
    become Fractions only in the result, each pivot row over its entry at
    its pivot column."""
    f, ncols = m.field, m.cols
    rows = [m.data[i * ncols : (i + 1) * ncols] for i in range(m.rows)]
    if not f.p:
        rows = f.cleared(rows)[1]
    pivots = _gauss_jordan(rows, ncols, f.p)
    if not f.p:  # rows past the rank are zero, so their missing pivot is never read
        zero = f.zero_raw
        rows = [
            [Fraction(v, row[pc]) if v else zero for v in row]
            for row, pc in zip_longest(rows, pivots)
        ]
    flat = [v for row in rows for v in row]
    return RrefResult(Matrix(f, m.rows, ncols, flat), pivots, len(pivots))


def span_supports(
    p: int, dim: int, basis: Sequence[Sequence[int]], candidates: Sequence[Sequence[int]]
) -> tuple[int, list[list[int] | None]]:
    """The rank of ``basis``, and per candidate the ascending positions of
    the basis vectors with a nonzero coefficient when the candidate is
    written in them, or None outside their span.  Vectors are ints of length
    ``dim``: residues mod p, or for p = 0 rational vectors times a positive
    scale, which keeps the supports.  One elimination of the columns [basis
    | candidates]: a candidate is in the span iff its column is zero in every
    row with a candidate pivot, and then its coefficient on a pivot row's
    basis vector is nonzero iff its entry there is (zero off the pivots)."""
    b = len(basis)
    vecs = [*basis, *candidates]
    rows = [[v[r] for v in vecs] for r in range(dim)]
    pivots = _gauss_jordan(rows, len(vecs), p)
    rank = sum(1 for c in pivots if c < b)
    return rank, [
        None if any(col[rank:]) else [pivots[r] for r in range(rank) if col[r]]
        for col in list(zip(*rows))[b:]
    ]


def extended(p: int, rows: Sequence[Sequence[int]], vec: Sequence[int]) -> list | None:
    """``rows`` and ``vec`` after one ``_gauss_jordan``, or None when ``vec``
    lies in the span of ``rows``, independent int vectors of its length.
    Rows kept in that reduced form cost a later vector one update each."""
    if len(rows) == len(vec):  # full rank: nothing is left
        return None
    rows = [*rows, vec]
    return rows if len(_gauss_jordan(rows, len(vec), p)) == len(rows) else None


@dataclass(frozen=True)
class Rank1Factor:
    """Verdict on a single block: rank 0, rank 1 with its factorization
    block = coeff * u^T v (u, v monic tuples, coeff a raw value), or rank >= 2."""

    rank: int
    u: tuple | None = None
    v: tuple | None = None
    coeff: Any = None


def rank1_factor(m: Matrix) -> Rank1Factor:
    """Classify a matrix as zero / rank one / higher rank.

    For rank one the unique factorization with monic u and v is returned:
    u spans the column space (as coordinates), v the row space, and
    m = coeff * u^T v holds entrywise.  coeff is the first nonzero entry in
    row-major order, in column j0.  The rank is decided on int rows, one
    comparison per row: over GF(p) a row r must equal r[j0] v mod p; over
    QQ, on rows cleared of denominators and with w the pivot row, w[j0] r
    must equal r[j0] w.
    """
    f, ncols = m.field, m.cols
    rows = [m.data[i * ncols : (i + 1) * ncols] for i in range(m.rows)]
    # 0 and Fraction(0) are the false carriers
    i0 = next((i for i, row in enumerate(rows) if any(row)), None)
    if i0 is None:
        return Rank1Factor(rank=0)
    c = next(filter(None, rows[i0]))
    j0 = rows[i0].index(c)
    if not f.p:
        ints = f.cleared(rows)[1]
        w = ints[i0]
        for r in ints:
            if [w[j0] * x for x in r] != [r[j0] * y for y in w]:
                return Rank1Factor(rank=2)
        v = [Fraction(y, w[j0]) for y in w]
        u = [row[j0] / c for row in rows]
    else:
        p, cinv = f.p, pow(c, -1, f.p)
        v = [cinv * x % p for x in rows[i0]]
        for row in rows:
            if row != [row[j0] * y % p for y in v]:
                return Rank1Factor(rank=2)
        u = [cinv * row[j0] % p for row in rows]
    return Rank1Factor(rank=1, u=tuple(u), v=tuple(v), coeff=c)
