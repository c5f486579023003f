"""Exact linear algebra over a Field, on matrices stored by their nonzeros.

A ``Matrix`` holds each row as its ascending column indices and their raw
values, with no zero stored.  Elimination is one exact Gauss-Jordan on int
rows: GF(p) residues reduce mod p, and rational rows are cleared of
denominators and eliminated fraction-free.  ``reduced`` turns back into
carriers only the columns its caller keeps, a ``Fraction`` only where an
entry is not an integer; ``span_supports``, which the matching state calls,
reads only which coefficients are nonzero, so it builds no Matrix and no
carrier.  The pivot is always the first nonzero entry in column order, so
every result is deterministic and there is no numerical tolerance anywhere.
A vector (a normal, a dual or a basis vector) is a tuple of raw carriers.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, compress, zip_longest
from math import gcd
from typing import Any, NamedTuple, Sequence

from .field import Field


class Matrix:
    """Exact matrix of raw field values, stored by rows of nonzeros: row i
    is ``indices[i]``, its ascending column indices, and ``values[i]``,
    the nonzero values at them."""

    __slots__ = ("field", "rows", "cols", "indices", "values")

    def __init__(self, field: Field, rows: int, cols: int, indices: list, values: list):
        if len(indices) != rows or len(values) != rows:
            raise ValueError("row count does not match the shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.indices = indices
        self.values = values

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Matrix":
        """The matrix of dense rows of values that ``coerce_raw`` reads; 0 is
        the false carrier, so ``compress`` leaves out the zeros."""
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        rows = [[field.coerce_raw(v) for v in r] for r in rows]
        return cls(field, len(rows), ncols, [list(compress(range(ncols), r)) for r in rows],
                   [list(compress(r, r)) for r in rows])

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, [[] for _ in range(rows)], [[] for _ in range(rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, n, n, [[i] for i in range(n)], [[field.one_raw] for _ in range(n)])

    def row_raw(self, i: int) -> list:
        """Row i with its zeros: a dense list of ``cols`` values."""
        row = [self.field.zero_raw] * self.cols
        for j, x in zip(self.indices[i], self.values[i]):
            row[j] = x
        return row

    def transpose(self) -> "Matrix":
        t = Matrix.zeros(self.field, self.cols, self.rows)
        for i, (idx, vals) in enumerate(zip(self.indices, self.values)):
            for j, x in zip(idx, vals):
                t.indices[j].append(i)
                t.values[j].append(x)
        return t

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "Matrix":
        indices, values = [], []
        for idx, vals in zip(self.indices[r0:r1], self.values[r0:r1]):
            lo, hi = bisect_left(idx, c0), bisect_left(idx, c1)
            indices.append([j - c0 for j in idx[lo:hi]])
            values.append(vals[lo:hi])
        return Matrix(self.field, r1 - r0, c1 - c0, indices, values)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product, summed over the stored entries of each row's terms,
        each sum a canonical carrier."""
        if self.field != other.field:
            raise ValueError("field mismatch in matrix product")
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        p, canon = self.field.p, self.field.canon
        indices, values = [], []
        for idx, vals in zip(self.indices, self.values):
            acc: dict[int, Any] = {}
            for t, x in zip(idx, vals):
                for j, y in zip(other.indices[t], other.values[t]):
                    acc[j] = acc.get(j, 0) + x * y
            row = [(j, s % p if p else canon(s)) for j, s in sorted(acc.items())]
            indices.append([j for j, s in row if s])
            values.append([s for _, s in row if s])
        return Matrix(self.field, self.rows, other.cols, indices, values)

    def __eq__(self, other):
        if isinstance(other, Matrix):
            mine = (self.field, self.rows, self.cols, self.indices, self.values)
            return mine == (other.field, other.rows, other.cols, other.indices, other.values)
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


def _carried(m: Matrix) -> Matrix:
    """``m``, once each value it stores is a carrier of its field; else ValueError names one."""
    if bad := [x for row in m.values for x in row if not m.field.carries([x])]:
        raise ValueError(f"the matrix stores {bad[0]!r}, not a value of {m.field}")
    return m


def rref(m: Matrix) -> RrefResult:
    """Reduced row echelon form, pivot columns and rank; see ``reduced`` and ``_carried``."""
    rows, pivots = reduced(m.field, list(map(_carried(m).row_raw, range(m.rows))))
    r = Matrix.from_rows(m.field, rows) if rows else Matrix.zeros(m.field, 0, m.cols)
    return RrefResult(r, pivots, len(pivots))


def reduced(f: Field, rows: list[list], start: int = 0) -> tuple[list[list], list[int]]:
    """Dense rows of carriers, all as wide, in reduced row echelon form,
    their columns from ``start`` on, and the pivot columns, by Gauss-Jordan
    on int rows: rational rows are scaled by the lcm of their denominators,
    and become carriers only in the result, each pivot row over its entry
    at its pivot column."""
    rows = f.cleared(rows)[1]
    pivots = _gauss_jordan(rows, len(rows[0]) if rows else 0, f.p)
    if f.p:
        return [row[start:] for row in rows], pivots
    # rows past the rank are zero, so their missing pivot is never read
    return [[f.ratio(v, row[pc]) if v else 0 for v in row[start:]]
            for row, pc in zip_longest(rows, pivots)], pivots


def span_supports(
    p: int, dim: int, basis: Sequence[Sequence[int]], candidates: Sequence[Sequence[int]]
) -> tuple[int, list[list[int] | None]]:
    """The rank of ``basis``, and per candidate the ascending positions of
    the basis vectors with a nonzero coefficient when the candidate is
    written in them, or None outside their span.  Vectors are ints of length
    ``dim``: residues mod p, or for p = 0 rational vectors times a positive
    scale, which keeps the supports.  One elimination of the rows of [basis
    | candidates], pivoting on the basis columns only: a candidate is in the
    span iff its column is zero past the rank, and then its coefficient on a
    pivot row's basis vector is nonzero iff its entry there is (zero off the
    pivots)."""
    b = len(basis)
    rows = [[v[r] for v in chain(basis, candidates)] for r in range(dim)]
    pivots = _gauss_jordan(rows, b, p)
    rank = len(pivots)
    return rank, [
        None if any(col[rank:]) else [pivots[r] for r in range(rank) if col[r]]
        for col in list(zip(*rows))[b:]
    ]


def extended(p: int, rows: Sequence[tuple], vec: Sequence[int]) -> tuple | None:
    """The (pivot, row) pair ``vec`` adds to the echelon ``rows``, or None
    when ``vec`` lies in its span.  ``rows`` holds (pivot, row) pairs in the
    order they joined, each row zero at the earlier pivots, so one pass in
    that order clears ``vec`` at every pivot; what is left is the new row,
    scaled to a leading 1 mod p and reduced fraction-free over its content
    for p = 0, and its first nonzero column the new pivot."""
    if len(rows) == len(vec):  # full rank: nothing is left
        return None
    for pc, row in rows:
        if c := vec[pc]:
            if p:
                vec = [(v - c * w) % p for v, w in zip(vec, row)]
            else:
                vec = [row[pc] * v - c * w for v, w in zip(vec, row)]
                g = gcd(*vec)
                vec = [v // g for v in vec] if g > 1 else vec
    for pc, a in enumerate(vec):
        if a:
            break
    else:
        return None
    if p and a != 1:
        s = pow(a, -1, p)
        vec = [s * v % p for v in vec]
    return pc, vec


class Rank1Factor(NamedTuple):
    """Verdict on a single block: rank 0, rank 1 with its factorization
    block = coeff * u^T v (u, v monic tuples, coeff a raw value), or rank >= 2,
    and ``ints`` = (n, d, u', v'), block = n/d u'^T v' on ints: (coeff, 1, u, v)
    over GF(p); over QQ u' and v' primitive, so u' is u times its leading entry."""

    rank: int
    u: tuple | None = None
    v: tuple | None = None
    coeff: Any = None
    ints: tuple | None = None


def rank1_factor(m: Matrix) -> Rank1Factor:
    """Classify a matrix as zero / rank one / higher rank; see ``rank1_of`` and ``_carried``."""
    return rank1_of(m.field, m.cols, 0, m.indices, _carried(m).values)


def _monic(f: Field, xs: list[int], lead: int) -> tuple[int, tuple, tuple]:
    """(d, xs', xs / lead): xs' = xs over their gcd, signed as lead, d its entry where lead is."""
    g = gcd(*xs) if lead > 0 else -gcd(*xs)
    ints, d = tuple([x // g for x in xs]), lead // g
    return d, ints, ints if d == 1 else tuple([f.ratio(x, d) for x in ints])


def rank1_of(f: Field, width: int, lo: int, idx: list, vals: list) -> Rank1Factor:
    """Classify the block ``width`` columns wide whose row r stores the
    values ``vals[r]`` at the columns ``idx[r]`` less ``lo`` (a row band's
    stored entries in one block, as they are) as zero / rank one / higher rank.

    For rank one the unique factorization with monic u and v is returned:
    u spans the column space (as coordinates), v the row space, and
    block = coeff * u^T v holds entrywise.  coeff is the first nonzero entry
    in row-major order, the first stored value of the first row w that
    stores one.  The rank is one iff every row that stores a value stores it
    at w's columns and is a multiple of w, decided on the stored values as
    ints: over GF(p) a row r must equal r[0] v mod p; over QQ, on values
    cleared of denominators, w[0] r must equal r[0] w, and u and v are those
    ints' first column and w, each over w[0], born on ints.
    """
    i0 = next((i for i, row in enumerate(idx) if row), None)
    if i0 is None:
        return Rank1Factor(rank=0)
    support, c = idx[i0], vals[i0][0]
    if not f.p:
        rows = f.cleared(vals)[1]
        w = rows[i0]
        for js, r in zip(idx, rows):
            if r and (js != support or [w[0] * x for x in r] != [r[0] * y for y in w]):
                return Rank1Factor(rank=2)
        u = [r[0] if r else 0 for r in rows]
    else:
        p, cinv = f.p, pow(c, -1, f.p)
        w = [cinv * x % p for x in vals[i0]]
        for js, row in zip(idx, vals):
            if row and (js != support or row != [row[0] * y % p for y in w]):
                return Rank1Factor(rank=2)
        u = [cinv * row[0] % p if row else 0 for row in vals]
    v = [0] * width
    for j, y in zip(support, w):
        v[j - lo] = y
    if f.p:
        u, v = tuple(u), tuple(v)
        return Rank1Factor(1, u, v, c, (c, 1, u, v))
    (du, iu, u), (dv, iv, v) = _monic(f, u, w[0]), _monic(f, v, w[0])
    return Rank1Factor(1, u, v, c, (c.numerator, c.denominator * du * dv, iu, iv))
