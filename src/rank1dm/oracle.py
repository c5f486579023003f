"""Independent brute-force checks for the decomposition pipeline.

Nothing here reuses the matching machinery: subspaces are enumerated
outright, stability is tested straight from the definition, and the unit
partition case is cross-checked with a plain bipartite matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .field import PrimeField
from .linalg import Matrix, Vector
from .partmat import PartitionedMatrix

_SUPPORTED_Q = (2, 3, 5)
_MAX_DIM = 3


@dataclass(frozen=True)
class SubspaceCatalog:
    """All subspaces of GF(q)^dim, each as a tuple of echelon basis rows."""

    q: int
    dim: int
    subspaces: tuple[tuple[tuple[int, ...], ...], ...]

    def __len__(self):
        return len(self.subspaces)


def gaussian_binomial(d: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^d."""
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (d - i) - 1
        den *= q ** (k - i) - 1
    return num // den


_catalog_cache: dict[tuple[int, int], SubspaceCatalog] = {}


def enumerate_subspaces(q: int, dim: int) -> SubspaceCatalog:
    """Every subspace exactly once, keyed by its reduced-echelon basis.

    Bases are produced by choosing pivot columns and sweeping the free
    entries, which is exactly the set of matrices in reduced row echelon
    form."""
    if q not in _SUPPORTED_Q:
        raise ValueError(f"unsupported field size {q}")
    if not 0 <= dim <= _MAX_DIM:
        raise ValueError(f"unsupported dimension {dim}")
    key = (q, dim)
    if key in _catalog_cache:
        return _catalog_cache[key]

    subspaces: list[tuple[tuple[int, ...], ...]] = [()]
    for k in range(1, dim + 1):
        for pivots in combinations(range(dim), k):
            free_slots = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, dim)
                if c not in pivots
            ]
            for values in product(range(q), repeat=len(free_slots)):
                rows = [[0] * dim for _ in range(k)]
                for r, p in enumerate(pivots):
                    rows[r][p] = 1
                for (r, c), v in zip(free_slots, values):
                    rows[r][c] = v
                subspaces.append(tuple(tuple(row) for row in rows))
    catalog = SubspaceCatalog(q, dim, tuple(subspaces))
    _catalog_cache[key] = catalog
    return catalog


def is_stable(a: PartitionedMatrix, x_bases, y_bases) -> bool:
    """Definition check: x^T A_block y vanishes for every basis pair."""
    if len(x_bases) != a.mu or len(y_bases) != a.nu:
        raise ValueError("one basis list per block is required")
    xs = _block_coords(a.field, x_bases, a.row_blocks, "row")
    ys = _block_coords(a.field, y_bases, a.col_blocks, "column")
    return all(
        _block_stable(a.field, columns, xs[alpha], ys[beta])
        for (alpha, beta), columns in a.nonzero_blocks.items()
    )


def _block_coords(f, bases, dims, side: str) -> list[list[list]]:
    """Raw coordinates of every basis vector, converted once per block."""
    out = []
    for blk, (basis, dim) in enumerate(zip(bases, dims)):
        coords = [_coords(f, v) for v in basis]
        if any(len(c) != dim for c in coords):
            raise ValueError(f"{side} block {blk} basis has the wrong length")
        out.append(coords)
    return out


def _coords(f, v):
    if isinstance(v, Vector):
        return list(v.data)
    return [f.coerce_raw(x) for x in v]


def _check_brute_bounds(a: PartitionedMatrix) -> int:
    if not isinstance(a.field, PrimeField) or a.field.p not in (2, 3):
        raise ValueError("brute force supports GF(2) and GF(3) only")
    q = a.field.p
    max_block = max(max(a.row_blocks), max(a.col_blocks))
    if max_block > (3 if q == 2 else 2):
        raise ValueError("block dimensions exceed the enumeration bounds")
    if a.mu + a.nu > 6:
        raise ValueError("too many blocks for enumeration")
    return q


def brute_force_max_stable(a: PartitionedMatrix):
    """Exhaustive solution of the maximum stable subspace problem.

    Returns (v_star, maximizers) where each maximizer is a pair of tuples of
    per-block echelon bases.  The search space is the product of per-block
    subspace catalogs; for each row-side choice the admissible column-side
    subspaces are scanned per block, which loses nothing because blocks are
    independent once the row side is fixed."""
    q = _check_brute_bounds(a)
    f = a.field
    row_cats = [enumerate_subspaces(q, d).subspaces for d in a.row_blocks]
    col_cats = [enumerate_subspaces(q, d).subspaces for d in a.col_blocks]

    compatible: dict[tuple[int, int], list[list[bool]]] = {}
    for alpha in range(a.mu):
        for beta in range(a.nu):
            table = [
                [
                    is_stable_block(a, alpha, beta, x, y)
                    for y in col_cats[beta]
                ]
                for x in row_cats[alpha]
            ]
            compatible[(alpha, beta)] = table

    best = -1
    maximizers: list[tuple[tuple, tuple]] = []
    for x_choice in product(*(range(len(c)) for c in row_cats)):
        dim_x = sum(len(row_cats[al][xi]) for al, xi in enumerate(x_choice))
        per_beta: list[list[int]] = []
        total_y = 0
        for beta in range(a.nu):
            best_dim = -1
            winners: list[int] = []
            for yi, y in enumerate(col_cats[beta]):
                if all(
                    compatible[(alpha, beta)][x_choice[alpha]][yi]
                    for alpha in range(a.mu)
                ):
                    d = len(y)
                    if d > best_dim:
                        best_dim = d
                        winners = [yi]
                    elif d == best_dim:
                        winners.append(yi)
            per_beta.append(winners)
            total_y += best_dim
        value = dim_x + total_y
        if value > best:
            best = value
            maximizers = []
        if value == best:
            xs = tuple(row_cats[al][xi] for al, xi in enumerate(x_choice))
            for y_choice in product(*per_beta):
                ys = tuple(col_cats[be][yi] for be, yi in enumerate(y_choice))
                maximizers.append((xs, ys))
    return best, maximizers


def is_stable_block(a: PartitionedMatrix, alpha: int, beta: int, x_basis, y_basis) -> bool:
    """Stability of one block against explicit bases (raw integer rows)."""
    if not (0 <= alpha < a.mu and 0 <= beta < a.nu):
        raise IndexError(f"block ({alpha}, {beta}) out of range")
    if any(len(x) != a.row_blocks[alpha] for x in x_basis) or any(
        len(y) != a.col_blocks[beta] for y in y_basis
    ):
        raise ValueError(f"basis of block ({alpha}, {beta}) has the wrong length")
    return _block_stable(a.field, a.nonzero_blocks.get((alpha, beta)), x_basis, y_basis)


def _block_stable(f, columns, x_basis, y_basis) -> bool:
    """x^T B y = 0 for every basis pair, B given by its raw columns (None
    for a zero block); the vector lengths are the caller's to check."""
    if not columns or not x_basis or not y_basis:  # x^T 0 y = 0
        return True
    zero = f.zero_raw
    for x in x_basis:
        xa = [f.dot(x, col) for col in columns]
        for y in y_basis:
            if f.dot(xa, y) != zero:
                return False
    return True


def classic_dm_check(a: PartitionedMatrix) -> tuple[int, int]:
    """Bipartite matching on the nonzero pattern for the all-1x1 partition.

    Returns (matching size, n + m - matching size); the independent matching
    on such instances must agree because both side matroids are free."""
    if any(b != 1 for b in a.row_blocks) or any(b != 1 for b in a.col_blocks):
        raise ValueError("classic check requires unit blocks on both sides")
    n, m = a.matrix.rows, a.matrix.cols
    zero = a.field.zero_raw
    adj = [
        [j for j in range(m) if a.matrix.raw(i, j) != zero] for i in range(n)
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
