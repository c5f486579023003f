"""Brute-force maximum stable subspace search, the reference the
decomposition and its verifier are checked against.

Nothing here reuses the matching machinery or the rank-1 factors:
subspaces are enumerated outright and stability is tested straight from the
definition, x^T A_alpha_beta y = 0, on the raw blocks of A.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from operator import mul

from .linalg import Matrix
from .partmat import PartitionedMatrix

_SUPPORTED_Q = (2, 3, 5)
_MAX_DIM = 3


@lru_cache(maxsize=None)
def enumerate_subspaces(q: int, dim: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every subspace of GF(q)^dim exactly once, as its reduced-echelon
    basis rows.

    Bases are produced by choosing pivot columns and sweeping the free
    entries, which is exactly the set of matrices in reduced row echelon
    form."""
    if q not in _SUPPORTED_Q:
        raise ValueError(f"unsupported field size {q}")
    if not 0 <= dim <= _MAX_DIM:
        raise ValueError(f"unsupported dimension {dim}")
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
    return tuple(subspaces)


def _check_brute_bounds(a: PartitionedMatrix) -> int:
    if a.field.p not in (2, 3):
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
    row_cats = [enumerate_subspaces(q, d) for d in a.row_blocks]
    col_cats = [enumerate_subspaces(q, d) for d in a.col_blocks]

    compatible: dict[tuple[int, int], list[list[bool]]] = {}
    for alpha in range(a.mu):
        for beta in range(a.nu):
            columns = _columns(a.block(alpha, beta))
            compatible[(alpha, beta)] = [
                [_block_stable(q, columns, x, y) for y in col_cats[beta]]
                for x in row_cats[alpha]
            ]

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


def _columns(block: Matrix) -> list[list]:
    return list(map(block.transpose().row_raw, range(block.cols)))


def _block_stable(q: int, columns, x_basis, y_basis) -> bool:
    """x^T B y = 0 in GF(q) for every basis pair, B given by its raw columns;
    the vector lengths are the caller's to check."""
    for x in x_basis:
        xb = [sum(map(mul, x, col)) for col in columns]
        if any(sum(map(mul, xb, y)) % q for y in y_basis):
            return False
    return True
