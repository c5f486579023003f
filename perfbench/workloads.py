"""Seeded instance generator and the benchmark's workload definitions.

Everything here uses only the standard library and never imports the
package under test, so the inputs depend on nothing but the workload name
and the seed.  An instance is handed to the program as the text of an input
document, exactly as a user's file would be.

Sizes are chosen so that one pass over a large workload, solved by the
program and by the frozen baseline side by side, takes 10 to 16 s on a
2-core Xeon virtual machine and fits in one 16-s run.  The instances are
small (n = 24 to 60, under the ROADMAP ladder's n = 60 to 360) so that a
pass holds a dozen or more program/baseline pairs of under a second each:
the host's speed changes within seconds, and only many short pairs average
that out of the ratio.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list[str]]  # seed -> input documents
    tiny: bool = False  # brute-force oracle and ideal enumeration apply


def _nonzero_vector(rng: random.Random, dim: int, draw) -> list[int]:
    while True:
        vals = [draw() for _ in range(dim)]
        if any(vals):
            return vals


def _document(field_line: str, row_dims, col_dims, rows) -> str:
    lines = [
        field_line,
        "row_blocks " + " ".join(map(str, row_dims)),
        "col_blocks " + " ".join(map(str, col_dims)),
        "entries",
    ]
    lines.extend(" ".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def block_grid(
    rng: random.Random,
    modulus: int | None,
    row_dims: list[int],
    col_dims: list[int],
    zeros: set[tuple[int, int]],
    vec_draw,
    coeff_draw,
) -> str:
    """A partitioned matrix whose blocks are zero (at the positions in
    ``zeros``) or c * u^T v, as a document.  ``modulus`` None means the
    rationals; entries are then integers, which the rationals accept as
    they are."""
    n, m = sum(row_dims), sum(col_dims)
    rows = [[0] * m for _ in range(n)]
    r0 = 0
    for alpha, na in enumerate(row_dims):
        c0 = 0
        for beta, mb in enumerate(col_dims):
            if (alpha, beta) not in zeros:
                u = _nonzero_vector(rng, na, vec_draw)
                v = _nonzero_vector(rng, mb, vec_draw)
                c = coeff_draw()
                for i in range(na):
                    for j in range(mb):
                        x = c * u[i] * v[j]
                        rows[r0 + i][c0 + j] = x % modulus if modulus else x
            c0 += mb
        r0 += na
    field_line = f"field gf {modulus}" if modulus else "field rationals"
    return _document(field_line, row_dims, col_dims, rows)


def scattered_zeros(rng: random.Random, blocks: int, count: int) -> set[tuple[int, int]]:
    """``count`` zero positions drawn uniformly from a blocks x blocks grid;
    some block rows and columns end up short of nonzero blocks."""
    return {divmod(k, blocks) for k in rng.sample(range(blocks * blocks), count)}


def balanced_zeros(rng: random.Random, blocks: int, per_line: int) -> set[tuple[int, int]]:
    """Exactly ``per_line`` zero blocks in every block row and column: a
    circulant band with its rows and columns shuffled.  No line runs short
    of nonzero blocks, so the work varies little from seed to seed."""
    rows = rng.sample(range(blocks), blocks)
    cols = rng.sample(range(blocks), blocks)
    return {
        (alpha, cols[(rows[alpha] + k) % blocks])
        for alpha in range(blocks)
        for k in range(per_line)
    }


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # string seeds hash with sha512 inside random, so they do not depend on
    # PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{index}")


def _square_grid(workload, seed, index, p, blocks, dim, zeros, vec_draw, coeff_draw):
    """``zeros(rng, blocks)`` places the zero blocks."""
    rng = _rng(workload, seed, index)
    dims = [dim] * blocks
    return block_grid(
        rng, p, dims, dims, zeros(rng, blocks),
        lambda: vec_draw(rng), lambda: coeff_draw(rng),
    )


def dense_gf101(seed: int) -> list[str]:
    return [
        _square_grid(
            "dense-gf101", seed, k, 101, 16, 3,
            lambda r, b: balanced_zeros(r, b, b // 2),
            lambda r: r.randrange(101), lambda r: r.randrange(1, 101),
        )
        for k in range(12)
    ]


def dense_qq(seed: int) -> list[str]:
    return [
        _square_grid(
            "dense-qq", seed, k, None, 8, 3,
            lambda r, b: balanced_zeros(r, b, b // 2),
            lambda r: r.randint(-3, 3), lambda r: r.randint(1, 9),
        )
        for k in range(16)
    ]


def sparse_gf2(seed: int) -> list[str]:
    return [
        _square_grid(
            "sparse-gf2", seed, k, 2, 30, 2,
            lambda r, b: scattered_zeros(r, b, b * b * 9 // 10),
            lambda r: r.randrange(2), lambda r: 1,
        )
        for k in range(16)
    ]


SMALL_BATCH_SIZE = 1000


def small_batch(seed: int) -> list[str]:
    docs = []
    for k in range(SMALL_BATCH_SIZE):
        rng = _rng("small-batch", seed, k)
        p = rng.choice((2, 3))
        max_dim = 3 if p == 2 else 2
        row_dims = [rng.randint(1, max_dim) for _ in range(rng.randint(1, 3))]
        col_dims = [rng.randint(1, max_dim) for _ in range(rng.randint(1, 3))]
        zeros = {
            (alpha, beta)
            for alpha in range(len(row_dims))
            for beta in range(len(col_dims))
            if rng.random() < 0.3
        }
        docs.append(
            block_grid(
                rng, p, row_dims, col_dims, zeros,
                lambda: rng.randrange(p), lambda: rng.randrange(1, p),
            )
        )
    return docs


WORKLOADS = {
    # Nearly every block has its own direction and no block line runs short,
    # so the matching is perfect, h is about 1 and matching is most of the
    # solve: a faster matching engine shows here, and a product or verifier
    # change should move nothing.
    "dense-gf101": Workload(dense_gf101),
    # The dense shape with Fraction carriers: the dense E^T A F and the
    # verifier's re-product are a large share of the solve, the target of
    # block-wise products and fraction-free elimination.  Against dense-gf101,
    # product time per computed multiplication shows what the carrier costs.
    "dense-qq": Workload(dense_qq),
    # Deficient matching, non-empty C0 and Cinf and a tall poset: verify
    # outweighs match, so a certifying verifier or a lazy chain shows here and
    # a matching speed-up barely does.
    "sparse-gf2": Workload(sparse_gf2),
    # Many tiny instances shaped like the oracle-equivalence tests: fixed
    # per-call overhead dominates, so added per-call set-up shows here as a
    # regression.
    "small-batch": Workload(small_batch, tiny=True),
}
