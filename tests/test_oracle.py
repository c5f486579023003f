import random
from fractions import Fraction
from itertools import accumulate, product
from operator import mul

import pytest

from gen import (
    classic_dm_check,
    contains,
    echelon,
    gaussian_binomial,
    is_stable,
    is_stable_block,
    kernel_basis,
    random_rank1_instance,
    random_unit_pattern_instance,
    subspace_intersection,
    subspace_sum,
)

from rank1dm import (
    GF,
    QQ,
    Matrix,
    PartitionedMatrix,
    brute_force_max_stable,
    dm_decompose,
    enumerate_subspaces,
    max_independent_matching,
    build_stability_graph,
)
from rank1dm.cli import main
from rank1dm.field import FieldMismatchError
from rank1dm.linalg import Vector, rref


def _basis_columns(f, bases, dims) -> Matrix:
    """Every basis vector as a column, placed in its block's rows; a wrong
    block count or vector length is a ValueError."""
    if len(bases) != len(dims):
        raise ValueError("one basis list per block is required")
    n, cols = sum(dims), []
    for basis, lo, dim in zip(bases, accumulate(dims, initial=0), dims):
        for v in basis:
            if isinstance(v, Vector) and v.field != f:
                raise FieldMismatchError(f"vector over {v.field} used in {f}")
            x = [f.coerce_raw(t) for t in (v.data if isinstance(v, Vector) else v)]
            if len(x) != dim:
                raise ValueError("a basis vector has the wrong length")
            cols.append([f.zero_raw] * lo + x + [f.zero_raw] * (n - lo - dim))
    return Matrix(f, n, len(cols), [c[r] for r in range(n) for c in cols])


def factored_stable(a, x_bases, y_bases):
    """Stability read off A's rank-1 factors: X^T A Y from
    ``PartitionedMatrix.transform`` vanishes, X and Y holding the bases."""
    x = _basis_columns(a.field, x_bases, a.row_blocks)
    y = _basis_columns(a.field, y_bases, a.col_blocks)
    return not any(a.transform(x, y).data)


# the reference from the definition and a test read off A's factors
STABILITY_TESTS = (is_stable, factored_stable)


def test_catalog_counts():
    assert len(enumerate_subspaces(2, 2)) == 5
    assert len(enumerate_subspaces(2, 3)) == 16
    assert len(enumerate_subspaces(3, 2)) == 6
    assert len(enumerate_subspaces(5, 0)) == 1


def test_catalog_matches_gaussian_binomials():
    for q in (2, 3, 5):
        for d in range(4):
            catalog = enumerate_subspaces(q, d)
            expected = sum(gaussian_binomial(d, k, q) for k in range(d + 1))
            assert len(catalog) == expected
            assert len(set(catalog)) == len(catalog)
            by_dim = {}
            for s in catalog:
                by_dim[len(s)] = by_dim.get(len(s), 0) + 1
            for k in range(d + 1):
                assert by_dim.get(k, 0) == gaussian_binomial(d, k, q)


def test_catalog_bases_are_echelon():
    f = GF(3)
    for s in enumerate_subspaces(3, 3):
        if s:
            assert echelon(f, list(s), 3) == s


def test_catalog_bounds():
    with pytest.raises(ValueError):
        enumerate_subspaces(7, 2)
    with pytest.raises(ValueError):
        enumerate_subspaces(2, 4)


def test_is_stable_reference_cover(example):
    x = [[(1, 0)], [(0, 1)], [(1, 0), (0, 1)]]
    y = [[(0, 1)], [(1, 1)], [(0, 1)]]
    for stable in STABILITY_TESTS:
        assert stable(example, x, y)


def test_is_stable_broken_cover(example):
    # replacing (0,1) in column block 1 by (1,1) breaks stability at block (1,1)
    x = [[(1, 0)], [(0, 1)], [(1, 0), (0, 1)]]
    y = [[(1, 1)], [(1, 1)], [(0, 1)]]
    for stable in STABILITY_TESTS:
        assert not stable(example, x, y)


def test_is_stable_zero_subspaces(example):
    x = [[], [], []]
    y = [[], [], []]
    for stable in STABILITY_TESTS:
        assert stable(example, x, y)


def test_is_stable_dimension_mismatch(example):
    for stable in STABILITY_TESTS:
        with pytest.raises(ValueError):
            stable(example, [[(1, 0, 0)], [], []], [[], [], []])
        with pytest.raises(ValueError):
            stable(example, [[], []], [[], [], []])


def test_is_stable_rejects_vectors_over_another_field(example):
    # over GF(2), (2, 0) read as raw data would be the zero vector
    x = [[(1, 0)], [(0, 1)], [(1, 0), (0, 1)]]
    y = [[(0, 1)], [(1, 1)], [(0, 1)]]
    y_vectors = [[Vector(GF(2), v) for v in b] for b in y]
    assert factored_stable(example, x, y_vectors)
    y_vectors[0] = [Vector(GF(3), (2, 0))]
    with pytest.raises(FieldMismatchError):
        factored_stable(example, x, y_vectors)
    with pytest.raises(FieldMismatchError):
        factored_stable(example, [[Vector(GF(3), (1, 0))], [], []], [[], [], []])


def test_factored_stability_agrees_with_the_definition():
    # every pair drawn from the subspace catalogs gets one verdict from both
    rng = random.Random(57)
    for _ in range(12):
        field = GF(rng.choice([2, 3]))
        a = random_rank1_instance(rng, field, rng.randint(1, 2), rng.randint(1, 2))
        row_cats = [enumerate_subspaces(field.p, d) for d in a.row_blocks]
        col_cats = [enumerate_subspaces(field.p, d) for d in a.col_blocks]
        verdicts = set()
        for xs in product(*row_cats):
            for ys in product(*col_cats):
                verdict = is_stable(a, xs, ys)
                assert factored_stable(a, xs, ys) == verdict, (xs, ys)
                verdicts.add(verdict)
        assert verdicts == {True, False} or not a.factors


def test_is_stable_block_rejects_bad_input(example):
    for alpha, beta in ((7, 9), (-1, 0), (0, 3)):
        with pytest.raises(IndexError):
            is_stable_block(example, alpha, beta, [(1, 0)], [(0, 1)])
    for x, y in (([(1, 0, 1)], [(0, 1)]), ([(1, 0)], [(1,)]), ([(1, 0, 1)], [])):
        with pytest.raises(ValueError):
            is_stable_block(example, 0, 0, x, y)


def test_brute_force_worked_example(example):
    v_star, maximizers = brute_force_max_stable(example)
    assert v_star == 7
    assert len(maximizers) == 5


def test_brute_force_keeps_blocks_of_rank_two(tmp_path, capsys):
    # x^T I y = x . y: each line X of GF(2)^2 pairs with its orthogonal line,
    # and X = 0 with Y = GF(2)^2 and back, so v* = 2 with 5 maximizers
    a = PartitionedMatrix(Matrix.identity(GF(2), 2), (2,), (2,))
    v_star, maximizers = brute_force_max_stable(a)
    assert v_star == 2
    assert len(maximizers) == 5
    path = tmp_path / "identity.txt"
    path.write_text("field gf 2\nrow_blocks 2\ncol_blocks 2\nentries\n1 0\n0 1\n")
    assert main(["oracle", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "v_star 2" in out and "maximizers 5" in out


def test_brute_force_all_zero():
    f = GF(2)
    a = PartitionedMatrix(Matrix.zeros(f, 2, 2), (2,), (2,))
    v_star, maximizers = brute_force_max_stable(a)
    assert v_star == 4
    assert len(maximizers) == 1
    xs, ys = maximizers[0]
    assert len(xs[0]) == 2 and len(ys[0]) == 2


def test_brute_force_bounds():
    with pytest.raises(ValueError):
        brute_force_max_stable(
            PartitionedMatrix(Matrix.zeros(GF(5), 2, 2), (2,), (2,))
        )
    with pytest.raises(ValueError):
        brute_force_max_stable(
            PartitionedMatrix(Matrix.zeros(GF(3), 3, 2), (3,), (2,))
        )
    with pytest.raises(ValueError):
        brute_force_max_stable(
            PartitionedMatrix(Matrix.zeros(GF(2), 4, 4), (1, 1, 1, 1), (1, 1, 1, 1))
        )
    with pytest.raises(ValueError):
        brute_force_max_stable(
            PartitionedMatrix(Matrix.zeros(QQ, 2, 2), (2,), (2,))
        )


def test_brute_force_matches_pipeline_random():
    rng = random.Random(51)
    for _ in range(40):
        field = GF(rng.choice([2, 3]))
        a = random_rank1_instance(rng, field, rng.randint(1, 3), rng.randint(1, 3))
        v_star, maximizers = brute_force_max_stable(a)
        res = dm_decompose(a)
        assert v_star == res.v_star
        # every maximizer is stable by definition
        for xs, ys in maximizers:
            assert is_stable(a, xs, ys)


def test_maximizers_closed_under_lattice_ops():
    rng = random.Random(52)
    for _ in range(12):
        field = GF(2)
        a = random_rank1_instance(rng, field, rng.randint(1, 2), rng.randint(1, 2))
        _, maximizers = brute_force_max_stable(a)
        canon = {
            (tuple(xs), tuple(ys)) for xs, ys in maximizers
        }
        sample = maximizers[:6]
        for xs1, ys1 in sample:
            for xs2, ys2 in sample:
                meet_x = tuple(
                    subspace_intersection(field, b1, b2, d)
                    for b1, b2, d in zip(xs1, xs2, a.row_blocks)
                )
                join_y = tuple(
                    subspace_sum(field, b1, b2, d)
                    for b1, b2, d in zip(ys1, ys2, a.col_blocks)
                )
                assert (meet_x, join_y) in canon
                join_x = tuple(
                    subspace_sum(field, b1, b2, d)
                    for b1, b2, d in zip(xs1, xs2, a.row_blocks)
                )
                meet_y = tuple(
                    subspace_intersection(field, b1, b2, d)
                    for b1, b2, d in zip(ys1, ys2, a.col_blocks)
                )
                assert (join_x, meet_y) in canon


def _below(a, lo, hi) -> bool:
    """lo <= hi among maximum stable subspaces: X grows and Y shrinks,
    block by block."""
    f = a.field
    return all(
        all(contains(f, big, v, d) for v in small)
        for smalls, bigs, dims in ((lo[0], hi[0], a.row_blocks), (hi[1], lo[1], a.col_blocks))
        for small, big, d in zip(smalls, bigs, dims)
    )


def test_longest_chain_of_maximizers_has_one_element_per_diagonal_gap():
    # the structure theorem behind verify's chain check: every maximal chain
    # of maximum stable subspaces has h + 1 elements, h the poset's height,
    # so a decomposition with h middle blocks is the finest
    rng = random.Random(63)
    heights = set()
    for _ in range(40):
        field = GF(rng.choice([2, 3]))
        a = random_rank1_instance(rng, field, rng.randint(1, 3), rng.randint(1, 3))
        res = dm_decompose(a)
        _, maximizers = brute_force_max_stable(a)
        # along a chain X grows strictly, so dim X orders every chain
        maximizers.sort(key=lambda s: sum(map(len, s[0])))
        longest = []
        for k, hi in enumerate(maximizers):
            below = [
                longest[j] for j, lo in enumerate(maximizers[:k]) if lo != hi and _below(a, lo, hi)
            ]
            longest.append(1 + max(below, default=0))
        assert max(longest) == len(res.diag_blocks) - 1, (a, res.diag_blocks)
        heights.add(res.poset.h)
    assert max(heights) >= 3


def _y_perp_dim(a: PartitionedMatrix, ys) -> int:
    """dim of the largest X with (X, Y) stable, per block."""
    f = a.field
    total = 0
    for alpha, na in enumerate(a.row_blocks):
        rows = []
        for beta in range(a.nu):
            block = a.block(alpha, beta)
            for y in ys[beta]:
                rows.append(
                    [
                        f.dot(block.row_raw(i), [f.coerce_raw(x) for x in y])
                        for i in range(na)
                    ]
                )
        if rows:
            m = Matrix(f, len(rows), na, [x for r in rows for x in r])
            total += len(kernel_basis(m))
        else:
            total += na
    return total


def test_orthogonal_dimension_supermodular():
    rng = random.Random(53)
    f = GF(2)
    for _ in range(10):
        a = random_rank1_instance(rng, f, 2, 2)
        catalogs = [enumerate_subspaces(2, d) for d in a.col_blocks]
        picks = []
        for _ in range(6):
            picks.append(tuple(rng.choice(c) for c in catalogs))
        for y1 in picks:
            for y2 in picks:
                g1 = sum(len(b) for b in y1) + _y_perp_dim(a, y1)
                g2 = sum(len(b) for b in y2) + _y_perp_dim(a, y2)
                ysum = tuple(
                    subspace_sum(f, b1, b2, d)
                    for b1, b2, d in zip(y1, y2, a.col_blocks)
                )
                ycap = tuple(
                    subspace_intersection(f, b1, b2, d)
                    for b1, b2, d in zip(y1, y2, a.col_blocks)
                )
                gsum = sum(len(b) for b in ysum) + _y_perp_dim(a, ysum)
                gcap = sum(len(b) for b in ycap) + _y_perp_dim(a, ycap)
                assert g1 + g2 <= gsum + gcap


def test_minimum_covers_map_onto_maximizers():
    # every minimum cover induces a maximizer through per-block hyperplane
    # intersections, and every maximizer arises that way
    from rank1dm import matroid_pi, matroid_sigma
    from gen import subspace_pair_canonical

    rng = random.Random(56)
    checked = 0
    while checked < 8:
        f = GF(2)
        a = random_rank1_instance(rng, f, rng.randint(1, 2), rng.randint(1, 2))
        g = build_stability_graph(a)
        if g.n_pi > 5 or g.n_sigma > 5:
            continue
        state = max_independent_matching(g)
        mp, ms = matroid_pi(g), matroid_sigma(g)
        _, maximizers = brute_force_max_stable(a)
        brute = {subspace_pair_canonical(f, a, xs, ys) for xs, ys in maximizers}

        def cover_subspace(h, k):
            xs, ys = [], []
            for alpha, dim in enumerate(a.row_blocks):
                normals = [g.pi[i].normal.data for i in sorted(h) if g.pi[i].block == alpha]
                mat = Matrix(f, len(normals), dim, [x for r in normals for x in r])
                xs.append([list(v.data) for v in kernel_basis(mat)])
            for beta, dim in enumerate(a.col_blocks):
                normals = [g.sigma[j].normal.data for j in sorted(k) if g.sigma[j].block == beta]
                mat = Matrix(f, len(normals), dim, [x for r in normals for x in r])
                ys.append([list(v.data) for v in kernel_basis(mat)])
            return subspace_pair_canonical(f, a, xs, ys)

        from_covers = set()
        for hbits in range(1 << g.n_pi):
            h = {i for i in range(g.n_pi) if hbits >> i & 1}
            for kbits in range(1 << g.n_sigma):
                k = {j for j in range(g.n_sigma) if kbits >> j & 1}
                if not all(e.pi in h or e.sigma in k for e in g.edges):
                    continue
                if mp.circuits(h)[0] + ms.circuits(k)[0] == state.size:
                    from_covers.add(cover_subspace(h, k))
        assert from_covers == brute
        checked += 1


def test_classic_dm_identity_and_zero():
    f = GF(2)
    eye = PartitionedMatrix(Matrix.identity(f, 4), (1,) * 4, (1,) * 4)
    assert classic_dm_check(eye) == (4, 4)
    zero = PartitionedMatrix(Matrix.zeros(f, 3, 2), (1,) * 3, (1,) * 2)
    assert classic_dm_check(zero) == (0, 5)


def test_classic_dm_long_augmenting_path():
    # row i meets columns i and i + 1, the last row columns n - 1 and 0: the
    # last augmentation walks back along the whole diagonal, deeper than
    # Python's recursion limit
    n = 1500
    mat = Matrix.zeros(GF(2), n, n)
    for i in range(n):
        mat.data[i * n + i] = 1
        mat.data[i * n + (i + 1) % n] = 1
    assert classic_dm_check(PartitionedMatrix(mat, (1,) * n, (1,) * n)) == (n, n)


def test_classic_dm_wrong_type():
    a = PartitionedMatrix(Matrix.zeros(GF(2), 4, 4), (2, 2), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        classic_dm_check(a)


def test_classic_dm_agrees_with_pipeline():
    rng = random.Random(54)
    for _ in range(60):
        a = random_unit_pattern_instance(rng, rng.randint(1, 5), rng.randint(1, 5))
        size, v_star = classic_dm_check(a)
        g = build_stability_graph(a)
        state = max_independent_matching(g)
        assert state.size == size
        assert v_star == a.matrix.rows + a.matrix.cols - size


def test_matching_sizes_agree_with_networkx_at_scale():
    nx = pytest.importorskip("networkx")
    rng = random.Random(55)
    n = 200
    for _ in range(3):
        a = random_unit_pattern_instance(rng, n, n, density=3 / n)
        graph = nx.Graph()
        graph.add_nodes_from(("r", i) for i in range(n))
        graph.add_nodes_from(("c", j) for j in range(n))
        graph.add_edges_from(
            (("r", i), ("c", j))
            for i in range(n)
            for j in range(n)
            if a.matrix.raw(i, j)
        )
        hopcroft_karp = nx.bipartite.hopcroft_karp_matching(graph, [("r", i) for i in range(n)])
        size = max_independent_matching(build_stability_graph(a)).size
        assert size == classic_dm_check(a)[0] == len(hopcroft_karp) // 2


@pytest.mark.parametrize("field, nu", [(GF(101), 100), (QQ, 70)], ids=["gf101", "qq"])
def test_ranks_agree_with_sympy_at_scale(field, nu):
    # about 97% zero blocks keep elimination over QQ affordable at n >= 200
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    domain = sympy.QQ if field == QQ else sympy.GF(field.p)

    def sympy_matrix(mat):
        return DomainMatrix.from_list([mat.row_raw(i) for i in range(mat.rows)], domain)

    def sympy_rank(mat):
        return sympy_matrix(mat).rank()

    a = random_rank1_instance(random.Random(0), field, 100, nu, max_dim=3, zero_prob=0.97)
    n, m = a.matrix.rows, a.matrix.cols
    assert n >= 200
    res = dm_decompose(a)
    r = sympy_rank(a.matrix)
    assert r == rref(a.matrix).rank == sympy_rank(res.a_dm)
    assert (sympy_rank(res.E), sympy_rank(res.F)) == (n, m)
    assert r <= res.matching_size
    # sparse operands multiply in well under a second at n >= 200; dense ones take ~30 s
    e, a_sym, f = (sympy_matrix(mat).to_sparse() for mat in (res.E, a.matrix, res.F))
    assert e.transpose() * a_sym * f == sympy_matrix(res.a_dm).to_sparse()


def test_rational_rref_agrees_with_sympy():
    # R itself, not only the rank: a 40x80 matrix of rank 30 with fractional
    # entries, and [H | I] for the 10x10 Hilbert matrix H, whose inverse has
    # integer entries of up to 13 digits
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(41)

    def draw(n, m):
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(m)] for _ in range(n)]

    left, right = draw(40, 30), draw(30, 80)
    product_rows = [[sum(map(mul, row, col)) for col in zip(*right)] for row in left]
    hilbert = [
        [Fraction(1, i + j + 1) for j in range(10)] + [Fraction(int(i == j)) for j in range(10)]
        for i in range(10)
    ]
    for rows, rank in ((product_rows, 30), (hilbert, 10)):
        mat = Matrix.from_rows(QQ, rows)
        red = rref(mat)
        want, pivots = DomainMatrix.from_list(rows, sympy.QQ).rref()
        assert red.rank == rank and red.pivots == list(pivots)
        assert red.R.data == [
            Fraction(int(x.numerator), int(x.denominator)) for row in want.to_list() for x in row
        ]
        assert all(type(x) is Fraction for x in red.R.data)


def test_brute_force_dims_against_exhaustive_product():
    # cross-check the per-column-block scan against the raw full product on
    # a tiny instance
    rng = random.Random(55)
    f = GF(2)
    a = random_rank1_instance(rng, f, 2, 1)
    cat_rows = [enumerate_subspaces(2, d) for d in a.row_blocks]
    cat_cols = [enumerate_subspaces(2, d) for d in a.col_blocks]
    best = -1
    count = 0
    for xs in product(*cat_rows):
        for ys in product(*cat_cols):
            if is_stable(a, [list(b) for b in xs], [list(b) for b in ys]):
                value = sum(len(b) for b in xs) + sum(len(b) for b in ys)
                if value > best:
                    best, count = value, 1
                elif value == best:
                    count += 1
    v_star, maximizers = brute_force_max_stable(a)
    assert v_star == best
    assert len(maximizers) == count
