import random
from itertools import product

import pytest

from gen import (
    echelon,
    random_rank1_instance,
    random_unit_pattern_instance,
    subspace_intersection,
    subspace_sum,
    worked_example,
)

from rank1dm import (
    GF,
    QQ,
    Matrix,
    PartitionedMatrix,
    brute_force_max_stable,
    classic_dm_check,
    dm_decompose,
    enumerate_subspaces,
    gaussian_binomial,
    is_stable,
    max_independent_matching,
    build_stability_graph,
)
from rank1dm.linalg import kernel_basis, rref
from rank1dm.oracle import is_stable_block


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
            assert len(set(catalog.subspaces)) == len(catalog)
            by_dim = {}
            for s in catalog.subspaces:
                by_dim[len(s)] = by_dim.get(len(s), 0) + 1
            for k in range(d + 1):
                assert by_dim.get(k, 0) == gaussian_binomial(d, k, q)


def test_catalog_bases_are_echelon():
    f = GF(3)
    for s in enumerate_subspaces(3, 3).subspaces:
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
    assert is_stable(example, x, y)


def test_is_stable_broken_cover(example):
    # replacing (0,1) in column block 1 by (1,1) breaks stability at block (1,1)
    x = [[(1, 0)], [(0, 1)], [(1, 0), (0, 1)]]
    y = [[(1, 1)], [(1, 1)], [(0, 1)]]
    assert not is_stable(example, x, y)


def test_is_stable_zero_subspaces(example):
    x = [[], [], []]
    y = [[], [], []]
    assert is_stable(example, x, y)


def test_is_stable_dimension_mismatch(example):
    with pytest.raises(ValueError):
        is_stable(example, [[(1, 0, 0)], [], []], [[], [], []])
    with pytest.raises(ValueError):
        is_stable(example, [[], []], [[], [], []])


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
        catalogs = [enumerate_subspaces(2, d).subspaces for d in a.col_blocks]
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
                if mp.rank(h) + ms.rank(k) == state.size:
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


def test_brute_force_dims_against_exhaustive_product():
    # cross-check the per-column-block scan against the raw full product on
    # a tiny instance
    rng = random.Random(55)
    f = GF(2)
    a = random_rank1_instance(rng, f, 2, 1)
    cat_rows = [enumerate_subspaces(2, d).subspaces for d in a.row_blocks]
    cat_cols = [enumerate_subspaces(2, d).subspaces for d in a.col_blocks]
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
