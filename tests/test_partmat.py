import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from gen import (
    Arith, colex_key, dense, dense_product, from_blocks, from_dense, monic_directions,
    random_admissible_pair, random_rank1_instance,
)

from rank1dm import (
    GF,
    QQ,
    Matrix,
    PartitionedMatrix,
    RankConditionViolated,
    build_stability_graph,
)
from rank1dm.decompose import _form_problem
from rank1dm.linalg import rank1_factor
from rank1dm.partmat import HyperplaneVertex, column_parts, vertex_label

EXPECTED_EDGES = [
    ("1a", "1'a"),
    ("1c", "2'c"),
    ("1b", "3'c"),
    ("2a", "1'c"),
    ("2a", "2'c"),
    ("2c", "3'a"),
    ("3c", "1'a"),
    ("3c", "2'c"),
    ("3a", "3'a"),
]


def test_block_extraction(example):
    f = GF(2)
    assert example.block(1, 1) == Matrix.from_rows(f, [[1, 1], [0, 0]])
    assert example.block(2, 2) == Matrix.from_rows(f, [[1, 0], [0, 0]])


def test_block_whole_matrix_single_partition():
    f = GF(3)
    m = Matrix.from_rows(f, [[1, 2], [0, 1]])
    a = PartitionedMatrix(m, (2,), (2,))
    assert a.block(0, 0) == m


def test_block_out_of_range(example):
    with pytest.raises(IndexError):
        example.block(3, 0)
    with pytest.raises(IndexError):
        example.block(0, -1)


def test_partition_validation():
    f = GF(2)
    m = Matrix.zeros(f, 2, 2)
    with pytest.raises(ValueError):
        PartitionedMatrix(m, (1,), (2,))
    with pytest.raises(ValueError):
        PartitionedMatrix(m, (2,), (1, 2))
    with pytest.raises(ValueError):
        PartitionedMatrix(m, (2, 0), (2,))
    with pytest.raises(ValueError):
        PartitionedMatrix(m, (), (2,))
    # a bool or a float compares like an int, yet it is not a block size
    one = Matrix.zeros(f, 1, 1)
    for mat, sizes in ((one, (True,)), (one, (1.0,)), (m, (True, 1)), (m, (1.0, 1.0))):
        for rows, cols in ((sizes, (mat.cols,)), ((mat.rows,), sizes)):
            with pytest.raises(ValueError, match="positive ints"):
                PartitionedMatrix(mat, rows, cols)


def test_rank1_condition_worked_example(example):
    factors = example.factors
    assert len(factors) == 9
    assert all(f.rank <= 1 for f in factors.values())
    assert all(f.rank == 1 for f in factors.values())  # no zero blocks here


def test_rank1_condition_zero_matrix():
    a = PartitionedMatrix(Matrix.zeros(GF(5), 4, 4), (2, 2), (2, 2))
    assert a.factors == {}  # zero blocks are left out


def test_rank1_condition_violation():
    a = PartitionedMatrix(Matrix.identity(GF(2), 2), (2,), (2,))
    with pytest.raises(RankConditionViolated) as err:
        a.factors  # noqa: B018
    assert err.value.offenders == [(0, 0)]
    with pytest.raises(RankConditionViolated):  # E^T A F needs the factors
        a.transform(a.matrix, a.matrix)


def _factors_of_every_block(a):
    """Every block sliced through ``a.block`` and factored, zero ones left
    out, and the blocks of rank 2 or more."""
    out = {}
    for alpha in range(a.mu):
        for beta in range(a.nu):
            if (fac := rank1_factor(a.block(alpha, beta))).rank:
                out[alpha, beta] = fac
    return out, [key for key, fac in out.items() if fac.rank >= 2]


def _assert_factors_match_every_block(a):
    ref, offenders = _factors_of_every_block(a)
    if offenders:
        with pytest.raises(RankConditionViolated) as err:
            a.factors  # noqa: B018
        assert err.value.offenders == offenders
    else:
        assert list(a.factors.items()) == list(ref.items())


def test_factors_skip_only_zero_blocks():
    rng = random.Random(30)
    for field in (GF(2), GF(101), QQ):
        for _ in range(15):
            mu, nu = rng.randint(1, 6), rng.randint(1, 6)
            a = random_rank1_instance(rng, field, mu, nu, max_dim=3, zero_prob=0.8)
            _assert_factors_match_every_block(a)
        for _ in range(10):  # no block structure: some blocks have rank 2
            n = rng.randint(2, 8)
            cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
            sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
            m = _random_square(rng, field, n)
            _assert_factors_match_every_block(PartitionedMatrix(m, sizes, sizes[::-1]))
    f = GF(2)
    # band 2 is all zero, and the only nonzero block of band 3 has rank 2
    a = PartitionedMatrix(
        Matrix.from_rows(f, [[1, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 1]]), (1, 1, 2), (1, 2)
    )
    _assert_factors_match_every_block(a)
    with pytest.raises(RankConditionViolated, match=r"^blocks of rank >= 2 at \(3,2\)$"):
        a.factors  # noqa: B018
    # two rank-2 blocks in different bands, among rank-1 and zero blocks
    a = PartitionedMatrix(Matrix.from_rows(f, [
        [1, 0, 1, 0, 0, 0],
        [1, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 1, 1],
        [0, 1, 0, 0, 1, 1],
    ]), (2, 1, 2), (2, 2, 2))
    _assert_factors_match_every_block(a)
    with pytest.raises(RankConditionViolated) as err:
        a.factors  # noqa: B018
    assert err.value.offenders == [(0, 1), (2, 0)]


def _random_square(rng, field, n):
    """Half the entries zero, the rest anything: no block structure at all."""
    def draw():
        if rng.random() < 0.5:
            return 0
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if field == QQ else rng.randrange(field.p)
    return Matrix.from_rows(field, [[draw() for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=["gf2", "gf3", "qq"])
def test_transform_equals_the_dense_product(field):
    # E and F are not admissible, so an entry may collect several terms
    rng = random.Random(f"transform/{field}")
    for _ in range(100):
        a = random_rank1_instance(rng, field, rng.randint(1, 4), rng.randint(1, 4), max_dim=3)
        e = _random_square(rng, field, a.matrix.rows)
        f = _random_square(rng, field, a.matrix.cols)
        assert a.transform(e, f) == e.transpose() @ a.matrix @ f


def test_transform_refuses_a_foreign_field_or_row_count(example):
    e, f = Matrix.identity(GF(2), 6), Matrix.identity(GF(2), 6)
    for bad_e, bad_f in (
        (Matrix.identity(GF(3), 6), f),
        (e, Matrix.identity(QQ, 6)),
        (Matrix.identity(GF(2), 5), f),
        (e, Matrix.zeros(GF(2), 7, 6)),
    ):
        with pytest.raises(ValueError, match=r"^E\^T A F needs E and F over A's field"):
            example.transform(bad_e, bad_f)
    assert example.transform(e, f) == example.matrix


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([GF(2), GF(101), QQ]), st.randoms(use_true_random=False), st.booleans())
def test_stored_rows_agree_with_the_dense_view(field, rng, admissible):
    # the dense view round-trips from_rows, and transform, transpose and
    # the product all equal the reference dense product, each result well
    # formed: ascending int indices in range and no stored zero
    a = random_rank1_instance(rng, field, rng.randint(1, 4), rng.randint(1, 4), max_dim=3)
    n, m = a.matrix.rows, a.matrix.cols
    if admissible:
        e, f = random_admissible_pair(rng, a)
    else:
        e, f = _random_square(rng, field, n), _random_square(rng, field, m)
    for mat in (a.matrix, e, f):
        rows = [dense(mat)[i * mat.cols : (i + 1) * mat.cols] for i in range(mat.rows)]
        assert Matrix.from_rows(field, rows) == mat
        assert dense(mat.transpose()) == [x for col in zip(*rows) for x in col]
    want = dense_product(e, a.matrix, f)
    for got in (a.transform(e, f), e.transpose() @ a.matrix @ f):
        assert got == want and dense(got) == dense(want)
        assert _form_problem("got", got, n, m, field) == ""


def _naive_column_parts(mat, offsets):
    """Per block, d, the lcm of the denominators in it, and each nonzero
    column's entries in the block times d, as ints."""
    parts = []
    for lo, hi in zip(offsets, offsets[1:]):
        cols = [(j, [mat.row_raw(i)[j] for i in range(lo, hi)]) for j in range(mat.cols)]
        cols = [(j, col) for j, col in cols if any(x != mat.field.zero_raw for x in col)]
        d = lcm(*(Fraction(x).denominator for _, col in cols for x in col))
        parts.append((d, [(j, [int(x * d) for x in col]) for j, col in cols]))
    return parts


@pytest.mark.parametrize("field", [GF(2), GF(7), QQ], ids=["gf2", "gf7", "qq"])
def test_column_parts_matches_its_definition(field):
    rng = random.Random(19)
    for _ in range(40):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 5))]
        offsets = (0, *accumulate(sizes))
        rows, cols = offsets[-1], rng.randint(0, 20)
        density = rng.choice((0.05, 0.2, 0.6))
        # over QQ the entries have denominators, which each block clears once
        data = [
            field.coerce_raw(Fraction(rng.randint(1, 9), 1 if field.p else rng.randint(1, 4)))
            if rng.random() < density else field.zero_raw
            for _ in range(rows * cols)
        ]
        mat = from_dense(field, rows, cols, data)
        got = column_parts(mat, offsets)
        assert got == _naive_column_parts(mat, offsets)
        assert all(type(d) is int for d, _ in got)
        assert all(type(x) is int for _, part in got for _, xs in part for x in xs)


def test_stability_graph_vertices(example):
    g = build_stability_graph(example)
    labels = [g.pi_label(i) for i in range(g.n_pi)]
    assert labels == ["1a", "1b", "1c", "2a", "2c", "3a", "3c"]
    slabels = [g.sigma_label(j) for j in range(g.n_sigma)]
    assert slabels == ["1'a", "1'c", "2'c", "3'a", "3'c"]


def test_node_label_reads_both_sides(example):
    # auxiliary-digraph node ids list the row side, then the column side
    g = build_stability_graph(example)
    assert [g.node_label(v) for v in range(g.n_pi + g.n_sigma)] == [
        "1a", "1b", "1c", "2a", "2c", "3a", "3c", "1'a", "1'c", "2'c", "3'a", "3'c",
    ]


def test_vertex_label_letters_match_the_enumerated_directions():
    # every (p, dim) whose space has at most 26 monic directions, both sides
    named = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        dim = 1
        while len(reference := monic_directions(p, dim)) <= 26:
            for mark in ("", "'"):
                got = [vertex_label(GF(p), 4, u, mark) for u in reference]
                assert got == [f"5{mark}{chr(ord('a') + r)}" for r in range(len(reference))]
            named += len(reference)
            dim += 1
    assert named == 153


def test_vertex_label_spells_out_a_normal_beyond_26_directions():
    assert vertex_label(GF(101), 8, (1, 25, 81), "'") == "9'v1_25_81"
    assert vertex_label(GF(101), 8, (1, 25, 81), "") == "9v1_25_81"
    assert vertex_label(QQ, 1, (Fraction(1), Fraction(1), Fraction(-1, 3)), "'") == "2'v1_1_-1/3"


def test_naming_a_vertex_does_not_enumerate_the_field():
    # GF(999983) is used nowhere else, so its letter table is built here
    f = GF(999983)
    a = PartitionedMatrix(Matrix.from_rows(f, [[5, 0], [0, 7]]), (1, 1), (1, 1))
    tracemalloc.start()
    try:
        assert build_stability_graph(a).pi_label(0) == "1a"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_stability_graph_edges(example):
    g = build_stability_graph(example)
    got = [(g.pi_label(e.pi), g.sigma_label(e.sigma)) for e in g.edges]
    assert got == EXPECTED_EDGES


def test_stability_graph_shared_kernel_deduplicated(example):
    # blocks (3,1) and (3,2) share the same row-side kernel, one vertex
    g = build_stability_graph(example)
    assert [v.block for v in g.pi].count(2) == 2


def test_stability_graph_zero_matrix():
    a = PartitionedMatrix(Matrix.zeros(GF(2), 4, 4), (2, 2), (2, 2))
    g = build_stability_graph(a)
    assert g.n_pi == 0 and g.n_sigma == 0 and g.edges == ()


def _pooled_rank1_instance(rng, field, mu, nu):
    """Blocks zero or c u^T v, u and v drawn from two vectors per block line,
    so that normals repeat across a line; over QQ their entries mix
    denominators and signs."""
    ar = Arith(field)

    def vector(dim):
        while True:
            if field == QQ:
                vec = [Fraction(rng.randint(-4, 4), rng.randint(1, 7)) for _ in range(dim)]
            else:
                vec = [rng.randrange(field.p) for _ in range(dim)]
            if any(vec):
                return vec

    def scalar():
        return field.coerce_raw(rng.choice([-3, -1, 2, 5])) or field.one_raw

    row_dims = [rng.randint(1, 3) for _ in range(mu)]
    col_dims = [rng.randint(1, 3) for _ in range(nu)]
    us = [[vector(d) for _ in range(2)] for d in row_dims]
    vs = [[vector(d) for _ in range(2)] for d in col_dims]
    blocks = []
    for alpha, na in enumerate(row_dims):
        blocks.append([])
        for beta, mb in enumerate(col_dims):
            u = [ar.mul(scalar(), x) for x in rng.choice(us[alpha])]
            v = rng.choice(vs[beta])
            c = 0 if rng.random() < 0.2 else 1
            data = [ar.mul(c, ar.mul(x, y)) for x in u for y in v]
            blocks[-1].append(from_dense(field, na, mb, [field.coerce_raw(x) for x in data]))
    return from_blocks(blocks)


@pytest.mark.parametrize("field", [GF(2), GF(101), QQ], ids=["gf2", "gf101", "qq"])
def test_vertex_order_matches_the_colex_reference(field):
    # the graph sorts and dedups on int keys; the reference sorts the
    # distinct vertices by the colex key on the normals' own values and
    # finds each edge's ends by the vertices themselves
    rng = random.Random(f"colex/{field}")
    shared = 0
    for _ in range(60):
        a = _pooled_rank1_instance(rng, field, rng.randint(1, 4), rng.randint(1, 4))
        g = build_stability_graph(a)
        ends = [
            (HyperplaneVertex(alpha, fac.u), HyperplaneVertex(beta, fac.v))
            for (alpha, beta), fac in a.factors.items()
        ]
        pi = sorted({u for u, _ in ends}, key=colex_key)
        sigma = sorted({v for _, v in ends}, key=colex_key)
        edges = [(pi.index(u), sigma.index(v)) for u, v in ends]
        assert (g.pi, g.sigma, g.edges) == (tuple(pi), tuple(sigma), tuple(edges))
        shared += len(pi) + len(sigma) < 2 * len(ends)
    assert shared > 30


def test_edge_reconstruction_invariant():
    rng = random.Random(21)
    for _ in range(25):
        field = GF(rng.choice([2, 3, 5]))
        a = random_rank1_instance(rng, field, rng.randint(1, 3), rng.randint(1, 3))
        ar = Arith(field)
        g = build_stability_graph(a)
        assert len(g.edges) <= a.mu * a.nu
        for e in g.edges:
            u = g.pi[e.pi].normal
            v = g.sigma[e.sigma].normal
            alpha, beta = g.pi[e.pi].block, g.sigma[e.sigma].block
            block = a.block(alpha, beta)
            coeff = a.factors[alpha, beta].coeff
            rebuilt = from_dense(
                field,
                block.rows,
                block.cols,
                [
                    ar.mul(coeff, ar.mul(ux, vx))
                    for ux in u
                    for vx in v
                ],
            )
            assert rebuilt == block


def test_rescaling_blocks_keeps_graph():
    rng = random.Random(22)
    for _ in range(10):
        field = GF(rng.choice([3, 5]))
        a = random_rank1_instance(rng, field, 2, 2)
        ar = Arith(field)
        g1 = build_stability_graph(a)
        # rescale every block by a random nonzero scalar
        blocks = []
        for alpha in range(a.mu):
            brow = []
            for beta in range(a.nu):
                c = rng.randrange(1, field.p)
                b = a.block(alpha, beta)
                brow.append(from_dense(field, b.rows, b.cols, [ar.mul(c, x) for x in dense(b)]))
            blocks.append(brow)
        g2 = build_stability_graph(from_blocks(blocks))
        assert g1.pi == g2.pi and g1.sigma == g2.sigma and g1.edges == g2.edges


def test_from_blocks_round_trip(example):
    blocks = [[example.block(i, j) for j in range(3)] for i in range(3)]
    rebuilt = from_blocks(blocks)
    assert rebuilt.matrix == example.matrix


def test_vertex_normals_monic():
    rng = random.Random(23)
    for _ in range(10):
        field = GF(5)
        a = random_rank1_instance(rng, field, 2, 3)
        g = build_stability_graph(a)
        for v in g.pi + g.sigma:
            assert next(x for x in v.normal if x != field.zero_raw) == field.one_raw


def test_worked_example_center_block_factorization(example):
    # block (2,2) reads [[1,1],[0,0]], so its row-side kernel normal is (1,0)
    fac = example.factors[1, 1]
    assert fac.u == (1, 0)
    assert fac.v == (1, 1)
