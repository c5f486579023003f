import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from gen import (
    EXAMPLE_ROWS, Arith, canonical, colex_key, dense, from_dense, kernel_basis, rational,
    reference_rank1_factor, reference_rref,
)

from rank1dm import GF, QQ, HyperplaneVertex, Matrix
from rank1dm.linalg import extended, rank1_factor, rank1_of, reduced, rref, span_supports


def is_upper_triangular(m: Matrix) -> bool:
    z = m.field.zero_raw
    return all(m.row_raw(i)[j] == z for i in range(m.rows) for j in range(min(i, m.cols)))


def _random_data(rng, field, n, m):
    if field is QQ:
        return [rng.randint(-4, 4) for _ in range(n * m)]
    return [rng.randrange(field.p) for _ in range(n * m)]


def _random_matrix(rng, field, n, m):
    return from_dense(field, n, m, _random_data(rng, field, n, m))


def test_matmul_matches_definition():
    rng = random.Random(71)
    shapes = [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0)]
    shapes += [tuple(rng.randint(1, 5) for _ in range(3)) for _ in range(30)]
    for field in (GF(2), GF(101), QQ):
        ar = Arith(field)
        for n, k, m in shapes:
            a, b = _random_data(rng, field, n, k), _random_data(rng, field, k, m)
            for data in (a, b):  # at least half zeros
                for pos in rng.sample(range(len(data)), (len(data) + 1) // 2):
                    data[pos] = field.zero_raw
            if n:  # and an all-zero row
                i = rng.randrange(n)
                a[i * k : (i + 1) * k] = [field.zero_raw] * k
            want = []
            for i in range(n):
                for j in range(m):
                    entry = field.zero_raw
                    for t in range(k):
                        entry = ar.add(entry, ar.mul(a[i * k + t], b[t * m + j]))
                    want.append(entry)
            product = from_dense(field, n, k, a) @ from_dense(field, k, m, b)
            assert product == from_dense(field, n, m, want)


def test_rref_identity():
    r = rref(Matrix.identity(GF(7), 3))
    assert r.rank == 3 and r.pivots == [0, 1, 2]
    assert r.R == Matrix.identity(GF(7), 3)


def test_rref_zero():
    r = rref(Matrix.zeros(QQ, 2, 4))
    assert r.rank == 0 and r.pivots == []


def test_rref_worked_example_rank():
    # row 6 equals row 1 and row 5 equals row 1 + row 4 over GF(2); the
    # remaining four rows are independent, so the rank is 4
    m = Matrix.from_rows(GF(2), EXAMPLE_ROWS)
    assert m.row_raw(5) == m.row_raw(0)
    assert m.row_raw(4) == [(a + b) % 2 for a, b in zip(EXAMPLE_ROWS[0], EXAMPLE_ROWS[3])]
    assert rref(Matrix.from_rows(GF(2), EXAMPLE_ROWS[:4])).rank == 4
    assert rref(m).rank == 4


def test_rref_is_projection():
    rng = random.Random(5)
    for field in (GF(2), GF(5), QQ):
        for _ in range(25):
            m = _random_matrix(rng, field, rng.randint(1, 5), rng.randint(1, 5))
            once = rref(m).R
            assert rref(once).R == once


def test_rank_equals_rank_of_transpose():
    rng = random.Random(6)
    for field in (GF(2), GF(3), QQ):
        for _ in range(30):
            m = _random_matrix(rng, field, rng.randint(1, 5), rng.randint(1, 5))
            assert rref(m).rank == rref(m.transpose()).rank


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_rref_properties_gf2(n, m, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n * m, max_size=n * m))
    mat = from_dense(GF(2), n, m, bits)
    r = rref(mat)
    assert r.rank == rref(mat.transpose()).rank
    assert rref(r.R).R == r.R
    assert len(kernel_basis(mat)) == m - r.rank


def _assert_rref_is_reference(mat):
    got, want = rref(mat), reference_rref(mat)
    assert (got.R, got.pivots, got.rank) == (want.R, want.pivots, want.rank)
    # canonical carriers only: over QQ an int where an entry is integral
    assert all(canonical(mat.field, x) for x in dense(got.R))


def _rational_entry(rng):
    # small and large, mixed denominators, either sign; a carrier, so an
    # integral value is an int (rref refuses a Fraction over 1)
    den = rng.choice([1, 1, 2, 3, 7, 12, 113, 2**61 - 1, 10**30 + 57])
    return QQ.ratio(rng.randint(-(10**rng.randint(0, 25)), 10**rng.randint(0, 25)), den)


def test_rref_matches_the_reference():
    rng = random.Random(91)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 8)) for _ in range(60)]
    for field in (GF(2), GF(3), GF(101), QQ):
        ar = Arith(field)
        for n, m in shapes:
            draw = (lambda: _rational_entry(rng)) if field is QQ else (lambda: rng.randrange(field.p))
            data = [draw() for _ in range(n * m)]
            mat = from_dense(field, n, m, data)
            _assert_rref_is_reference(Matrix.zeros(field, n, m))
            _assert_rref_is_reference(mat)
            if n and m:  # a zero column, a zero row, and a dependent row
                zero_col = rng.randrange(m)
                for i in range(n):
                    data[i * m + zero_col] = field.zero_raw
                i = rng.randrange(n)
                data[i * m : (i + 1) * m] = [field.zero_raw] * m
                mat = from_dense(field, n, m, data)
                _assert_rref_is_reference(mat)
                rows = [mat.row_raw(i) for i in range(n)]
                c = field.coerce_raw(rng.randint(-5, 5))
                rows.append([ar.add(x, ar.mul(c, y)) for x, y in zip(rows[0], rows[-1])])
                _assert_rref_is_reference(Matrix.from_rows(field, rows))


def test_rref_negative_pivots_and_content():
    # negative leading entries, different denominators in every row, and a
    # third row that depends on the first two
    rows = [
        [Fraction(-22, 7), Fraction(355, 113), 0, 4],
        [Fraction(-6, 5), 0, Fraction(-3, 10), Fraction(9, 2)],
    ]
    rows.append([2 * x + y for x, y in zip(*rows)])
    mat = Matrix.from_rows(QQ, rows)
    _assert_rref_is_reference(mat)
    assert rref(mat).pivots == [0, 1]


_FIELDS = st.sampled_from([GF(2), GF(3), GF(101), QQ])


@given(_FIELDS, st.integers(0, 5), st.integers(0, 6), st.data())
def test_rref_matches_the_reference_hypothesis(field, n, m, data):
    if field is QQ:  # canonical carriers: an int where the value is integral
        entry = st.one_of(
            st.just(0),
            st.fractions(max_denominator=10**6).map(lambda x: x.numerator if x.denominator == 1 else x),
            st.integers(-(10**20), 10**20),
        )
    else:
        entry = st.integers(0, field.p - 1)
    values = data.draw(st.lists(entry, min_size=n * m, max_size=n * m))
    _assert_rref_is_reference(from_dense(field, n, m, values))


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(GF(3), 4)) == []


def test_kernel_zero_matrix():
    vecs = kernel_basis(Matrix.zeros(GF(2), 2, 2))
    assert vecs == [(1, 0), (0, 1)]


def test_kernel_single_relation_gf2():
    vecs = kernel_basis(Matrix.from_rows(GF(2), [[1, 1]]))
    assert vecs == [(1, 1)]
    # brute force over GF(2)^2 agrees
    sols = [
        (x1, x2)
        for x1 in (0, 1)
        for x2 in (0, 1)
        if (x1 + x2) % 2 == 0 and (x1, x2) != (0, 0)
    ]
    assert sols == [(1, 1)]


def test_kernel_annihilates_and_counts():
    rng = random.Random(8)
    for field in (GF(2), GF(5), QQ):
        for _ in range(20):
            m = _random_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 5))
            vecs = kernel_basis(m)
            assert len(vecs) == m.cols - rref(m).rank
            for v in vecs:
                prod = [Arith(field).dot(m.row_raw(i), v) for i in range(m.rows)]
                assert all(x == field.zero_raw for x in prod)


@pytest.mark.parametrize(
    "field, value",
    [(QQ, Fraction(3)), (QQ, True), (GF(3), True), (GF(3), 5)],
    ids=["qq-fraction-over-1", "qq-bool", "gf3-bool", "gf3-out-of-range"],
)
def test_rref_and_rank1_factor_refuse_a_value_that_is_not_a_carrier(field, value):
    # a stored value equal to a carrier but not one (a Fraction over 1, a
    # bool) or out of range is refused, named, before any elimination
    m = Matrix(field, 2, 2, [[0, 1], [1]], [[1, value], [1]])
    for kernel in (rref, rank1_factor):
        with pytest.raises(ValueError, match=f"stores {re.escape(repr(value))}, not a value of"):
            kernel(m)


def test_rref_and_rank1_factor_of_carriers_are_the_kernels():
    # the carrier check changes nothing on carriers: both wrappers return
    # what the unchecked kernels return
    rng = random.Random(17)
    for field in (GF(2), GF(3), GF(101), QQ):
        for _ in range(40):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            draw = (lambda: _rational_entry(rng)) if field is QQ else (lambda: rng.randrange(field.p))
            mat = from_dense(field, n, m, [draw() if rng.random() < 0.6 else 0 for _ in range(n * m)])
            rows, pivots = reduced(field, [mat.row_raw(i) for i in range(n)])
            assert rref(mat) == (Matrix.from_rows(field, rows), pivots, len(pivots))
            assert rank1_factor(mat) == rank1_of(field, m, 0, mat.indices, mat.values)
            rank_one = from_dense(field, n, m, [x if i < m else 0 for i, x in enumerate(dense(mat))])
            assert rank1_factor(rank_one) == rank1_of(field, m, 0, rank_one.indices, rank_one.values)


def test_rank1_factor_block_of_worked_example():
    f = GF(2)
    a13 = Matrix.from_rows(f, [[0, 0], [1, 1]])
    fac = rank1_factor(a13)
    assert fac.rank == 1
    assert fac.u == (0, 1)
    assert fac.v == (1, 1)
    assert fac.coeff == 1


def test_rank1_factor_zero_and_higher():
    assert rank1_factor(Matrix.zeros(GF(3), 2, 3)).rank == 0
    assert rank1_factor(Matrix.identity(GF(2), 2)).rank == 2


def test_rank1_factor_nonzero_row_extraction():
    f = GF(2)
    fac = rank1_factor(Matrix.from_rows(f, [[1, 0], [0, 0]]))
    assert (fac.u, fac.v, fac.coeff) == ((1, 0), (1, 0), 1)


def test_rank1_factor_reconstruction_and_monic():
    rng = random.Random(10)
    for field in (GF(2), GF(5), QQ):
        ar = Arith(field)
        for _ in range(40):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            u = [field.coerce_raw(rng.randint(-2, 2)) for _ in range(n)]
            v = [field.coerce_raw(rng.randint(-2, 2)) for _ in range(m)]
            c = field.coerce_raw(rng.randint(1, 4))
            data = [ar.mul(c, ar.mul(ux, vx)) for ux in u for vx in v]
            mat = from_dense(field, n, m, data)
            fac = rank1_factor(mat)
            if fac.rank == 0:
                assert mat == Matrix.zeros(field, n, m)
                continue
            assert fac.rank == 1
            for monic in (fac.u, fac.v):
                assert next(x for x in monic if x != field.zero_raw) == field.one_raw
            rebuilt = from_dense(
                field,
                n,
                m,
                [
                    ar.mul(fac.coeff, ar.mul(ux, vx))
                    for ux in fac.u
                    for vx in fac.v
                ],
            )
            assert rebuilt == mat


def _random_block(rng, field, n, m):
    """A zero, rank-1 or perturbed rank-1 block whose u and v may lead with
    zeros; over QQ its entries mix denominators."""
    ar = Arith(field)

    def draw(nonzero=False):
        if field == QQ:
            x = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 6, 7)))
        else:
            x = rng.randrange(field.p)
        return draw(nonzero) if nonzero and not x else x

    lead_u, lead_v = rng.randint(0, n - 1), rng.randint(0, m - 1)
    u = [field.zero_raw] * lead_u + [draw(True)] + [draw() for _ in range(n - lead_u - 1)]
    v = [field.zero_raw] * lead_v + [draw(True)] + [draw() for _ in range(m - lead_v - 1)]
    c = draw(True) if rng.random() < 0.9 else field.zero_raw
    data = [ar.mul(c, ar.mul(x, y)) for x in u for y in v]
    if rng.random() < 0.4:  # one entry off: rank 2, unless the new value fits
        k = rng.randrange(n * m)
        data[k] = ar.add(data[k], draw(True))
    return from_dense(field, n, m, data)


def test_rank1_factor_matches_the_reference():
    rng = random.Random(18)
    ranks = set()
    for field in (GF(2), GF(3), GF(101), QQ):
        for _ in range(150):
            mat = _random_block(rng, field, rng.randint(1, 4), rng.randint(1, 4))
            fac, ref = rank1_factor(mat), reference_rank1_factor(mat)
            assert fac == ref, mat
            if fac.rank == 1:
                assert all(canonical(field, x) for x in fac.u + fac.v + (fac.coeff,))
                # the int form: block = n/d u'^T v', (coeff, 1, u, v) over GF(p);
                # over QQ u' and v' primitive, each its vector times its leading entry
                n, d, iu, iv = fac.ints
                assert all(type(x) is int for x in (n, d, *iu, *iv)) and d > 0
                if field.p:
                    assert fac.ints == (fac.coeff, 1, fac.u, fac.v)
                else:
                    assert [Fraction(n * x * y, d) for x in iu for y in iv] == dense(mat)
                    for ints, vec in ((iu, fac.u), (iv, fac.v)):
                        lead = next(filter(None, ints))
                        assert gcd(*ints) == 1 and lead > 0
                        assert [Fraction(x, lead) for x in ints] == list(vec)
            ranks.add((field, fac.rank))
    assert len(ranks) == 12  # every field saw ranks 0, 1 and 2


def test_span_coordinates_against_ranks():
    # span_supports against a reference solve: the rank of the basis, None
    # exactly when a candidate raises it, and otherwise the nonzero pattern
    # of the coordinates reference_rref gives on [basis | candidate], where
    # a basis vector without a pivot, a dependent one, carries zero
    rng = random.Random(12)
    dependent = inside = 0
    for field in (GF(2), GF(101), QQ):
        ar = Arith(field)
        for _ in range(40):
            dim = rng.randint(1, 4)

            def draw():
                return tuple(_random_data(rng, field, 1, dim))

            def rank_of(vecs):
                return rref(from_dense(field, len(vecs), dim, [x for v in vecs for x in v])).rank

            def combination(vecs):
                combo = [field.zero_raw] * dim
                for b in vecs:
                    c = field.coerce_raw(rng.randint(-3, 3))
                    combo = [ar.add(x, ar.mul(c, y)) for x, y in zip(combo, b)]
                return tuple(combo)

            basis = [draw() for _ in range(rng.randint(0, dim))]
            for _ in range(rng.randint(0, 2)):  # dependent basis vectors
                basis.insert(rng.randint(0, len(basis)), combination(basis))
            cands = [draw() for _ in range(rng.randint(0, 3))]
            for _ in range(rng.randint(0, 3)):  # some candidates inside the span
                cands.insert(rng.randint(0, len(cands)), combination(basis))
            ints = field.cleared(basis)[1], field.cleared(cands)[1]
            rank, supports = span_supports(field.p, dim, *ints)
            assert rank == rank_of(basis)
            dependent += rank < len(basis)
            b = len(basis)
            for cand, support in zip(cands, supports):
                assert (support is None) == (rank_of(basis + [cand]) > rank)
                if support is None:
                    continue
                inside += 1
                vecs = basis + [cand]
                stacked = [v[r] for r in range(dim) for v in vecs]
                red = reference_rref(from_dense(field, dim, b + 1, stacked))
                coords = [field.zero_raw] * b
                for r, pc in enumerate(red.pivots):
                    coords[pc] = red.R.row_raw(r)[b]
                rebuilt = (field.zero_raw,) * dim
                for c, v in zip(coords, basis):
                    rebuilt = tuple(ar.add(x, ar.mul(c, y)) for x, y in zip(rebuilt, v))
                assert rebuilt == cand
                assert support == [k for k, c in enumerate(coords) if c != field.zero_raw]
    assert dependent > 10 and inside > 50


def _kernel_vectors(rng, field, dim, basis_size):
    """A random basis of int vectors and candidates for the elimination
    kernels: the basis full, deficient (a repeat or a combination among its
    vectors) or empty, the candidates zero, repeated, basis vectors, inside
    the span or random; QQ values carry denominators up to 3, and both lists
    are cleared as the matching state clears its normals."""
    ar = Arith(field)

    def draw():
        if field is QQ:
            return tuple(rational(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))
        return tuple(rng.randrange(field.p) for _ in range(dim))

    def combination(vecs):
        combo = (field.zero_raw,) * dim
        for b in vecs:
            c = field.coerce_raw(rng.randint(-3, 3))
            combo = tuple(ar.add(x, ar.mul(c, y)) for x, y in zip(combo, b))
        return combo

    basis = [draw() for _ in range(basis_size)]
    if basis and rng.random() < 0.5:
        extra = rng.choice(basis) if rng.random() < 0.5 else combination(basis)
        basis.insert(rng.randrange(len(basis) + 1), extra)
    cands = [draw() for _ in range(rng.randint(0, 3))]
    cands += [(field.zero_raw,) * dim, combination(basis), *basis[:1]]
    cands += cands[: rng.randint(0, 2)]  # repeats
    rng.shuffle(cands)
    return basis, cands, field.cleared(basis)[1], field.cleared(cands)[1]


def _reference_rank(field, vecs, dim):
    return reference_rref(from_dense(field, len(vecs), dim, [x for v in vecs for x in v])).rank


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(101), QQ], ids=["gf2", "gf3", "gf101", "qq"])
def test_extended_grows_exactly_with_the_reference_rank(field):
    # vectors offered one by one to the greedy echelon: extended returns a
    # (pivot, row) pair exactly when the reference rank of the accepted
    # vectors grows, the row zero at every earlier pivot, its pivot entry 1
    # mod p, and the rows spanning what was accepted; a full echelon
    # accepts nothing
    rng = random.Random(53)
    accepted = refused = full = 0
    for _ in range(40):
        dim = rng.randint(1, 4)
        vecs, more, ints, more_ints = _kernel_vectors(rng, field, dim, rng.randint(0, dim + 1))
        echelon, kept = [], []
        for vec, iv in zip(vecs + more, ints + more_ints):
            grows = _reference_rank(field, kept + [vec], dim) > len(echelon)
            full += len(echelon) == dim
            pair = extended(field.p, echelon, iv)
            assert (pair is not None) == grows
            if pair is None:
                refused += 1
                continue
            pc, row = pair
            assert row[pc] and all(row[q] == 0 for q, _ in echelon)
            assert not field.p or row[pc] == 1
            echelon.append(pair)
            kept.append(vec)
            accepted += 1
            rows = [tuple(map(field.coerce_raw, r)) for _, r in echelon]
            assert _reference_rank(field, rows, dim) == len(rows)
            assert _reference_rank(field, rows + kept, dim) == len(rows)
    assert accepted > 40 and refused > 40 and full > 5


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(101), QQ], ids=["gf2", "gf3", "gf101", "qq"])
def test_span_supports_equals_the_reference_solve(field):
    # the rank of the basis is the reference rank, and a candidate's support
    # is None exactly when the reference RREF of [basis | candidate] pivots
    # on the candidate's column, else the basis columns whose pivot rows
    # hold a nonzero entry in it
    rng = random.Random(54)
    deficient = outside = inside = 0
    for _ in range(40):
        dim = rng.randint(1, 4)
        basis, cands, basis_ints, cand_ints = _kernel_vectors(rng, field, dim, rng.randint(0, dim))
        rank, supports = span_supports(field.p, dim, basis_ints, cand_ints)
        b = len(basis)
        assert rank == _reference_rank(field, basis, dim) and len(supports) == len(cands)
        deficient += rank < b
        for cand, support in zip(cands, supports):
            stacked = [v[r] for r in range(dim) for v in basis + [cand]]
            red = reference_rref(from_dense(field, dim, b + 1, stacked))
            if b in red.pivots:
                assert support is None
                outside += 1
                continue
            inside += 1
            assert support == [pc for r, pc in enumerate(red.pivots) if red.R.row_raw(r)[b]]
    assert deficient > 5 and outside > 20 and inside > 60


def test_triangularizing_accepts_other_valid_transforms():
    # a swap matrix also upper-triangularizes this stack; the triangularity
    # predicate admits it even though this library always uses the inverse
    f = GF(2)
    r2 = Matrix.from_rows(f, [[1, 1], [1, 0]])
    e2 = Matrix.from_rows(f, [[0, 1], [1, 0]])
    assert is_upper_triangular(r2 @ e2)


def test_matrix_refuses_a_shape_its_rows_disagree_with():
    f = GF(2)
    for indices, values in (([[0]], [[1], []]), ([[0], []], [[1]]), ([[0]] * 3, [[1]] * 3)):
        with pytest.raises(ValueError, match="^row count does not match the shape$"):
            Matrix(f, 2, 1, indices, values)
    with pytest.raises(ValueError, match="^ragged rows$"):
        Matrix.from_rows(f, [[1, 0], [1]])
    with pytest.raises(ValueError, match="^shape mismatch in matrix product$"):
        Matrix.identity(f, 2) @ Matrix.identity(f, 3)


def test_matrix_equals_only_a_matrix_and_prints_its_rows():
    m = Matrix.from_rows(GF(2), [[1, 0], [0, 1]])
    assert (m == 3) is False and m != 3
    assert repr(m) == "Matrix[2x2: 1 0; 0 1]"
    assert repr(Matrix.from_rows(QQ, [[Fraction(1, 2), 0, -3]])) == "Matrix[1x3: 1/2 0 -3]"


def test_empty_matrix_edge_cases():
    f = GF(2)
    empty = from_dense(f, 0, 3, [])
    assert rref(empty).rank == 0
    assert kernel_basis(empty) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_colex_order():
    # block first, then the normal read from its last coordinate to its first
    vertices = [HyperplaneVertex(1, (1, 0))] + [
        HyperplaneVertex(0, u) for u in [(1, 1), (0, 1), (1, 0)]
    ]
    order = sorted(vertices, key=colex_key)
    assert [(v.block, v.normal) for v in order] == [
        (0, (1, 0)), (0, (0, 1)), (0, (1, 1)), (1, (1, 0))
    ]
