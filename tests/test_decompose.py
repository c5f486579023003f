import dataclasses
import random
from collections import Counter

import pytest

from gen import (
    contains,
    random_admissible_transform,
    random_rank1_instance,
    subspace_pair_canonical,
    worked_example,
)

from rank1dm import (
    GF,
    QQ,
    ChainPoset,
    Matrix,
    PartitionedMatrix,
    StabilityGraph,
    StableSubspace,
    Vector,
    build_bases,
    build_stability_graph,
    dm_decompose,
    ideal_to_stable_subspace,
    is_stable,
    max_independent_matching,
    maximal_chain,
    rank,
    reachability_sets,
    scc_poset,
    verify,
)
from rank1dm.decompose import PosetComponent
from rank1dm.partmat import HyperplaneVertex


def _labels(g, ids, side):
    return {g.pi_label(i) if side == "pi" else g.sigma_label(i) for i in ids}


def _node_labels(g, nodes):
    return {
        g.pi_label(v) if v < g.n_pi else g.sigma_label(v - g.n_pi) for v in nodes
    }


def test_reachability_worked_example(example_result):
    res = example_result
    c0, cinf = reachability_sets(res.state)
    assert _node_labels(res.graph, c0) == {"3a", "3'a", "2c"}
    assert cinf == set()


def test_reachability_empty_graph():
    g = StabilityGraph(GF(2), (1,), (1,))
    state = max_independent_matching(g)
    assert reachability_sets(state) == (set(), set())


def test_reachability_isolated_source_vertex():
    g = StabilityGraph(GF(2), (2,), (1,))
    g.pi = [HyperplaneVertex(0, Vector(GF(2), [1, 0]))]
    state = max_independent_matching(g)
    c0, cinf = reachability_sets(state)
    assert c0 == {0} and cinf == set()


def test_scc_poset_worked_example(example_result):
    res = example_result
    poset = res.poset
    g = res.graph
    assert poset.h == 3
    assert _labels(g, poset.components[0].h_pi, "pi") == {"1a", "3c"}
    assert _labels(g, poset.components[0].k_sigma, "sigma") == {"1'a", "2'c"}
    assert _labels(g, poset.components[1].h_pi, "pi") == {"2a"}
    assert _labels(g, poset.components[1].k_sigma, "sigma") == {"1'c"}
    assert _labels(g, poset.components[2].h_pi, "pi") == {"1b"}
    assert _labels(g, poset.components[2].k_sigma, "sigma") == {"3'c"}
    assert poset.relations == frozenset({(1, 2), (1, 3)})
    assert _labels(g, poset.h0, "pi") == {"2c"}
    assert _labels(g, poset.k0, "sigma") == {"3'a"}
    assert poset.hinf == () and poset.kinf == ()


def test_scc_component_holds_spanned_vertex(example_result):
    # the unmatched vertex 1c sits inside the component of 1a and 3c
    res = example_result
    assert _node_labels(res.graph, res.poset.components[0].nodes) == {
        "1a",
        "1c",
        "3c",
        "1'a",
        "2'c",
    }


def test_scc_poset_empty_graph():
    g = StabilityGraph(GF(2), (1,), (1,))
    state = max_independent_matching(g)
    poset = scc_poset(state, set(), set())
    assert poset.h == 0 and poset.relations == frozenset()
    assert poset.ideals() == [frozenset()]


def test_poset_ideals_worked_example(example_result):
    ideals = example_result.poset.ideals()
    assert [sorted(j) for j in ideals] == [[], [1], [1, 2], [1, 3], [1, 2, 3]]


def test_ideals_of_long_chain():
    # upper bidiagonal with unit blocks: the components form one chain
    n = 30
    rows = [[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n)]
    a = PartitionedMatrix(Matrix.from_rows(GF(2), rows), (1,) * n, (1,) * n)
    poset = dm_decompose(a).poset
    assert poset.h == n and len(poset.relations) == n * (n - 1) // 2
    assert poset.ideals() == [frozenset(range(1, k + 1)) for k in range(n + 1)]


def _poset_on(h, relations):
    return ChainPoset(
        state=None,
        c0=frozenset(),
        cinf=frozenset(),
        components=[PosetComponent(k, (), (), frozenset()) for k in range(1, h + 1)],
        relations=frozenset(relations),
        h0=(),
        k0=(),
        hinf=(),
        kinf=(),
    )


def test_ideals_match_subset_scan():
    rng = random.Random(61)
    for _ in range(60):
        h = rng.randint(0, 10)
        density = rng.random()
        relations = {
            (k, l) for l in range(1, h + 1) for k in range(1, l) if rng.random() < density
        }
        # the reference: every subset closed under the relations
        subsets = (
            frozenset(k + 1 for k in range(h) if mask >> k & 1) for mask in range(1 << h)
        )
        want = [j for j in subsets if all(k in j for k, l in relations if l in j)]
        want.sort(key=lambda j: (len(j), sorted(j)))
        assert _poset_on(h, relations).ideals() == want


def _pruned_reach(state, removed, start):
    seen = set(start)
    stack = list(start)
    while stack:
        for w, _ in state.adjacency[stack.pop()]:
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_relations_match_reachability():
    # (k, l) is a relation iff a path of the pruned auxiliary digraph runs
    # from component l to component k, possibly through unmatched components
    rng = random.Random(62)
    indirect = 0
    for field in (GF(2), GF(3), GF(101)):
        for _ in range(25):
            a = random_rank1_instance(
                rng, field, rng.randint(2, 5), rng.randint(2, 5), max_dim=2, zero_prob=0.5
            )
            res = dm_decompose(a)
            poset = res.poset
            removed = poset.c0 | poset.cinf
            comps = {c.label: c.nodes for c in poset.components}
            want = set()
            for l, nodes in comps.items():
                reached = _pruned_reach(res.state, removed, nodes)
                want |= {(k, l) for k, other in comps.items() if k != l and other & reached}
                # relations no single arc accounts for
                step = {w for v in nodes for w, _ in res.state.adjacency[v]}
                indirect += sum(1 for k, l2 in want if l2 == l and not comps[k] & step)
            assert poset.relations == want
    assert indirect > 0


def test_ideal_to_subspace_reference_cover(example):
    # the ideal {1} reproduces a known minimum-cover subspace:
    # X = F(1 0)^T + F(0 1)^T + F^2, Y = F(0 1)^T + F(1 1)^T + F(0 1)^T
    res = dm_decompose(example)
    sub = ideal_to_stable_subspace({1}, res.poset, res.graph)
    f = example.field
    got = sub.canonical(f, example.row_blocks, example.col_blocks)
    want = subspace_pair_canonical(
        f,
        example,
        [[(1, 0)], [(0, 1)], [(1, 0), (0, 1)]],
        [[(0, 1)], [(1, 1)], [(0, 1)]],
    )
    assert got == want
    assert sub.dims == (4, 3)


def test_ideal_empty_is_chain_bottom(example_result):
    res = example_result
    sub = ideal_to_stable_subspace(set(), res.poset, res.graph)
    assert sub == res.chain[0]
    assert sub.dims == (2, 5)


def test_ideal_full_gives_chain_top(example_result):
    res = example_result
    sub = ideal_to_stable_subspace({1, 2, 3}, res.poset, res.graph)
    assert sub.dims == (6, 1)
    assert sub == res.chain[-1]


def test_non_ideal_rejected(example_result):
    res = example_result
    with pytest.raises(ValueError):
        ideal_to_stable_subspace({2}, res.poset, res.graph)
    with pytest.raises(ValueError):
        ideal_to_stable_subspace({0, 1}, res.poset, res.graph)


def test_ideal_subspaces_match_definition():
    # every ideal's subspace, checked against the hyperplanes that cut it out
    # rather than against a kernel computation, where brute force cannot go
    rng = random.Random(49)
    checked = 0
    for field in (GF(101), QQ):
        for _ in range(12):
            a = random_rank1_instance(rng, field, rng.randint(2, 4), rng.randint(2, 4), max_dim=3)
            res = dm_decompose(a)
            g, poset = res.graph, res.poset
            for j in poset.ideals():
                sub = ideal_to_stable_subspace(j, poset, g)
                cut_pi = list(poset.hinf) + [
                    i for c in poset.components if c.label not in j for i in c.h_pi
                ]
                cut_sigma = list(poset.k0) + [
                    i for c in poset.components if c.label in j for i in c.k_sigma
                ]
                for bases, vertices, cut, dims in (
                    (sub.x_bases, g.pi, cut_pi, a.row_blocks),
                    (sub.y_bases, g.sigma, cut_sigma, a.col_blocks),
                ):
                    for blk, (basis, dim) in enumerate(zip(bases, dims)):
                        normals = [vertices[i].normal for i in cut if vertices[i].block == blk]
                        for nrm in normals:
                            for v in basis:
                                assert field.dot(nrm.data, v.data) == field.zero_raw
                        assert len(basis) == dim - len(normals)
                        assert rank(Matrix.from_row_vectors(field, list(basis), dim)) == len(basis)
                assert sub.dim_x + sub.dim_y == res.v_star
                assert is_stable(a, sub.x_bases, sub.y_bases)
                checked += 1
    assert checked >= 250


def test_maximal_chain_dims_worked_example(example_result):
    res = example_result
    assert res.chain_dims == [(2, 5), (4, 3), (5, 2), (6, 1)]
    assert [s.dims for s in res.chain] == res.chain_dims
    assert all(ik + jk == 7 for ik, jk in res.chain_dims)


def test_chain_nesting():
    rng = random.Random(41)
    for _ in range(15):
        field = GF(rng.choice([2, 3]))
        a = random_rank1_instance(rng, field, rng.randint(1, 3), rng.randint(1, 3))
        res = dm_decompose(a)
        f = a.field
        for lo, hi in zip(res.chain, res.chain[1:]):
            # X grows, Y shrinks
            for alpha, dim in enumerate(a.row_blocks):
                lo_rows = [v.data for v in lo.x_bases[alpha]]
                for v in lo.x_bases[alpha]:
                    assert contains(f, [w.data for w in hi.x_bases[alpha]], v.data, dim)
                assert len(lo_rows) <= len(hi.x_bases[alpha])
            for beta, dim in enumerate(a.col_blocks):
                for v in hi.y_bases[beta]:
                    assert contains(f, [w.data for w in lo.y_bases[beta]], v.data, dim)


def test_chain_step_identity():
    rng = random.Random(42)
    for _ in range(20):
        field = GF(rng.choice([2, 3]))
        a = random_rank1_instance(rng, field, rng.randint(1, 3), rng.randint(1, 3))
        res = dm_decompose(a)
        dims = res.chain_dims
        for (i0, j0), (i1, j1) in zip(dims, dims[1:]):
            assert i1 - i0 == j0 - j1 > 0


def _stacked_normals(entries, block, dim, field):
    """R_alpha (or S_beta): the block's entry normals stacked in chain order."""
    rows = [e.normal for e in entries if e.block == block]
    return Matrix.from_row_vectors(field, rows, dim)


def test_build_bases_orders(example, example_result):
    res = example_result
    g = res.graph
    asm = res.assembly
    assert asm.h_labels(g) == ["2c", "3a", "1a", "3c", "2a", "1b"]
    assert asm.k_labels(g) == ["3'a", "1'a", "2'c", "1'c", "3'c", "2'a"]
    f = example.field
    assert _stacked_normals(asm.h_entries, 2, 2, f) == Matrix.from_rows(f, [[1, 0], [1, 1]])
    # greedy unit completion appends (1,0) to the matched (1,1) in column
    # block 2, so S_2 stacks them in that order
    assert _stacked_normals(asm.k_entries, 1, 2, f) == Matrix.from_rows(f, [[1, 1], [1, 0]])
    # completion vectors carry no graph vertex
    assert asm.h_entries[1].vertex is None
    assert asm.k_entries[5].vertex is None


def test_build_bases_products_are_identity(example_result):
    asm = example_result.assembly
    for alpha, e in enumerate(asm.e_blocks):
        r = _stacked_normals(asm.h_entries, alpha, e.rows, e.field)
        assert r @ e == Matrix.identity(r.field, r.rows)
    for beta, f_ in enumerate(asm.f_blocks):
        s = _stacked_normals(asm.k_entries, beta, f_.rows, f_.field)
        assert s @ f_ == Matrix.identity(s.field, s.rows)


def test_dm_decompose_worked_example(example, example_result):
    res = example_result
    assert res.matching_size == 5
    assert res.v_star == 7
    assert res.diag_blocks == [(0, 1), (1, 1), (1, 1), (2, 2), (2, 1)]
    assert res.a_dm == res.E.transpose() @ example.matrix @ res.F
    assert verify(example, res).passed


def test_dm_decompose_all_zero():
    f = GF(3)
    a = PartitionedMatrix(Matrix.zeros(f, 3, 4), (1, 2), (2, 2))
    res = dm_decompose(a)
    assert res.matching_size == 0
    assert res.v_star == 7
    assert res.a_dm.is_zero()
    assert res.diag_blocks == [(0, 4), (3, 0)]
    assert res.chain_dims == [(3, 4)]
    assert verify(a, res).passed


def test_dm_decompose_single_rank1_block():
    f = GF(5)
    u = [1, 2, 0]
    v = [0, 1, 3, 1]
    data = [f.mul(ux, vx) for ux in u for vx in v]
    a = PartitionedMatrix(Matrix(f, 3, 4, data), (3,), (4,))
    res = dm_decompose(a)
    assert res.matching_size == 1
    assert res.v_star == 6
    assert res.diag_blocks == [(0, 3), (1, 1), (2, 0)]
    assert verify(a, res).passed


def test_dm_decompose_scalar_block_matches_rank_normal_form():
    f = QQ
    a = PartitionedMatrix(Matrix.from_rows(f, [[7]]), (1,), (1,))
    res = dm_decompose(a)
    assert res.diag_blocks == [(0, 0), (1, 1), (0, 0)]
    assert rank(res.a_dm) == rank(a.matrix) == 1


def test_verify_detects_tampering(example, example_result):
    res = example_result
    flipped = res.a_dm.copy()
    flipped.data[(flipped.rows - 1) * flipped.cols] = GF(2).one_raw  # below staircase
    bad = dataclasses.replace(res, a_dm=flipped)
    report = verify(example, bad)
    assert not report.passed
    assert not report.check("product").passed
    assert not report.check("staircase").passed


def test_verify_rejects_non_square_middle_block(example, example_result):
    bad = dataclasses.replace(
        example_result, diag_blocks=[(0, 1), (1, 1), (1, 1), (2, 1), (2, 2)]
    )
    check = verify(example, bad).check("staircase")
    assert not check.passed
    assert "not square" in check.detail


def test_verify_reports_malformed_diag_blocks(example, example_result):
    for blocks in ([6, 6], [(1, 2, 3)], [6] * 5, [(1, 2, 3)] * 5, [(1.0, 2)] * 5, None):
        report = verify(example, dataclasses.replace(example_result, diag_blocks=blocks))
        for name in ("staircase", "chain"):
            check = report.check(name)
            assert not check.passed
            assert "not a pair of integers" in check.detail or "not a list" in check.detail


def test_verify_rejects_negative_block_size(example, example_result):
    bad = dataclasses.replace(example_result, diag_blocks=[(7, 0), (-1, 6)])
    report = verify(example, bad)
    assert not report.passed
    assert "negative size" in report.check("staircase").detail


def test_verify_checks_chain_dims(example, example_result):
    bad = dataclasses.replace(example_result, chain_dims=[(9, 9)])
    check = verify(example, bad).check("chain")
    assert not check.passed and "chain dims" in check.detail
    bad = dataclasses.replace(example_result, chain_dims=[(2, 5), (4, 3), (5, 2), (5, 2)])
    check = verify(example, bad).check("chain")
    assert not check.passed and "disagree with the diagonal blocks" in check.detail
    # consistent with reordered middle blocks, but not with the chain itself
    bad = dataclasses.replace(
        example_result,
        diag_blocks=[(0, 1), (1, 1), (2, 2), (1, 1), (2, 1)],
        chain_dims=[(2, 5), (3, 4), (5, 2), (6, 1)],
    )
    check = verify(example, bad).check("chain")
    assert not check.passed and "disagree with the chain dims" in check.detail


def test_verify_rejects_truncated_chain(example, example_result):
    bad = dataclasses.replace(example_result, chain=example_result.chain[:1])
    check = verify(example, bad).check("chain")
    assert not check.passed
    assert "1 chain elements" in check.detail


def test_verify_reports_non_subspace_chain_element(example, example_result):
    for chain in ([None], [*example_result.chain[:-1], None]):
        bad = dataclasses.replace(example_result, chain=chain)
        check = verify(example, bad).check("chain")
        assert not check.passed
        assert "not a StableSubspace" in check.detail


def test_verify_reports_wrong_shapes(example, example_result):
    # a malformed result is a FAIL with a reason, never an exception
    bad = dataclasses.replace(example_result, E=Matrix.identity(GF(2), 5))
    report = verify(example, bad)
    assert not report.passed
    assert "E is 5x5" in report.check("product").detail
    assert not report.check("admissible").passed
    bad = dataclasses.replace(example_result, a_dm=Matrix.identity(QQ, 6))
    report = verify(example, bad)
    assert not report.check("product").passed
    bad = dataclasses.replace(example_result, a_dm=Matrix.zeros(GF(2), 6, 5))
    report = verify(example, bad)
    assert not report.check("product").passed
    assert not report.check("staircase").passed
    short = StableSubspace(((Vector(GF(2), [1]),), (), ()), ((), (), ()))
    bad = dataclasses.replace(example_result, chain=[short])
    report = verify(example, bad)
    assert "wrong length" in report.check("chain").detail


@pytest.mark.parametrize(
    "field, value, failing",
    [
        ("chain_dims", None, ("chain",)),
        ("chain", 5, ("chain",)),
        ("chain", [StableSubspace(None, None)], ("chain",)),
        ("matching_size", "x", ("chain", "duality")),
        ("E", None, ("product", "admissible")),
        ("F", None, ("product", "admissible")),
        ("a_dm", "x", ("product", "staircase")),
    ],
)
def test_verify_reports_malformed_fields(example, example_result, field, value, failing):
    report = verify(example, dataclasses.replace(example_result, **{field: value}))
    for name in failing:
        check = report.check(name)
        assert not check.passed and check.detail


def test_verify_detects_non_admissible_transform(example, example_result):
    res = example_result
    bad_e = Matrix.identity(GF(2), 6).copy()
    bad_e.data[5 * 6 + 0] = 1  # couples blocks 1 and 3
    bad = dataclasses.replace(res, E=bad_e)
    report = verify(example, bad)
    assert not report.check("admissible").passed


def test_chain_bases_span_chain_elements():
    rng = random.Random(43)
    cases = [worked_example()]
    for _ in range(8):
        field = GF(rng.choice([2, 3]))
        cases.append(random_rank1_instance(rng, field, rng.randint(1, 3), rng.randint(1, 3)))
    for a in cases:
        res = dm_decompose(a)
        f = a.field
        n, m = a.matrix.rows, a.matrix.cols
        row_offs = a.row_offsets
        col_offs = a.col_offsets
        for k, sub in enumerate(res.chain):
            ik, dim_y = res.chain_dims[k]
            jk = m - dim_y
            # e_1 .. e_ik lie in X^k (e_i is column n - i of E)
            for i in range(1, ik + 1):
                col = res.E.col(n - i)
                entry = res.assembly.h_entries[i - 1]
                alpha = entry.block
                seg = col.data[row_offs[alpha] : row_offs[alpha + 1]]
                basis = [w.data for w in sub.x_bases[alpha]]
                assert contains(f, basis, seg, a.row_blocks[alpha])
                assert all(
                    x == f.zero_raw
                    for t, x in enumerate(col.data)
                    if not row_offs[alpha] <= t < row_offs[alpha + 1]
                )
            # f_{jk+1} .. f_m lie in Y^k (f_j is column m - j of F)
            for j in range(jk + 1, m + 1):
                col = res.F.col(m - j)
                entry = res.assembly.k_entries[j - 1]
                beta = entry.block
                seg = col.data[col_offs[beta] : col_offs[beta + 1]]
                basis = [w.data for w in sub.y_bases[beta]]
                assert contains(f, basis, seg, a.col_blocks[beta])


def test_canonical_form_invariance_small():
    rng = random.Random(44)
    for _ in range(10):
        field = GF(rng.choice([2, 3]))
        a = random_rank1_instance(rng, field, rng.randint(1, 3), rng.randint(1, 3))
        res = dm_decompose(a)
        twisted = random_admissible_transform(rng, a)
        res2 = dm_decompose(twisted)
        assert res2.matching_size == res.matching_size
        assert Counter(res2.diag_blocks[1:-1]) == Counter(res.diag_blocks[1:-1])
        assert res2.diag_blocks[0] == res.diag_blocks[0]
        assert res2.diag_blocks[-1] == res.diag_blocks[-1]


def test_rational_pipeline():
    rng = random.Random(45)
    for _ in range(5):
        a = random_rank1_instance(rng, QQ, rng.randint(1, 3), rng.randint(1, 3))
        res = dm_decompose(a)
        assert verify(a, res).passed
        assert rank(a.matrix) <= res.matching_size


def test_generic_rational_rank_with_retry():
    # random large coefficients make the rank match the matching size; if a
    # draw happens to be degenerate one resample must fix it
    from fractions import Fraction

    rng = random.Random(48)

    def instance():
        blocks = []
        for na in (2, 1):
            brow = []
            for mb in (2, 2):
                u = [Fraction(rng.randint(0, 2)) for _ in range(na)]
                v = [Fraction(rng.randint(0, 2)) for _ in range(mb)]
                if not any(u):
                    u[0] = Fraction(1)
                if not any(v):
                    v[0] = Fraction(1)
                c = Fraction(rng.randint(1, 10**6))
                brow.append(Matrix(QQ, na, mb, [c * x * y for x in u for y in v]))
            blocks.append(brow)
        return PartitionedMatrix.from_blocks(blocks)

    for _ in range(25):
        a = instance()
        res = dm_decompose(a)
        if rank(a.matrix) != res.matching_size:
            a = instance()
            res = dm_decompose(a)
        assert rank(a.matrix) == res.matching_size


def test_alternate_topological_order_keeps_block_structure(example, example_result):
    # labels 1,3,2 also linearly extend the order 1 < 2, 1 < 3; the assembled
    # form changes but the staircase and the size multiset do not
    res = example_result
    p = res.poset
    comps = [
        dataclasses.replace(p.components[0], label=1),
        dataclasses.replace(p.components[2], label=2),
        dataclasses.replace(p.components[1], label=3),
    ]
    alt = dataclasses.replace(p, components=comps)
    asm = build_bases(alt, res.graph, example)
    a_dm = asm.E.transpose() @ example.matrix @ asm.F
    h = alt.h
    hs, ks = asm.h_group_sizes, asm.k_group_sizes
    diag = [(hs[h + 1], ks[h + 1])]
    diag += [(hs[k], ks[k]) for k in range(h, 0, -1)]
    diag.append((hs[0], ks[0]))
    alt_result = dataclasses.replace(
        res, E=asm.E, F=asm.F, a_dm=a_dm, diag_blocks=diag, chain=None,
        assembly=asm, poset=alt,
    )
    report = verify(example, alt_result)
    assert report.check("product").passed
    assert report.check("admissible").passed
    assert report.check("staircase").passed
    assert Counter(diag[1:-1]) == Counter(res.diag_blocks[1:-1])
    assert diag[0] == res.diag_blocks[0] and diag[-1] == res.diag_blocks[-1]


def test_min_cover_value_on_random_instances():
    from rank1dm import cover_value, min_cover

    rng = random.Random(47)
    for _ in range(20):
        field = GF(rng.choice([2, 3]))
        a = random_rank1_instance(rng, field, rng.randint(1, 4), rng.randint(1, 4))
        g = build_stability_graph(a)
        state = max_independent_matching(g)
        cover = min_cover(state)
        assert cover_value(g, cover) == state.size
        for e in g.edges:
            assert e.pi in cover.H or e.sigma in cover.K


def test_topological_labels_linear_extension():
    rng = random.Random(46)
    for _ in range(15):
        field = GF(rng.choice([2, 3]))
        a = random_rank1_instance(rng, field, rng.randint(1, 3), rng.randint(1, 3))
        res = dm_decompose(a)
        for k, l in res.poset.relations:
            assert k < l
        # groups partition the matched vertices
        poset = res.poset
        all_h = list(poset.h0) + [i for c in poset.components for i in c.h_pi] + list(poset.hinf)
        assert sorted(all_h) == sorted(res.state.matched_pi)
        all_k = list(poset.k0) + [j for c in poset.components for j in c.k_sigma] + list(poset.kinf)
        assert sorted(all_k) == sorted(res.state.matched_sigma)
        partner = {
            res.graph.edges[k].pi: res.graph.edges[k].sigma
            for k in res.state.matching
        }
        for c in poset.components:
            assert len(c.h_pi) == len(c.k_sigma) >= 1
            assert sorted(partner[i] for i in c.h_pi) == list(c.k_sigma)
