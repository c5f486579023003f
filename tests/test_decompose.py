import dataclasses
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gen import (
    contains,
    cover_value,
    from_blocks,
    is_stable,
    min_cover,
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
    max_independent_matching,
    maximal_chain,
    reachability_sets,
    rref,
    scc_poset,
    verify,
)
from rank1dm.decompose import PosetComponent, _adapted_basis, _chain_dims
from rank1dm.partmat import HyperplaneVertex, column_parts


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
    sub = ideal_to_stable_subspace({1}, res.poset)
    f = example.field
    got = subspace_pair_canonical(f, example, sub.x_bases, sub.y_bases)
    want = subspace_pair_canonical(
        f,
        example,
        [[(1, 0)], [(0, 1)], [(1, 0), (0, 1)]],
        [[(0, 1)], [(1, 1)], [(0, 1)]],
    )
    assert got == want
    assert (sub.dim_x, sub.dim_y) == (4, 3)


def test_ideal_empty_is_chain_bottom(example_result):
    res = example_result
    sub = ideal_to_stable_subspace(set(), res.poset)
    assert sub == maximal_chain(res.poset, res.graph)[0]
    assert (sub.dim_x, sub.dim_y) == (2, 5)


def test_ideal_full_gives_chain_top(example_result):
    res = example_result
    sub = ideal_to_stable_subspace({1, 2, 3}, res.poset)
    assert (sub.dim_x, sub.dim_y) == (6, 1)
    assert sub == maximal_chain(res.poset, res.graph)[-1]


def test_non_ideal_rejected(example_result):
    res = example_result
    with pytest.raises(ValueError):
        ideal_to_stable_subspace({2}, res.poset)
    with pytest.raises(ValueError):
        ideal_to_stable_subspace({0, 1}, res.poset)


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
                sub = ideal_to_stable_subspace(j, poset)
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
                        stacked = Matrix(field, len(basis), dim, [x for v in basis for x in v.data])
                        assert rref(stacked).rank == len(basis)
                assert sub.dim_x + sub.dim_y == res.v_star
                assert is_stable(a, sub.x_bases, sub.y_bases)
                checked += 1
    assert checked >= 250


def test_maximal_chain_dims_worked_example(example_result):
    res = example_result
    assert res.chain_dims == [(2, 5), (4, 3), (5, 2), (6, 1)]
    chain = maximal_chain(res.poset, res.graph)
    assert [(s.dim_x, s.dim_y) for s in chain] == res.chain_dims
    assert all(ik + jk == 7 for ik, jk in res.chain_dims)


def test_chain_nesting():
    rng = random.Random(41)
    for _ in range(15):
        field = GF(rng.choice([2, 3]))
        a = random_rank1_instance(rng, field, rng.randint(1, 3), rng.randint(1, 3))
        res = dm_decompose(a)
        f = a.field
        chain = maximal_chain(res.poset, res.graph)
        for lo, hi in zip(chain, chain[1:]):
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
    return Matrix(field, len(rows), dim, [x for v in rows for x in v.data])


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


def test_build_bases_products_are_identity(example, example_result):
    asm = example_result.assembly
    f = example.field
    for entries, dims in ((asm.h_entries, example.row_blocks), (asm.k_entries, example.col_blocks)):
        for blk, dim in enumerate(dims):
            r = _stacked_normals(entries, blk, dim, f)
            duals = [e.dual for e in entries if e.block == blk]
            duals = Matrix(f, len(duals), dim, [x for v in duals for x in v.data])
            assert r @ duals.transpose() == Matrix.identity(f, dim)


def _one_block_basis(field, normals, dim, completion_group=2):
    """_adapted_basis on a single block whose normals form group 1."""
    vertices = [HyperplaneVertex(0, u) for u in normals]
    return _adapted_basis(field, vertices, [dim], [(1, range(len(normals)))], completion_group)


def test_adapted_basis_completion_examples():
    f = GF(2)
    e1, e2 = Vector(f, [1, 0]), Vector(f, [0, 1])
    for normals, completion in (([], [e1, e2]), ([Vector(f, [1, 1])], [e1]), ([e1, e2], [])):
        entries = _one_block_basis(f, normals, 2)
        assert [e.normal for e in entries] == normals + completion
        assert [e.group for e in entries] == [1] * len(normals) + [2] * len(completion)


def test_adapted_basis_is_greedy_and_dual():
    rng = random.Random(11)
    for field in (GF(2), GF(3), GF(101), QQ):
        for _ in range(30):
            dim = rng.randint(1, 4)

            def independent(vecs):
                stacked = Matrix(field, len(vecs), dim, [x for v in vecs for x in v.data])
                return rref(stacked).rank == len(vecs)

            normals = []
            for _ in range(rng.randint(0, dim)):
                cand = Vector(field, [rng.randint(-4, 4) for _ in range(dim)])
                if independent(normals + [cand]):
                    normals.append(cand)
            greedy = []
            for idx in range(dim):
                if independent(normals + greedy + [Vector.unit(field, dim, idx)]):
                    greedy.append(Vector.unit(field, dim, idx))
            group = rng.choice((0, 2))  # the completion goes before or after the normals
            entries = _one_block_basis(field, normals, dim, group)
            assert [e.normal for e in entries if e.group == 1] == normals
            assert [e.normal for e in entries if e.group == group] == greedy
            assert [e.group for e in entries] == sorted(e.group for e in entries)
            for e in entries:
                for other in entries:
                    want = field.one_raw if other is e else field.zero_raw
                    assert field.dot(other.normal.data, e.dual.data) == want


def test_adapted_basis_dependent_normals_raise():
    f = GF(3)
    with pytest.raises(ValueError):
        _one_block_basis(f, [Vector(f, [1, 2]), Vector(f, [2, 1])], 2)


def test_transforms_are_the_scattered_duals(example_result):
    """Column n-1-i of E is h_entries[i].dual on its block's rows and zero
    elsewhere; likewise F and k_entries."""
    res = example_result
    asm = res.assembly
    sides = (
        (res.E, asm.h_entries, res.row_blocks),
        (res.F, asm.k_entries, res.col_blocks),
    )
    for mat, entries, dims in sides:
        offsets = [sum(dims[:b]) for b in range(len(dims))]
        zero = mat.field.zero_raw
        for i, e in enumerate(entries):
            col = tuple(mat.data[mat.cols - 1 - i :: mat.cols])
            lo = offsets[e.block]
            hi = lo + dims[e.block]
            assert col[lo:hi] == e.dual.data
            assert all(x == zero for x in col[:lo] + col[hi:])


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
    assert res.a_dm == Matrix.zeros(f, 3, 4)
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
    assert rref(res.a_dm).rank == rref(a.matrix).rank == 1


def test_verify_detects_tampering(example, example_result):
    res = example_result
    flipped = Matrix(GF(2), 6, 6, list(res.a_dm.data))
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


def _padded(res):
    """The result with a 0x0 middle block after D_inf and the last chain
    element repeated, its chain dims recomputed: every count still agrees."""
    blocks = [res.diag_blocks[0], (0, 0), *res.diag_blocks[1:]]
    chain = maximal_chain(res.poset, res.graph)
    return dataclasses.replace(
        res,
        diag_blocks=blocks,
        chain=[*chain, chain[-1]],
        chain_dims=_chain_dims(blocks, res.a_dm.cols),
    )


def test_verify_rejects_an_empty_middle_block(example, example_result):
    # the extra block is also one more than the poset has components
    report = verify(example, _padded(example_result))
    assert [c.name for c in report.checks if not c.passed] == ["staircase", "chain"]
    assert report.check("staircase").detail == "middle diagonal block 1 is empty"
    rng = random.Random(62)
    padded = 0
    while padded < 20:
        a = random_rank1_instance(rng, GF(2), 4, 4, max_dim=2, zero_prob=0.5)
        res = dm_decompose(a)
        if len(res.diag_blocks) > 2:  # h >= 1
            padded += 1
            assert not verify(a, _padded(res)).check("staircase").passed


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
    # consistent with reordered middle blocks, as many as the poset has
    # components: A_dm's staircase rejects the order
    bad = dataclasses.replace(
        example_result,
        diag_blocks=[(0, 1), (1, 1), (2, 2), (1, 1), (2, 1)],
        chain_dims=[(2, 5), (3, 4), (5, 2), (6, 1)],
    )
    report = verify(example, bad)
    assert [c.name for c in report.checks if not c.passed] == ["staircase"]


def _merged(res, first, count):
    """The result with ``count`` adjacent middle blocks, diagonal block
    ``first`` on, merged into one, the chain elements between them dropped
    and the chain dims recomputed: a coarser block triangularization whose
    every count still agrees."""
    blocks, last = res.diag_blocks, first + count
    merged = [*blocks[:first], tuple(map(sum, zip(*blocks[first:last]))), *blocks[last:]]
    # chain element k spans the last k+1 blocks
    between = {len(blocks) - 1 - j for j in range(first + 1, last)}
    chain = maximal_chain(res.poset, res.graph)
    return dataclasses.replace(
        res,
        diag_blocks=merged,
        chain=[sub for k, sub in enumerate(chain) if k not in between],
        chain_dims=_chain_dims(merged, res.a_dm.cols),
    )


def test_verify_rejects_truncated_chain(example, example_result):
    # all three middle blocks merged: a chain of two elements
    bad = _merged(example_result, 1, 3)
    assert len(bad.chain) == len(bad.chain_dims) == 2
    check = verify(example, bad).check("chain")
    assert not check.passed
    assert check.detail == "1 middle diagonal blocks for a poset of 3 components"


@pytest.mark.parametrize(
    "field, count",
    [(GF(2), 2), (GF(3), 2), (GF(2), 3), (GF(3), 3), (QQ, 2)],
    ids=["gf2-two", "gf3-two", "gf2-three", "gf3-three", "qq-two"],
)
def test_verify_rejects_merged_middle_blocks(example, example_result, field, count):
    # the coarser decomposition passes every other check: only the height of
    # the poset rebuilt from A and the witness tells it from the finest one
    cases = [(example, example_result)] if field == GF(2) else []
    rng = random.Random(f"merged/{field}/{count}")
    while len(cases) < 8:
        a = random_rank1_instance(rng, field, rng.randint(3, 7), rng.randint(3, 7), zero_prob=0.6)
        res = dm_decompose(a)
        if res.poset.h >= count:
            cases.append((a, res))
    forged = 0
    for a, res in cases:
        for first in range(1, res.poset.h - count + 2):
            report = verify(a, _merged(res, first, count))
            assert [c.name for c in report.checks if not c.passed] == ["chain"], str(report)
            h = res.poset.h
            assert report.check("chain").detail == (
                f"{h - count + 1} middle diagonal blocks for a poset of {h} components"
            )
            forged += 1
    assert forged >= len(cases)


def test_verify_checks_the_chain_without_a_stored_one(example, example_result):
    # no stored chain skips nothing: the chain check runs and still tells
    # the merged forgery from the finest decomposition
    report = verify(example, dataclasses.replace(example_result, chain=None))
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["product", "admissible", "staircase", "chain", "duality"]
    bad = dataclasses.replace(_merged(example_result, 1, 2), chain=None)
    assert [c.name for c in verify(example, bad).checks if not c.passed] == ["chain"]


def test_verify_reports_non_subspace_chain_element(example, example_result):
    # a chain dims element that is not a dimension pair
    for dims in ([None], [*example_result.chain_dims[:-1], None]):
        bad = dataclasses.replace(example_result, chain_dims=dims)
        check = verify(example, bad).check("chain")
        assert not check.passed
        assert check.detail == "chain dims disagree with the diagonal blocks"


def _rebased(mat, offsets, basis_of):
    """``mat`` with its columns inside each block, read as that block's
    basis, replaced by ``basis_of(basis)``."""
    data, field = list(mat.data), mat.field
    for lo, part in zip(offsets, column_parts(mat, offsets)):
        basis = basis_of(tuple(Vector(mat.field, x) for _, x in part))
        for (col, _), v in zip(part, basis):
            field = v.field
            for r, x in enumerate(v.data):
                data[(lo + r) * mat.cols + col] = x
    return Matrix(field, mat.rows, mat.cols, data)


@pytest.mark.parametrize(
    "basis_of, check, reason",
    [
        (lambda b: tuple(Vector(GF(2), [0] * len(v)) for v in b), "admissible", "is zero"),
        (lambda b: b[:1] * len(b), "admissible", "columns are singular"),
        (lambda b: tuple(Vector(GF(3), v.data) for v in b), "product", "over GF(3)"),
    ],
    ids=["zero-vectors", "repeated-vector", "gf3-vectors"],
)
def test_verify_rejects_a_forged_chain(example, example_result, basis_of, check, reason):
    # the chain is E's and F's column filtration, so each forgery rebases
    # E's and F's columns block by block
    res = example_result
    forged = dataclasses.replace(
        res,
        E=_rebased(res.E, example.row_offsets, basis_of),
        F=_rebased(res.F, example.col_offsets, basis_of),
    )
    verdict = verify(example, forged).check(check)
    assert not verdict.passed
    assert reason in verdict.detail


def test_verify_coerces_a_raw_chain(example, example_result):
    # the stored chain is not read: raw lists, or no subspaces at all
    chain = maximal_chain(example_result.poset, example_result.graph)
    def side(bases):
        return tuple(tuple(list(v.data) for v in b) for b in bases)
    raw = [StableSubspace(side(s.x_bases), side(s.y_bases)) for s in chain]
    for stored in (raw, 5, [StableSubspace(None, None)]):
        assert verify(example, dataclasses.replace(example_result, chain=stored)).passed


@pytest.mark.parametrize("side", ["row_blocks", "col_blocks"])
def test_verify_rejects_a_foreign_partition(example, example_result, side):
    forged = dataclasses.replace(example_result, **{side: (1,) * 6})
    report = verify(example, forged)
    assert [c.name for c in report.checks if not c.passed] == ["admissible"]
    assert "(1, 1, 1, 1, 1, 1) are not A's (2, 2, 2)" in report.check("admissible").detail


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
    bad = dataclasses.replace(example_result, F=Matrix.identity(GF(2), 5))
    report = verify(example, bad)
    assert "F is 5x5" in report.check("product").detail
    assert "F: matrix size does not match the partition" in report.check("admissible").detail


# the stored chain is not read, so a malformed one fails nothing
@pytest.mark.parametrize(
    "field, value, failing",
    [
        ("chain_dims", None, ("chain",)),
        ("chain", 5, ()),
        ("chain", [StableSubspace(None, None)], ()),
        ("matching_size", "x", ("duality",)),
        ("E", None, ("product", "admissible")),
        ("F", None, ("product", "admissible")),
        ("a_dm", "x", ("product", "staircase")),
        ("chain", [StableSubspace((((Fraction(1, 2), 1),), (), ()), ((), (), ()))], ()),
    ],
)
def test_verify_reports_malformed_fields(example, example_result, field, value, failing):
    report = verify(example, dataclasses.replace(example_result, **{field: value}))
    assert [c.name for c in report.checks if not c.passed] == list(failing)
    for name in failing:
        assert report.check(name).detail


@pytest.mark.parametrize(
    "field, value",
    [(GF(2), None), (GF(2), "x"), (GF(2), 0.5), (QQ, 0.5), (QQ, None)],
    ids=["gf2-none", "gf2-str", "gf2-float", "qq-float", "qq-none"],
)
@pytest.mark.parametrize("side", ["E", "F"])
def test_verify_reports_a_value_outside_the_field(example, example_result, field, value, side):
    # a right-shaped Matrix holding a raw value that is not a carrier of A's
    # field fails product and admissible with its position; nothing raises
    a = example if field == GF(2) else random_rank1_instance(random.Random(5), QQ, 3, 3)
    res = example_result if field == GF(2) else dm_decompose(a)
    mat = getattr(res, side)
    data = list(mat.data)
    data[mat.cols + 1] = value
    report = verify(a, dataclasses.replace(res, **{side: Matrix(field, mat.rows, mat.cols, data)}))
    reason = f"{side} holds {value!r} at (1, 1), not a value of {field}"
    for name in ("product", "admissible"):
        check = report.check(name)
        assert not check.passed and check.detail == reason
    assert all(c.passed for c in report.checks if c.name not in ("product", "admissible"))


def test_verify_rejects_a_float_in_a_dm():
    # a float equals its Fraction, yet it is not a value of QQ
    a = random_rank1_instance(random.Random(5), QQ, 3, 3)
    res = dm_decompose(a)
    k = next(k for k, x in enumerate(res.a_dm.data) if x)
    data = list(res.a_dm.data)
    data[k] = float(data[k])
    a_dm = Matrix(QQ, res.a_dm.rows, res.a_dm.cols, data)
    check = verify(a, dataclasses.replace(res, a_dm=a_dm)).check("product")
    assert not check.passed and f"A_dm holds {data[k]!r}" in check.detail


def test_verify_detects_non_admissible_transform(example, example_result):
    res = example_result
    bad_e = Matrix.identity(GF(2), 6)
    bad_e.data[5 * 6 + 0] = 1  # couples blocks 1 and 3
    bad = dataclasses.replace(res, E=bad_e)
    report = verify(example, bad)
    assert not report.check("admissible").passed
    # the product verdict does not depend on admissibility: E^T A F is exact
    # for this E too, and a flipped entry of it still fails
    a_dm = bad_e.transpose() @ example.matrix @ res.F
    report = verify(example, dataclasses.replace(bad, a_dm=a_dm))
    assert report.check("product").passed and not report.check("admissible").passed
    a_dm.data[0] = 1 - a_dm.data[0]
    assert not verify(example, dataclasses.replace(bad, a_dm=a_dm)).check("product").passed


def test_admissible_reason_names_the_matrix(example, example_result):
    check = verify(example, dataclasses.replace(example_result, F=None)).check("admissible")
    assert not check.passed and "F:" in check.detail and "E:" not in check.detail
    zeroed = Matrix(GF(2), 6, 6, list(example_result.E.data))
    for r in range(zeroed.rows):
        zeroed.data[r * zeroed.cols + 2] = GF(2).zero_raw
    check = verify(example, dataclasses.replace(example_result, E=zeroed)).check("admissible")
    assert not check.passed and check.detail == "E: column 2 is zero"


@pytest.mark.parametrize("size", [6, 4, 0])
def test_duality_rejects_a_forged_matching_size(example, example_result, size):
    # without the chain, nothing else ties v* to A
    forged = dataclasses.replace(
        example_result, matching_size=size, v_star=12 - size, chain=None
    )
    report = verify(example, forged)
    assert [c.name for c in report.checks if not c.passed] == ["duality"]
    assert "matched edges" in report.check("duality").detail


def test_duality_rejects_a_dependent_witness(example, example_result):
    # three edges on distinct vertices whose row-side normals lie in one
    # block of dimension 2: a matching, but not an independent one
    g = example_result.graph
    triple = next(
        frozenset(ks) for ks in combinations(range(len(g.edges)), 3)
        if len({g.edges[k].pi for k in ks}) == len({g.edges[k].sigma for k in ks}) == 3
        and len({g.edges[k].alpha for k in ks}) == 1
    )
    forged = dataclasses.replace(
        example_result,
        state=dataclasses.replace(example_result.state, matching=triple),
        matching_size=3,
        v_star=9,
        chain=None,
    )
    check = verify(example, forged).check("duality")
    assert not check.passed
    assert check.detail == "malformed matching witness: matching endpoints are not independent"


@pytest.mark.parametrize("side", ["pi", "sigma"])
def test_duality_rejects_two_edges_on_one_vertex(example, example_result, side):
    # a matching of two real edges sharing a vertex on ``side``: that block
    # holds the same normal twice, while the other side stays independent
    g = example_result.graph
    pair = next(
        {k, l} for k, l in combinations(range(len(g.edges)), 2)
        if getattr(g.edges[k], side) == getattr(g.edges[l], side)
    )
    forged = dataclasses.replace(
        example_result,
        state=dataclasses.replace(example_result.state, matching=frozenset(pair)),
        matching_size=2,
        v_star=10,
        chain=None,
    )
    check = verify(example, forged).check("duality")
    assert not check.passed
    assert check.detail == "malformed matching witness: edge set is not a matching"


def test_duality_rejects_a_normal_that_is_not_the_factor(example, example_result):
    g, state = example_result.graph, example_result.state
    e = g.edges[min(state.matching)]
    u = g.pi[e.pi].normal
    other = next(
        Vector(GF(2), bits)
        for bits in ([1, 0], [0, 1], [1, 1])
        if Vector(GF(2), bits) != u
    )
    pi = list(g.pi)
    pi[e.pi] = HyperplaneVertex(e.alpha, other)
    forged = dataclasses.replace(example_result, graph=dataclasses.replace(g, pi=pi))
    check = verify(example, forged).check("duality")
    assert not check.passed and check.detail == "the witness graph is not A's stability graph"


def test_duality_reports_a_missing_or_malformed_witness(example, example_result):
    state = example_result.state
    cases = [
        ("no matching witness attached", dataclasses.replace(example_result, state=None)),
        ("no matching witness attached", dataclasses.replace(example_result, graph=None)),
        ("malformed matching witness", dataclasses.replace(
            example_result, state=dataclasses.replace(state, matching=state.matching | {99})
        )),
        ("malformed matching witness", dataclasses.replace(
            example_result, state=dataclasses.replace(state, matching=5)
        )),
    ]
    g = example_result.graph
    cases += [  # dict-valued witness lists
        ("is not A's stability graph", dataclasses.replace(
            example_result, graph=dataclasses.replace(g, **{name: {}})
        ))
        for name in ("edges", "pi", "sigma")
    ]
    k = min(state.matching)
    for coeff in (None, "1"):  # a matched edge with a forged coefficient
        edges = list(g.edges)
        edges[k] = dataclasses.replace(edges[k], coeff=coeff)
        cases.append(("is not A's stability graph", dataclasses.replace(
            example_result, graph=dataclasses.replace(g, edges=edges)
        )))
    for reason, forged in cases:
        check = verify(example, forged).check("duality")
        assert not check.passed and reason in check.detail


def test_verify_reports_a_block_of_rank_two(example, example_result):
    # the identity in block (2,2) breaks the rank-1 condition: every check
    # still runs, and the product and chain checks name the block
    blocks = [[example.block(i, j) for j in range(3)] for i in range(3)]
    blocks[1][1] = Matrix.identity(GF(2), 2)
    report = verify(from_blocks(blocks), example_result)
    assert not report.passed
    assert [c.name for c in report.checks] == ["product", "admissible", "staircase", "chain", "duality"]
    for name in ("product", "chain"):
        check = report.check(name)
        assert not check.passed and check.detail == "A has blocks of rank >= 2 at (2,2)"


def test_each_block_is_read_once_per_matrix(monkeypatch):
    # the graph builder and the verifier share one factoring of A
    calls = Counter()
    block = PartitionedMatrix.block

    def counted(self, alpha, beta):
        calls[alpha, beta] += 1
        return block(self, alpha, beta)

    monkeypatch.setattr(PartitionedMatrix, "block", counted)
    rng = random.Random(58)
    for a in (worked_example(), random_rank1_instance(rng, GF(3), 3, 4, zero_prob=0.5)):
        calls.clear()
        assert verify(a, dm_decompose(a)).passed
        assert calls == Counter({(al, be): 1 for al in range(a.mu) for be in range(a.nu)})


def test_duality_reports_a_wrong_lower_bound(example, example_result):
    # the first diagonal block must span a stable pair of dimension v*
    forged = dataclasses.replace(
        example_result, diag_blocks=[(1, 1), (1, 1), (1, 1), (2, 2), (1, 1)], chain=None
    )
    check = verify(example, forged).check("duality")
    assert not check.passed and "stable pair of dimension 6" in check.detail
    check = verify(example, dataclasses.replace(example_result, diag_blocks=[])).check("duality")
    assert not check.passed and "empty" in check.detail


def test_duality_certifies_random_decompositions():
    rng = random.Random(48)
    for field in (GF(2), GF(3), GF(101), QQ) * 6:
        a = random_rank1_instance(rng, field, rng.randint(1, 4), rng.randint(1, 4), max_dim=3)
        res = dm_decompose(a)
        report = verify(a, res)
        assert report.passed, str(report)
        forged = dataclasses.replace(
            res, matching_size=res.matching_size + 1, v_star=res.v_star - 1, chain=None
        )
        assert not verify(a, forged).check("duality").passed


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
        for k, sub in enumerate(maximal_chain(res.poset, res.graph)):
            ik, dim_y = res.chain_dims[k]
            jk = m - dim_y
            # e_1 .. e_ik lie in X^k (e_i is column n - i of E)
            for i in range(1, ik + 1):
                col = res.E.data[n - i :: n]
                entry = res.assembly.h_entries[i - 1]
                alpha = entry.block
                seg = col[row_offs[alpha] : row_offs[alpha + 1]]
                basis = [w.data for w in sub.x_bases[alpha]]
                assert contains(f, basis, seg, a.row_blocks[alpha])
                assert all(
                    x == f.zero_raw
                    for t, x in enumerate(col)
                    if not row_offs[alpha] <= t < row_offs[alpha + 1]
                )
            # f_{jk+1} .. f_m lie in Y^k (f_j is column m - j of F)
            for j in range(jk + 1, m + 1):
                col = res.F.data[m - j :: m]
                entry = res.assembly.k_entries[j - 1]
                beta = entry.block
                seg = col[col_offs[beta] : col_offs[beta + 1]]
                basis = [w.data for w in sub.y_bases[beta]]
                assert contains(f, basis, seg, a.col_blocks[beta])


def test_canonical_form_invariance_small():
    rng = random.Random(44)
    for k in range(50):
        field = GF(rng.choice([2, 3])) if k < 10 else (GF(101), QQ)[k % 2]
        max_dim = 2 if k < 10 else 3
        a = random_rank1_instance(rng, field, rng.randint(1, 3), rng.randint(1, 3), max_dim)
        res = dm_decompose(a)
        twisted = random_admissible_transform(rng, a)
        res2 = dm_decompose(twisted)
        assert res2.matching_size == res.matching_size
        assert Counter(res2.diag_blocks[1:-1]) == Counter(res.diag_blocks[1:-1])
        assert res2.diag_blocks[0] == res.diag_blocks[0]
        assert res2.diag_blocks[-1] == res.diag_blocks[-1]
        assert res2.poset.h == res.poset.h
        assert len(res2.poset.relations) == len(res.poset.relations)


def _scaled_block_permutation(data, f, sizes) -> Matrix:
    """Sends each block to a drawn block of the same size and scales every
    coordinate by a drawn nonzero scalar: a member of the transformation
    group."""
    groups: dict[int, list[int]] = {}
    for blk, size in enumerate(sizes):
        groups.setdefault(size, []).append(blk)
    dest: dict[int, int] = {}
    for group in groups.values():
        dest.update(zip(group, data.draw(st.permutations(group))))
    if f == QQ:
        scalar = st.integers(-9, 9).filter(bool).map(Fraction)
    else:
        scalar = st.integers(1, f.p - 1)
    offsets = [sum(sizes[:blk]) for blk in range(len(sizes))]
    n = sum(sizes)
    m = Matrix.zeros(f, n, n)
    for blk, size in enumerate(sizes):
        for k in range(size):
            m.data[(offsets[blk] + k) * n + offsets[dest[blk]] + k] = data.draw(scalar)
    return m


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([GF(2), GF(3), GF(101), QQ]), st.randoms(use_true_random=False), st.data())
def test_canonical_form_invariance_hypothesis(field, rng, data):
    # the invariants survive every block permutation and scaling drawn, and
    # solving the transformed matrix again repeats the matching and A_DM
    max_dim = 2 if field in (GF(2), GF(3)) else 3
    a = random_rank1_instance(rng, field, rng.randint(1, 3), rng.randint(1, 3), max_dim)
    p = _scaled_block_permutation(data, field, a.row_blocks)
    q = _scaled_block_permutation(data, field, a.col_blocks)
    twisted = PartitionedMatrix(p.transpose() @ a.matrix @ q, a.row_blocks, a.col_blocks)
    res, res2 = dm_decompose(a), dm_decompose(twisted)
    assert res2.matching_size == res.matching_size
    assert Counter(res2.diag_blocks[1:-1]) == Counter(res.diag_blocks[1:-1])
    assert res2.diag_blocks[0] == res.diag_blocks[0]
    assert res2.diag_blocks[-1] == res.diag_blocks[-1]
    assert res2.poset.h == res.poset.h
    assert len(res2.poset.relations) == len(res.poset.relations)
    again = dm_decompose(twisted)
    assert again.state.matching == res2.state.matching
    assert again.a_dm.data == res2.a_dm.data


def test_rational_pipeline():
    rng = random.Random(45)
    for _ in range(5):
        a = random_rank1_instance(rng, QQ, rng.randint(1, 3), rng.randint(1, 3))
        res = dm_decompose(a)
        assert verify(a, res).passed
        assert rref(a.matrix).rank <= res.matching_size


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
        return from_blocks(blocks)

    for _ in range(25):
        a = instance()
        res = dm_decompose(a)
        if rref(a.matrix).rank != res.matching_size:
            a = instance()
            res = dm_decompose(a)
        assert rref(a.matrix).rank == res.matching_size


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
