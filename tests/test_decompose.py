import random
import re
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from gen import (
    Arith,
    canonical,
    contains,
    cover_value,
    dense,
    dense_product,
    from_dense,
    from_blocks,
    is_stable,
    matched_sides,
    matroid_pi,
    matroid_sigma,
    min_cover,
    random_admissible_pair,
    random_admissible_transform,
    random_rank1_instance,
    subspace_pair_canonical,
    worked_example,
)

from rank1dm import (
    GF,
    QQ,
    ChainPoset,
    IndependentMatchingState,
    Matrix,
    PartitionedMatrix,
    StabilityGraph,
    StableSubspace,
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
from rank1dm.decompose import PosetComponent, _adapted_basis, _chain_dims, _tarjan_scc
from rank1dm import decompose, partmat
from rank1dm import matching as matching_module
from rank1dm.cli import format_result, parse_input, serialize_input
from rank1dm.partmat import HyperplaneVertex, column_parts, vertex_label


def _labels(g, ids, side):
    return {g.pi_label(i) if side == "pi" else g.sigma_label(i) for i in ids}


def _node_labels(g, nodes):
    return set(map(g.node_label, nodes))


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
    g = StabilityGraph(GF(2), (2,), (1,), pi=(HyperplaneVertex(0, (1, 0)),))
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
    g, removed = res.graph, res.poset.c0 | res.poset.cinf
    a1 = next(v for v in range(g.n_pi) if g.pi_label(v) == "1a")
    assert _node_labels(g, _component_of(res.state, removed, a1)) == {
        "1a",
        "1c",
        "3c",
        "1'a",
        "2'c",
    }


def test_tarjan_matches_networkx_and_emits_in_reverse_topological_order():
    nx = pytest.importorskip("networkx")
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(1, 40)
        density = rng.choice((0.02, 0.05, 0.1, 0.3))
        adj = [sorted(w for w in range(n) if rng.random() < density) for v in range(n)]
        nodes = list(range(n))
        rng.shuffle(nodes)
        sccs = _tarjan_scc(nodes, adj)
        digraph = nx.DiGraph()
        digraph.add_nodes_from(nodes)
        digraph.add_edges_from((v, w) for v in nodes for w in adj[v])
        want = {frozenset(c) for c in nx.strongly_connected_components(digraph)}
        assert len(sccs) == len(want) and {frozenset(c) for c in sccs} == want
        # every arc between two components runs from the later-emitted one
        emitted = {v: k for k, c in enumerate(sccs) for v in c}
        assert all(emitted[v] >= emitted[w] for v in nodes for w in adj[v])


def _scan_labels(below, key):
    """The labeling rule by rescanning: label l goes to the pending component
    of smallest key whose components below all hold labels already."""
    label_of = {}
    pending = sorted(below, key=key.__getitem__)
    while pending:
        pick = next(c for c in pending if below[c] <= label_of.keys())
        pending.remove(pick)
        label_of[pick] = len(label_of) + 1
    return label_of


def test_heap_labels_follow_the_scan_rule_on_random_posets():
    # random transitively closed orders on shuffled component ids with
    # distinct shuffled keys: Kahn's order on a heap labels them as the scan does
    rng = random.Random(57)
    for _ in range(300):
        n = rng.randint(0, 30)
        ids, keys = rng.sample(range(100), n), rng.sample(range(1000), n)
        position = dict(zip(ids, range(n)))  # a hidden linear order keeps it acyclic
        below = {c: set() for c in ids}
        for c in sorted(ids, key=position.__getitem__):
            for k in ids:
                if position[k] < position[c] and rng.random() < 0.15:
                    below[c] |= below[k] | {k}
        key = dict(zip(ids, keys))
        labels = decompose._labels(below, key)
        assert labels == _scan_labels(below, key)
        assert list(labels.values()) == list(range(1, n + 1))


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
        components=[PosetComponent(k, (), ()) for k in range(1, h + 1)],
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
        for w, _ in state.arcs(stack.pop()):
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _component_of(state, removed, v):
    """The nodes of the pruned digraph's strongly connected component of v:
    those v reaches that reach v."""
    return {w for w in _pruned_reach(state, removed, [v]) if v in _pruned_reach(state, removed, [w])}


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
            comps = {
                c.label: _component_of(res.state, removed, c.h_pi[0]) for c in poset.components
            }
            want = set()
            for l, nodes in comps.items():
                reached = _pruned_reach(res.state, removed, nodes)
                want |= {(k, l) for k, other in comps.items() if k != l and other & reached}
                # relations no single arc accounts for
                step = {w for v in nodes for w, _ in res.state.arcs(v)}
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
                                assert Arith(field).dot(nrm, v) == field.zero_raw
                        assert len(basis) == dim - len(normals)
                        stacked = from_dense(field, len(basis), dim, [x for v in basis for x in v])
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
                lo_rows = lo.x_bases[alpha]
                for v in lo.x_bases[alpha]:
                    assert contains(f, hi.x_bases[alpha], v, dim)
                assert len(lo_rows) <= len(hi.x_bases[alpha])
            for beta, dim in enumerate(a.col_blocks):
                for v in hi.y_bases[beta]:
                    assert contains(f, lo.y_bases[beta], v, dim)


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
    return from_dense(field, len(rows), dim, [x for v in rows for x in v])


def test_build_bases_orders(example, example_result):
    res = example_result
    asm = res.assembly
    f = example.field
    assert [vertex_label(f, e.block, e.normal, "") for e in asm.h_entries] == [
        "2c", "3a", "1a", "3c", "2a", "1b"
    ]
    assert [vertex_label(f, e.block, e.normal, "'") for e in asm.k_entries] == [
        "3'a", "1'a", "2'c", "1'c", "3'c", "2'a"
    ]
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
            duals = from_dense(f, len(duals), dim, [x for v in duals for x in v])
            assert r @ duals.transpose() == Matrix.identity(f, dim)


def _one_block_basis(field, normals, dim, completion_group=2):
    """_adapted_basis on a single block whose normals form group 1, with an
    empty memo and the normals' int forms."""
    vertices = [HyperplaneVertex(0, u) for u in normals]
    ints = [tuple(v) for v in field.cleared(normals)[1]]
    groups = [(1, range(len(normals)))]
    return _adapted_basis(field, vertices, [dim], groups, completion_group, ints, {})


def test_adapted_basis_completion_examples():
    f = GF(2)
    e1, e2 = (1, 0), (0, 1)
    for normals, completion in (([], [e1, e2]), ([(1, 1)], [e1]), ([e1, e2], [])):
        entries = _one_block_basis(f, normals, 2)
        assert [e.normal for e in entries] == normals + completion
        assert [e.group for e in entries] == [1] * len(normals) + [2] * len(completion)


def test_adapted_basis_is_greedy_and_dual():
    rng = random.Random(11)
    for field in (GF(2), GF(3), GF(101), QQ):
        for _ in range(30):
            dim = rng.randint(1, 4)

            def independent(vecs):
                stacked = from_dense(field, len(vecs), dim, [x for v in vecs for x in v])
                return rref(stacked).rank == len(vecs)

            normals = []
            for _ in range(rng.randint(0, dim)):
                cand = tuple(field.coerce_raw(rng.randint(-4, 4)) for _ in range(dim))
                if independent(normals + [cand]):
                    normals.append(cand)
            greedy = []
            for idx in range(dim):
                unit = tuple(field.one_raw if r == idx else field.zero_raw for r in range(dim))
                if independent(normals + greedy + [unit]):
                    greedy.append(unit)
            group = rng.choice((0, 2))  # the completion goes before or after the normals
            entries = _one_block_basis(field, normals, dim, group)
            assert [e.normal for e in entries if e.group == 1] == normals
            assert [e.normal for e in entries if e.group == group] == greedy
            assert [e.group for e in entries] == sorted(e.group for e in entries)
            for e in entries:
                for other in entries:
                    want = field.one_raw if other is e else field.zero_raw
                    assert Arith(field).dot(other.normal, e.dual) == want


def test_adapted_basis_dependent_normals_raise():
    f = GF(3)
    with pytest.raises(ValueError):
        _one_block_basis(f, [(1, 2), (2, 1)], 2)


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
            col = tuple(dense(mat)[mat.cols - 1 - i :: mat.cols])
            lo = offsets[e.block]
            hi = lo + dims[e.block]
            assert col[lo:hi] == e.dual
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
    data = [ux * vx % 5 for ux in u for vx in v]
    a = PartitionedMatrix(from_dense(f, 3, 4, data), (3,), (4,))
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
    data = dense(res.a_dm)
    data[5 * 6] = GF(2).one_raw  # below staircase
    bad = res._replace(a_dm=from_dense(GF(2), 6, 6, data))
    report = verify(example, bad)
    assert not report.passed
    assert not report.check("product").passed
    assert not report.check("staircase").passed
    with pytest.raises(KeyError):
        report.check("products")


def test_staircase_names_the_first_entry_in_row_major_order(example, example_result):
    # the last row group, rows 4 and 5, lies below the staircase in columns
    # 0..4; (5, 0) is in an earlier column group but a later row than (4, 3)
    assert example_result.diag_blocks[-1] == (2, 1)
    data = dense(example_result.a_dm)
    data[4 * 6 + 3] = data[5 * 6 + 0] = 1
    bad = example_result._replace(a_dm=from_dense(GF(2), 6, 6, data))
    check = verify(example, bad).check("staircase")
    assert check.detail == "nonzero entry below the staircase at (4, 3)"
    # a falsy foreign value is not zero either: the form check names it first
    data[4 * 6 + 3] = None
    bad = example_result._replace(a_dm=from_dense(GF(2), 6, 6, data))
    check = verify(example, bad).check("staircase")
    assert check.detail == "A_dm holds None at (4, 3), not a value of GF(2)"


def test_verify_rejects_non_square_middle_block(example, example_result):
    bad = example_result._replace(
        diag_blocks=[(0, 1), (1, 1), (1, 1), (2, 1), (2, 2)]
    )
    check = verify(example, bad).check("staircase")
    assert not check.passed
    assert "not square" in check.detail


def _padded(res):
    """The result with a 0x0 middle block after D_inf and the last chain
    element repeated, its chain dims recomputed: every count still agrees."""
    blocks = [res.diag_blocks[0], (0, 0), *res.diag_blocks[1:]]
    chain = maximal_chain(res.poset, res.graph)
    return res._replace(
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
        report = verify(example, example_result._replace(diag_blocks=blocks))
        for name in ("staircase", "chain"):
            check = report.check(name)
            assert not check.passed
            assert "not a pair of integers" in check.detail or "not a list" in check.detail


def test_verify_rejects_negative_block_size(example, example_result):
    bad = example_result._replace(diag_blocks=[(7, 0), (-1, 6)])
    report = verify(example, bad)
    assert not report.passed
    assert "negative size" in report.check("staircase").detail


def test_verify_rejects_diagonal_blocks_that_do_not_tile(example, example_result):
    # D_inf one row taller: every block is well formed, yet they cover 7 rows
    assert example_result.diag_blocks[0] == (0, 1)
    blocks = [(1, 1), *example_result.diag_blocks[1:]]
    check = verify(example, example_result._replace(diag_blocks=blocks))
    assert check.check("staircase").detail == "diagonal block sizes do not tile the matrix"


def test_verify_rejects_a_matching_that_is_not_maximum(example, example_result):
    # a witness one edge short leaves an augmenting path: some vertex is
    # reachable from a source and reaches a sink, so C0 and Cinf meet
    matching = example_result.state.matching
    for edge in sorted(matching):
        state = IndependentMatchingState(example_result.graph, matching - {edge})
        report = verify(example, example_result._replace(state=state))
        check = report.check("chain")
        assert not check.passed
        assert check.detail == "C0 and Cinf intersect: the matching is not maximum"
        assert not report.check("duality").passed
    with pytest.raises(ValueError, match="C0 and Cinf intersect"):
        scc_poset(state, *reachability_sets(state))


def test_verify_checks_chain_dims(example, example_result):
    bad = example_result._replace(chain_dims=[(9, 9)])
    check = verify(example, bad).check("chain")
    assert not check.passed and "chain dims" in check.detail
    bad = example_result._replace(chain_dims=[(2, 5), (4, 3), (5, 2), (5, 2)])
    check = verify(example, bad).check("chain")
    assert not check.passed and "disagree with the diagonal blocks" in check.detail
    # consistent with reordered middle blocks, as many as the poset has
    # components: A_dm's staircase rejects the order
    bad = example_result._replace(
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
    return res._replace(
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
    report = verify(example, example_result._replace(chain=None))
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["product", "admissible", "staircase", "chain", "duality"]
    bad = _merged(example_result, 1, 2)._replace(chain=None)
    assert [c.name for c in verify(example, bad).checks if not c.passed] == ["chain"]


def test_verify_reports_non_subspace_chain_element(example, example_result):
    # a chain dims element that is not a dimension pair
    for dims, k in (([None], 0), ([*example_result.chain_dims[:-1], None], 3)):
        bad = example_result._replace(chain_dims=dims)
        check = verify(example, bad).check("chain")
        assert not check.passed
        assert check.detail == f"chain dim {k} is None, not a pair of integers"


def test_verify_reads_both_pair_lists_by_one_rule(example, example_result):
    # the diagonal blocks and the chain dims pass as lists or tuples of
    # 2-element lists or tuples of plain ints, with the details of the
    # result as dm_decompose returns it; anything else fails with a reason
    assert example_result.chain_dims == [(2, 5), (4, 3), (5, 2), (6, 1)]
    want = str(verify(example, example_result))
    for name in ("diag_blocks", "chain_dims"):
        pairs = getattr(example_result, name)
        for spelled in ([list(p) for p in pairs], tuple(pairs), tuple(map(list, pairs))):
            report = verify(example, example_result._replace(**{name: spelled}))
            assert str(report) == want, (name, spelled)
    what = {"diag_blocks": "diagonal block", "chain_dims": "chain dim"}
    for name in ("diag_blocks", "chain_dims"):
        pairs = getattr(example_result, name)
        r, c = pairs[0]
        for bad in ((True, c), (float(r), c), (r, str(c)), "ab", (1, 2, 3), [r], None):
            for at in (0, len(pairs) - 1):
                forged = [*pairs[:at], bad, *pairs[at + 1 :]]
                report = verify(example, example_result._replace(**{name: forged}))
                check = report.check("chain")
                assert not check.passed
                assert check.detail == f"{what[name]} {at} is {bad!r}, not a pair of integers"
        for bad in ([], None, "2:5", 5):
            check = verify(example, example_result._replace(**{name: bad}))
            assert check.check("chain").detail == f"{what[name]}s are empty or not a list"


def _rebased(basis_of):
    """A forgery that replaces a matrix's columns inside each block, read as
    that block's basis, by ``basis_of(basis)``."""
    def forge(mat, offsets):
        data = dense(mat)
        for lo, (_, part) in zip(offsets, column_parts(mat, offsets)):
            for (col, _), v in zip(part, basis_of(tuple(tuple(x) for _, x in part))):
                for r, x in enumerate(v):
                    data[(lo + r) * mat.cols + col] = x
        return from_dense(mat.field, mat.rows, mat.cols, data)
    return forge


def _moved_into_block_0(mat, offsets):
    """A forgery that moves the last column of block 1 into the first row of
    block 0, leaving block 0 one column too many."""
    data = dense(mat)
    col = column_parts(mat, offsets)[1][1][-1][0]
    for r in range(offsets[1], offsets[2]):
        data[r * mat.cols + col] = mat.field.zero_raw
    data[offsets[0] * mat.cols + col] = mat.field.one_raw
    return from_dense(mat.field, mat.rows, mat.cols, data)


@pytest.mark.parametrize(
    "forge, check, reason",
    [
        (_rebased(lambda b: tuple((0,) * len(v) for v in b)), "admissible", "is zero"),
        (_rebased(lambda b: b[:1] * len(b)), "admissible", "columns are singular"),
        (_moved_into_block_0, "admissible", "E: block 0 has 3 columns, wants 2"),
        # E's and F's entries, all 0 or 1, read over GF(3)
        (lambda mat, _: from_dense(GF(3), mat.rows, mat.cols, dense(mat)), "product", "over GF(3)"),
    ],
    ids=["zero-vectors", "repeated-vector", "moved-column", "gf3-vectors"],
)
def test_verify_rejects_a_forged_chain(example, example_result, forge, check, reason):
    # the chain is E's and F's column filtration, so each forgery rebases
    # E's and F's columns block by block, moves one across blocks, or reads
    # them over another field
    res = example_result
    forged = res._replace(
        E=forge(res.E, example.row_offsets), F=forge(res.F, example.col_offsets)
    )
    verdict = verify(example, forged).check(check)
    assert not verdict.passed
    assert reason in verdict.detail


def test_verify_coerces_a_raw_chain(example, example_result):
    # the stored chain is not read: raw lists, or no subspaces at all
    chain = maximal_chain(example_result.poset, example_result.graph)
    def side(bases):
        return tuple(tuple(list(v) for v in b) for b in bases)
    raw = [StableSubspace(side(s.x_bases), side(s.y_bases)) for s in chain]
    for stored in (raw, 5, [StableSubspace(None, None)]):
        assert verify(example, example_result._replace(chain=stored)).passed


@pytest.mark.parametrize("side", ["row_blocks", "col_blocks"])
def test_verify_rejects_a_foreign_partition(example, example_result, side):
    forged = example_result._replace(**{side: (1,) * 6})
    report = verify(example, forged)
    assert [c.name for c in report.checks if not c.passed] == ["admissible"]
    assert "(1, 1, 1, 1, 1, 1) are not A's (2, 2, 2)" in report.check("admissible").detail


@pytest.mark.parametrize("side", ["row_blocks", "col_blocks"])
def test_verify_rejects_a_partition_of_bools(side):
    # (True, True) == (1, 1), but a block size is a plain int
    a = PartitionedMatrix(Matrix.from_rows(GF(2), [[1, 0], [0, 1]]), (1, 1), (1, 1))
    report = verify(a, dm_decompose(a)._replace(**{side: (True, True)}))
    assert [c.name for c in report.checks if not c.passed] == ["admissible"]
    assert "(True, True) are not A's (1, 1)" in report.check("admissible").detail


def test_verify_reports_wrong_shapes(example, example_result):
    # a malformed result is a FAIL with a reason, never an exception
    bad = example_result._replace(E=Matrix.identity(GF(2), 5))
    report = verify(example, bad)
    assert not report.passed
    assert "E is 5x5" in report.check("product").detail
    assert not report.check("admissible").passed
    bad = example_result._replace(a_dm=Matrix.identity(QQ, 6))
    report = verify(example, bad)
    assert not report.check("product").passed
    bad = example_result._replace(a_dm=Matrix.zeros(GF(2), 6, 5))
    report = verify(example, bad)
    assert not report.check("product").passed
    assert not report.check("staircase").passed
    bad = example_result._replace(F=Matrix.identity(GF(2), 5))
    report = verify(example, bad)
    assert "F is 5x5" in report.check("product").detail
    assert report.check("admissible").detail == "F is 5x5 over GF(2), wants 6x6 over GF(2)"


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
        # a bool or a float equals an int, yet it is not one
        ("diag_blocks", [(0, True), (True, True), (True, True), (2, 2), (2, True)],
         ("staircase", "chain", "duality")),
        ("matching_size", 5.0, ("duality",)),
        ("v_star", 7.0, ("duality",)),
        ("chain_dims", [(2.0, 5), (4, 3), (5, 2), (6, 1)], ("chain",)),
        ("row_blocks", (2.0, 2, 2), ("admissible",)),
    ],
)
def test_verify_reports_malformed_fields(example, example_result, field, value, failing):
    report = verify(example, example_result._replace(**{field: value}))
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
    data = dense(mat)
    data[mat.cols + 1] = value
    forged = from_dense(field, mat.rows, mat.cols, data)
    report = verify(a, res._replace(**{side: forged}))
    reason = f"{side} holds {value!r} at (1, 1), not a value of {field}"
    for name in ("product", "admissible"):
        check = report.check(name)
        assert not check.passed and check.detail == reason
    assert all(c.passed for c in report.checks if c.name not in ("product", "admissible"))


def test_verify_rejects_a_float_in_a_dm():
    # a float equals its Fraction, yet it is not a value of QQ
    a = random_rank1_instance(random.Random(5), QQ, 3, 3)
    res = dm_decompose(a)
    data = dense(res.a_dm)
    k = next(k for k, x in enumerate(data) if x)
    data[k] = float(data[k])
    a_dm = from_dense(QQ, res.a_dm.rows, res.a_dm.cols, data)
    check = verify(a, res._replace(a_dm=a_dm)).check("product")
    assert not check.passed and f"A_dm holds {data[k]!r}" in check.detail


def test_verify_detects_non_admissible_transform(example, example_result):
    res = example_result
    data = dense(Matrix.identity(GF(2), 6))
    data[5 * 6 + 0] = 1  # couples blocks 1 and 3
    bad_e = from_dense(GF(2), 6, 6, data)
    bad = res._replace(E=bad_e)
    report = verify(example, bad)
    assert not report.check("admissible").passed
    # the product verdict does not depend on admissibility: E^T A F is exact
    # for this E too, and a flipped entry of it still fails
    a_dm = bad_e.transpose() @ example.matrix @ res.F
    report = verify(example, bad._replace(a_dm=a_dm))
    assert report.check("product").passed and not report.check("admissible").passed
    data = dense(a_dm)
    data[0] = 1 - data[0]
    a_dm = from_dense(GF(2), 6, 6, data)
    assert not verify(example, bad._replace(a_dm=a_dm)).check("product").passed


def test_admissible_reason_names_the_matrix(example, example_result):
    check = verify(example, example_result._replace(F=None)).check("admissible")
    assert not check.passed and check.detail == "F is not a Matrix"
    data = dense(example_result.E)
    for r in range(6):
        data[r * 6 + 2] = GF(2).zero_raw
    zeroed = from_dense(GF(2), 6, 6, data)
    check = verify(example, example_result._replace(E=zeroed)).check("admissible")
    assert not check.passed and check.detail == "E: column 2 is zero"


def test_admissible_ranks_blocks_over_the_field_of_a():
    # this E is nonsingular over GF(3) (det 2) but singular over A's GF(2)
    a = PartitionedMatrix(Matrix.from_rows(GF(2), [[1] * 3] * 3), (3,), (3,))
    res = dm_decompose(a)
    rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    report = verify(a, res._replace(E=Matrix.from_rows(GF(3), rows)))
    check = report.check("admissible")
    assert not check.passed and check.detail == "E is 3x3 over GF(3), wants 3x3 over GF(2)"
    assert report.check("product").detail == check.detail
    report = verify(a, res._replace(E=Matrix.from_rows(GF(2), rows)))
    assert report.check("admissible").detail == "E: block 0 columns are singular"


def test_staircase_rejects_a_float_zero_below_the_staircase():
    # 0.0 equals Fraction(0), yet it is not a value of QQ
    rng = random.Random(63)
    while True:
        a = random_rank1_instance(rng, QQ, 3, 3)
        res = dm_decompose(a)
        blocks = res.diag_blocks
        row_ends = list(accumulate(r for r, _ in blocks))
        col_starts = list(accumulate((c for _, c in blocks), initial=0))
        below = [row_ends[g] - 1 for g in range(1, len(blocks)) if blocks[g][0] and col_starts[g]]
        if below:
            break
    data = dense(res.a_dm)
    data[below[0] * res.a_dm.cols] = 0.0
    a_dm = from_dense(QQ, res.a_dm.rows, res.a_dm.cols, data)
    report = verify(a, res._replace(a_dm=a_dm))
    reason = f"A_dm holds 0.0 at ({below[0]}, 0), not a value of QQ"
    for name in ("product", "staircase"):
        check = report.check(name)
        assert not check.passed and check.detail == reason


def _stored_as(indices, values):
    """A 6x6 Matrix over GF(2) that stores ``indices`` and ``values`` as they are."""
    mat = Matrix.zeros(GF(2), 6, 6)
    mat.indices, mat.values = indices, values
    return mat


_EYE = [[i] for i in range(6)]

# 6x6 matrices over GF(2) stored wrongly in one way each, with their reason
MALFORMED_ROWS = {
    "stored-zero": (_EYE, [[1]] * 5 + [[0]], "holds 0 at (5, 5), a stored zero"),
    "unsorted": ([[1, 0], *_EYE[1:]], [[1, 1]] + [[1]] * 5, "indices do not ascend in row 0"),
    "repeated": ([*_EYE[:2], [2, 2], *_EYE[3:]], [[1]] * 2 + [[1, 1]] + [[1]] * 3,
                 "indices do not ascend in row 2"),
    "past-cols": ([*_EYE[:3], [6], *_EYE[4:]], [[1]] * 6, "stores column index 6, not an int"),
    "negative": ([*_EYE[:3], [-1], *_EYE[4:]], [[1]] * 6, "stores column index -1, not an int"),
    "bool": ([[True], *_EYE[1:]], [[1]] * 6, "stores column index True, not an int"),
    "str": ([["x"], *_EYE[1:]], [[1]] * 6, "stores column index 'x', not an int"),
    "counts": (_EYE, [[1]] * 4 + [[1, 1], [1]], "row 4 has 1 column indices and 2 values"),
    "five-rows": (_EYE[:5], [[1]] * 5, "does not store 6 rows"),
    "tuple-row": ([*_EYE[:1], (1,), *_EYE[2:]], [[1]] * 6, "does not store 6 rows"),
    "no-values": (_EYE, None, "does not store 6 rows"),
    "float": (_EYE, [[1], [0.0]] + [[1]] * 4, "holds 0.0 at (1, 1), not a value of GF(2)"),
    "two": (_EYE, [[2]] * 6, "holds 2 at (0, 0), not a value of GF(2)"),
}


_READERS = {"E": ("product", "admissible"), "F": ("product", "admissible"),
            "a_dm": ("product", "staircase")}


def _assert_one_reason(example, example_result, field, value, why=""):
    """Every check that reads the result's ``field``, set to ``value``,
    fails with one reason, which names the matrix and holds ``why``; the
    other checks pass."""
    report = verify(example, example_result._replace(**{field: value}))
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == list(_READERS[field]), (field, value)
    reasons = {c.detail for c in failed}
    assert len(reasons) == 1, (field, value, reasons)
    reason = reasons.pop()
    assert reason.startswith("A_dm" if field == "a_dm" else field) and why in reason, reason


def test_a_malformed_matrix_has_one_reason_in_every_check(example, example_result):
    forms = [None, "x", Matrix.identity(GF(2), 5), Matrix.identity(GF(3), 6),
             Matrix.zeros(GF(2), 6, 5)]
    for field in _READERS:
        # the result's own matrix with a float shape: 6.0 equals 6, yet is not an int
        mat = getattr(example_result, field)
        floats = [Matrix(mat.field, 6.0, mat.cols, mat.indices, mat.values),
                  Matrix(mat.field, mat.rows, 6.0, mat.indices, mat.values)]
        for value in forms + floats:
            _assert_one_reason(example, example_result, field, value)


@pytest.mark.parametrize("name", MALFORMED_ROWS)
def test_malformed_rows_have_one_reason_in_every_check(example, example_result, name):
    # verify reads only the stored entries, and refuses each malformed row
    # with its reason instead of raising
    indices, values, why = MALFORMED_ROWS[name]
    for field in _READERS:
        _assert_one_reason(example, example_result, field, _stored_as(indices, values), why)


@pytest.mark.parametrize("size", [6, 4, 0])
def test_duality_rejects_a_forged_matching_size(example, example_result, size):
    # without the chain, nothing else ties v* to A
    forged = example_result._replace(
        matching_size=size, v_star=12 - size, chain=None
    )
    report = verify(example, forged)
    assert [c.name for c in report.checks if not c.passed] == ["duality"]
    assert "matched edges" in report.check("duality").detail


def test_duality_rejects_a_dependent_witness(example):
    # on each side, three edges on distinct vertices whose normals on that
    # side lie in one block of dimension 2: a matching, but not an
    # independent one, while the other side's ends are independent.  The
    # worked example has no such triple on the column side; its transpose
    # has one
    transposed = PartitionedMatrix(
        example.matrix.transpose(), example.col_blocks, example.row_blocks
    )
    for side, other, build, a in (
        ("pi", "sigma", matroid_sigma, example), ("sigma", "pi", matroid_pi, transposed)
    ):
        result = dm_decompose(a)
        g = result.graph
        triple = next(
            frozenset(ks) for ks in combinations(range(len(g.edges)), 3)
            if len({g.edges[k].pi for k in ks}) == len({g.edges[k].sigma for k in ks}) == 3
            and len({getattr(g, side)[getattr(g.edges[k], side)].block for k in ks}) == 1
        )
        assert build(g).rank({getattr(g.edges[k], other) for k in triple}) == 3
        forged = result._replace(
            state=SimpleNamespace(matching=triple),
            matching_size=3,
            v_star=9,
            chain=None,
        )
        check = verify(a, forged).check("duality")
        assert not check.passed, side
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
    forged = example_result._replace(
        state=SimpleNamespace(matching=frozenset(pair)),
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
    other = next(bits for bits in ((1, 0), (0, 1), (1, 1)) if bits != u)
    pi = list(g.pi)
    pi[e.pi] = HyperplaneVertex(g.pi[e.pi].block, other)
    forged = example_result._replace(graph=g._replace(pi=pi))
    check = verify(example, forged).check("duality")
    assert not check.passed and check.detail == "the witness graph is not A's stability graph"


def test_duality_reports_a_missing_or_malformed_witness(example, example_result):
    # verify reads only the witness's matching; a negative index or a bool
    # would alias a real edge, and the README example's matching rewritten
    # that way must not pass
    matching = example_result.state.matching
    n_edges = len(example_result.graph.edges)
    assert matching == {0, 2, 3, 5, 7}
    aliases = [
        frozenset(k - n_edges for k in matching),
        frozenset(False if k == 0 else k for k in matching),
    ]
    cases = [
        ("no matching witness attached", example_result._replace(state=None)),
        ("no matching witness attached", example_result._replace(graph=None)),
    ]
    cases += [
        ("malformed matching witness", example_result._replace(
            state=SimpleNamespace(matching=forged)
        ))
        for forged in (matching | {99}, 5, *aliases)
    ]
    g = example_result.graph
    cases += [  # dict-valued witness lists
        ("is not A's stability graph", example_result._replace(
            graph=g._replace(**{name: {}})
        ))
        for name in ("edges", "pi", "sigma")
    ]
    for reason, forged in cases:
        report = verify(example, forged)
        for name in ("chain", "duality"):
            check = report.check(name)
            assert not check.passed and reason in check.detail, (name, check.detail)


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


@pytest.mark.parametrize("field", [GF(5), QQ], ids=["gf5", "qq"])
@pytest.mark.parametrize(
    "case, reason",
    [
        ("zero", "A holds {zero!r} at (0, 0), a stored zero"),
        ("index", "A stores column index 2, not an int in [0, 2)"),
        ("float", "A holds 1.0 at (0, 0), not a value of {field}"),
    ],
    ids=["zero", "index", "float"],
)
def test_verify_reports_the_form_of_an_a_that_fails_to_factor(field, case, reason):
    # a stored zero, a column index past m and a float each make A's factoring
    # raise (ZeroDivisionError, ValueError, IndexError, AttributeError or
    # TypeError by field); verify reports A's form in their place
    one = field.one_raw
    good = PartitionedMatrix(Matrix.from_rows(field, [[1, 2], [3, 6]]), (1, 1), (2,))
    first = {"zero": field.zero_raw, "index": one, "float": 1.0}[case]
    idx = [[0, 2 if case == "index" else 1], [0, 1]]
    bad = Matrix(field, 2, 2, idx, [[first, 2 * one], [3 * one, 6 * one]])
    report = verify(PartitionedMatrix(bad, (1, 1), (2,)), dm_decompose(good))
    want = reason.format(zero=field.zero_raw, field=field)
    assert [(c.name, c.detail) for c in report.checks if not c.passed] == [
        (name, want) for name in ("product", "chain", "duality")
    ]


@pytest.mark.parametrize(
    "field, stray", [(GF(5), 2.0), (QQ, Fraction(2))], ids=["gf5-float", "qq-integral-fraction"]
)
def test_a_value_outside_the_field_is_refused_where_a_factors(field, stray):
    # a stray value after a row's leading entry factors like the carrier it
    # equals, so verify once certified the decomposition of [[1, 2], [3, 1]]
    # against it and dm_decompose returned an A_dm holding a stray value;
    # factoring refuses it, and verify reports A's form
    one = field.one_raw
    good = PartitionedMatrix(Matrix.from_rows(field, [[1, 2], [3, 1]]), (1, 1), (2,))
    bad = Matrix(field, 2, 2, [[0, 1], [0, 1]], [[one, stray], [3 * one, one]])
    bad = PartitionedMatrix(bad, (1, 1), (2,))
    report = verify(bad, dm_decompose(good))
    want = f"A holds {stray!r} at (0, 1), not a value of {field}"
    assert [(c.name, c.detail) for c in report.checks if not c.passed] == [
        (name, want) for name in ("product", "chain", "duality")
    ]
    refused = f"^A stores a value that is not a value of {re.escape(str(field))}$"
    with pytest.raises(ValueError, match=refused):
        dm_decompose(bad)
    assert verify(good, dm_decompose(good)).passed


def test_verify_judges_a_well_formed_a_by_its_factors_alone(example_result, monkeypatch):
    # a well-formed A gets no form check, and one that still fails to factor
    # is a library fault, which verify raises
    names, form = [], decompose._form_problem
    monkeypatch.setattr(
        decompose, "_form_problem", lambda name, *rest: names.append(name) or form(name, *rest)
    )
    assert verify(worked_example(), example_result).passed and names == ["E", "F", "A_dm"]

    def broken(*args):
        raise ZeroDivisionError("a library fault")

    monkeypatch.setattr(partmat, "rank1_of", broken)
    with pytest.raises(ZeroDivisionError, match="a library fault"):
        verify(worked_example(), example_result)


def test_each_block_is_read_once_per_matrix(monkeypatch):
    # the graph builder and the verifier share one factoring of A, and a
    # zero block is never factored
    calls = Counter()
    factor = partmat.rank1_of

    def counted(f, width, lo, idx, vals):
        block = Matrix(f, len(idx), width, [[j - lo for j in js] for js in idx], list(vals))
        calls[tuple(dense(block)), block.rows] += 1
        return factor(f, width, lo, idx, vals)

    monkeypatch.setattr(partmat, "rank1_of", counted)
    rng = random.Random(58)
    zero_blocks = 0
    for a in (worked_example(), random_rank1_instance(rng, GF(3), 3, 4, zero_prob=0.5)):
        calls.clear()
        assert verify(a, dm_decompose(a)).passed
        blocks = [a.block(al, be) for al in range(a.mu) for be in range(a.nu)]
        nonzero = [b for b in blocks if any(dense(b))]
        zero_blocks += len(blocks) - len(nonzero)
        assert calls == Counter((tuple(dense(b)), b.rows) for b in nonzero)
    assert zero_blocks


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["qq", "gf101"])
def test_each_factor_is_cleared_once_per_matrix(field, monkeypatch):
    # over QQ factoring clears each nonzero block's rows once, and u and v are
    # born on those ints: the vertex keys, the graph's int normals and the
    # terms of transform and of the verifier's product check read that int
    # form, so no u or v is cleared again; over GF(p) nothing of A is cleared
    a = random_rank1_instance(random.Random(83), field, 4, 4, max_dim=3)
    blocks = [a.block(al, be) for al in range(a.mu) for be in range(a.nu)]
    rows = Counter(tuple(map(tuple, b.values)) for b in blocks if any(b.values))
    calls, seen = Counter(), []
    cleared = type(field).cleared

    def counted(self, vecs):
        calls[tuple(map(tuple, vecs))] += 1
        seen.extend(vecs)
        return cleared(self, vecs)

    monkeypatch.setattr(type(field), "cleared", counted)
    assert verify(a, dm_decompose(a)).passed
    assert Counter({key: calls[key] for key in rows if calls[key]}) == (rows if field is QQ else {})
    normals = [vec for fac in a.factors.values() for vec in (fac.u, fac.v)]
    assert len(normals) > 10 and not any(v is w for v in seen for w in normals)


def test_each_column_part_is_cleared_once_per_verify(monkeypatch):
    # the product check and the admissibility check read one int form of
    # each block of E's and F's columns
    a = random_rank1_instance(random.Random(84), QQ, 4, 4, max_dim=3)
    res = dm_decompose(a)
    want = Counter()
    for mat, offsets in ((res.E, a.row_offsets), (res.F, a.col_offsets)):
        rows = [mat.row_raw(i) for i in range(mat.rows)]
        for lo, hi in zip(offsets, offsets[1:]):
            cols = [tuple(row[j] for row in rows[lo:hi]) for j in range(mat.cols)]
            want[tuple(col for col in cols if any(col))] += 1
    calls = Counter()
    cleared = type(QQ).cleared

    def counted(self, vecs):
        if (key := tuple(map(tuple, vecs))) in want:
            calls[key] += 1
        return cleared(self, vecs)

    monkeypatch.setattr(type(QQ), "cleared", counted)
    assert verify(a, res).passed
    assert calls == want


def test_the_solve_and_the_verifier_share_one_frozen_graph(example):
    res = dm_decompose(example)
    assert res.graph is example.graph is build_stability_graph(example)
    for name in ("field", "pi", "sigma", "edges"):
        with pytest.raises(AttributeError):
            setattr(res.graph, name, ())
    assert verify(example, res).passed


def _matroid_view(state):
    return state.circuit, state.holders, state.free


def _counted_eliminations(monkeypatch) -> list:
    """The argument tuples of every ``span_supports`` call the matching makes."""
    calls = []
    eliminate = matching_module.span_supports
    monkeypatch.setattr(
        matching_module, "span_supports", lambda *args: calls.append(args) or eliminate(*args)
    )
    return calls


def _memo_entries(graph) -> int:
    """The entries in the graph's elimination memo: the blocks of a kind share a shelf."""
    return sum(len(shelf) for shelf in {id(shelf): shelf for shelf in graph.nodes[4]}.values())


@pytest.mark.parametrize("field", [GF(2), GF(101), QQ], ids=["gf2", "gf101", "qq"])
def test_a_witness_state_after_a_solve_equals_one_on_a_second_parse(field, monkeypatch):
    # the witness state reads the eliminations the solve left on A's graph;
    # it holds what a state on a matrix no solve has touched holds, and the
    # graph's memo keeps no more entries than eliminations were made on it
    calls = _counted_eliminations(monkeypatch)
    rng = random.Random(f"shared/{field}")
    for _ in range(25):
        a = random_rank1_instance(
            rng, field, rng.randint(1, 6), rng.randint(1, 6), max_dim=3, zero_prob=0.4
        )
        before = len(calls)
        res = dm_decompose(a)
        assert _memo_entries(a.graph) <= len(calls) - before
        again = parse_input(serialize_input(a))
        assert again.graph == a.graph and again.graph is not a.graph
        shared, fresh = (IndependentMatchingState(b.graph, res.state.matching) for b in (a, again))
        assert _matroid_view(shared) == _matroid_view(fresh)
        assert verify(a, res).passed and verify(again, res).passed


def test_blocks_of_one_kind_share_their_eliminations(monkeypatch):
    # over GF(2) a block of size 2 holds at most 3 monic normals, so many
    # blocks share their normals and matched positions: the matching makes
    # one elimination per distinct (kind, matched positions) key and the bases
    # one reduction per distinct input, both fewer than a memo keyed by block
    # index made; what the solve's state and the witness state hold equals a
    # fresh state's on a second parse, whose graph no state has touched
    calls = _counted_eliminations(monkeypatch)
    reductions, reduce = [], decompose.reduced
    monkeypatch.setattr(decompose, "reduced", lambda *args: reductions.append(args) or reduce(*args))
    by_block: dict = {}  # block -> matched members, as a memo keyed by block index holds them
    per_block = []
    flip = IndependentMatchingState.flip

    def counted(state, edges):
        flip(state, edges)
        g, npi = state.graph, state.graph.n_pi
        for blk in {state._blocks[v] for k in edges for v in (g.edges[k].pi, npi + g.edges[k].sigma)}:
            ids = [v for v in state._members[blk] if v in state.matched]
            per_block.append(by_block.get(blk) != ids)
            by_block[blk] = ids

    monkeypatch.setattr(IndependentMatchingState, "flip", counted)
    a = random_rank1_instance(random.Random(83), GF(2), 14, 14, max_dim=2, zero_prob=0.4)
    res = dm_decompose(a)
    assert verify(a, res).passed
    monkeypatch.setattr(IndependentMatchingState, "flip", flip)
    assert 0 < len(calls) <= _memo_entries(a.graph) < sum(per_block)
    inputs = {(p, tuple(map(tuple, rows))) for _, rows, p in reductions}
    assert 0 < len(reductions) == len(inputs) < a.mu + a.nu
    again = parse_input(serialize_input(a))
    fresh = IndependentMatchingState(again.graph, res.state.matching)
    witness = IndependentMatchingState(a.graph, res.state.matching)
    assert _matroid_view(res.state) == _matroid_view(witness) == _matroid_view(fresh)
    assert verify(again, res).passed


@pytest.mark.parametrize("field", [GF(2), GF(101), QQ], ids=["gf2", "gf101", "qq"])
def test_the_poset_is_derived_once_per_matrix_and_matching(field, monkeypatch):
    # the solve records its poset's h on A's graph and the chain check reads
    # it for the witness's matching; a second parse of A holds no record, so
    # its verify derives h once, and both reports print the same
    calls, derive = [], decompose.scc_poset
    monkeypatch.setattr(decompose, "scc_poset", lambda *args: calls.append(args) or derive(*args))
    rng = random.Random(f"heights/{field}")
    for _ in range(15):
        a = random_rank1_instance(
            rng, field, rng.randint(1, 6), rng.randint(1, 6), max_dim=3, zero_prob=0.4
        )
        res = dm_decompose(a)
        first = verify(a, res)
        assert len(calls) == 1 and a.graph.heights == {res.state.matching: res.poset.h}
        again = verify(parse_input(serialize_input(a)), res)
        assert len(calls) == 2
        assert verify(a, res).passed and len(calls) == 2  # A's record still serves
        assert first.passed and again.passed and str(first) == str(again)
        calls.clear()


def test_a_witness_one_edge_short_records_no_height():
    # the witness state is built, so scc_poset runs on it; it finds C0 and
    # Cinf meeting, the chain check fails with that reason, and the record
    # keeps the solve's matching only
    a = worked_example()
    res = dm_decompose(a)
    for k in sorted(res.state.matching):
        short = res.state.matching - {k}
        forged = res._replace(state=SimpleNamespace(matching=short))
        check = verify(a, forged).check("chain")
        assert not check.passed
        assert check.detail == "C0 and Cinf intersect: the matching is not maximum"
        assert a.graph.heights == {res.state.matching: res.poset.h}


def test_the_height_record_is_not_compared_and_not_copied():
    a = worked_example()
    res = dm_decompose(a)
    g = a.graph
    assert g.heights == {res.state.matching: res.poset.h}
    copy = g._replace()
    assert copy.heights == {} and copy.heights is not g.heights
    assert copy == g and hash(copy) == hash(g) and repr(copy) == repr(g)
    copy.heights[frozenset()] = 99
    assert copy == g and g.heights == {res.state.matching: res.poset.h}
    with pytest.raises(ValueError):
        g._replace(heights={})  # not a field: no holder seeds it
    with pytest.raises(TypeError):
        StabilityGraph(*g, heights={})


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 12))
def test_no_fraction_is_hashed_over_the_rationals(seed, den):
    # the memo's keys, the vertex order and every set and dict of the solve,
    # the verifier and the printer hold ints only: a Fraction that is hashed raises
    rng = random.Random(seed)
    a = random_rank1_instance(rng, QQ, rng.randint(1, 5), rng.randint(1, 5), max_dim=3, zero_prob=0.3)
    m = a.matrix
    values = [[QQ.canon(Fraction(x, den)) for x in row] for row in m.values]
    a = PartitionedMatrix(Matrix(QQ, m.rows, m.cols, m.indices, values), a.row_blocks, a.col_blocks)

    def refuse(self):
        raise AssertionError(f"hashed the Fraction {self}")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fraction, "__hash__", refuse)
        res = dm_decompose(a)
        report = verify(a, res)
        text = format_result(a, res, report)
    assert report.passed and text


def test_a_forged_witness_fails_after_the_solve_filled_the_memo():
    # swap one matched edge for an unmatched one on free vertices whose
    # normal is dependent on the other matched ones: the memo holds the
    # solve's eliminations only for the solve's selections, so the forged
    # selection is eliminated afresh and found dependent
    rng = random.Random(71)
    forged = 0
    while forged < 5:
        a = random_rank1_instance(rng, GF(2), 4, 4, max_dim=3, zero_prob=0.2)
        res = dm_decompose(a)
        g, matching = res.graph, res.state.matching
        for k, l in product(sorted(matching), range(len(g.edges))):
            swapped = matching - {k} | {l}
            ends = [(g.edges[e].pi, g.edges[e].sigma) for e in swapped]
            if l in matching or len({i for i, _ in ends}) + len({j for _, j in ends}) < 2 * len(ends):
                continue
            pis, sigmas = ({end[s] for end in ends} for s in (0, 1))
            if matroid_pi(g).rank(pis) + matroid_sigma(g).rank(sigmas) == 2 * len(ends):
                continue
            witness = res._replace(state=SimpleNamespace(matching=swapped), chain=None)
            check = verify(a, witness).check("duality")
            assert check.detail == "malformed matching witness: matching endpoints are not independent"
            forged += 1
            break
        graph = g._replace(edges=g.edges[:-1])
        check = verify(a, res._replace(graph=graph)).check("chain")
        assert check.detail == "the witness graph is not A's stability graph"
        assert verify(a, res).passed


def _qq_result(seed):
    a = random_rank1_instance(random.Random(seed), QQ, 4, 4, max_dim=3, zero_prob=0.3)
    res = dm_decompose(a)
    assert res.a_dm == dense_product(res.E, a.matrix, res.F)
    return a, res


def _with_entry(res, k, value):
    data = dense(res.a_dm)
    data[k] = value
    return res._replace(a_dm=from_dense(QQ, res.a_dm.rows, res.a_dm.cols, data))


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_qq_product_rejects_an_entry_off_by_a_tiny_fraction(seed):
    a, res = _qq_result(seed)
    data = dense(res.a_dm)
    k = next(k for k, x in enumerate(data) if x)
    for e in (1, 6, 40):
        forged = _with_entry(res, k, data[k] + Fraction(1, 10**e))
        check = verify(a, forged).check("product")
        assert not check.passed and check.detail == "A_dm == E^T A F"


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_qq_product_rejects_a_nonzero_entry_where_no_term_lands(seed):
    # E and F are admissible, so a zero entry of the product has no term
    a, res = _qq_result(seed)
    zeros = [k for k, x in enumerate(dense(res.a_dm)) if not x]
    for k in (zeros[0], zeros[-1]):
        assert not verify(a, _with_entry(res, k, Fraction(-1, 10**30))).check("product").passed


def _fractional(rng, a):
    """A with each row divided by its own draw from 1..6: the blocks keep
    their rank, and the entries mix denominators."""
    rows = [[Fraction(x, d) for x in a.matrix.row_raw(i)]
            for i, d in enumerate(rng.randint(1, 6) for _ in range(a.matrix.rows))]
    return PartitionedMatrix(Matrix.from_rows(QQ, rows), a.row_blocks, a.col_blocks)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_rational_results_hold_only_canonical_carriers(rng):
    # an int where a rational is integral and a Fraction otherwise, in E, F
    # and A_DM and in every factor's u, v and coeff
    a = random_rank1_instance(rng, QQ, rng.randint(1, 4), rng.randint(1, 4), max_dim=3)
    if rng.random() < 0.5:
        a = _fractional(rng, a)
    res = dm_decompose(a)
    values = [x for m in (res.E, res.F, res.a_dm) for row in m.values for x in row]
    values += [x for fac in a.factors.values() for x in (*fac.u, *fac.v, fac.coeff)]
    assert all(canonical(QQ, x) for x in values)
    assert verify(a, res).passed


def test_qq_product_refuses_an_integral_entry_carried_by_a_fraction():
    # Fraction(k) equals the int k, yet it is not the carrier of k
    refused = 0
    for seed in (3, 4, 5):
        a, res = _qq_result(seed)
        data = dense(res.a_dm)
        for k in [k for k, x in enumerate(data) if x and type(x) is int][:3]:
            check = verify(a, _with_entry(res, k, Fraction(data[k]))).check("product")
            where = divmod(k, res.a_dm.cols)
            assert not check.passed
            assert check.detail == f"A_dm holds {Fraction(data[k])!r} at {where}, not a value of QQ"
            refused += 1
    assert refused >= 3


def test_matmul_over_qq_equals_transform_in_value_and_type():
    # the frozen benchmark replay computes E^T A F with @, so over QQ each of
    # its sums must be the canonical carrier transform builds: the same value
    # of the same type, an int where the entry is integral
    rng, ints = random.Random(37), 0
    for _ in range(12):
        a = _fractional(rng, random_rank1_instance(rng, QQ, 3, 3, max_dim=3))
        res = dm_decompose(a)
        for e, f in ((res.E, res.F), random_admissible_pair(rng, a)):
            got, want = e.transpose() @ a.matrix @ f, a.transform(e, f)
            assert got == want
            types = [[type(x) for x in row] for row in got.values]
            assert types == [[type(x) for x in row] for row in want.values]
            ints += sum(t is int for row in types for t in row)
        assert verify(a, res._replace(a_dm=res.E.transpose() @ a.matrix @ res.F)).passed
    assert ints > 0


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_qq_product_passes_distinct_zero_objects(seed):
    a, res = _qq_result(seed)
    # a distinct Fraction(0) given densely to from_rows is the zero carrier 0:
    # it is not stored; stored as it is, it is not a value of QQ
    zeros = [k for k, x in enumerate(dense(res.a_dm)) if not x]
    check = verify(a, _with_entry(res, zeros[0], Fraction(0))).check("product")
    where = divmod(zeros[0], res.a_dm.cols)
    assert not check.passed and check.detail == f"A_dm holds Fraction(0, 1) at {where}, not a value of QQ"
    data = [Fraction(0) if not x else x for x in dense(res.a_dm)]
    assert all(x is not QQ.zero_raw for x in data if not x)
    a_dm = Matrix.from_rows(QQ, [data[i * res.a_dm.cols : (i + 1) * res.a_dm.cols]
                                 for i in range(res.a_dm.rows)])
    assert a_dm == res.a_dm and verify(a, res._replace(a_dm=a_dm)).passed


@pytest.mark.parametrize("field", [GF(2), GF(101), QQ], ids=["gf2", "gf101", "qq"])
def test_product_rejects_a_zero_where_a_term_lands_and_a_value_where_none_does(field):
    rng = random.Random(f"product/{field}")
    for _ in range(10):
        a = random_rank1_instance(rng, field, 4, 4, max_dim=3, zero_prob=0.3)
        res = dm_decompose(a)
        data = dense(res.a_dm)
        assert res.a_dm == dense_product(res.E, a.matrix, res.F)
        for k, value in (
            (next(k for k, x in enumerate(data) if x), field.zero_raw),
            (next(k for k, x in enumerate(data) if x), field.coerce_raw(2) if field.p != 2 else 0),
            (next(k for k, x in enumerate(data) if not x), field.one_raw),
        ):
            if value != data[k]:
                entries = [*data[:k], value, *data[k + 1:]]
                forged = from_dense(field, res.a_dm.rows, res.a_dm.cols, entries)
                check = verify(a, res._replace(a_dm=forged)).check("product")
                assert not check.passed and check.detail == "A_dm == E^T A F"


def test_qq_product_sums_the_terms_a_non_admissible_e_lands_on_one_entry():
    # A = [1/2; 1/3] in two row blocks, so column 0 of E sends one term from
    # each block to entry (0, 0): 1/2 x + 1/3 y, which cancels for x = 2/3,
    # y = -1
    a = PartitionedMatrix(Matrix.from_rows(QQ, [[Fraction(1, 2)], [Fraction(1, 3)]]), (1, 1), (1,))
    res = dm_decompose(a)
    for x, y in ((Fraction(2, 3), -1), (Fraction(1, 5), Fraction(-7, 2)), (1, 1)):
        e = Matrix.from_rows(QQ, [[x, 0], [y, 1]])
        want = dense_product(e, a.matrix, res.F)
        total = Fraction(x) / 2 + Fraction(y) / 3
        assert dense(want)[0] == total
        forged = res._replace(E=e, a_dm=want)
        report = verify(a, forged)
        assert report.check("product").passed and not report.check("admissible").passed
        for wrong in (Fraction(x) / 2, Fraction(y) / 3, total + Fraction(1, 10**20)):
            if wrong != total:
                check = verify(a, _with_entry(forged, 0, wrong)).check("product")
                assert not check.passed
        if not total:  # the cancelled sum is the zero carrier, which is not stored
            assert verify(a, _with_entry(forged, 0, 0)).check("product").passed


def test_duality_reports_a_wrong_lower_bound(example, example_result):
    # the first diagonal block must span a stable pair of dimension v*
    forged = example_result._replace(
        diag_blocks=[(1, 1), (1, 1), (1, 1), (2, 2), (1, 1)], chain=None
    )
    check = verify(example, forged).check("duality")
    assert not check.passed and "stable pair of dimension 6" in check.detail
    check = verify(example, example_result._replace(diag_blocks=[])).check("duality")
    assert not check.passed and "empty" in check.detail


def test_duality_certifies_random_decompositions():
    rng = random.Random(48)
    for field in (GF(2), GF(3), GF(101), QQ) * 6:
        a = random_rank1_instance(rng, field, rng.randint(1, 4), rng.randint(1, 4), max_dim=3)
        res = dm_decompose(a)
        report = verify(a, res)
        assert report.passed, str(report)
        forged = res._replace(
            matching_size=res.matching_size + 1, v_star=res.v_star - 1, chain=None
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
                col = dense(res.E)[n - i :: n]
                entry = res.assembly.h_entries[i - 1]
                alpha = entry.block
                seg = col[row_offs[alpha] : row_offs[alpha + 1]]
                basis = sub.x_bases[alpha]
                assert contains(f, basis, seg, a.row_blocks[alpha])
                assert all(
                    x == f.zero_raw
                    for t, x in enumerate(col)
                    if not row_offs[alpha] <= t < row_offs[alpha + 1]
                )
            # f_{jk+1} .. f_m lie in Y^k (f_j is column m - j of F)
            for j in range(jk + 1, m + 1):
                col = dense(res.F)[m - j :: m]
                entry = res.assembly.k_entries[j - 1]
                beta = entry.block
                seg = col[col_offs[beta] : col_offs[beta + 1]]
                basis = sub.y_bases[beta]
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
    entries = [f.zero_raw] * (n * n)
    for blk, size in enumerate(sizes):
        for k in range(size):
            entries[(offsets[blk] + k) * n + offsets[dest[blk]] + k] = data.draw(scalar)
    return from_dense(f, n, n, entries)


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
    assert dense(again.a_dm) == dense(res2.a_dm)


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
    rng = random.Random(48)

    def instance():
        blocks = []
        for na in (2, 1):
            brow = []
            for mb in (2, 2):
                u = [rng.randint(0, 2) for _ in range(na)]
                v = [rng.randint(0, 2) for _ in range(mb)]
                if not any(u):
                    u[0] = 1
                if not any(v):
                    v[0] = 1
                c = rng.randint(1, 10**6)
                brow.append(from_dense(QQ, na, mb, [c * x * y for x in u for y in v]))
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
        p.components[0]._replace(label=1),
        p.components[2]._replace(label=2),
        p.components[1]._replace(label=3),
    ]
    alt = p._replace(components=comps)
    asm = build_bases(alt, res.graph, example)
    a_dm = asm.E.transpose() @ example.matrix @ asm.F
    h = alt.h
    hs, ks = asm.h_group_sizes, asm.k_group_sizes
    diag = [(hs[h + 1], ks[h + 1])]
    diag += [(hs[k], ks[k]) for k in range(h, 0, -1)]
    diag.append((hs[0], ks[0]))
    alt_result = res._replace(
        E=asm.E, F=asm.F, a_dm=a_dm, diag_blocks=diag, chain=None,
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
        matched_pi, matched_sigma = matched_sides(res.state)
        assert sorted(all_h) == sorted(matched_pi)
        all_k = list(poset.k0) + [j for c in poset.components for j in c.k_sigma] + list(poset.kinf)
        assert sorted(all_k) == sorted(matched_sigma)
        partner = {
            res.graph.edges[k].pi: res.graph.edges[k].sigma
            for k in res.state.matching
        }
        for c in poset.components:
            assert len(c.h_pi) == len(c.k_sigma) >= 1
            assert sorted(partner[i] for i in c.h_pi) == list(c.k_sigma)
