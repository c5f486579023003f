import logging
import random
from itertools import combinations

import pytest

from gen import random_rank1_instance, worked_example

from rank1dm import (
    GF,
    QQ,
    Matrix,
    PartitionedMatrix,
    StabilityGraph,
    Vector,
    build_auxiliary_digraph,
    build_stability_graph,
    cover_value,
    matroid_pi,
    matroid_sigma,
    max_independent_matching,
    min_cover,
)
from rank1dm.partmat import HyperplaneVertex

KNOWN_MAX_MATCHING = {("1a", "1'a"), ("1b", "3'c"), ("2a", "1'c"), ("2c", "3'a"), ("3c", "2'c")}


def _pi_ids(g, labels):
    table = {g.pi_label(i): i for i in range(g.n_pi)}
    return [table[x] for x in labels]


def _sigma_ids(g, labels):
    table = {g.sigma_label(j): j for j in range(g.n_sigma)}
    return [table[x] for x in labels]


@pytest.fixture
def graph(example):
    return build_stability_graph(example)


def test_independence_examples(graph):
    m = matroid_pi(graph)
    assert m.is_independent([])
    assert not m.is_independent(_pi_ids(graph, ["1a", "1b", "1c"]))
    assert m.is_independent(_pi_ids(graph, ["1a", "1b", "2a", "2c", "3c"]))


def test_closure_examples(graph):
    m = matroid_pi(graph)
    assert m.closure([]) == set()
    closed = m.closure(_pi_ids(graph, ["1a", "1b"]))
    block1 = set(graph.pi_in_block(0))
    assert closed & block1 == set(_pi_ids(graph, ["1a", "1b", "1c"]))
    d_plus = _pi_ids(graph, ["1a", "1b", "2a", "2c", "3c"])
    cl = m.closure(d_plus)
    assert cl == set(range(graph.n_pi)) - set(_pi_ids(graph, ["3a"]))


def test_aux_digraph_empty_matching(graph):
    state = build_auxiliary_digraph(graph, frozenset())
    assert sorted(state.sources) == list(range(graph.n_pi))
    assert sorted(state.sinks) == [graph.n_pi + j for j in range(graph.n_sigma)]
    arcs = [(v, w) for v, outs in state.adjacency.items() for w, _ in outs]
    assert len(arcs) == len(graph.edges)
    assert all(v < graph.n_pi <= w for v, w in arcs)


def _known_matching_ids(graph):
    ids = []
    for pl, sl in KNOWN_MAX_MATCHING:
        for k, e in enumerate(graph.edges):
            if graph.pi_label(e.pi) == pl and graph.sigma_label(e.sigma) == sl:
                ids.append(k)
    return frozenset(ids)


def test_aux_digraph_with_maximum_matching(graph):
    state = build_auxiliary_digraph(graph, _known_matching_ids(graph))
    assert [graph.pi_label(i) for i in state.sources] == ["3a"]
    assert state.sinks == []
    # exchange arcs: only 1a -> 1c and 1b -> 1c on the row side
    exchange = sorted(
        (v, w)
        for v, outs in state.adjacency.items()
        for w, edge in outs
        if edge is None
    )
    expected = sorted(
        (a, b)
        for a, b in zip(_pi_ids(graph, ["1a", "1b"]), _pi_ids(graph, ["1c", "1c"]))
    )
    assert exchange == expected


def test_aux_digraph_rejects_bad_matchings(graph):
    # two edges sharing the 2a endpoint
    shared = [k for k, e in enumerate(graph.edges) if graph.pi_label(e.pi) == "2a"]
    with pytest.raises(ValueError):
        build_auxiliary_digraph(graph, frozenset(shared))
    # dependent endpoints: 1a, 1b, 1c all inside block 1
    dep = [
        k
        for k, e in enumerate(graph.edges)
        if (graph.pi_label(e.pi), graph.sigma_label(e.sigma))
        in {("1a", "1'a"), ("1b", "3'c"), ("1c", "2'c")}
    ]
    with pytest.raises(ValueError):
        build_auxiliary_digraph(graph, frozenset(dep))


def test_max_matching_empty_graph():
    g = StabilityGraph(GF(2), (1,), (1,))
    state = max_independent_matching(g)
    assert state.size == 0 and state.augmentations == 0


def test_max_matching_worked_example(graph):
    state = max_independent_matching(graph)
    assert state.size == 5
    got = {
        (graph.pi_label(e.pi), graph.sigma_label(e.sigma))
        for e in (graph.edges[k] for k in state.matching)
    }
    assert got == KNOWN_MAX_MATCHING
    assert state.augmentations == 5


def test_max_matching_all_ones_unit_type():
    f = GF(2)
    a = PartitionedMatrix(Matrix.from_rows(f, [[1, 1], [1, 1]]), (1, 1), (1, 1))
    g = build_stability_graph(a)
    assert g.n_pi == 2 and g.n_sigma == 2 and len(g.edges) == 4
    state = max_independent_matching(g)
    # exhaustive check over all matchings of the 4-edge graph
    best = 0
    mp, ms = matroid_pi(g), matroid_sigma(g)
    for r in range(1, 3):
        for combo in combinations(range(4), r):
            pis = [g.edges[k].pi for k in combo]
            sigmas = [g.edges[k].sigma for k in combo]
            if len(set(pis)) == r and len(set(sigmas)) == r:
                if mp.is_independent(pis) and ms.is_independent(sigmas):
                    best = max(best, r)
    assert best == 2
    assert state.size == best


def test_intermediate_matchings_stay_independent(caplog):
    caplog.set_level(logging.DEBUG, logger="rank1dm")
    rng = random.Random(31)
    for _ in range(20):
        field = GF(rng.choice([2, 3]))
        a = random_rank1_instance(rng, field, rng.randint(1, 3), rng.randint(1, 3))
        g = build_stability_graph(a)
        caplog.clear()
        state = max_independent_matching(g)
        assert state.augmentations <= max(1, len(g.edges))
        mp, ms = matroid_pi(g), matroid_sigma(g)
        history = [frozenset()] + [r.matching for r in caplog.records]
        for snapshot in history:
            pis = [g.edges[k].pi for k in snapshot]
            sigmas = [g.edges[k].sigma for k in snapshot]
            assert len(set(pis)) == len(snapshot) == len(set(sigmas))
            assert mp.is_independent(pis) and ms.is_independent(sigmas)
        sizes = [len(s) for s in history]
        assert sizes == list(range(state.size + 1))
        assert history[-1] == state.matching


def test_min_cover_empty_graph():
    g = StabilityGraph(GF(2), (1,), (1,))
    state = max_independent_matching(g)
    cover = min_cover(state)
    assert cover.H == frozenset() and cover.K == frozenset()
    assert cover_value(g, cover) == 0


def test_min_cover_worked_example(graph):
    state = max_independent_matching(graph)
    cover = min_cover(state)
    c = {v for v in range(graph.n_pi)} - set(cover.H)
    c_labels = {graph.pi_label(i) for i in c}
    assert {"3a", "2c"} <= c_labels
    assert {graph.sigma_label(j) for j in cover.K} == {"3'a"}
    assert cover_value(graph, cover) == 5 == state.size
    # every edge is covered
    for e in graph.edges:
        assert e.pi in cover.H or e.sigma in cover.K


def test_min_cover_requires_maximum(graph):
    state = build_auxiliary_digraph(graph, frozenset())
    with pytest.raises(ValueError):
        min_cover(state)


def test_cover_duality_exhaustive_small():
    rng = random.Random(32)
    for _ in range(12):
        field = GF(rng.choice([2, 3]))
        a = random_rank1_instance(rng, field, rng.randint(1, 2), rng.randint(1, 2))
        g = build_stability_graph(a)
        if g.n_pi > 6 or g.n_sigma > 6:
            continue
        state = max_independent_matching(g)
        mp, ms = matroid_pi(g), matroid_sigma(g)
        best = None
        for hbits in range(1 << g.n_pi):
            h = {i for i in range(g.n_pi) if hbits >> i & 1}
            for kbits in range(1 << g.n_sigma):
                k = {j for j in range(g.n_sigma) if kbits >> j & 1}
                if all(e.pi in h or e.sigma in k for e in g.edges):
                    value = mp.rank(h) + ms.rank(k)
                    best = value if best is None else min(best, value)
                    assert state.size <= value  # weak duality
        assert best == state.size
        assert cover_value(g, min_cover(state)) == state.size


def test_exchange_arcs_match_definition():
    rng = random.Random(33)
    cases = []
    for _ in range(15):
        field = GF(rng.choice([2, 3]))
        cases.append(random_rank1_instance(rng, field, rng.randint(1, 3), rng.randint(1, 3)))
    # over GF(2) every nonzero circuit coefficient is 1; larger fields and
    # the rationals tell "nonzero" apart from "equal to one"
    rng = random.Random(34)
    for field in (GF(101), QQ) * 6:
        mu, nu = rng.randint(1, 4), rng.randint(1, 4)
        cases.append(random_rank1_instance(rng, field, mu, nu, max_dim=3))
    large_field_arcs = 0
    for a in cases:
        g = build_stability_graph(a)
        state = max_independent_matching(g)
        mp, ms = matroid_pi(g), matroid_sigma(g)
        d_plus = state.matched_pi
        d_minus = state.matched_sigma
        cl_plus = mp.closure(d_plus)
        cl_minus = ms.closure(d_minus)
        got_pi = {
            (v, w)
            for v, outs in state.adjacency.items()
            for w, edge in outs
            if edge is None and v < g.n_pi
        }
        want_pi = set()
        for old in sorted(d_plus):
            for new in sorted(cl_plus - d_plus):
                swapped = (d_plus - {old}) | {new}
                if mp.is_independent(swapped):
                    want_pi.add((old, new))
        assert got_pi == want_pi
        if a.field != GF(2):
            large_field_arcs += len(got_pi)
        npi = g.n_pi
        got_sigma = {
            (v - npi, w - npi)
            for v, outs in state.adjacency.items()
            for w, edge in outs
            if edge is None and v >= npi
        }
        want_sigma = set()
        for new in sorted(cl_minus - d_minus):
            for old in sorted(d_minus):
                swapped = (d_minus - {old}) | {new}
                if ms.is_independent(swapped):
                    want_sigma.add((new, old))
        assert got_sigma == want_sigma
    assert large_field_arcs > 0


def test_final_state_matches_rebuilt_digraph():
    # the matching loop reuses the graph's matroids across rounds; its last
    # digraph must be the one built from scratch for the final matching
    rng = random.Random(36)
    for field in (GF(2), GF(101), QQ) * 5:
        a = random_rank1_instance(rng, field, rng.randint(1, 4), rng.randint(1, 4), max_dim=3)
        g = build_stability_graph(a)
        state = max_independent_matching(g)
        rebuilt = build_auxiliary_digraph(g, state.matching)
        for name in ("adjacency", "sources", "sinks", "matched_pi", "matched_sigma"):
            assert getattr(state, name) == getattr(rebuilt, name)


def test_matroid_rejects_bad_block_index():
    with pytest.raises(ValueError):
        from rank1dm import VectorMatroid

        VectorMatroid([(2, Vector(GF(2), [1]))], (1,))


def test_single_vertex_no_edges_graph():
    g = StabilityGraph(GF(2), (2,), (1,))
    g.pi = [HyperplaneVertex(0, Vector(GF(2), [1, 0]))]
    state = max_independent_matching(g)
    assert state.size == 0
    assert state.sources == [0]
