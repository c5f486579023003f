import logging
import operator
import random
import re
from collections import Counter
from itertools import combinations

import pytest

from gen import (
    cover_value,
    matched_sides,
    matroid_pi,
    matroid_sigma,
    min_cover,
    random_rank1_instance,
    reference_bfs,
)

from rank1dm import (
    GF,
    QQ,
    Matrix,
    PartitionedMatrix,
    IndependentMatchingState,
    StabilityGraph,
    build_stability_graph,
    max_independent_matching,
    reachability_sets,
)
from rank1dm import matching as matching_module
from rank1dm.cli import parse_input, serialize_input
from rank1dm.matching import _search
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
    assert m.rank([]) == 0
    assert m.rank(_pi_ids(graph, ["1a", "1b", "1c"])) == 2
    assert m.rank(_pi_ids(graph, ["1a", "1b", "2a", "2c", "3c"])) == 5


def test_closure_examples(graph):
    m = matroid_pi(graph)
    assert m.closure([]) == set()
    closed = m.closure(_pi_ids(graph, ["1a", "1b"]))
    block1 = {i for i, v in enumerate(graph.pi) if v.block == 0}
    assert closed & block1 == set(_pi_ids(graph, ["1a", "1b", "1c"]))
    d_plus = _pi_ids(graph, ["1a", "1b", "2a", "2c", "3c"])
    cl = m.closure(d_plus)
    assert cl == set(range(graph.n_pi)) - set(_pi_ids(graph, ["3a"]))


def test_aux_digraph_empty_matching(graph):
    state = IndependentMatchingState(graph, frozenset())
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
    state = IndependentMatchingState(graph, _known_matching_ids(graph))
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
        IndependentMatchingState(graph, frozenset(shared))
    # dependent endpoints: 1a, 1b, 1c all inside block 1
    dep = [
        k
        for k, e in enumerate(graph.edges)
        if (graph.pi_label(e.pi), graph.sigma_label(e.sigma))
        in {("1a", "1'a"), ("1b", "3'c"), ("1c", "2'c")}
    ]
    with pytest.raises(ValueError):
        IndependentMatchingState(graph, frozenset(dep))


def test_max_matching_empty_graph():
    g = StabilityGraph(GF(2), (1,), (1,))
    state = max_independent_matching(g)
    assert state.size == 0


def test_max_matching_worked_example(graph):
    state = max_independent_matching(graph)
    assert state.size == 5
    got = {
        (graph.pi_label(e.pi), graph.sigma_label(e.sigma))
        for e in (graph.edges[k] for k in state.matching)
    }
    assert got == KNOWN_MAX_MATCHING


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
                if mp.rank(pis) == ms.rank(sigmas) == r:
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
        assert len(caplog.records) == state.size <= max(1, len(g.edges))
        mp, ms = matroid_pi(g), matroid_sigma(g)
        history = [frozenset()] + [r.matching for r in caplog.records]
        for snapshot in history:
            pis = [g.edges[k].pi for k in snapshot]
            sigmas = [g.edges[k].sigma for k in snapshot]
            assert len(set(pis)) == len(snapshot) == len(set(sigmas))
            assert mp.rank(pis) == ms.rank(sigmas) == len(snapshot)
        sizes = [len(s) for s in history]
        assert sizes == list(range(state.size + 1))
        assert history[-1] == state.matching


def test_aux_digraph_built_in_search_order(caplog):
    # _search reads each node's arcs in the order arcs lists them, so every
    # list must ascend by (target, exchange arc before graph edge); matched
    # vertices are not solved against themselves, their circuits are empty
    caplog.set_level(logging.DEBUG, logger="rank1dm")
    rng = random.Random(37)
    for field in (GF(2), GF(3), GF(101), QQ) * 4:
        a = random_rank1_instance(rng, field, rng.randint(1, 4), rng.randint(1, 4), max_dim=3)
        g = build_stability_graph(a)
        caplog.clear()
        max_independent_matching(g)
        for matching in [frozenset()] + [r.matching for r in caplog.records]:
            state = IndependentMatchingState(g, matching)
            for arcs in state.adjacency.values():
                keys = [(w, -1 if edge is None else edge) for w, edge in arcs]
                assert keys == sorted(keys)
            assert all(state.circuit[v] == [] for v in state.matched)
            assert all(c == sorted(c) for c in state.circuit if c is not None)


def _ancestors_of_sinks(nx, state) -> set[int]:
    """The sinks and every node with a path to one, by networkx on the
    digraph the materialized out-arcs describe."""
    adjacency = state.adjacency
    digraph = nx.DiGraph()
    digraph.add_nodes_from(adjacency)
    digraph.add_edges_from((v, w) for v, outs in adjacency.items() for w, _ in outs)
    return set(state.sinks).union(*(nx.ancestors(digraph, v) for v in state.sinks))


def test_backward_reachability_equals_ancestors_after_every_flip(monkeypatch):
    # Cinf is walked back along the lists the search reads forward, so after
    # each flip it is what reaches the sinks on the out-arcs alone: reversed
    # matched edges and both sides' exchange arcs included.  The flips are
    # one search's path at a time from the empty matching, then the state
    # max_independent_matching builds on its greedy picks and its own rounds
    nx = pytest.importorskip("networkx")
    seen = Counter()
    flip = IndependentMatchingState.flip

    def checked_flip(state, edges):
        flip(state, edges)
        assert reachability_sets(state)[1] == _ancestors_of_sinks(nx, state)
        seen["flips"] += 1
        npi = state.graph.n_pi
        for v, outs in state.adjacency.items():
            for w, edge in outs:
                kind = "graph" if v < npi <= w else "matched" if w < npi <= v else "exchange"
                seen[kind, v < npi] += 1

    monkeypatch.setattr(IndependentMatchingState, "flip", checked_flip)
    rng = random.Random(43)
    for field in (GF(2), GF(101), QQ) * 5:
        a = random_rank1_instance(rng, field, rng.randint(1, 5), rng.randint(1, 5), max_dim=3)
        g = build_stability_graph(a)
        state = IndependentMatchingState(g)
        while (after := _flip(state.matching, state)) is not None:
            state.flip(after ^ state.matching)
        assert max_independent_matching(g).matching == state.matching
    assert seen["flips"] > 50
    assert all(seen[kind] for kind in (("matched", False), ("exchange", True), ("exchange", False)))


def test_search_equals_the_reference_bfs_on_every_snapshot(caplog):
    # on the digraph of every matching a solve passes through, the search
    # that reads the state's lists in place enters each node by the arc and
    # stops at the target that a plain BFS over the materialized out-arcs
    # finds, with the sinks as targets and without; the backward walk
    # reaches what networkx finds reaching the sinks
    nx = pytest.importorskip("networkx")
    caplog.set_level(logging.DEBUG, logger="rank1dm")
    rng = random.Random(49)
    found = exchange = 0
    for field in (GF(2), GF(3), GF(101), QQ) * 4:
        a = random_rank1_instance(
            rng, field, rng.randint(2, 6), rng.randint(2, 6), max_dim=3, zero_prob=0.4
        )
        g = build_stability_graph(a)
        caplog.clear()
        max_independent_matching(g)
        for matching in [frozenset()] + [r.matching for r in caplog.records]:
            state = IndependentMatchingState(g, matching)
            adjacency = state.adjacency
            for targets in (state.sinks, ()):
                got = _search(state, state.sources, targets)
                assert got == reference_bfs(adjacency, state.sources, targets)
                found += got[1] is not None
            assert reachability_sets(state)[1] == _ancestors_of_sinks(nx, state)
            exchange += sum(map(len, state.holders))
    assert found > 50 and exchange > 20


def test_reachability_sets_match_networkx():
    # C0 is what the sources reach and Cinf what reaches the sinks, on the
    # digraph the out-arcs alone describe
    nx = pytest.importorskip("networkx")
    rng = random.Random(44)
    both = 0
    for field in (GF(2), GF(3), GF(101), QQ) * 8:
        a = random_rank1_instance(
            rng, field, rng.randint(2, 6), rng.randint(2, 6), max_dim=3, zero_prob=0.6
        )
        state = max_independent_matching(build_stability_graph(a))
        adjacency = state.adjacency
        digraph = nx.DiGraph()
        digraph.add_nodes_from(adjacency)
        digraph.add_edges_from((v, w) for v, outs in adjacency.items() for w, _ in outs)
        c0 = set(state.sources).union(*(nx.descendants(digraph, v) for v in state.sources))
        cinf = set(state.sinks).union(*(nx.ancestors(digraph, v) for v in state.sinks))
        assert reachability_sets(state) == (c0, cinf)
        both += bool(c0 - set(state.sources)) and bool(cinf - set(state.sinks))
    assert both > 0


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
    state = IndependentMatchingState(graph, frozenset())
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
        d_plus, d_minus = matched_sides(state)
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
                if mp.rank(swapped) == len(swapped):
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
                if ms.rank(swapped) == len(swapped):
                    want_sigma.add((new, old))
        assert got_sigma == want_sigma
    assert large_field_arcs > 0


def test_final_state_matches_rebuilt_digraph():
    # the matching loop advances one state by flips and keeps each block's
    # circuits across rounds; its final digraph must be the one the
    # constructor builds from scratch, on fresh matroids, for that matching
    rng = random.Random(36)
    for field in (GF(2), GF(101), QQ) * 5:
        a = random_rank1_instance(rng, field, rng.randint(1, 4), rng.randint(1, 4), max_dim=3)
        g = build_stability_graph(a)
        state = max_independent_matching(g)
        rebuilt = IndependentMatchingState(g, state.matching)
        for name in ("adjacency", "sources", "sinks", "matched"):
            assert getattr(state, name) == getattr(rebuilt, name)


def _flip(matching, state):
    """The matching after one reference search of ``state``'s materialized
    digraph, or None when no augmenting path exists."""
    parent, node = reference_bfs(state.adjacency, state.sources, state.sinks)
    if node is None:
        return None
    flipped = set()
    while parent[node] is not None:
        node, edge = parent[node]
        if edge is not None:
            flipped.add(edge)
    return matching ^ flipped


def test_rounds_match_search_on_rebuilt_digraph(caplog):
    # the constructor on fresh matroids is the from-scratch reference: every
    # round of the loop must flip the path that one search of the digraph
    # it builds for the previous matching finds
    caplog.set_level(logging.DEBUG, logger="rank1dm")
    rng = random.Random(38)
    for field in (GF(2), GF(3), GF(101), QQ) * 4:
        a = random_rank1_instance(rng, field, rng.randint(1, 4), rng.randint(1, 4), max_dim=3)
        g = build_stability_graph(a)
        caplog.clear()
        state = max_independent_matching(g)
        previous = frozenset()
        for record in caplog.records:
            previous = _flip(previous, IndependentMatchingState(g, previous))
            assert record.matching == previous
        assert _flip(previous, IndependentMatchingState(g, previous)) is None
        assert state.matching == previous


def test_greedy_rounds_equal_the_searches_at_scale(caplog):
    # the one-edge rounds come from one greedy pass and the rest from
    # searches; on instances where longer paths follow the greedy picks,
    # every record must be what one search of a fresh state for the
    # previous matching finds.  QQ blocks up to dim 5 grow the fraction-free
    # rows; the GF(2) grid is 95% zero
    caplog.set_level(logging.DEBUG, logger="rank1dm")
    for a in (
        random_rank1_instance(random.Random(40), GF(101), 16, 16, max_dim=3, zero_prob=0.5),
        random_rank1_instance(random.Random(45), QQ, 12, 12, max_dim=5, zero_prob=0.5),
        random_rank1_instance(random.Random(46), GF(2), 40, 40, max_dim=2, zero_prob=0.95),
    ):
        g = build_stability_graph(a)
        caplog.clear()
        state = max_independent_matching(g)
        previous, longer = frozenset(), 0
        for record in caplog.records:
            after = _flip(previous, IndependentMatchingState(g, previous))
            assert record.matching == after
            longer += len(after ^ previous) > 1
            previous = after
        assert _flip(previous, IndependentMatchingState(g, previous)) is None
        assert state.matching == previous and longer > 0
        assert state.size == len(caplog.records) > 20


def test_flip_matches_a_fresh_build():
    # one state advanced by flips, along augmenting paths and back along the
    # last path taken, holds after each flip the digraph the constructor
    # builds from scratch for its matching; a flip that makes two edges share
    # a vertex or one side dependent raises
    rng = random.Random(41)
    names = ("adjacency", "sources", "sinks", "matched")
    flips, shared, dependent = 0, 0, 0
    for field in (GF(2), GF(101), QQ) * 5:
        a = random_rank1_instance(rng, field, rng.randint(1, 4), rng.randint(1, 4), max_dim=3)
        g = build_stability_graph(a)
        state = IndependentMatchingState(g)
        taken = []
        for _ in range(12):
            after = _flip(state.matching, state)
            if taken and (after is None or rng.random() < 0.3):
                path = taken.pop()
            elif after is not None:
                path = after ^ state.matching
                taken.append(path)
            else:
                break
            state.flip(path)
            flips += 1
            fresh = IndependentMatchingState(g, state.matching)
            for name in names:
                assert getattr(state, name) == getattr(fresh, name), name
            # the matched nodes are both ends of every matched edge, as node ids
            ends = [(g.edges[k].pi, g.n_pi + g.edges[k].sigma) for k in state.matching]
            assert state.matched == {v for pair in ends for v in pair}
            assert len(state.matched) == 2 * state.size
            for k, e in enumerate(g.edges):
                if k in state.matching:
                    continue
                if e.pi in state.matched or g.n_pi + e.sigma in state.matched:
                    message, shared = "edge set is not a matching", shared + 1
                elif e.pi not in state.sources or g.n_pi + e.sigma not in state.sinks:
                    message, dependent = "matching endpoints are not independent", dependent + 1
                else:
                    continue
                with pytest.raises(ValueError, match=message):
                    IndependentMatchingState(g, state.matching).flip({k})
    assert flips > 50 and shared > 0 and dependent > 0


def test_flip_rejects_a_stray_edge_index(graph):
    # a negative alias, a bool, an index past the last edge or a non-int is
    # refused, the smallest repr named, before the state changes: the state
    # still equals a fresh build and takes the next flip
    n = len(graph.edges)
    assert n == 9
    names = ("matching", "adjacency", "sources", "sinks", "matched")
    for start in (set(), {0}):
        state = IndependentMatchingState(graph, start)
        for edges, named in (
            ({-1}, "-1"), ({-n}, f"-{n}"), ({True}, "True"), ({False}, "False"), ({n}, str(n)),
            ({1.0}, "1.0"), ({"3"}, "'3'"), ({2, -1, n}, "-1"), ({-1, "x", 4}, "'x'"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(named)} is not an edge index$"):
                state.flip(edges)
            fresh = IndependentMatchingState(graph, start)
            for name in names:
                assert getattr(state, name) == getattr(fresh, name), (edges, name)
        state.flip({n - 1})
        assert state.matching == start | {n - 1}


def test_free_lists_equal_the_scan_after_every_flip():
    # sources and sinks chain the matroids' per-block free lists; after each
    # flip, along augmenting paths and back along the last one taken, they
    # are the unmatched vertices outside the closure of the matched ones,
    # ascending, as a scan of every vertex finds them
    rng = random.Random(42)
    flips = 0
    for field in (GF(2), GF(101), QQ) * 5:
        a = random_rank1_instance(rng, field, rng.randint(1, 5), rng.randint(1, 5), max_dim=3)
        g = build_stability_graph(a)
        state = IndependentMatchingState(g)
        taken = []
        for _ in range(12):
            after = _flip(state.matching, state)
            if taken and (after is None or rng.random() < 0.3):
                state.flip(taken.pop())
            elif after is not None:
                taken.append(after ^ state.matching)
                state.flip(taken[-1])
            else:
                break
            flips += 1
            matched_pi, matched_sigma = matched_sides(state)
            closed_pi = matroid_pi(g).closure(matched_pi)
            closed_sigma = matroid_sigma(g).closure(matched_sigma)
            assert state.sources == [i for i in range(g.n_pi) if i not in closed_pi]
            assert state.sinks == [
                g.n_pi + j for j in range(g.n_sigma) if j not in closed_sigma
            ]
    assert flips > 50


def _counted_eliminations(monkeypatch) -> list:
    """The argument tuples of every ``span_supports`` call the matching makes."""
    calls = []
    eliminate = matching_module.span_supports
    monkeypatch.setattr(
        matching_module, "span_supports", lambda *args: calls.append(args) or eliminate(*args)
    )
    return calls


def test_matching_eliminates_each_changed_block_once(caplog, monkeypatch):
    # a block is eliminated again only when its matched vertices change, so
    # the eliminations are at most the distinct (side, block, matched ids)
    # that the rounds' matchings show
    caplog.set_level(logging.DEBUG, logger="rank1dm")
    calls = _counted_eliminations(monkeypatch)
    a = random_rank1_instance(random.Random(40), GF(101), 16, 16, max_dim=3, zero_prob=0.5)
    g = build_stability_graph(a)
    state = max_independent_matching(g)
    selections = set()
    for record in caplog.records:
        for side, vertices, ends in (
            ("pi", g.pi, [g.edges[k].pi for k in record.matching]),
            ("sigma", g.sigma, [g.edges[k].sigma for k in record.matching]),
        ):
            by_block: dict[int, list[int]] = {}
            for i in sorted(ends):
                by_block.setdefault(vertices[i].block, []).append(i)
            selections.update((side, blk, tuple(ids)) for blk, ids in by_block.items())
    assert state.size > 16
    assert 0 < len(calls) <= len(selections)


@pytest.mark.parametrize("field", [QQ, GF(101)], ids=["qq", "gf101"])
def test_matching_clears_the_normals_once(field, monkeypatch):
    # the greedy rounds and the matroid read the same int normals: on A's
    # graph they are the int forms A's factors were born with, so
    # max_independent_matching clears nothing; a graph built without them
    # has its normals cleared once
    g = build_stability_graph(
        random_rank1_instance(random.Random(47), field, 8, 8, max_dim=3, zero_prob=0.5)
    )
    calls = []
    cleared = type(field).cleared

    def counted(self, vecs):
        calls.append(len(vecs))
        return cleared(self, vecs)

    monkeypatch.setattr(type(field), "cleared", counted)
    state = max_independent_matching(g)
    assert state.size > 0 and calls == []
    bare = StabilityGraph(*g, ints=None)
    assert bare == g and max_independent_matching(bare).matching == state.matching
    assert calls == [g.n_pi + g.n_sigma]


def test_circuit_memo_matches_fresh_matroid(caplog, monkeypatch):
    # one state flipped to each matching of a solve's rounds, forward and
    # then reversed back to the empty one, holds the circuits, holders and
    # free lists of a fresh state on a second parse, whose graph no state
    # has touched; the graph's memo then holds every block's elimination
    # for the held matching, so a second state built for it eliminates nothing
    caplog.set_level(logging.DEBUG, logger="rank1dm")
    calls = _counted_eliminations(monkeypatch)
    rng = random.Random(39)
    exchanges = 0
    for field in (GF(2), GF(3), GF(101), QQ):
        a = random_rank1_instance(rng, field, 4, 4, max_dim=3, zero_prob=0.1)
        again = parse_input(serialize_input(a))
        caplog.clear()
        max_independent_matching(a.graph)
        snapshots = [frozenset()] + [r.matching for r in caplog.records]
        assert len(snapshots) > 4
        state = IndependentMatchingState(a.graph)
        for matching in snapshots + snapshots[::-1]:
            state.flip(state.matching ^ matching)
            fresh = IndependentMatchingState(again.graph, matching)
            assert (state.circuit, state.holders, state.free) == (
                fresh.circuit, fresh.holders, fresh.free
            )
            for u in range(len(state.circuit)):
                held = [v for v, c in enumerate(state.circuit) if c and u in c]
                assert state.holders[u] == (held if u in state.matched else [])
            exchanges += sum(map(len, state.holders))
            before = len(calls)
            IndependentMatchingState(a.graph, matching)
            assert len(calls) == before
    assert exchanges > 20


def test_a_flip_eliminates_only_the_blocks_of_its_edges_ends(monkeypatch):
    # along every augmenting path from the empty matching, a flip calls
    # span_supports at most once per block of a flipped edge's end, and
    # every other block keeps the very lists it held
    calls = _counted_eliminations(monkeypatch)
    g = random_rank1_instance(random.Random(48), GF(101), 12, 12, max_dim=3, zero_prob=0.6).graph
    blocks = [v.block for v in g.pi] + [len(g.row_blocks) + v.block for v in g.sigma]
    state = IndependentMatchingState(g)

    def untouched(ends):
        kept = [v for v, blk in enumerate(blocks) if blk not in ends]
        return [*(state.circuit[v] for v in kept), *(state.holders[v] for v in kept),
                *(free for blk, free in enumerate(state.free) if blk not in ends)]

    while (after := _flip(state.matching, state)) is not None:
        path = after ^ state.matching
        ends = {blocks[v] for k in path for v in (g.edges[k].pi, g.n_pi + g.edges[k].sigma)}
        held, before = untouched(ends), len(calls)
        state.flip(path)
        assert 0 < len(calls) - before <= len(ends) < len(state.free)
        assert all(map(operator.is_, held, untouched(ends)))
    assert state.size > 10


def test_matroid_rejects_bad_block_index():
    # a hand-built graph's vertex must fit its side's blocks: a block index
    # out of range would file it under another block (a row vertex past mu
    # under a column block), and a normal longer or shorter than its block
    # would be truncated or read past; a state on such a graph is refused
    v = HyperplaneVertex
    for rows, cols, pi, sigma in (
        ((1,), (1,), (v(2, (1,)),), ()),
        ((2,), (1,), (v(1, (1, 0)),), ()),
        ((1, 2), (1,), (v(-1, (1, 0)), v(0, (1,))), ()),
        ((2,), (2,), (v(0, (1, 0, 1)), v(0, (1, 0, 0))), ()),
        ((2,), (2, 2), (), (v(0, (1, 0)), v(1, (1,)))),
    ):
        with pytest.raises(ValueError, match="^vertex block index out of range"):
            IndependentMatchingState(StabilityGraph(GF(2), rows, cols, pi, sigma))


def test_single_vertex_no_edges_graph():
    g = StabilityGraph(GF(2), (2,), (1,), pi=(HyperplaneVertex(0, (1, 0)),))
    state = max_independent_matching(g)
    assert state.size == 0
    assert state.sources == [0]
