"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output) and asserts the same condition, so the suite doubles as a
checklist."""

import random
import time
from collections import Counter
from fractions import Fraction

from gen import (
    classic_dm_check,
    from_blocks,
    is_stable,
    random_admissible_transform,
    random_rank1_instance,
    random_unit_pattern_instance,
    subspace_pair_canonical,
    worked_example,
)

from rank1dm import (
    GF,
    QQ,
    Matrix,
    brute_force_max_stable,
    build_stability_graph,
    dm_decompose,
    ideal_to_stable_subspace,
    max_independent_matching,
    maximal_chain,
    reachability_sets,
    rref,
    verify,
)
from rank1dm.decompose import DMResult


def _report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _labels(g, ids, side="pi"):
    if side == "pi":
        return {g.pi_label(i) for i in ids}
    return {g.sigma_label(j) for j in ids}


def test_criterion_1_worked_example_end_to_end():
    t0 = time.monotonic()
    a = worked_example()
    res = dm_decompose(a)
    g = res.graph
    c0, cinf = reachability_sets(res.state)
    elapsed = time.monotonic() - t0

    ok = (
        res.matching_size == 5
        and res.v_star == 7
        and _labels(g, res.state.sources) == {"3a"}
        and {
            g.pi_label(v) if v < g.n_pi else g.sigma_label(v - g.n_pi) for v in c0
        }
        == {"3a", "3'a", "2c"}
        and cinf == set()
        and res.poset.h == 3
        and _labels(g, res.poset.components[0].h_pi) == {"1a", "3c"}
        and _labels(g, res.poset.components[1].h_pi) == {"2a"}
        and _labels(g, res.poset.components[2].h_pi) == {"1b"}
        and res.poset.relations == frozenset({(1, 2), (1, 3)})
        and res.diag_blocks == [(0, 1), (1, 1), (1, 1), (2, 2), (2, 1)]
        and elapsed < 1.0
    )
    _report("criterion 1: worked example end to end", ok, f"{elapsed:.3f}s")


def test_criterion_2_verifier_accepts_alternative_decomposition():
    # a hand-checked decomposition built from different (non-inverse)
    # triangularizing choices than this library makes; the verifier contract
    # is that any admissible E, F with the right staircase passes
    f = GF(2)
    a = worked_example()
    e_alt = Matrix.from_rows(f, [
        [0, 0, 0, 1, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 1, 0, 1, 0],
    ])
    f_alt = Matrix.from_rows(f, [
        [0, 0, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 0],
        [1, 0, 0, 1, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 0, 0],
    ])
    a_dm_alt = Matrix.from_rows(f, [
        [0, 1, 0, 1, 0, 1],
        [0, 0, 1, 1, 1, 1],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 1, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 1],
    ])
    ours = dm_decompose(a)
    result = DMResult(
        row_blocks=(2, 2, 2),
        col_blocks=(2, 2, 2),
        E=e_alt,
        F=f_alt,
        a_dm=a_dm_alt,
        diag_blocks=[(0, 1), (1, 1), (1, 1), (2, 2), (2, 1)],
        chain_dims=[],
        matching_size=5,
        v_star=7,
        # this library's own maximum matching is the witness for v*
        graph=ours.graph,
        state=ours.state,
    )
    report = verify(a, result)
    ok = (
        report.check("product").passed
        and report.check("admissible").passed
        and report.check("staircase").passed
        and report.check("duality").passed
    )
    _report("criterion 2: verifier accepts an alternative valid E, F, A_DM", ok)


def _criterion3_instances(count=500):
    rng = random.Random(20260301)
    for _ in range(count):
        field = GF(rng.choice([2, 3]))
        yield random_rank1_instance(
            rng, field, rng.randint(1, 3), rng.randint(1, 3), max_dim=2
        )


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    checked = 0
    for a in _criterion3_instances(500):
        res = dm_decompose(a)
        v_star, _ = brute_force_max_stable(a)
        n, m = a.matrix.rows, a.matrix.cols
        assert v_star == n + m - res.matching_size == res.v_star, "duality broke"
        for sub in maximal_chain(res.poset, res.graph):
            xs = [[list(v.data) for v in b] for b in sub.x_bases]
            ys = [[list(v.data) for v in b] for b in sub.y_bases]
            assert is_stable(a, xs, ys), "chain element unstable"
            assert sub.dim_x + sub.dim_y == v_star, "chain element dimension off"
        checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == 500 and elapsed < 60.0
    _report(
        "criterion 3: oracle equivalence on 500 random instances",
        ok,
        f"{elapsed:.1f}s",
    )


def test_criterion_4_canonical_form_invariance():
    rng = random.Random(20260302)
    agreed = 0
    for _ in range(100):
        field = GF(rng.choice([2, 3]))
        a = random_rank1_instance(rng, field, rng.randint(1, 3), rng.randint(1, 3))
        base = dm_decompose(a)
        twisted = random_admissible_transform(rng, a)
        other = dm_decompose(twisted)
        same = (
            Counter(other.diag_blocks[1:-1]) == Counter(base.diag_blocks[1:-1])
            and other.diag_blocks[0] == base.diag_blocks[0]
            and other.diag_blocks[-1] == base.diag_blocks[-1]
            and other.v_star == base.v_star
        )
        assert same, "diagonal block structure changed under admissible transform"
        agreed += 1
    _report("criterion 4: canonical form invariance on 100 instances", agreed == 100)


def test_criterion_5_classic_dm_agreement():
    rng = random.Random(20260303)
    agreed = 0
    for _ in range(500):
        a = random_unit_pattern_instance(
            rng, rng.randint(1, 6), rng.randint(1, 6), density=rng.uniform(0.1, 0.9)
        )
        size, _ = classic_dm_check(a)
        state = max_independent_matching(build_stability_graph(a))
        assert state.size == size, "independent matching disagrees with bipartite matching"
        agreed += 1
    _report("criterion 5: classic DM agreement on 500 unit-type matrices", agreed == 500)


def test_criterion_6_rank_bound_and_generic_equality():
    # exact bound on the oracle-suite instances
    for a in _criterion3_instances(500):
        res = dm_decompose(a)
        assert rref(a.matrix).rank <= res.matching_size, "rank exceeded the matching size"

    # the GF(2) worked example is strictly below the bound
    example_res = dm_decompose(worked_example())
    assert rref(worked_example().matrix).rank == 4 < example_res.matching_size

    # generic coefficients over the rationals attain the bound
    rng = random.Random(20260304)
    hits = 0
    trials = 200
    for _ in range(trials):
        mu, nu = rng.randint(1, 3), rng.randint(1, 3)
        row_dims = [rng.randint(1, 2) for _ in range(mu)]
        col_dims = [rng.randint(1, 2) for _ in range(nu)]
        blocks = []
        for na in row_dims:
            brow = []
            for mb in col_dims:
                if rng.random() < 0.25:
                    brow.append(Matrix.zeros(QQ, na, mb))
                    continue
                u = [Fraction(rng.randint(0, 2)) for _ in range(na)]
                v = [Fraction(rng.randint(0, 2)) for _ in range(mb)]
                if not any(u):
                    u[0] = Fraction(1)
                if not any(v):
                    v[0] = Fraction(1)
                c = Fraction(rng.randint(1, 10**6))
                brow.append(Matrix(QQ, na, mb, [c * x * y for x in u for y in v]))
            blocks.append(brow)
        a = from_blocks(blocks)
        res = dm_decompose(a)
        assert rref(a.matrix).rank <= res.matching_size
        if rref(a.matrix).rank == res.matching_size:
            hits += 1
    ok = hits >= 0.99 * trials
    _report(
        "criterion 6: rank bound exact, generic equality",
        ok,
        f"{hits}/{trials} rational trials attained the bound",
    )


def test_criterion_7_ideals_biject_with_maximum_stable_subspaces():
    rng = random.Random(20260305)
    cases = [worked_example()]
    while len(cases) < 51:
        field = GF(rng.choice([2, 3]))
        cases.append(
            random_rank1_instance(rng, field, rng.randint(1, 3), rng.randint(1, 3))
        )
    for a in cases:
        res = dm_decompose(a)
        v_star, maximizers = brute_force_max_stable(a)
        ideals = res.poset.ideals()
        assert len(ideals) == len(maximizers), "ideal count != maximizer count"
        f = a.field
        via_ideals = {
            subspace_pair_canonical(f, a, sub.x_bases, sub.y_bases)
            for sub in (ideal_to_stable_subspace(j, res.poset) for j in ideals)
        }
        via_brute = {
            subspace_pair_canonical(f, a, xs, ys) for xs, ys in maximizers
        }
        assert len(via_ideals) == len(ideals), "ideal map is not injective"
        assert via_ideals == via_brute, "ideal map misses or invents maximizers"
    _report(
        "criterion 7: ideal lattice bijects with maximum stable subspaces",
        True,
        f"{len(cases)} instances",
    )


def test_criterion_8_complexity_smoke():
    rng = random.Random(20260306)
    f = GF(2)
    blocks = []
    for _ in range(30):
        brow = []
        for _ in range(30):
            if rng.random() < 0.5:
                brow.append(Matrix.zeros(f, 2, 2))
            else:
                u = [rng.randrange(2) for _ in range(2)]
                v = [rng.randrange(2) for _ in range(2)]
                if not any(u):
                    u[0] = 1
                if not any(v):
                    v[0] = 1
                brow.append(Matrix(f, 2, 2, [x * y for x in u for y in v]))
        blocks.append(brow)
    a = from_blocks(blocks)
    t0 = time.monotonic()
    res = dm_decompose(a)
    elapsed = time.monotonic() - t0
    ok = elapsed < 10.0 and res.state.augmentations <= 30 * 30
    assert verify(a, res).passed
    _report(
        "criterion 8: 60x60 instance decomposes quickly",
        ok,
        f"{elapsed:.2f}s, {res.state.augmentations} augmentations",
    )
