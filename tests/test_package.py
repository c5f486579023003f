"""The public surface of the package: ``rank1dm.__all__``."""

import rank1dm

PUBLIC = {
    "GF", "QQ", "Field", "PrimeField", "RationalField",
    "Matrix", "Rank1Factor", "rref", "rank1_factor",
    "PartitionedMatrix", "HyperplaneVertex", "StabilityGraph", "RankConditionViolated",
    "build_stability_graph",
    "IndependentMatchingState",
    "max_independent_matching",
    "ChainPoset", "StableSubspace", "DMResult", "VerificationReport",
    "reachability_sets", "scc_poset", "ideal_to_stable_subspace", "maximal_chain",
    "build_bases", "dm_decompose", "verify",
    "enumerate_subspaces", "brute_force_max_stable",
}


def test_public_names():
    assert len(PUBLIC) == 29
    assert len(rank1dm.__all__) == len(set(rank1dm.__all__))
    assert set(rank1dm.__all__) == PUBLIC
    for name in rank1dm.__all__:
        assert getattr(rank1dm, name) is not None
    # a vector is a tuple of raw values, so neither a vector type nor a
    # field-mismatch error is left to export; the matching state holds its
    # own matroid over both sides, so no matroid class or builder is either
    for gone in ("Vector", "FieldMismatchError", "VectorMatroid", "matroid_pi", "matroid_sigma"):
        assert gone not in rank1dm.__all__
        assert not hasattr(rank1dm, gone)
