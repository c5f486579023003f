"""Dulmage-Mendelsohn decomposition of partitioned matrices whose blocks
have rank at most one, over GF(p) or the exact rationals."""

from .field import GF, QQ, Field, PrimeField, RationalField
from .linalg import Matrix, Rank1Factor, rank1_factor, rref
from .matching import (
    IndependentMatchingState,
    max_independent_matching,
    reachability_sets,
)
from .partmat import (
    HyperplaneVertex,
    PartitionedMatrix,
    RankConditionViolated,
    StabilityGraph,
    build_stability_graph,
)
from .decompose import (
    ChainPoset,
    DMResult,
    StableSubspace,
    VerificationReport,
    build_bases,
    dm_decompose,
    ideal_to_stable_subspace,
    maximal_chain,
    scc_poset,
    verify,
)
from .oracle import brute_force_max_stable, enumerate_subspaces

__version__ = "0.1.0"

__all__ = [
    "GF",
    "QQ",
    "Field",
    "PrimeField",
    "RationalField",
    "Matrix",
    "Rank1Factor",
    "rref",
    "rank1_factor",
    "PartitionedMatrix",
    "HyperplaneVertex",
    "StabilityGraph",
    "RankConditionViolated",
    "build_stability_graph",
    "IndependentMatchingState",
    "max_independent_matching",
    "ChainPoset",
    "StableSubspace",
    "DMResult",
    "VerificationReport",
    "reachability_sets",
    "scc_poset",
    "ideal_to_stable_subspace",
    "maximal_chain",
    "build_bases",
    "dm_decompose",
    "verify",
    "enumerate_subspaces",
    "brute_force_max_stable",
]
