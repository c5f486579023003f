"""The public surface of the package, ``rank1dm.__all__``, and what
importing it loads."""

import subprocess
import sys
from pathlib import Path

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


# the input grows its matching of 4 by one search after three greedy picks
SEARCH_INPUT = """field gf 2
row_blocks 1 2 1 2
col_blocks 1 1 2 1
entries
0 1 0 1 1
0 1 0 0 0
0 1 0 0 0
1 1 1 1 1
0 1 1 1 1
0 0 1 1 1
"""


def _fresh(code: str, *args: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter, ``sys.argv[1]`` the
    directory this package is imported from and ``args`` after it."""
    src = str(Path(rank1dm.__file__).resolve().parent.parent)
    child = subprocess.run([sys.executable, "-c", code, src, *args],
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_the_import_loads_neither_dataclasses_nor_logging():
    # pytest has loaded all three here, so a fresh interpreter compares the
    # modules after the import with its own preloads
    loaded = _fresh(
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules)\n"
        "import rank1dm, rank1dm.cli\n"
        "print(*sorted({'dataclasses', 'inspect', 'logging'} & set(sys.modules) - before))\n"
    )
    assert loaded.split() == []


def test_a_handler_attached_after_the_import_sees_every_augmentation():
    # logging is loaded and configured after the package: the matching looks
    # it up when it runs, so each round, the greedy picks and the search's
    # alike, emits one record whose matching holds as many edges as its number
    out = _fresh(
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import rank1dm, rank1dm.cli\n"
        "import logging\n"
        "records = []\n"
        "handler = logging.Handler(logging.DEBUG)\n"
        "handler.emit = records.append\n"
        "log = logging.getLogger('rank1dm')\n"
        "log.addHandler(handler)\n"
        "log.setLevel(logging.DEBUG)\n"
        "a = rank1dm.cli.parse_input(sys.argv[2])\n"
        "state = rank1dm.max_independent_matching(a.graph)\n"
        "print(state.size, records[-1].matching == state.matching,"
        " *[len(r.matching) for r in records])\n",
        SEARCH_INPUT,
    )
    size, last, *sizes = out.split()
    assert size == "4" and last == "True"
    assert sizes == ["1", "2", "3", "4"]
