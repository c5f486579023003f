"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json

import pytest

import replay
from common import (
    DIGESTS, RECORDED_SEEDS, Gate, digest, import_baseline, import_package, recorded_digests, solve,
)
from run import measure_end_to_end
from workloads import WORKLOADS, Workload

rank1dm = import_package()
base = import_baseline()

# the worked 6x6 example over GF(2)
EXAMPLE = """\
field gf 2
row_blocks 2 2 2
col_blocks 2 2 2
entries
1 0 1 1 0 0
0 0 1 1 1 1
1 1 1 1 1 0
0 0 0 0 1 0
1 0 1 1 1 0
1 0 1 1 0 0
"""

# instances per workload for the smoke run of the gate
SMOKE = {"dense-gf101": 2, "dense-qq": 2, "sparse-gf2": 2, "small-batch": 40}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_identical_documents(name):
    build = WORKLOADS[name].build
    first = build(7)
    assert first == build(7)
    assert first != build(8)


def test_every_seed_of_the_list_is_recorded_in_full():
    with open(DIGESTS, encoding="utf-8") as fh:
        table = json.load(fh)
    assert set(table) == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        assert set(table[name]) == {str(s) for s in range(RECORDED_SEEDS)}
        assert {len(d) for d in table[name].values()} == {len(workload.build(0))}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_passes_the_gate_at_smoke_size(name):
    k = SMOKE[name]
    expected = recorded_digests(name, 0)
    assert expected, "seed 0 digests must be recorded"
    gate = Gate(expected[:k])
    docs = WORKLOADS[name].build(0)[:k]
    measure_end_to_end(rank1dm, base, WORKLOADS[name], docs, 0, gate)
    assert gate.result == {"correct": True, "attempted": k, "failed": 0}


def test_gate_rejects_a_wrong_digest():
    gate = Gate(["0" * 16])
    measure_end_to_end(rank1dm, base, WORKLOADS["small-batch"], [EXAMPLE], 0, gate)
    assert gate.result["failed"] == 1


def test_gate_fails_a_seed_without_recorded_digests():
    assert recorded_digests("small-batch", -1) == []
    gate = Gate([])
    measure_end_to_end(rank1dm, base, WORKLOADS["small-batch"], [EXAMPLE], 0, gate)
    assert gate.result == {"correct": False, "attempted": 1, "failed": 1}


def test_replay_matches_dm_decompose_on_worked_example():
    _, expected, passed = solve(rank1dm, EXAMPLE)
    _, out, replay_passed, counts = replay.replay(rank1dm, replay.Tracer(), "0/0", EXAMPLE, True)
    assert passed and replay_passed
    assert out == expected
    assert counts["matching.size"] == 5
    assert counts["decompose.h"] == 3
    assert counts["decompose.ideals"] == 5  # {}, {1}, {1,2}, {1,3}, {1,2,3}
    gate = Gate([digest(expected)])
    example = Workload(None, tiny=True)
    metrics, _ = replay.measure_layers(rank1dm, example, [EXAMPLE], 0, gate)
    assert gate.result["correct"] and gate.result["attempted"] == 2
    assert set(metrics) >= set(replay.COUNT_UNITS) | set(replay.LAYER_OF_SPAN.values())
