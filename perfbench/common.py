"""Pieces shared by the untraced run and the traced replay: importing the
package from the checkout, the timed solve path, the correctness gate and
the closed loop of passes."""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BASELINE = HERE / "baseline"
DIGESTS = HERE / "digests.json"
DIGEST_HEX = 16  # leading hex digits of sha256 kept per document
# the fixed seed list: digests are recorded for seeds 0..RECORDED_SEEDS-1,
# and ``--seed n`` runs list entry n mod RECORDED_SEEDS
RECORDED_SEEDS = 32


class CheckoutError(RuntimeError):
    pass


def import_package():
    """Import rank1dm from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import rank1dm
        import rank1dm.cli  # noqa: F401  (not imported by the package)
    except ImportError as exc:
        raise CheckoutError(f"cannot import rank1dm from {SRC}: {exc}") from None
    if Path(rank1dm.__file__).resolve().parent != SRC / "rank1dm":
        raise CheckoutError(f"rank1dm was imported from {rank1dm.__file__}, not {SRC}")
    return rank1dm


def import_baseline():
    """Import ``rank1dm_base`` from ``baseline/``: ``src/rank1dm`` copied
    unchanged when the benchmark was defined, the reference every time is
    measured against.  It must never be edited, or times measured before
    and after the edit stop being comparable."""
    sys.path.insert(0, str(BASELINE))
    import rank1dm_base
    import rank1dm_base.cli  # noqa: F401

    return rank1dm_base


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


def recorded_digests(workload: str, seed: int) -> list[str]:
    """The recorded document digests of (workload, seed); empty if the seed
    was not recorded."""
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed), [])


def document_fields(text: str) -> dict[str, list[str]]:
    """Single-line ``key value...`` fields of a result document."""
    fields: dict[str, list[str]] = {}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        fields.setdefault(key, rest.split())
    return fields


def solve(rank1dm, text: str):
    """One instance through the user's path; returns (seconds, document, passed)."""
    cli, decompose = rank1dm.cli, rank1dm.decompose
    t0 = time.perf_counter()
    doc = cli.parse_input(text)
    a = cli.document_to_matrix(doc)
    result = decompose.dm_decompose(a)
    report = decompose.verify(a, result)
    out = cli.format_result(doc, result, report)
    return time.perf_counter() - t0, out, report.passed


class Gate:
    """Correctness checks, all made outside the timed sections.

    A solve is keyed by (pass, instance, ...).  It fails if it raised, if
    ``verify`` reported FAIL, if its document differs from the first
    document of that instance in the run or from the recorded digest (no
    recorded digest fails too), or if its v* disagrees with the brute-force
    oracle."""

    def __init__(self, expected: list[str]):
        self.expected = expected
        self.first: dict[int, str] = {}
        self.attempts: Counter[int] = Counter()  # instance -> solves
        self.failed: dict[tuple, str] = {}

    def fail(self, key: tuple, why: str):
        self.failed.setdefault(key, f"{key}: {why}")

    def attempt(self, key: tuple, fn, *args):
        """Call ``fn``, which returns (seconds, document, passed, ...), and
        check the outcome; None if it raised."""
        self.attempts[key[1]] += 1
        try:
            outcome = fn(*args)
        except Exception as exc:  # any raise is a failed instance
            self.fail(key, f"{type(exc).__name__}: {exc}")
            return None
        self._check(key, outcome[1], outcome[2])
        return outcome

    def _check(self, key: tuple, out: str, passed: bool):
        index = key[1]
        if not passed:
            return self.fail(key, "verify reported FAIL")
        d = digest(out)
        if self.first.setdefault(index, d) != d:
            return self.fail(key, "document differs from this instance's first document")
        if index >= len(self.expected):
            return self.fail(key, "no digest recorded for this workload and seed")
        if d != self.expected[index]:
            return self.fail(key, f"digest {d} != recorded {self.expected[index]}")

    def check_oracle(self, rank1dm, docs: list[str], outs: dict[int, str]):
        """Brute-force v* against each instance's document; a disagreement
        fails every solve of that instance."""
        wrong = {}
        for index, out in outs.items():
            a = rank1dm.cli.document_to_matrix(rank1dm.cli.parse_input(docs[index]))
            v_star, _ = rank1dm.brute_force_max_stable(a)
            got = int(document_fields(out)["v_star"][0])
            if got != v_star:
                wrong[index] = f"v* {got} != oracle {v_star}"
        for index, why in wrong.items():
            for k in range(self.attempts[index]):
                self.fail(("oracle", index, k), why)

    @property
    def result(self) -> dict:
        return {
            "correct": not self.failed,
            "attempted": sum(self.attempts.values()),
            "failed": len(self.failed),
        }


def run_passes(seconds: float, one_pass) -> list:
    """Closed loop of whole passes, ``one_pass(pass_no)`` each.  Another
    pass starts only while the longest pass so far still fits in the time
    left; at least one runs."""
    results = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        gc.collect()
        t0 = time.perf_counter()
        results.append(one_pass(len(results) + 1))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return results

