"""Fixed-seed ladder of larger instances, timed stage by stage.

Run from the repository root::

    python3 bench/ladder.py                      # markdown table on stdout
    python3 bench/ladder.py --json BENCH_32.json  # the same rows as JSON too

Rows are GF(2), GF(101) and the rationals at n = 60, 180 and 360.  Each is
a square grid of b x b blocks of size 3 (b = n / 3), built by the
benchmark's ``block_grid`` with ``balanced_zeros(rng, b, b // 2)`` zero
blocks and ``rng = random.Random(f"ladder/{name}")``; vectors are drawn as
in the dense benchmark workloads.  Four tall rows follow: GF(2) grids of
blocks of size 2 at n = 360, 720, 1440 and 2880 with 98%, 99%, 99.5% and
99.75% of their blocks zero, drawn by ``scattered_zeros``, whose posets run
to hundreds of components.
Each row runs in a fresh interpreter that repeats every stage until it has
at least ``MIN_REPEATS`` repeats and ``MIN_REPEAT_S`` seconds of them, so a
row of a few milliseconds gets dozens, and keeps the medians of:
``parse_input``, which returns the partitioned matrix, and the first
``a.factors`` on it (parse); ``build_stability_graph`` (graph, on the
factors parse cached); ``max_independent_matching`` (match);
``dm_decompose``; ``verify``; and ``format_result`` of the verified result
(format).  The matrix caches its graph and the graph its eliminations and
poset heights, so ``dm_decompose`` and ``verify`` run on a second parse of
the row, untimed, after the first one, with its graph and matching, is
freed.  The child also reports how many repeats it made (``repeats``), each
stage's spread over them (``iqr_s``, the distance between its quartiles) and
its peak resident set size (``peak_rss_mb``, from ``resource.getrusage``).  A
row still running after ``BUDGET_S`` seconds is stopped and reported as
skipped, with its budget.  Before the rows, ``import_s`` is the median
over ``IMPORTS`` fresh interpreters of the time ``import rank1dm,
rank1dm.cli`` takes with bytecode writing off, from a copy of the package
with no cached bytecode, as a fresh checkout has, and ``import_modules``
the number of modules that import adds.  The exit status is 1 when some
row's ``verify`` does not pass; time never fails a run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave no cache files in the checkout

from workloads import balanced_zeros, block_grid, scattered_zeros  # noqa: E402

BUDGET_S = 120  # per row, all repeats included
MIN_REPEATS, MIN_REPEAT_S = 10, 1.0  # a row repeats until it has both
IMPORTS = 11  # fresh interpreters that time the package's import
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); before = len(sys.modules); "
    "t = time.perf_counter(); import rank1dm, rank1dm.cli; "
    "print(time.perf_counter() - t, len(sys.modules) - before)"
)
FIELDS = {  # name -> (modulus, vector entry draw, coefficient draw)
    "gf2": (2, lambda r: r.randrange(2), lambda r: 1),
    "gf101": (101, lambda r: r.randrange(101), lambda r: r.randrange(1, 101)),
    "qq": (None, lambda r: r.randint(-3, 3), lambda r: r.randint(1, 9)),
}
TALL = {  # name -> zero share
    "gf2-tall-360": 0.98, "gf2-tall-720": 0.99, "gf2-tall-1440": 0.995, "gf2-tall-2880": 0.9975,
}
ROWS = [f"{field}-{n}" for field in FIELDS for n in (60, 180, 360)] + list(TALL)
STAGES = ("parse_s", "graph_s", "match_s", "dm_decompose_s", "verify_s", "format_s")


def instance(name: str) -> str:
    field, *_, n = name.split("-")
    modulus, vec_draw, coeff_draw = FIELDS[field]
    rng = random.Random(f"ladder/{name}")
    if name in TALL:
        b = int(n) // 2
        dims, zeros = [2] * b, scattered_zeros(rng, b, round(b * b * TALL[name]))
    else:
        b = int(n) // 3
        dims, zeros = [3] * b, balanced_zeros(rng, b, b // 2)
    return block_grid(
        rng, modulus, dims, dims, zeros, lambda: vec_draw(rng), lambda: coeff_draw(rng),
    )


def run_row(name: str) -> dict:
    """Times every stage of one row in this interpreter."""
    from rank1dm import build_stability_graph, dm_decompose, max_independent_matching, verify
    from rank1dm.cli import format_result, parse_input

    def load(text):
        a = parse_input(text)
        a.factors  # noqa: B018  (the first factoring, cached on the matrix)
        return a

    text = instance(name)
    times: dict[str, list[float]] = {stage: [] for stage in STAGES}

    def timed(stage, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        times[stage].append(time.perf_counter() - start)
        return out

    def early_stages() -> dict:
        a = timed("parse_s", load, text)
        g = timed("graph_s", build_stability_graph, a)
        state = timed("match_s", max_independent_matching, g)
        return {"vertices": g.n_pi + g.n_sigma, "edges": len(g.edges),
                "augmentations": state.size}

    start, repeats = time.perf_counter(), 0
    while repeats < MIN_REPEATS or time.perf_counter() - start < MIN_REPEAT_S:
        repeats += 1
        counts = early_stages()  # its matrix, graph and state are freed here
        a = load(text)
        result = timed("dm_decompose_s", dm_decompose, a)
        report = timed("verify_s", verify, a, result)
        timed("format_s", format_result, a, result, report)
        h, verdict = len(result.diag_blocks) - 2, "PASS" if report.passed else f"FAIL: {report}"
        del a, result, report  # so no repeat's peak holds an earlier solve
    row = {stage: round(statistics.median(t), 4) for stage, t in times.items()}
    iqr = {}
    for stage, t in times.items():
        q1, _, q3 = statistics.quantiles(t, n=4, method="inclusive")
        iqr[stage] = round(q3 - q1, 4)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return {"name": name, **row, **counts, "h": h, "repeats": repeats, "iqr_s": iqr,
            "peak_rss_mb": round(peak_mb, 1), "verify": verdict}


def import_cost() -> dict:
    """``import_s`` and ``import_modules``, each interpreter importing a copy of
    ``src/rank1dm`` without its ``__pycache__`` and writing none (``-B``)."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src" / "rank1dm", Path(tmp) / "rank1dm",
                        ignore=shutil.ignore_patterns("__pycache__"))
        runs = [subprocess.run([sys.executable, "-B", "-c", IMPORT_PROBE, tmp], check=True,
                               capture_output=True, text=True).stdout.split()
                for _ in range(IMPORTS)]
    return {"import_s": round(statistics.median(float(t) for t, _ in runs), 4),
            "import_modules": int(runs[0][1])}


def row_in_child(name: str) -> dict:
    """One row in a fresh interpreter, stopped once over its budget."""
    try:
        child = subprocess.run([sys.executable, __file__, "--row", name],
                               capture_output=True, text=True, timeout=BUDGET_S)
    except subprocess.TimeoutExpired:
        return {"name": name, "skipped": "over budget", "budget_s": BUDGET_S}
    if child.returncode:
        return {"name": name, "verify": f"FAIL: exit {child.returncode}: {child.stderr[-300:]}"}
    return json.loads(child.stdout)


def table(rows: list[dict]) -> str:
    cols = ("name", *STAGES, "vertices", "edges", "augmentations", "h", "repeats", "peak_rss_mb",
            "verify")
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for row in rows:
        if "skipped" in row:
            row = {"name": row["name"], "verify": f"skipped: over budget ({BUDGET_S} s)"}
        lines.append("| " + " | ".join(str(row.get(c, "")) for c in cols) + " |")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="FILE", help="also write the rows as JSON")
    parser.add_argument("--row", help=argparse.SUPPRESS)  # one row, in a child
    args = parser.parse_args()
    if args.row:
        print(json.dumps(run_row(args.row)))
        return 0
    src = sorted((ROOT / "src" / "rank1dm").glob("*.py"))
    host = {"python": platform.python_version(), "platform": platform.platform(),
            "machine": platform.machine(), "cpus": os.cpu_count()}
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src)
    doc = {"host": host, "src_lines": src_lines, **import_cost(), "imports": IMPORTS,
           "budget_s": BUDGET_S, "min_repeats": MIN_REPEATS, "min_repeat_s": MIN_REPEAT_S,
           "rows": [row_in_child(name) for name in ROWS]}
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"src/rank1dm: {src_lines} lines; import: {doc['import_s']} s,"
          f" {doc['import_modules']} modules; host: {host}\n")
    print(table(doc["rows"]))
    return int(any(row.get("verify", "PASS") != "PASS" for row in doc["rows"]))


if __name__ == "__main__":
    sys.exit(main())
