"""rank1dm benchmark: seeded workloads from input text to a verified result.

Run from the repository root::

    python3 perfbench/run.py --workload dense-gf101 --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16

Each instance follows the user's path, timed from outside:
``cli.parse_input`` -> ``cli.document_to_matrix`` -> ``decompose.dm_decompose``
-> ``decompose.verify`` -> ``cli.format_result``.  One process runs a
workload in a closed loop with one client: the next instance starts when
the previous one finishes, and whole passes over the workload's instances
repeat while ``--seconds`` lasts.

Inputs come from a fixed list of seeds, 0 to 31 (``common.RECORDED_SEEDS``),
for which every result document's digest is recorded; ``--seed n`` runs
list entry n mod 32, so every run is checked against recorded digests.

Times are measured against a frozen baseline.  The shared host this was
built on changes speed by up to 2x within minutes, so seconds measured at
different times cannot resolve a 20% change.  Every instance is therefore
solved twice, back to back, by the program and by ``rank1dm_base``, a
frozen copy of the package (``baseline/``), and each time metric is the
program's time over the baseline's in the same run, multiplied by the
seconds the baseline took for that metric on the reference host
(``REFERENCE_S``).  It reads as seconds at the reference host's speed; the
host's speed cancels out of the ratio.

End-to-end metrics: ``wall_s`` (the median over passes of the seconds one
pass spends on the solve path), ``solve_s.p50`` (the median seconds per
solve; its ratio is the median of the per-instance ratios), ``setup_s`` (importing the package in a fresh interpreter plus
generating and serialising the documents, median of the repeats) and
``peak_rss_mb`` (a fresh interpreter that imports the program and solves
the workload's largest document).  The unscaled seconds of program and
baseline are in the context line, and with a thousand samples or more
so is ``solve_s.p99``, with the sample count and the fail rate
(``failed / attempted``).

With ``--trace 1`` the pipeline is instead replayed stage by stage through
each module's public functions (``replay.py``), giving per-layer times and
counts, in unscaled seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's context (interpreter, machine, package version, ``src/``
size, sample counts, fail rate).  A run that sees any failure exits with
status 1.  Without an importable ``src/rank1dm`` in the checkout it exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array

import replay
from common import (
    BASELINE, HERE, OUT, RECORDED_SEEDS, ROOT, SRC, CheckoutError, Gate, import_baseline,
    import_package, recorded_digests, run_passes, solve,
)
from workloads import WORKLOADS

_IMPORT_PROBE = (
    "import importlib, sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); importlib.import_module(sys.argv[2]); "
    "print(time.perf_counter() - t)"
)
# a raise here is already counted as a failure by the gate
_PEAK_PROBE = (
    "import contextlib, resource, sys; sys.path.insert(0, sys.argv[1]); import common\n"
    "with contextlib.suppress(Exception): common.solve(common.import_package(), sys.stdin.read())\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)"
)

# Seconds the frozen baseline took on the reference host (a 2-core Xeon
# virtual machine, Python 3.11), median of three runs of each workload.
REFERENCE_S = {
    "dense-gf101": {"wall_s": 5.909, "solve_s.p50": 0.499, "setup_s": 0.08855},
    "dense-qq": {"wall_s": 8.612, "solve_s.p50": 0.5409, "setup_s": 0.07689},
    "sparse-gf2": {"wall_s": 7.088, "solve_s.p50": 0.4496, "setup_s": 0.1041},
    "small-batch": {
        "wall_s": 1.123, "solve_s.p50": 0.0009366, "setup_s": 0.119, "solve_s.p99": 0.003543,
    },
}
SETUP_REPEATS = 11


def _python(code: str, *args: str, stdin: str | None = None) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        input=stdin, capture_output=True, text=True, check=False, timeout=120,
    )
    if proc.returncode != 0:
        raise CheckoutError(f"child interpreter failed: {proc.stderr.strip()}")
    return proc.stdout


def measure_setup(workload, seed: int) -> tuple[float, float, list[str]]:
    """Set-up, repeated: importing the package in a fresh interpreter, then
    generating and serialising the workload's documents.  The baseline's
    import is timed next to the program's in each repeat, alternating which
    goes first.  Returns the program's and the baseline's median seconds and
    the documents."""
    prog, base = [], []
    packages = [("rank1dm", SRC), ("rank1dm_base", BASELINE)]
    for k in range(SETUP_REPEATS):
        imports = {
            name: float(_python(_IMPORT_PROBE, str(path), name))
            for name, path in (packages[::-1] if k % 2 else packages)
        }
        t0 = time.perf_counter()
        docs = workload.build(seed)
        build = time.perf_counter() - t0
        prog.append(imports["rank1dm"] + build)
        base.append(imports["rank1dm_base"] + build)
    return statistics.median(prog), statistics.median(base), docs


def measure_end_to_end(rank1dm, base, workload, docs, seconds, gate: Gate):
    """Program and baseline solve each instance back to back, alternating
    which goes first; returns the ratios program / baseline and the
    context.  ``solve_s.p50`` is the median of the per-instance ratios,
    since the two halves of a pair see the same host speed."""
    outs: dict[int, str] = {}

    def one_pass(pass_no):
        pairs = []  # (program seconds, baseline seconds)
        for index, text in enumerate(docs):
            base_first = (pass_no + index) % 2
            if base_first:
                ref = solve(base, text)[0]
            solved = gate.attempt((pass_no, index), solve, rank1dm, text)
            if not base_first:
                ref = solve(base, text)[0]
            if solved is not None:
                pairs.append((solved[0], ref))
                outs.setdefault(index, solved[1])
        return pairs or [(0.0, 1.0)]  # every solve failed

    passes = run_passes(seconds, one_pass)
    if workload.tiny:
        gate.check_oracle(rank1dm, docs, outs)
    pairs = [pair for p in passes for pair in p]
    prog, ref = [p for p, _ in pairs], [r for _, r in pairs]
    ratios = {
        "wall_s": statistics.median(
            sum(p for p, _ in pass_pairs) / sum(r for _, r in pass_pairs)
            for pass_pairs in passes
        ),
        "solve_s.p50": statistics.median(p / r for p, r in pairs),
    }
    context = {
        "passes": len(passes),
        "solve_samples": len(pairs),
        "program_wall_s": statistics.median(sum(p for p, _ in pp) for pp in passes),
        "baseline_wall_s": statistics.median(sum(r for _, r in pp) for pp in passes),
        "program_solve_s.p50": statistics.median(prog),
        "baseline_solve_s.p50": statistics.median(ref),
    }
    if len(pairs) >= 1000:
        # ten or more samples lie beyond the 99th percentile
        p99, ref_p99 = (statistics.quantiles(x, n=100)[98] for x in (prog, ref))
        ratios["solve_s.p99"] = p99 / ref_p99
        context.update({"program_solve_s.p99": p99, "baseline_solve_s.p99": ref_p99})
    return ratios, context


def machine_context(rank1dm) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                model,
            )
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (SRC / "rank1dm").glob("*.py")
    )
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "rank1dm": rank1dm.__version__,
        "src_lines": src_lines,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of one workload: (context, result line)."""
    workload = WORKLOADS[name]
    rank1dm = import_package()
    list_seed = seed % RECORDED_SEEDS
    gate = Gate(recorded_digests(name, list_seed))
    if trace:
        docs = workload.build(list_seed)
        spans = OUT / f"spans-{name}-{seed}.jsonl"
        metrics, context = replay.measure_layers(rank1dm, workload, docs, seconds, gate, spans)
        context["spans"] = str(spans.relative_to(ROOT))
    else:
        setup_s, base_setup_s, docs = measure_setup(workload, list_seed)
        ratios, context = measure_end_to_end(
            rank1dm, import_baseline(), workload, docs, seconds, gate
        )
        ratios["setup_s"] = setup_s / base_setup_s
        context.update(program_setup_s=setup_s, baseline_setup_s=base_setup_s)
        reference = REFERENCE_S[name]
        metrics = {
            key: (ratios[key] * reference[key], "s")
            for key in ("wall_s", "solve_s.p50", "setup_s")
        }
        if "solve_s.p99" in ratios:
            context["solve_s.p99"] = ratios["solve_s.p99"] * reference["solve_s.p99"]
        largest = max(docs, key=len)
        metrics["peak_rss_mb"] = (float(_python(_PEAK_PROBE, str(HERE), stdin=largest)), "MB")
    result = gate.result
    context.update(
        workload=name,
        seed=seed,
        list_seed=list_seed,
        instances=len(docs),
        fail_rate=result["failed"] / max(result["attempted"], 1),
        failures=list(gate.failed.values())[:20],
        **machine_context(rank1dm),
    )
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return context, result


def summarize_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh process, printed as a table."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False,
        )
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            continue
        context, result = json.loads(lines[-2])["context"], json.loads(lines[-1])
        print(f"{name}  seed {seed}  attempted {result['attempted']}  "
              f"failed {result['failed']}  fail_rate {context['fail_rate']:.4f}  "
              f"passes {context['passes']}")
        for key, m in result["metrics"].items():
            print(f"  {key:<26} {m['value']:>14.6g} {m['unit']}")
        for key in ("solve_samples", "solve_s.p99", "program_wall_s", "baseline_wall_s",
                    "program_solve_s.p50", "baseline_solve_s.p50", "program_setup_s",
                    "baseline_setup_s"):
            if key in context:
                print(f"  ({key:<24} {context[key]:>14.6g})")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return summarize_all(args.seed, args.seconds, bool(args.trace))
    try:
        context, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in context["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
