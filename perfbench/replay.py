"""Traced replay: the solve path taken stage by stage through each module's
public functions, with one span around every call.

Spans are kept in memory as ``(id, parent, instance, name, start, end)``,
where the instance id is ``"<pass>/<index>"`` and times are seconds from
the start of tracing, and written out as JSON lines when the run ends.  A
span's self time is its duration minus the durations of its children; each
per-layer time is a sum of self times over one pass, reported as the
median over passes.  Counts are read from the result document and from the
stages' outputs of the first pass, never from diagnostic state kept for
tests.  The replay must give the same result document as ``dm_decompose``;
a difference counts as a failed instance, so a stale replay is never
measured as if it were the program.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

from common import document_fields, run_passes, solve

# span name -> per-layer time metric; "solve" self time is the replay's own
# glue (assembling the result as dm_decompose does, and span bookkeeping)
LAYER_OF_SPAN = {
    "cli.parse_input": "cli.parse_s",
    "cli.document_to_matrix": "cli.parse_s",
    "partmat.build_stability_graph": "partmat.graph_s",
    "matching.max_independent_matching": "matching.match_s",
    "decompose.reachability_sets": "decompose.poset_s",
    "decompose.scc_poset": "decompose.poset_s",
    "decompose.build_bases": "decompose.bases_s",
    "linalg.product": "linalg.product_s",
    "decompose.maximal_chain": "decompose.chain_s",
    "decompose.verify": "decompose.verify_s",
    "cli.format_result": "cli.format_s",
    "decompose.ideals": "decompose.ideals_s",
    "solve": "trace.glue_s",
}

COUNT_UNITS = {
    "partmat.vertices": "count",
    "partmat.edges": "count",
    "matching.size": "count",
    "matching.augmentations": "count",
    "matching.aux_arcs": "count",
    "matching.exchange_arcs": "count",
    "decompose.h": "count",
    "decompose.c0": "count",
    "decompose.cinf": "count",
    "decompose.ideals": "count",
    "linalg.product_mults": "mults_computed",
    "cli.doc_bytes": "bytes",
}


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []

    def begin(self, name: str, parent: int | None, instance: str) -> int:
        self.spans.append([len(self.spans), parent, instance, name, time.perf_counter(), None])
        return len(self.spans) - 1

    def end(self, span: int):
        self.spans[span][5] = time.perf_counter()

    def call(self, name: str, parent: int | None, instance: str, fn, *args):
        span = self.begin(name, parent, instance)
        try:
            return fn(*args)
        finally:
            self.end(span)

    def self_times(self, first: int) -> dict[int, float]:
        """Self time of every span from index ``first`` on."""
        own = {s[0]: s[5] - s[4] for s in self.spans[first:]}
        for s in self.spans[first:]:
            if s[1] is not None:
                own[s[1]] -= s[5] - s[4]
        return own

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, instance, name, start, end in self.spans:
                fh.write(json.dumps(
                    [sid, parent, instance, name,
                     round(start - self.origin, 9), round(end - self.origin, 9)]
                ) + "\n")


def _product(e, a, f):
    return e.transpose() @ a @ f


def replay(rank1dm, tracer: Tracer, instance: str, text: str, ideals: bool):
    """The solve path, one span per public call, then (if ``ideals``) the
    ideal enumeration in a span of its own.  Returns, like ``solve``, the
    seconds, the result document and the verdict, then the instance's
    counts."""
    cli, partmat, matching, decompose = (
        rank1dm.cli, rank1dm.partmat, rank1dm.matching, rank1dm.decompose,
    )
    root = tracer.begin("solve", None, instance)

    def call(name, fn, *args):
        return tracer.call(name, root, instance, fn, *args)

    try:
        doc = call("cli.parse_input", cli.parse_input, text)
        a = call("cli.document_to_matrix", cli.document_to_matrix, doc)
        g = call("partmat.build_stability_graph", partmat.build_stability_graph, a)
        state = call("matching.max_independent_matching", matching.max_independent_matching, g)
        c0, cinf = call("decompose.reachability_sets", decompose.reachability_sets, state)
        poset = call("decompose.scc_poset", decompose.scc_poset, state, c0, cinf)
        assembly = call("decompose.build_bases", decompose.build_bases, poset, g, a)
        a_dm = call("linalg.product", _product, assembly.E, a.matrix, assembly.F)

        # assembled exactly as dm_decompose assembles it
        h = poset.h
        hs, ks = assembly.h_group_sizes, assembly.k_group_sizes
        diag_blocks = [(hs[h + 1], ks[h + 1])]
        diag_blocks.extend((hs[k], ks[k]) for k in range(h, 0, -1))
        diag_blocks.append((hs[0], ks[0]))
        n, m = a.matrix.rows, a.matrix.cols
        chain_dims = []
        ik = jk = 0
        for k in range(h + 1):
            ik += hs[k]
            jk += ks[k]
            chain_dims.append((ik, m - jk))

        chain = call("decompose.maximal_chain", decompose.maximal_chain, poset, g)
        result = decompose.DMResult(
            row_blocks=a.row_blocks,
            col_blocks=a.col_blocks,
            E=assembly.E,
            F=assembly.F,
            a_dm=a_dm,
            diag_blocks=diag_blocks,
            chain_dims=chain_dims,
            matching_size=state.size,
            v_star=n + m - state.size,
            graph=g,
            state=state,
            poset=poset,
            chain=chain,
            assembly=assembly,
        )
        report = call("decompose.verify", decompose.verify, a, result)
        out = call("cli.format_result", cli.format_result, doc, result, report)
    finally:
        tracer.end(root)

    n_ideals = len(tracer.call("decompose.ideals", None, instance, poset.ideals)) if ideals else 0

    arcs = [edge for targets in state.adjacency.values() for _, edge in targets]
    fields = document_fields(out)
    counts = {
        "partmat.vertices": g.n_pi + g.n_sigma,
        "partmat.edges": len(g.edges),
        "matching.size": int(fields["matching_size"][0]),
        "matching.augmentations": int(fields["augmentations"][0]),
        "matching.aux_arcs": len(arcs),
        "matching.exchange_arcs": arcs.count(None),
        "decompose.h": int(fields["h"][0]),
        "decompose.c0": len(fields["c0"]),
        "decompose.cinf": len(fields["c_inf"]),
        "decompose.ideals": n_ideals,
        "linalg.product_mults": n * n * m + n * m * m,
        "cli.doc_bytes": len(out.encode()),
    }
    return tracer.spans[root][5] - tracer.spans[root][4], out, report.passed, counts


def measure_layers(rank1dm, workload, docs, seconds, gate, spans_path=None):
    """Passes over the instances while ``seconds`` lasts; each instance runs
    once untraced and then once replayed, so that both wall times are taken
    over the same stretch of time and their difference is the tracing
    overhead rather than drift in the host's speed.  Ideals are enumerated
    on the tiny workload only: ``ChainPoset.ideals`` scans all 2^h subsets
    and refuses h > 20."""
    tracer = Tracer()
    outs = {}

    def one_pass(pass_no):
        first = len(tracer.spans)
        untraced = 0.0
        counts = defaultdict(int)
        for index, text in enumerate(docs):
            solved = gate.attempt((pass_no, index), solve, rank1dm, text)
            if solved is None:
                continue
            untraced += solved[0]
            outs.setdefault(index, solved[1])
            replayed = gate.attempt(
                (pass_no, index, "replay"),
                replay, rank1dm, tracer, f"{pass_no}/{index}", text, workload.tiny,
            )
            for key, value in (replayed[3] if replayed else {}).items():
                counts[key] += value
        times = defaultdict(float, {"trace.untraced_wall_s": untraced})
        own = tracer.self_times(first)
        for sid, _, _, name, start, end in tracer.spans[first:]:
            times[LAYER_OF_SPAN[name]] += own[sid]
            if name == "solve":
                times["trace.wall_s"] += end - start
        return times, dict(counts)

    passes = run_passes(seconds, one_pass)
    if workload.tiny:
        gate.check_oracle(rank1dm, docs, outs)
    if spans_path is not None:
        tracer.write(spans_path)

    time_keys = [*dict.fromkeys(LAYER_OF_SPAN.values()), "trace.wall_s", "trace.untraced_wall_s"]
    metrics = {
        key: (statistics.median(t[key] for t, _ in passes), "s") for key in time_keys
    }
    metrics.update(
        (key, (passes[0][1].get(key, 0), unit)) for key, unit in COUNT_UNITS.items()
    )
    overhead = metrics["trace.wall_s"][0] - metrics["trace.untraced_wall_s"][0]
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, {"passes": len(passes)}
