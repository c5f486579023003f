"""Command-line front end.

Input files are line-oriented key/value documents::

    field gf 2          # or: field rationals
    row_blocks 2 2 2
    col_blocks 2 2 2
    entries
    1 0 1 1 0 0
    0 0 1 1 1 1
    ...

Blank lines and ``#`` comments are ignored.  Entries are element strings in
the declared field (decimal residues for gf, ``a`` or ``a/b`` for
rationals).

Exit codes: 0 success, 1 usage, parse or file error, 2 rank condition
violated, 3 oracle bounds exceeded, 4 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .decompose import DMResult, dm_decompose, verify
from .field import GF, QQ, Field
from .linalg import Matrix
from .oracle import brute_force_max_stable
from .partmat import PartitionedMatrix, RankConditionViolated

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RANK = 2
EXIT_ORACLE_BOUNDS = 3
EXIT_VERIFY = 4


class InputFormatError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass
class InputDocument:
    """Parsed but not yet field-interpreted matrix description."""

    field_kind: str  # "gf" or "rationals"
    modulus: int | None
    row_blocks: tuple[int, ...]
    col_blocks: tuple[int, ...]
    entries: tuple[tuple[str, ...], ...]

    def field(self) -> Field:
        return GF(self.modulus) if self.field_kind == "gf" else QQ


def parse_input(text: str) -> InputDocument:
    field_kind = None
    modulus = None
    row_blocks = None
    col_blocks = None
    entries: list[tuple[str, ...]] = []
    in_entries = False
    entries_line = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if in_entries:
            entries.append(tuple(tokens))
            continue
        key = tokens[0]
        if key == "field":
            if len(tokens) == 3 and tokens[1] == "gf":
                try:
                    p = int(tokens[2])
                except ValueError:
                    raise InputFormatError(lineno, f"bad modulus {tokens[2]!r}")
                try:
                    GF(p)
                except ValueError as exc:
                    raise InputFormatError(lineno, str(exc))
                field_kind, modulus = "gf", p
            elif len(tokens) == 2 and tokens[1] == "rationals":
                field_kind = "rationals"
            else:
                raise InputFormatError(
                    lineno, "field must be 'gf <p>' or 'rationals'"
                )
        elif key in ("row_blocks", "col_blocks"):
            try:
                sizes = tuple(int(t) for t in tokens[1:])
            except ValueError:
                raise InputFormatError(lineno, f"{key} wants integers")
            if not sizes or any(s <= 0 for s in sizes):
                raise InputFormatError(lineno, f"{key} wants positive integers")
            if key == "row_blocks":
                row_blocks = sizes
            else:
                col_blocks = sizes
        elif key == "entries":
            in_entries = True
            entries_line = lineno
        else:
            raise InputFormatError(lineno, f"unknown key {key!r}")

    if field_kind is None:
        raise InputFormatError(0, "missing 'field' line")
    if row_blocks is None or col_blocks is None:
        raise InputFormatError(0, "missing 'row_blocks' or 'col_blocks' line")
    if entries_line is None:
        raise InputFormatError(0, "missing 'entries' section")

    n = sum(row_blocks)
    m = sum(col_blocks)
    if len(entries) != n:
        raise InputFormatError(
            entries_line, f"expected {n} entry rows, found {len(entries)}"
        )
    for i, row in enumerate(entries):
        if len(row) != m:
            raise InputFormatError(
                entries_line + 1 + i, f"expected {m} entries, found {len(row)}"
            )

    doc = InputDocument(field_kind, modulus, row_blocks, col_blocks, tuple(entries))
    f = doc.field()
    for i, row in enumerate(entries):
        for j, tok in enumerate(row):
            try:
                f.parse(tok)
            except ValueError as exc:
                raise InputFormatError(entries_line + 1 + i, f"column {j + 1}: {exc}")
    return doc


def serialize_input(doc: InputDocument) -> str:
    lines = []
    if doc.field_kind == "gf":
        lines.append(f"field gf {doc.modulus}")
    else:
        lines.append("field rationals")
    lines.append("row_blocks " + " ".join(str(b) for b in doc.row_blocks))
    lines.append("col_blocks " + " ".join(str(b) for b in doc.col_blocks))
    lines.append("entries")
    for row in doc.entries:
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def document_to_matrix(doc: InputDocument) -> PartitionedMatrix:
    mat = Matrix.from_rows(doc.field(), doc.entries)
    return PartitionedMatrix(mat, doc.row_blocks, doc.col_blocks)


def _matrix_lines(m: Matrix) -> list[str]:
    return [
        " ".join(m.field.format(m.raw(i, j)) for j in range(m.cols))
        for i in range(m.rows)
    ]


def format_result(doc: InputDocument, result: DMResult, report=None) -> str:
    g = result.graph
    state = result.state
    poset = result.poset
    assembly = result.assembly
    npi = g.n_pi

    lines = []
    if doc.field_kind == "gf":
        lines.append(f"field gf {doc.modulus}")
    else:
        lines.append("field rationals")
    lines.append("row_blocks " + " ".join(str(b) for b in result.row_blocks))
    lines.append("col_blocks " + " ".join(str(b) for b in result.col_blocks))
    lines.append(f"matching_size {result.matching_size}")
    lines.append(f"v_star {result.v_star}")
    lines.append(f"augmentations {state.augmentations}")
    lines.append(
        "matching "
        + " ".join(
            f"{g.pi_label(e.pi)}:{g.sigma_label(e.sigma)}"
            for e in (g.edges[k] for k in sorted(state.matching))
        )
    )
    lines.append("sources " + " ".join(g.pi_label(i) for i in state.sources))
    lines.append("sinks " + " ".join(g.sigma_label(v - npi) for v in state.sinks))
    lines.append("c0 " + " ".join(_node_label(g, v) for v in sorted(poset.c0)))
    lines.append("c_inf " + " ".join(_node_label(g, v) for v in sorted(poset.cinf)))
    lines.append(f"h {poset.h}")
    for comp in poset.components:
        lines.append(
            f"component {comp.label}"
            + " H " + " ".join(g.pi_label(i) for i in comp.h_pi)
            + " K " + " ".join(g.sigma_label(j) for j in comp.k_sigma)
        )
    for k, l in sorted(poset.relations):
        lines.append(f"relation {k} < {l}")
    lines.append("h0 " + " ".join(g.pi_label(i) for i in poset.h0))
    lines.append("k0 " + " ".join(g.sigma_label(j) for j in poset.k0))
    lines.append("h_inf " + " ".join(g.pi_label(i) for i in poset.hinf))
    lines.append("k_inf " + " ".join(g.sigma_label(j) for j in poset.kinf))
    lines.append("h_order " + " ".join(assembly.h_labels(g)))
    lines.append("k_order " + " ".join(assembly.k_labels(g)))
    lines.append(
        "chain_dims " + " ".join(f"{ik}:{jk}" for ik, jk in result.chain_dims)
    )
    lines.append(
        "diag_blocks " + " ".join(f"{r}x{c}" for r, c in result.diag_blocks)
    )
    lines.append("E")
    lines.extend(_matrix_lines(result.E))
    lines.append("F")
    lines.extend(_matrix_lines(result.F))
    lines.append("A_DM")
    lines.extend(_matrix_lines(result.a_dm))
    if report is not None:
        lines.append(
            "verification "
            + " ".join(
                f"{c.name}={'pass' if c.passed else 'fail'}" for c in report.checks
            )
        )
    return "\n".join(lines) + "\n"


def _node_label(g, v: int) -> str:
    return g.pi_label(v) if v < g.n_pi else g.sigma_label(v - g.n_pi)


def write_dot(a: PartitionedMatrix, result: DMResult) -> str:
    """The stability graph and the auxiliary digraph in DOT form."""
    g = result.graph
    state = result.state
    poset = result.poset
    npi = g.n_pi
    matched_pairs = {(g.edges[k].pi, g.edges[k].sigma) for k in state.matching}
    source_set = set(state.sources)
    sink_set = set(state.sinks)

    def node_attrs(v: int) -> str:
        tags = []
        if v in source_set:
            tags.append("S")
        if v in sink_set:
            tags.append("T")
        if v in poset.c0:
            tags.append("C0")
        if v in poset.cinf:
            tags.append("Cinf")
        label = _node_label(g, v)
        if tags:
            label += " [" + ",".join(tags) + "]"
        shape = "ellipse" if v < npi else "box"
        return f'label="{label}", shape={shape}'

    lines = ["graph stability {"]
    for i in range(npi):
        lines.append(f'  p{i} [{node_attrs(i)}];')
    for j in range(g.n_sigma):
        lines.append(f'  s{j} [{node_attrs(npi + j)}];')
    for e in g.edges:
        style = ' [style=bold, color=red]' if (e.pi, e.sigma) in matched_pairs else ""
        lines.append(f"  p{e.pi} -- s{e.sigma}{style};")
    lines.append("}")
    lines.append("digraph auxiliary {")
    for i in range(npi):
        lines.append(f'  p{i} [{node_attrs(i)}];')
    for j in range(g.n_sigma):
        lines.append(f'  s{j} [{node_attrs(npi + j)}];')
    for v, arcs in sorted(state.adjacency.items()):
        for w, edge in arcs:
            src = f"p{v}" if v < npi else f"s{v - npi}"
            dst = f"p{w}" if w < npi else f"s{w - npi}"
            attrs = []
            if edge is not None and (g.edges[edge].pi, g.edges[edge].sigma) in matched_pairs:
                attrs.append("color=red")
            if edge is None:
                attrs.append("style=dashed")
            tail = f' [{", ".join(attrs)}]' if attrs else ""
            lines.append(f"  {src} -> {dst}{tail};")
    lines.append("}")
    return "\n".join(lines) + "\n"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rank1dm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="compute the block-triangular form")
    p_dec.add_argument("input", help="input document path")
    p_dec.add_argument("--out", help="write the result document here (default stdout)")
    p_dec.add_argument("--dot", help="write the graphs in DOT form here")
    p_dec.add_argument("--verify", action="store_true", help="run the verifier")
    p_dec.add_argument(
        "--oracle", action="store_true", help="cross-check against brute force"
    )

    p_or = sub.add_parser("oracle", help="exhaustive maximum stable subspace search")
    p_or.add_argument("input")

    p_gr = sub.add_parser("graph", help="emit the stability graph in DOT form")
    p_gr.add_argument("input")
    p_gr.add_argument("--dot", required=True)
    return parser


def _load(path: str) -> tuple[InputDocument, PartitionedMatrix]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = parse_input(fh.read())
    return doc, document_to_matrix(doc)


def _write(path: str, text: str) -> bool:
    """Write ``text`` to ``path``; on failure print why and return False."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        doc, a = _load(args.input)
    except (OSError, InputFormatError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.command == "oracle":
        try:
            v_star, maximizers = brute_force_max_stable(a)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ORACLE_BOUNDS
        print(f"v_star {v_star}")
        print(f"maximizers {len(maximizers)}")
        return EXIT_OK

    try:
        result = dm_decompose(a)
    except RankConditionViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANK

    if args.command == "graph":
        return EXIT_OK if _write(args.dot, write_dot(a, result)) else EXIT_USAGE

    report = None
    if args.verify:
        report = verify(a, result)

    out_text = format_result(doc, result, report)
    if args.out:
        if not _write(args.out, out_text):
            return EXIT_USAGE
    else:
        sys.stdout.write(out_text)

    if args.dot and not _write(args.dot, write_dot(a, result)):
        return EXIT_USAGE

    if args.oracle:
        try:
            v_star, _ = brute_force_max_stable(a)
        except ValueError as exc:
            print(f"error: oracle bounds: {exc}", file=sys.stderr)
            return EXIT_ORACLE_BOUNDS
        agree = v_star == result.v_star
        print(f"oracle v_star {v_star} {'agrees' if agree else 'DISAGREES'}")
        if not agree:
            return EXIT_VERIFY

    if report is not None and not report.passed:
        print(str(report), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
