"""Command-line front end.

Input files are line-oriented key/value documents::

    field gf 2          # or: field rationals
    row_blocks 2 2 2
    col_blocks 2 2 2
    entries
    1 0 1 1 0 0
    0 0 1 1 1 1
    ...

Blank lines and ``#`` comments are ignored.  Each header key appears once
and ``entries`` stands alone on its line; a repeated key or a value after
``entries`` is a parse error.  Entries are element strings in the declared
field (decimal residues for gf; for rationals ``a``, ``a/b`` or a finite
decimal, with no exponent), each parsed once into a value of that field.
``parse_input`` returns the ``PartitionedMatrix`` the document describes.

Exit codes: 0 success.  A failure prints one ``error: ...`` line on stderr
and exits 1 (usage, parse or file error), 2 (rank condition violated; only
``decompose`` and ``graph`` apply it, as brute force is exact for any block
ranks) or 3 (oracle bounds exceeded).  A failed verification prints its
report on stderr and an oracle disagreement ``... DISAGREES`` on stdout;
both exit 4.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from .decompose import DMResult, dm_decompose, verify
from .field import GF, QQ, Field, _decimal
from .linalg import Matrix
from .oracle import brute_force_max_stable
from .partmat import PartitionedMatrix, RankConditionViolated, vertex_label

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RANK = 2
EXIT_ORACLE_BOUNDS = 3
EXIT_VERIFY = 4


class InputFormatError(ValueError):
    """A parse error at a line, or (line None) of the document as a whole."""

    def __init__(self, line: int | None, message: str):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def parse_input(text: str) -> PartitionedMatrix:
    field = None
    blocks: dict[str, tuple[int, ...]] = {}  # row_blocks and col_blocks
    rows: list[tuple[int, str]] = []  # entry lines are split one at a time
    seen: set[str] = set()
    entries_line = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if entries_line is not None:
            rows.append((lineno, line))
            continue
        tokens = line.split()
        key = tokens[0]
        if key in seen:
            raise InputFormatError(lineno, f"repeated key {key!r}")
        seen.add(key)
        if key == "field":
            if len(tokens) == 3 and tokens[1] == "gf":
                try:
                    p = int(_decimal(tokens[2]))
                except ValueError:
                    raise InputFormatError(lineno, f"bad modulus {tokens[2]!r}")
                try:
                    field = GF(p)
                except ValueError as exc:
                    raise InputFormatError(lineno, str(exc))
            elif len(tokens) == 2 and tokens[1] == "rationals":
                field = QQ
            else:
                raise InputFormatError(lineno, "field must be 'gf <p>' or 'rationals'")
        elif key in ("row_blocks", "col_blocks"):
            try:
                sizes = blocks[key] = tuple(int(_decimal(t)) for t in tokens[1:])
            except ValueError:
                raise InputFormatError(lineno, f"{key} wants integers")
            if not sizes or any(s <= 0 for s in sizes):
                raise InputFormatError(lineno, f"{key} wants positive integers")
        elif key == "entries":
            if len(tokens) > 1:
                raise InputFormatError(
                    lineno, "'entries' takes no values; rows start on the next line"
                )
            entries_line = lineno
        else:
            raise InputFormatError(lineno, f"unknown key {key!r}")

    if field is None:
        raise InputFormatError(None, "missing 'field' line")
    if len(blocks) < 2:
        raise InputFormatError(None, "missing 'row_blocks' or 'col_blocks' line")
    if entries_line is None:
        raise InputFormatError(None, "missing 'entries' section")

    row_blocks, col_blocks = blocks["row_blocks"], blocks["col_blocks"]
    n, m = sum(row_blocks), sum(col_blocks)
    if len(rows) != n:
        raise InputFormatError(entries_line, f"expected {n} entry rows, found {len(rows)}")
    indices, values = [], []
    for lineno, line in rows:
        if len(tokens := line.split()) != m:
            raise InputFormatError(lineno, f"expected {m} entries, found {len(tokens)}")
        try:
            idx, vals = field.parse_row(tokens)
        except ValueError:  # token by token: reads a/b and decimals, names a bad token
            row = []
            for j, tok in enumerate(tokens, start=1):
                try:
                    row.append(field.parse(tok))
                except ValueError as exc:
                    raise InputFormatError(lineno, f"column {j}: {exc}")
            idx, vals = [j for j, x in enumerate(row) if x], list(filter(None, row))
        indices.append(idx)
        values.append(vals)
    return PartitionedMatrix(Matrix(field, n, m, indices, values), row_blocks, col_blocks)


def _header_lines(field: Field, row_blocks, col_blocks) -> list[str]:
    """The ``field``, ``row_blocks`` and ``col_blocks`` lines shared by the
    input and result documents."""
    return [
        "field rationals" if field == QQ else f"field gf {field.p}",
        "row_blocks " + " ".join(str(b) for b in row_blocks),
        "col_blocks " + " ".join(str(b) for b in col_blocks),
    ]


def _matrix_lines(m: Matrix) -> list[str]:
    """Each row's entries joined by spaces, spliced from its stored entries
    and slices of one ``"0 " * m`` run, as the zero prints as ``0`` in
    every field."""
    fmt, width = m.field.format, m.cols
    zeros = "0 " * width
    lines = []
    for idx, vals in zip(m.indices, m.values):
        text, prev = "", 0
        for j, x in zip(idx, vals):
            text += zeros[: 2 * (j - prev)] + fmt(x) + " "
            prev = j + 1
        lines.append((text + zeros[: 2 * (width - prev)])[:-1])
    return lines


def serialize_input(a: PartitionedMatrix) -> str:
    lines = _header_lines(a.field, a.row_blocks, a.col_blocks)
    return "\n".join([*lines, "entries", *_matrix_lines(a.matrix), ""])


def document_to_matrix(a: PartitionedMatrix) -> PartitionedMatrix:
    """``a`` itself: ``parse_input`` returns the partitioned matrix already,
    and callers that still convert in a second step keep working."""
    return a


def format_result(doc: PartitionedMatrix, result: DMResult, report=None) -> str:
    g = result.graph
    state = result.state
    poset = result.poset
    assembly = result.assembly

    lines = _header_lines(doc.field, result.row_blocks, result.col_blocks)
    lines.append(f"matching_size {result.matching_size}")
    lines.append(f"v_star {result.v_star}")
    lines.append(f"augmentations {result.matching_size}")
    lines.append(
        "matching "
        + " ".join(
            f"{g.pi_label(e.pi)}:{g.sigma_label(e.sigma)}"
            for e in (g.edges[k] for k in sorted(state.matching))
        )
    )
    lines.append("sources " + " ".join(g.pi_label(i) for i in state.sources))
    lines.append("sinks " + " ".join(map(g.node_label, state.sinks)))
    lines.append("c0 " + " ".join(map(g.node_label, sorted(poset.c0))))
    lines.append("c_inf " + " ".join(map(g.node_label, sorted(poset.cinf))))
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
    for key, mark, entries in (("h_order", "", assembly.h_entries),
                               ("k_order", "'", assembly.k_entries)):
        labels = (vertex_label(g.field, e.block, e.normal, mark) for e in entries)
        lines.append(f"{key} " + " ".join(labels))
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
    return "\n".join([*lines, ""])  # no second copy of the document


def write_dot(result: DMResult) -> str:
    """The stability graph and the auxiliary digraph in DOT form."""
    g = result.graph
    state = result.state
    poset = result.poset
    npi = g.n_pi
    source_set = set(state.sources)
    sink_set = set(state.sinks)

    def node_id(v: int) -> str:
        return f"p{v}" if v < npi else f"s{v - npi}"

    nodes = []
    for v in range(npi + g.n_sigma):
        tags = []
        if v in source_set:
            tags.append("S")
        if v in sink_set:
            tags.append("T")
        if v in poset.c0:
            tags.append("C0")
        if v in poset.cinf:
            tags.append("Cinf")
        label = g.node_label(v)
        if tags:
            label += " [" + ",".join(tags) + "]"
        shape = "ellipse" if v < npi else "box"
        nodes.append(f'  {node_id(v)} [label="{label}", shape={shape}];')

    lines = ["graph stability {", *nodes]
    for k, e in enumerate(g.edges):
        style = " [style=bold, color=red]" if k in state.matching else ""
        lines.append(f"  p{e.pi} -- s{e.sigma}{style};")
    lines += ["}", "digraph auxiliary {", *nodes]
    for v in range(npi + g.n_sigma):
        for w, edge in state.arcs(v):
            if edge is None:
                tail = " [style=dashed]"
            else:
                tail = " [color=red]" if edge in state.matching else ""
            lines.append(f"  {node_id(v)} -> {node_id(w)}{tail};")
    lines.append("}")
    return "\n".join(lines) + "\n"


class _Failure(Exception):
    """``_Failure(code, message)``: ``main`` prints ``error: <message>`` and returns code."""


@contextmanager
def _failing(code: int, *errors: type[Exception], prefix: str = ""):
    """Turn any of ``errors`` raised in the block into a ``_Failure``."""
    try:
        yield
    except errors as exc:
        raise _Failure(code, f"{prefix}{exc}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Failure(EXIT_USAGE, message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rank1dm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="compute the block-triangular form")
    p_dec.add_argument("input", help="input document path")
    p_dec.add_argument("--out", help="write the result document here (default stdout)")
    p_dec.add_argument("--dot", help="write the graphs in DOT form here")
    p_dec.add_argument("--verify", action="store_true", help="run the verifier")
    p_dec.add_argument("--oracle", action="store_true", help="cross-check against brute force")

    p_or = sub.add_parser("oracle", help="exhaustive maximum stable subspace search")
    p_or.add_argument("input")

    p_gr = sub.add_parser("graph", help="emit the stability graph in DOT form")
    p_gr.add_argument("input")
    p_gr.add_argument("--dot", required=True)
    return parser


def _write(path: str, text: str) -> None:
    with _failing(EXIT_USAGE, OSError), open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv=None) -> int:
    try:
        return _run(_build_parser().parse_args(argv))
    except _Failure as exc:
        code, message = exc.args
        print(f"error: {message}", file=sys.stderr)
        return code


def _run(args) -> int:
    with _failing(EXIT_USAGE, OSError, InputFormatError, UnicodeDecodeError):
        with open(args.input, encoding="utf-8-sig") as fh:
            a = parse_input(fh.read())

    if args.command == "oracle":
        with _failing(EXIT_ORACLE_BOUNDS, ValueError):
            v_star, maximizers = brute_force_max_stable(a)
        print(f"v_star {v_star}")
        print(f"maximizers {len(maximizers)}")
        return EXIT_OK

    with _failing(EXIT_RANK, RankConditionViolated):
        result = dm_decompose(a)

    if args.command == "graph":
        _write(args.dot, write_dot(result))
        return EXIT_OK

    report = verify(a, result) if args.verify else None
    out_text = format_result(a, result, report)
    if args.out:
        _write(args.out, out_text)
    else:
        sys.stdout.write(out_text)

    if args.dot:
        _write(args.dot, write_dot(result))

    if args.oracle:
        with _failing(EXIT_ORACLE_BOUNDS, ValueError, prefix="oracle bounds: "):
            v_star, _ = brute_force_max_stable(a)
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
