import logging
import random
import re
from fractions import Fraction

import pytest
from gen import dense, random_rank1_instance, worked_example

import rank1dm.cli
from rank1dm import GF, QQ, Matrix, dm_decompose, verify
from rank1dm.cli import (
    EXIT_OK,
    EXIT_ORACLE_BOUNDS,
    EXIT_RANK,
    EXIT_USAGE,
    EXIT_VERIFY,
    InputFormatError,
    _matrix_lines,
    document_to_matrix,
    format_result,
    main,
    parse_input,
    serialize_input,
    write_dot,
)
from rank1dm.decompose import CheckResult, VerificationReport

EXAMPLE_TEXT = """\
# worked example over GF(2)
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

RATIONAL_TEXT = """\
field rationals
row_blocks 1 1
col_blocks 2
entries
1/2 -3
0 5/7
"""


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.txt"
    path.write_text(EXAMPLE_TEXT)
    return str(path)


def test_parse_example():
    a = parse_input(EXAMPLE_TEXT)
    assert a.field == GF(2)
    assert a.row_blocks == (2, 2, 2) and a.col_blocks == (2, 2, 2)
    assert a.matrix.row_raw(0) == [1, 0, 1, 1, 0, 0]
    assert a.matrix.rows == 6 and a.matrix.cols == 6
    # the two-step conversion is the identity: parsing gives the matrix
    assert document_to_matrix(a) is a


def test_parse_rationals():
    a = parse_input(RATIONAL_TEXT)
    assert a.matrix.row_raw(0)[0] == Fraction(1, 2)
    assert a.matrix.row_raw(1)[1] == Fraction(5, 7)


def test_round_trip():
    doc = parse_input(EXAMPLE_TEXT)
    assert parse_input(serialize_input(doc)) == doc
    doc2 = parse_input(RATIONAL_TEXT)
    assert parse_input(serialize_input(doc2)) == doc2
    # non-canonical tokens come back canonical
    doc3 = parse_input("field gf 2\nrow_blocks 1\ncol_blocks 2\nentries\n3 0\n")
    assert serialize_input(doc3).endswith("entries\n1 0\n")
    assert parse_input(serialize_input(doc3)) == doc3
    doc4 = parse_input("field rationals\nrow_blocks 1\ncol_blocks 2\nentries\n2/4 -0\n")
    assert doc4.field == QQ and dense(doc4.matrix) == [Fraction(1, 2), Fraction(0)]
    assert doc4.matrix.indices == [[0]] and doc4.matrix.values == [[Fraction(1, 2)]]
    assert serialize_input(doc4).endswith("entries\n1/2 0\n")
    assert parse_input(serialize_input(doc4)) == doc4


def test_parse_errors_are_specific():
    with pytest.raises(InputFormatError, match="field"):
        parse_input("row_blocks 1\ncol_blocks 1\nentries\n1\n")
    with pytest.raises(InputFormatError, match="not prime"):
        parse_input("field gf 4\nrow_blocks 1\ncol_blocks 1\nentries\n1\n")
    with pytest.raises(InputFormatError, match="entry rows"):
        parse_input("field gf 2\nrow_blocks 2\ncol_blocks 1\nentries\n1\n")
    with pytest.raises(InputFormatError, match="expected 2 entries"):
        parse_input("field gf 2\nrow_blocks 1\ncol_blocks 1 1\nentries\n1\n")
    with pytest.raises(InputFormatError, match="unknown key"):
        parse_input("field gf 2\nshape 1\n")
    with pytest.raises(InputFormatError, match="^line 1: field must be 'gf <p>' or 'rationals'$"):
        parse_input("field real\nrow_blocks 1\ncol_blocks 1\nentries\n1\n")
    with pytest.raises(InputFormatError, match="^line 2: row_blocks wants positive integers$"):
        parse_input("field gf 2\nrow_blocks 2 0\ncol_blocks 2\nentries\n1 0\n0 1\n")
    with pytest.raises(InputFormatError, match="not a rational"):
        parse_input("field rationals\nrow_blocks 1\ncol_blocks 1\nentries\nx\n")
    with pytest.raises(InputFormatError, match="column 2"):
        parse_input("field gf 2\nrow_blocks 1\ncol_blocks 1 1\nentries\n1 y\n")
    # int() and Fraction() accept digit separators and non-ASCII digits
    for field, tok in (("gf 7", "1_0"), ("gf 7", "\u0663"), ("rationals", "1_0")):
        with pytest.raises(InputFormatError, match=f"^line 5: column 2: '{tok}' is not a"):
            parse_input(f"field {field}\nrow_blocks 1\ncol_blocks 1 1\nentries\n1 {tok}\n")
    # ... and so do the header integers
    for header, line in (
        ("field gf 1_1\nrow_blocks 1\ncol_blocks 1", 1),
        ("field gf 2\nrow_blocks 1_0\ncol_blocks 1", 2),
        ("field gf 2\nrow_blocks 1\ncol_blocks \u0661", 3),
    ):
        with pytest.raises(InputFormatError, match=f"^line {line}: "):
            parse_input(header + "\nentries\n1\n")
    with pytest.raises(InputFormatError, match="^line 2: repeated key 'field'$"):
        parse_input("field gf 2\nfield gf 3\nrow_blocks 1\ncol_blocks 1\nentries\n1\n")
    with pytest.raises(InputFormatError, match="^line 3: repeated key 'row_blocks'$"):
        parse_input("field gf 2\nrow_blocks 1\nrow_blocks 2\ncol_blocks 1\nentries\n1\n")
    with pytest.raises(InputFormatError, match="^line 4: 'entries' takes no values"):
        parse_input("field gf 2\nrow_blocks 1\ncol_blocks 2\nentries 1 1\n0 1\n")
    # a missing section belongs to no line
    for text, what in (
        ("", "'field' line"),
        ("row_blocks 1\ncol_blocks 1\nentries\n1\n", "'field' line"),
        ("field gf 2\nentries\n1\n", "'row_blocks' or 'col_blocks' line"),
        ("field gf 2\nrow_blocks 1\ncol_blocks 1\n", "'entries' section"),
    ):
        with pytest.raises(InputFormatError, match=f"^missing {what}$"):
            parse_input(text)


def test_parse_row_errors_name_the_token():
    # a whole entry line is parsed at once; a bad token is still named by
    # its line and column, wherever it sits in the row
    long_row = " ".join(["3"] * 39 + ["x"])
    for text, where in (
        (f"field gf 7\nrow_blocks 1\ncol_blocks {' 1' * 40}\nentries\n{long_row}\n",
         "line 5: column 40: 'x' is not a GF(7) element"),
        ("field gf 7\nrow_blocks 2\ncol_blocks 3 2\nentries\n1 2 3 4 5\n1 2 1_0 4 5\n",
         "line 6: column 3: '1_0' is not a GF(7) element"),
        ("field rationals\nrow_blocks 1\ncol_blocks 5\nentries\n1 2 \u0663 4 5\n",
         "line 5: column 3: '\u0663' is not a rational number"),
        ("field rationals\nrow_blocks 1\ncol_blocks 4\nentries\n3/4 -2 1/0 1.5\n",
         "line 5: column 3: '1/0' is not a rational number"),
        ("field rationals\nrow_blocks 1\ncol_blocks 3\nentries\n1 2 3/\n",
         "line 5: column 3: '3/' is not a rational number"),
    ):
        with pytest.raises(InputFormatError, match=f"^{re.escape(where)}$"):
            parse_input(text)
    # a non-ASCII space separates tokens as before; it is not a bad token
    doc = parse_input("field gf 7\nrow_blocks 1\ncol_blocks 1 1\nentries\n8\u20032\n")
    assert dense(doc.matrix) == [1, 2]
    doc = parse_input("field rationals\nrow_blocks 1\ncol_blocks 6\nentries\n3/4 -2 1.5 +7 0 -0/5\n")
    assert dense(doc.matrix) == [
        Fraction(3, 4), Fraction(-2), Fraction(3, 2), Fraction(7), Fraction(0), Fraction(0),
    ]
    # the token-by-token parse stores no zero either, "-0/5" included
    assert doc.matrix.indices == [[0, 1, 2, 3]]
    assert [type(x) for x in doc.matrix.values[0]] == [Fraction, int, Fraction, int]


def test_spliced_rows_print_as_joined():
    # every row is spliced from its stored entries and one run of "0 ", which
    # relies on the zero printing as "0" in every field; a row with more
    # nonzeros than zeros prints as joined too
    rng = random.Random(30)
    for f in (GF(2), GF(101), QQ):
        assert f.format(f.zero_raw) == "0"
        if f == QQ:
            values = [Fraction(-3), Fraction(5, 7), Fraction(-11, 4), Fraction(123456789, 2)]
        else:
            values = list(range(1, f.p))
        for m in (1, 2, 7, 8, 9, 16, 24, 40):
            supports = [
                [], [0], [m - 1], range(m),
                rng.sample(range(m), m // 8), rng.sample(range(m), m // 8 + 1),
            ]
            rows = []
            for support in supports:
                row = [f.zero_raw] * m
                for j in support:
                    row[j] = rng.choice(values)
                rows.append(row)
            mat = Matrix.from_rows(f, rows)
            assert _matrix_lines(mat) == [" ".join(map(f.format, row)) for row in rows]


def test_decompose_exit_ok(example_file, capsys):
    assert main(["decompose", example_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "matching_size 5" in out
    assert "v_star 7" in out
    assert "diag_blocks 0x1 1x1 1x1 2x2 2x1" in out
    assert "sources 3a" in out
    assert "c0 2c 3a 3'a" in out
    assert "h_order 2c 3a 1a 3c 2a 1b" in out
    assert "relation 1 < 2" in out and "relation 1 < 3" in out


def test_decompose_deterministic_output(example_file, tmp_path):
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    assert main(["decompose", example_file, "--out", str(out1)]) == EXIT_OK
    assert main(["decompose", example_file, "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_decompose_verify_and_oracle(example_file, capsys):
    code = main(["decompose", example_file, "--verify", "--oracle"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "verification" in out and "fail" not in out
    assert "oracle v_star 7 agrees" in out


def test_failed_verification_exits_4_with_the_report_on_stderr(example_file, monkeypatch, capsys):
    report = VerificationReport([CheckResult("product", False, "forged")])
    monkeypatch.setattr(rank1dm.cli, "verify", lambda a, result: report)
    assert main(["decompose", example_file, "--verify"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.err == "FAIL product: forged\n"
    assert "verification product=fail" in captured.out


def test_oracle_disagreement_exits_4(example_file, monkeypatch, capsys):
    monkeypatch.setattr(rank1dm.cli, "brute_force_max_stable", lambda a: (6, []))
    assert main(["decompose", example_file, "--oracle"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out.endswith("\noracle v_star 6 DISAGREES\n") and captured.err == ""


def test_rank_violation_exit(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("field gf 2\nrow_blocks 2\ncol_blocks 2\nentries\n1 0\n0 1\n")
    assert main(["decompose", str(path)]) == EXIT_RANK


def test_parse_error_exit(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("field gf 4\nrow_blocks 1\ncol_blocks 1\nentries\n1\n")
    assert main(["decompose", str(path)]) == EXIT_USAGE
    assert main(["decompose", str(tmp_path / "missing.txt")]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE


def test_repeated_key_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("field gf 2\nfield gf 3\nrow_blocks 1\ncol_blocks 1\nentries\n1\n")
    assert main(["decompose", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: line 2: repeated key 'field'\n", captured.err)


def test_non_utf8_input_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(EXAMPLE_TEXT.encode() + b"\xff\n")
    assert main(["decompose", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_oracle_command(example_file, capsys):
    assert main(["oracle", example_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "v_star 7" in out
    assert "maximizers 5" in out


def test_oracle_bounds_exit(tmp_path):
    path = tmp_path / "big.txt"
    rows = ["1 0 0 0 0 0 0", "0 1 0 0 0 0 0", "0 0 1 0 0 0 0", "0 0 0 1 0 0 0",
            "0 0 0 0 1 0 0", "0 0 0 0 0 1 0", "0 0 0 0 0 0 1"]
    path.write_text(
        "field gf 2\nrow_blocks 1 1 1 1 1 1 1\ncol_blocks 1 1 1 1 1 1 1\nentries\n"
        + "\n".join(rows)
        + "\n"
    )
    assert main(["oracle", str(path)]) == EXIT_ORACLE_BOUNDS
    assert main(["decompose", str(path), "--oracle"]) == EXIT_ORACLE_BOUNDS


def test_dot_output(example_file, tmp_path):
    dot = tmp_path / "graph.dot"
    assert main(["decompose", example_file, "--dot", str(dot)]) == EXIT_OK
    text = dot.read_text()
    assert "graph stability {" in text
    assert "digraph auxiliary {" in text
    assert '"3a [S,C0]"' in text
    assert "style=bold" in text  # matching edges marked


def test_dot_marks_matching_and_declares_nodes_once():
    result = dm_decompose(parse_input(EXAMPLE_TEXT))
    state = result.state
    stability, auxiliary = write_dot(result).split("}\n")[:2]
    assert stability.count("style=bold") == state.size
    exchange_arcs = sum(edge is None for arcs in state.adjacency.values() for _, edge in arcs)
    assert exchange_arcs > 0
    assert auxiliary.count("style=dashed") == exchange_arcs
    n_nodes = result.graph.n_pi + result.graph.n_sigma
    for body in (stability, auxiliary):
        declared = re.findall(r"^  ([ps]\d+) \[label=", body, re.MULTILINE)
        assert len(declared) == len(set(declared)) == n_nodes


# the worked example's drawing, line for line: a node's tags, the matched
# edges and the order and style of every auxiliary arc
EXAMPLE_DOT = """\
graph stability {
  p0 [label="1a", shape=ellipse];
  p1 [label="1b", shape=ellipse];
  p2 [label="1c", shape=ellipse];
  p3 [label="2a", shape=ellipse];
  p4 [label="2c [C0]", shape=ellipse];
  p5 [label="3a [S,C0]", shape=ellipse];
  p6 [label="3c", shape=ellipse];
  s0 [label="1'a", shape=box];
  s1 [label="1'c", shape=box];
  s2 [label="2'c", shape=box];
  s3 [label="3'a [C0]", shape=box];
  s4 [label="3'c", shape=box];
  p0 -- s0 [style=bold, color=red];
  p2 -- s2;
  p1 -- s4 [style=bold, color=red];
  p3 -- s1 [style=bold, color=red];
  p3 -- s2;
  p4 -- s3 [style=bold, color=red];
  p6 -- s0;
  p6 -- s2 [style=bold, color=red];
  p5 -- s3;
}
digraph auxiliary {
  p0 [label="1a", shape=ellipse];
  p1 [label="1b", shape=ellipse];
  p2 [label="1c", shape=ellipse];
  p3 [label="2a", shape=ellipse];
  p4 [label="2c [C0]", shape=ellipse];
  p5 [label="3a [S,C0]", shape=ellipse];
  p6 [label="3c", shape=ellipse];
  s0 [label="1'a", shape=box];
  s1 [label="1'c", shape=box];
  s2 [label="2'c", shape=box];
  s3 [label="3'a [C0]", shape=box];
  s4 [label="3'c", shape=box];
  p0 -> p2 [style=dashed];
  p0 -> s0 [color=red];
  p1 -> p2 [style=dashed];
  p1 -> s4 [color=red];
  p2 -> s2;
  p3 -> s1 [color=red];
  p3 -> s2;
  p4 -> s3 [color=red];
  p5 -> s3;
  p6 -> s0;
  p6 -> s2 [color=red];
  s0 -> p0 [color=red];
  s1 -> p3 [color=red];
  s2 -> p6 [color=red];
  s3 -> p4 [color=red];
  s4 -> p1 [color=red];
}
"""


def test_dot_text_of_the_worked_example():
    assert write_dot(dm_decompose(parse_input(EXAMPLE_TEXT))) == EXAMPLE_DOT


def test_dot_tags_a_sink_in_cinf():
    # one row block of dimension 1 holds one matched edge of two: the other
    # column-side vertex is an unmatched sink, and all three lie in Cinf
    result = dm_decompose(parse_input("field gf 2\nrow_blocks 1\ncol_blocks 1 1\nentries\n1 1\n"))
    stability = write_dot(result).split("}\n")[0]
    assert re.findall(r'label="([^"]*)"', stability) == ["1a [Cinf]", "1'a [Cinf]", "2'a [T,Cinf]"]


def test_graph_command(example_file, tmp_path):
    dot = tmp_path / "g.dot"
    assert main(["graph", example_file, "--dot", str(dot)]) == EXIT_OK
    assert "stability" in dot.read_text()
    # both DOT paths draw the same state
    dec_dot = tmp_path / "d.dot"
    assert main(["decompose", example_file, "--dot", str(dec_dot)]) == EXIT_OK
    assert dec_dot.read_bytes() == dot.read_bytes()


def test_result_to_file(example_file, tmp_path, capsys):
    out = tmp_path / "result.txt"
    assert main(["decompose", example_file, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert "A_DM" in out.read_text()


@pytest.mark.parametrize(
    "args",
    [
        ["graph", "{input}", "--dot", "{missing}/g.dot"],
        ["decompose", "{input}", "--out", "{missing}/result.txt"],
        ["decompose", "{input}", "--dot", "{missing}/g.dot"],
    ],
    ids=["graph-dot", "decompose-out", "decompose-dot"],
)
def test_unwritable_output_is_a_usage_error(example_file, tmp_path, capsys, args):
    missing = tmp_path / "no" / "such" / "dir"
    argv = [x.format(input=example_file, missing=missing) for x in args]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


# seven 1x1 blocks: too many for the brute-force oracle
UNIT7_TEXT = (
    "field gf 2\nrow_blocks" + " 1" * 7 + "\ncol_blocks" + " 1" * 7 + "\nentries\n"
    + "".join(" ".join("01"[i == j] for j in range(7)) + "\n" for i in range(7))
)
CLI_INPUTS = {
    "example.txt": EXAMPLE_TEXT.encode(),
    "rank2.txt": b"field gf 2\nrow_blocks 2\ncol_blocks 2\nentries\n1 0\n0 1\n",
    "gf4.txt": b"field gf 4\nrow_blocks 1\ncol_blocks 1\nentries\n1\n",
    "not-utf8.txt": EXAMPLE_TEXT.encode() + b"\xff\n",
    # a UTF-8 byte-order mark, as some editors write, is read past
    "bom.txt": b"\xef\xbb\xbf" + EXAMPLE_TEXT.encode(),
    "unit7.txt": UNIT7_TEXT.encode(),
    "qq.txt": RATIONAL_TEXT.encode(),
    # Fraction() would read the exponent and build 10^(10^7)
    "exp.txt": b"field rationals\nrow_blocks 1\ncol_blocks 1\nentries\n1e10000000\n",
}


def test_oracle_does_not_apply_the_rank_condition(tmp_path, capsys):
    # brute force is exact for blocks of any rank: the one identity block
    # that decompose rejects with exit 2 is solved, and the run exits 0
    path = tmp_path / "rank2.txt"
    path.write_bytes(CLI_INPUTS["rank2.txt"])
    assert main(["oracle", str(path)]) == EXIT_OK
    assert capsys.readouterr() == ("v_star 2\nmaximizers 5\n", "")
    assert main(["decompose", str(path)]) == EXIT_RANK


def _document(name, verified=False):
    a = parse_input(CLI_INPUTS[name].decode())
    result = dm_decompose(a)
    return format_result(a, result, verify(a, result) if verified else None)


@pytest.mark.parametrize(
    "a",
    [
        worked_example(),
        random_rank1_instance(random.Random(48), QQ, 10, 10, max_dim=3, zero_prob=0.5),
        random_rank1_instance(random.Random(49), GF(2), 60, 20, max_dim=2, zero_prob=0.9),
    ],
    ids=["example", "qq", "gf2-tall"],
)
def test_tracing_changes_no_output(a, caplog):
    # one DEBUG record per augmentation, round n's matching of size n, the
    # last holding the final matching, and the verified document byte for
    # byte as untraced
    result = dm_decompose(a)
    untraced = format_result(a, result, verify(a, result))
    caplog.set_level(logging.DEBUG, logger="rank1dm")
    traced = dm_decompose(a)
    assert format_result(a, traced, verify(a, traced)) == untraced
    assert "verification product=pass" in untraced
    records = [r for r in caplog.records if r.name == "rank1dm"]
    rounds = range(1, traced.state.size + 1)
    assert rounds and [(*r.args, len(r.matching)) for r in records] == [(n, n, n) for n in rounds]
    assert records[-1].matching == traced.state.matching


# every failure prints one "error: " line on stderr and exits 1, 2 or 3; stdout
# holds what was written before the failure (a document name, or "")
@pytest.mark.parametrize(
    "args, code, err, out",
    [
        ("decompose example.txt", EXIT_OK, "", "example.txt"),
        ("decompose example.txt --verify --oracle", EXIT_OK, "", "verified"),
        ("decompose bom.txt --verify --oracle", EXIT_OK, "", "verified"),
        ("decompose rank2.txt", EXIT_RANK, "blocks of rank >= 2 at (1,1)", ""),
        ("decompose gf4.txt", EXIT_USAGE, "line 1: modulus 4 is not prime", ""),
        ("decompose exp.txt", EXIT_USAGE, "line 5: column 1: '1e10000000' is not a rational number",
         ""),
        ("decompose missing.txt", EXIT_USAGE,
         "[Errno 2] No such file or directory: 'missing.txt'", ""),
        ("decompose adir", EXIT_USAGE, "[Errno 21] Is a directory: 'adir'", ""),
        ("decompose not-utf8.txt", EXIT_USAGE, "'utf-8' codec can't decode byte 0xff in"
         f" position {len(EXAMPLE_TEXT.encode())}: invalid start byte", ""),
        # argparse quotes the choices on some Python versions only
        ("nonsense", EXIT_USAGE,
         re.compile(r"error: argument command: invalid choice: 'nonsense' \(choose from .*\)\n"),
         ""),
        ("decompose", EXIT_USAGE, "the following arguments are required: input", ""),
        ("graph example.txt", EXIT_USAGE, "the following arguments are required: --dot", ""),
        ("oracle unit7.txt", EXIT_ORACLE_BOUNDS, "too many blocks for enumeration", ""),
        ("decompose unit7.txt --oracle", EXIT_ORACLE_BOUNDS,
         "oracle bounds: too many blocks for enumeration", "unit7.txt"),
        ("oracle qq.txt", EXIT_ORACLE_BOUNDS, "brute force supports GF(2) and GF(3) only", ""),
        ("decompose example.txt --out no/r.txt", EXIT_USAGE,
         "[Errno 2] No such file or directory: 'no/r.txt'", ""),
        ("decompose example.txt --dot no/g.dot", EXIT_USAGE,
         "[Errno 2] No such file or directory: 'no/g.dot'", "example.txt"),
        ("graph example.txt --dot no/g.dot", EXIT_USAGE,
         "[Errno 2] No such file or directory: 'no/g.dot'", ""),
        ("decompose example.txt --out r.txt --dot no/g.dot", EXIT_USAGE,
         "[Errno 2] No such file or directory: 'no/g.dot'", ""),
    ],
)
def test_cli_exit_code_stderr_and_stdout(tmp_path, monkeypatch, capsys, args, code, err, out):
    for name, data in CLI_INPUTS.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "adir").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(args.split()) == code
    captured = capsys.readouterr()
    if isinstance(err, str):
        assert captured.err == (f"error: {err}\n" if err else "")
    else:
        assert err.fullmatch(captured.err)
    if out == "verified":
        assert captured.out == _document("example.txt", True) + "oracle v_star 7 agrees\n"
    else:
        assert captured.out == (_document(out) if out else "")
    # a good --out is written before the --dot failure
    if "r.txt" in args.split():
        assert (tmp_path / "r.txt").read_text() == _document("example.txt")
