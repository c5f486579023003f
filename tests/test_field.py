import random
import re
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, strategies as st

from gen import Arith, canonical

from rank1dm import GF, QQ, Matrix
from rank1dm.cli import InputFormatError, parse_input
from rank1dm.field import is_prime

PRIMES = [2, 3, 5, 7, 11, 101, 65537, 2**31 - 1]


# a field has no inverse operation: GF(p) inverts a Fraction's denominator
# when it reads the Fraction as a residue


def test_inverse_examples():
    assert GF(5).canon(Fraction(1, 3)) == 2
    assert GF(7).canon(Fraction(-3, 2)) == 2


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF(5).canon(Fraction(1, 5))
    with pytest.raises(ZeroDivisionError):
        GF(3).canon(Fraction(2, 6 * 7))


def _egcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def test_gf_inverse_against_extended_euclid():
    rng = random.Random(20240311)
    for _ in range(1000):
        p = rng.choice(PRIMES)
        a = rng.randrange(1, p)
        inv = GF(p).canon(Fraction(1, a))
        g, x, _ = _egcd(a, p)
        assert g == 1
        assert inv == x % p
        assert a * inv % p == 1


def test_mixed_field_operands_rejected():
    # raw values do not know their field; the containers that hold them do
    for f, g in ((GF(5), GF(7)), (GF(2), QQ), (QQ, GF(3))):
        with pytest.raises(ValueError, match="field mismatch"):
            Matrix.from_rows(f, [[1]]) @ Matrix.from_rows(g, [[1]])


# the carrier arithmetic that the test references compute with lives in
# gen.Arith, apart from the library; it must obey the field axioms


def test_field_axioms_randomized():
    rng = random.Random(7)
    for p in (2, 3, 5, 101):
        f = Arith(GF(p))
        for _ in range(200):
            a, b, c = (rng.randrange(p) for _ in range(3))
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1


@given(
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
)
def test_rational_axioms(a, b, c):
    f = Arith(QQ)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == QQ.zero_raw
    if a:
        assert f.mul(a, f.inv(a)) == QQ.one_raw
    with pytest.raises(ZeroDivisionError):
        f.inv(QQ.zero_raw)


def test_canonical_form_idempotent():
    f = GF(7)
    assert f.canon(f.canon(23)) == f.canon(23) == 2
    assert QQ.canon(QQ.canon(Fraction(6, -4))) == Fraction(-3, 2)


def test_rational_canonical_sign_and_reduction():
    v = QQ.coerce_raw(Fraction(6, -4))
    assert v.numerator == -3 and v.denominator == 2
    assert QQ.coerce_raw("-6/4") == v
    assert (QQ.zero_raw, QQ.one_raw) == (0, 1) and type(QQ.zero_raw) is type(QQ.one_raw) is int


def test_each_rational_has_one_carrier():
    # an int when the rational is integral, a Fraction otherwise: carries
    # refuses a Fraction over 1, a bool and a float, and every maker of a
    # rational (canon, ratio, parse) returns the one carrier
    assert QQ.carries([3]) and QQ.carries([Fraction(1, 3)]) and QQ.carries([3, Fraction(1, 3), -7])
    assert QQ.carries([]) and QQ.carries([2**100, Fraction(-1, 2**100)])
    for stray in (Fraction(3), Fraction(0), Fraction(-6, 3), True, False, 3.0):
        assert not QQ.carries([stray]) and not QQ.carries([3, Fraction(1, 3), stray])
    assert QQ.canon(True) == 1 and type(QQ.canon(True)) is int
    for n, d in ((6, 3), (-6, 3), (6, -3), (0, 5), (7, 2), (-7, -14), (3, 1), (2**70, 2**69)):
        made = [QQ.ratio(n, d), QQ.canon(Fraction(n, d))] + ([QQ.parse(f"{n}/{d}")] if d > 0 else [])
        assert all(canonical(QQ, x) and x == Fraction(n, d) for x in made)


@pytest.mark.parametrize(
    "spelled, plain",
    [("4/2", "2"), ("-6/3", "-2"), ("2.0", "2"), ("00", "0"), ("-0", "0"), ("+7", "7"),
     ("-0/5", "0"), ("007", "7"), ("10/5", "2"), ("3.000", "3")],
)
def test_integral_tokens_parse_to_the_plain_carrier(spelled, plain):
    # an integral rational spelled as a ratio, a decimal or with extra zeros
    # or signs is the int its plain spelling gives: through parse, through
    # parse_row when int() reads the token, and through the token-by-token
    # parse a row takes when it also holds 1/3
    assert QQ.parse(spelled) == int(plain) and type(QQ.parse(spelled)) is int
    try:
        idx, vals = QQ.parse_row([spelled, "5"])
    except ValueError:  # parse_row reads integer tokens only
        pass
    else:
        assert (idx, vals) == QQ.parse_row([plain, "5"]) and {type(x) for x in vals} == {int}
    for other in ("5", "1/3"):
        got, want = (
            parse_input(f"field rationals\nrow_blocks 1\ncol_blocks 2\nentries\n{tok} {other}\n").matrix
            for tok in (spelled, plain)
        )
        assert got == want
        assert [type(x) for x in got.values[0]] == [type(x) for x in want.values[0]]


def test_nonprime_modulus_rejected():
    for bad in (0, 1, 4, 6, 9, 561, 2**31):
        with pytest.raises(ValueError):
            GF(bad)


def test_non_integer_modulus_and_foreign_values_rejected():
    with pytest.raises(TypeError, match="^modulus must be an integer$"):
        GF(2.0)
    for value in (1.5, 2.0, "3", None):
        shown = re.escape(repr(value))
        with pytest.raises(TypeError, match=f"^cannot interpret {shown} in GF\\(5\\)$"):
            GF(5).canon(value)
        with pytest.raises(TypeError, match=f"^cannot interpret {shown} as a rational$"):
            QQ.canon(value)


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(65537) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(1105)


def test_parse_format_round_trip():
    f = GF(11)
    for s in ("0", "7", "10"):
        assert f.format(f.parse(s)) == s
    for s in ("0", "-3", "5/6", "-7/2"):
        assert QQ.format(QQ.parse(s)) == s
    with pytest.raises(ValueError):
        f.parse("x")
    with pytest.raises(ValueError):
        QQ.parse("1/0")
    # int() and Fraction() read digit separators and non-ASCII digits, and
    # Fraction() reads an exponent, building 10^(10^7) for "1e10000000"
    for s in ("1_0", "\u0663", "1\u0660", "1e3", "2.5E-2", "-1E+2", "1e10000000"):
        with pytest.raises(ValueError, match="not a GF"):
            f.parse(s)
        with pytest.raises(ValueError, match="not a rational"):
            QQ.parse(s)


def test_parse_row_equals_the_token_by_token_parse():
    # parse_row converts only the tokens other than "0" and keeps the values
    # parse reads as nonzero, with their columns; every other spelling of
    # zero, and every multiple of p, is left out as parse reads it zero
    rng = random.Random(30)
    tokens = ["0", "00", "-0", "+0", "-3", "1", "2", "100", "101", "102", "205", "-101", "+7"]
    for f in (GF(2), GF(101), QQ):
        for _ in range(60):
            row = [rng.choice(tokens) if rng.random() < 0.4 else "0" for _ in range(rng.randint(1, 30))]
            idx, vals = f.parse_row(row)
            want = [(j, x) for j, t in enumerate(row) if (x := f.parse(t))]
            assert list(zip(idx, vals)) == want and len(idx) == len(vals)
            assert f.carries(vals) and all(vals)
        # a bad token in a late column of a sparse row is still named
        header = "field rationals" if f == QQ else f"field gf {f.p}"
        for bad in ("x", "0x", "1_0", "1e3", "\u0663"):
            row = ["0"] * 40
            row[36] = bad
            text = f"{header}\nrow_blocks 1\ncol_blocks 40\nentries\n{' '.join(row)}\n"
            with pytest.raises(InputFormatError, match=f"^line 5: column 37: '{bad}' is not a "):
                parse_input(text)


def test_elements_hashable_and_eq():
    f = GF(5)
    assert f.coerce_raw(7) == f.coerce_raw("2") == 2
    assert len({f.coerce_raw(i) for i in range(20)}) == 5
