"""Exact fields: prime fields GF(p) and arbitrary-precision rationals.

A field value has one representation, its raw carrier: an ``int`` residue in
[0, p) for GF(p); for a rational an ``int`` when it is integral, else a
``fractions.Fraction`` (lowest terms, denominator above 1), as
``RationalField.ratio`` makes it.  A ``Field`` parses, prints, validates and
clears carriers and does no arithmetic: the kernels do theirs on ints.  A
container (a ``Matrix``, a stability graph, a matching state) records the
field, and a vector is a tuple of raw carriers.  ``p`` is the
characteristic, 0 for the rationals, and ``cleared(vecs)`` writes vectors on
ints over one denominator.  Zero is the only false carrier, ``0`` in every
field, so a ``Matrix`` built from dense values leaves it out; a value from
outside, such as ``None``, ``0.0`` or ``Fraction(3)``, is told apart by
``carries``, which ``verify``, ``rref`` and ``rank1_factor`` apply to what
a matrix stores.  ``parse`` reads ASCII decimal tokens only, with no exponent,
and ``parse_row`` reads a whole row of integer tokens at once, converting
only the tokens other than ``0``, into the columns and values of its
nonzeros.  ``format`` is ``str`` on every field: the decimal residue for
GF(p), ``a`` or ``a/b`` for a rational.  The zero prints as ``0`` in every
field, so a printer splices the zeros of a sparse row from one run of ``"0 "``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import isqrt, lcm
from typing import Any


def is_prime(n: int) -> bool:
    """Primality by trial division, up to 46,340 divisions for n < 2^31."""
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _decimal(text: str) -> str:
    """``text`` unchanged, unless it holds what ``int`` and ``Fraction`` read
    but a decimal number cannot: ``_`` separators, non-ASCII digits, or an
    exponent, with which ``Fraction`` builds 10^k for any k a token spells."""
    if "_" in text or "e" in text or "E" in text or not text.isascii():
        raise ValueError(text)
    return text


class Field:
    """Base class: parsing, printing and validation of raw carrier values."""

    p: int  # the characteristic, 0 for the rationals
    zero_raw = 0
    one_raw = 1

    def canon(self, value):
        raise NotImplementedError

    def coerce_raw(self, value) -> Any:
        """Turn ints, strings or raw carriers into a raw value."""
        if isinstance(value, str):
            return self.parse(value)
        return self.canon(value)

    def parse(self, text: str):
        raise NotImplementedError

    def parse_row(self, tokens: list[str]) -> tuple[list[int], list]:
        """The columns and values of a row of integer tokens where ``parse``
        is not zero, converting only the tokens other than ``0``; a
        ValueError, which need not name the token, otherwise (a bad token, or
        a rational ``a/b`` or decimal one, which only ``parse`` reads)."""
        _decimal("".join(tokens))
        p, idx = self.p, [j for j, t in enumerate(tokens) if t != "0"]
        ints = [int(tokens[j]) % p for j in idx] if p else [int(tokens[j]) for j in idx]
        if 0 in ints:  # a token such as "00" or "-0", or a multiple of p
            idx, ints = list(compress(idx, ints)), list(filter(None, ints))
        return idx, ints

    format = str


class PrimeField(Field):
    """GF(p) for a prime modulus p, with 2 <= p < 2**31.  Carrier: int in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise TypeError("modulus must be an integer")
        if not 2 <= p < 2**31:
            raise ValueError(f"modulus {p} out of range [2, 2^31)")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def carries(self, values) -> bool:
        """Whether every value is a raw carrier, an int in [0, p)."""
        return set(map(type, values)) <= {int} and all(0 <= v < self.p for v in set(values))

    def canon(self, value):
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"{value.denominator} has no inverse in {self}")
            value = value.numerator * pow(value.denominator, -1, self.p)
        if not isinstance(value, int):
            raise TypeError(f"cannot interpret {value!r} in {self}")
        return value % self.p

    def cleared(self, vecs: list) -> tuple[int, list]:
        """Residues are ints already: ``vecs`` themselves, over 1."""
        return 1, vecs

    def parse(self, text: str):
        try:
            return int(_decimal(text)) % self.p
        except ValueError:
            raise ValueError(f"{text!r} is not a GF({self.p}) element") from None

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


class RationalField(Field):
    """The field of rationals.  Carrier: ``int`` when integral, else ``Fraction``."""

    __slots__ = ()

    p = 0

    @staticmethod
    def ratio(n: int, d: int):
        """The carrier of n/d, d nonzero: ``n // d`` when d divides n."""
        return Fraction(n, d) if n % d else n // d

    def carries(self, values) -> bool:
        """Whether every value is a raw carrier: an int (not a bool), or a non-integral Fraction."""
        kinds = set(map(type, values))
        return kinds <= {int} or kinds <= {int, Fraction} and 1 not in {
            x.denominator for x in values if type(x) is Fraction}

    def canon(self, value):
        if isinstance(value, (int, Fraction)):
            return self.ratio(value.numerator, value.denominator)
        raise TypeError(f"cannot interpret {value!r} as a rational")

    def cleared(self, vecs: list) -> tuple[int, list]:
        """d, the lcm of every entry's denominator, and the vectors times d:
        ``vecs`` themselves when every entry is an int."""
        if (d := lcm(*[x.denominator for vec in vecs for x in vec])) == 1:
            return 1, vecs
        return d, [[x.numerator * (d // x.denominator) for x in vec] for vec in vecs]

    def parse(self, text: str):
        try:
            return self.canon(Fraction(_decimal(text)))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{text!r} is not a rational number") from None

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


def GF(p: int) -> PrimeField:
    return PrimeField(p)


QQ = RationalField()
