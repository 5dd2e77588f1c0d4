"""Exact arithmetic over prime fields GF(p) and over the rationals.

Field elements are kept in a canonical form: integers in ``[0, p)`` for a
prime field, ``fractions.Fraction`` (always in lowest terms) for the
rationals.  The rationals are only used to verify representations over the
reals with exact arithmetic; they are never searched over.

The inner product is the standard bilinear form sum(x_i * y_i), with no
conjugation in any field.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, Sequence

MAX_PRIME = 251  # one byte per residue
# a rational read from text: a, a/b with b nonzero, or a plain decimal; no
# exponent, since Fraction("1e999999999") would build a billion-digit integer
_RATIONAL = re.compile(r"[+-]?(\d+(/\d*[1-9]\d*)?|\d*\.\d+)")


def is_prime(n: int) -> bool:
    """Deterministic primality check by trial division (small n only)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The prime field GF(p), 2 <= p <= 251.  Elements are ints in [0, p)."""

    def __init__(self, p: int):
        if p > MAX_PRIME:  # checked first: trial division of a large order would take long
            raise ValueError(f"field order {p} exceeds the supported maximum {MAX_PRIME}")
        if not is_prime(p):
            raise ValueError(f"field order {p} is not prime")
        self.p = p

    # -- raw operations on canonical residues ---------------------------------

    @property
    def size(self) -> int:
        return self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def element(self, x: int) -> int:
        return x % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def elements(self) -> Iterator[int]:
        return iter(range(self.p))

    def inner(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        if len(xs) != len(ys):
            raise ValueError(f"inner product length mismatch: {len(xs)} vs {len(ys)}")
        return sum(x * y for x, y in zip(xs, ys)) % self.p

    # -- row operations: one call per row, one % p per entry --------------------

    def scale(self, c: int, xs: Sequence[int]) -> list[int]:
        """c * xs, entrywise."""
        p = self.p
        return [c * x % p for x in xs]

    def sub_scaled(self, xs: Sequence[int], c: int, ys: Sequence[int]) -> list[int]:
        """xs - c * ys, entrywise."""
        p = self.p
        return [(x - c * y) % p for x, y in zip(xs, ys)]

    # -------------------------------------------------------------------------

    @property
    def name(self) -> str:
        return str(self.p)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


class RationalField:
    """The field of rationals; elements are ``Fraction`` values."""

    @property
    def size(self) -> None:
        return None  # infinite

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def element(self, x) -> Fraction:
        if isinstance(x, str) and not _RATIONAL.fullmatch(x.strip()):
            raise ValueError(f"{x!r} is not a rational number a, a/b or a decimal")
        return Fraction(x)

    def add(self, a, b) -> Fraction:
        return Fraction(a) + Fraction(b)

    def sub(self, a, b) -> Fraction:
        return Fraction(a) - Fraction(b)

    def mul(self, a, b) -> Fraction:
        return Fraction(a) * Fraction(b)

    def neg(self, a) -> Fraction:
        return -Fraction(a)

    def inv(self, a) -> Fraction:
        if Fraction(a) == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(a)

    def div(self, a, b) -> Fraction:
        return self.mul(a, self.inv(b))

    def inner(self, xs: Sequence, ys: Sequence) -> Fraction:
        if len(xs) != len(ys):
            raise ValueError(f"inner product length mismatch: {len(xs)} vs {len(ys)}")
        return sum((Fraction(x) * Fraction(y) for x, y in zip(xs, ys)), Fraction(0))

    def scale(self, c, xs: Sequence) -> list[Fraction]:
        """c * xs, entrywise."""
        c = Fraction(c)
        return [c * Fraction(x) for x in xs]

    def sub_scaled(self, xs: Sequence, c, ys: Sequence) -> list[Fraction]:
        """xs - c * ys, entrywise."""
        c = Fraction(c)
        return [Fraction(x) - c * Fraction(y) for x, y in zip(xs, ys)]

    @property
    def name(self) -> str:
        return "Q"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("Q")

    def __repr__(self) -> str:
        return "Q"


#: Union alias for annotation purposes.
Field = PrimeField | RationalField

GF2 = PrimeField(2)
GF3 = PrimeField(3)
QQ = RationalField()


def field_from_name(name: str) -> Field:
    """Parse a field tag as it appears on the command line and in JSON: '2', '5', ..., 'Q'."""
    if not isinstance(name, str):
        raise ValueError(f"field tag {name!r} is not a string")
    if name.strip().upper() == "Q":
        return QQ
    try:
        p = int(name)
    except ValueError:
        raise ValueError(f"unrecognized field {name!r}; expected a prime or 'Q'") from None
    return PrimeField(p)
