"""Exact scalars: rationals and Gaussian rationals.

Rationals are ``fractions.Fraction`` (already normalized, arbitrary
precision).  ``Gaussian`` models Q(i) with exact real/imaginary parts
and conjugation; the engine stores a Q(i) matrix as integer rows (see
``linalg``), so Gaussians appear only where entries are parsed, read or
applied.  Field tags ``FIELD_Q`` / ``FIELD_QI`` mark which field a matrix
or subspace lives over.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

FIELD_Q = "Q"
FIELD_QI = "Q(i)"

Rat = Fraction

Q_ZERO = Fraction(0)


class Gaussian:
    """An element of Q(i): ``re + im*i`` with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Gaussian is immutable")

    def conj(self) -> "Gaussian":
        return Gaussian(self.re, -self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Gaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Gaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian")
        return Gaussian(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, Gaussian):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"Gaussian({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GI_ZERO = Gaussian(0)
GI_I = Gaussian(0, 1)


def _coerce(x):
    if isinstance(x, Gaussian):
        return x
    if isinstance(x, (int, Fraction)):
        return Gaussian(x)
    return NotImplemented


def as_field(value, field):
    """Coerce ``value`` into the given field, exactly."""
    if field == FIELD_Q:
        if isinstance(value, Gaussian):
            if value.im:
                raise ValueError(f"cannot place {value} in Q")
            return value.re
        return value if type(value) is Fraction else Fraction(value)
    coerced = _coerce(value)
    if coerced is NotImplemented:
        raise ValueError(f"cannot place {value!r} in Q(i)")
    return coerced


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

MAX_DIGITS = 4300   # per numerator or denominator (Python's default int-string limit)


def parse_rational(text: str) -> Fraction:
    """Parse ``"a/b"`` or ``"a"``: an optional minus sign, digits, and an
    optional ``/`` and digits.  ``format_rational`` writes the canonical
    form (lowest terms, b > 0, ``"a"`` when b = 1), but any such string is
    read as its reduced value: ``"2/4"`` is 1/2, ``"-0"`` is 0, ``"01"``
    and ``"1/1"`` are 1.  Decimals and exponents are refused, so a short
    string cannot stand for a huge number, and ``"0.5"`` is not silently
    read as 1/2; a numerator or denominator of more than ``MAX_DIGITS``
    digits is refused before any integer is built."""
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if not match:
        raise ValueError(f"bad rational {text!r}: expected digits or digits/digits")
    num, den = match.groups()
    longest = max(len(num.lstrip("-")), len(den or ""))
    if longest > MAX_DIGITS:
        raise ValueError(f"bad rational: {longest} digits exceed the limit of "
                         f"{MAX_DIGITS} per numerator or denominator")
    try:
        return Fraction(int(num), int(den) if den else 1)
    except ZeroDivisionError:
        raise ValueError(f"bad rational {text!r}: zero denominator") from None


def format_rational(value: Fraction) -> str:
    return str(value if type(value) is Fraction else Fraction(value))


def format_ratio(n: int, q: int) -> str:
    """``format_rational(Fraction(n, q))`` for q > 0, without the ``Fraction``."""
    g = gcd(n, q)
    return str(n // g) if g == q else f"{n // g}/{q // g}"


def parse_scalar(obj, field):
    """Parse the serialized scalar: a string over Q, ``{"re","im"}`` over Q(i)."""
    if field == FIELD_Q:
        if not isinstance(obj, str):
            raise ValueError(f"expected rational string, got {obj!r}")
        return parse_rational(obj)
    if isinstance(obj, str):
        return Gaussian(parse_rational(obj))
    if isinstance(obj, dict) and set(obj) <= {"re", "im"}:
        return Gaussian(parse_rational(obj.get("re", "0")), parse_rational(obj.get("im", "0")))
    raise ValueError(f"expected Gaussian scalar object, got {obj!r}")
