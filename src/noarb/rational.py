"""Exact rational scalars and small vector helpers.

Every numeric quantity in this package is a ``fractions.Fraction``:
arbitrary-precision integer numerator and denominator, kept in lowest terms
with a positive denominator by the stdlib. This module adds the canonical
string form used by all JSON surfaces ("p/q" in lowest terms, bare "p" for
integers) and the handful of exact vector operations shared by the geometry
and market layers. There is deliberately no floating-point path anywhere.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

Vec = "tuple[Fraction, ...]"

_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical rational literal "p/q" or "p".

    Decimal points, exponents, whitespace inside the literal, and zero
    denominators are rejected; this keeps serialized documents bit-exact.
    """
    if not isinstance(text, str):
        raise ValueError(f"rational literal must be a string, got {type(text).__name__}")
    if _RATIONAL_RE.match(text) is None:
        raise ValueError(f"not a rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


class DigitLimitError(ValueError):
    """A rational too long for Python's int-to-text conversion."""


def format_rational(value) -> str:
    """Canonical lowest-terms string form: "p/q", or "p" for integers.

    Python refuses to convert integers of more than
    sys.get_int_max_str_digits() digits to text; such a rational raises
    DigitLimitError.
    """
    q = as_fraction(value)
    try:
        return str(q)
    except ValueError:
        raise DigitLimitError(
            f"a rational has more than {sys.get_int_max_str_digits()} digits, "
            f"Python's limit for writing integers as text") from None


def as_fraction(value) -> Fraction:
    """Coerce ints/Fractions exactly; floats are refused, never rounded."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}: {value!r}")


def vec(values) -> tuple[Fraction, ...]:
    """Coerce an iterable into an exact rational vector."""
    return tuple(as_fraction(v) for v in values)


def zero_vec(dim: int) -> tuple[Fraction, ...]:
    return (Fraction(0),) * dim


def dot(u, v) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vadd(u, v) -> tuple[Fraction, ...]:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v) -> tuple[Fraction, ...]:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vscale(t, u) -> tuple[Fraction, ...]:
    f = as_fraction(t)
    return tuple(f * a for a in u)
