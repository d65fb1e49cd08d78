"""Helpers for exact rational values used throughout the package.

All probabilities, atom values, levels and thresholds are `fractions.Fraction`
instances.  Floats are rejected at the boundary so that rounding error cannot
enter an exact computation by accident.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd
from typing import Union

RationalLike = Union[int, str, Fraction]


def _coprime(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime n and d > 0, built without a gcd or a type check."""
    q = object.__new__(Fraction)
    q._numerator, q._denominator = n, d
    return q


# Fraction("1e999999999") would compute 10**999999999, so exponents beyond
# Python's digit limit on integer strings (or its default, if off) are refused.
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)$")


def as_rational(x: RationalLike) -> Fraction:
    """Convert an int, Fraction, or string like "3/8" or "-2" to a Fraction.

    Floats are rejected: callers that start from floats must quantize
    explicitly before entering the exact layer.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip()
        exponent = _EXPONENT.search(text)
        try:
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
            if exponent and abs(int(exponent[1])) > limit:
                raise ValueError(f"exponent exceeds the limit of {limit} digits")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational from {x!r}: {exc}") from exc
    raise TypeError(f"expected int, str or Fraction, got {type(x).__name__}")


def format_rational(q: Fraction) -> str:
    """Canonical lowest-terms string, "3" or "3/8": Decimal has no limit on digits, unlike str."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(Decimal(q.numerator))
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def format_exact(value: object) -> object:
    """A JSON-ready copy of an exact field: Fractions as `format_rational` strings,
    tuples as lists, recursively; anything else (ints, floats, bools, None) as is."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, tuple):
        return [format_exact(x) for x in value]
    return value


def over_power(x: int, den: int, base: int) -> Fraction:
    """x / den in lowest terms, for x >= 0 and den a power of base >= 1.

    A prime common to x and den divides base, so the gcd is found against a power of
    base near 2^60, m = base**k, rather than against den: t = gcd(x mod m, m), cut to
    what is left of den, is divided out, and the next round takes t for m, since any
    prime still common divides it.  A t equal to m means x holds all of m, and then t
    is the whole gcd(x, den).  The rounds stop at t = 1, so an x with no prime of base
    costs one big-integer remainder and one word-sized gcd; a den up to m, one gcd.
    """
    if not x:
        return _coprime(0, 1)
    m = base ** max(60 // base.bit_length(), 1)
    if den <= m:  # then the gcd is word-sized
        t = gcd(x, den)
        return _coprime(x // t, den // t)
    while den > 1:
        t = gcd(x % m, m)
        if t > 1:
            t = gcd(x, den) if t == m else gcd(t, den)
        if t == 1:
            break
        x, den, m = x // t, den // t, t
    return _coprime(x, den)
