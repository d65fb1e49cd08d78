"""Helpers for exact rational values used throughout the package.

All probabilities, atom values, levels and thresholds are `fractions.Fraction`
instances.  Floats are rejected at the boundary so that rounding error cannot
enter an exact computation by accident.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Union

RationalLike = Union[int, str, Fraction]

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
    """Canonical lowest-terms string: "3" for integers, "3/8" otherwise."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"

