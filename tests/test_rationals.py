import runpy
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcross.rationals import as_rational, format_exact, format_rational, over_power

# Each base with its primes: the factors a numerator can share with a power of it.
BASES = {
    1: (),
    2: (2,),
    60: (2, 3, 5),
    360: (2, 3, 5),
    2**61 - 1: (2**61 - 1,),  # a Mersenne prime, wider than the 2^60 chunk
    10**20: (2, 5),
    2**70: (2,),
}


@st.composite
def numerators(draw):
    """(x, den, base): den a power of base, x zero, den itself, any value up to den, or
    a small cofactor times high powers of base's primes, past den."""
    base = draw(st.sampled_from(sorted(BASES)))
    n = draw(st.integers(0, 40))
    den = base**n
    kind = draw(st.sampled_from(["zero", "den", "any", "powers"]))
    if kind == "zero":
        return 0, den, base
    if kind == "den":
        return den, den, base
    if kind == "any":
        return draw(st.integers(0, den)), den, base
    x = draw(st.integers(1, 10**6))
    for p in BASES[base]:
        x *= p ** draw(st.integers(0, 3 * n + 70))
    return x, den, base


@given(numerators())
@settings(max_examples=400, deadline=None)
def test_over_power_is_fraction_in_lowest_terms(case):
    x, den, base = case
    got, want = over_power(x, den, base), F(x, den)
    assert type(got) is F
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert type(got.numerator) is int and type(got.denominator) is int


@given(st.integers(), st.integers(min_value=1))
@example(10**4299, 1)  # 4,300 digits, the most str(int) converts by default
@example(-(10**4299), 10**4299 - 1)
@example(0, 1)
def test_format_rational_matches_str_below_the_digit_limit(n, d):
    q = F(n, d)
    assert format_rational(q) == str(q)


def test_format_rational_has_no_digit_limit():
    assert format_rational(F(-(10**8000))) == "-1" + "0" * 8000
    assert format_rational(F(1, 10**8000)) == "1/1" + "0" * 8000
    want = "-" + "9" * 4000 + "/5" + "0" * 7999
    assert format_rational(F(2 - 2 * 10**4000, 10**8000)) == want


def test_as_rational_refuses_bools():
    for x in (True, False):
        with pytest.raises(TypeError, match="bool is not a rational value"):
            as_rational(x)


def test_format_exact_formats_fractions_and_tuples_only():
    assert format_exact(F(-3, 8)) == "-3/8"
    assert format_exact((F(1), (F(1, 2), F(0)), ())) == ["1", ["1/2", "0"], []]
    for x in (None, True, 3, 0.5, "1/2", [F(1)]):
        assert format_exact(x) is x


def test_stdlib_check_script_passes(capsys):
    # The script loads rationals.py by path, so it also runs where numpy is absent.
    script = Path(__file__).resolve().parent / "check_rationals_stdlib.py"
    runpy.run_path(str(script), run_name="__main__")
    assert sys.version.split()[0] in capsys.readouterr().out
