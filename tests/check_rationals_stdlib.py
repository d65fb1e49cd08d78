"""Check `over_power` against `Fraction` using the standard library only.

Loads src/lcross/rationals.py by file path, so it runs under any Python 3.10+
without the package or its dependencies installed:

    python tests/check_rationals_stdlib.py

It prints the interpreter version and the coprime constructor it selected:
`Fraction._from_coprime_ints` from 3.12, `Fraction(n, d, _normalize=False)`
on 3.10 and 3.11.  It exits nonzero on the first mismatch.
"""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

RATIONALS = Path(__file__).resolve().parents[1] / "src" / "lcross" / "rationals.py"
# Each base with its primes, as in test_rationals.py.
BASES = {1: (), 2: (2,), 60: (2, 3, 5), 360: (2, 3, 5), 2**61 - 1: (2**61 - 1,)}
BASES.update({10**20: (2, 5), 2**70: (2,)})


def load():
    spec = importlib.util.spec_from_file_location("rationals", RATIONALS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cases(rng):
    for base, primes in BASES.items():
        for n in range(41):
            den = base**n
            yield 0, den, base
            yield den, den, base
            yield rng.randrange(den + 1), den, base
            x = rng.randrange(1, 10**6)
            for p in primes:
                x *= p ** rng.randrange(3 * n + 71)
            yield x, den, base


def main():
    rationals = load()
    checked = 0
    for x, den, base in cases(random.Random(16)):
        got, want = rationals.over_power(x, den, base), Fraction(x, den)
        same = (got.numerator, got.denominator) == (want.numerator, want.denominator)
        if type(got) is not Fraction or not same:
            sys.exit(f"over_power({x}, {den}, {base}) = {got!r}, expected {want!r}")
        checked += 1
    version = sys.version.split()[0]
    print(f"Python {version}: {checked} values equal Fraction's;", rationals._coprime)


if __name__ == "__main__":
    main()
