"""Check `over_power` against `Fraction` using the standard library only.

Loads src/lcross/rationals.py by file path, so it runs under any Python 3.10+
without the package or its dependencies installed:

    python tests/check_rationals_stdlib.py

It prints the interpreter version and how many values it checked.  The
coprime constructor `_coprime` is the same on every version: `object.__new__`
of `Fraction` with its two slots set, not `Fraction._from_coprime_ints` (3.12+)
or `Fraction(n, d, _normalize=False)` (3.10, 3.11).  Each Fraction it builds
must be exactly a `Fraction`, without a `__dict__`, and must equal, hash,
pickle and repr like `Fraction(n, d)`.  The script exits nonzero on the first
mismatch.
"""

import importlib.util
import pickle
import random
import sys
from fractions import Fraction
from math import gcd
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


def coprime_pairs(rng):
    yield 0, 1
    yield 1, 1
    yield -7, 3
    yield 2**61 - 1, 2**70  # past a machine word, and past the hash modulus
    for _ in range(200):
        d = rng.randrange(1, 10**rng.randrange(1, 40))
        n = rng.randrange(-(10**40), 10**40)
        yield n // gcd(n, d), d // gcd(n, d)


def check_coprime(coprime, n, d):
    """Exit unless coprime(n, d) is a plain Fraction that behaves as Fraction(n, d)."""
    got, want = coprime(n, d), Fraction(n, d)
    checks = {
        "type": type(got) is Fraction,
        "no __dict__": not hasattr(got, "__dict__"),
        "fields": (got.numerator, got.denominator) == (want.numerator, want.denominator),
        "equality": got == want and not got != want,
        "hash": hash(got) == hash(want),
        "pickle": pickle.dumps(got) == pickle.dumps(want) and pickle.loads(pickle.dumps(got)) == want,
        "repr": repr(got) == repr(want) and str(got) == str(want),
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        sys.exit(f"_coprime({n}, {d}) = {got!r} differs from Fraction in {', '.join(failed)}")


def main():
    rationals = load()
    checked = 0
    for x, den, base in cases(random.Random(16)):
        got, want = rationals.over_power(x, den, base), Fraction(x, den)
        same = (got.numerator, got.denominator) == (want.numerator, want.denominator)
        if type(got) is not Fraction or not same:
            sys.exit(f"over_power({x}, {den}, {base}) = {got!r}, expected {want!r}")
        checked += 1
    pairs = list(coprime_pairs(random.Random(18)))
    for n, d in pairs:
        check_coprime(rationals._coprime, n, d)
    version = sys.version.split()[0]
    print(f"Python {version}: {checked} values equal Fraction's; {len(pairs)} coprime builds too")


if __name__ == "__main__":
    main()
