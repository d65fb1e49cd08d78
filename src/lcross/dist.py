"""Finite discrete distributions with exact rational atoms.

A law is a finite set of (value, weight) pairs with positive rational
weights summing to one.  Everything here is exact: no floats are created
or accepted.  Queries and convolutions read each law's cached integer form,
values and weights over the lcms of their denominators.  The lattice form
embeds a law into an arithmetic progression with integer weight numerators
over one common denominator, the representation for iterated convolution.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import accumulate, repeat
from math import gcd, lcm
from typing import Iterable, Optional, Tuple

from .errors import InvalidDistribution, InvalidInterval, ResourceLimit
from .rationals import RationalLike, as_rational, format_rational

Atom = Tuple[Fraction, Fraction]

DEFAULT_MAX_SUPPORT = 1_000_000
MAX_SUPPORT_ENV = "LCROSS_MAX_SUPPORT"


def support_cap() -> int:
    """Maximum lattice sites per marginal; override with LCROSS_MAX_SUPPORT."""
    raw = os.environ.get(MAX_SUPPORT_ENV)
    if raw is None:
        return DEFAULT_MAX_SUPPORT
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_SUPPORT_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{MAX_SUPPORT_ENV} must be positive, got {cap}")
    return cap


@dataclass(frozen=True)
class _Scaled:
    """Integer form of a law: atom i is values[i] / scale with mass weights[i] / den."""

    scale: int
    values: Tuple[int, ...]
    den: int
    weights: Tuple[int, ...]
    prefix: Tuple[int, ...]

    def window(self, lo: int, hi: int) -> int:
        """Weight numerator of the scaled values in the closed window [lo, hi]."""
        i = bisect_left(self.values, lo)
        j = bisect_right(self.values, hi)
        return self.prefix[j] - self.prefix[i] if j > i else 0

    def joint(self, level: Fraction) -> Tuple[int, int]:
        """(k, t): atom i at values[i] * k / L and the level at t / L, L = lcm(scale, its den)."""
        scale = lcm(self.scale, level.denominator)
        return scale // self.scale, level.numerator * (scale // level.denominator)


@dataclass(frozen=True)
class DiscreteDist:
    """Immutable finite law: atoms sorted by value, weights sum to one."""

    atoms: Tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise InvalidDistribution("a distribution needs at least one atom")
        total = Fraction(0)
        prev = None
        for v, w in self.atoms:
            if not isinstance(v, Fraction) or not isinstance(w, Fraction):
                raise InvalidDistribution("atom entries must be Fractions")
            if w <= 0:
                raise InvalidDistribution(f"weight at value {v} is not positive")
            if prev is not None and v <= prev:
                raise InvalidDistribution("atom values must be strictly increasing")
            prev = v
            total += w
        if total != 1:
            raise InvalidDistribution(f"weights sum to {total}, expected 1")

    @property
    def values(self) -> Tuple[Fraction, ...]:
        return tuple(v for v, _ in self.atoms)

    @property
    def weights(self) -> Tuple[Fraction, ...]:
        return tuple(w for _, w in self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    @cached_property
    def _scaled(self) -> _Scaled:
        """Values and weights over the lcms of their denominators, built on first use."""
        scale = lcm(*(v.denominator for v, _ in self.atoms))
        den = lcm(*(w.denominator for _, w in self.atoms))
        values = tuple(v.numerator * (scale // v.denominator) for v, _ in self.atoms)
        weights = tuple(w.numerator * (den // w.denominator) for _, w in self.atoms)
        return _Scaled(scale, values, den, weights, (0, *accumulate(weights)))

    def prob(self, v: RationalLike) -> Fraction:
        """Mass at the single point v."""
        return interval_prob(self, v, v)

    def is_symmetric(self) -> bool:
        """True when the law equals its reflection about zero, decided on the integer form."""
        s = self._scaled
        return s.weights == s.weights[::-1] and all(
            x == -y for x, y in zip(s.values, reversed(s.values))
        )


def _from_ints(scale: int, den: int, pairs: Iterable[Tuple[int, int]]) -> DiscreteDist:
    """Mass w / den at v / scale for the sorted pairs (v, w) a kernel built; not re-validated."""
    mass = cache(partial(Fraction, denominator=den))  # atoms of equal weight share one Fraction
    d = object.__new__(DiscreteDist)
    object.__setattr__(d, "atoms", tuple((Fraction(v, scale), mass(w)) for v, w in pairs))
    return d


def make_dist(pairs: Iterable[Tuple[RationalLike, RationalLike]]) -> DiscreteDist:
    """Build a law from (value, weight) pairs.

    Duplicate values are merged, zero weights dropped, and weights
    normalized to sum one.  Negative weights and empty or all-zero input
    raise InvalidDistribution.
    """
    acc: dict[Fraction, Fraction] = {}
    for value, weight in pairs:
        v = as_rational(value)
        w = as_rational(weight)
        if w < 0:
            raise InvalidDistribution(f"negative weight {w} at value {v}")
        acc[v] = acc.get(v, Fraction(0)) + w
    atoms = [(v, w) for v, w in acc.items() if w > 0]
    if not atoms:
        raise InvalidDistribution("no atoms with positive weight")
    total = sum(w for _, w in atoms)
    atoms = [(v, w / total) for v, w in atoms]
    atoms.sort(key=lambda a: a[0])
    return DiscreteDist(tuple(atoms))


def point_mass(value: RationalLike) -> DiscreteDist:
    return make_dist([(value, 1)])


def rademacher() -> DiscreteDist:
    """Fair plus-minus one step."""
    return make_dist([(-1, 1), (1, 1)])


def lazy() -> DiscreteDist:
    """Step law (-1, 0, 1) with weights (1/4, 1/2, 1/4)."""
    return make_dist([(-1, Fraction(1, 4)), (0, Fraction(1, 2)), (1, Fraction(1, 4))])


def uniform_range(lo: int, hi: int) -> DiscreteDist:
    """Uniform law on the integers lo..hi inclusive, at most `support_cap()` of them."""
    if not isinstance(lo, int) or not isinstance(hi, int):
        raise InvalidDistribution("uniform range endpoints must be integers")
    if lo > hi:
        raise InvalidDistribution(f"empty integer range {lo}..{hi}")
    limit = support_cap()
    if hi - lo + 1 > limit:
        raise ResourceLimit(f"uniform range spans {hi - lo + 1} sites, over the cap of {limit}")
    return _from_ints(1, hi - lo + 1, zip(range(lo, hi + 1), repeat(1)))


def negate(d: DiscreteDist) -> DiscreteDist:
    """Law of -X."""
    s = d._scaled
    return _from_ints(s.scale, s.den, zip((-v for v in reversed(s.values)), reversed(s.weights)))


def convolve(a: DiscreteDist, b: DiscreteDist) -> DiscreteDist:
    """Law of X + Y for independent X ~ a, Y ~ b, summed in integers over one value scale."""
    sa, sb = a._scaled, b._scaled
    scale = lcm(sa.scale, sb.scale)
    ka, kb = scale // sa.scale, scale // sb.scale
    ys = [(y * kb, w) for y, w in zip(sb.values, sb.weights)]
    acc: dict[int, int] = {}
    for x, m in zip(sa.values, sa.weights):
        x *= ka
        for y, w in ys:
            v = x + y
            acc[v] = acc.get(v, 0) + m * w
    return _from_ints(scale, sa.den * sb.den, sorted(acc.items()))


def symmetrize(d: DiscreteDist) -> DiscreteDist:
    """Law of X - X' for independent copies of X."""
    return convolve(d, negate(d))


def abs_dist(d: DiscreteDist) -> DiscreteDist:
    """Law of |X|."""
    s = d._scaled
    acc: dict[int, int] = {}
    for v, w in zip(s.values, s.weights):
        acc[abs(v)] = acc.get(abs(v), 0) + w
    return _from_ints(s.scale, s.den, sorted(acc.items()))


def interval_prob(
    d: DiscreteDist,
    lo: Optional[RationalLike],
    hi: Optional[RationalLike],
    lo_closed: bool = True,
    hi_closed: bool = True,
) -> Fraction:
    """Mass of the interval from lo to hi; None means an infinite endpoint."""
    lo_q = None if lo is None else as_rational(lo)
    hi_q = None if hi is None else as_rational(hi)
    if lo_q is not None and hi_q is not None and lo_q > hi_q:
        raise InvalidInterval(f"reversed endpoints {lo_q} > {hi_q}")
    s = d._scaled
    # Scaled atoms are integers, so an end t/q becomes an integer bound:
    # x > t/q iff x >= t//q + 1, and x >= t/q iff x > (t-1)/q; mirrored above.
    lo_i, hi_i = s.values[0], s.values[-1]
    if lo_q is not None:
        lo_i = (lo_q.numerator * s.scale - bool(lo_closed)) // lo_q.denominator + 1
    if hi_q is not None:
        hi_i = (hi_q.numerator * s.scale - (not hi_closed)) // hi_q.denominator
    return Fraction(s.window(lo_i, hi_i), s.den)


@dataclass(frozen=True)
class LatticeDist:
    """Law on the progression origin + i * step with integer weight numerators.

    numerators[i] / denominator is the mass at origin + i * step.  The end
    numerators are nonzero so the progression is tight.  Zero gaps inside
    are allowed.
    """

    origin: Fraction
    step: Fraction
    numerators: Tuple[int, ...]
    denominator: int

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise InvalidDistribution("lattice step must be positive")
        if self.denominator <= 0:
            raise InvalidDistribution("lattice denominator must be positive")
        if not self.numerators:
            raise InvalidDistribution("lattice needs at least one site")
        if self.numerators[0] == 0 or self.numerators[-1] == 0:
            raise InvalidDistribution("lattice end numerators must be nonzero")
        if any(n < 0 for n in self.numerators):
            raise InvalidDistribution("lattice numerators must be nonnegative")
        if sum(self.numerators) != self.denominator:
            raise InvalidDistribution("lattice numerators must sum to the denominator")

    def __len__(self) -> int:
        return len(self.numerators)

    @property
    def weights(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

    def value(self, i: int) -> Fraction:
        return self.origin + i * self.step

    def prob(self, v: RationalLike) -> Fraction:
        """Mass at the single point v, zero off the lattice."""
        t = (as_rational(v) - self.origin) / self.step
        i = t.numerator
        if t.denominator == 1 and 0 <= i < len(self.numerators):
            return Fraction(self.numerators[i], self.denominator)
        return Fraction(0)

    def to_dist(self) -> DiscreteDist:
        scale = lcm(self.origin.denominator, self.step.denominator)
        x0, g = int(self.origin * scale), int(self.step * scale)
        sites = ((x0 + i * g, n) for i, n in enumerate(self.numerators) if n)
        return _from_ints(scale, self.denominator, sites)


def _check_sites(size: int) -> None:
    limit = support_cap()
    if size > limit:
        raise ResourceLimit(f"law spans {size} lattice sites, over the cap of {limit}")


def to_lattice(d: DiscreteDist) -> LatticeDist:
    """Embed a law into its coarsest arithmetic progression.

    The step is the gcd of successive value differences; a point mass gets
    step one by convention.  A law spanning more lattice sites than
    `support_cap()` raises ResourceLimit before any site is allocated.
    """
    s = d._scaled
    x0 = s.values[0]
    g = gcd(*(x - x0 for x in s.values)) or s.scale
    size = (s.values[-1] - x0) // g + 1
    _check_sites(size)
    nums = [0] * size
    for x, m in zip(s.values, s.weights):
        nums[(x - x0) // g] = m
    return LatticeDist(d.atoms[0][0], Fraction(g, s.scale), tuple(nums), s.den)


def _shift_add(a, off: int, b, lo: int, hi: int) -> list:
    """Sites lo..hi of a, on sites off, off + 1, ..., convolved with b, on sites 0, 1, ..."""
    out = [0] * (hi - lo + 1)
    for j, m in enumerate(b):
        if m:
            s = off + j - lo
            t0, t1 = max(-s, 0), min(len(a), len(out) - s)
            if t0 < t1:
                out[s + t0 : s + t1] = [o + m * x for o, x in zip(out[s + t0 : s + t1], a[t0:t1])]
    return out


def lattice_convolve(a: LatticeDist, b: LatticeDist) -> LatticeDist:
    """Exact convolution of two lattice laws.

    On one step, each nonzero site of b adds a shifted, scaled copy of a's
    numerators.  Laws on different steps are convolved as finite laws and
    embedded by `to_lattice` on the coarsest step of the result's support,
    the gcd of the two supports' steps; one above `support_cap()` sites
    raises ResourceLimit before any pair is formed.
    """
    if a.step != b.step:
        scale = lcm(a.step.denominator, b.step.denominator)
        ga, gb = int(a.step * scale), int(b.step * scale)
        offsets = [i * ga for i, m in enumerate(a.numerators) if m]
        offsets += [j * gb for j, m in enumerate(b.numerators) if m]
        g = gcd(*offsets)
        _check_sites(((len(a) - 1) * ga + (len(b) - 1) * gb) // g + 1 if g else 1)
        return to_lattice(convolve(a.to_dist(), b.to_dist()))
    out = _shift_add(a.numerators, 0, b.numerators, 0, len(a) + len(b) - 2)
    return LatticeDist(a.origin + b.origin, a.step, tuple(out), a.denominator * b.denominator)


def dist_to_json_dict(d: DiscreteDist) -> dict:
    return {
        "atoms": [
            {"v": format_rational(v), "w": format_rational(w)} for v, w in d.atoms
        ]
    }


def dist_from_json_dict(obj: object) -> Tuple[DiscreteDist, bool]:
    """Parse the {"atoms": [{"v": ..., "w": ...}]} form.

    Returns the law and a flag telling whether the weights had to be
    renormalized to sum one.
    """
    if not isinstance(obj, dict):
        raise InvalidDistribution("distribution document must be a JSON object")
    if "atoms" not in obj:
        raise InvalidDistribution('distribution document is missing the "atoms" field')
    raw = obj["atoms"]
    if not isinstance(raw, list) or not raw:
        raise InvalidDistribution('"atoms" must be a nonempty list')
    pairs = []
    for k, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise InvalidDistribution(f"atom {k}: expected an object")
        for field in ("v", "w"):
            if field not in entry:
                raise InvalidDistribution(f'atom {k}: missing "{field}"')
        try:
            v = as_rational(entry["v"])
        except (TypeError, ValueError) as exc:
            raise InvalidDistribution(f'atom {k}: bad value "v": {exc}') from exc
        try:
            w = as_rational(entry["w"])
        except (TypeError, ValueError) as exc:
            raise InvalidDistribution(f'atom {k}: bad weight "w": {exc}') from exc
        pairs.append((v, w))
    total = sum(w for _, w in pairs)
    d = make_dist(pairs)
    return d, total != 1


def to_json(d: DiscreteDist) -> str:
    return json.dumps(dist_to_json_dict(d))


def from_json(text: str) -> Tuple[DiscreteDist, bool]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDistribution(f"invalid JSON: {exc}") from exc
    return dist_from_json_dict(obj)
