"""Finite discrete distributions with exact rational atoms.

A law is a finite set of (value, weight) pairs with positive rational
weights summing to one.  Everything here is exact: no floats are created
or accepted.  A law is stored as integers in lowest terms, values over one
scale and weights over one denominator; queries and kernels read and build
that form, and the Fraction atoms are a view built only when read.  So is
the dense view, the one place that puts a law on its coarsest arithmetic
progression; `to_lattice` wraps it as a `LatticeDist`, which no library path
builds (the walk reads the dense view itself): it stays public, and
`perfbench/spans.py` traces it.  The packed kernel, `_shift_add`, works on
numerator vectors packed into one Python int each, a site per slot as wide
as the largest numerator the product can hold (in whole bytes), so no slot
ever carries into the next: each nonzero site of the sparser operand adds
one shifted, scaled copy of the other, three big-integer operations in C.
Packing goes through bytes, never `str`.  Only this module knows a law's
integer units: the walk scan and MC step tables put a level on them by `joint`.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import accumulate, chain, repeat
from math import gcd, lcm
from struct import iter_unpack
from typing import Iterable, Iterator, Optional, Sequence, Tuple

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


@dataclass(frozen=True, init=False, repr=False)
class DiscreteDist:
    """Immutable finite law: atom i is points[i] / scale with mass masses[i] / den.

    Points increase strictly, masses are positive and sum to den, and both
    are in lowest terms (gcd(scale, *points) = gcd(den, *masses) = 1), so
    equal laws have equal fields and compare and hash alike.
    """

    scale: int
    points: Tuple[int, ...]
    den: int
    masses: Tuple[int, ...]

    def __init__(self, atoms: Iterable[Atom]) -> None:
        """Validate (value, weight) Fraction pairs and store their integer form."""
        atoms = tuple(atoms)
        if not atoms:
            raise InvalidDistribution("a distribution needs at least one atom")
        for i, (v, w) in enumerate(atoms):
            if not isinstance(v, Fraction) or not isinstance(w, Fraction):
                raise InvalidDistribution("atom entries must be Fractions")
            if w <= 0:
                raise InvalidDistribution(f"weight at value {v} is not positive")
            if i and v <= atoms[i - 1][0]:
                raise InvalidDistribution("atom values must be strictly increasing")
        # Over the lcms of their denominators the values and weights are in lowest terms.
        scale = lcm(*(v.denominator for v, _ in atoms))
        den = lcm(*(w.denominator for _, w in atoms))
        masses = tuple(w.numerator * (den // w.denominator) for _, w in atoms)
        if sum(masses) != den:
            raise InvalidDistribution(f"weights sum to {Fraction(sum(masses), den)}, expected 1")
        points = tuple(v.numerator * (scale // v.denominator) for v, _ in atoms)
        self.__dict__.update(scale=scale, points=points, den=den, masses=masses, atoms=atoms)

    @cached_property
    def atoms(self) -> Tuple[Atom, ...]:
        """(value, weight) pairs as Fractions, built on first read."""
        mass = cache(partial(Fraction, denominator=self.den))  # equal masses share one Fraction
        return tuple((Fraction(v, self.scale), mass(m)) for v, m in zip(self.points, self.masses))

    @property
    def values(self) -> Tuple[Fraction, ...]:
        return tuple(v for v, _ in self.atoms)

    @property
    def weights(self) -> Tuple[Fraction, ...]:
        return tuple(w for _, w in self.atoms)

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"DiscreteDist(atoms={self.atoms!r})"

    @cached_property
    def _prefix(self) -> Tuple[int, ...]:
        return (0, *accumulate(self.masses))

    @cached_property
    def _dense(self) -> Tuple[int, int, Tuple[int, ...]]:
        """(x0, g, nums): mass nums[i] / den at (x0 + i * g) / scale, built on first read.

        The coarsest progression holding the points: g is the gcd of their
        differences, and a point mass gets step one by convention.  A law spanning
        more sites than `support_cap()` raises ResourceLimit before any is allocated.
        """
        x0 = self.points[0]
        g = gcd(*(x - x0 for x in self.points)) or self.scale
        size = (self.points[-1] - x0) // g + 1
        _check_sites(size)
        nums = [0] * size
        for x, m in zip(self.points, self.masses):
            nums[(x - x0) // g] = m
        return x0, g, tuple(nums)

    def window(self, lo: int, hi: int) -> int:
        """Mass numerator of the points in the closed window [lo, hi]."""
        i = bisect_left(self.points, lo)
        j = bisect_right(self.points, hi)
        return self._prefix[j] - self._prefix[i] if j > i else 0

    def joint(self, level: Fraction) -> Tuple[int, int]:
        """(k, t): atom i at points[i] * k / L and the level at t / L, L = lcm(scale, its den)."""
        scale = lcm(self.scale, level.denominator)
        return scale // self.scale, level.numerator * (scale // level.denominator)

    def prob(self, v: RationalLike) -> Fraction:
        """Mass at the single point v."""
        return interval_prob(self, v, v)

    def is_symmetric(self) -> bool:
        """True when the law equals its reflection about zero, decided on the integer form."""
        p = self.points
        return self.masses == self.masses[::-1] and all(x == -y for x, y in zip(p, reversed(p)))


def _lowest(q: int, xs: Sequence[int]) -> Tuple[int, Tuple[int, ...]]:
    """q and xs divided by gcd(q, *xs)."""
    g = gcd(q, *xs)
    return (q // g, tuple(x // g for x in xs)) if g > 1 else (q, tuple(xs))


def _from_ints(scale: int, points: Sequence[int], den: int, masses: Sequence[int]) -> DiscreteDist:
    """Mass masses[i] / den at sorted points[i] / scale, in lowest terms; not re-validated."""
    d = object.__new__(DiscreteDist)
    (scale, points), (den, masses) = _lowest(scale, points), _lowest(den, masses)
    d.__dict__.update(scale=scale, points=points, den=den, masses=masses)
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
    total = sum(acc.values())
    if not total:
        raise InvalidDistribution("no atoms with positive weight")
    return DiscreteDist(sorted((v, w / total) for v, w in acc.items() if w))


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
    return _from_ints(1, range(lo, hi + 1), hi - lo + 1, (1,) * (hi - lo + 1))


def negate(d: DiscreteDist) -> DiscreteDist:
    """Law of -X."""
    return _from_ints(d.scale, [-v for v in reversed(d.points)], d.den, d.masses[::-1])


def convolve(a: DiscreteDist, b: DiscreteDist) -> DiscreteDist:
    """Law of X + Y for independent X ~ a, Y ~ b, summed in integers over one value scale."""
    scale = lcm(a.scale, b.scale)
    ka, kb = scale // a.scale, scale // b.scale
    ys = [(y * kb, w) for y, w in zip(b.points, b.masses)]
    acc: dict[int, int] = {}
    for x, m in zip(a.points, a.masses):
        x *= ka
        for y, w in ys:
            v = x + y
            acc[v] = acc.get(v, 0) + m * w
    points = sorted(acc)
    return _from_ints(scale, points, a.den * b.den, [acc[v] for v in points])


def symmetrize(d: DiscreteDist) -> DiscreteDist:
    """Law of X - X' for independent copies of X."""
    return convolve(d, negate(d))


def abs_dist(d: DiscreteDist) -> DiscreteDist:
    """Law of |X|."""
    acc: dict[int, int] = {}
    for v, w in zip(d.points, d.masses):
        acc[abs(v)] = acc.get(abs(v), 0) + w
    points = sorted(acc)
    return _from_ints(d.scale, points, d.den, [acc[v] for v in points])


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
    # Points are integers, so an end t/q becomes an integer bound:
    # x > t/q iff x >= t//q + 1, and x >= t/q iff x > (t-1)/q; mirrored above.
    lo_i, hi_i = d.points[0], d.points[-1]
    if lo_q is not None:
        lo_i = (lo_q.numerator * d.scale - bool(lo_closed)) // lo_q.denominator + 1
    if hi_q is not None:
        hi_i = (hi_q.numerator * d.scale - (not hi_closed)) // hi_q.denominator
    return Fraction(d.window(lo_i, hi_i), d.den)


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
        k = (as_rational(v) - self.origin) / self.step
        if k.denominator == 1 and 0 <= k < len(self.numerators):
            return Fraction(self.numerators[k.numerator], self.denominator)
        return Fraction(0)

    def to_dist(self) -> DiscreteDist:
        scale = lcm(self.origin.denominator, self.step.denominator)
        x0, g = (q.numerator * scale // q.denominator for q in (self.origin, self.step))
        points = [x0 + i * g for i, n in enumerate(self.numerators) if n]
        return _from_ints(scale, points, self.denominator, [n for n in self.numerators if n])


def _lattice(origin: Fraction, step: Fraction, nums: Tuple[int, ...], den: int) -> LatticeDist:
    """A lattice built from valid operands by the kernels below; not re-validated."""
    lat = object.__new__(LatticeDist)
    lat.__dict__.update(origin=origin, step=step, numerators=nums, denominator=den)
    return lat


def _check_sites(size: int) -> None:
    limit = support_cap()
    if size > limit:
        raise ResourceLimit(f"law spans {size} lattice sites, over the cap of {limit}")


def to_lattice(d: DiscreteDist) -> LatticeDist:
    """The law on its coarsest arithmetic progression: its dense view `d._dense`."""
    x0, g, nums = d._dense
    return _lattice(Fraction(x0, d.scale), Fraction(g, d.scale), nums, d.den)


def _slot_bytes(bound: int) -> int:
    """Bytes per packed slot: enough for every site numerator up to bound."""
    return (bound.bit_length() + 7) // 8


def _pack(nums: Iterable[int], wb: int) -> int:
    """One int holding the i-th of nums in its wb-byte slot i, slot 0 lowest."""
    buf = bytearray()
    for raw in map(int.to_bytes, nums, repeat(wb), repeat("little")):
        buf += raw
    return int.from_bytes(buf, "little")


def _unpack(x: int, wb: int, i: int, j: int) -> Iterator[int]:
    """Slots i..j-1 of x, packed in wb-byte slots."""
    size = max(j - i, 0) * wb
    raw = ((x >> (8 * wb * i)) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    return map(int.from_bytes, chain.from_iterable(iter_unpack(f"{wb}s", raw)), repeat("little"))


def _widen(x: int, wb: int, wider: int, size: int) -> int:
    """x's slots 0..size-1, moved from wb-byte to wider-byte slots: one zero-padded join."""
    raw = x.to_bytes(max(size, 0) * wb, "little")
    slots = [raw[i : i + wb] for i in range(0, len(raw), wb)]
    return int.from_bytes(bytes(wider - wb).join(slots), "little")


def _shift_add(x: int, off: int, y: Iterable[Tuple[int, int]], lo: int, hi: int, wb: int) -> int:
    """Sites lo..hi, packed, of x * y: x's wb-byte slot t is site off + t, y yields (site, m).

    One shifted, scaled copy of x per nonzero site of y; exact when every site numerator
    of the product fits a slot, since no slot then carries into the next.  The sum starts
    at the first kept copy, and the slots past hi are cleared by XOR-ing them back out.
    """
    w, size = 8 * wb, hi - lo + 1
    out = 0
    for j, m in y:
        s = off + j - lo
        if m and s < size:
            t = (x * m) << (s * w) if s >= 0 else (x >> (-s * w)) * m
            out = out + t if out else t
    keep = max(size, 0) * w
    return out ^ ((out >> keep) << keep) if out.bit_length() > keep else out


def lattice_convolve(a: LatticeDist, b: LatticeDist) -> LatticeDist:
    """Exact convolution of two lattice laws.

    On one step the denser law is packed into one int, a site per slot wide
    enough for the product's denominator, and each nonzero site of the
    sparser law adds a shifted, scaled copy of it (`_shift_add`).  Laws on
    different steps are convolved as finite laws and embedded by
    `to_lattice` on the coarsest step of the result's support, the gcd of
    the two supports' steps; one above `support_cap()` sites raises
    ResourceLimit before any pair is formed.
    """
    if a.step != b.step:
        scale = lcm(a.step.denominator, b.step.denominator)
        ga, gb = (q.numerator * scale // q.denominator for q in (a.step, b.step))
        offsets = [i * ga for i, m in enumerate(a.numerators) if m]
        offsets += [j * gb for j, m in enumerate(b.numerators) if m]
        g = gcd(*offsets)
        _check_sites(((len(a) - 1) * ga + (len(b) - 1) * gb) // g + 1 if g else 1)
        return to_lattice(convolve(a.to_dist(), b.to_dist()))
    den, size = a.denominator * b.denominator, len(a) + len(b) - 1
    wb = _slot_bytes(den)
    # Pack the operand with more nonzero sites and loop over the other's.
    wide, narrow = sorted((a.numerators, b.numerators), key=lambda t: t.count(0) - len(t))
    out = _shift_add(_pack(wide, wb), 0, enumerate(narrow), 0, size - 1, wb)
    return _lattice(a.origin + b.origin, a.step, tuple(_unpack(out, wb, 0, size)), den)


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
    return make_dist(pairs), sum(w for _, w in pairs) != 1


def to_json(d: DiscreteDist) -> str:
    return json.dumps(dist_to_json_dict(d))


def from_json(text: str) -> Tuple[DiscreteDist, bool]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDistribution(f"invalid JSON: {exc}") from exc
    return dist_from_json_dict(obj)
