"""Exact walk marginals, level-crossing probabilities, and bound checks.

The walk is S_n = X_1 + ... + X_n with i.i.d. steps from a finite rational
law and S_0 = 0.  A crossing of level l at time n is the event
sgn(S_n - l) != sgn(S_{n-1} - l) with the three-valued sign (sgn(0) = 0),
so touching the level exactly counts.  All probabilities are exact; the
only floats are the sqrt(n)-scaled display columns.  One engine keeps each
marginal on the step law's dense view as one packed int (see `lcross.dist`):
`walk_marginals` reads it whole; the scan keeps only the sites from which a
later window can be reached, and answers each step's crossing and domination
probabilities as two dot products with weights fixed by the law and level.
Each scan row costs shifted adds on about min(n, H - n) * |step| slots, and
lists the step's (site, mass) pairs only to add copies of S_{n-1} over them:
never at H = 1, and at H = 2 only for a point-mass step.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from math import sqrt
from operator import mul
from typing import Iterator, List, Optional, Tuple

# lattice_convolve and to_lattice stay bound: perfbench/spans.py traces them in this namespace.
from .dist import DiscreteDist, lattice_convolve, support_cap, to_lattice  # noqa: F401
from .dist import _from_ints, _pack, _shift_add, _slot_bytes, _unpack, _widen
from .errors import NotApplicable, ResourceLimit
from .rationals import RationalLike, as_rational, format_exact, format_rational, over_power


# The CSV's spelling of a bound flag; None is a bound whose hypothesis is not met.
_FLAGS = {True: "true", False: "false", None: "na"}

# Each JSON row's keys, in order, with the CrossingRow field each one reads.
_ROW_KEYS = (
    ("n", "n"), ("p_n", "p"), ("sqrt_n_p_n", "scaled"), ("atom_at_level", "atom_at_level"),
    ("P_Sn_eq_0", "zero_mass"), ("lower_bound_ok", "lower_bound_ok"),
    ("chain_bound_ok", "chain_bound_ok"), ("domination_ok", "domination_ok"),
)


@dataclass(frozen=True)
class WalkSpec:
    """Step law, level and horizon; signs are three-valued, sgn(0) = 0."""

    step: DiscreteDist
    level: Fraction = Fraction(0)
    horizon: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "level", as_rational(self.level))
        if not isinstance(self.horizon, int) or self.horizon < 1:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon}")


@dataclass(frozen=True)
class CrossingRow:
    """Exact per-step crossing data; bound flags are None when not applicable."""

    n: int
    p: Fraction
    atom_at_level: Fraction
    zero_mass: Fraction
    scaled: float
    lower_bound_ok: Optional[bool]
    chain_bound_ok: Optional[bool]
    domination_ok: Optional[bool]


@dataclass(frozen=True)
class CrossingReport:
    level: Fraction
    horizon: int
    symmetric: bool
    rows: Tuple[CrossingRow, ...]

    def all_bounds_hold(self) -> bool:
        """True when every applicable bound flag is true."""
        for row in self.rows:
            for flag in (row.lower_bound_ok, row.chain_bound_ok, row.domination_ok):
                if flag is False:
                    return False
        return True

    def to_csv(self) -> str:
        """The JSON rows without atom_at_level, each `*_ok` flag spelled true, false or na."""
        rows = self.to_json_dict()["rows"]
        keys = [k for k, _ in _ROW_KEYS if k != "atom_at_level"]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_FLAGS[row[k]] if k.endswith("_ok") else row[k] for k in keys])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "level": format_rational(self.level),
            "horizon": self.horizon,
            "symmetric": self.symmetric,
            "rows": [
                {key: format_exact(getattr(row, name)) for key, name in _ROW_KEYS}
                for row in self.rows
            ],
        }


def _check_horizon(spec: WalkSpec) -> None:
    """Refuse a horizon whose S_horizon spans more sites than the cap.

    The step law's dense view spans width + 1 sites, so S_n spans n*width + 1.
    """
    width = len(spec.step._dense[2]) - 1
    limit = support_cap()
    if spec.horizon * width + 1 > limit:
        # S_n spans n*width + 1 sites; name the first n over the cap.
        raise ResourceLimit(
            f"marginal support at n={(limit - 1) // width + 1} exceeds the cap of "
            f"{limit} lattice sites"
        )


def _powers(
    x0: int, g: int, nums: Tuple[int, ...], base: int, last: int, q_lo: int, q_hi: int
) -> Iterator[Tuple[int, ...]]:
    """Yield (n, den, S_n, lo, hi, wb): S_n's sites lo..hi over den = base^n, packed.

    Step site j lies at x0 + j*g with mass nums[j] / base, S_n's site i at n*x0 + i*g in
    wb-byte slot i - lo.  S_n is kept on R_n, the sites that can reach [q_lo, q_hi] in the
    remaining last - n steps, so the shifted adds on R_n are exact: R_n - [x0, v_max] lies
    in R_{n-1}.  Slots hold base^cap, cap doubling up to last as n passes it (`_widen`).
    """
    end, nnz, pairs = len(nums), len(nums) - nums.count(0), None
    width, v_max = end - 1, x0 + (end - 1) * g
    da, db = x0 - max(v_max, 0), min(x0, 0) - x0  # R_n: (a + n*da) // g, (b + n*db) // g
    a, b = last * max(v_max, 0) - q_lo, q_hi - last * min(x0, 0)
    cap, wb = 1, _slot_bytes(base)
    step_x = _pack(nums, wb)
    cur, lo, hi, den = 1, 0, 0, 1  # S_0, the point mass at 0
    for n, a_n, b_n in zip(range(1, last + 1), count(a + da, da), count(b + db, db)):
        if n > cap:  # widen the slots to hold base^cap, the largest numerator up to S_cap
            cap = min(2 * cap, last)
            wider = _slot_bytes(base**cap)
            if wider > wb:
                cur, step_x = _widen(cur, wb, wider, hi - lo + 1), _widen(step_x, wb, wider, end)
                wb = wider
        i_lo, i_hi = max(-(a_n // g), 0), min(b_n // g, n * width)
        if hi - lo + 1 < nnz:  # then S_{n-1} has fewer nonzero sites than the step
            mine = enumerate(_unpack(cur, wb, 0, hi - lo + 1), lo)
            cur = _shift_add(step_x, 0, mine, i_lo, i_hi, wb)
        else:  # the step's nonzero (site, mass) pairs, listed on first use
            pairs = pairs or [(j, m) for j, m in enumerate(nums) if m]
            cur = _shift_add(cur, lo, pairs, i_lo, i_hi, wb)
        lo, hi = i_lo, i_hi
        den *= base
        yield n, den, cur, lo, hi, wb


def _scan(spec: WalkSpec, last: int) -> Iterator[Tuple[int, ...]]:
    """Yield (n, den, cross, dom, at_level, at_zero) for n = 1..last, numerators over den = D^n.

    cross gives p_n, dom P(|S_{n-1}| <= |X_n|) at level 0 (0 at other levels), at_level
    and at_zero S_n's masses at the level and at 0, in `DiscreteDist.joint`'s units: step
    site j at x0 + j*g, S_n's site i at n*x0 + i*g.  A step v != 0 changes the sign of
    y - l exactly when y lies between l - v and l, ends included.  So with F(c) the step
    mass at v <= c for c < 0, at v >= c for c > 0 and at v != 0 for c = 0, p_n and the
    bound are S_{n-1}'s dot products with w_cross(y) = F(l - y) and w_dom(y) = F(y) +
    F(-y) (D at y = 0), zero outside Q, the hull of those windows, l and 0.  The weights
    are F read through the step law's window query, cached per residue mod g.
    """
    s = spec.step
    k, l = s.joint(spec.level)
    x0, g, nums = s._dense
    x0, g, v_max = x0 * k, g * k, (x0 + (len(nums) - 1) * g) * k
    q_lo, q_hi = min(l - v_max, l, x0, -v_max), max(l - x0, l, -x0, v_max)
    w_lo = max(q_lo, (last - 1) * min(x0, 0))  # the weights cover Q's part of S_0..S_{last-1}
    w_hi = min(q_hi, (last - 1) * max(v_max, 0))

    def tail(c: int) -> int:
        """F(c), read through the step law's window query in its own units."""
        if c < 0:
            return s.window(s.points[0], c // k)
        return s.window(-(-c // k), s.points[-1]) if c else s.den - s.window(0, 0)

    def weights(y0: int) -> Tuple[List[int], List[int]]:
        """w_cross and w_dom at y0 + t*g up to w_hi, for w_lo <= y0 < w_lo + g."""
        ys = range(y0, w_hi + 1, g)
        cross = [tail(l - y) for y in ys]  # F(l - y), so F(-y) at l = 0
        # Built at level 0 only, where the bound is read; at y = 0 every v has |v| >= 0.
        dom = [tail(y) + c if y else s.den for y, c in zip(ys, cross)] if l == 0 else []
        return cross, dom

    def mass(z: int) -> int:
        """S_n's mass at z, sum_j nums[j] * S_{n-1}(z - x0 - j*g), off S_{n-1}'s slots in Q."""
        t, r = divmod(z - x0 - y, g)  # the slot of S_{n-1} that step site 0 moves to z
        j_lo, j_hi = max(t - len(vals) + 1, 0), min(t, len(nums) - 1)
        if r or j_lo > j_hi:
            return 0
        return sum(map(mul, nums[j_lo : j_hi + 1], reversed(vals[t - j_hi : t - j_lo + 1])))

    # S_last is never built: each row reads S_n's two masses off S_{n-1}, whose slots in Q
    # cover [l - v_max, l - x0] and [-v_max, -x0].
    powers = _powers(x0, g, nums, s.den, last - 1, q_lo, q_hi)
    cache, vals, y, den = {}, [1], 0, 1  # S_0's slots in Q, the first at position y
    for n in range(1, last + 1):
        t, r = divmod(y - w_lo, g)  # S_{n-1}'s first slot: entry t of residue r's weights
        w_cross, w_dom = cache.get(r) or cache.setdefault(r, weights(w_lo + r))
        cross = sum(map(mul, vals, w_cross[t : t + len(vals)]))
        dom = sum(map(mul, vals, w_dom[t : t + len(vals)])) if l == 0 else 0
        at_level = mass(l)
        yield n, den * s.den, cross, dom, at_level, at_level if l == 0 else mass(0)
        if n < last:
            _, den, cur, lo, hi, wb = next(powers)
            a = max(-((n * x0 - q_lo) // g), lo)  # S_n's sites a..b lie in Q
            b = min((q_hi - n * x0) // g, hi)
            vals, y = list(_unpack(cur, wb, a - lo, b - lo + 1)), n * x0 + a * g


def walk_marginals(spec: WalkSpec) -> List[DiscreteDist]:
    """Exact laws of S_1..S_horizon (S_0 is the implicit point mass at 0)."""
    _check_horizon(spec)
    s, last = spec.step, spec.horizon
    x0, g, nums = s._dense
    hull = last * min(x0, 0), last * max(x0 + (len(nums) - 1) * g, 0)  # all of S_1..S_last
    out = []
    for n, den, cur, lo, hi, wb in _powers(x0, g, nums, s.den, last, *hull):
        masses = list(_unpack(cur, wb, 0, hi - lo + 1))
        points = compress(range(n * x0, n * x0 + len(masses) * g, g), masses)
        out.append(_from_ints(s.scale, list(points), den, list(compress(masses, masses))))
    return out


def crossing_prob(spec: WalkSpec, n: int) -> Fraction:
    """Exact P(sgn(S_n - l) != sgn(S_{n-1} - l))."""
    if not isinstance(n, int) or not 1 <= n <= spec.horizon:
        raise ValueError(f"n must be in 1..{spec.horizon}, got {n}")
    _check_horizon(spec)
    _, den, cross, *_ = deque(_scan(spec, n), maxlen=1)[0]  # the last row
    return over_power(cross, den, spec.step.den)


def dominated_crossing_bound(spec: WalkSpec, n: int) -> Fraction:
    """Exact P(|S_{n-1}| <= |X_n|), the one-step domination bound at level 0."""
    if spec.level != 0:
        raise NotApplicable("the domination bound is defined for level 0 only")
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    if n > spec.horizon:
        raise ValueError(f"n must be at most the horizon {spec.horizon}, got {n}")
    _check_horizon(spec)
    _, den, _, dom, *_ = deque(_scan(spec, n), maxlen=1)[0]
    return over_power(dom, den, spec.step.den)


def concentration(d: DiscreteDist, lam: RationalLike) -> Fraction:
    """Maximal mass of a closed window of width lam, sup_x P(x <= U <= x+lam).

    The supremum is attained with the window's left edge at an atom, so a
    scan anchored at atoms is exhaustive.
    """
    lam = as_rational(lam)
    if lam < 0:
        raise ValueError(f"window width must be nonnegative, got {lam}")
    width = lam.numerator * d.scale // lam.denominator
    return Fraction(max(d.window(x, x + width) for x in d.points), d.den)


def expected_sign_changes(spec: WalkSpec) -> Fraction:
    """Exact expected number of sign changes up to the horizon, E[N_N]."""
    if spec.level != 0:
        raise NotApplicable("sign-change counting is defined for level 0 only")
    _check_horizon(spec)
    base, total = spec.step.den, 0
    for _, den, cross, *_ in _scan(spec, spec.horizon):
        total = total * base + cross  # sum of cross_n * D^(H - n), over D^H
    return over_power(total, den, base)


def crossing_table(spec: WalkSpec) -> CrossingReport:
    """Per-n crossing probabilities with exact bound verdicts.

    Three flags per row, each None when its hypothesis is not met:
    lower_bound_ok checks p_n >= (1 - P(X=0)^n) / (2n) for symmetric steps
    at level 0; chain_bound_ok checks p_n <= 2 P(S_n=0) + 2 n^{-1/2} in the
    same regime, decided exactly by squaring; domination_ok checks
    p_n <= P(|S_{n-1}| <= |X_n|) at level 0 for n >= 2.
    """
    _check_horizon(spec)
    symmetric = spec.step.is_symmetric()
    at_zero_level = spec.level == 0
    z = spec.step.window(0, 0)  # P(X = 0)^n = z^n / den
    z_pow = 1
    rows = []
    for n, den, cross, dom, at_level, at_zero in _scan(spec, spec.horizon):
        p = over_power(cross, den, spec.step.den)
        atom = over_power(at_level, den, spec.step.den)
        zero_mass = atom if at_zero_level else over_power(at_zero, den, spec.step.den)
        z_pow *= z
        slack = cross - 2 * at_zero
        bounds = symmetric and at_zero_level
        lower_ok = 2 * n * cross >= den - z_pow if bounds else None
        chain_ok = (slack <= 0 or n * slack * slack <= 4 * den * den) if bounds else None
        dom_ok = cross <= dom if at_zero_level and n >= 2 else None
        scaled = sqrt(n) * (cross / den)  # the float of p, correctly rounded
        row = object.__new__(CrossingRow)  # a frozen __init__ sets each field by object.__setattr__
        row.__dict__.update(n=n, p=p, atom_at_level=atom, zero_mass=zero_mass, scaled=scaled,
                            lower_bound_ok=lower_ok, chain_bound_ok=chain_ok, domination_ok=dom_ok)
        rows.append(row)
    return CrossingReport(spec.level, spec.horizon, symmetric, tuple(rows))
