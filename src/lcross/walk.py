"""Exact walk marginals, level-crossing probabilities, and bound checks.

The walk is S_n = X_1 + ... + X_n with i.i.d. steps from a finite rational
law and S_0 = 0.  A crossing of level l at time n is the event
sgn(S_n - l) != sgn(S_{n-1} - l) with the three-valued sign (sgn(0) = 0),
so touching the level exactly counts.  All probabilities are exact; the
only floats are the sqrt(n)-scaled display columns.  The scan keeps each
marginal on the step law's dense view as one packed int (see `lcross.dist`),
only at the sites from which a later window can still be reached, and
answers the crossing and domination probabilities of every step as dot
products of the step numerators with one prefix table of the previous
marginal, built from the few slots the windows can touch.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import sqrt
from operator import mul
from typing import Iterator, List, Optional, Tuple

from .dist import DiscreteDist, lattice_convolve, support_cap, to_lattice
from .dist import _pack, _shift_add, _slot_bytes, _unpack, _widen
from .errors import NotApplicable, ResourceLimit
from .rationals import RationalLike, as_rational, format_rational


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
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            [
                "n",
                "p_n",
                "sqrt_n_p_n",
                "P_Sn_eq_0",
                "lower_bound_ok",
                "chain_bound_ok",
                "domination_ok",
            ]
        )
        for row in self.rows:
            writer.writerow(
                [
                    row.n,
                    format_rational(row.p),
                    repr(row.scaled),
                    format_rational(row.zero_mass),
                    _flag_str(row.lower_bound_ok),
                    _flag_str(row.chain_bound_ok),
                    _flag_str(row.domination_ok),
                ]
            )
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "level": format_rational(self.level),
            "horizon": self.horizon,
            "symmetric": self.symmetric,
            "rows": [
                {
                    "n": row.n,
                    "p_n": format_rational(row.p),
                    "sqrt_n_p_n": row.scaled,
                    "atom_at_level": format_rational(row.atom_at_level),
                    "P_Sn_eq_0": format_rational(row.zero_mass),
                    "lower_bound_ok": row.lower_bound_ok,
                    "chain_bound_ok": row.chain_bound_ok,
                    "domination_ok": row.domination_ok,
                }
                for row in self.rows
            ],
        }


def _flag_str(flag: Optional[bool]) -> str:
    if flag is None:
        return "na"
    return "true" if flag else "false"


def _dot(nums, ext: List[int], i: int, j0: int, j1: int) -> int:
    """Sum of nums[j] * ext[i + j] over j0 <= j < j1."""
    return sum(map(mul, nums[j0:j1], ext[i + j0 : i + j1]))


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


def _scan(spec: WalkSpec, last: int) -> Iterator[Tuple[int, ...]]:
    """Yield (n, den, cross, dom, at_level, at_zero) for n = 1..last, numerators over den = D^n.

    cross and dom give p_n and P(|S_{n-1}| <= |X_n|), at_level and at_zero S_n's masses
    at the level and at 0.  Positions are integers over the lcm of the step law's value
    scale and the level's denominator (`DiscreteDist.joint`): site j of the step law's
    dense view at x0 + j*g, the level at l, site i of S_n at n*x0 + i*g.  A step v != 0
    changes the sign of x - l exactly when x lies between l - v and l, ends included,
    so p_n and the domination bound are masses of S_{n-1} in windows inside Q, the hull
    of them, l and 0.  S_n is kept only on R_n, Q widened by what last - n more steps
    can cover: R_n - [x0, v_max] lies in R_{n-1}, so the shifted adds restricted to R_n
    are exact there.

    S_n stays one packed int over the whole scan, a site per slot of `_slot_bytes(D^cap)`
    bytes.  cap starts at 1 and doubles, up to last, each time n passes it; S_{n-1} and
    the packed step then move to the wider slots (`_widen`), about log2(last) times in
    all.  Every numerator of S_n is at most D^n <= D^cap, so no slot carries, and an early
    step works on slots about as narrow as its marginal's numerators rather than D^last's.
    Each n unpacks only its slots in Q into a prefix table, and as the step sites j run
    up, the windows' ends move one table index per site; so each window sum over all step
    sites of one sign of v is a dot product of the step numerators with a contiguous slice
    of the table, clamped at its ends.  The product loops over the step's nonzero sites,
    or over S_{n-1}'s when it keeps fewer sites than the step has nonzero ones.
    """
    s = spec.step
    k, l = s.joint(spec.level)
    x0, g, nums = s._dense
    rev, width = nums[::-1], len(nums) - 1
    x0, g, v_max = x0 * k, g * k, (x0 + width * g) * k
    reach = max(v_max, -x0)  # max |v|
    q_lo, q_hi = min(l - v_max, l, -reach), max(l - x0, l, reach)
    end = width + 1
    # Step sites j < neg have v < 0, and sites j >= pos have v > 0.
    neg = min(max(-(x0 // g), 0), end)
    pos = min(max(-x0 // g + 1, 0), end)
    m_neg, m_pos = sum(nums[:neg]), sum(nums[pos:])
    cap, wb = 1, _slot_bytes(s.den)
    nonzero = len(nums) - nums.count(0)
    step_x = _pack(nums, wb)
    # Each sum reads the table up from a start: the table index past the sites at or
    # below a position t (the sites below t are those at or below t - 1), less `width`
    # where the reads run down from t as j runs up; those run up the reversed numerators.
    starts = [(l, 0), (l - 1, 0), (l - x0 - 1, width), (l - x0, width), (x0, 0), (-x0 - 1, width)]
    starts += [(-x0, width), (x0 - 1, 0), (0, 0), (-1, 0)]

    def table(prefix: List[int], base: int) -> Tuple[List[int], List[int]]:
        """The prefix table padded by `end` copies of its ends, and its indices of `starts`.

        A read covers at most `end` entries up from its start, so a start before the
        padding (every read 0) or past the table (every read its total) is clamped to
        the padding's first entry or the table's last, which reads the same values.
        """
        ext = [0] * end + prefix + [prefix[-1]] * end
        top = len(prefix) + end - 1
        ix = [(t - base) // g + 1 + end - d for t, d in starts]
        return ext, [0 if i < 0 else top if i > top else i for i in ix]

    cur, lo, hi, den = 1, 0, 0, 1  # S_0, the point mass at 0
    ext, ix = table([0, 1], 0)
    for n in range(1, last + 1):
        # le_t, lt_t: the starts for the sites at or below t and below t; lx = l - x0, mx = -x0.
        le_l, lt_l, lt_lx, le_lx, le_x, lt_mx, le_mx, lt_x, _, _ = ix
        # A step v > 0 crosses from [l - v, l], a step v < 0 from [l, l - v].
        cross = (
            ext[le_l] * m_pos
            - _dot(rev, ext, lt_lx, 0, end - pos)
            + _dot(rev, ext, le_lx, end - neg, end)
            - ext[lt_l] * m_neg
        )
        # Window [-|v|, |v|]: [-v, v] for v >= 0, [v, -v] for v < 0.
        dom = (
            _dot(nums, ext, le_x, neg, end)
            - _dot(rev, ext, lt_mx, 0, end - neg)
            + _dot(rev, ext, le_mx, end - neg, end)
            - _dot(nums, ext, lt_x, 0, neg)
        )
        if n > cap:  # widen the slots to hold D^cap, the largest numerator up to S_cap
            cap = min(2 * cap, last)
            wider = _slot_bytes(s.den**cap)
            if wider > wb:
                cur, step_x = _widen(cur, wb, wider, hi - lo + 1), _widen(step_x, wb, wider, end)
                wb = wider
        i_lo = max(-((n * x0 + (last - n) * max(v_max, 0) - q_lo) // g), 0)
        i_hi = min((q_hi - (last - n) * min(x0, 0) - n * x0) // g, n * width)
        if hi - lo + 1 < nonzero:  # then S_{n-1} has fewer nonzero sites than the step
            mine = enumerate(_unpack(cur, wb, 0, hi - lo + 1), lo)
            cur = _shift_add(step_x, 0, mine, i_lo, i_hi, wb)
        else:
            cur = _shift_add(cur, lo, enumerate(nums), i_lo, i_hi, wb)
        lo, hi = i_lo, i_hi
        den *= s.den
        a = max(-((n * x0 - q_lo) // g), lo)  # S_n's sites a..b lie in Q
        b = min((q_hi - n * x0) // g, hi)
        ext, ix = table([0, *accumulate(_unpack(cur, wb, a - lo, b - lo + 1))], n * x0 + a * g)
        yield n, den, cross, dom, ext[ix[0]] - ext[ix[1]], ext[ix[8]] - ext[ix[9]]


def walk_marginals(spec: WalkSpec) -> List[DiscreteDist]:
    """Exact laws of S_1..S_horizon (S_0 is the implicit point mass at 0)."""
    _check_horizon(spec)
    step_lat = to_lattice(spec.step)
    marginals = accumulate(repeat(step_lat, spec.horizon - 1), lattice_convolve, initial=step_lat)
    return [cur.to_dist() for cur in marginals]


def crossing_prob(spec: WalkSpec, n: int) -> Fraction:
    """Exact P(sgn(S_n - l) != sgn(S_{n-1} - l))."""
    if not isinstance(n, int) or not 1 <= n <= spec.horizon:
        raise ValueError(f"n must be in 1..{spec.horizon}, got {n}")
    _check_horizon(spec)
    for _, den, cross, _, _, _ in _scan(spec, n):
        pass
    return Fraction(cross, den)


def dominated_crossing_bound(spec: WalkSpec, n: int) -> Fraction:
    """Exact P(|S_{n-1}| <= |X_n|), the one-step domination bound at level 0."""
    if spec.level != 0:
        raise NotApplicable("the domination bound is defined for level 0 only")
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    if n > spec.horizon:
        raise ValueError(f"n must be at most the horizon {spec.horizon}, got {n}")
    _check_horizon(spec)
    for _, den, _, dom, _, _ in _scan(spec, n):
        pass
    return Fraction(dom, den)


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
    rows = _scan(spec, spec.horizon)
    return sum((Fraction(cross, den) for _, den, cross, *_ in rows), Fraction(0))


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
        p = Fraction(cross, den)
        atom_at_level = Fraction(at_level, den)
        zero_mass = atom_at_level if at_zero_level else Fraction(at_zero, den)
        scaled = sqrt(n) * float(p)
        z_pow *= z
        slack = cross - 2 * at_zero
        bounds = symmetric and at_zero_level
        lower_ok = 2 * n * cross >= den - z_pow if bounds else None
        chain_ok = (slack <= 0 or n * slack * slack <= 4 * den * den) if bounds else None
        dom_ok = cross <= dom if at_zero_level and n >= 2 else None
        rows.append(
            CrossingRow(n, p, atom_at_level, zero_mass, scaled, lower_ok, chain_ok, dom_ok)
        )
    return CrossingReport(spec.level, spec.horizon, symmetric, tuple(rows))
