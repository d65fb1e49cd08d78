"""Comparison of P(|X+Y| <= c) against 2 P(|X-Y| <= c) for i.i.d. pairs.

For a finite law both probabilities are right-continuous step functions of
c, jumping only at the pair values |x_i + x_j| and |x_i - x_j|.  Scanning
those breakpoints is therefore an exhaustive search for the best constant
gamma = sup over c > 0 of the ratio, which is always strictly below 2.
"""

from __future__ import annotations

import csv
import io
import random
from bisect import bisect_right
from dataclasses import dataclass, fields
from fractions import Fraction
from math import exp, ulp
from operator import attrgetter
from typing import List, Tuple

from .dist import DiscreteDist, make_dist, support_cap
from .errors import InvalidThreshold, ResourceLimit, TheoremViolation
from .rationals import RationalLike, as_rational, format_exact, format_rational

_MODES = ("sum", "diff")


@dataclass(frozen=True)
class RatioRow:
    c: Fraction
    num: Fraction
    den: Fraction
    ratio: Fraction


@dataclass(frozen=True)
class RatioReport:
    """Breakpoint scan of the two pair probabilities and the constant gamma.

    gamma is the maximum ratio over all breakpoints.  Both step functions
    are constant between breakpoints, so this equals the supremum of the
    ratio over all c > 0 (the row at c = 0, when present, represents the
    open interval up to the next breakpoint).  argmax_c is a positive
    threshold attaining gamma: the midpoint of the first maximizing
    plateau, or its left edge clamped up to 1 when the plateau is final.
    """

    rows: Tuple[RatioRow, ...]
    gamma: Fraction
    argmax_c: Fraction

    @property
    def breakpoints(self) -> Tuple[Fraction, ...]:
        return tuple(row.c for row in self.rows)

    def ratio_at(self, c: RationalLike) -> Fraction:
        """Ratio of the two step functions at any threshold c >= 0."""
        c = as_rational(c)
        if c < 0:
            raise ValueError(f"threshold must be nonnegative, got {c}")
        bps = self.breakpoints
        i = bisect_right(bps, c)
        if i == 0:
            return Fraction(0)
        return self.rows[i - 1].ratio

    def to_csv(self) -> str:
        """One row per breakpoint, its columns `RatioRow`'s fields in their order."""
        names = [f.name for f in fields(RatioRow)]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(names)
        writer.writerows(map(format_exact, map(attrgetter(*names), self.rows)))
        return buf.getvalue()

    def summary_json_dict(self) -> dict:
        return {
            "gamma": format_rational(self.gamma),
            "argmax_c": format_rational(self.argmax_c),
        }


def pair_abs_prob(d: DiscreteDist, c: RationalLike, mode: str) -> Fraction:
    """Exact P(|X+Y| <= c) or P(|X-Y| <= c) for independent X, Y ~ d."""
    c = as_rational(c)
    if c < 0:
        raise ValueError(f"threshold must be nonnegative, got {c}")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    # Scaled pair sums are integers, so |x +- y| <= c is |X +- Y| <= floor(c * scale):
    # Y lies within k of -X for the sum and of X for the difference.
    k = c.numerator * d.scale // c.denominator
    sign = -1 if mode == "sum" else 1
    total = sum(m * d.window(sign * x - k, sign * x + k) for x, m in zip(d.points, d.masses))
    return Fraction(total, d.den * d.den)


def ratio_scan(d: DiscreteDist) -> RatioReport:
    """Evaluate num, den, and their ratio at every breakpoint; report gamma."""
    atoms = tuple(zip(d.points, d.masses))
    # Scaled breakpoint -> [weight of |X+Y| there, weight of |X-Y| there].
    table: dict[int, List[int]] = {}
    for x, mx in atoms:
        for y, my in atoms:
            m = mx * my
            table.setdefault(abs(x + y), [0, 0])[0] += m
            table.setdefault(abs(x - y), [0, 0])[1] += m
    total = d.den * d.den
    rows = []
    num = den = 0
    best_num, best_den, first = -1, 1, 0
    for i, c_int in enumerate(sorted(table)):
        num += table[c_int][0]
        den += table[c_int][1]
        c = Fraction(c_int, d.scale)
        if den <= 0:
            raise TheoremViolation(f"P(|X-Y| <= {c}) = 0, impossible for c >= 0")
        if num >= 2 * den:
            raise TheoremViolation(f"ratio {Fraction(num, den)} >= 2 at c = {c}")
        if num * best_den > best_num * den:
            best_num, best_den, first = num, den, i
        rows.append(RatioRow(c, Fraction(num, total), Fraction(den, total), Fraction(num, den)))
    gamma = rows[first].ratio
    if first + 1 < len(rows):
        argmax_c = (rows[first].c + rows[first + 1].c) / 2
    else:
        argmax_c = max(rows[first].c, Fraction(1))
    return RatioReport(tuple(rows), gamma, argmax_c)


def optimality_family(n: int) -> DiscreteDist:
    """Uniform law on {-2n+1, -2n+3, ..., -1} and {2, 4, ..., 2n}.

    Its ratio at c = 3/2 is at least 2(1 - 1/n), approaching the constant 2.
    More than `support_cap()` atoms raise ResourceLimit before any is built.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    limit = support_cap()
    if 2 * n > limit:
        raise ResourceLimit(f"optimality family has {2 * n} atoms, over the cap of {limit}")
    values = list(range(-2 * n + 1, 0, 2)) + list(range(2, 2 * n + 1, 2))
    return make_dist([(v, 1) for v in values])


def random_threshold_check(d: DiscreteDist, w: DiscreteDist) -> Tuple[Fraction, Fraction]:
    """Exact (P(|X+Y| <= W), P(|X-Y| <= W)) with W ~ w independent of X, Y.

    The threshold law must be supported on [0, inf).  Conditioning on W
    keeps the factor-2 comparison valid at every atom: thresholds c > 0 by
    the strict inequality, and c = 0 because P(X = -Y) <= P(X = Y) (sum of
    p(x) p(-x) against sum of p(x)^2, Cauchy-Schwarz).
    """
    if w.points[0] < 0:
        raise InvalidThreshold(f"threshold law has a negative atom at {w.atoms[0][0]}")
    total_sum = Fraction(0)
    total_diff = Fraction(0)
    for c, weight in w.atoms:
        total_sum += weight * pair_abs_prob(d, c, "sum")
        total_diff += weight * pair_abs_prob(d, c, "diff")
    return total_sum, total_diff


# The smallest positive float: the geometric cooling schedule underflows to
# exactly 0.0 from iteration 741,818 on, and the floor changes no earlier
# temperature while keeping the acceptance ratio's divisor positive.
_MIN_TEMPERATURE = ulp(0.0)


def _temperature(it: int) -> float:
    return max(0.05 * (0.999 ** it), _MIN_TEMPERATURE)


def adversarial_search(n_atoms: int, iterations: int, seed: int) -> Tuple[DiscreteDist, Fraction]:
    """Stochastic hill-climb over n_atoms-point laws maximizing gamma.

    Values and weights are perturbed by bounded rational moves with a
    simulated-annealing acceptance rule; scoring is exact, so the search
    cannot be misled by rounding.  Deterministic given the seed.  Starts
    from the optimality family, so the result never scores below it.
    """
    if not isinstance(n_atoms, int) or n_atoms < 2:
        raise ValueError(f"n_atoms must be an integer >= 2, got {n_atoms}")
    if not isinstance(iterations, int) or iterations < 1:
        raise ValueError(f"iterations must be a positive integer, got {iterations}")
    rng = random.Random(seed)
    base = optimality_family((n_atoms + 1) // 2)
    values = list(base.values)
    while len(values) > n_atoms:
        values.pop(0)
    current = make_dist([(v, 1) for v in values])
    current_gamma = ratio_scan(current).gamma
    best, best_gamma = current, current_gamma
    span = 4 * n_atoms
    for it in range(iterations):
        atoms = list(current.atoms)
        i = rng.randrange(len(atoms))
        v, w = atoms[i]
        move = rng.randrange(3)
        if move == 0:
            delta = Fraction(rng.choice([-4, -2, -1, 1, 2, 4]), rng.choice([1, 2, 4]))
            atoms[i] = (v + delta, w)
        elif move == 1:
            factor = Fraction(rng.randint(1, 4), rng.randint(1, 4))
            atoms[i] = (v, w * factor)
        else:
            atoms[i] = (Fraction(rng.randint(-span, span)), w)
        candidate = make_dist(atoms)
        if len(candidate) != n_atoms:
            continue
        gamma = ratio_scan(candidate).gamma
        temp = _temperature(it)
        if gamma >= current_gamma or rng.random() < exp(float(gamma - current_gamma) / temp):
            current, current_gamma = candidate, gamma
            if gamma > best_gamma:
                best, best_gamma = candidate, gamma
    return best, best_gamma
