"""Independent references that every benchmark output is checked against.

Nothing here calls lcross's engines.  Laws are scaled to integers (values
by the lcm of their denominators, weights by the lcm of theirs), and each
check recomputes the answer with plain dictionaries, sorting and prefix
sums.  A check returns None when the output is right and raises Mismatch
naming the first difference otherwise.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Dict, List, Sequence, Tuple


class Mismatch(Exception):
    """A program output differs from the benchmark's reference."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def scaled_law(atoms, extra_dens: Sequence[int] = ()) -> Tuple[int, int, List[Tuple[int, int]]]:
    """(V, D, [(v*V, w*D)]) with V, D the lcms of value and weight denominators."""
    V = lcm(*(v.denominator for v, _ in atoms), *extra_dens)
    D = lcm(*(w.denominator for _, w in atoms))
    return V, D, [(int(v * V), int(w * D)) for v, w in atoms]


# ---------------------------------------------------------------- walk


def _walk_steps(step, level: Fraction):
    """Scaled step atoms, scaled level, weight denominator and tail sums."""
    V, D, atoms = scaled_law(step.atoms, (level.denominator,))
    values = [v for v, _ in atoms]
    suffix = [0] * (len(atoms) + 1)
    for i in range(len(atoms) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + atoms[i][1]
    return V, D, atoms, values, suffix, int(level * V)


def _forward(step, level: Fraction, horizon: int):
    """Yield (n, crossing numerator, S_n numerators by scaled value, D^n, V, D)."""
    V, D, atoms, values, suffix, L = _walk_steps(step, level)
    at_zero = dict(atoms).get(0, 0)
    cur: Dict[int, int] = {0: 1}
    Dn = 1
    for n in range(1, horizon + 1):
        num = 0
        for x, c in cur.items():
            y = x - L
            if y < 0:
                # stays negative unless the step reaches -y
                num += c * suffix[bisect_left(values, -y)]
            elif y == 0:
                num += c * (D - at_zero)
            else:
                num += c * (D - suffix[bisect_right(values, -y)])
        new: Dict[int, int] = {}
        for s, m in atoms:
            for x, c in cur.items():
                k = x + s
                new[k] = new.get(k, 0) + c * m
        Dn *= D
        yield n, num, new, Dn, V, L
        cur = new


def check_crossing_table(spec, report) -> None:
    level = spec.level
    atoms = dict(spec.step.atoms)
    symmetric = all(atoms.get(-v) == w for v, w in atoms.items())
    _require(report.level == level, "report level")
    _require(report.symmetric == symmetric, "report symmetry flag")
    _require(len(report.rows) == spec.horizon, "row count")
    for n, num, new, Dn, V, L in _forward(spec.step, level, spec.horizon):
        row = report.rows[n - 1]
        _require(row.n == n, f"row {n}: index")
        _require(row.p == Fraction(num, Dn), f"row {n}: p_n")
        _require(row.zero_mass == Fraction(new.get(0, 0), Dn), f"row {n}: P(S_n=0)")
        _require(row.atom_at_level == Fraction(new.get(L, 0), Dn), f"row {n}: atom at level")
        if symmetric and level == 0:
            _require(row.lower_bound_ok is True, f"row {n}: lower bound flag")
            _require(row.chain_bound_ok is True, f"row {n}: chain bound flag")
        else:
            _require(row.lower_bound_ok is None and row.chain_bound_ok is None, f"row {n}: flags")
        if level == 0 and n >= 2:
            _require(row.domination_ok is True, f"row {n}: domination flag")
        else:
            _require(row.domination_ok is None, f"row {n}: domination flag")


def check_walk_marginals(spec, marginals) -> None:
    _require(len(marginals) == spec.horizon, "marginal count")
    for n, _, new, Dn, V, _ in _forward(spec.step, Fraction(0), spec.horizon):
        d = marginals[n - 1]
        _require(len(d.atoms) == sum(1 for c in new.values() if c), f"S_{n}: atom count")
        for v, w in d.atoms:
            kv = v * V
            c = new.get(kv.numerator, 0) if kv.denominator == 1 else 0
            _require(c > 0 and w.numerator * Dn == c * w.denominator, f"S_{n}: mass at {v}")


# ------------------------------------------------------- symmetrization


class PairTables:
    """Brute-force pair counts for |X+Y| and |X-Y| on integer-scaled atoms."""

    def __init__(self, d, extra_dens: Sequence[int] = ()) -> None:
        V, D, atoms = scaled_law(d.atoms, extra_dens)
        self.V, self.D2 = V, D * D
        self.tables = {}
        for mode in ("sum", "diff"):
            acc: Dict[int, int] = {}
            for x, wx in atoms:
                for y, wy in atoms:
                    k = abs(x + y) if mode == "sum" else abs(x - y)
                    acc[k] = acc.get(k, 0) + wx * wy
            keys = sorted(acc)
            cum, running = [], 0
            for k in keys:
                running += acc[k]
                cum.append(running)
            self.tables[mode] = (keys, cum)

    def count(self, mode: str, c: Fraction) -> int:
        """Scaled numerator of P(|X+-Y| <= c)."""
        keys, cum = self.tables[mode]
        i = bisect_right(keys, c * self.V)
        return cum[i - 1] if i else 0

    def breakpoints(self) -> List[int]:
        return sorted(set(self.tables["sum"][0]) | set(self.tables["diff"][0]))

    def gamma(self) -> Fraction:
        return max(
            Fraction(self.count("sum", Fraction(k, self.V)), self.count("diff", Fraction(k, self.V)))
            for k in self.breakpoints()
        )


def check_ratio_scan(d, report) -> None:
    t = PairTables(d)
    keys = t.breakpoints()
    _require(len(report.rows) == len(keys), "breakpoint count")
    for row, k in zip(report.rows, keys):
        c = Fraction(k, t.V)
        _require(row.c == c, f"breakpoint {c}")
        num, den = t.count("sum", c), t.count("diff", c)
        _require(row.num == Fraction(num, t.D2), f"num at c={c}")
        _require(row.den == Fraction(den, t.D2), f"den at c={c}")
        ratio = Fraction(num, den)
        _require(row.ratio == ratio and ratio < 2, f"ratio at c={c}")
    _require(report.gamma == t.gamma() and report.gamma < 2, "gamma")


def check_threshold(d, w, out) -> None:
    t = PairTables(d, [c.denominator for c in w.values])
    want_sum = sum((wc * Fraction(t.count("sum", c), t.D2) for c, wc in w.atoms), Fraction(0))
    want_diff = sum((wc * Fraction(t.count("diff", c), t.D2) for c, wc in w.atoms), Fraction(0))
    _require(tuple(out) == (want_sum, want_diff), "randomized-threshold pair masses")
    _require(want_sum <= 2 * want_diff, "factor-2 comparison")


def check_adversarial(n_atoms: int, out) -> None:
    best, gamma = out
    _require(len(best) == n_atoms, "atom count of the best law")
    _require(gamma == PairTables(best).gamma() and gamma < 2, "gamma of the best law")


# ------------------------------------------------------------ dichotomy


def _solve_unique(rows: List[List[Fraction]], rhs: List[Fraction]):
    """Gaussian elimination with back substitution; None unless nonsingular."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        x[r] = (a[r][n] - sum(a[r][j] * x[j] for j in range(r + 1, n))) / a[r][r]
    return x


def face_minimum(A) -> Fraction:
    """min q'Aq over the simplex, from the unique critical points of all faces.

    All solutions of a face's bordered system share one value, and a
    solution set that is not a single point reaches the face's boundary, so
    the minimum is always attained at a unique critical point of some face.
    """
    n = len(A)
    best = None
    for size in range(1, n + 1):
        for face in combinations(range(n), size):
            rows = [[A[i][j] for j in face] + [Fraction(-1)] for i in face]
            rows.append([Fraction(1)] * size + [Fraction(0)])
            sol = _solve_unique(rows, [Fraction(0)] * size + [Fraction(1)])
            if sol is None or any(q <= 0 for q in sol[:size]):
                continue
            if best is None or sol[size] < best:
                best = sol[size]
    return best


def _is_distribution(p, n: int) -> bool:
    return len(p) == n and all(x >= 0 for x in p) and sum(p) == 1


def kernel_entries(family: str, support: Sequence[Fraction]) -> List[List[Fraction]]:
    """Gram entries of the two built-in indicator kernels, from their definitions."""
    if family == "sym2":
        f = lambda x, y: 2 * (abs(x - y) <= 1) - (abs(x + y) <= 1)
    else:
        f = lambda x, y: 3 * (abs(x - y) <= 1) - (abs(x - y) <= 2)
    return [[Fraction(f(x, y)) for y in support] for x in support]


def check_dichotomy(A, verdict) -> None:
    """Certificate checks on the verdict for the symmetric matrix A."""
    n = len(A)
    if verdict.branch == "first_alternative":
        p = verdict.witness
        _require(verdict.min_value is None and verdict.minimizer is None, "extra fields")
        _require(p is not None and _is_distribution(p, n), "witness is not a distribution")
        for i in range(n):
            if p[i] > 0:
                _require(sum(A[i][j] * p[j] for j in range(n)) <= 0, f"(Ap)_{i} > 0")
    elif verdict.branch == "positive_form":
        q, value = verdict.minimizer, verdict.min_value
        _require(verdict.witness is None, "witness on the positive branch")
        _require(value is not None and value > 0, "minimum is not positive")
        _require(q is not None and _is_distribution(q, n), "minimizer is not a distribution")
        form = sum(q[i] * A[i][j] * q[j] for i in range(n) for j in range(n))
        _require(form == value, "q'Aq differs from the reported minimum")
        _require(value == face_minimum(A), "minimum differs from the face enumeration")
    else:
        raise Mismatch(f"unknown branch {verdict.branch!r}")


# ------------------------------------------------------------------- mc


def mc_record(out) -> dict:
    """Canonical JSON form of an MC result; floats as exact hex strings."""
    if isinstance(out, dict):
        return out
    return {
        "estimand": out.estimand,
        "mean": out.mean.hex(),
        "half_width_95": out.half_width_95.hex(),
        "samples": out.samples,
        "seed": out.seed,
        "params": out.params,
    }


def check_mc(expected: dict, out) -> None:
    _require(mc_record(out) == expected, "MC result differs from the recorded reference")
