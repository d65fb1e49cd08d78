"""Exact references for lcross's checks, naive by design, on the standard library alone.

None imports an lcross module: a law is read only through its public `atoms`, a table
only through its Fraction entries, so a fault in an engine cannot hide in the reference
that checks it.  `lcross.acceptance` and the tests take their references from here, and
`import lcross` does not load this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple


def _integer_moves(step, level: Fraction):
    """The step's (value, weight) pairs and the level as ints, values and the level over
    their lcm denominator `scale`, weights over theirs `den`: (moves, level, scale, den)."""
    scale = lcm(level.denominator, *(v.denominator for v, _ in step.atoms))
    den = lcm(*(w.denominator for _, w in step.atoms))
    moves = [(int(v * scale), int(w * den)) for v, w in step.atoms]
    return moves, int(level * scale), scale, den


def _sign(t: int) -> int:
    return (t > 0) - (t < 0)


def crossing_by_paths(step, level: Fraction, horizon: int) -> List[Fraction]:
    """p_1, ..., p_horizon by enumerating every path of the walk, one at a time."""
    moves, target, _, den = _integer_moves(step, level)
    acc = [0] * (horizon + 1)

    def rec(depth: int, pos: int, weight: int, prev_sign: int) -> None:
        if depth == horizon:
            return
        for v, wn in moves:
            pos2 = pos + v
            sgn = (pos2 > target) - (pos2 < target)
            w2 = weight * wn
            if sgn != prev_sign:
                acc[depth + 1] += w2
            rec(depth + 1, pos2, w2, sgn)

    rec(0, 0, 1, _sign(-target))
    return [Fraction(acc[n], den**n) for n in range(1, horizon + 1)]


class ForwardRow(NamedTuple):
    """One time n of `forward`: p_n, P(|S_{n-1}| <= |X_n|), P(S_n = l), P(S_n = 0), S_n."""

    p: Fraction
    domination: Fraction
    at_level: Fraction
    at_zero: Fraction
    law: Dict[Fraction, Fraction]


def forward(step, level: Fraction, horizon: int) -> List[ForwardRow]:
    """Rows n = 1..horizon by a full integer forward recursion over S_n's law as a
    dict, every site of every marginal kept."""
    moves, lvl, scale, den = _integer_moves(step, level)
    law = {0: 1}
    rows = []
    for n in range(1, horizon + 1):
        cross = dom = 0
        nxt: Dict[int, int] = {}
        for x, p in law.items():
            for v, w in moves:
                cross += p * w * (_sign(x + v - lvl) != _sign(x - lvl))
                dom += p * w * (abs(x) <= abs(v))
                nxt[x + v] = nxt.get(x + v, 0) + p * w
        law, total = nxt, den**n
        masses = [Fraction(k, total) for k in (cross, dom, law.get(lvl, 0), law.get(0, 0))]
        marginal = {Fraction(x, scale): Fraction(law[x], total) for x in sorted(law)}
        rows.append(ForwardRow(*masses, marginal))
    return rows


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Optional[List[Fraction]]:
    """A solution of rows * x = rhs, entries ints or Fractions, by Fraction Gauss-Jordan
    elimination, or None when the system is inconsistent.  The pivot of each column is
    the first row at or below the current one with a nonzero entry, and free variables
    are zero."""
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots: List[int] = []  # pivots[r] is row r's pivot column
    for col in range(len(aug[0]) - 1):
        r = len(pivots)
        sel = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = Fraction(1) / aug[r][col]  # a Fraction even when the entries are ints
        aug[r] = [x * inv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
    if any(row[-1] != 0 for row in aug[len(pivots) :]):
        return None
    x = [Fraction(0)] * (len(aug[0]) - 1)
    for r, col in enumerate(pivots):
        x[col] = aug[r][-1]
    return x


def form_value(entries: Sequence[Sequence], q: Sequence) -> Fraction:
    """q'Aq for the table A = entries."""
    return sum(a * q[i] * q[j] for i, row in enumerate(entries) for j, a in enumerate(row))


def face_minimum(entries: Tuple[Tuple[Fraction, ...], ...], cache: Dict) -> Fraction:
    """min of q'Aq over the simplex by recursive face shrinking: the least of the
    facets' minima and the face's own critical value lambda, where A q = lambda * 1,
    sum(q) = 1 has a solution with every q_i > 0.  Any such q is a point of the
    simplex with q'Aq = lambda, so the one solution a singular face gives (free
    variables zero) can never undercut the true minimum."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    if entries in cache:
        return cache[entries]
    facets = (tuple(r[:i] + r[i + 1 :] for r in entries[:i] + entries[i + 1 :]) for i in range(n))
    best = min(face_minimum(facet, cache) for facet in facets)
    sol = solve([list(row) + [-1] for row in entries] + [[1] * n + [0]], [0] * n + [1])
    if sol is not None and all(qi > 0 for qi in sol[:n]) and sol[n] < best:
        best = sol[n]
    cache[entries] = best
    return best
