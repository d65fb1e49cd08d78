"""Finite dichotomy for symmetric kernels on a finite support.

For a symmetric rational matrix A exactly one of two things happens:
either some probability vector p has (Ap)_i <= 0 at every index of its
support, or q'Aq > 0 for every probability vector q.  One exact face
enumeration decides both: a critical point q on an open face has
(Aq)_i = q'Aq on its support, so the first with q'Aq <= 0 is a witness.
`first_alternative`, a phase-1 simplex over support subsets, is kept as
an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .dist import DiscreteDist, interval_prob
from .errors import InvalidKernel, ResourceLimit, TheoremViolation
from .rationals import RationalLike, as_rational, format_exact

DEFAULT_CAP = 15

_FAMILIES = ("sym2", "one_two_three")


@dataclass(frozen=True)
class KernelSpec:
    """Symmetric kernel: one of two built-in indicator families.

    sym2 is f(x,y) = 2*1{|x-y| <= 1} - 1{|x+y| <= 1}; one_two_three is
    f(x,y) = 3*1{|x-y| <= 1} - 1{|x-y| <= 2}.  An explicit table is a
    `GramMatrix` itself.
    """

    family: str

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise InvalidKernel(f"unknown kernel family {self.family!r}")


def sym2_kernel() -> KernelSpec:
    return KernelSpec("sym2")


def one_two_three_kernel() -> KernelSpec:
    return KernelSpec("one_two_three")


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix a_ij = f(x_i, x_j) over a finite support of distinct points.

    The one validator of every table, built-in or given.
    """

    support: Tuple[Fraction, ...]
    entries: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.support)
        if n < 1:
            raise InvalidKernel("support must be nonempty")
        if len(set(self.support)) != n:
            raise ValueError("support values must be distinct")
        rows = self.entries
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InvalidKernel("matrix shape does not match the support")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise InvalidKernel(f"kernel table not symmetric at ({i},{j})")

    def __len__(self) -> int:
        return len(self.support)

    def to_json_dict(self) -> dict:
        return {f.name: format_exact(getattr(self, f.name)) for f in fields(self)}


def gram_from_table(rows: Sequence[Sequence[RationalLike]]) -> GramMatrix:
    """Wrap a bare symmetric matrix, using indices 0..n-1 as the support."""
    entries = tuple(tuple(as_rational(x) for x in row) for row in rows)
    return GramMatrix(tuple(Fraction(i) for i in range(len(entries))), entries)


def _kernel_value(kernel: KernelSpec, x: Fraction, y: Fraction) -> Fraction:
    if kernel.family == "sym2":
        return Fraction(2 * (abs(x - y) <= 1) - (abs(x + y) <= 1))
    return Fraction(3 * (abs(x - y) <= 1) - (abs(x - y) <= 2))


def gram_matrix(kernel: KernelSpec, support: Sequence[RationalLike]) -> GramMatrix:
    """Evaluate the kernel on all support pairs, exactly."""
    xs = tuple(as_rational(x) for x in support)
    entries = tuple(
        tuple(_kernel_value(kernel, x, y) for y in xs) for x in xs
    )
    return GramMatrix(xs, entries)


def _check_cap(size: int, cap: int) -> None:
    if not isinstance(cap, int) or cap < 1:
        raise ValueError(f"cap must be a positive integer, got {cap}")
    if size > cap:
        raise ResourceLimit(
            f"matrix size {size} exceeds the subset-enumeration cap {cap}"
        )


def _solve_fraction_free(aug: List[List[int]]) -> Optional[Tuple[List[int], int]]:
    """Fraction-free Gauss-Jordan (Bareiss 1968) solve of the integer system aug = [M | b].

    Each column's pivot p is its first nonzero entry at or below row r; every other
    row becomes (p*row - row[col]*pivot_row) // prev, prev the pivot before p.  Each
    entry is a minor of aug, so the division is exact, and zero exactly when exact
    Gauss-Jordan's entry is, so the pivots are the same.  Every pivot entry ends equal
    to the last pivot: the result is (x, d), d > 0, the solution x / d with free
    variables zero, or None if the system is inconsistent.  Overwrites aug.
    """
    m, ncols = len(aug), len(aug[0]) - 1
    pivots: Dict[int, int] = {}  # column -> row
    r, prev = 0, 1
    for col in range(ncols):
        for sel in range(r, m):
            if aug[sel][col]:
                break
        else:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        top = aug[r]
        p = top[col]
        for i in range(m):
            f = aug[i][col]
            if i != r and (f or p != prev):
                aug[i] = [(p * a - f * b) // prev for a, b in zip(aug[i], top)]
        pivots[col] = r
        prev = p
        r += 1
        if r == m:
            break
    if any(row[ncols] for row in aug[r:]):
        return None
    sign = 1 if prev > 0 else -1
    return [sign * aug[pivots[c]][ncols] if c in pivots else 0 for c in range(ncols)], sign * prev


def _integer_table(matrix: GramMatrix) -> Tuple[List[List[int]], int]:
    """The entries times L, the lcm of their denominators, as ints; and L."""
    A = matrix.entries
    L = lcm(*(a.denominator for row in A for a in row))
    return [[a.numerator * (L // a.denominator) for a in row] for row in A], L


# A face S and its solution x / d: x on S, then lambda's entry; d > 0.
_Point = Tuple[Tuple[int, ...], List[int], int]


def _new_minima(B: List[List[int]], cap: int) -> Iterator[_Point]:
    """Yield each critical point (S, x, d) whose lambda is below every earlier one's.

    It solves B_S x_S = x_lam*1, sum x_S = d, x_S > 0 on a face S, B the table
    scaled by L and x_lam x's last entry, so q = x_S / d (zero off S) has lambda =
    x_lam / (d*L) = q'Aq = (Aq)_i on S.  Faces come by increasing size, then
    lexicographically, so the last point yielded is the first minimum.  All
    solutions of a face's system share lambda, so any one is exact; one outside
    the open face is dropped, as smaller faces cover it.
    """
    _check_cap(len(B), cap)
    n = len(B)
    best: Optional[_Point] = None
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            aug = [[B[i][j] for j in subset] + [-1, 0] for i in subset]
            aug.append([1] * size + [0, 1])
            sol = _solve_fraction_free(aug)
            if sol is None or any(v <= 0 for v in sol[0][:size]):
                continue
            x, d = sol
            if best is None or x[-1] * best[2] < best[1][-1] * d:
                best = (subset, x, d)
                yield best


def _as_fractions(n: int, L: int, point: _Point) -> Tuple[Fraction, Tuple[Fraction, ...]]:
    """(lambda, q) of a critical point, as Fractions, with q padded to n entries."""
    subset, x, d = point
    on = dict(zip(subset, x))
    return Fraction(x[-1], d * L), tuple(Fraction(on.get(i, 0), d) for i in range(n))


def simplex_qp_min(matrix: GramMatrix, cap: int = DEFAULT_CAP) -> Tuple[Fraction, Tuple[Fraction, ...]]:
    """Exact global minimum of q'Aq over the probability simplex.

    Face enumeration: every minimizer lies in the relative interior of some
    face, where it solves the bordered system A_S q = lambda*1, sum q = 1.
    Vertices are the size-1 faces, so they are always included.  Of equal
    minima, the first face in (size, lexicographic) order gives the minimizer.
    """
    B, L = _integer_table(matrix)
    *_, lowest = _new_minima(B, cap)
    return _as_fractions(len(B), L, lowest)


def _subset_feasible(
    A: Tuple[Tuple[Fraction, ...], ...], subset: Tuple[int, ...]
) -> Optional[List[Fraction]]:
    """Exact feasibility of {p >= 0 on S, sum p = 1, (A p)_i <= 0 on S}.

    Phase-1 simplex with Bland's rule: variables are p, one slack per
    inequality, and a single artificial for the sum row.  Returns p over
    the subset or None.
    """
    k = len(subset)
    ncols = 2 * k + 1
    tableau: List[List[Fraction]] = []
    for r, i in enumerate(subset):
        row = [A[i][j] for j in subset] + [Fraction(0)] * (k + 1) + [Fraction(0)]
        row[k + r] = Fraction(1)
        tableau.append(row)
    tableau.append([Fraction(1)] * k + [Fraction(0)] * k + [Fraction(1), Fraction(1)])
    basis = [k + r for r in range(k)] + [2 * k]
    cost = [Fraction(0)] * (2 * k) + [Fraction(1)]
    nrows = k + 1
    while True:
        cb = [cost[b] for b in basis]
        entering = None
        for j in range(ncols):
            if j in basis:
                continue
            reduced = cost[j] - sum(cb[r] * tableau[r][j] for r in range(nrows))
            if reduced < 0:
                entering = j
                break
        if entering is None:
            break
        leaving = None
        best_ratio = None
        for r in range(nrows):
            coef = tableau[r][entering]
            if coef > 0:
                ratio = tableau[r][-1] / coef
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        pivot = tableau[leaving][entering]
        tableau[leaving] = [x / pivot for x in tableau[leaving]]
        for r in range(nrows):
            if r != leaving and tableau[r][entering] != 0:
                f = tableau[r][entering]
                tableau[r] = [a - f * b for a, b in zip(tableau[r], tableau[leaving])]
        basis[leaving] = entering
    objective = sum(cost[basis[r]] * tableau[r][-1] for r in range(nrows))
    if objective != 0:
        return None
    p = [Fraction(0)] * k
    for r, b in enumerate(basis):
        if b < k:
            p[b] = tableau[r][-1]
    return p


def first_alternative(
    matrix: GramMatrix, cap: int = DEFAULT_CAP
) -> Optional[Tuple[Fraction, ...]]:
    """First probability vector p with (Ap)_i <= 0 on its support, or None.

    Subsets are searched by increasing size, lexicographic within a size,
    so the returned witness is deterministic.
    """
    _check_cap(len(matrix), cap)
    A = matrix.entries
    n = len(matrix)
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            p = _subset_feasible(A, subset)
            if p is None:
                continue
            full = [Fraction(0)] * n
            for pos, i in enumerate(subset):
                full[i] = p[pos]
            return tuple(full)
    return None


@dataclass(frozen=True)
class DichotomyVerdict:
    """Outcome of the exact dichotomy: a witness or a positive minimum."""

    branch: str
    witness: Optional[Tuple[Fraction, ...]]
    min_value: Optional[Fraction]
    minimizer: Optional[Tuple[Fraction, ...]]

    def to_json_dict(self) -> dict:
        return {f.name: format_exact(getattr(self, f.name)) for f in fields(self)}


def dichotomy_check(matrix: GramMatrix, cap: int = DEFAULT_CAP) -> DichotomyVerdict:
    """Decide which branch holds, with exact certificates either way.

    One pass over the faces of `simplex_qp_min`.  The first critical point
    with value <= 0, always a new minimum, is the witness; any witness p has
    p'Ap <= 0, so one turns up on a face no larger than supp(p).  Otherwise
    the verdict carries the positive minimum and minimizer of `simplex_qp_min`.
    """
    B, L = _integer_table(matrix)
    for point in _new_minima(B, cap):
        subset, x, _ = point
        if x[-1] <= 0:
            for i in subset:
                if sum(B[i][j] * v for j, v in zip(subset, x)) > 0:
                    raise TheoremViolation(
                        f"witness fails its own certificate at index {i}"
                    )
            _, witness = _as_fractions(len(B), L, point)
            return DichotomyVerdict("first_alternative", witness, None, None)
    value, q = _as_fractions(len(B), L, point)
    return DichotomyVerdict("positive_form", None, value, q)


def lemma1_witness(d: DiscreteDist, window: RationalLike = 1) -> Fraction:
    """Atom x with p(-x) < 2 p(x), where p(x) is the closed-window mass.

    p(x) = P[x - window, x + window].  Such an atom always exists; atoms
    are tried by descending weight, then ascending value, and failure to
    find one is an implementation bug.
    """
    window = as_rational(window)
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    order = sorted(d.atoms, key=lambda atom: (-atom[1], atom[0]))
    for x, _ in order:
        px = interval_prob(d, x - window, x + window)
        pnx = interval_prob(d, -x - window, -x + window)
        if pnx < 2 * px:
            return x
    raise TheoremViolation("no atom satisfies p(-x) < 2 p(x); this cannot happen")


def problem_from_json_dict(obj: object) -> GramMatrix:
    """Parse {"support": [...], "kernel": "sym2" | "123" | {"table": [[...]]}}."""
    if not isinstance(obj, dict):
        raise InvalidKernel("problem document must be a JSON object")
    for field in ("support", "kernel"):
        if field not in obj:
            raise InvalidKernel(f'problem document is missing the "{field}" field')
    raw_support = obj["support"]
    if not isinstance(raw_support, list) or not raw_support:
        raise InvalidKernel('"support" must be a nonempty list')
    try:
        support = tuple(as_rational(x) for x in raw_support)
    except (TypeError, ValueError) as exc:
        raise InvalidKernel(f'bad "support" entry: {exc}') from exc
    raw_kernel = obj["kernel"]
    if raw_kernel == "sym2":
        return gram_matrix(sym2_kernel(), support)
    if raw_kernel in ("123", "one_two_three"):
        return gram_matrix(one_two_three_kernel(), support)
    if not (isinstance(raw_kernel, dict) and "table" in raw_kernel):
        raise InvalidKernel(f'unknown "kernel" value: {raw_kernel!r}')
    rows = raw_kernel["table"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InvalidKernel('"table" must be a list of rows')
    try:
        entries = tuple(tuple(as_rational(x) for x in row) for row in rows)
    except (TypeError, ValueError) as exc:
        raise InvalidKernel(f'bad "table" entry: {exc}') from exc
    return GramMatrix(support, entries)
