import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcross import (
    DichotomyVerdict,
    GramMatrix,
    InvalidKernel,
    ResourceLimit,
    dichotomy_check,
    first_alternative,
    gram_from_table,
    gram_matrix,
    lemma1_witness,
    make_dist,
    one_two_three_kernel,
    point_mass,
    problem_from_json_dict,
    rademacher,
    simplex_qp_min,
    sym2_kernel,
)
from lcross.acceptance import _oracle_simplex_min, _random_symmetric_matrix
from lcross.dichotomy import _solve_fraction_free


def form_value(matrix, q):
    n = len(matrix)
    A = matrix.entries
    return sum(A[i][j] * q[i] * q[j] for i in range(n) for j in range(n))


def test_gram_matrix_worked_examples():
    m = gram_matrix(sym2_kernel(), [-1, 1])
    assert m.entries == ((F(2), F(-1)), (F(-1), F(2)))
    assert m.support == (F(-1), F(1))
    m = gram_matrix(sym2_kernel(), [0])
    assert m.entries == ((F(1),),)
    m = gram_matrix(one_two_three_kernel(), [0, 2])
    assert m.entries == ((F(2), F(-1)), (F(-1), F(2)))


def test_gram_matrix_validation():
    with pytest.raises(ValueError):
        gram_matrix(sym2_kernel(), [1, 1])
    # GramMatrix is the one validator: repeated points fail there too, not only in gram_matrix.
    with pytest.raises(ValueError, match="distinct"):
        GramMatrix((F(0), F(0)), ((F(1), F(0)), (F(0), F(1))))
    with pytest.raises(InvalidKernel):
        GramMatrix((F(0), F(1)), ((F(1),),))
    with pytest.raises(InvalidKernel):
        gram_from_table([[1, 2], [3, 4]])
    with pytest.raises(InvalidKernel):
        gram_from_table([[1, 2]])
    with pytest.raises(InvalidKernel):
        GramMatrix((F(0),), ((F(1), F(2)),))
    with pytest.raises(InvalidKernel, match="support must be nonempty"):
        gram_from_table([])


def test_kernel_spec_validation():
    import lcross

    with pytest.raises(InvalidKernel):
        lcross.KernelSpec("gaussian")
    with pytest.raises(InvalidKernel):
        lcross.KernelSpec("custom_table")
    # A table is a GramMatrix, not a kernel: KernelSpec takes a family only.
    with pytest.raises(TypeError):
        lcross.KernelSpec("sym2", ((F(1),),))
    assert not hasattr(lcross, "custom_table_kernel")


def test_first_alternative_worked_examples():
    assert first_alternative(gram_from_table([[-1]])) == (F(1),)
    assert first_alternative(gram_from_table([[0]])) == (F(1),)
    assert first_alternative(gram_from_table([[2, -1], [-1, 2]])) is None


def test_simplex_qp_min_worked_examples():
    value, q = simplex_qp_min(gram_from_table([[2, -1], [-1, 2]]))
    assert value == F(1, 2) and q == (F(1, 2), F(1, 2))
    value, q = simplex_qp_min(gram_from_table([[1]]))
    assert value == F(1) and q == (F(1),)
    value, _ = simplex_qp_min(gram_from_table([[0, 0], [0, 0]]))
    assert value == F(0)


def test_dichotomy_worked_examples():
    verdict = dichotomy_check(gram_from_table([[2, -1], [-1, 2]]))
    assert verdict.branch == "positive_form"
    assert verdict.min_value == F(1, 2) and verdict.witness is None
    verdict = dichotomy_check(gram_from_table([[-1]]))
    assert verdict.branch == "first_alternative"
    assert verdict.witness == (F(1),) and verdict.min_value is None


def gauss_jordan(rows, rhs):
    """Exact Fraction Gauss-Jordan solve of rows * x = rhs, the reference for the
    fraction-free solve: the pivot of each column is the first row at or below r
    with a nonzero entry, and free variables are zero.  None when inconsistent."""
    m, ncols = len(rows), len(rows[0])
    aug = [[F(a) for a in row] + [F(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(ncols):
        sel = next((rr for rr in range(r, m) if aug[rr][col] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for rr in range(m):
            if rr != r and aug[rr][col] != 0:
                f = aug[rr][col]
                aug[rr] = [a - f * b for a, b in zip(aug[rr], aug[r])]
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    if any(aug[rr][ncols] != 0 for rr in range(r, m)):
        return None
    x = [F(0)] * ncols
    for row, col in pivots:
        x[col] = aug[row][ncols]
    return x


# Mostly zeros, small values for ties, and a few wide ones for big minors.
ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, 10**12 + 39, -(10**9) - 7])


@st.composite
def bordered_systems(draw):
    """A face's system [A_S, -1; 1..1, 0] x = (0, .., 0, 1) for a k x k A_S, k in 1..8.

    Entries are zero-heavy.  Some rows repeat or negate an earlier row, so many
    systems are singular; some are zero, forcing lambda = 0, or constant, forcing
    lambda = c * sum(q) = c, so a zero row and a constant one are inconsistent."""
    k = draw(st.integers(1, 8))
    flat = draw(st.lists(ENTRIES, min_size=k * k, max_size=k * k))
    A = [flat[i * k : (i + 1) * k] for i in range(k)]
    kinds = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k))
    for i, kind in enumerate(kinds):
        j = i - 1 if i else 0
        A[i] = [A[i], A[i], A[i], A[j], [-a for a in A[j]], [0] * k, [A[i][0]] * k][kind]
    return [row + [-1] for row in A] + [[1] * k + [0]], [0] * k + [1]


SINGULAR = ([[1, 2, -1], [1, 2, -1], [1, 1, 0]], [0, 0, 1])  # a repeated row: lambda is free
INCONSISTENT = ([[0, 0, -1], [1, 1, -1], [1, 1, 0]], [0, 0, 1])  # lambda = 0 and 1


def test_reference_examples_are_singular_and_inconsistent():
    assert gauss_jordan(*SINGULAR) == [F(2), F(-1), F(0)]
    assert gauss_jordan(*INCONSISTENT) is None


@given(bordered_systems())
@example(SINGULAR)
@example(INCONSISTENT)
@example(([[0, -1], [1, 0]], [0, 1]))
@settings(max_examples=200, deadline=None)
def test_fraction_free_solve_matches_gauss_jordan(system):
    rows, rhs = system
    want = gauss_jordan(rows, rhs)
    got = _solve_fraction_free([row + [b] for row, b in zip(rows, rhs)])
    if want is None:
        assert got is None
    else:
        x, d = got
        assert d > 0 and all(type(v) is int for v in x)
        assert [F(v, d) for v in x] == want


def test_sym2_twelve_points_pinned():
    support = [F(k, 2) for k in range(-6, 7) if k]
    verdict = dichotomy_check(gram_matrix(sym2_kernel(), support))
    assert verdict.branch == "positive_form" and verdict.witness is None
    assert verdict.min_value == F(1, 30)
    mass = {0: F(2, 15), 3: F(3, 10), 6: F(1, 3), 9: F(7, 30)}
    assert verdict.minimizer == tuple(mass.get(i, F(0)) for i in range(12))


def small_integer_table(rng, n):
    """Symmetric table with entries in {-2..2}/{1,2}: ties and singular faces."""
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = F(rng.randint(-2, 2), rng.randint(1, 2))
    return rows


def test_random_matrices_exactly_one_branch():
    rng = random.Random(41)
    tables = [_random_symmetric_matrix(rng, rng.randint(1, 5)) for _ in range(120)]
    rng = random.Random(47)
    tables += [small_integer_table(rng, rng.randint(1, 6)) for _ in range(300)]
    for rows in tables:
        m = gram_from_table(rows)
        verdict = dichotomy_check(m)
        value, q = simplex_qp_min(m)
        assert form_value(m, q) == value
        lp_witness = first_alternative(m)
        if verdict.branch == "first_alternative":
            p = verdict.witness
            assert sum(p) == 1 and all(x >= 0 for x in p)
            for i in range(len(m)):
                if p[i] > 0:
                    assert sum(m.entries[i][j] * p[j] for j in range(len(m))) <= 0
            assert form_value(m, p) <= 0
            assert value <= 0
            assert sum(map(bool, p)) == sum(map(bool, lp_witness))
        else:
            assert verdict.branch == "positive_form"
            assert (verdict.min_value, verdict.minimizer) == (value, q)
            assert value > 0
            assert lp_witness is None


def test_simplex_min_matches_recursive_oracle():
    rng = random.Random(42)
    cache: dict = {}
    for _ in range(60):
        m = gram_from_table(_random_symmetric_matrix(rng, rng.randint(1, 4)))
        value, _ = simplex_qp_min(m)
        assert value == _oracle_simplex_min(m.entries, cache)


def test_simplex_min_below_random_simplex_samples():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = gram_from_table(_random_symmetric_matrix(rng, n))
        value, _ = simplex_qp_min(m)
        for _ in range(60):
            raw = [F(rng.randint(0, 9)) for _ in range(n)]
            total = sum(raw)
            if total == 0:
                continue
            q = [x / total for x in raw]
            assert value <= form_value(m, q)


def test_simplex_min_scales_linearly():
    rng = random.Random(44)
    for _ in range(20):
        m = gram_from_table(_random_symmetric_matrix(rng, rng.randint(1, 4)))
        value, q = simplex_qp_min(m)
        for c in (F(2), F(1, 3), F(7, 2)):
            scaled = gram_from_table([[c * a for a in row] for row in m.entries])
            svalue, sq = simplex_qp_min(scaled)
            assert svalue == c * value
            assert form_value(scaled, sq) == svalue


def test_sym2_kernel_is_always_positive_form():
    rng = random.Random(45)
    for _ in range(25):
        support = set()
        while len(support) < rng.randint(1, 6):
            support.add(F(rng.randint(-6, 6), rng.randint(1, 2)))
        m = gram_matrix(sym2_kernel(), sorted(support))
        verdict = dichotomy_check(m)
        assert verdict.branch == "positive_form"
        assert first_alternative(m) is None


def test_lemma1_witness_worked_examples():
    assert lemma1_witness(rademacher()) == F(-1)
    assert lemma1_witness(point_mass(5)) == F(5)
    assert lemma1_witness(point_mass(0)) == F(0)
    with pytest.raises(ValueError):
        lemma1_witness(rademacher(), 0)
    with pytest.raises(ValueError):
        lemma1_witness(rademacher(), -1)


def test_lemma1_witness_certificate_on_random_laws():
    from lcross import interval_prob
    from lcross.acceptance import _random_dist

    rng = random.Random(46)
    for _ in range(80):
        d = _random_dist(rng, 6, span=8)
        w = F(rng.randint(1, 4), rng.randint(1, 3))
        x = lemma1_witness(d, w)
        assert d.prob(x) > 0
        px = interval_prob(d, x - w, x + w)
        pnx = interval_prob(d, -x - w, -x + w)
        assert pnx < 2 * px


def test_resource_cap():
    big = gram_from_table([[0] * 16 for _ in range(16)])
    with pytest.raises(ResourceLimit):
        simplex_qp_min(big)
    with pytest.raises(ResourceLimit):
        first_alternative(big)
    with pytest.raises(ResourceLimit):
        dichotomy_check(big)
    small = gram_from_table([[0, 0], [0, 0]])
    with pytest.raises(ResourceLimit):
        simplex_qp_min(small, cap=1)


def test_cap_below_one_is_an_input_error():
    small = gram_from_table([[0, 0], [0, 0]])
    for solve in (dichotomy_check, first_alternative, simplex_qp_min):
        for cap in (0, -1):
            with pytest.raises(ValueError, match=f"cap must be a positive integer, got {cap}$"):
                solve(small, cap=cap)


def test_problem_json_parsing():
    m = problem_from_json_dict({"support": ["-1", "1"], "kernel": "sym2"})
    assert m.entries == ((F(2), F(-1)), (F(-1), F(2)))
    m = problem_from_json_dict({"support": [0, 2], "kernel": "123"})
    assert m.entries == ((F(2), F(-1)), (F(-1), F(2)))
    m = problem_from_json_dict(
        {"support": [0], "kernel": {"table": [["-1"]]}}
    )
    assert m.entries == ((F(-1),),)


def test_problem_json_errors():
    with pytest.raises(InvalidKernel, match="support"):
        problem_from_json_dict({"kernel": "sym2"})
    with pytest.raises(InvalidKernel, match="kernel"):
        problem_from_json_dict({"support": [0]})
    with pytest.raises(InvalidKernel, match="support"):
        problem_from_json_dict({"support": [0.5], "kernel": "sym2"})
    with pytest.raises(InvalidKernel, match="kernel"):
        problem_from_json_dict({"support": [0], "kernel": "sym3"})
    with pytest.raises(InvalidKernel, match="table"):
        problem_from_json_dict({"support": [0], "kernel": {"table": "no"}})
    with pytest.raises(InvalidKernel):
        problem_from_json_dict([1, 2])


def test_json_output_shapes():
    m = gram_matrix(sym2_kernel(), [-1, 1])
    doc = m.to_json_dict()
    assert doc == {"support": ["-1", "1"], "entries": [["2", "-1"], ["-1", "2"]]}
    verdict = dichotomy_check(m)
    vdoc = verdict.to_json_dict()
    assert vdoc["branch"] == "positive_form"
    assert vdoc["witness"] is None
    assert vdoc["min_value"] == "1/2"
    assert isinstance(vdoc["minimizer"], list)
    wdoc = DichotomyVerdict("first_alternative", (F(1),), None, None).to_json_dict()
    assert wdoc == {
        "branch": "first_alternative",
        "witness": ["1"],
        "min_value": None,
        "minimizer": None,
    }
