import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcross import (
    InvalidDistribution,
    StepSampler,
    WalkSpec,
    cauchy,
    crossing_prob,
    expected_sign_changes,
    factorial_dominance_stats,
    factorial_heavy,
    from_dist,
    gaussian,
    make_dist,
    mc_crossing,
    mc_sign_changes,
    mc_top_two_tie,
    point_mass,
    rademacher,
    seeded_stream,
    top_two_tie_prob,
    uniform_range,
)
from lcross import mc
from lcross.acceptance import _random_dist
from lcross.mc import (
    _BLOCK,
    _FEW_ATOMS,
    _factorials,
    _few_atom_blocks,
    _float_cumulative,
    _index_blocks,
    _index_cumulative,
    _int_dtype,
    _row_blocks,
    _sign_rule,
    _signed_table,
)


def within_three_sigma(est, exact):
    return abs(est.mean - float(exact)) <= est.half_width_95 * 3 / 1.96


def test_seeded_stream_contract():
    a = seeded_stream(42, 0).random(1000)
    b = seeded_stream(42, 0).random(1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, seeded_stream(42, 1).random(1000))
    assert not np.array_equal(a, seeded_stream(43, 0).random(1000))
    for bad in (-1, 2**64, "x"):
        with pytest.raises(ValueError):
            seeded_stream(bad)
        with pytest.raises(ValueError):
            seeded_stream(0, bad)


def test_sampler_validation():
    with pytest.raises(ValueError):
        StepSampler("weird")
    with pytest.raises(InvalidDistribution):
        StepSampler("from_dist")
    with pytest.raises(ValueError):
        gaussian(sd=0)
    with pytest.raises(ValueError):
        cauchy(scale=0)
    with pytest.raises(ValueError):
        factorial_heavy(1)
    with pytest.raises(ValueError):
        factorial_heavy(2.5)
    for bad in (math.nan, math.inf, -math.inf):
        for make in (gaussian, lambda x: gaussian(sd=x), cauchy, lambda x: cauchy(scale=x)):
            with pytest.raises(ValueError, match="must be finite"):
                make(bad)
    assert from_dist(rademacher()).describe() == {"kind": "from_dist", "atoms": 2}
    assert gaussian(1, 2).describe() == {"kind": "gaussian", "mean": 1.0, "sd": 2.0}
    assert factorial_heavy(8).describe() == {"kind": "factorial_heavy", "trunc": 8}


def test_estimator_input_validation():
    r = from_dist(rademacher())
    for call in (
        lambda: mc_crossing(r, 3, 0, 99, 0),
        lambda: mc_crossing(r, 0, 0, 1000, 0),
        lambda: mc_sign_changes(r, 0, 1000, 0),
        lambda: mc_sign_changes(r, 4, 99, 0),
        lambda: mc_top_two_tie(r, 1, 1000, 0),
        lambda: mc_top_two_tie(gaussian(), 2, 1000, 0),
        lambda: factorial_dominance_stats(8, 1, 1000, 0),
    ):
        with pytest.raises(ValueError):
            call()
    # Every sampler coerces its level the same way, and refuses a non-finite one.
    for s in (gaussian(), cauchy(), r):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="level must be finite"):
                mc_crossing(s, 4, bad, 1000, 0)


def test_mc_crossing_worked_examples():
    est = mc_crossing(from_dist(rademacher()), 3, 0, 100_000, 0)
    assert within_three_sigma(est, F(1, 2))
    assert est.estimand == "crossing" and est.samples == 100_000 and est.seed == 0
    est = mc_crossing(from_dist(point_mass(0)), 5, 0, 1000, 1)
    assert est.mean == 0.0 and est.half_width_95 == 1.0 / 1000
    est = mc_crossing(from_dist(rademacher()), 1, 0, 1000, 2)
    assert est.mean == 1.0


def test_mc_crossing_is_deterministic():
    a = mc_crossing(from_dist(rademacher()), 4, 0, 5000, 7)
    b = mc_crossing(from_dist(rademacher()), 4, 0, 5000, 7)
    assert a == b and a.params == b.params
    c = mc_crossing(from_dist(rademacher()), 4, 0, 5000, 8)
    assert a.mean != c.mean or a.half_width_95 != c.half_width_95


def test_mc_crossing_level_coercions_agree():
    base = mc_crossing(from_dist(lazy_law()), 4, F(1, 2), 4000, 3)
    assert mc_crossing(from_dist(lazy_law()), 4, "1/2", 4000, 3).mean == base.mean
    assert mc_crossing(from_dist(lazy_law()), 4, 0.5, 4000, 3).mean == base.mean


def lazy_law():
    return make_dist([(-1, 1), (0, 2), (1, 1)])


def test_continuous_symmetric_two_step_crossing_is_quarter():
    for sampler in (gaussian(), cauchy()):
        est = mc_crossing(sampler, 2, 0, 100_000, 5)
        assert within_three_sigma(est, F(1, 4))


def test_mc_vs_exact_calibration_random_laws():
    rng = random.Random(55)
    hits = 0
    trials = 30
    for seed in range(trials):
        d = _random_dist(rng, 4, span=4, max_den=2)
        n = rng.randint(1, 6)
        level = F(rng.randint(-2, 2), rng.randint(1, 2))
        exact = crossing_prob(WalkSpec(d, level, 8), n)
        est = mc_crossing(from_dist(d), n, level, 20_000, seed)
        if within_three_sigma(est, exact):
            hits += 1
    assert hits >= trials - 1


def test_big_integer_path_matches_vectorized_path():
    huge = make_dist([(-(2**61), 1), (2**61, 1)])
    for seed in (0, 1, 2):
        a = mc_crossing(from_dist(huge), 2, 0, 500, seed)
        b = mc_crossing(from_dist(rademacher()), 2, 0, 500, seed)
        assert a.mean == b.mean
    big3 = make_dist([(-(3**40), 1), (3**40, 1)])
    a = mc_sign_changes(from_dist(big3), 4, 500, 9)
    b = mc_sign_changes(from_dist(rademacher()), 4, 500, 9)
    assert a.mean == b.mean
    # {-1, +1} stays on int64; scaled by 2^61 the same walk needs exact
    # integers from n = 2 on, yet every sign, hence every count, is shared.
    small = from_dist(make_dist([(-1, 1), (1, 2)]))
    huge = from_dist(make_dist([(-(2**61), 1), (2**61, 2)]))
    for n, seed in ((2, 0), (3, 1), (8, 2), (17, 3)):
        assert mc_crossing(small, n, 0, 400, seed) == mc_crossing(huge, n, 0, 400, seed)
        assert mc_sign_changes(small, n, 400, seed) == mc_sign_changes(huge, n, 400, seed)


def test_mc_sign_changes_examples():
    est = mc_sign_changes(from_dist(point_mass(0)), 16, 1000, 0)
    assert est.mean == 0.0 and est.estimand == "sign_changes"
    exact = expected_sign_changes(WalkSpec(rademacher(), 0, 4))
    assert exact == F(19, 8)
    est = mc_sign_changes(from_dist(rademacher()), 4, 50_000, 11)
    assert within_three_sigma(est, exact)


def test_gaussian_sign_change_bound():
    est = mc_sign_changes(gaussian(), 16, 20_000, 0)
    bound = 2 * sum(k ** -0.5 for k in range(1, 17))
    assert est.mean <= bound + 3 * est.half_width_95


def _gaussian_crossing_prob(n):
    """Exact p_n at level 0 for standard normal steps: S_{n-1} ~ N(0, n - 1), and the pair
    (S_{n-1}, X_n) changes sign on two wedges of angle arctan(1/sqrt(n - 1)) each."""
    return 1.0 if n == 1 else math.atan(1 / math.sqrt(n - 1)) / math.pi


# Seeds, samples and the tolerance of two 95% half-widths were fixed before the first run.
@pytest.mark.parametrize("n, seed", [(2, 21), (5, 22), (17, 23)])
def test_gaussian_crossing_matches_the_arctan_law(n, seed):
    est = mc_crossing(gaussian(), n, 0, 100_000, seed)
    assert abs(est.mean - _gaussian_crossing_prob(n)) <= 2 * est.half_width_95


def test_gaussian_sign_changes_match_the_sum_of_crossing_probs():
    # The first nonzero sign counts as a change, so E[changes to N] = p_1 + ... + p_N.
    est = mc_sign_changes(gaussian(), 16, 100_000, 24)
    exact = sum(_gaussian_crossing_prob(n) for n in range(1, 17))
    assert abs(est.mean - exact) <= 2 * est.half_width_95


def _cauchy_crossing_prob(n):
    """p_n at level 0 for standard Cauchy steps and n >= 2, by mpmath.quad at 40 digits:
    S_{n-1} is Cauchy with scale c = n - 1, so p_n = 2 int_0^inf c / (pi (c^2 + s^2))
    (1/2 - arctan(s)/pi) ds, the mass of S_{n-1} > 0 that X_n carries below 0."""
    with mpmath.workdps(40):
        c, pi = n - 1, mpmath.pi
        tail = lambda s: 0.5 - mpmath.atan(s) / pi  # P(X_n < -s)
        return 2 * mpmath.quad(lambda s: c / (pi * (c * c + s * s)) * tail(s), [0, mpmath.inf])


# Seeds, samples and the tolerance of two 95% half-widths were fixed before the first run.
@pytest.mark.parametrize("n, seed", [(3, 31), (5, 32), (17, 33)])
def test_cauchy_crossing_matches_the_quadrature(n, seed):
    est = mc_crossing(cauchy(), n, 0, 100_000, seed)
    assert abs(est.mean - float(_cauchy_crossing_prob(n))) <= 2 * est.half_width_95


def test_cauchy_sign_changes_match_the_sum_of_crossing_probs():
    assert mpmath.almosteq(_cauchy_crossing_prob(2), 0.25, 1e-35)  # the pinned two-step value
    est = mc_sign_changes(cauchy(), 16, 100_000, 34)
    # p_1 = 1: the first nonzero sign counts as a change.
    exact = 1 + float(sum(_cauchy_crossing_prob(n) for n in range(2, 17)))
    assert abs(est.mean - exact) <= 2 * est.half_width_95


def test_mc_top_two_tie_examples():
    idx_law = make_dist([(1, 1), (2, 1)])
    est = mc_top_two_tie(from_dist(idx_law), 2, 100_000, 0)
    assert within_three_sigma(est, F(1, 2))
    est = mc_top_two_tie(from_dist(idx_law), 3, 100_000, 0)
    assert within_three_sigma(est, F(5, 8))
    assert est.estimand == "top_two_tie"
    est = mc_top_two_tie(factorial_heavy(8), 4, 2000, 1)
    assert 0.0 <= est.mean <= 1.0


def brute_force_top_two_tie(trunc, n):
    weights = [k ** -1.5 for k in range(1, trunc + 1)]
    total = sum(weights)
    prob = 0.0
    for draw in itertools.product(range(trunc), repeat=n):
        top = max(draw)
        if draw.count(top) >= 2:
            w = 1.0
            for k in draw:
                w *= weights[k] / total
            prob += w
    return prob


def test_top_two_tie_prob_matches_enumeration():
    for trunc, n in ((2, 2), (3, 3), (4, 5), (5, 4), (6, 2)):
        assert top_two_tie_prob(trunc, n) == pytest.approx(
            brute_force_top_two_tie(trunc, n), rel=1e-12, abs=1e-15
        )
    for bad in ((1, 4), (2.0, 4), (8, 1), (8, 3.0)):
        with pytest.raises(ValueError):
            top_two_tie_prob(*bad)


def test_top_two_tie_prob_truncation_reverses_trend():
    assert round(8 * top_two_tie_prob(64, 8), 3) == 0.446
    assert round(64 * top_two_tie_prob(64, 64), 3) == 2.620
    assert round(8 * top_two_tie_prob(1024, 8), 3) == 0.246
    assert round(64 * top_two_tie_prob(1024, 64), 3) == 0.166


def test_mc_top_two_tie_covers_exact_law():
    for trunc, n, seed in ((2, 2, 0), (8, 4, 1), (64, 16, 2), (300, 32, 3)):
        est = mc_top_two_tie(factorial_heavy(trunc), n, 50_000, seed)
        assert within_three_sigma(est, top_two_tie_prob(trunc, n)), (trunc, n)


def test_finite_law_sampling_never_builds_fraction_atoms():
    d = uniform_range(-5, 7)
    mc_crossing(from_dist(d), 6, F(1, 2), 200, 3)
    mc_sign_changes(from_dist(d), 6, 200, 3)
    mc_top_two_tie(from_dist(d), 4, 200, 3)
    assert "atoms" not in vars(d)


def test_half_width_shrinks_with_samples():
    for seed in range(5):
        small = mc_crossing(from_dist(rademacher()), 3, 0, 10_000, seed)
        large = mc_crossing(from_dist(rademacher()), 3, 0, 20_000, seed)
        ratio = small.half_width_95 / large.half_width_95
        assert 2 / 1.5 <= ratio <= 3


def test_factorial_crossing_runs_exact_positions():
    est = mc_crossing(factorial_heavy(16), 8, 0, 2000, 3)
    assert 0.0 <= est.mean <= 1.0
    assert est.params["sampler"] == {"kind": "factorial_heavy", "trunc": 16}
    again = mc_crossing(factorial_heavy(16), 8, 0, 2000, 3)
    assert est == again


def test_factorial_dominance_certificate():
    for trunc, n, seed in ((16, 4, 0), (64, 8, 1)):
        stats = factorial_dominance_stats(trunc, n, 3000, seed)
        assert stats["certified"] <= stats["distinct_top"] <= 3000
        assert stats["certified_sign_ok"] == stats["certified"]
        assert stats["distinct_sign_ok"] <= stats["distinct_top"]
        assert stats == factorial_dominance_stats(trunc, n, 3000, seed)


def test_factorial_dominance_allocates_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew before allocating the samples-sized flags")

    monkeypatch.setattr(mc, "_factorial_blocks", no_draws)
    with pytest.raises(MemoryError):
        factorial_dominance_stats(64, 8, 10**15, 0)


def test_estimate_json_shape():
    est = mc_crossing(from_dist(rademacher()), 2, 0, 1000, 4)
    doc = est.to_json_dict()
    assert set(doc) == {"estimand", "mean", "half_width_95", "samples", "seed", "params"}
    assert doc["params"]["n"] == 2 and doc["params"]["level"] == "0"


# Exact results of the seeded MC streams, recorded before the position
# engine was vectorised; any change to how draws are consumed or reduced
# moves at least one of them.
NEAR_2_61 = ((-(2**61) + 3, 2), (F(1, 2), 1), (2**61 - 1, 3))
PINNED_SAMPLERS = {
    "fh20": lambda: factorial_heavy(20),
    "fh64": lambda: factorial_heavy(64),
    "fh8": lambda: factorial_heavy(8),
    "fh150": lambda: factorial_heavy(150),
    "fh200": lambda: factorial_heavy(200),
    "big3": lambda: from_dist(make_dist(NEAR_2_61)),
}
PINNED_ESTIMATES = [
    ("crossing", "fh20", 8, "0", 11, "0x1.999999999999ap-5", "0x1.94133fcaa5aabp-6"),
    ("crossing", "fh64", 12, "1/3", 11, "0x1.2c5f92c5f92c6p-5", "0x1.5c72fa9ad6aebp-6"),
    ("crossing", "fh8", 6, "-5", 11, "0x1.8bf258bf258bfp-4", "0x1.11ef669bc4284p-5"),
    ("crossing", "big3", 6, "5/2", 11, "0x1.c28f5c28f5c29p-4", "0x1.220d75e9b4f0ap-5"),
    ("crossing", "big3", 3, str(2**61 - 1), 11, "0x1.999999999999ap-3", "0x1.72ce0923e199dp-5"),
    ("sign_changes", "fh20", 12, None, 11, "0x1.1c28f5c28f5c3p+1", "0x1.18f838d844441p-3"),
    ("sign_changes", "fh64", 16, None, 11, "0x1.317e4b17e4b18p+1", "0x1.5600a058176d4p-3"),
    ("sign_changes", "big3", 8, None, 11, "0x1.f17e4b17e4b18p+0", "0x1.36e1d255a2e01p-3"),
    ("crossing", "fh20", 8, "0", 12, "0x1.3a06d3a06d3a0p-4", "0x1.ed48f75f04b12p-6"),
    ("crossing", "fh64", 12, "1/3", 12, "0x1.0369d0369d037p-4", "0x1.c391a7dc4b6fbp-6"),
    ("crossing", "fh8", 6, "-5", 12, "0x1.c28f5c28f5c29p-4", "0x1.220d75e9b4f0ap-5"),
    ("crossing", "big3", 6, "5/2", 12, "0x1.f92c5f92c5f93p-4", "0x1.30d1d066c7b5bp-5"),
    ("crossing", "big3", 3, str(2**61 - 1), 12, "0x1.17e4b17e4b17ep-2", "0x1.9d2457837adc9p-5"),
    ("sign_changes", "fh20", 12, None, 12, "0x1.21b4e81b4e81bp+1", "0x1.2e23644bd1506p-3"),
    ("sign_changes", "fh64", 16, None, 12, "0x1.4666666666666p+1", "0x1.642df9c40c7dfp-3"),
    ("sign_changes", "big3", 8, None, 12, "0x1.09d0369d0369dp+1", "0x1.38f48f679c0afp-3"),
    # Recorded before the float screen: 200! is past its 2^1000 guard,
    # 150! inside it, and 5040 = 7! makes exact zeros reachable.
    ("crossing", "fh200", 8, "0", 11, "0x1.62fc962fc9630p-5", "0x1.797dbacb52d39p-6"),
    ("crossing", "fh200", 12, "-7", 12, "0x1.0369d0369d037p-4", "0x1.c391a7dc4b6fbp-6"),
    ("sign_changes", "fh200", 12, None, 11, "0x1.13a06d3a06d3ap+1", "0x1.0f089a34a90d6p-3"),
    ("sign_changes", "fh150", 16, None, 12, "0x1.3e4b17e4b17e5p+1", "0x1.44b4820b5dba6p-3"),
    ("crossing", "fh20", 8, "5040", 11, "0x1.47ae147ae147bp-6", "0x1.039039991debap-6"),
    ("crossing", "fh20", 8, "5040", 12, "0x1.0369d0369d037p-4", "0x1.c391a7dc4b6fbp-6"),
    ("crossing", "fh20", 6, "-5040", 12, "0x1.999999999999ap-5", "0x1.94133fcaa5aabp-6"),
]
PINNED_DOMINANCE = [
    ((20, 8, 11, 300), 275, 266, 266, 275),
    ((20, 8, 12, 300), 275, 266, 266, 273),
    ((64, 16, 11, 300), 291, 289, 289, 291),
    ((64, 16, 12, 300), 286, 286, 286, 286),
    ((200, 8, 11, 300), 285, 283, 283, 284),
    ((200, 8, 12, 300), 289, 284, 284, 288),
    # samples * n = 196626 and 303 end the index draws 2 and 3 draws into a
    # Philox counter step, where the sign bits begin; the first case spans
    # three whole row blocks and part of a fourth.
    ((64, 6, 13, 32771), 30547, 29338, 29338, 30441),
    ((200, 3, 5, 101), 94, 86, 86, 90),
]


@pytest.mark.parametrize("fn,sampler,n,level,seed,mean,half", PINNED_ESTIMATES)
def test_pinned_big_integer_streams(fn, sampler, n, level, seed, mean, half):
    s = PINNED_SAMPLERS[sampler]()
    if fn == "crossing":
        est = mc_crossing(s, n, F(level), 300, seed)
        assert est.params == {"n": n, "level": level, "sampler": s.describe()}
    else:
        est = mc_sign_changes(s, n, 300, seed)
        assert est.params == {"N": n, "sampler": s.describe()}
    assert (est.mean.hex(), est.half_width_95.hex()) == (mean, half)
    assert (est.samples, est.seed) == (300, seed)


@pytest.mark.parametrize("args,distinct,certified,certified_ok,distinct_ok", PINNED_DOMINANCE)
def test_pinned_dominance_streams(args, distinct, certified, certified_ok, distinct_ok):
    trunc, n, seed, samples = args
    assert factorial_dominance_stats(trunc, n, samples, seed) == {
        "sampler": {"kind": "factorial_heavy", "trunc": trunc},
        "samples": samples,
        "seed": seed,
        "n": n,
        "distinct_top": distinct,
        "certified": certified,
        "certified_sign_ok": certified_ok,
        "distinct_sign_ok": distinct_ok,
    }


def test_factorials_by_running_product():
    table = _factorials(300)
    assert len(table) == 301
    assert all(f == math.factorial(k) for k, f in enumerate(table))
    assert _factorials(2) == [1, 1, 2]


def _factorial_pairs(k):
    f = math.factorial(k)
    return [f, -(f - 1), -f, f - 1, 1, -1, math.factorial(k - 1)]


@st.composite
def _sign_cases(draw):
    """Tables, steps and levels built to put S_k - shift at or near zero.

    Entries 2^p + o with |o| at most the float spacing at 2^p round when
    converted, and small entries then tip the rounded sums across zero;
    2^62 in the table keeps the walk past the int64 bound even when a path
    only uses entries below 2^53.
    """
    kind = draw(st.sampled_from(["near_power", "factorial_pairs", "factorial", "random"]))
    if kind == "near_power":
        big = 2 ** draw(st.integers(53, 64))
        ulp = big >> 52
        offsets = st.integers(-ulp, ulp)
        table = [big + o for o in draw(st.lists(offsets, min_size=1, max_size=4))]
        table += [-(big + o) for o in draw(st.lists(offsets, min_size=1, max_size=4))]
        table += draw(st.lists(offsets, min_size=1, max_size=4)) + [2**62, 2**61 + 1, -(2**61)]
    elif kind == "factorial_pairs":
        table = _factorial_pairs(draw(st.integers(20, 60)))
    elif kind == "factorial":
        table = _signed_table(_factorials(draw(st.integers(150, 200))))
    else:
        table = draw(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=6))
    # A few entries and their negations, so that paths cancel often.
    palette = draw(st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=6))
    palette += [table.index(-table[i]) for i in palette if -table[i] in table]
    n = draw(st.integers(1, 12))
    # Three whole row blocks and part of a fourth, so doubt rows fall in several blocks.
    samples = draw(st.sampled_from([1, 7, 64, 3000, 3 * max(1, _BLOCK // n) + 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    code = rng.choice(np.array(palette), (samples, n))
    # A shift equal to a reachable sum forces exact zeros.
    k = draw(st.integers(1, n))
    reachable = sum(table[c] for c in code[rng.integers(samples), :k])
    near = st.integers(-(2**12), 2**12).map(lambda o: reachable + o)
    shift = draw(near | st.just(reachable) | st.just(0))
    return table, code, shift, draw(st.integers(1, n))


# Ten steps near 2^60 whose rounded running sum ends 1545 above the exact
# one, more than u times the sum of the magnitudes: an error bound without
# its factor k would certify the wrong sign at a shift one above the sum.
_SWING = [2**60 + o for o in (135, 133, 172, 15, -252)]
_SWING += [-(2**60 + o) for o in (132, 230, 237, 120, -123)]


@settings(max_examples=150, deadline=None)
@given(case=_sign_cases())
@example(case=(_SWING, np.arange(10)[None, :], sum(_SWING) + 1, 1))
def test_signs_equal_exact_partial_sums(case):
    table, code, shift, first = case
    samples, n = code.shape
    rule = _sign_rule(table, n, shift, first)
    got = np.empty((n + 1 - first, samples), dtype=np.int8)
    for rows in _row_blocks(samples, n):
        rule(code[rows], got[:, rows])
    # Object arrays hold Python ints, so these running sums are exact.
    exact = np.cumsum(np.array(table, dtype=object)[code], axis=1)[:, first - 1 :]
    assert got.dtype == np.int8
    assert np.array_equal(got, np.sign(exact - shift).T.astype(np.int64))


# Reaches at the edge of each integer dtype, and the dtype that must hold them.
_DTYPE_EDGES = [
    (2**7 - 1, np.int8),
    (2**7, np.int16),
    (2**15 - 1, np.int16),
    (2**15, np.int32),
    (2**31 - 1, np.int32),
    (2**31, np.int64),
    (2**62 - 1, np.int64),
]


@pytest.mark.parametrize("reach,dtype", _DTYPE_EDGES)
@pytest.mark.parametrize("sign", [1, -1])
def test_int_signs_hold_the_reach_at_dtype_edges(reach, dtype, sign):
    assert _int_dtype(reach) == np.dtype(dtype)
    a = reach // 4
    # (table, n, shift) with max|v|*n + |shift| = reach, and a path whose
    # S_k - shift is -sign * reach: a narrower dtype wraps it.
    cases = [
        ([-reach, 0, reach], 1, 0),
        ([0], 3, sign * reach),
        ([-a, 0, a], 2, sign * (reach - 2 * a)),
    ]
    for table, n, shift in cases:
        assert max(max(table), -min(table)) * n + abs(shift) == reach
        code = np.array(list(itertools.product(range(len(table)), repeat=n)))
        exact = np.cumsum(np.array(table, dtype=object)[code], axis=1) - shift
        assert np.abs(exact).max() == reach
        for first in range(1, n + 1):
            got = np.empty((n + 1 - first, len(code)), dtype=np.int8)
            _sign_rule(table, n, shift, first)(code, got)
            assert np.array_equal(got, np.sign(exact[:, first - 1 :]).T.astype(np.int64))
    assert _int_dtype(2**62) is None


def test_levels_beyond_int64_stay_exact():
    # S_2 - l must not wrap around in int64 when the level itself is huge:
    # a walk of two +-1 steps never crosses a level near +-2^63 or beyond.
    r = from_dist(rademacher())
    for level in (2**63 - 1, -(2**63) + 1, 2**64, F(2**70 + 1, 2)):
        assert mc_crossing(r, 2, level, 1000, 0).mean == 0.0
    assert mc_crossing(r, 1, 2**64, 1000, 0).mean == 0.0


# Exact results of seeded int64, float and tie streams, recorded before the
# discrete draws were bucketed; the bucketed draw must return the same
# indices and consume the stream in the same order.
PINNED_DRAW_SAMPLERS = {
    "rad": lambda: from_dist(rademacher()),
    "lazy": lambda: from_dist(lazy_law()),
    "pm": lambda: from_dist(point_mass(1)),
    "u101": lambda: from_dist(uniform_range(-50, 50)),
    "tri8": lambda: from_dist(make_dist([(k, k) for k in range(1, 9)])),
    "gauss": gaussian,
    "cauchy": cauchy,
    "fh64": lambda: factorial_heavy(64),
}
PINNED_DRAWS = [
    ("crossing", "rad", 7, "0", 11, "0x1.28f5c28f5c28fp-2", "0x1.a4a494f872271p-5"),
    ("crossing", "lazy", 6, "1/2", 11, "0x1.b4e81b4e81b4fp-4", "0x1.1e288dc66d54ep-5"),
    ("crossing", "pm", 3, "5/2", 11, "0x1.0000000000000p+0", "0x1.b4e81b4e81b4fp-9"),
    ("crossing", "u101", 5, "-7", 11, "0x1.3333333333333p-3", "0x1.4b026fadf2398p-5"),
    ("sign_changes", "rad", 12, None, 11, "0x1.2851eb851eb85p+2", "0x1.543f71ec6097bp-2"),
    ("sign_changes", "lazy", 10, None, 11, "0x1.6aaaaaaaaaaabp+1", "0x1.8c271b3bf57d0p-3"),
    ("sign_changes", "pm", 4, None, 11, "0x1.0000000000000p+0", "0x1.b4e81b4e81b4fp-9"),
    ("sign_changes", "u101", 8, None, 11, "0x1.147ae147ae148p+1", "0x1.29fc1208f31eep-3"),
    ("top_two_tie", "fh64", 16, None, 11, "0x1.eb851eb851eb8p-6", "0x1.3c45d7dbf5b07p-6"),
    ("top_two_tie", "tri8", 6, None, 11, "0x1.317e4b17e4b18p-1", "0x1.c6c2d92eaee11p-5"),
    ("top_two_tie", "u101", 12, None, 11, "0x1.d0369d0369d03p-5", "0x1.aca8ab3407dc1p-6"),
    ("crossing", "gauss", 9, "1/2", 11, "0x1.f92c5f92c5f93p-4", "0x1.30d1d066c7b5bp-5"),
    ("sign_changes", "cauchy", 12, None, 11, "0x1.2740da740da74p+1", "0x1.26caef7d21e9bp-3"),
    ("crossing", "rad", 7, "0", 12, "0x1.2c5f92c5f92c6p-2", "0x1.a60f29844d32fp-5"),
    ("crossing", "lazy", 6, "1/2", 12, "0x1.17e4b17e4b17ep-3", "0x1.3e6c92753323dp-5"),
    ("crossing", "pm", 3, "5/2", 12, "0x1.0000000000000p+0", "0x1.b4e81b4e81b4fp-9"),
    ("crossing", "u101", 5, "-7", 12, "0x1.851eb851eb852p-3", "0x1.6baaec9cc84cdp-5"),
    ("sign_changes", "rad", 12, None, 12, "0x1.262fc962fc963p+2", "0x1.4ef1d84b95d9ap-2"),
    ("sign_changes", "lazy", 10, None, 12, "0x1.47ae147ae147bp+1", "0x1.6b9593c6f5e3fp-3"),
    ("sign_changes", "pm", 4, None, 12, "0x1.0000000000000p+0", "0x1.b4e81b4e81b4fp-9"),
    ("sign_changes", "u101", 8, None, 12, "0x1.0b851eb851eb8p+1", "0x1.1575cf46db8d8p-3"),
    ("top_two_tie", "fh64", 16, None, 12, "0x1.7e4b17e4b17e5p-5", "0x1.870ed863a4ab0p-6"),
    ("top_two_tie", "tri8", 6, None, 12, "0x1.199999999999ap-1", "0x1.cd2ec4274950bp-5"),
    ("top_two_tie", "u101", 12, None, 12, "0x1.3a06d3a06d3a0p-4", "0x1.ed48f75f04b12p-6"),
    ("crossing", "gauss", 9, "1/2", 12, "0x1.62fc962fc9630p-4", "0x1.04cfa4f00006ep-5"),
    ("sign_changes", "cauchy", 12, None, 12, "0x1.17e4b17e4b17ep+1", "0x1.13d44ea0460b9p-3"),
]


@pytest.mark.parametrize("fn,sampler,n,level,seed,mean,half", PINNED_DRAWS)
def test_pinned_draw_streams(fn, sampler, n, level, seed, mean, half):
    s = PINNED_DRAW_SAMPLERS[sampler]()
    if fn == "crossing":
        est = mc_crossing(s, n, F(level), 300, seed)
    elif fn == "sign_changes":
        est = mc_sign_changes(s, n, 300, seed)
    else:
        est = mc_top_two_tie(s, n, 300, seed)
    assert (est.mean.hex(), est.half_width_95.hex()) == (mean, half)


class _Feed:
    """Stands in for a Generator whose random() hands out given uniforms in order."""

    def __init__(self, u):
        self.u, self.pos = u, 0

    def random(self, out):
        out[...] = self.u[self.pos : self.pos + out.size]
        self.pos += out.size
        return out


@lru_cache(maxsize=None)
def _skewed_cumulative():
    # 999 atoms share 1/1000 below one atom of 999/1000: the low buckets
    # hold hundreds of entries each, so draws there take the fallback.
    return _float_cumulative((1,) * 999 + (998_001,), 999_000)


@lru_cache(maxsize=None)
def _uniform_cumulative():
    return _float_cumulative((1,) * 10**5, 10**5)


def _weights_cumulative(raw):
    return _float_cumulative(tuple(raw), sum(raw))


_CUMULATIVES = st.one_of(
    st.just(np.array([1.0])),
    st.integers(2, 170).map(_index_cumulative),
    # A weight of 10^22 next to small ones makes runs of equal float entries.
    st.lists(st.integers(1, 10**6) | st.just(10**22), min_size=1, max_size=300).map(
        _weights_cumulative
    ),
    st.builds(_skewed_cumulative),
    st.builds(_uniform_cumulative),
)


def _draw_indices(rng, cum, shape):
    """The indices that _index_blocks yields block by block, as one array."""
    out = np.empty(shape, dtype=np.intp)
    for rows, block in _index_blocks(rng, cum, *shape):
        out[rows] = block
    return out


@settings(max_examples=40, deadline=None)
@given(cum=_CUMULATIVES, cols=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
def test_draw_indices_equal_searchsorted(cum, cols, seed):
    # Every cum entry, its float neighbours and every bucket edge b/2^16
    # (which includes the edges of every coarser power-of-two table).
    edges = np.arange(2**16) / 2**16
    u = np.concatenate([cum, np.nextafter(cum, 0), np.nextafter(cum, 2), edges])
    u = u[(u >= 0) & (u < 1)]
    u = np.random.default_rng(seed).permutation(u)
    got = _draw_indices(_Feed(u), cum, (u.size, 1)).ravel()
    assert np.array_equal(got, np.searchsorted(cum, u, side="right"))
    # Seeded streams: same indices, and the stream is left where one
    # rng.random(shape) call leaves it.
    shape = (1 + seed % 1500, cols)
    a, b = seeded_stream(seed, 0), seeded_stream(seed, 0)
    got = _draw_indices(a, cum, shape)
    assert np.array_equal(got, np.searchsorted(cum, b.random(shape), side="right"))
    assert a.random() == b.random()


_FEW_ATOM_LAWS = st.lists(
    st.integers(1, 10**6) | st.just(10**22), min_size=1, max_size=_FEW_ATOMS
).map(_weights_cumulative)


@st.composite
def _few_atom_tables(draw, atoms):
    """A table of the given length in a random integer dtype, spanning its range."""
    info = np.iinfo(draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64])))
    values = st.integers(int(info.min), int(info.max)) | st.sampled_from([info.min, info.max])
    return np.array(draw(st.lists(values, min_size=atoms, max_size=atoms)), dtype=info.dtype)


def _few_atom_steps(rng, cum, table, shape):
    """The steps that _few_atom_blocks yields block by block, as one samples x n array."""
    out = np.empty(shape, dtype=table.dtype)
    for rows, block in _few_atom_blocks(rng, cum, table, *shape):
        out[rows] = block.T
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data(), cum=_FEW_ATOM_LAWS, cols=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
def test_few_atom_steps_equal_searchsorted(data, cum, cols, seed):
    # Weights of 10^22 next to small ones make equal float entries, and tables
    # spanning int8..int64 make differences of adjacent entries wrap.
    table = data.draw(_few_atom_tables(len(cum)))
    edges = np.arange(2**16) / 2**16
    u = np.concatenate([cum, np.nextafter(cum, 0), np.nextafter(cum, 2), edges])
    u = u[(u >= 0) & (u < 1)]
    u = np.random.default_rng(seed).permutation(u)
    got = _few_atom_steps(_Feed(u), cum, table, (u.size, 1)).ravel()
    assert got.dtype == table.dtype
    assert np.array_equal(got, table[np.searchsorted(cum, u, side="right")])
    # Seeded streams: same steps, and the stream is left where one
    # rng.random(shape) call leaves it.
    shape = (1 + seed % 1500, cols)
    a, b = seeded_stream(seed, 0), seeded_stream(seed, 0)
    got = _few_atom_steps(a, cum, table, shape)
    assert np.array_equal(got, table[np.searchsorted(cum, b.random(shape), side="right")])
    assert a.random() == b.random()


# Exact results of seeded streams long enough to span several row blocks of
# the sign engine and of the tie draws, recorded before the engine drew,
# summed and signed one block at a time.  Each sample count covers at least
# three whole blocks and ends on a partial one, and the last cases have more
# steps than a block, so each of their blocks holds one row.
PINNED_BLOCK_SAMPLERS = {
    **PINNED_DRAW_SAMPLERS,
    "big3": lambda: from_dist(make_dist(NEAR_2_61)),
    "fh200": lambda: factorial_heavy(200),
}
PINNED_BLOCKS = [
    ("crossing", "rad", 8, "0", 24581, "0x1.15f186165980bp-2", "0x1.6c55a5b093673p-8"),
    ("crossing", "lazy", 12, "1/2", 16390, "0x1.532034fb08773p-4", "0x1.147d9602b15c1p-8"),
    ("crossing", "gauss", 16, "1/2", 12300, "0x1.4f0194f0194f0p-4", "0x1.3d65552096ee1p-8"),
    ("crossing", "cauchy", 8, "-1", 24581, "0x1.60185410f4734p-4", "0x1.cb4d6475affadp-9"),
    ("crossing", "big3", 8, "5/2", 24581, "0x1.9b953ae4eebe4p-4", "0x1.eca0d7780ea2cp-9"),
    ("crossing", "fh64", 12, "1/3", 16390, "0x1.65de732534831p-5", "0x1.9a26b5db221acp-9"),
    ("crossing", "fh200", 8, "-7", 24581, "0x1.08723a0cf9fdap-4", "0x1.92aea2f01e9bep-9"),
    ("sign_changes", "rad", 16, None, 12300, "0x1.6071390713907p+2", "0x1.009ee88b53d7fp-4"),
    ("sign_changes", "lazy", 8, None, 24581, "0x1.2c0c5f5b08979p+1", "0x1.206773716c28bp-6"),
    ("sign_changes", "gauss", 12, None, 16390, "0x1.42d3bc265c675p+1", "0x1.7c5cc0355492fp-6"),
    ("sign_changes", "cauchy", 16, None, 12300, "0x1.3e3871e3871e4p+1", "0x1.9841c31f23b5dp-6"),
    ("sign_changes", "big3", 12, None, 16390, "0x1.2df9b09771cd5p+1", "0x1.a293dbbd04edbp-6"),
    ("sign_changes", "fh64", 8, None, 24581, "0x1.0ad61a2ea2e78p+1", "0x1.d7432f8bb7002p-7"),
    ("sign_changes", "fh200", 12, None, 16390, "0x1.1fc105e7724d5p+1", "0x1.3407bed7eef95p-6"),
    ("top_two_tie", "fh64", 16, None, 12300, "0x1.23b7123b7123bp-5", "0x1.ad438d90ec350p-9"),
    ("top_two_tie", "tri8", 12, None, 16390, "0x1.a6b85eb71ed52p-1", "0x1.7cb27b750c57dp-8"),
    ("top_two_tie", "fh200", 8, None, 24581, "0x1.5243b723cb781p-5", "0x1.4604cf9e613fdp-9"),
    # samples * n = 196637 and 196659 end factorial_heavy's index draws 1 and
    # 3 draws into a Philox counter step, where its sign bits begin.
    ("crossing", "fh64", 7, "1/3", 28091, "0x1.3af41b72f6a8bp-4", "0x1.985e356fa6777p-9"),
    ("sign_changes", "fh200", 9, None, 21851, "0x1.0c8aaacaa88adp+1", "0x1.ef008d315eb5bp-7"),
    # 65538 < level < 65539 = n: every path of unit steps crosses at time n.
    ("crossing", "pm", 65539, "131077/2", 101, "0x1.0000000000000p+0", "0x1.446f86562d9fbp-7"),
    ("sign_changes", "lazy", 65539, None, 101, "0x1.0f2d9faee41e7p+8", "0x1.3693546cdfa21p+5"),
    ("sign_changes", "gauss", 65539, None, 101, "0x1.5ce41e6a74981p+7", "0x1.871eb3e31df6cp+4"),
]


@pytest.mark.parametrize("fn,sampler,n,level,samples,mean,half", PINNED_BLOCKS)
def test_pinned_block_boundaries(fn, sampler, n, level, samples, mean, half):
    rows = max(1, _BLOCK // n)
    assert n > _BLOCK or (samples > 3 * rows and samples % rows)
    s = PINNED_BLOCK_SAMPLERS[sampler]()
    if fn == "crossing":
        est = mc_crossing(s, n, F(level), samples, 13)
    elif fn == "sign_changes":
        est = mc_sign_changes(s, n, samples, 13)
    else:
        est = mc_top_two_tie(s, n, samples, 13)
    assert (est.mean.hex(), est.half_width_95.hex()) == (mean, half)


def test_estimators_hold_one_block_of_paths():
    # One samples x n array of 8-byte steps would be 12.8 MB for the first,
    # second, fifth and sixth calls and 10.24 MB for the third and fourth; a
    # call keeps its int8 signs, counts or flags, plus one block of
    # temporaries.  factorial_heavy blocks sum complex pairs under the float
    # screen.
    for call, bound in (
        (lambda: mc_crossing(from_dist(rademacher()), 16, 0, 100_000, 3), 4_000_000),
        (lambda: mc_crossing(from_dist(rademacher()), 16, F(1, 2), 100_000, 3), 4_000_000),
        (lambda: mc_sign_changes(gaussian(), 32, 40_000, 3), 4_000_000),
        (lambda: mc_sign_changes(from_dist(lazy_law()), 32, 40_000, 3), 4_000_000),
        (lambda: mc_crossing(factorial_heavy(64), 16, 0, 100_000, 3), 8_000_000),
        (lambda: factorial_dominance_stats(64, 16, 100_000, 3), 8_000_000),
    ):
        call()  # modules that numpy imports on first use are not the call's arrays
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound
