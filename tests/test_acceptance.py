"""End-to-end acceptance checks, one test per verified claim.

Each test runs the corresponding registered check and requires both the
verdict and the runtime budget, except for the heavy-tail trend check (9).
That check states a joint property of two scaled MC sequences at the fixed
truncation K = 64, where the tie sequence n*P(A_n) provably increases, so
check 9 is red by design.  Its test instead holds the check to the exact
tie law: the reported tie estimates must agree with it, the verdict must be
the one it implies, and the decreasing trend must appear at K = 1024, where
64 draws rarely reach the cutoff.
"""

import random

import pytest

from lcross import factorial_heavy, mc_top_two_tie, top_two_tie_prob
from lcross.acceptance import (
    CROSSING_NS,
    TIE_NS,
    TREND_SAMPLES,
    TREND_SEED,
    TREND_TRUNC,
    _random_dist,
    heavy_tail_trends,
    run_criterion,
)


def within_budget(index):
    result = run_criterion(index)
    assert result.seconds < result.limit_seconds, (
        f"criterion {index} took {result.seconds:.1f}s, "
        f"limit {result.limit_seconds:.0f}s"
    )
    return result


def check(index):
    result = within_budget(index)
    assert result.passed, f"criterion {index}: {result.detail}"
    return result


def within_three_half_widths(est, exact):
    return abs(est.mean - exact) <= 3 * est.half_width_95


def test_crossing_probabilities_match_path_enumeration():
    check(1)


def test_symmetric_lower_bound_holds_to_horizon_64():
    check(2)


def test_chain_and_domination_upper_bounds_hold():
    check(3)


def test_scaled_return_mass_stays_below_nine_tenths():
    check(4)


def test_pair_sum_mass_never_reaches_twice_pair_difference():
    check(5)


def test_uniform_family_ratio_approaches_two():
    check(6)


def test_dichotomy_branches_are_exact_and_exclusive():
    check(7)


def test_exact_crossing_value_sits_inside_mc_intervals():
    check(8)


def test_heavy_tail_scaled_trends_decrease():
    result = within_budget(9)
    # Check 9 runs as stated, on the estimates it reports.
    assert (TREND_TRUNC, TREND_SEED, TREND_SAMPLES) == (64, 7, 100_000)
    assert (CROSSING_NS, TIE_NS) == ((8, 16, 32), (8, 64))
    trends = heavy_tail_trends()
    stated = factorial_heavy(TREND_TRUNC).describe()
    for ns, ests in ((CROSSING_NS, trends.crossings), (TIE_NS, trends.ties)):
        assert len(ests) == len(ns)
        for n, est in zip(ns, ests):
            assert (est.params["n"], est.params["sampler"]) == (n, stated)
            assert (est.samples, est.seed) == (TREND_SAMPLES, TREND_SEED)
    scaled = [n * est.mean for n, est in zip(CROSSING_NS, trends.crossings)]
    crossings_ok = scaled[0] >= scaled[1] >= scaled[2]
    assert crossings_ok, result.detail

    # At K = 64 the exact tie law increases, and check 9 reports it faithfully.
    exact = [n * top_two_tie_prob(TREND_TRUNC, n) for n in TIE_NS]
    for n, est, p in zip(TIE_NS, trends.ties, exact):
        assert within_three_half_widths(est, p / n), result.detail
        assert f"{n * est.mean:.4f} (exact {p:.4f})" in result.detail
    assert exact[0] < exact[1]
    assert result.passed == (crossings_ok and exact[0] > exact[1]), result.detail

    # With a deep enough truncation the tie trend decreases, exactly and in MC.
    deep = 1024
    exact_deep = [n * top_two_tie_prob(deep, n) for n in TIE_NS]
    assert exact_deep[0] > exact_deep[1]
    ests = [
        mc_top_two_tie(factorial_heavy(deep), n, TREND_SAMPLES, TREND_SEED)
        for n in TIE_NS
    ]
    for n, est, p in zip(TIE_NS, ests, exact_deep):
        assert within_three_half_widths(est, p / n), (n, est.mean, p / n)
    assert TIE_NS[0] * ests[0].mean > TIE_NS[1] * ests[1].mean


def test_mean_sign_changes_stay_below_partial_sum_bound():
    check(10)


def test_random_dist_refuses_more_atoms_than_values():
    # span 1 and denominator 1 allow only -1, 0 and 1.
    with pytest.raises(ValueError, match="cannot draw 10 distinct values from 3"):
        _random_dist(random.Random(5), 10, span=1, max_den=1)
    assert set(_random_dist(random.Random(5), 3, span=1, max_den=1).values) <= {-1, 0, 1}
