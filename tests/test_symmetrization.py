import random
import tracemalloc
from fractions import Fraction as F
from math import exp

import pytest

from lcross import (
    InvalidThreshold,
    ResourceLimit,
    adversarial_search,
    make_dist,
    optimality_family,
    pair_abs_prob,
    point_mass,
    rademacher,
    random_threshold_check,
    ratio_scan,
    uniform_range,
)
from lcross.acceptance import _random_dist


def brute_pair_abs_prob(d, c, mode):
    total = F(0)
    for x, wx in d.atoms:
        for y, wy in d.atoms:
            v = abs(x + y) if mode == "sum" else abs(x - y)
            if v <= c:
                total += wx * wy
    return total


def test_pair_abs_prob_worked_examples():
    r = rademacher()
    assert pair_abs_prob(r, 1, "sum") == F(1, 2)
    assert pair_abs_prob(r, 1, "diff") == F(1, 2)
    fam = optimality_family(2)
    assert pair_abs_prob(fam, F(3, 2), "diff") == F(1, 4)
    assert pair_abs_prob(fam, F(3, 2), "sum") == F(3, 8)
    with pytest.raises(ValueError):
        pair_abs_prob(r, -1, "sum")
    with pytest.raises(ValueError):
        pair_abs_prob(r, 1, "product")


def test_optimality_family_respects_the_cap(monkeypatch):
    monkeypatch.setenv("LCROSS_MAX_SUPPORT", "1000")
    assert len(optimality_family(500)) == 1000
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="1002 atoms, over the cap of 1000"):
            optimality_family(501)
        with pytest.raises(ResourceLimit, match="over the cap"):
            optimality_family(10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_pair_abs_prob_matches_brute_force():
    rng = random.Random(31)
    for _ in range(40):
        d = _random_dist(rng, 8, span=12)
        c = F(rng.randint(0, 30), rng.randint(1, 4))
        off_grid = F(rng.randint(0, 90), 7)
        for threshold in (c, off_grid):
            for mode in ("sum", "diff"):
                assert pair_abs_prob(d, threshold, mode) == brute_pair_abs_prob(d, threshold, mode)


def test_ratio_scan_worked_examples():
    rep = ratio_scan(rademacher())
    assert rep.breakpoints == (F(0), F(2))
    assert rep.gamma == 1
    rep = ratio_scan(point_mass(0))
    assert rep.breakpoints == (F(0),)
    assert rep.gamma == 1 and rep.argmax_c == 1
    rep = ratio_scan(optimality_family(2))
    assert rep.gamma == F(3, 2) and rep.argmax_c == F(3, 2)


def test_ratio_scan_rows_are_step_function_values():
    rng = random.Random(32)
    for _ in range(20):
        d = _random_dist(rng, 6)
        rep = ratio_scan(d)
        for row in rep.rows:
            assert row.num == brute_pair_abs_prob(d, row.c, "sum")
            assert row.den == brute_pair_abs_prob(d, row.c, "diff")
            assert row.den >= pair_abs_prob(d, 0, "diff") > 0
            assert row.num < 2 * row.den
        assert rep.ratio_at(rep.argmax_c) == rep.gamma
        assert rep.argmax_c > 0


def test_gamma_is_scale_invariant():
    rng = random.Random(33)
    for _ in range(10):
        d = _random_dist(rng, 5)
        for a in (F(2), F(1, 3), F(-5)):
            scaled = make_dist([(a * v, w) for v, w in d.atoms])
            assert ratio_scan(scaled).gamma == ratio_scan(d).gamma


def test_optimality_family_values():
    assert optimality_family(1).values == (F(-1), F(2))
    assert optimality_family(2).values == (F(-3), F(-1), F(2), F(4))
    assert optimality_family(3).values == (F(-5), F(-3), F(-1), F(2), F(4), F(6))
    assert all(w == F(1, 6) for w in optimality_family(3).weights)
    with pytest.raises(ValueError):
        optimality_family(0)


def test_optimality_family_ratio_lower_bound():
    for n in (2, 3, 5, 8, 13, 21, 34, 55, 89, 128):
        d = optimality_family(n)
        num = pair_abs_prob(d, F(3, 2), "sum")
        den = pair_abs_prob(d, F(3, 2), "diff")
        assert den == F(1, 2 * n)
        assert num >= F(1, n) * (1 - F(1, n))
        assert num >= 2 * (1 - F(1, n)) * den


def test_random_threshold_check():
    r = rademacher()
    assert random_threshold_check(r, point_mass(1)) == (F(1, 2), F(1, 2))
    assert random_threshold_check(r, point_mass(0)) == (F(1, 2), F(1, 2))
    assert random_threshold_check(point_mass(5), uniform_range(0, 1)) == (F(0), F(1))
    with pytest.raises(InvalidThreshold):
        random_threshold_check(r, make_dist([(-1, 1), (1, 1)]))


def test_random_threshold_factor_two():
    rng = random.Random(34)
    for _ in range(25):
        d = _random_dist(rng, 5)
        w = make_dist(
            [(F(rng.randint(0, 8), rng.randint(1, 3)), rng.randint(1, 5)) for _ in range(3)]
        )
        s, diff = random_threshold_check(d, w)
        assert s <= 2 * diff


def test_zero_threshold_lemma():
    rng = random.Random(35)
    for _ in range(40):
        d = _random_dist(rng, 6)
        assert pair_abs_prob(d, 0, "sum") <= pair_abs_prob(d, 0, "diff")


def test_strictness_on_random_laws():
    rng = random.Random(36)
    for _ in range(300):
        d = _random_dist(rng, 8, span=12)
        for row in ratio_scan(d).rows:
            assert row.num < 2 * row.den


def test_ratio_at_is_right_continuous_step_function():
    rep = ratio_scan(optimality_family(2))
    assert rep.ratio_at(F(3, 2)) == F(3, 2)
    assert rep.ratio_at(F(8, 5)) == F(3, 2)
    assert rep.ratio_at(0) == rep.rows[0].ratio
    assert rep.ratio_at(10 ** 6) == 1
    with pytest.raises(ValueError):
        rep.ratio_at(-1)


def test_report_csv_and_summary():
    rep = ratio_scan(optimality_family(2))
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "c,num,den,ratio"
    assert len(lines) == 1 + len(rep.rows)
    target = next(line for line in lines if line.startswith("1,"))
    assert target == "1,3/8,1/4,3/2"
    assert rep.summary_json_dict() == {"gamma": "3/2", "argmax_c": "3/2"}


def test_adversarial_search_deterministic_and_bounded():
    best1, gamma1 = adversarial_search(4, 80, seed=9)
    best2, gamma2 = adversarial_search(4, 80, seed=9)
    assert best1 == best2 and gamma1 == gamma2
    assert gamma1 < 2
    assert gamma1 >= ratio_scan(optimality_family(2)).gamma
    _, gamma_odd = adversarial_search(5, 40, seed=9)
    assert gamma_odd < 2
    with pytest.raises(ValueError):
        adversarial_search(1, 10, seed=0)
    with pytest.raises(ValueError):
        adversarial_search(4, 0, seed=0)


def test_adversarial_search_beats_family_start():
    _, gamma = adversarial_search(8, 200, seed=3)
    assert gamma >= ratio_scan(optimality_family(4)).gamma
    assert gamma >= F(7, 5)


def test_annealing_temperature_has_a_positive_floor():
    from lcross.symmetrization import _temperature

    for it in (0, 1, 80, 10_000, 741_817):
        assert _temperature(it) == 0.05 * (0.999 ** it) > 0.0
    assert 0.05 * (0.999 ** 741_818) == 0.0
    for it in (741_818, 10**6, 10**9):
        temp = _temperature(it)
        assert temp > 0.0
        # A worse candidate is then rejected instead of dividing by zero.
        assert exp(float(F(-1, 10**6)) / temp) == 0.0
