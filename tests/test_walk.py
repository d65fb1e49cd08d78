import dataclasses
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from lcross import (
    DiscreteDist,
    NotApplicable,
    ResourceLimit,
    WalkSpec,
    concentration,
    crossing_prob,
    crossing_table,
    dominated_crossing_bound,
    expected_sign_changes,
    lazy,
    make_dist,
    negate,
    point_mass,
    rademacher,
    uniform_range,
    walk_marginals,
)
import lcross.dist as dist
import lcross.walk as walk
from lcross.acceptance import _random_dist, _random_symmetric_dist
from lcross.oracles import crossing_by_paths, forward


def test_walk_marginals_worked_examples():
    r = rademacher()
    m = walk_marginals(WalkSpec(step=r, horizon=2))
    assert m[0] == r
    assert m[1].atoms == ((F(-2), F(1, 4)), (F(0), F(1, 2)), (F(2), F(1, 4)))
    m = walk_marginals(WalkSpec(step=point_mass(1), horizon=3))
    assert m == [point_mass(1), point_mass(2), point_mass(3)]
    half = make_dist([(0, 1), (1, 1)])
    m = walk_marginals(WalkSpec(step=half, horizon=2))
    assert m[0] == half
    assert m[1].atoms == ((F(0), F(1, 4)), (F(1), F(1, 2)), (F(2), F(1, 4)))


def test_crossing_prob_worked_examples():
    r = rademacher()
    spec = WalkSpec(step=r, level=F(0), horizon=4)
    assert crossing_prob(spec, 1) == 1
    assert crossing_prob(spec, 2) == F(1, 2)
    assert crossing_prob(spec, 4) == F(3, 8)
    drift = WalkSpec(step=point_mass(1), level=F(1, 2), horizon=2)
    assert crossing_prob(drift, 2) == 0
    with pytest.raises(ValueError):
        crossing_prob(spec, 5)
    with pytest.raises(ValueError):
        crossing_prob(spec, 0)


def test_crossing_table_rademacher():
    report = crossing_table(WalkSpec(step=rademacher(), level=F(0), horizon=4))
    assert [row.p for row in report.rows] == [F(1), F(1, 2), F(1, 2), F(3, 8)]
    assert report.symmetric
    assert report.all_bounds_hold()
    n2 = report.rows[1]
    assert n2.zero_mass == F(1, 2)
    assert n2.lower_bound_ok and n2.chain_bound_ok and n2.domination_ok


def test_crossing_rows_behave_as_built_by_the_dataclass():
    """crossing_table fills each row's __dict__ directly; the row must still equal,
    hash and print like one from CrossingRow(...), and refuse assignment."""
    got = crossing_table(WalkSpec(step=rademacher(), level=F(0), horizon=2)).rows
    want = (
        walk.CrossingRow(1, F(1), F(0), F(0), 1.0, True, True, None),
        walk.CrossingRow(2, F(1, 2), F(1, 2), F(1, 2), math.sqrt(2) / 2, True, True, True),
    )
    assert got == want
    assert [hash(row) for row in got] == [hash(row) for row in want]
    assert [repr(row) for row in got] == [repr(row) for row in want]
    assert [vars(row) for row in got] == [vars(row) for row in want]
    with pytest.raises(dataclasses.FrozenInstanceError):
        got[0].p = F(0)


def test_crossing_table_degenerate_and_asymmetric():
    report = crossing_table(WalkSpec(step=point_mass(0), level=F(0), horizon=6))
    assert all(row.p == 0 for row in report.rows)
    assert report.all_bounds_hold()
    skew = make_dist([(0, 1), (2, 1)])
    report = crossing_table(WalkSpec(step=skew, level=F(0), horizon=4))
    assert not report.symmetric
    for row in report.rows:
        assert row.lower_bound_ok is None
        assert row.chain_bound_ok is None


def test_crossing_matches_path_enumeration():
    rng = random.Random(21)
    cases = []
    for _ in range(15):
        step = _random_dist(rng, 4, span=4, max_den=3)
        cases.append((step, F(rng.randint(-3, 3), rng.randint(1, 2))))
    skew = make_dist([(-1, 2), (2, 3)])
    cases += [
        (skew, F(-20)),  # level below every reachable position
        (skew, F(20)),  # level above every reachable position
        (skew, F(2)),  # level on an atom of the support
        (make_dist([(F(1, 2), 1), (F(3, 2), 1)]), F(2, 7)),  # off-lattice level
        (make_dist([(-1, 1), (0, 2), (2, 1)]), F(1)),  # atom at 0, level on a site
        (make_dist([(F(-5, 3), 1), (F(1, 3), 2)]), F(-1)),  # origin not a step multiple
        (point_mass(F(-3, 2)), F(-3)),  # point mass that lands on the level
        (point_mass(0), F(0)),
    ]
    for step, level in cases:
        report = crossing_table(WalkSpec(step=step, level=level, horizon=6))
        oracle = crossing_by_paths(step, level, 6)
        assert [row.p for row in report.rows] == oracle


def test_crossing_reflection_invariance():
    rng = random.Random(22)
    for _ in range(15):
        step = _random_dist(rng, 4, span=4)
        level = F(rng.randint(-3, 3), rng.randint(1, 2))
        a = crossing_table(WalkSpec(step=step, level=level, horizon=5))
        b = crossing_table(WalkSpec(step=negate(step), level=-level, horizon=5))
        assert [r.p for r in a.rows] == [r.p for r in b.rows]


def test_symmetric_bounds_on_random_laws():
    rng = random.Random(23)
    for _ in range(15):
        step = _random_symmetric_dist(rng)
        report = crossing_table(WalkSpec(step=step, level=F(0), horizon=24))
        for row in report.rows:
            assert row.lower_bound_ok
            assert row.chain_bound_ok
            if row.n >= 2:
                assert row.domination_ok


def test_dominated_crossing_bound():
    spec = WalkSpec(step=rademacher(), level=F(0), horizon=4)
    assert dominated_crossing_bound(spec, 2) == 1
    assert dominated_crossing_bound(spec, 3) == F(1, 2)
    assert dominated_crossing_bound(WalkSpec(step=lazy(), horizon=2), 2) == F(3, 4)
    with pytest.raises(NotApplicable):
        dominated_crossing_bound(WalkSpec(step=rademacher(), level=F(1), horizon=4), 2)
    with pytest.raises(ValueError):
        dominated_crossing_bound(spec, 1)
    with pytest.raises(ValueError, match="n must be at most the horizon 4, got 5"):
        dominated_crossing_bound(spec, 5)


def test_domination_bound_brute_force():
    rng = random.Random(24)
    for _ in range(10):
        step = _random_dist(rng, 4, span=3)
        spec = WalkSpec(step=step, level=F(0), horizon=5)
        rows = crossing_table(spec).rows
        for n, oracle in enumerate(forward(step, F(0), 5)[1:], start=2):
            assert dominated_crossing_bound(spec, n) == oracle.domination
            assert rows[n - 1].domination_ok == (rows[n - 1].p <= oracle.domination)


MIXED = make_dist([(-2, 1), (1, 2), (3, 1)])
NEGATIVE = make_dist([(-5, 2), (-2, 1), (-1, 1)])
HALVES = make_dist([(F(1, 2), 1), (F(3, 2), 1)])
SKEWED = make_dist([(0, 256), (1, 1)])  # P(S_n = 0) = 256^n / 257^n nearly fills a slot


def _assert_scan_matches_forward(step, horizon, extra_levels=()):
    lo, hi = step.values[0], step.values[-1]
    levels = {
        *extra_levels,
        F(0),
        hi,  # a site of S_1
        2 * lo,  # a site of S_2
        F(1, 7),  # off the lattice
        lo * horizon,  # the ends of S_horizon's support
        hi * horizon,
        lo * horizon - 1,  # just past them
        hi * horizon + 1,
        F(1000),  # far above and below the support
        F(-1000),
    }
    for level in sorted(levels):
        spec = WalkSpec(step=step, level=level, horizon=horizon)
        oracle = forward(step, level, horizon)
        rows = crossing_table(spec).rows
        assert [(r.p, r.atom_at_level, r.zero_mass) for r in rows] == [
            (o.p, o.at_level, o.at_zero) for o in oracle
        ]
        assert [crossing_prob(spec, n) for n in range(1, horizon + 1)] == [o.p for o in oracle]
        if level == 0:
            doms = [dominated_crossing_bound(spec, n) for n in range(2, horizon + 1)]
            assert doms == [o.domination for o in oracle[1:]]
            assert [r.domination_ok for r in rows[1:]] == [o.p <= o.domination for o in oracle[1:]]
            assert expected_sign_changes(spec) == sum(o.p for o in oracle)


def test_pruned_scan_matches_full_forward_recursion():
    positive = make_dist([(1, 1), (2, 3), (4, 1)])
    gapped = make_dist([(-3, 1), (0, 2), (3, 1)])
    steps = [MIXED, positive, NEGATIVE, HALVES, gapped, SKEWED, point_mass(0), point_mass(F(-2, 3))]
    for step, horizon in [(s, h) for s in steps for h in (1, 2, 9)] + [(MIXED, 40), (NEGATIVE, 40)]:
        _assert_scan_matches_forward(step, horizon)


def test_scan_matches_forward_recursion_across_slot_widenings():
    # The slots widen when n passes 1, 2, 4, 8, 16, 32: horizons on both sides of a doubling.
    for step in (SKEWED, MIXED, HALVES):
        for horizon in (15, 16, 17, 33):
            _assert_scan_matches_forward(step, horizon)


def test_window_weights_match_forward_recursion_across_residues():
    # S_{n-1}'s positions run through the residues mod the lattice step, each with its own
    # cached weights: 3 residues for {1, 4}, 2 for {-1, 1}, 5 for {1/3, 2} (in thirds) and
    # 999999 for {1, 10^6}, of which a short walk meets one per n.  The last two steps keep
    # to one side of 0, so thresholds fall far past the step's ends.
    steps = (
        make_dist([(1, 1), (4, 2)]),
        rademacher(),
        make_dist([(F(1, 3), 2), (2, 1)]),
        make_dist([(1, 3), (10**6, 1)]),
        make_dist([(-10, 1), (-9, 2)]),
        make_dist([(9, 2), (10, 1), (12, 1)]),
    )
    for step in steps:
        lo, hi = step.values[0], step.values[-1]
        gap = hi - lo
        # On the lattice, between its sites, and below and above the step's hull.
        extra = {lo + gap, 3 * lo, lo + gap / 2, lo - 1, lo - F(1, 2), hi + 1, 2 * hi + F(1, 3)}
        extra |= {-hi, -lo, -gap}
        for horizon in (1, 2, 5, 11):
            _assert_scan_matches_forward(step, horizon, extra)


def test_walk_marginals_read_the_packed_engine(monkeypatch):
    # walk_marginals unpacks each S_n once from the scan's packed engine and builds no
    # lattice; lattice_convolve and to_lattice stay bound in walk for perfbench's tracer.
    assert vars(walk)["lattice_convolve"] is dist.lattice_convolve
    assert vars(walk)["to_lattice"] is dist.to_lattice
    monkeypatch.setattr(walk, "lattice_convolve", lambda a, b: pytest.fail("lattice convolved"))
    monkeypatch.setattr(walk, "to_lattice", lambda d: pytest.fail("lattice built"))
    monkeypatch.setattr(dist.LatticeDist, "to_dist", lambda lat: pytest.fail("lattice read"))
    # The slots widen when n passes 1, 2, 4, 8, 16, 32: horizons on both sides of a doubling.
    for step in (SKEWED, MIXED, NEGATIVE, HALVES, point_mass(F(-2, 3))):
        for horizon in (15, 16, 17, 33):
            expected = [DiscreteDist(row.law.items()) for row in forward(step, F(0), horizon)]
            assert walk_marginals(WalkSpec(step=step, horizon=horizon)) == expected


def test_scan_slots_fit_the_marginal_not_the_horizon(monkeypatch):
    widths = []
    real = walk._shift_add

    def recording(x, off, y, lo, hi, wb):
        widths.append(wb)
        return real(x, off, y, lo, hi, wb)

    monkeypatch.setattr(walk, "_shift_add", recording)
    for step, horizon in ((SKEWED, 100), (MIXED, 70), (rademacher(), 300)):
        widths.clear()
        crossing_table(WalkSpec(step=step, horizon=horizon))
        # One product per n < H, on slots for at least D^n and at most D^(2n); each
        # row reads S_n's two masses off S_{n-1}, so S_H is never built.
        den = step.den
        assert len(widths) == horizon - 1
        for n, wb in enumerate(widths, 1):
            assert walk._slot_bytes(den**n) <= wb <= walk._slot_bytes(den ** (2 * n))
        assert widths == sorted(widths)


def test_every_row_reads_the_masses_of_its_own_marginal(monkeypatch):
    # Each row reads P(S_n = l) and P(S_n = 0) by summing S_{n-1} against the step,
    # so crossing_table never builds S_H itself.
    rng = random.Random(25)
    real, products, off_zero = walk._shift_add, [], 0
    monkeypatch.setattr(walk, "_shift_add", lambda *args: products.append(1) or real(*args))
    for _ in range(80):
        step = _random_dist(rng, 4, span=4, max_den=3)
        horizon = rng.randint(1, 6)
        marginals = [dict(m.atoms) for m in walk_marginals(WalkSpec(step=step, horizon=horizon))]
        if rng.random() < 0.5:  # a point of S_H, often off the step's lattice and off 0
            level = rng.choice(sorted(marginals[-1]))
        else:
            level = F(rng.randint(-8, 8), rng.randint(1, 3))
        products.clear()
        rows = crossing_table(WalkSpec(step=step, level=level, horizon=horizon)).rows
        assert len(products) == horizon - 1
        for row, law in zip(rows, marginals):
            assert row.atom_at_level == law.get(level, 0)
            assert row.zero_mass == law.get(F(0), 0)
        off_zero += level != 0 and rows[-1].atom_at_level != 0
    assert off_zero >= 10


def test_scan_work_shrinks_toward_the_last_row(monkeypatch):
    sites = []
    real = walk._shift_add

    def counting(x, off, y, lo, hi, wb):
        sites.append(hi - lo + 1)  # the kept sites lo..hi of the packed product
        return real(x, off, y, lo, hi, wb)

    monkeypatch.setattr(walk, "_shift_add", counting)
    step = make_dist([(-2, 1), (-1, 3), (0, 1), (1, 2), (2, 1)])
    # p_30 costs the same whatever the horizon: the scan prunes to n, not to the horizon.
    crossing_prob(WalkSpec(step=step, horizon=30), 30)
    short = sum(sites)
    sites.clear()
    crossing_prob(WalkSpec(step=step, horizon=300), 30)
    assert sum(sites) == short
    # A full pass keeps about half the sites of the full marginals S_1..S_H.
    sites.clear()
    crossing_table(WalkSpec(step=step, horizon=100))
    full = sum(4 * n + 1 for n in range(1, 101))
    assert sum(sites) < 0.6 * full


def test_powers_keeps_exactly_the_sites_that_can_reach_the_window():
    # R_n: S_n's sites i in 0..n*width from which a walk of last - n more steps, each
    # moving by min(x0, 0) at least and max(v_max, 0) at most, can still reach the
    # window [q_lo, q_hi].  Found here by trying every i, not by the engine's floors.
    cases = [
        (-2, 1, (1, 3, 1, 2, 1), -3, 3),
        (-3, 3, (2, 1), -3, 4),
        (1, 2, (1, 0, 2), -4, 5),  # positive steps: R_n empties before the last n
        (-7, 2, (5, 0, 0, 1), -7, 13),
    ]
    last = 9
    for x0, g, nums, q_lo, q_hi in cases:
        width, v_max = len(nums) - 1, x0 + (len(nums) - 1) * g
        for n, _, _, lo, hi, _ in walk._powers(x0, g, nums, sum(nums), last, q_lo, q_hi):
            far = range(-100 * last, 100 * last)  # every site that matters, and more
            up = [i for i in far if n * x0 + i * g + (last - n) * max(v_max, 0) >= q_lo]
            down = [i for i in far if n * x0 + i * g + (last - n) * min(x0, 0) <= q_hi]
            assert (lo, hi) == (max(up[0], 0), min(down[-1], n * width)), (x0, g, nums, n)


def test_wide_uniform_laws_match_closed_forms():
    # X uniform on 0..N, level 0: S_1 != 0 crosses, so p_1 = N/(N+1); at n = 2 only
    # S_1 = 0 followed by X_2 > 0 crosses, so p_2 = N/(N+1)^2; and the domination bound
    # P(S_1 <= X_2) = (1 + P(X_1 = X_2)) / 2 = (N+2) / (2(N+1)).
    for big, horizon in ((10**5, 1), (2000, 2)):
        spec = WalkSpec(step=uniform_range(0, big), horizon=horizon)
        rows = crossing_table(spec).rows
        assert [r.p for r in rows] == [F(big, (big + 1) ** n) for n in range(1, horizon + 1)]
        assert rows[0].zero_mass == F(1, big + 1)
        if horizon == 2:
            assert dominated_crossing_bound(spec, 2) == F(big + 2, 2 * (big + 1))
            assert rows[1].zero_mass == F(1, (big + 1) ** 2)


def test_concentration():
    r = rademacher()
    assert concentration(r, 0) == F(1, 2)
    assert concentration(r, 2) == 1
    d = make_dist([(0, F(1, 4)), (1, F(1, 2)), (5, F(1, 4))])
    assert concentration(d, 1) == F(3, 4)
    with pytest.raises(ValueError):
        concentration(r, -1)


def test_concentration_monotone_and_saturating():
    rng = random.Random(25)
    for _ in range(10):
        d = _random_dist(rng, 6)
        widths = [F(k, 2) for k in range(0, 8)]
        values = [concentration(d, w) for w in widths]
        assert all(a <= b for a, b in zip(values, values[1:]))
        diameter = d.values[-1] - d.values[0]
        assert concentration(d, diameter) == 1


def test_concentration_matches_brute_force():
    rng = random.Random(72)
    for _ in range(60):
        d = _random_dist(rng, 8, span=12)
        for _ in range(4):
            lam = F(rng.randint(0, 40), rng.randint(1, 7))
            expected = max(
                sum((w for v, w in d.atoms if x <= v <= x + lam), F(0)) for x in d.values
            )
            assert concentration(d, lam) == expected


def test_expected_sign_changes():
    assert expected_sign_changes(WalkSpec(step=rademacher(), horizon=2)) == F(3, 2)
    assert expected_sign_changes(WalkSpec(step=point_mass(0), horizon=10)) == 0
    assert expected_sign_changes(WalkSpec(step=point_mass(1), horizon=10)) == 1
    with pytest.raises(NotApplicable):
        expected_sign_changes(WalkSpec(step=rademacher(), level=F(1), horizon=4))


def test_walk_spec_validation():
    with pytest.raises(ValueError):
        WalkSpec(step=rademacher(), horizon=0)


def test_scan_reads_the_step_law_not_its_lattice(monkeypatch):
    # The scan and the horizon check read the law's own dense view; no LatticeDist is built.
    steps = (make_dist([(-1, 1), (F(1, 2), 2)]), point_mass(F(2, 3)), lazy())
    specs = [WalkSpec(step=d, horizon=6) for d in steps]

    def results(spec):
        n = spec.horizon
        rows = crossing_table(spec)
        bound = dominated_crossing_bound(spec, n)
        return rows, crossing_prob(spec, n), bound, expected_sign_changes(spec)

    expected = [results(spec) for spec in specs]
    monkeypatch.setattr(walk, "to_lattice", lambda d: pytest.fail("lattice built"))
    assert [results(WalkSpec(step=make_dist(s.step.atoms), horizon=6)) for s in specs] == expected


def test_wide_step_scan_memory():
    # The scan's allocations beyond the law's cached views do not grow with the step's
    # sites: no padded CDF copy, and no (site, mass) list at H = 1, where nothing reads it.
    # Bounds fixed before the fix; at its parent the two peaks were 18.1 and 4.2 MB.
    cases = ((uniform_range(0, 99999), 1, 4_000_000), (uniform_range(0, 9999), 2, 3_000_000))
    for step, horizon, bound in cases:
        step._dense, step._prefix  # cached on the law, outside the traced span
        tracemalloc.start()
        try:
            crossing_table(WalkSpec(step=step, horizon=horizon))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (horizon, peak)


def test_resource_cap(monkeypatch):
    monkeypatch.setenv("LCROSS_MAX_SUPPORT", "10")
    # Refused up front at the first n whose marginal spans more sites than the cap.
    cases = ((rademacher(), 64, 10), (rademacher(), 10, 10), (uniform_range(0, 3), 4, 4))
    for step, horizon, first in cases:
        with pytest.raises(ResourceLimit, match=f"n={first} "):
            crossing_table(WalkSpec(step=step, horizon=horizon))
        assert len(walk_marginals(WalkSpec(step=step, horizon=first - 1))[-1]) <= 10
    monkeypatch.setenv("LCROSS_MAX_SUPPORT", "1000")
    # The horizon is refused before the step law's symmetry is tested.
    with monkeypatch.context() as m:
        m.setattr(DiscreteDist, "is_symmetric", lambda d: pytest.fail("symmetry tested"))
        with pytest.raises(ResourceLimit, match="n=2 "):
            crossing_table(WalkSpec(step=uniform_range(0, 999), horizon=2))
    wide = make_dist([(0, 1), (1, 1), (10**7, 1)])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="10000001 lattice sites"):
            crossing_table(WalkSpec(step=wide, horizon=1))
        with pytest.raises(ResourceLimit, match="1000000000001 sites"):
            uniform_range(0, 10**12)
        huge = WalkSpec(step=rademacher(), horizon=10**8)
        with pytest.raises(ResourceLimit, match="n=1000 exceeds the cap of 1000"):
            crossing_table(huge)
        with pytest.raises(ResourceLimit, match="n=1000 "):
            crossing_prob(huge, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    monkeypatch.setenv("LCROSS_MAX_SUPPORT", "banana")
    with pytest.raises(ValueError):
        crossing_table(WalkSpec(step=rademacher(), horizon=4))
    for raw in ("0", "-3"):
        monkeypatch.setenv("LCROSS_MAX_SUPPORT", raw)
        with pytest.raises(ValueError, match=f"LCROSS_MAX_SUPPORT must be positive, got {raw}"):
            crossing_table(WalkSpec(step=rademacher(), horizon=4))


def test_report_csv_and_json():
    report = crossing_table(WalkSpec(step=rademacher(), level=F(0), horizon=2))
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "n,p_n,sqrt_n_p_n,P_Sn_eq_0,lower_bound_ok,chain_bound_ok,domination_ok"
    assert lines[1].startswith("1,1,")
    assert lines[2].split(",")[1] == "1/2"
    assert lines[1].endswith("true,true,na")
    doc = report.to_json_dict()
    assert doc["level"] == "0" and doc["horizon"] == 2 and doc["symmetric"]
    assert doc["rows"][1]["p_n"] == "1/2"
    assert doc["rows"][1]["domination_ok"] is True
    # A report built by hand with no rows prints the same header and nothing else.
    empty = walk.CrossingReport(F(0), 1, True, ())
    assert empty.to_csv() == lines[0] + "\r\n" and empty.to_json_dict()["rows"] == []


def test_report_formats_rationals_past_the_digit_limit():
    # Steps -1 and 1 with weights 1/10^4000 and 1 - 1/10^4000: p_2 = P(S_2 = 0) =
    # 2(10^4000 - 1)/10^8000, whose numerator has 4,000 digits and its denominator 8,000
    # in lowest terms, past the 4,300 that str(int) converts by default.
    tiny = F(1, 10**4000)
    report = crossing_table(WalkSpec(step=make_dist([(-1, tiny), (1, 1 - tiny)]), horizon=2))
    want = "9" * 4000 + "/5" + "0" * 7999
    row = report.to_csv().strip().splitlines()[2].split(",")
    assert row[0] == "2" and row[1] == row[3] == want
    doc = report.to_json_dict()["rows"][1]
    assert doc["p_n"] == doc["atom_at_level"] == doc["P_Sn_eq_0"] == want
