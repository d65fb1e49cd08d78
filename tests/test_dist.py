import random
import tracemalloc
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcross import (
    DiscreteDist,
    InvalidDistribution,
    InvalidInterval,
    LatticeDist,
    ResourceLimit,
    WalkSpec,
    abs_dist,
    convolve,
    from_json,
    interval_prob,
    lattice_convolve,
    lazy,
    make_dist,
    negate,
    point_mass,
    rademacher,
    symmetrize,
    to_json,
    to_lattice,
    uniform_range,
    walk_marginals,
)
from lcross.acceptance import _random_dist
from lcross.dist import _pack, _shift_add, _slot_bytes, _unpack
from lcross.rationals import as_rational


def test_make_dist_merges_sorts_normalizes():
    d = make_dist([(1, F(1, 2)), (1, F(1, 4)), (0, F(1, 4))])
    assert d.atoms == ((F(0), F(1, 4)), (F(1), F(3, 4)))
    assert make_dist([(3, 2)]).atoms == ((F(3), F(1)),)
    assert make_dist([(-1, 1), (1, 1)]).atoms == ((F(-1), F(1, 2)), (F(1), F(1, 2)))


def test_make_dist_accepts_strings_and_drops_zero_weights():
    d = make_dist([("1/2", "3"), ("-2", "1"), ("7", 0)])
    assert d.values == (F(-2), F(1, 2))
    assert d.weights == (F(1, 4), F(3, 4))


def test_make_dist_rejects_bad_input():
    with pytest.raises(InvalidDistribution):
        make_dist([])
    with pytest.raises(InvalidDistribution):
        make_dist([(0, 0), (1, 0)])
    with pytest.raises(InvalidDistribution):
        make_dist([(0, -1), (1, 2)])


def test_direct_construction_validates_invariants():
    with pytest.raises(InvalidDistribution):
        DiscreteDist(((F(0), F(1, 2)), (F(0), F(1, 2))))
    with pytest.raises(InvalidDistribution):
        DiscreteDist(((F(0), F(1, 2)),))


def _assert_canonical(d):
    # Rebuilding a kernel's law through the validating constructor must accept
    # its atoms and give the same lowest-terms fields.
    rebuilt = DiscreteDist(d.atoms)
    assert rebuilt == d and hash(rebuilt) == hash(d)
    assert gcd(d.scale, *d.points) == 1 and gcd(d.den, *d.masses) == 1


def test_kernel_built_laws_pass_validation():
    rng = random.Random(12)
    for _ in range(20):
        a, b = _random_dist(rng, 5), _random_dist(rng, 5)
        lat = lattice_convolve(to_lattice(a), to_lattice(a))
        built = (convolve(a, b), negate(a), symmetrize(b), lat.to_dist(), uniform_range(-3, 4))
        for d in (*built, abs_dist(a), abs_dist(symmetrize(b))):  # +-x weights merge
            _assert_canonical(d)
    # Scales and weights that cancel: 1/2 + 1/2 is an integer, 1/2 + 1/2 of mass is one.
    half = make_dist([(F(-1, 2), 1), (F(1, 2), 1)])
    cancelling = (
        convolve(half, half),
        symmetrize(half),
        abs_dist(half),
        abs_dist(rademacher()),
        LatticeDist(F(1, 2), F(1, 2), (2, 4, 2), 8).to_dist(),
        LatticeDist(F(0), F(3, 2), (3, 0, 3), 6).to_dist(),
    )
    for d in cancelling:
        _assert_canonical(d)
    assert (convolve(half, half).scale, abs_dist(half).masses) == (1, (1,))


def test_construction_accepts_any_iterable():
    atoms = [(F(0), F(1, 2)), (F(1), F(1, 2))]
    d = make_dist([(0, 1), (1, 1)])
    for built in (DiscreteDist(atoms), DiscreteDist(iter(atoms)), DiscreteDist(tuple(atoms))):
        assert built == d and hash(built) == hash(d) and repr(built) == repr(d)


def test_convolve_worked_examples():
    r = rademacher()
    assert convolve(r, r).atoms == ((F(-2), F(1, 4)), (F(0), F(1, 2)), (F(2), F(1, 4)))
    d = make_dist([(0, 1), (5, 2)])
    assert convolve(d, point_mass(0)) == d
    assert convolve(point_mass(2), point_mass(3)) == point_mass(5)


def test_negate_and_abs():
    assert negate(rademacher()) == rademacher()
    assert negate(point_mass(3)) == point_mass(-3)
    assert negate(make_dist([(0, F(1, 3)), (2, F(2, 3))])).atoms == (
        (F(-2), F(2, 3)),
        (F(0), F(1, 3)),
    )
    assert abs_dist(rademacher()) == point_mass(1)
    assert abs_dist(point_mass(-3)) == point_mass(3)
    two_step = convolve(rademacher(), rademacher())
    assert abs_dist(two_step).atoms == ((F(0), F(1, 2)), (F(2), F(1, 2)))


def test_symmetrize_worked_examples():
    assert symmetrize(point_mass(7)) == point_mass(0)
    assert symmetrize(rademacher()).atoms == (
        (F(-2), F(1, 4)),
        (F(0), F(1, 2)),
        (F(2), F(1, 4)),
    )
    assert symmetrize(make_dist([(0, 1), (1, 1)])).atoms == (
        (F(-1), F(1, 4)),
        (F(0), F(1, 2)),
        (F(1), F(1, 4)),
    )


def test_symmetrize_is_symmetric_on_random_laws():
    rng = random.Random(5)
    for _ in range(30):
        d = _random_dist(rng, 5)
        s = symmetrize(d)
        assert s == negate(s)
        assert s.is_symmetric()


def test_convolve_commutative_associative_on_random_laws():
    rng = random.Random(6)
    for _ in range(20):
        a, b, c = (_random_dist(rng, 4) for _ in range(3))
        assert convolve(a, b) == convolve(b, a)
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


def test_convolve_matches_pair_enumeration():
    rng = random.Random(7)
    for _ in range(20):
        a, b = _random_dist(rng, 6), _random_dist(rng, 6)
        table: dict = {}
        for va, wa in a.atoms:
            for vb, wb in b.atoms:
                table[va + vb] = table.get(va + vb, F(0)) + wa * wb
        assert convolve(a, b).atoms == tuple(sorted(table.items()))


def test_interval_prob():
    r = rademacher()
    assert interval_prob(r, -1, 1) == 1
    assert interval_prob(r, -1, 1, lo_closed=False, hi_closed=False) == 0
    d = make_dist([(0, F(1, 3)), (2, F(2, 3))])
    assert interval_prob(d, 1, 2) == F(2, 3)
    assert interval_prob(d, None, 0) == F(1, 3)
    assert interval_prob(d, 0, None, lo_closed=False) == F(2, 3)
    assert interval_prob(d, None, None) == 1
    assert interval_prob(d, 3, 9) == 0
    with pytest.raises(InvalidInterval):
        interval_prob(d, 2, 1)


def _brute_interval(d, lo, hi, lo_closed, hi_closed):
    total = F(0)
    for v, w in d.atoms:
        above = lo is None or (lo <= v if lo_closed else lo < v)
        below = hi is None or (v <= hi if hi_closed else v < hi)
        if above and below:
            total += w
    return total


def test_window_queries_match_brute_force():
    rng = random.Random(71)
    for _ in range(60):
        d = _random_dist(rng, 8, span=12)
        for _ in range(5):
            lo = F(rng.randint(-40, 40), rng.randint(1, 7))
            hi = lo + F(rng.randint(0, 40), rng.randint(1, 7))
            for lo_closed in (True, False):
                for hi_closed in (True, False):
                    for a, b in ((lo, hi), (None, hi), (lo, None), (None, None)):
                        expected = _brute_interval(d, a, b, lo_closed, hi_closed)
                        assert interval_prob(d, a, b, lo_closed, hi_closed) == expected
            off_grid = F(rng.randint(-40, 40), rng.randint(1, 7))
            assert d.prob(off_grid) == sum((w for v, w in d.atoms if v == off_grid), F(0))
        for v, w in d.atoms:
            assert d.prob(v) == w


def test_fraction_atoms_are_lazy_and_invisible():
    a = make_dist([(F(1, 2), 1), (F(-1, 3), 2)])
    step = make_dist([(-1, 1), (0, 2), (3, 1)])
    built = [
        convolve(a, step),
        negate(a),
        symmetrize(a),
        abs_dist(symmetrize(a)),
        uniform_range(-3, 4),
        to_lattice(a).to_dist(),
        *walk_marginals(WalkSpec(step=step, horizon=3)),
    ]
    for d in built:
        # Queries and kernels read the integer form only.
        d.prob(F(1, 2)), interval_prob(d, 0, None), d.is_symmetric(), len(d), hash(d)
        convolve(d, d), to_lattice(d)
        assert "atoms" not in vars(d)
        fresh = make_dist(d.atoms)
        assert "atoms" in vars(d)
        assert d == fresh and hash(d) == hash(fresh) and repr(d) == repr(fresh)


def test_to_lattice_worked_examples():
    lat = to_lattice(rademacher())
    assert (lat.origin, lat.step) == (F(-1), F(2))
    assert lat.weights == (F(1, 2), F(1, 2))
    lat = to_lattice(make_dist([(F(1, 2), 1), (2, 1)]))
    assert (lat.origin, lat.step) == (F(1, 2), F(3, 2))
    lat = to_lattice(point_mass(7))
    assert (lat.origin, lat.step, lat.weights) == (F(7), F(1), (F(1),))


def _lattice_laws():
    rng = random.Random(8)
    laws = [_random_dist(rng, 6) for _ in range(40)]
    return laws + [point_mass(7), point_mass(F(-5, 3)), make_dist([(F(1, 6), 1), (F(5, 4), 2)])]


def test_lattice_round_trip_on_random_laws():
    for d in _lattice_laws():
        lat = to_lattice(d)
        assert lat.to_dist() == d
        # The lattice is the law's dense view, on the coarsest step holding its values:
        # their offsets are integer multiples of it with gcd one (a point mass has step one).
        x0, g, nums = d._dense
        assert (lat.origin, lat.step, lat.numerators) == (F(x0, d.scale), F(g, d.scale), nums)
        offsets = [(v - lat.origin) / lat.step for v in d.values]
        assert all(q.denominator == 1 for q in offsets)
        assert gcd(*(q.numerator for q in offsets)) == 1 or (len(d), lat.step) == (1, 1)


def test_lattice_prob_reads_the_lattice(monkeypatch):
    wide = uniform_range(0, 9999)
    lattices = [(d, to_lattice(d)) for d in (*_lattice_laws(), wide)]
    monkeypatch.setattr(LatticeDist, "to_dist", lambda lat: pytest.fail("law built"))
    for d, lat in lattices[:-1]:
        # Point masses on every site, empty or not, between sites and past both ends.
        for i in range(-2, len(lat) + 2):
            for v in (lat.value(i), lat.value(i) + lat.step / 2, lat.value(i) + lat.step / 3):
                assert lat.prob(v) == d.prob(v)
    lat = lattices[-1][1]
    for v in (-1, 0, "5", F(11, 2), 9999, 10000):
        assert lat.prob(v) == wide.prob(v)


def _random_lattice(rng, step):
    nums = [rng.choice((0, 0, 1, 3)) for _ in range(rng.randint(1, 9))]
    nums[0], nums[-1] = rng.randint(1, 4), rng.randint(1, 4)
    return LatticeDist(F(rng.randint(-9, 9), rng.randint(1, 4)), step, tuple(nums), sum(nums))


def test_lattice_convolve_matches_dist_convolve():
    rng = random.Random(9)
    for _ in range(20):
        a, b = _random_dist(rng, 5), _random_dist(rng, 5)
        exact = convolve(a, b)
        fast = lattice_convolve(to_lattice(a), to_lattice(b)).to_dist()
        assert fast == exact
    # Same step, interior zeros included: the shifted-add kernel against a
    # brute-force pair table, keeping the common step and the full span.
    for _ in range(40):
        step = F(rng.randint(1, 5), rng.randint(1, 4))
        a = _random_lattice(rng, step)
        for b in (_random_lattice(rng, step), a):
            table: dict = {}
            for i, na in enumerate(a.numerators):
                for j, nb in enumerate(b.numerators):
                    if na and nb:
                        v = a.value(i) + b.value(j)
                        table[v] = table.get(v, F(0)) + F(na * nb, a.denominator * b.denominator)
            out = lattice_convolve(a, b)
            assert out.to_dist().atoms == tuple(sorted(table.items()))
            assert (out.origin, out.step) == (a.origin + b.origin, step)
            assert len(out) == len(a) + len(b) - 1


def test_lattice_convolve_mixed_steps_respect_the_cap(monkeypatch):
    monkeypatch.setenv("LCROSS_MAX_SUPPORT", "1000")
    coarse = to_lattice(make_dist([(0, 1), (1, 1)]))
    fine = to_lattice(make_dist([(0, 1), (F(1, 10**5), 1)]))
    wide = to_lattice(uniform_range(0, 999))
    dense = LatticeDist(F(0), F(1, 1000), (1,) * 1000, 1000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="100002 lattice sites"):
            lattice_convolve(coarse, fine)
        # 1000 sites on step 1 with 1000 on step 1/1000 span 10^6 sites, refused
        # before the million pairs are formed.
        with pytest.raises(ResourceLimit, match="1000000 lattice sites"):
            lattice_convolve(wide, dense)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    half = to_lattice(make_dist([(0, 1), (F(1, 2), 1)]))
    assert lattice_convolve(coarse, half).to_dist() == convolve(coarse.to_dist(), half.to_dist())
    # Mixed steps land on the coarsest step of the result's support.
    out = lattice_convolve(LatticeDist(F(5), F(1, 3), (1,), 1), half)
    assert (out.origin, out.step, len(out)) == (F(5), F(1, 2), 2)
    gapped = LatticeDist(F(0), F(1), (1, 0, 1), 2)
    out = lattice_convolve(gapped, LatticeDist(F(0), F(2), (1, 1), 2))
    assert (out.step, out.numerators, out.denominator) == (F(2), (1, 2, 1), 4)


def test_public_lattice_validates_and_kernel_lattices_match_it():
    for args, message in [
        ((F(0), F(0), (1,), 1), "step must be positive"),
        ((F(0), F(1), (1,), 0), "denominator must be positive"),
        ((F(0), F(1), (), 1), "at least one site"),
        ((F(0), F(1), (0, 1), 1), "end numerators"),
        ((F(0), F(1), (2, -1, 1), 2), "nonnegative"),
        ((F(0), F(1), (1, 1), 3), "sum to the denominator"),
    ]:
        with pytest.raises(InvalidDistribution, match=message):
            LatticeDist(*args)
    # Lattices the kernels build skip that check; they pass it all the same.
    rng = random.Random(31)
    for _ in range(20):
        step = F(rng.randint(1, 3), rng.randint(1, 2))
        a, b = _random_lattice(rng, step), _random_lattice(rng, step)
        for out in (lattice_convolve(a, b), to_lattice(a.to_dist())):
            assert LatticeDist(out.origin, out.step, out.numerators, out.denominator) == out


_SLOT_NUMERATORS = st.one_of(st.integers(0, 3), st.sampled_from([255, 256, 2**16 - 1, 2**16]))


@settings(max_examples=200, deadline=None)
# One-site marginals at exactly den^n times point-mass steps of mass den: the
# product fills its slot to the bound den^(n+1).
@example(x=[255**3], y=[255], off=0, lo=0, span=0)
@example(x=[2**24], y=[0, 2**8], off=-1, lo=0, span=0)
@example(x=[3**5], y=[3], off=4, lo=-2, span=9)
@example(x=[1, 0, 2], y=[3, 1], off=2, lo=5, span=-1)  # no site kept
@given(
    x=st.lists(_SLOT_NUMERATORS, min_size=1, max_size=10),
    y=st.lists(_SLOT_NUMERATORS, min_size=1, max_size=10),
    off=st.integers(-6, 6),
    lo=st.integers(-10, 24),
    span=st.integers(-3, 30),
)
def test_packed_kernel_matches_dict_convolution(x, y, off, lo, span):
    # Sites lo..lo+span of x * y, x's numerator t at site off + t, y's j at site j.
    exact: dict = {}
    for t, p in enumerate(x):
        for j, q in enumerate(y):
            exact[off + t + j] = exact.get(off + t + j, 0) + p * q
    hi = lo + span  # span < 0 keeps no site
    wb = _slot_bytes(max(sum(x), 1) * max(sum(y), 1))  # no product site is larger
    want = [exact.get(i, 0) for i in range(lo, hi + 1)]
    # Either operand may be the packed one and the other the looped one; kept ranges
    # start below and above the offset, so shifts of both signs run.
    for packed, looped in ((x, y), (y, x)):
        out = _shift_add(_pack(packed, wb), off, enumerate(looped), lo, hi, wb)
        assert list(_unpack(out, wb, 0, span + 1)) == want
        assert out < 1 << (8 * wb * max(span + 1, 0))


def test_as_rational_refuses_runaway_exponents():
    assert as_rational("1e-3") == F(1, 1000)
    assert as_rational("2.5E2") == 250
    for text in ("1e999999999", "1e-999999999"):
        with pytest.raises(ValueError, match="cannot parse rational"):
            as_rational(text)
    with pytest.raises(InvalidDistribution, match="atom 0"):
        from_json('{"atoms": [{"v": "1e999999999", "w": "1"}]}')


def test_uniform_range():
    d = uniform_range(-1, 1)
    assert d.values == (F(-1), F(0), F(1))
    assert all(w == F(1, 3) for w in d.weights)
    with pytest.raises(InvalidDistribution):
        uniform_range(2, 1)
    for lo, hi in ((0, 0), (-4, 3), (5, 11)):
        assert uniform_range(lo, hi) == make_dist([(v, 1) for v in range(lo, hi + 1)])


def test_lazy_weights():
    assert lazy().atoms == ((F(-1), F(1, 4)), (F(0), F(1, 2)), (F(1), F(1, 4)))


def test_json_round_trip_and_renormalization():
    d = make_dist([(F(-1, 3), F(2, 5)), (4, F(3, 5))])
    got, renorm = from_json(to_json(d))
    assert got == d and not renorm
    got, renorm = from_json('{"atoms": [{"v": "-1", "w": "3"}, {"v": "1", "w": "3"}]}')
    assert got == rademacher() and renorm


def test_json_errors_name_the_offending_field():
    with pytest.raises(InvalidDistribution, match="atoms"):
        from_json("{}")
    with pytest.raises(InvalidDistribution, match="atom 1"):
        from_json('{"atoms": [{"v": "0", "w": "1"}, {"v": "1"}]}')
    with pytest.raises(InvalidDistribution, match='"v"'):
        from_json('{"atoms": [{"v": "x/y", "w": "1"}]}')
    with pytest.raises(InvalidDistribution):
        from_json("not json")


finite_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=6)
weight_fractions = st.fractions(min_value=0, max_value=5, max_denominator=4)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(finite_fractions, weight_fractions), min_size=1, max_size=6))
def test_make_dist_total_mass_is_one(pairs):
    if all(w == 0 for _, w in pairs):
        with pytest.raises(InvalidDistribution):
            make_dist(pairs)
        return
    d = make_dist(pairs)
    assert sum(d.weights) == 1
    assert all(w > 0 for w in d.weights)
    assert list(d.values) == sorted(set(d.values))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(finite_fractions, weight_fractions), min_size=1, max_size=4),
    st.lists(st.tuples(finite_fractions, weight_fractions), min_size=1, max_size=4),
)
def test_convolve_mass_exactly_one(pa, pb):
    if all(w == 0 for _, w in pa) or all(w == 0 for _, w in pb):
        return
    c = convolve(make_dist(pa), make_dist(pb))
    assert sum(c.weights) == 1


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.tuples(finite_fractions, weight_fractions), min_size=1, max_size=5),
    st.booleans(),
    st.one_of(st.none(), st.tuples(finite_fractions, weight_fractions)),
)
def test_is_symmetric_matches_negation(pairs, mirror, extra):
    # Mirrored laws are symmetric; one extra atom usually breaks that.
    if mirror:
        pairs = pairs + [(-v, w) for v, w in pairs]
    if extra is not None:
        pairs = pairs + [extra]
    if all(w == 0 for _, w in pairs):
        return
    d = make_dist(pairs)
    assert d.is_symmetric() == (d == negate(d))
