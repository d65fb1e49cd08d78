"""Seeded workloads: the jobs each benchmark run sends to lcross.

A workload is a pool of jobs built from the workload seed.  Input sizes
follow a fixed schedule per workload, so every seed costs about the same;
the seed draws the contents (weights, values, supports, levels, which
recorded MC cases run).  Each job calls one public entry point through its
module attribute, so the tracer's wrappers see the call, and carries the
check that verifies its output against the references in ``oracles``.

MC jobs come from ``mc_reference.json``, a catalogue recorded with
``record_mc.py``: each case stores its sampler, arguments and the exact
result at the commit that recorded it, so MC outputs are checked bit for
bit for whichever cases a seed selects.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from typing import Callable, Dict, List

import lcross.dichotomy as dichotomy
import lcross.mc as mc
import lcross.symmetrization as symmetrization
import lcross.walk as walk
from lcross import DiscreteDist, WalkSpec, make_dist

import oracles

MC_REFERENCE = Path(__file__).resolve().parent / "mc_reference.json"


@dataclass(frozen=True)
class Job:
    key: str  # identifies the input; equal keys get equal outputs
    kind: str  # public entry point the job calls
    call: Callable[[], object]
    check: Callable[[object], None]  # raises oracles.Mismatch on a wrong output


# ------------------------------------------------------------ step laws


def _composition(rng: random.Random, total: int, parts: int) -> List[int]:
    """Random positive parts summing to total whose gcd is one."""
    while True:
        cuts = sorted(rng.sample(range(1, total), parts - 1))
        out = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        if gcd(*out) == 1:
            return out


def dense_law(rng: random.Random, a: int, symmetric: bool, total: int = 60) -> DiscreteDist:
    """Random weights on every integer of -a..a, weights summing to total."""
    if symmetric:
        half = _composition(rng, total // 2, a + 1)
        weights = half[:0:-1] + [2 * half[0]] + half[1:]
    else:
        weights = _composition(rng, total, 2 * a + 1)
    return make_dist(zip(range(-a, a + 1), weights))


def _step_law(rng: random.Random, law: str, a: int) -> DiscreteDist:
    if law == "rademacher":
        w = rng.choice([w for w in range(18, 43) if gcd(w, 60) == 1])
        return make_dist([(-1, w), (1, 60 - w)])
    if law == "lazy":
        c = rng.choice([c for c in range(6, 25) if gcd(c, 60) == 1])
        return make_dist([(-1, c), (0, 60 - 2 * c), (1, c)])
    return dense_law(rng, a, symmetric=(law == "dense_sym"))


def sparse_rational_law(rng: random.Random, atoms: int, span: int = 9, max_den: int = 4) -> DiscreteDist:
    values = set()
    while len(values) < atoms:
        values.add(Fraction(rng.randint(-span, span), rng.randint(1, max_den)))
    return make_dist([(v, rng.randint(1, 9)) for v in sorted(values)])


def lattice_sites(d: DiscreteDist) -> int:
    """Sites of the coarsest arithmetic progression holding the law's atoms."""
    scale = lcm(*(v.denominator for v in d.values))
    ints = [int(v * scale) for v in d.values]
    step = gcd(*(b - a for a, b in zip(ints, ints[1:]))) or 1
    return (ints[-1] - ints[0]) // step + 1


def _law_key(d: DiscreteDist) -> str:
    return ";".join(f"{v}:{w}" for v, w in d.atoms)


# ----------------------------------------------------------------- jobs


def crossing_job(spec: WalkSpec) -> Job:
    return Job(
        f"crossing_table|{_law_key(spec.step)}|{spec.level}|{spec.horizon}",
        "walk.crossing_table",
        lambda: walk.crossing_table(spec),
        lambda out: oracles.check_crossing_table(spec, out),
    )


def marginals_job(spec: WalkSpec) -> Job:
    return Job(
        f"walk_marginals|{_law_key(spec.step)}|{spec.horizon}",
        "walk.walk_marginals",
        lambda: walk.walk_marginals(spec),
        lambda out: oracles.check_walk_marginals(spec, out),
    )


def ratio_job(d: DiscreteDist) -> Job:
    return Job(
        f"ratio_scan|{_law_key(d)}",
        "symmetrization.ratio_scan",
        lambda: symmetrization.ratio_scan(d),
        lambda out: oracles.check_ratio_scan(d, out),
    )


def threshold_job(d: DiscreteDist, w: DiscreteDist) -> Job:
    return Job(
        f"random_threshold_check|{_law_key(d)}|{_law_key(w)}",
        "symmetrization.random_threshold_check",
        lambda: symmetrization.random_threshold_check(d, w),
        lambda out: oracles.check_threshold(d, w, out),
    )


def adversarial_job(n_atoms: int, iterations: int, seed: int) -> Job:
    return Job(
        f"adversarial_search|{n_atoms}|{iterations}|{seed}",
        "symmetrization.adversarial_search",
        lambda: symmetrization.adversarial_search(n_atoms, iterations, seed),
        lambda out: oracles.check_adversarial(n_atoms, out),
    )


def kernel_job(kernel, support: List[Fraction]) -> Job:
    """Gram matrix of a built-in kernel, then the dichotomy, as the CLI does."""

    def call():
        return dichotomy.dichotomy_check(dichotomy.gram_matrix(kernel, support))

    entries = oracles.kernel_entries(kernel.family, support)
    return Job(
        f"dichotomy|{kernel.family}|{support}",
        "dichotomy.dichotomy_check",
        call,
        lambda out: oracles.check_dichotomy(entries, out),
    )


def table_job(matrix) -> Job:
    return Job(
        f"dichotomy|table|{matrix.entries}",
        "dichotomy.dichotomy_check",
        lambda: dichotomy.dichotomy_check(matrix),
        lambda out: oracles.check_dichotomy(matrix.entries, out),
    )


# ---------------------------------------------------------- MC catalogue


def sampler_from_spec(spec: dict):
    kind = spec["kind"]
    if kind == "factorial_heavy":
        return mc.factorial_heavy(spec["trunc"])
    if kind == "gaussian":
        return mc.gaussian(spec["mean"], spec["sd"])
    if kind == "cauchy":
        return mc.cauchy(spec["location"], spec["scale"])
    return mc.from_dist(make_dist((Fraction(v), Fraction(w)) for v, w in spec["atoms"]))


def mc_job(case: dict) -> Job:
    """Job for one catalogue case; its sampler is built here, not in the call."""
    a = case["args"]
    fn = case["fn"]
    expected = case.get("expect")
    if fn == "factorial_dominance_stats":
        call = lambda: mc.factorial_dominance_stats(a["trunc"], a["n"], a["samples"], a["seed"])
    else:
        s = sampler_from_spec(case["sampler"])
        if fn == "mc_crossing":
            level = Fraction(a["level"])
            call = lambda: mc.mc_crossing(s, a["n"], level, a["samples"], a["seed"])
        elif fn == "mc_sign_changes":
            call = lambda: mc.mc_sign_changes(s, a["n"], a["samples"], a["seed"])
        else:
            call = lambda: mc.mc_top_two_tie(s, a["n"], a["samples"], a["seed"])
    return Job(f"mc|{case['id']}", f"mc.{fn}", call, lambda out: oracles.check_mc(expected, out))


def _big_law(rng: random.Random) -> dict:
    """3-5 atoms near +-2^61, so max|v| * n >= 2^62 for every n >= 2."""
    size = rng.randint(3, 5)
    values = set()
    while len(values) < size:
        values.add(rng.choice([-1, 1]) * (2**61 - rng.randint(0, 2**40)))
    return {"kind": "from_dist", "atoms": [[str(v), str(rng.randint(1, 9))] for v in sorted(values)]}


_SMALL_LAWS = {
    "rademacher": {"kind": "from_dist", "atoms": [["-1", "1"], ["1", "1"]]},
    "lazy": {"kind": "from_dist", "atoms": [["-1", "1/4"], ["0", "1/2"], ["1", "1/4"]]},
    "gaussian": {"kind": "gaussian", "mean": 0.0, "sd": 1.0},
    "cauchy": {"kind": "cauchy", "location": 0.0, "scale": 1.0},
}

# (workload, fn, sampler, n, samples): one stratum per row.  record_mc.py
# records two cases per stratum at each share of the samples in
# SAMPLE_SHARES, so job sizes spread evenly; a pool draws one of the two.
MC_STRATA = [
    ("mc-bigint", "mc_crossing", "fh20", 8, 4000),
    ("mc-bigint", "mc_crossing", "fh32", 16, 3000),
    ("mc-bigint", "mc_crossing", "fh64", 32, 2000),
    ("mc-bigint", "mc_sign_changes", "fh20", 8, 4000),
    ("mc-bigint", "mc_sign_changes", "fh32", 16, 3000),
    ("mc-bigint", "mc_sign_changes", "fh64", 32, 2000),
    ("mc-bigint", "factorial_dominance_stats", "fh20", 8, 4000),
    ("mc-bigint", "factorial_dominance_stats", "fh32", 16, 3000),
    ("mc-bigint", "factorial_dominance_stats", "fh64", 32, 2000),
    ("mc-bigint", "mc_top_two_tie", "fh32", 16, 20000),
    ("mc-bigint", "mc_top_two_tie", "fh64", 32, 20000),
    ("mc-bigint", "mc_crossing", "big", 8, 4000),
    ("mc-bigint", "mc_crossing", "big", 16, 3000),
    ("mc-bigint", "mc_sign_changes", "big", 8, 4000),
    ("mc-bigint", "mc_sign_changes", "big", 16, 3000),
] + [
    ("small-jobs", fn, law, n, samples)
    for law in ("rademacher", "lazy", "gaussian", "cauchy")
    for fn, n, samples in (
        ("mc_crossing", 8, 20_000),
        ("mc_crossing", 16, 100_000),
        ("mc_sign_changes", 16, 20_000),
        ("mc_sign_changes", 32, 40_000),
    )
]
SAMPLE_SHARES = (Fraction(55, 100), Fraction(70, 100), Fraction(85, 100), Fraction(1))
CATALOGUE_SEED = 20040614


def mc_catalogue() -> List[dict]:
    """The recorded MC cases, without their expected results."""
    rng = random.Random(CATALOGUE_SEED)
    cases = []
    for s, (workload, fn, law, n, samples) in enumerate(MC_STRATA):
        for v in range(2 * len(SAMPLE_SHARES)):
            share = v // 2
            args = {"n": n, "samples": int(samples * SAMPLE_SHARES[share]), "seed": rng.randrange(2**32)}
            if law.startswith("fh"):
                sampler = {"kind": "factorial_heavy", "trunc": int(law[2:])}
                if fn == "factorial_dominance_stats":
                    args["trunc"] = sampler["trunc"]
                    sampler = None
            elif law == "big":
                sampler = _big_law(rng)
            else:
                sampler = _SMALL_LAWS[law]
            if fn == "mc_crossing":
                args["level"] = rng.choice(["0", "0", "1", "-1", "5040", "1/2"])
            cases.append(
                {"id": f"{s}.{v}", "workload": workload, "stratum": s, "share": share,
                 "fn": fn, "sampler": sampler, "args": args}
            )
    return cases


def _mc_jobs(rng: random.Random, workload: str, shares) -> List[Job]:
    """One of the two recorded cases per stratum and listed sample share."""
    with open(MC_REFERENCE) as fh:
        cases = json.load(fh)["cases"]
    pairs: Dict[tuple, List[dict]] = {}
    for case in cases:
        if case["workload"] == workload and case["share"] in shares:
            pairs.setdefault((case["stratum"], case["share"]), []).append(case)
    return [mc_job(rng.choice(pairs[key])) for key in sorted(pairs)]


# ------------------------------------------------------------ workloads


# (entry point, law, half-width a, longest horizon, level).  Every row runs
# at three horizons, so job sizes spread evenly instead of in steps; a job
# takes about 0.01-0.1 s.
WALK_LONG = [
    ("crossing_table", "dense_sym", 6, 48, "zero"),
    ("crossing_table", "dense", 4, 72, "zero"),
    ("crossing_table", "dense_sym", 3, 96, "zero"),
    ("crossing_table", "lazy", 1, 192, "zero"),
    ("crossing_table", "rademacher", 1, 256, "zero"),
    ("crossing_table", "dense", 6, 48, "off"),
    ("crossing_table", "dense_sym", 4, 72, "off"),
    ("crossing_table", "dense", 2, 128, "off"),
    ("crossing_table", "lazy", 1, 192, "off"),
    ("walk_marginals", "dense", 6, 16, None),
    ("walk_marginals", "dense_sym", 4, 24, None),
    ("walk_marginals", "dense", 2, 32, None),
    ("walk_marginals", "lazy", 1, 48, None),
    ("walk_marginals", "rademacher", 1, 64, None),
]
HORIZON_SCALES = (Fraction(7, 10), Fraction(17, 20), Fraction(1))


def walk_long(rng: random.Random) -> List[Job]:
    jobs = []
    for fn, law, a, longest, level in WALK_LONG:
        for scale in HORIZON_SCALES:
            step = _step_law(rng, law, a)
            spec_level = 0
            if level == "off":  # halfway between integers, so off the lattice
                spec_level = Fraction(2 * rng.randint(-2, 1) + 1, 2)
            spec = WalkSpec(step, spec_level, round(longest * scale))
            jobs.append(marginals_job(spec) if fn == "walk_marginals" else crossing_job(spec))
    return jobs


def _kernel_support(rng: random.Random, size: int) -> List[Fraction]:
    support = set()
    while len(support) < size:
        support.add(Fraction(rng.randint(-6, 6), rng.randint(1, 2)))
    return sorted(support)


def kernels_large(rng: random.Random) -> List[Job]:
    jobs = [ratio_job(symmetrization.optimality_family(12 + 3 * i + rng.randint(0, 2))) for i in range(10)]
    jobs += [ratio_job(sparse_rational_law(rng, rng.randint(8, 12), 20, 6)) for _ in range(8)]
    jobs += [
        threshold_job(
            sparse_rational_law(rng, rng.randint(8, 12), 20, 6),
            make_dist((Fraction(rng.randint(0, 40), rng.randint(1, 4)), rng.randint(1, 9)) for _ in range(5)),
        )
        for _ in range(6)
    ]
    jobs += [adversarial_job(6, iterations, rng.randrange(2**32)) for iterations in range(12, 48, 6)]
    for kernel in (dichotomy.sym2_kernel(), dichotomy.one_two_three_kernel()):
        jobs += [kernel_job(kernel, _kernel_support(rng, size)) for size in (5, 6, 6, 6, 7, 7)]
    return jobs


def witness_table(rng: random.Random, n: int):
    """Random symmetric table that always has a witness of support <= 2.

    Any nonpositive diagonal entry is a vertex witness; failing that, one
    off-diagonal pair is pushed below -sqrt(a_ii a_jj), which makes the
    pair {i, j} a witness.
    """
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
    if n > 1 and all(a[i][i] > 0 for i in range(n)):
        i, j = rng.sample(range(n), 2)
        a[i][j] = a[j][i] = -(a[i][i] + a[j][j])
    return dichotomy.gram_from_table(a)


SPARSE_SITES = 40


def small_jobs(rng: random.Random) -> List[Job]:
    jobs = []
    for k in range(30):
        step = sparse_rational_law(rng, 2 + k % 3)
        while lattice_sites(step) > SPARSE_SITES:  # keeps every table short
            step = sparse_rational_law(rng, 2 + k % 3)
        level = rng.choice([Fraction(0), Fraction(rng.randint(-6, 6), rng.randint(1, 3))])
        jobs.append(crossing_job(WalkSpec(step, level, 8 * (1 + k % 3))))
    jobs += [ratio_job(sparse_rational_law(rng, 2 + k % 4)) for k in range(30)]
    jobs += [
        threshold_job(
            sparse_rational_law(rng, 2 + k % 3),
            make_dist((Fraction(rng.randint(0, 9), rng.randint(1, 2)), rng.randint(1, 9)) for _ in range(2)),
        )
        for k in range(8)
    ]
    jobs += [adversarial_job(3, 4, rng.randrange(2**32)) for _ in range(4)]
    jobs += [table_job(witness_table(rng, 2 + k % 7)) for k in range(30)]
    for kernel in (dichotomy.sym2_kernel(), dichotomy.one_two_three_kernel()):
        jobs += [kernel_job(kernel, _kernel_support(rng, 3 + k % 2)) for k in range(4)]
    return jobs + _mc_jobs(rng, "small-jobs", (0, len(SAMPLE_SHARES) - 1))


WORKLOADS = {
    "walk-long": walk_long,
    "kernels-large": kernels_large,
    "mc-bigint": lambda rng: _mc_jobs(rng, "mc-bigint", range(len(SAMPLE_SHARES))),
    "small-jobs": small_jobs,
}


def build(workload: str, seed: int) -> List[Job]:
    """The job pool of one workload, in the order the run cycles through it."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs
