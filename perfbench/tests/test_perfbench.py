"""Tests of the benchmark itself: seeded inputs, verifiers and the tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import lcross  # noqa: E402
import jobs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

WORKLOADS = sorted(jobs.WORKLOADS)


def _first(workload: str, kind: str, seed: int = 3):
    return next(j for j in jobs.build(workload, seed) if j.kind == kind)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_repeat_per_seed_and_differ_across_seeds(workload):
    keys = [j.key for j in jobs.build(workload, 5)]
    assert keys == [j.key for j in jobs.build(workload, 5)]
    assert keys != [j.key for j in jobs.build(workload, 6)]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize(
    "workload, kind",
    [
        ("small-jobs", "walk.crossing_table"),
        ("walk-long", "walk.walk_marginals"),
        ("small-jobs", "symmetrization.ratio_scan"),
        ("kernels-large", "symmetrization.random_threshold_check"),
        ("small-jobs", "dichotomy.dichotomy_check"),
        ("mc-bigint", "mc.factorial_dominance_stats"),
        ("small-jobs", "mc.mc_sign_changes"),
    ],
)
def test_verifier_accepts_program_outputs(workload, kind):
    job = _first(workload, kind)
    job.check(job.call())


def test_verifier_rejects_corrupted_crossing_probability():
    job = _first("small-jobs", "walk.crossing_table")
    report = job.call()
    rows = list(report.rows)
    rows[-1] = dataclasses.replace(rows[-1], p=rows[-1].p + Fraction(1, 10**12))
    with pytest.raises(oracles.Mismatch):
        job.check(dataclasses.replace(report, rows=tuple(rows)))


def test_verifier_rejects_corrupted_marginal():
    job = _first("walk-long", "walk.walk_marginals")
    marginals = job.call()
    (v0, w0), (v1, w1), *rest = marginals[2].atoms
    shifted = lcross.DiscreteDist(((v0, w0 - Fraction(1, 10**9)), (v1, w1 + Fraction(1, 10**9)), *rest))
    with pytest.raises(oracles.Mismatch):
        job.check(marginals[:2] + [shifted] + marginals[3:])


def test_verifier_rejects_corrupted_pair_count():
    job = _first("small-jobs", "symmetrization.ratio_scan")
    report = job.call()
    row = report.rows[0]
    bad = dataclasses.replace(row, num=row.num + Fraction(1, 997))
    with pytest.raises(oracles.Mismatch):
        job.check(dataclasses.replace(report, rows=(bad,) + report.rows[1:]))


def test_verifier_rejects_wrong_minimum_and_bad_witness():
    job = _first("kernels-large", "dichotomy.dichotomy_check")
    verdict = job.call()
    assert verdict.branch == "positive_form"
    with pytest.raises(oracles.Mismatch):
        job.check(dataclasses.replace(verdict, min_value=verdict.min_value + Fraction(1, 10**6)))
    witness_job = next(j for j in jobs.build("small-jobs", 3) if j.key.startswith("dichotomy|table"))
    n = len(witness_job.call().witness)
    uniform = tuple(Fraction(1, n) for _ in range(n))
    flipped = dataclasses.replace(witness_job.call(), witness=(Fraction(2),) + uniform[1:])
    with pytest.raises(oracles.Mismatch):
        witness_job.check(flipped)


@pytest.mark.parametrize("workload", ["mc-bigint", "small-jobs"])
def test_verifier_rejects_changed_mc_mean(workload):
    job = next(j for j in jobs.build(workload, 3) if j.kind in ("mc.mc_crossing", "mc.mc_sign_changes"))
    est = job.call()
    job.check(est)
    nudged = dataclasses.replace(est, mean=float.fromhex(est.mean.hex()) + 2**-40)
    with pytest.raises(oracles.Mismatch):
        job.check(nudged)


def _namespaces():
    """Identity snapshot of every lcross module namespace and class __dict__."""
    snap = {}
    for name, module in sorted(sys.modules.items()):
        if name == "lcross" or name.startswith("lcross."):
            snap[name] = {k: id(v) for k, v in vars(module).items()}
            for attr, value in vars(module).items():
                if isinstance(value, type) and value.__module__.startswith("lcross"):
                    snap[f"{name}:{attr}"] = {k: id(v) for k, v in vars(value).items()}
    return snap


def test_traced_run_restores_every_namespace(monkeypatch, tmp_path):
    before = _namespaces()
    monkeypatch.setattr(run, "OUT", tmp_path)
    for workload in WORKLOADS:
        pool = jobs.build(workload, 4)[:4]
        monkeypatch.setattr(jobs, "build", lambda w, s, pool=pool: pool)
        attempted, failed, metrics = run.traced(workload, 4, 0.0)
        assert attempted == 4 * len(pool) and failed == 0
        assert set(metrics) == {name for name, _, _ in spans.PER_LAYER}
    assert _namespaces() == before
    with pytest.raises(ZeroDivisionError):
        with spans.installed(spans.Tracer()):
            1 / 0
    assert _namespaces() == before


def test_self_times_partition_the_job_spans():
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for job in jobs.build("walk-long", 2)[:3] + jobs.build("kernels-large", 2)[:3]:
            frame = tracer.begin("bench.job")
            job.call()
            tracer.end(frame)
    roots = sum(end - start for _, start, end, parent, _, _ in tracer.spans if parent == -1)
    assert sum(tracer.self_times().values()) == pytest.approx(roots, rel=1e-9)
    assert all(parent < i for i, (_, _, _, parent, _, _) in enumerate(tracer.spans))


def test_benchmark_json_names_every_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == [name for name, _, _ in spans.PER_LAYER]
    assert {w["name"] for w in doc["workloads"]} <= set(jobs.WORKLOADS)
