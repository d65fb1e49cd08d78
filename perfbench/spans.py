"""In-memory span tracer installed around lcross's module-level names.

The tracer replaces the names the layers call each other through (and the
public entry points the benchmark jobs call) with thin wrappers that record
one span per call: its name, start, end, parent span and job id.  Counters
are read from arguments and return values at the same boundaries.  Nothing
inside ``src/`` is edited: ``installed`` swaps the attributes for the
duration of a ``with`` block and then puts the original objects back, so
the namespaces end up exactly as they were.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from fractions import Fraction
from math import factorial, lcm
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import lcross.dichotomy as dichotomy
import lcross.dist as dist
import lcross.mc as mc
import lcross.symmetrization as symmetrization
import lcross.walk as walk

INT64_SAFE = 2**62


def mc_path(fn_name: str, sampler, n: int, level=0) -> str:
    """Arithmetic path an MC call needs, read off its inputs.

    Continuous samplers need floats.  Tie estimation compares integer
    draws only.  Otherwise a walk needs big integers when the largest step,
    scaled to integers together with the level, times the number of steps
    can reach 2^62.
    """
    if sampler.kind in ("gaussian", "cauchy"):
        return "float"
    if fn_name == "mc_top_two_tie":
        return "int64"
    if sampler.kind == "factorial_heavy":
        top = factorial(sampler.trunc)
    else:
        den = lcm(Fraction(level).denominator, *(v.denominator for v in sampler.dist.values))
        top = max(abs(v * den) for v in sampler.dist.values)
    return "bigint" if top * n >= INT64_SAFE else "int64"


class Tracer:
    """Spans and counters of a traced run, kept in memory."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, job id, time covered by children)
        self.spans: List[Tuple[str, float, float, int, int, float]] = []
        self.counters: Dict[str, float] = {}
        self.errors: Dict[str, int] = {}
        self.job_id = -1
        self.last_self_s = 0.0
        self._stack: List[list] = []

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def begin(self, name: str) -> list:
        """Open a span under the innermost open one; returns its frame."""
        frame = [name, len(self.spans), 0.0, perf_counter()]
        self.spans.append(None)  # placeholder keeps parents' indices stable
        self._stack.append(frame)
        return frame

    def end(self, frame: list, failed: bool = False) -> None:
        end = perf_counter()
        name, index, covered, start = frame
        self._stack.pop()
        parent = -1
        if self._stack:
            self._stack[-1][2] += end - start
            parent = self._stack[-1][1]
        self.spans[index] = (name, start, end, parent, self.job_id, covered)
        self.last_self_s = end - start - covered
        if failed:
            layer = name.split(".", 1)[0]
            self.errors[layer] = self.errors.get(layer, 0) + 1

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        out: Dict[str, float] = {}
        for name, start, end, _, _, covered in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job, _ in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                    )
                )
                fh.write("\n")


# Counters read at a boundary: (tracer, positional args, result) -> None.
Counter = Callable[[Tracer, tuple, object], None]


def _count_convolve(t: Tracer, args, out) -> None:
    nums = out.numerators
    t.add("dist.lattice_convolve.sites", len(nums))
    t.add("dist.lattice_convolve.nonzero", len(nums) - nums.count(0))
    t.maximum("dist.numerator_bits_max", max(nums).bit_length())


def _count_rows(t: Tracer, args, out) -> None:
    rows = out.rows if hasattr(out, "rows") else out
    t.add("walk.rows", len(rows))


def _count_breakpoints(t: Tracer, args, out) -> None:
    t.add("symmetrization.ratio_scan.breakpoints", len(out.rows))


def _count_faces(t: Tracer, args, out) -> None:
    t.add("dichotomy.faces", 2 ** len(args[0]) - 1)


def _count_branch(t: Tracer, args, out) -> None:
    t.add("dichotomy.branch." + out.branch, 1)


def _mc_counter(fn_name: str) -> Counter:
    def count(t: Tracer, args, out) -> None:
        if fn_name == "factorial_dominance_stats":
            trunc, n, samples = args[0], args[1], args[2]
            sampler = mc.factorial_heavy(trunc)
        else:
            sampler, n, samples = args[0], args[1], out.samples
        level = args[2] if fn_name == "mc_crossing" else 0
        steps = samples * n
        path = mc_path(fn_name, sampler, n, level)
        t.add("mc.step_samples", steps)
        t.add(f"mc.{path}.step_samples", steps)
        t.add(f"mc.{path}.busy_s", t.last_self_s)

    return count


# (owner, attribute, span name, counter).  Internal boundaries first, then
# the public entry points the jobs call through their modules.
BOUNDARIES: List[Tuple[object, str, str, Optional[Counter]]] = [
    (walk, "lattice_convolve", "dist.lattice_convolve", _count_convolve),
    (walk, "to_lattice", "dist.to_lattice", None),
    (dist.LatticeDist, "to_dist", "dist.to_dist", None),
    (dist.LatticeDist, "prob", "dist.prob", None),
    (symmetrization, "make_dist", "dist.make_dist", None),
    (symmetrization, "pair_abs_prob", "symmetrization.pair_abs_prob", None),
    (symmetrization, "ratio_scan", "symmetrization.ratio_scan", _count_breakpoints),
    (dichotomy, "first_alternative", "dichotomy.first_alternative", None),
    (dichotomy, "simplex_qp_min", "dichotomy.simplex_qp_min", _count_faces),
    (walk, "crossing_table", "walk.crossing_table", _count_rows),
    (walk, "walk_marginals", "walk.walk_marginals", _count_rows),
    (symmetrization, "random_threshold_check", "symmetrization.random_threshold_check", None),
    (symmetrization, "adversarial_search", "symmetrization.adversarial_search", None),
    (dichotomy, "gram_matrix", "dichotomy.gram_matrix", None),
    (dichotomy, "dichotomy_check", "dichotomy.dichotomy_check", _count_branch),
    (mc, "mc_crossing", "mc.mc_crossing", _mc_counter("mc_crossing")),
    (mc, "mc_sign_changes", "mc.mc_sign_changes", _mc_counter("mc_sign_changes")),
    (mc, "mc_top_two_tie", "mc.mc_top_two_tie", _mc_counter("mc_top_two_tie")),
    (
        mc,
        "factorial_dominance_stats",
        "mc.factorial_dominance_stats",
        _mc_counter("factorial_dominance_stats"),
    ),
]


def _wrap(tracer: Tracer, fn, name: str, counter: Optional[Counter]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.end(frame, failed=True)
            raise
        tracer.end(frame)
        if counter is not None:
            counter(tracer, args, out)
        return out

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Swap every boundary for a traced wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, counter in BOUNDARIES:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, counter))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Per-layer metrics of a traced run: (name, unit, better).  Times and counts
# are per pass over the workload's job pool.
PER_LAYER = [
    ("dist.lattice_convolve.self_s", "s", "lower"),
    ("dist.lattice_convolve.sites", "count", "lower"),
    ("dist.lattice_convolve.fill", "ratio", "higher"),
    ("dist.to_lattice.self_s", "s", "lower"),
    ("dist.to_dist.self_s", "s", "lower"),
    ("dist.prob.self_s", "s", "lower"),
    ("dist.make_dist.self_s", "s", "lower"),
    ("dist.numerator_bits_max", "bits", "lower"),
    ("dist.errors", "count", "lower"),
    ("walk.crossing_table.self_s", "s", "lower"),
    ("walk.walk_marginals.self_s", "s", "lower"),
    ("walk.rows", "count", "higher"),
    ("walk.errors", "count", "lower"),
    ("symmetrization.ratio_scan.self_s", "s", "lower"),
    ("symmetrization.ratio_scan.breakpoints", "count", "higher"),
    ("symmetrization.pair_abs_prob.self_s", "s", "lower"),
    ("symmetrization.random_threshold_check.self_s", "s", "lower"),
    ("symmetrization.adversarial_search.self_s", "s", "lower"),
    ("symmetrization.errors", "count", "lower"),
    ("dichotomy.first_alternative.self_s", "s", "lower"),
    ("dichotomy.simplex_qp_min.self_s", "s", "lower"),
    ("dichotomy.dichotomy_check.self_s", "s", "lower"),
    ("dichotomy.gram_matrix.self_s", "s", "lower"),
    ("dichotomy.faces", "count_computed", "lower"),
    ("dichotomy.branch.first_alternative", "count", "higher"),
    ("dichotomy.branch.positive_form", "count", "higher"),
    ("dichotomy.errors", "count", "lower"),
    ("mc.mc_crossing.self_s", "s", "lower"),
    ("mc.mc_sign_changes.self_s", "s", "lower"),
    ("mc.mc_top_two_tie.self_s", "s", "lower"),
    ("mc.factorial_dominance_stats.self_s", "s", "lower"),
    ("mc.step_samples", "count", "higher"),
    ("mc.bigint.step_samples_per_s", "1/s", "higher"),
    ("mc.int64.step_samples_per_s", "1/s", "higher"),
    ("mc.float.step_samples_per_s", "1/s", "higher"),
    ("mc.errors", "count", "lower"),
    ("bench.job.self_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.layer_share", "ratio", "higher"),
]


def layer_metrics(tracer: Tracer, passes: int, plain_pass_s: float, traced_pass_s: float) -> dict:
    """Name -> (value, unit) for every PER_LAYER metric, per pass.

    plain_pass_s and traced_pass_s are sums over the pool of each job's
    fastest untraced and traced latency.
    """
    self_times = tracer.self_times()
    values = {f"{name}.self_s": t / passes for name, t in self_times.items()}
    values.update({key: v / passes for key, v in tracer.counters.items()})
    values.update({f"{layer}.errors": n / passes for layer, n in tracer.errors.items()})
    values["dist.numerator_bits_max"] = tracer.counters.get("dist.numerator_bits_max", 0)
    sites = values.get("dist.lattice_convolve.sites", 0)
    if sites:
        values["dist.lattice_convolve.fill"] = values["dist.lattice_convolve.nonzero"] / sites
    for path in ("bigint", "int64", "float"):
        busy = values.get(f"mc.{path}.busy_s", 0)
        if busy:
            values[f"mc.{path}.step_samples_per_s"] = values[f"mc.{path}.step_samples"] / busy
    values["trace.pass_s"] = traced_pass_s
    values["trace.untraced_pass_s"] = plain_pass_s
    values["trace.overhead_frac"] = traced_pass_s / plain_pass_s - 1
    # every span's self time together covers the job spans exactly
    values["trace.layer_share"] = 1 - self_times["bench.job"] / sum(self_times.values())
    return {name: (values.get(name, 0), unit) for name, unit, _ in PER_LAYER}
