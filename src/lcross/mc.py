"""Monte-Carlo estimators for walks outside the exact engine's reach.

Samplers cover finite laws, Gaussian and Cauchy steps, and the factorial
heavy-tail construction that draws an index k with probability
proportional to k^(-3/2) (truncated at K) and emits a fair sign times k!.
The crossing, sign-change and dominance estimators only read signs of
S_k - l, and are reductions over one sign engine (_path_signs) that
draws, sums and signs one block of about _BLOCK steps at a time, so a
call holds the samples-sized output it keeps plus one block.  Discrete
samplers' signs are exact: integer sums decide them, in the narrowest of
int8..int64 that holds every position while positions stay below 2^62
(_int_dtype), or a float64 screen under a proven error bound (_sign_rule).
Only the continuous samplers use floating point positions.  Discrete draws
invert the float cumulative weights, bit-identical to
np.searchsorted(cum, u, side="right"): finite laws of at most
_FEW_ATOMS atoms with integer positions by sequential search, which
builds the steps themselves by compares and adds in that integer type
(_few_atom_blocks); other draws through a bucketed guide table
(_index_blocks).  All randomness comes from
counter-based Philox streams keyed by (seed, stream_id), consumed by the
blocks in the order of one whole draw, so results are reproducible and
independent of parallelism.  factorial_heavy's sign bits follow all its
samples*n index uniforms, so they come from a second generator on the
same key, advanced past those draws, four per Philox counter step.

A call whose draws span at least two blocks (samples*n >= 2*_BLOCK) runs
on every CPU the process may use (_ranges, _each_range): its rows are cut
into W contiguous ranges, the calling thread takes the first and helper
threads the rest, and each range draws from its own generator advanced to
its offset in the one stream (_stream_at).  Tables, cumulative weights,
guide table and sign rule are built once per call and only read by the
ranges, and each range streams blocks of _BLOCK // W steps, so the steps
in flight stay at one block.  The calling thread allocates every range's
draw arrays, so a helper's own heap keeps only its blocks' temporaries.
numpy releases the GIL while it fills uniforms and runs its ufuncs, so the
ranges overlap, and every output is the serial one bit for bit.  Gaussian
and Cauchy steps stay serial: their ziggurat draws take a variable number
of raw draws, so no range can know where its draws begin.
"""

from __future__ import annotations

import os
import queue
import threading
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import isfinite, sqrt
from operator import mul
from typing import Callable, Iterator, List, Optional, Tuple, Union

import numpy as np

from .dist import DiscreteDist
from .errors import InvalidDistribution
from .rationals import RationalLike, as_rational

_KINDS = ("from_dist", "gaussian", "cauchy", "factorial_heavy")

_INT64_SAFE = 2**62

# Below this reach a float64 screen decides signs: every step, sum and
# rounding bound it forms stays finite.
_FLOAT_SAFE = 2**1000

# Steps (rows x times) drawn, summed and signed per block of paths; bounds
# the temporaries of each block.
_BLOCK = 2**16

# Laws with at most this many atoms draw by sequential search.  On a
# crossing at n = 16 it beat the guide table up to 5 atoms in int64, 10 in
# int32 and about 16 in int16 and int8; at 4 it is at least 10% faster in
# every dtype.
_FEW_ATOMS = 4

LevelLike = Union[RationalLike, float]

# Per row block of a range: its rows and that block's draws.
Blocks = Iterator[Tuple[slice, np.ndarray]]


@dataclass(frozen=True)
class StepSampler:
    """Step-law sampler; build with from_dist, gaussian, cauchy, factorial_heavy."""

    kind: str
    dist: Optional[DiscreteDist] = None
    mean: float = 0.0
    sd: float = 1.0
    location: float = 0.0
    scale: float = 1.0
    trunc: int = 64

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.kind == "from_dist" and self.dist is None:
            raise InvalidDistribution("from_dist sampler needs a distribution")
        for name in ("mean", "sd", "location", "scale"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kind == "gaussian" and not self.sd > 0:
            raise ValueError(f"gaussian sd must be positive, got {self.sd}")
        if self.kind == "cauchy" and not self.scale > 0:
            raise ValueError(f"cauchy scale must be positive, got {self.scale}")
        if self.kind == "factorial_heavy" and (
            not isinstance(self.trunc, int) or self.trunc < 2
        ):
            raise ValueError(f"truncation index must be an integer >= 2, got {self.trunc}")

    def describe(self) -> dict:
        if self.kind == "from_dist":
            assert self.dist is not None
            return {"kind": self.kind, "atoms": len(self.dist)}
        if self.kind == "gaussian":
            return {"kind": self.kind, "mean": self.mean, "sd": self.sd}
        if self.kind == "cauchy":
            return {"kind": self.kind, "location": self.location, "scale": self.scale}
        return {"kind": self.kind, "trunc": self.trunc}


def from_dist(d: DiscreteDist) -> StepSampler:
    return StepSampler("from_dist", dist=d)


def gaussian(mean: float = 0.0, sd: float = 1.0) -> StepSampler:
    return StepSampler("gaussian", mean=float(mean), sd=float(sd))


def cauchy(location: float = 0.0, scale: float = 1.0) -> StepSampler:
    return StepSampler("cauchy", location=float(location), scale=float(scale))


def factorial_heavy(trunc: int = 64) -> StepSampler:
    """Index law P(k) proportional to k^(-3/2) on 1..trunc; step is +-k!."""
    return StepSampler("factorial_heavy", trunc=trunc)


@dataclass(frozen=True)
class McEstimate:
    """Estimate with a 95% normal-approximation half-width.

    The half-width has a floor of 1/samples so that zero-hit estimates
    still carry a nonzero uncertainty.
    """

    estimand: str
    mean: float
    half_width_95: float
    samples: int
    seed: int
    params: dict = field(default_factory=dict, compare=False)

    def to_json_dict(self) -> dict:
        return asdict(self)


def _check_key(name: str, value: int) -> None:
    if not isinstance(value, int) or not 0 <= value < 2**64:
        raise ValueError(f"{name} must be an integer in [0, 2^64), got {value}")


def seeded_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Reproducible counter-based generator for the (seed, stream_id) pair."""
    _check_key("seed", seed)
    _check_key("stream_id", stream_id)
    # A uint64 array: from a list, numpy reads an entry >= 2^63 as a float64.
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _stream_at(seed: int, draws: int) -> np.random.Generator:
    """The (seed, 0) stream past its first `draws` 64-bit draws, four per Philox counter step."""
    rng = seeded_stream(seed, 0)
    if draws:
        rng.bit_generator.advance(draws // 4)
        rng.random(draws % 4)
    return rng


def _bernoulli_estimate(
    estimand: str, hits: int, samples: int, seed: int, params: dict
) -> McEstimate:
    mean = hits / samples
    half = max(1.96 * sqrt(mean * (1.0 - mean) / samples), 1.0 / samples)
    return McEstimate(estimand, mean, half, samples, seed, params)


def _count_estimate(
    estimand: str, counts: np.ndarray, samples: int, seed: int, params: dict
) -> McEstimate:
    mean = float(np.mean(counts))
    sd = float(np.std(counts, ddof=1)) if samples > 1 else 0.0
    half = max(1.96 * sd / sqrt(samples), 1.0 / samples)
    return McEstimate(estimand, mean, half, samples, seed, params)


def _float_cumulative(masses: Tuple[int, ...], den: int) -> np.ndarray:
    # int / int is correctly rounded, so m / den is float(Fraction(m, den)) bit for bit.
    cum = np.cumsum(np.array([m / den for m in masses], dtype=np.float64))
    cum[-1] = 1.0
    return cum


def _index_blocks(cum: np.ndarray) -> Callable[[np.random.Generator, List[slice], int], Blocks]:
    """draw(rng, blocks, n), yielding per row block its rows and the indices of its uniforms u.

    The indices are np.searchsorted(cum, u, side="right"), found by the
    guide-table ("indexed search") method of Chen & Asau,
    AIIE Trans. 6 (1974); see also Devroye, Non-Uniform Random Variate
    Generation (1986), III.2.4.  m is a power of two, at least 1024 and
    4*len(cum) and at most 2^16.  Multiplying by a power of two only shifts
    the exponent, so v = u*m and t = cum*m are exact and v >= t[i] exactly
    when u >= cum[i]; the integer part b of v names u's bucket [b, b+1).
    start[b] = searchsorted(t, b, "right") is the answer for v = b, and for
    a larger v in the bucket the answer grows by the number of entries of t
    in (b, v], all of them strictly inside the bucket.  When the bucket
    holds at most one entry, that entry is t[start[b]], so one compare
    v >= t[start[b]] completes the index.  Draws in buckets that hold two
    or more entries (skewed laws, equal float entries) are answered by
    searchsorted itself.  The table is built here, once, and draw only reads
    it.  The blocks of one draw are consecutive rows of n draws, the first
    the largest; they take their uniforms in turn, in C order, as one
    rng.random call over those rows would.  draw allocates its arrays when
    called, so they come from the calling thread's heap whichever thread
    iterates them, and each block overwrites the arrays of the one before, so
    read it before asking for the next.
    """
    m = 1 << min(16, max(10, (4 * len(cum) - 1).bit_length()))
    t = cum * m
    start = np.searchsorted(t, np.arange(m, dtype=np.float64), side="right")
    crowded = np.searchsorted(t, np.arange(1, m + 1, dtype=np.float64), side="left") - start >= 2
    any_crowded = bool(crowded.any())

    def block(rng, rows: slice, n: int, arrays: Tuple[np.ndarray, ...]):
        k = (rows.stop - rows.start) * n
        # A short last block takes the front of each array.
        v, at, bucket, above, idx = (a[:k] for a in arrays) if k < len(arrays[0]) else arrays
        rng.random(out=v)
        v *= m
        np.copyto(bucket, v, casting="unsafe")
        np.take(start, bucket, out=idx, mode="clip")
        np.take(t, idx, out=at, mode="clip")
        np.greater_equal(v, at, out=above)
        idx += above
        if any_crowded:
            hit = crowded[bucket]
            idx[hit] = np.searchsorted(t, v[hit], side="right")
        return rows, idx.reshape(-1, n)

    def draw(rng: np.random.Generator, blocks: List[slice], n: int) -> Blocks:
        size = (blocks[0].stop - blocks[0].start) * n
        # One allocation for the four 8-byte arrays: once glibc has unmapped a chunk
        # it keeps freed heap up to twice that size, so later calls reuse warm pages.
        v, at, bucket, idx = np.empty((4, size))
        arrays = v, at, bucket.view(np.intp), np.empty(size, dtype=bool), idx.view(np.intp)
        return (block(rng, rows, n, arrays) for rows in blocks)

    return draw


def _few_atom_blocks(
    cum: np.ndarray, table: np.ndarray
) -> Callable[[np.random.Generator, List[slice], int], Blocks]:
    """draw(rng, blocks, n), yielding per row block its rows and the steps of its uniforms u.

    The steps are table[np.searchsorted(cum, u, side="right")], times x rows.

    Sequential search (Devroye, Non-Uniform Random Variate Generation
    (1986), III.2.1).  cum is nondecreasing and every u is below cum[-1] = 1,
    so the boundaries j with u >= cum[j] are the first ones, and the index is
    their count; table[index] is table[0] plus (table[j+1] - table[j]) for
    each of them.  Those adds are taken in table's integer dtype: a
    difference may wrap, but the sum ends on table[index], which fits, and
    wrapping adds are exact modulo the dtype's range.  The steps are built
    rows x times, as the uniforms lie, and transposed once.  Blocks draw
    their uniforms as _index_blocks does, from arrays allocated when draw is
    called, and overwrite the arrays of the one before.
    """
    boundaries = list(zip(cum[:-1], np.diff(table)))

    def block(rng, rows: slice, n: int, arrays: Tuple[np.ndarray, ...]):
        k = (rows.stop - rows.start) * n
        # A short last block takes the front of each array.
        v, above, acc, gap, steps = (a[:k] for a in arrays) if k < len(arrays[0]) else arrays
        rng.random(out=v)
        acc.fill(table[0])
        for c, d in boundaries:
            np.greater_equal(v, c, out=above)
            acc += np.multiply(above, d, out=gap)
        np.copyto(steps.reshape(n, -1), acc.reshape(-1, n).T)
        return rows, steps.reshape(n, -1)

    def draw(rng: np.random.Generator, blocks: List[slice], n: int) -> Blocks:
        size = (blocks[0].stop - blocks[0].start) * n
        acc, gap, steps = np.empty((3, size), dtype=table.dtype)
        arrays = np.empty(size), np.empty(size, dtype=bool), acc, gap, steps
        return (block(rng, rows, n, arrays) for rows in blocks)

    return draw


def _index_cumulative(trunc: int) -> np.ndarray:
    raw = np.arange(1, trunc + 1, dtype=np.float64) ** -1.5
    cum = np.cumsum(raw / raw.sum())
    cum[-1] = 1.0
    return cum


def _factorial_blocks(
    seed: int, trunc: int, samples: int, n: int
) -> Callable[[List[slice]], Blocks]:
    """codes(blocks), yielding per row block its rows and step codes 2k + b.

    k is in 1..trunc, and b = 1 for +k!.

    The codes overwrite the index draws, which codes allocates when called,
    as _index_blocks does, so a block holds no array of its own.  Each sign
    bit takes one 32-bit half of a 64-bit draw, low half first, so the bits
    of a range that starts c codes in begin c // 2 draws past the samples*n
    index uniforms, one half further when c is odd.
    """
    draw = _index_blocks(_index_cumulative(trunc))

    def signed(rows: slice, code: np.ndarray, bits: np.random.Generator):
        code += 1
        code <<= 1
        code += bits.integers(0, 2, code.shape)
        return rows, code

    def codes(blocks: List[slice]) -> Blocks:
        c = blocks[0].start * n
        bits = _stream_at(seed, samples * n + c // 2)
        if c % 2:
            bits.integers(0, 2, 1)  # the low half of the range's first draw
        return (signed(rows, code, bits) for rows, code in draw(_stream_at(seed, c), blocks, n))

    return codes


def _factorials(trunc: int) -> List[int]:
    """[0!, 1!, ..., trunc!] by one running product."""
    return list(accumulate(range(1, trunc + 1), mul, initial=1))


def _signed_table(magnitudes: List[int]) -> List[int]:
    """Entry 2k is -v_k and entry 2k + 1 is +v_k."""
    return [x for v in magnitudes for x in (-v, v)]


def _coerce_level(level: LevelLike) -> Fraction:
    if isinstance(level, float):
        if not isfinite(level):
            raise ValueError(f"level must be finite, got {level}")
        return Fraction(level)
    return as_rational(level)


def _check_draws(samples: int, seed: int) -> None:
    if not isinstance(samples, int) or samples < 100:
        raise ValueError(f"samples must be an integer >= 100, got {samples}")
    _check_key("seed", seed)


def _row_blocks(lo: int, hi: int, rows: int) -> List[slice]:
    """Consecutive row ranges covering lo..hi, each of `rows` rows or fewer."""
    return [slice(a, min(a + rows, hi)) for a in range(lo, hi, rows)]


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _ranges(samples: int, n: int, split: bool = True) -> List[List[slice]]:
    """The row blocks of each range of rows a call runs, in row order.

    Unless split is false, a call whose samples*n steps fill at least two
    blocks is cut into W contiguous ranges of about samples / W rows: one per
    CPU, but no more than it fills blocks.  Each range streams blocks of
    _BLOCK // W steps (one row when n is larger), so the steps in flight over
    all ranges stay at one block.  With W = 1 this is the serial call.
    """
    w = max(1, min(_cpus(), samples * n // _BLOCK, samples)) if split else 1
    edges = [samples * i // w for i in range(w + 1)]
    rows = max(1, _BLOCK // w // n)
    return [_row_blocks(lo, hi, rows) for lo, hi in zip(edges, edges[1:])]


def _serve(tasks: queue.SimpleQueue) -> None:
    while True:
        tasks.get()()


def _reset_helpers() -> None:
    """No helper threads yet: the state of a fresh process, and of a forked child."""
    global _TASKS, _HELPERS, _HELPERS_LOCK
    _TASKS, _HELPERS, _HELPERS_LOCK = queue.SimpleQueue(), 0, threading.Lock()


_reset_helpers()
os.register_at_fork(after_in_child=_reset_helpers)


def _each_range(parts: List[Blocks], work: Callable[[Blocks], None]) -> None:
    """work(part) for every part of a call: the first on this thread, the rest on helper threads.

    A part is a range's blocks, made by the calling thread, so the arrays a
    range draws into come from that thread's heap: a helper's own heap then
    keeps only the temporaries of its blocks.  Helpers are daemon threads,
    started by the first call that needs them and kept.  Returns, or raises
    the error of the first part that failed, only once every part has
    stopped, so no thread writes into the caller's arrays after the call.
    """
    if len(parts) == 1:
        return work(parts[0])
    global _HELPERS
    errors: List[Optional[BaseException]] = [None] * len(parts)
    stopped = threading.Semaphore(0)

    def run(k: int) -> None:
        try:
            work(parts[k])
        except BaseException as e:  # raised by the caller, below
            errors[k] = e
        finally:
            stopped.release()

    with _HELPERS_LOCK:
        for _ in range(_HELPERS, len(parts) - 1):
            threading.Thread(target=_serve, args=(_TASKS,), name="lcross-mc", daemon=True).start()
        _HELPERS = max(_HELPERS, len(parts) - 1)
    for k in range(1, len(parts)):
        _TASKS.put(partial(run, k))
    try:
        work(parts[0])
    finally:
        for _ in parts[1:]:
            stopped.acquire()
    for e in errors:
        if e is not None:
            raise e


def _running_sums(a: np.ndarray) -> np.ndarray:
    """Running sums along axis 0 (time), in place, added in time order."""
    if len(a) > a.shape[1]:  # few rows: one cumsum beats a Python loop over times
        return np.cumsum(a, axis=0, out=a)
    for k in range(1, len(a)):
        a[k] += a[k - 1]
    return a


def _reach(table: List[int], n: int, shift: int) -> int:
    """max|v|*n + |shift|: no S_k - shift, k <= n, of steps from table is larger in size."""
    return max(max(table), -min(table)) * n + abs(shift)


def _int_dtype(reach: int) -> Optional[np.dtype]:
    """The narrowest of int8, int16, int32 and int64 that holds -reach..reach; None from 2^62."""
    if reach >= _INT64_SAFE:
        return None
    widths = (np.int8, np.int16, np.int32, np.int64)
    return next(np.dtype(t) for t in widths if reach <= np.iinfo(t).max)


def _int_signs(steps: np.ndarray, shift: int, first: int, out: np.ndarray) -> None:
    """Write sgn(S_k - shift), k = first..n, of integer steps into out (int8, times x rows).

    steps is times x rows in a dtype that holds the reach (_int_dtype); it is
    summed in place, in time order.
    """
    sums = _running_sums(steps)[first - 1 :]
    np.sign(sums - shift if shift else sums, out=out, casting="unsafe")


def _sign_rule(
    table: List[int], n: int, shift: int, first: int
) -> Callable[[np.ndarray, np.ndarray], None]:
    """rule(code, out) writes sgn(S_k - shift), k = first..n, of steps table[code] into out.

    code is rows x n, out int8 times x rows.  Below a reach (max|v|*n + |shift|)
    of 2^62, one gather from the table in the narrowest integer dtype that holds
    the reach feeds _int_signs; sums are Python ints past 2^1000, and a float64
    screen decides in between.

    The screen: let u = 2^-53.  Each step is converted once,
    t = fl(v) = v(1 + d) with |d| <= u (float(int) rounds correctly), and
    both F_k = fl(F_{k-1} + t) and A_k = fl(A_{k-1} + |t|) are summed in
    time order.  By the recursive-summation bound (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed. 2002, 4.2)
    |F_k - sum t| <= g(k-1) sum|t| with g(m) = mu / (1 - mu), and the
    conversions add at most u sum|v|; since g(k-1) + u/(1-u) <= g(k),
    |F_k - S_k| <= g(k) sum|t|.  A_k sums non-negative terms, so
    sum|t| <= A_k / (1 - g(k-1)).  With s = fl(l), |s - l| <= u|s| / (1 - u),
    and the exact real F_k - s therefore lies within
    E = g(k) A_k / (1 - g(k-1)) + u|s| / (1 - u) of S_k - l.  For k <= 2^33
    (far past any n whose draws fit in memory) this gives
    (1 + u) E <= (1 + 2^-17)(k u A_k + u |s|).  The screen tests |D| > B
    with D = fl(F_k - s) and B = fl(fl((k + 1) 2u A_k) + 2u|s|); the
    computed B is at least (1 - u)^2 times twice k u A_k + u|s|, so it
    exceeds (1 + u) E.  Then |F_k - s| >= |D| / (1 + u) > E, so F_k - s has
    the sign of S_k - l, and D has the sign of F_k - s: rounding is
    monotone and a float difference is zero only when its operands are
    equal.  An exact zero D is never certified.  Separately, when
    A_k < 2^53 and |l| <= 2^53 every partial sum is an integer below 2^53,
    so F_k = S_k and s = l exactly (a computed A_k < 2^53 implies the exact
    one is, since rounding is monotone), and the sign of D is exact, zeros
    included.  Rows with a read time that neither rule decides are summed
    exactly, so every sign written is exact.
    """
    reach = _reach(table, n, shift)
    dtype = _int_dtype(reach)
    if dtype is not None:
        ints = np.array(table, dtype=dtype)
        return lambda code, out: _int_signs(ints[code.T], shift, first, out)
    objects = np.array(table, dtype=object)

    def exact_signs(code: np.ndarray) -> np.ndarray:
        return np.sign(_running_sums(objects[code.T])[first - 1 :] - shift)

    if reach >= _FLOAT_SAFE:
        return lambda code, out: np.copyto(out, exact_signs(code), casting="unsafe")
    # F_k in the real part and A_k in the imaginary part: complex addition
    # is one IEEE addition per part, so each step is one gather and one add.
    pairs = np.array([complex(v, abs(v)) for v in table])
    s = float(shift)
    exact_below = 2.0**53 if abs(shift) <= 2**53 else 0.0
    scale = np.arange(first + 1, n + 2)[:, None] * 2.0**-52
    floor = 2.0**-52 * abs(s)

    def screen_rule(code: np.ndarray, out: np.ndarray) -> None:
        acc = _running_sums(pairs[code.T])[first - 1 :]
        d = acc.real - s if s else acc.real
        np.sign(d, out=out, casting="unsafe")
        bound = acc.imag * scale  # |d| and the bound in place: few temporaries per block
        undecided = np.abs(d, out=d) <= np.add(bound, floor, out=bound)
        undecided &= acc.imag >= exact_below
        doubt = np.flatnonzero(undecided.any(axis=0))
        if doubt.size:
            out[:, doubt] = exact_signs(code[doubt])

    return screen_rule


def _path_signs(
    s: StepSampler,
    n: int,
    samples: int,
    seed: int,
    level: LevelLike,
    first: int,
    take: Callable[[slice, np.ndarray], None],
) -> None:
    """take(rows, signs) per row block, signs = sgn(S_k - l), k = first..n, as int8 times x rows.

    The blocks draw their steps from the (seed, 0) stream, split into
    ranges that run at once (_ranges) unless the steps are Gaussian or
    Cauchy, so take must only write the block's own rows.  Integer positions
    are on the common denominator of steps and level.
    """
    read, level_q = max(first, 1), _coerce_level(level)
    zero = (level_q < 0) - (level_q > 0)  # sgn(S_0 - l)
    if s.kind in ("gaussian", "cauchy"):
        lf = float(level_q)

        def blocks_of(blocks: List[slice]) -> Blocks:
            rng = seeded_stream(seed, 0)  # the one range, from row 0
            for rows in blocks:
                shape = (rows.stop - rows.start, n)
                if s.kind == "gaussian":
                    yield rows, rng.normal(s.mean, s.sd, shape)
                else:
                    yield rows, s.location + s.scale * rng.standard_cauchy(shape)

        def rule(steps: np.ndarray, out: np.ndarray) -> None:
            sums = _running_sums(np.ascontiguousarray(steps.T))[read - 1 :]
            np.sign(sums - lf if lf else sums, out=out, casting="unsafe")

    elif s.kind == "from_dist":
        assert s.dist is not None
        k, shift = s.dist.joint(level_q)
        table = [x * k for x in s.dist.points]
        cum = _float_cumulative(s.dist.masses, s.dist.den)
        dtype = _int_dtype(_reach(table, n, shift))
        if len(table) <= _FEW_ATOMS and dtype is not None:
            draw = _few_atom_blocks(cum, np.array(table, dtype=dtype))
            rule = lambda steps, out: _int_signs(steps, shift, read, out)
        else:
            draw = _index_blocks(cum)
            rule = _sign_rule(table, n, shift, read)
        blocks_of = lambda blocks: draw(_stream_at(seed, blocks[0].start * n), blocks, n)
    else:
        shift, den = level_q.numerator, level_q.denominator
        magnitudes = _factorials(s.trunc)
        table = _signed_table([f * den for f in magnitudes] if den > 1 else magnitudes)
        blocks_of = _factorial_blocks(seed, s.trunc, samples, n)
        rule = _sign_rule(table, n, shift, read)

    def run(part: Blocks) -> None:
        for rows, steps in part:
            out = np.empty((n + 1 - first, rows.stop - rows.start), dtype=np.int8)
            out[0] = zero  # the rule overwrites it unless first = 0
            rule(steps, out[read - first :])
            take(rows, out)

    ranges = _ranges(samples, n, s.kind not in ("gaussian", "cauchy"))
    _each_range([blocks_of(blocks) for blocks in ranges], run)


def mc_crossing(
    s: StepSampler, n: int, level: LevelLike, samples: int, seed: int
) -> McEstimate:
    """Frequency of sgn(S_n - l) != sgn(S_{n-1} - l) over sampled paths."""
    _check_draws(samples, seed)
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    params = {"n": n, "level": str(level), "sampler": s.describe()}
    signs = np.empty((2, samples), dtype=np.int8)

    def keep(rows: slice, block: np.ndarray) -> None:
        signs[:, rows] = block

    _path_signs(s, n, samples, seed, level, n - 1, keep)
    hits = int(np.count_nonzero(signs[0] != signs[1]))
    return _bernoulli_estimate("crossing", hits, samples, seed, params)


def mc_sign_changes(s: StepSampler, N: int, samples: int, seed: int) -> McEstimate:
    """Mean number of sign changes of the walk over times 1..N (level 0)."""
    _check_draws(samples, seed)
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    params = {"N": N, "sampler": s.describe()}
    counts = np.empty(samples, dtype=np.int64)

    # Time 0 is in each block, so a path's first nonzero sign counts as a change.
    def count(rows: slice, block: np.ndarray) -> None:
        counts[rows] = np.count_nonzero(block[1:] != block[:-1], axis=0)

    _path_signs(s, N, samples, seed, 0, 0, count)
    return _count_estimate("sign_changes", counts, samples, seed, params)


def mc_top_two_tie(pk_sampler: StepSampler, n: int, samples: int, seed: int) -> McEstimate:
    """Frequency of the maximum of n draws being attained at least twice.

    For factorial_heavy the draws are the indices k themselves; for
    from_dist they are the sampled values.  Continuous samplers never tie,
    so they are rejected.
    """
    _check_draws(samples, seed)
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    if pk_sampler.kind not in ("from_dist", "factorial_heavy"):
        raise ValueError("tie estimation needs a discrete sampler")
    params = {"n": n, "sampler": pk_sampler.describe()}
    if pk_sampler.kind == "factorial_heavy":
        cum = _index_cumulative(pk_sampler.trunc)
    else:
        assert pk_sampler.dist is not None
        cum = _float_cumulative(pk_sampler.dist.masses, pk_sampler.dist.den)
    draw = _index_blocks(cum)
    tie = np.empty(samples, dtype=bool)

    def tally(part: Blocks) -> None:
        for rows, top in part:
            top.sort(axis=1)
            tie[rows] = top[:, -1] == top[:, -2]

    ranges = _ranges(samples, n)
    _each_range([draw(_stream_at(seed, b[0].start * n), b, n) for b in ranges], tally)
    hits = int(np.count_nonzero(tie))
    return _bernoulli_estimate("top_two_tie", hits, samples, seed, params)


def top_two_tie_prob(trunc: int, n: int) -> float:
    """Exact P(A_n) for the factorial_heavy index law truncated at trunc.

    A_n is the event that the maximum of n i.i.d. index draws, P(k)
    proportional to k^(-3/2) on 1..trunc, is attained at least twice.
    The maximum is m and unique with probability n p_m F(m-1)^(n-1), so
    P(A_n) = 1 - sum_m n p_m F(m-1)^(n-1); the sum is taken in mpmath at
    50 significant digits, then rounded to a float.  This is the oracle
    for mc_top_two_tie on factorial_heavy(trunc).
    """
    if not isinstance(trunc, int) or trunc < 2:
        raise ValueError(f"truncation index must be an integer >= 2, got {trunc}")
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    # Imported here: only this oracle needs mpmath, and importing it at
    # module level would add about a quarter to the cost of `import lcross`.
    import mpmath

    with mpmath.workdps(50):
        raw = [mpmath.mpf(k) ** mpmath.mpf(-1.5) for k in range(1, trunc + 1)]
        total = mpmath.fsum(raw)
        below = mpmath.mpf(0)
        unique = mpmath.mpf(0)
        for w in raw:
            p = w / total
            unique += n * p * below ** (n - 1)
            below += p
        return float(1 - unique)


def factorial_dominance_stats(trunc: int, n: int, samples: int, seed: int) -> dict:
    """Per-path dominance audit for the factorial heavy-tail walk.

    A path is certified when its largest index m is unique and m! strictly
    exceeds the sum of the other step magnitudes; on certified paths the
    sign of S_n provably equals the sign attached to the dominant step.
    The audit counts certified paths, sign agreement, and the uncertified
    remainder (paths whose top index is unique but not dominant).
    """
    _check_draws(samples, seed)
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    sampler = factorial_heavy(trunc)
    distinct, dominant, agree = np.empty((3, samples), dtype=bool)
    rule = _sign_rule(_signed_table(_factorials(trunc)), n, 0, n)
    codes = _factorial_blocks(seed, trunc, samples, n)

    def audit(part: Blocks) -> None:
        for rows, code in part:
            total, margin = np.empty((2, 1, len(code)), dtype=np.int8)
            rule(code, total)
            # A largest code has a largest index: the top step, when that index is unique.
            at = np.arange(len(code)), code.argmax(axis=1)
            top = code[at]
            code |= 1
            distinct[rows] = np.count_nonzero(code == (top | 1)[:, None], axis=1) == 1
            # The top step counted negative and every other step positive: the sum
            # is negative exactly when top! exceeds the sum of the other magnitudes.
            code[at] = top & ~1
            rule(code, margin)
            np.logical_and(distinct[rows], margin[0] < 0, out=dominant[rows])
            np.logical_and(distinct[rows], total[0] == 2 * (top & 1) - 1, out=agree[rows])

    _each_range([codes(blocks) for blocks in _ranges(samples, n)], audit)
    return {
        "sampler": sampler.describe(),
        "samples": samples,
        "seed": seed,
        "n": n,
        "distinct_top": int(np.count_nonzero(distinct)),
        "certified": int(np.count_nonzero(dominant)),
        "certified_sign_ok": int(np.count_nonzero(dominant & agree)),
        "distinct_sign_ok": int(np.count_nonzero(agree)),
    }
