"""Command-line driver: crossing tables, ratio scans, dichotomy checks, MC runs.

Exit codes: 0 on success, 1 when a verified bound fails or an internal
invariant is violated, 2 on usage or input errors, and on inputs too large
for memory.  Rationals cross the boundary as strings like "3/8"; only
Monte-Carlo outputs are floats.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import List, Optional

from .dichotomy import _check_cap, dichotomy_check, lemma1_witness, problem_from_json_dict
from .dist import (
    DiscreteDist,
    from_json,
    interval_prob,
    lazy,
    rademacher,
    uniform_range,
)
from .errors import InvalidDistribution, InvalidKernel, LcrossError, TheoremViolation
from .rationals import as_rational, format_rational
from .symmetrization import optimality_family, ratio_scan
from .walk import WalkSpec, crossing_table

DEFAULT_SEED = 0

_UNIFORM_RE = re.compile(r"^uniform\{(-?\d+)\.\.(-?\d+)\}$")


def _resolve_dist(token: str) -> DiscreteDist:
    """Resolve a built-in law name or a JSON file path."""
    if token == "rademacher":
        return rademacher()
    if token == "lazy":
        return lazy()
    match = _UNIFORM_RE.match(token)
    if match:
        return uniform_range(int(match.group(1)), int(match.group(2)))
    path = Path(token)
    if not path.exists():
        raise InvalidDistribution(
            f"{token!r} is not a built-in law (rademacher, lazy, uniform{{a..b}}) "
            "or an existing file"
        )
    d, renormalized = from_json(path.read_text())
    if renormalized:
        print(f"note: weights in {token} were renormalized to sum 1", file=sys.stderr)
    return d


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        Path(output).write_text(text if text.endswith("\n") else text + "\n")


def _cmd_crossing(args: argparse.Namespace) -> int:
    d = _resolve_dist(args.dist)
    spec = WalkSpec(step=d, level=as_rational(args.level), horizon=args.horizon)
    report = crossing_table(spec)
    if args.json:
        _emit(json.dumps(report.to_json_dict(), indent=2), args.output)
    else:
        _emit(report.to_csv(), args.output)
    return 0 if report.all_bounds_hold() else 1


def _cmd_ratio(args: argparse.Namespace) -> int:
    if args.family_n is not None:
        d = optimality_family(args.family_n)
    else:
        d = _resolve_dist(args.dist)
    report = ratio_scan(d)
    if args.table:
        _emit(report.to_csv(), args.output)
    else:
        _emit(json.dumps(report.summary_json_dict(), indent=2), args.output)
    return 0


def _cmd_dichotomy(args: argparse.Namespace) -> int:
    raw = Path(args.input).read_text()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidKernel(f"invalid JSON in {args.input}: {exc}") from exc
    if isinstance(obj, dict) and isinstance(obj.get("support"), list):
        _check_cap(len(obj["support"]), args.cap)
    matrix = problem_from_json_dict(obj)
    verdict = dichotomy_check(matrix, cap=args.cap)
    print(json.dumps(verdict.to_json_dict(), indent=2))
    return 0


def _cmd_lemma1(args: argparse.Namespace) -> int:
    d = _resolve_dist(args.dist)
    window = as_rational(args.window)
    x = lemma1_witness(d, window)
    p_x = interval_prob(d, x - window, x + window)
    p_neg = interval_prob(d, -x - window, -x + window)
    print(
        json.dumps(
            {
                "witness": format_rational(x),
                "p_x": format_rational(p_x),
                "p_neg_x": format_rational(p_neg),
            },
            indent=2,
        )
    )
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    # Imported here, so that the exact subcommands never load numpy.
    from .mc import (
        cauchy,
        factorial_heavy,
        from_dist,
        gaussian,
        mc_crossing,
        mc_sign_changes,
        mc_top_two_tie,
    )

    if args.sampler == "gaussian":
        sampler = gaussian(args.mean, args.sd)
    elif args.sampler == "cauchy":
        sampler = cauchy(args.location, args.scale)
    elif args.sampler in ("factorial", "factorial_heavy"):
        sampler = factorial_heavy(args.trunc)
    else:
        sampler = from_dist(_resolve_dist(args.sampler))
    if args.estimand == "crossing":
        est = mc_crossing(sampler, args.n, as_rational(args.level), args.samples, args.seed)
    elif args.estimand == "sign-changes":
        est = mc_sign_changes(sampler, args.n, args.samples, args.seed)
    else:
        est = mc_top_two_tie(sampler, args.n, args.samples, args.seed)
    print(json.dumps(est.to_json_dict(), indent=2))
    return 0


def _cmd_repro(args: argparse.Namespace) -> int:
    import mpmath  # noqa: F401 - check 9 needs it, so a missing one fails before check 1
    from . import acceptance

    results = acceptance.run_all()
    print(acceptance.format_table(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcross",
        description="Exact and Monte-Carlo level-crossing laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crossing", help="exact crossing table with bound verdicts")
    p.add_argument("--dist", required=True, help="built-in law name or JSON file")
    p.add_argument("--level", default="0", help="crossing level, rational string")
    p.add_argument("--horizon", type=int, default=16, help="number of steps")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_crossing)

    p = sub.add_parser("ratio", help="pair-sum vs pair-difference breakpoint scan")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dist", help="built-in law name or JSON file")
    group.add_argument("--family-n", type=int, help="use the 2n-point uniform family")
    p.add_argument("--table", action="store_true", help="emit the per-breakpoint CSV")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("dichotomy", help="witness search vs positive simplex minimum")
    p.add_argument("--input", required=True, help="JSON file with support and kernel")
    p.add_argument("--cap", type=int, default=15, help="subset enumeration size cap")
    p.set_defaults(func=_cmd_dichotomy)

    p = sub.add_parser("lemma1", help="find an atom x with p(-x) < 2 p(x)")
    p.add_argument("--dist", required=True, help="built-in law name or JSON file")
    p.add_argument("--window", default="1", help="half-width of the closed window")
    p.set_defaults(func=_cmd_lemma1)

    p = sub.add_parser("mc", help="Monte-Carlo estimators")
    p.add_argument(
        "--estimand",
        choices=("crossing", "sign-changes", "top-two-tie"),
        default="crossing",
    )
    p.add_argument(
        "--sampler",
        required=True,
        help="gaussian, cauchy, factorial_heavy, a built-in law, or a JSON file",
    )
    p.add_argument("--n", type=int, required=True, help="time index or horizon")
    p.add_argument("--level", default="0", help="crossing level, rational string")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--mean", type=float, default=0.0, help="gaussian mean")
    p.add_argument("--sd", type=float, default=1.0, help="gaussian deviation")
    p.add_argument("--location", type=float, default=0.0, help="cauchy location")
    p.add_argument("--scale", type=float, default=1.0, help="cauchy scale")
    p.add_argument("--trunc", type=int, default=64, help="factorial truncation index")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("repro", help="run every acceptance check and print a table")
    p.set_defaults(func=_cmd_repro)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except TheoremViolation as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (LcrossError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:
        # numpy serves only `mc` and `repro`; the exact subcommands run without it.
        print(f"error: lcross {args.command} needs {exc.name}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
