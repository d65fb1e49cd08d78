"""Exact and Monte-Carlo tools for random-walk level-crossing probabilities."""

from importlib import import_module as _import_module

from .dist import (
    DiscreteDist,
    LatticeDist,
    abs_dist,
    convolve,
    dist_from_json_dict,
    dist_to_json_dict,
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
)
from .errors import (
    InvalidDistribution,
    InvalidInterval,
    InvalidKernel,
    InvalidThreshold,
    LcrossError,
    NotApplicable,
    ResourceLimit,
    TheoremViolation,
)
from .rationals import as_rational, format_rational
from .walk import (
    CrossingReport,
    CrossingRow,
    WalkSpec,
    concentration,
    crossing_prob,
    crossing_table,
    dominated_crossing_bound,
    expected_sign_changes,
    walk_marginals,
)
from .symmetrization import (
    RatioReport,
    RatioRow,
    adversarial_search,
    optimality_family,
    pair_abs_prob,
    random_threshold_check,
    ratio_scan,
)
from .dichotomy import (
    DichotomyVerdict,
    GramMatrix,
    KernelSpec,
    custom_table_kernel,
    dichotomy_check,
    first_alternative,
    gram_from_table,
    gram_matrix,
    lemma1_witness,
    one_two_three_kernel,
    problem_from_json_dict,
    simplex_qp_min,
    sym2_kernel,
)

# The Monte-Carlo names live in `mc`, the one module that needs numpy.  They
# are served on first use (PEP 562), so the exact core imports only the
# standard library.
_MC_NAMES = (
    "StepSampler",
    "McEstimate",
    "from_dist",
    "gaussian",
    "cauchy",
    "factorial_heavy",
    "mc_crossing",
    "mc_sign_changes",
    "mc_top_two_tie",
    "seeded_stream",
    "factorial_dominance_stats",
    "top_two_tie_prob",
)


def __getattr__(name):
    # import_module, because `from . import mc` would ask this hook for `mc` again.
    if name == "mc" or name in _MC_NAMES:
        mc = _import_module(".mc", __name__)
        return mc if name == "mc" else getattr(mc, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_MC_NAMES) | {"mc"})


__version__ = "0.1.0"

__all__ = [
    "DiscreteDist",
    "LatticeDist",
    "WalkSpec",
    "CrossingReport",
    "CrossingRow",
    "RatioReport",
    "RatioRow",
    "KernelSpec",
    "GramMatrix",
    "DichotomyVerdict",
    "LcrossError",
    "InvalidDistribution",
    "InvalidInterval",
    "InvalidThreshold",
    "InvalidKernel",
    "NotApplicable",
    "ResourceLimit",
    "TheoremViolation",
    "make_dist",
    "convolve",
    "negate",
    "symmetrize",
    "abs_dist",
    "interval_prob",
    "to_lattice",
    "lattice_convolve",
    "to_json",
    "from_json",
    "dist_to_json_dict",
    "dist_from_json_dict",
    "point_mass",
    "rademacher",
    "lazy",
    "uniform_range",
    "as_rational",
    "format_rational",
    "walk_marginals",
    "crossing_prob",
    "crossing_table",
    "dominated_crossing_bound",
    "concentration",
    "expected_sign_changes",
    "pair_abs_prob",
    "ratio_scan",
    "optimality_family",
    "random_threshold_check",
    "adversarial_search",
    "gram_matrix",
    "gram_from_table",
    "sym2_kernel",
    "one_two_three_kernel",
    "custom_table_kernel",
    "first_alternative",
    "simplex_qp_min",
    "dichotomy_check",
    "lemma1_witness",
    "problem_from_json_dict",
    *_MC_NAMES,
]
