"""Exact and Monte-Carlo tools for random-walk level-crossing probabilities."""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

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

# Every public name this module binds, except the submodules, and the MC names.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_MC_NAMES)
