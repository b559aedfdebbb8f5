"""Interval-valued optimization on manifolds with closed-form geodesics.

The toolkit provides interval arithmetic with minimization/maximization
and endpointwise orders, three manifolds (Euclidean space, a circle chart,
and symmetric positive definite matrices), an expression language for
defining functions over manifold features, extrapolated directional
derivatives, sampled geodesic-convexity certifiers, and checkers for
sufficient optimality conditions with multiplier search.
"""

from types import ModuleType as _ModuleType

from .calculus import GhDerivative, dir_deriv, gh_dir_deriv, width_monotone_along
from .convexity import (
    ConvexityReport,
    Counterexample,
    DomainSampler,
    LocalMinReport,
    Verdict,
    check_affine,
    check_convex,
    check_convex_at,
    check_cw_convex_at,
    check_gradient_inequality,
    check_local_min,
    check_star_shaped,
)
from .errors import (
    ConfigError,
    DomainError,
    ExprSyntaxError,
    InfeasibleCandidateError,
    IvoptError,
    ManifoldMismatchError,
    NegativeWidthError,
    NonFiniteError,
    NonPositiveDefiniteError,
    NotConvergedError,
    SamplerExhaustedError,
    UnknownFeatureError,
    UnknownFunctionError,
)
from .functions import (
    IvFn,
    RealFn,
    builtin_iv,
    builtin_names,
    builtin_real,
    iv_linear_combination,
    lift_real,
    linear_combination,
)
from .interval import (
    Interval,
    OrderOutcome,
    OrderRelation,
    ZERO,
    add,
    combine,
    compare,
    format_interval,
    gh_diff,
    hausdorff,
    leq_min,
    parse_interval,
    scale,
)
from .kkt import (
    KktCertificate,
    KktVerdict,
    Problem,
    active_set,
    brute_force_improvement,
    direction_samples,
    find_multipliers,
    reduce_p4,
    verify_p2,
    verify_p3,
    verify_p3_split,
    verify_p4,
)
from .manifolds import (
    Circle,
    Euclidean,
    Manifold,
    Point,
    Spd,
    TangentDirection,
    distance,
    exp_map,
    inner,
    log_map,
    sym_exp,
    sym_log,
    sym_power,
)
from .problems import (
    LoadedProblem,
    build_problem,
    circle_domain,
    euclidean_box_domain,
    load_problem,
    pstar_problem,
    pstarstar_problem,
    run_repro,
    scenario_ids,
    spd_domain,
    two_branch_domain,
)

__version__ = "0.1.0"

# Every public non-module name bound above is exported, plus the version.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
