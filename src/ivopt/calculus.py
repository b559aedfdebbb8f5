"""One-sided directional derivatives along geodesics.

A real function built from an expression is differentiated exactly by its
dual lane (``expr.compile_dual``) over the manifold's ``feature_rates``.
Any other function (a builtin, a ``linear_combination`` closure, the zero
width of ``lift_real``, a user callable) has no expression, so
forward difference quotients on the step ladder LADDER_H0, LADDER_H0/2, ...
are extrapolated by Richardson's rule until two estimates agree within
LADDER_TOL times max(1, |estimate|), so that the stopping rule scales with
the derivative.  The interval path differentiates center and width separately
and reassembles the derivative as an interval with halfwidth |width rate|;
the center/width decomposition is only asserted when the width's one-sided
rate is non-negative (within MONOTONE_SLACK).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, ManifoldMismatchError, NotConvergedError
from .functions import IvFn, RealFn, path_bounds, path_grid
from .interval import Interval, JsonReport
from .manifolds import Point, TangentDirection, exp_map

MONOTONE_SLACK = 1e-10
WIDTH_GRID = 33  # points of the width gate's uniform grid over [0, 1]
RICH_ORDER = 2  # deepest Richardson extrapolant of the step ladder
LADDER_H0 = 1e-2  # first step of the ladder; each level halves it
LADDER_LEVELS = 6
LADDER_TOL = 1e-6  # relative agreement of consecutive estimates that ends the ladder


def _extrapolated_limit(quotient, what: str) -> float:
    """Run the Neville tableau over the step ladder until estimates settle."""
    rows = []  # rows[k][j]: depth-j extrapolant at level k
    last = None
    for k in range(LADDER_LEVELS):
        h = LADDER_H0 * 0.5**k
        row = [quotient(h)]
        depth = min(k, RICH_ORDER)
        for j in range(1, depth + 1):
            factor = 2.0**j
            row.append((factor * row[j - 1] - rows[k - 1][j - 1]) / (factor - 1.0))
        rows.append(row)
        estimate = row[-1]
        if last is not None and abs(estimate - last) <= LADDER_TOL * max(1.0, abs(estimate)):
            return estimate
        last = estimate
    raise NotConvergedError(
        f"{what}: ladder estimates did not settle within {LADDER_TOL} "
        f"after {LADDER_LEVELS} levels (last gap {abs(rows[-1][-1] - rows[-2][-1]):.3e})"
    )


def dir_deriv(f: RealFn, p: Point, x: TangentDirection) -> float:
    """One-sided directional derivative of a real function at p along x: exact
    from f's dual lane where f has one, else extrapolated on the ladder.
    Where f(p) raises, both raise the same."""
    if f.dual is not None:
        m = f.manifold
        try:
            rates = m.feature_rates(p, x)
        except (DomainError, ManifoldMismatchError):
            f(p)
            raise
        values = m.features(p)
        return f.dual({name: (values[name], rates[name]) for name in values})[1]
    f_p = f(p)

    def quotient(h: float) -> float:
        return (f(exp_map(p, x, h)) - f_p) / h

    return _extrapolated_limit(quotient, f.name or "dir_deriv")


@dataclass(frozen=True)
class GhDerivative(JsonReport):
    value: Interval
    center_part: float
    width_part: float
    monotone_width_ok: bool


def gh_dir_deriv(f: IvFn, p: Point, x: TangentDirection) -> GhDerivative:
    """Interval directional derivative at p along x.

    The returned value is <center rate, |width rate|>.  When the width's
    one-sided rate is non-negative the pair (center rate, width rate) is the
    valid center/width decomposition; otherwise the flag is lowered and only
    the assembled interval limit is meaningful.
    """
    dc = dir_deriv(f.center, p, x)
    dw = dir_deriv(f.width, p, x)
    return GhDerivative(
        value=Interval.from_center_width(dc, abs(dw)),
        center_part=dc,
        width_part=dw,
        monotone_width_ok=dw >= -MONOTONE_SLACK,
    )


def width_monotone_along(f: IvFn, p: Point, q: Point) -> bool:
    """True when the width is non-decreasing along the geodesic from p to q,
    on the uniform grid of WIDTH_GRID points over [0, 1].

    The width is evaluated on the whole grid (``path_bounds``), so one that
    raises at a grid point raises, even after a decrease."""
    w = path_bounds(f.width, p, q, path_grid(WIDTH_GRID))[0]
    return not (w[1:] < w[:-1] - MONOTONE_SLACK).any()
