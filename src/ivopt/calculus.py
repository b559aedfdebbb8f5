"""Directional derivatives along geodesics via extrapolated one-sided quotients.

The scalar path evaluates forward difference quotients on a geometric step
ladder h0, h0/2, ... and applies Richardson extrapolation.  The interval
path differentiates center and width separately and reassembles the
derivative as an interval with halfwidth |width rate|; the center/width
decomposition is only asserted when the width is non-decreasing along the
geodesic near the base point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotConvergedError
from .functions import IvFn, RealFn, values_along
from .interval import Interval
from .manifolds import Geodesic, Point, TangentDirection, exp_map

MONOTONE_SLACK = 1e-10


@dataclass(frozen=True)
class DerivScheme:
    h0: float = 1e-2
    levels: int = 6
    rich_order: int = 2
    tol: float = 1e-6

    def __post_init__(self):
        if self.h0 <= 0.0:
            raise ValueError("h0 must be positive")
        if self.levels < 2:
            raise ValueError("at least two ladder levels are required")
        if self.rich_order < 1:
            raise ValueError("extrapolation order must be at least 1")
        if self.tol <= 0.0:
            raise ValueError("tolerance must be positive")


DEFAULT_SCHEME = DerivScheme()


def _extrapolated_limit(quotient, scheme: DerivScheme, what: str) -> float:
    """Run the Neville tableau over the step ladder until estimates settle."""
    rows = []  # rows[k][j]: depth-j extrapolant at level k
    last = None
    for k in range(scheme.levels):
        h = scheme.h0 * 0.5**k
        row = [quotient(h)]
        depth = min(k, scheme.rich_order)
        for j in range(1, depth + 1):
            factor = 2.0**j
            row.append((factor * row[j - 1] - rows[k - 1][j - 1]) / (factor - 1.0))
        rows.append(row)
        estimate = row[-1]
        if last is not None and abs(estimate - last) <= scheme.tol:
            return estimate
        last = estimate
    raise NotConvergedError(
        f"{what}: ladder estimates did not settle within {scheme.tol} "
        f"after {scheme.levels} levels (last gap {abs(rows[-1][-1] - rows[-2][-1]):.3e})"
    )


def dir_deriv(
    f: RealFn,
    p: Point,
    x: TangentDirection,
    scheme: DerivScheme = DEFAULT_SCHEME,
) -> float:
    """One-sided directional derivative of a real function at p along x."""
    f_p = f(p)

    def quotient(h: float) -> float:
        return (f(exp_map(p, x, h)) - f_p) / h

    return _extrapolated_limit(quotient, scheme, f.name or "dir_deriv")


@dataclass(frozen=True)
class GhDerivative:
    value: Interval
    center_part: float
    width_part: float
    monotone_width_ok: bool

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json(),
            "center_part": self.center_part,
            "width_part": self.width_part,
            "monotone_width_ok": self.monotone_width_ok,
        }


def gh_dir_deriv(
    f: IvFn,
    p: Point,
    x: TangentDirection,
    scheme: DerivScheme = DEFAULT_SCHEME,
) -> GhDerivative:
    """Interval directional derivative at p along x.

    The returned value is <center rate, |width rate|>.  When the width is
    non-decreasing on the sampled step ladder the pair (center rate,
    width rate) is the valid center/width decomposition; otherwise the
    flag is lowered and only the assembled interval limit is meaningful.
    """
    dc = dir_deriv(f.center, p, x, scheme)
    dw = dir_deriv(f.width, p, x, scheme)

    widths = [f.width(p)]
    for k in range(scheme.levels - 1, -1, -1):
        widths.append(f.width(exp_map(p, x, scheme.h0 * 0.5**k)))
    monotone = all(
        widths[i + 1] >= widths[i] - MONOTONE_SLACK for i in range(len(widths) - 1)
    )
    return GhDerivative(
        value=Interval.from_center_width(dc, abs(dw)),
        center_part=dc,
        width_part=dw,
        monotone_width_ok=monotone,
    )


def width_monotone_along(f: IvFn, geod: Geodesic, grid: int = 33) -> bool:
    """True when the width is non-decreasing on a uniform grid over [0, 1]."""
    if grid < 2:
        raise ValueError("grid must contain at least two points")
    svals = [j / (grid - 1) for j in range(grid)]
    previous = None
    for w in values_along(f.width, geod.start, geod.end, svals):
        if previous is not None and w < previous - MONOTONE_SLACK:
            return False
        previous = w
    return True
