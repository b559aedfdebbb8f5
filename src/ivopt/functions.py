"""Real- and interval-valued functions over manifold points.

A RealFn wraps a scalar evaluation; an IvFn pairs a center function with a
nonnegative width function.  Functions are built either from expression
text bound to a manifold's features or from the named builtin registry
(which includes the piecewise-by-branch family that the expression grammar
cannot express).  A function built from an expression also carries the
expression's curvature along geodesics (``RealFn.shape``, see
``curvature``); any other function's shape is unknown.

``path_grid`` is the one uniform grid over [0, 1], and ``path_bounds`` the
one evaluator of a function on a path grid, the manifold's ``path_points``
along the geodesic or the chord, as (lb, ub) arrays.  When every component
is compiled from an expression and the manifold gives the grid's features
as arrays (``path_features``), it takes one array pass, ``bounds_on``:
each compiled closure (see ``expr``) over the features.  Any other
function, a grid the manifold cannot give as arrays, and a closure that
defers all go point by point instead, so the values, and any exception
with the first grid point it is raised at, are those of evaluating the
function at each point.  ``bounds_on`` is that array pass over any batch
of feature arrays, such as a batch of sampler proposals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import curvature as curvature_mod
from . import expr as expr_mod
from .curvature import UNKNOWN_SHAPE, Shape
from .errors import (
    ConfigError,
    DomainError,
    ManifoldMismatchError,
    NegativeWidthError,
    NonFiniteError,
    UnknownFeatureError,
)
from .interval import Interval, endpoints
from .manifolds import Circle, Euclidean, Manifold, Point, Spd

WIDTH_FLOOR = -1e-12
BRANCH_TOL = 1e-9

CIRCLE = Circle()
SPD2 = Spd(2)
EUCLIDEAN1 = Euclidean(1)
EUCLIDEAN2 = Euclidean(2)


@dataclass(frozen=True, eq=False)
class RealFn:
    manifold: Manifold
    fn: Callable[[Point], float]
    name: str = ""
    # fn's array lane over a dict of feature arrays (``expr.compile_node``),
    # for functions built from an expression; None for any other callable
    compiled: Optional[Callable[[dict], Optional[np.ndarray]]] = None
    # fn's shape along geodesics (``curvature.geodesic_shape``), for functions
    # built from an expression; unknown for any other callable
    shape: Shape = UNKNOWN_SHAPE
    # fn's dual lane over a dict of feature (value, rate) pairs
    # (``expr.compile_dual``), for functions built from an expression
    dual: Optional[Callable[[dict], tuple]] = None

    def __call__(self, p: Point) -> float:
        if p.manifold != self.manifold:
            raise ManifoldMismatchError(
                f"function on {self.manifold.name} evaluated at a {p.manifold.name} point"
            )
        value = float(self.fn(p))
        if not math.isfinite(value):
            raise NonFiniteError(f"{self.name or 'function'} produced {value}")
        return value

    @classmethod
    def from_expression(
        cls, text: str, manifold: Manifold, name: Optional[str] = None
    ) -> "RealFn":
        tree = expr_mod.parse(text)
        unknown = expr_mod.feature_names(tree) - set(manifold.feature_names)
        if unknown:
            raise UnknownFeatureError(unknown, manifold.name)

        scalar = expr_mod.compile_scalar(tree)
        return cls(manifold, lambda p: scalar(manifold.features(p)),
                   name if name is not None else text, expr_mod.compile_node(tree),
                   curvature_mod.geodesic_shape(tree, manifold),
                   expr_mod.compile_dual(tree, scalar))


@dataclass(frozen=True, eq=False)
class IvFn:
    center: RealFn
    width: RealFn
    name: str = ""

    def __post_init__(self):
        if self.center.manifold != self.width.manifold:
            raise ManifoldMismatchError("center and width live on different manifolds")

    @property
    def manifold(self) -> Manifold:
        return self.center.manifold

    def __call__(self, p: Point) -> Interval:
        c = self.center(p)
        w = self.width(p)
        if w < WIDTH_FLOOR:
            raise NegativeWidthError(
                f"{self.name or 'interval function'} has width {w} at the given point"
            )
        return Interval.from_center_width(c, max(w, 0.0))

    @classmethod
    def from_expressions(
        cls,
        center_text: str,
        width_text: str,
        manifold: Manifold,
        name: Optional[str] = None,
    ) -> "IvFn":
        return cls(
            RealFn.from_expression(center_text, manifold),
            RealFn.from_expression(width_text, manifold),
            name if name is not None else f"<{center_text}, {width_text}>",
        )

    def validate_width(self, points: Iterable[Point]) -> None:
        """Evaluate at each point, raising on a negative width."""
        for p in points:
            self(p)


def path_grid(grid: int, interior: bool = False) -> list:
    """s = j / (grid - 1) for j = 0 .. grid - 1, without the ends if ``interior``."""
    first, last = (1, grid - 1) if interior else (0, grid)
    return [j / (grid - 1) for j in range(first, last)]


def path_bounds(
    f: Union[RealFn, IvFn], p: Point, q: Point, svals: Sequence[float],
    path: str = "geodesic",
) -> tuple:
    """f at the points of ``path_points(p, q, svals, path)``, path "geodesic"
    or "chord", as (lb, ub) float64 arrays, a real v as [v, v]: one
    ``bounds_on`` pass over the grid's features where the manifold gives
    them and f has an array form, else f point by point, raising at the
    first grid point that raises."""
    m = p.manifold
    if len(svals) and q.manifold == m:
        bounds = bounds_on(f, m, lambda: m.path_features(p, q, svals, path))
        if bounds is not None:
            return bounds
    lb, ub = np.empty(len(svals)), np.empty(len(svals))
    for j, pt in enumerate(m.path_points(p, q, svals, path)):
        lb[j], ub[j] = endpoints(f(pt))
    return lb, ub


def bounds_on(f: Union[RealFn, IvFn], manifold: Manifold, features) -> Optional[tuple]:
    """f over a batch of feature arrays of ``manifold`` points, as (lb, ub) arrays.

    ``features`` is a dict of arrays, or a function giving one or None that
    is called only when every component of f is compiled.  Entry j holds
    the endpoints of f at the j-th point bit for bit, a real value v as
    [v, v].  None when f has no array form there: it lives on another
    manifold, a component is not compiled or its closure defers, there are
    no features, a width is below WIDTH_FLOOR, or an endpoint is not
    finite; evaluating f point by point then raises where it raises.
    """
    lanes = (f.center.compiled, f.width.compiled) if isinstance(f, IvFn) else (f.compiled,)
    if f.manifold != manifold or None in lanes:
        return None
    if callable(features):
        features = features()
    if features is None:
        return None
    if isinstance(f, RealFn):
        values = f.compiled(features)
        return None if values is None else (values, values)
    centers = f.center.compiled(features)
    widths = None if centers is None else f.width.compiled(features)
    if widths is None or not (widths >= WIDTH_FLOOR).all():
        return None
    # Interval.from_center_width(c, max(w, 0.0)), signed zeros included
    half = np.where(0.0 > widths, 0.0, widths)
    lb, ub = centers - half, centers + half
    if not (np.isfinite(lb).all() and np.isfinite(ub).all()):
        return None
    return lb, ub


def lift_real(fn: RealFn) -> IvFn:
    """Embed a real function as a degenerate (zero-width) interval function."""
    zero = RealFn(fn.manifold, lambda p: 0.0, name="0")
    return IvFn(fn, zero, name=fn.name)


def linear_combination(a: float, f: RealFn, b: float, g: RealFn,
                       name: str = "") -> RealFn:
    if f.manifold != g.manifold:
        raise ManifoldMismatchError("cannot combine functions on different manifolds")
    return RealFn(f.manifold, lambda p: a * f(p) + b * g(p), name=name)


def iv_linear_combination(a: float, f: IvFn, b: float, g: IvFn,
                          name: str = "") -> IvFn:
    """Nonnegative linear combination, matching the interval combine rule."""
    if a < 0.0 or b < 0.0:
        raise ValueError("coefficients must be nonnegative")
    return IvFn(
        linear_combination(a, f.center, b, g.center),
        linear_combination(a, f.width, b, g.width),
        name=name,
    )


# -- piecewise two-branch family on Spd(2) -------------------------------
#
# The star-shaped set is the union of two geodesic segments leaving the
# identity: the isotropic branch diag(2^s, 2^s) and the single-axis branch
# diag(1, 2^s), s in [0, 1].  Functions on it are defined per branch; the
# branches agree at the identity.

_SEG_LO = 1.0 - BRANCH_TOL
_SEG_HI = 2.0 + BRANCH_TOL


def two_branch_classify(p: Point) -> int:
    """Return 0 on the isotropic branch, 1 on the single-axis branch."""
    if p.manifold != SPD2:
        raise ManifoldMismatchError("the two-branch set lives on Spd(2)")
    mat = np.asarray(p.value)
    if abs(mat[0, 1]) > BRANCH_TOL or abs(mat[1, 0]) > BRANCH_TOL:
        raise DomainError("point is not diagonal, hence off the two-branch set")
    d1, d2 = float(mat[0, 0]), float(mat[1, 1])
    if not (_SEG_LO <= d1 <= _SEG_HI and _SEG_LO <= d2 <= _SEG_HI):
        raise DomainError("diagonal entries leave the two-branch segment range")
    if abs(d1 - d2) <= BRANCH_TOL:
        return 0
    if abs(d1 - 1.0) <= BRANCH_TOL:
        return 1
    raise DomainError("diagonal point lies on neither branch")


def two_branch_membership(p: Point) -> bool:
    try:
        two_branch_classify(p)
    except (DomainError, ManifoldMismatchError):
        return False
    return True


# name -> (on_iso, on_axis): the function's value on the isotropic and on the
# single-axis branch, each as a function of u = logdet
_TWO_BRANCH: dict = {
    "two_branch_center": (lambda u: u, lambda u: 0.0),
    "two_branch_width": (lambda u: 1.0, lambda u: 1.0),
    "two_branch_g1": (lambda u: -u, lambda u: 0.0),
    "two_branch_g2": (lambda u: -(u * u) - 1.0, lambda u: -1.0),
    "two_branch_g3": (lambda u: u - 1.0, lambda u: -1.0),
}
# the interval builtin: two_branch_center with two_branch_width
_TWO_BRANCH_IV = "two_branch_objective"


def builtin_real(name: str) -> RealFn:
    try:
        on_iso, on_axis = _TWO_BRANCH[name]
    except KeyError:
        raise ConfigError(
            f"unknown builtin {name!r}; available: {sorted(_TWO_BRANCH)}"
        ) from None

    def fn(p: Point) -> float:
        branch = two_branch_classify(p)
        u = SPD2.features(p)["logdet"]
        return on_iso(u) if branch == 0 else on_axis(u)

    return RealFn(SPD2, fn, name=name)


def builtin_iv(name: str) -> IvFn:
    if name != _TWO_BRANCH_IV:
        raise ConfigError(f"unknown builtin {name!r}; available: {[_TWO_BRANCH_IV]}")
    return IvFn(builtin_real("two_branch_center"), builtin_real("two_branch_width"), name=name)


def builtin(name: str) -> Union[RealFn, IvFn]:
    """The real or interval builtin of that name."""
    if name == _TWO_BRANCH_IV:
        return builtin_iv(name)
    if name in _TWO_BRANCH:
        return builtin_real(name)
    raise ConfigError(f"unknown builtin {name!r}; available: {list(builtin_names())}")


def builtin_names() -> tuple:
    return tuple(sorted(_TWO_BRANCH)) + (_TWO_BRANCH_IV,)
