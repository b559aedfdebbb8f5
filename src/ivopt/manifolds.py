"""Three geometries with closed-form geodesics.

* ``Euclidean(dim)`` -- R^n with straight-line geodesics.
* ``Circle()`` -- the unit circle through the chart angle theta in [0, 2*pi];
  geodesics interpolate the chart angle directly, with no shortest-arc
  wrapping, so convexity verdicts are chart verdicts.
* ``Spd(dim)`` -- symmetric positive definite matrices with the affine
  invariant metric g_p(X, Y) = tr(p^-1 X p^-1 Y).

Points and tangents are immutable.  An ``Spd`` point memoises its feature
dict, so ``features`` computes its slogdet at most once per point and hands
every caller a fresh copy.  ``geodesic_points`` builds a whole parameter
grid along one geodesic; on ``Spd`` it decomposes p and p^-1/2 q p^-1/2
once per segment (the pencil that ``log`` and ``distance`` also use) and
validates the grid as one stack; ``geodesic_point`` is the one-point grid.

``geodesic_features`` is the array form of that grid: each feature as one
float64 array over the grid, equal bit for bit to the features of the points
``geodesic_points`` builds, with no ``Point`` built.  It returns None when
any grid point would fail validation, so that a caller falls back to the
points and meets the error where ``geodesic_point`` raises it.
``chord_features`` is the same for the straight chord of ``chord_point``;
on the flat geometries chords are geodesics and it is ``geodesic_features``.

``Spd.random_points`` draws k random points from one stacked normal draw and
one stacked eigendecomposition, bit for bit the points of k ``random_point``
calls.  Geodesic grids, chord grids and draws pass or fail ``Spd.point``'s
checks as one stack, all or none: when any matrix fails, the caller builds
every point on its own, and the failing one raises its usual error there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, ManifoldMismatchError, NonPositiveDefiniteError

SYM_TOL = 1e-8
EIG_FLOOR = 1e-12
ANGLE_SLACK = 1e-9
CLOSE_TOL = 1e-9  # Point.close_to
TWO_PI = 2.0 * math.pi


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Return (A + A^T)/2, rejecting asymmetry beyond SYM_TOL."""
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {arr.shape}")
    gap = float(np.max(np.abs(arr - arr.T))) if arr.size else 0.0
    if gap > SYM_TOL:
        raise DomainError(f"matrix asymmetry {gap:.3e} exceeds tolerance {SYM_TOL:.1e}")
    return 0.5 * (arr + arr.T)


def _pd_eig(mat: np.ndarray):
    sym = symmetrize(mat)
    vals, vecs = np.linalg.eigh(sym)
    if vals.min() <= EIG_FLOOR:
        raise NonPositiveDefiniteError(
            f"matrix is not positive definite (min eigenvalue {vals.min():.3e})"
        )
    return vals, vecs


def sym_power(mat: np.ndarray, s: float) -> np.ndarray:
    """Matrix power of an SPD matrix via eigendecomposition."""
    vals, vecs = _pd_eig(mat)
    return (vecs * vals**s) @ vecs.T


def sym_log(mat: np.ndarray) -> np.ndarray:
    """Matrix logarithm of an SPD matrix."""
    vals, vecs = _pd_eig(mat)
    return (vecs * np.log(vals)) @ vecs.T


def sym_exp(mat: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix."""
    sym = symmetrize(mat)
    vals, vecs = np.linalg.eigh(sym)
    return (vecs * np.exp(vals)) @ vecs.T


@dataclass(frozen=True, eq=False)
class Point:
    manifold: "Manifold"
    value: Union[float, np.ndarray]
    # Spd feature memo, set by Spd.features and Spd.geodesic_points.  A class
    # attribute, not a field, so building a point costs no more.  The flat
    # geometries leave it unset: their features cost no more than a lookup.
    _features: ClassVar[Optional[dict]] = None

    def close_to(self, other: "Point") -> bool:
        if self.manifold != other.manifold:
            return False
        return self.manifold.distance(self, other) <= CLOSE_TOL

    def to_json(self):
        return self.manifold.point_to_json(self)


@dataclass(frozen=True, eq=False)
class TangentDirection:
    base: Point
    value: Union[float, np.ndarray]

    def scaled(self, a: float) -> "TangentDirection":
        if isinstance(self.value, float):
            return TangentDirection(self.base, a * self.value)
        return TangentDirection(self.base, _readonly(a * np.asarray(self.value)))


@dataclass(frozen=True, eq=False)
class Geodesic:
    start: Point
    end: Point

    def __post_init__(self):
        if self.start.manifold != self.end.manifold:
            raise ManifoldMismatchError("geodesic endpoints live on different manifolds")

    def at(self, s: float) -> Point:
        return self.start.manifold.geodesic_point(self.start, self.end, s)


class Manifold:
    """Common surface for the three geometries."""

    name: str = ""
    feature_names: tuple = ()

    # -- construction -------------------------------------------------
    def point(self, raw) -> Point:
        raise NotImplementedError

    def tangent(self, base: Point, raw) -> TangentDirection:
        raise NotImplementedError

    # -- geometry ------------------------------------------------------
    def geodesic(self, p: Point, q: Point) -> Geodesic:
        self._check(p)
        self._check(q)
        return Geodesic(p, q)

    def geodesic_point(self, p: Point, q: Point, s: float) -> Point:
        raise NotImplementedError

    def geodesic_points(self, p: Point, q: Point, svals: Sequence[float]) -> Iterator[Point]:
        """Geodesic points at each s in svals, in order.

        Points are produced lazily: a point that fails validation raises
        when the caller reaches it, as ``geodesic_point`` would there.
        """
        for s in svals:
            yield self.geodesic_point(p, q, s)

    def geodesic_features(self, p: Point, q: Point, svals: Sequence[float]) -> Optional[dict]:
        """Feature name -> array over the grid, or None if a point is invalid.

        Entry j equals ``features`` of the j-th point of ``geodesic_points``.
        Geometries without an array form return None.
        """
        return None

    def chord_point(self, p: Point, q: Point, s: float) -> Point:
        """Interpolation in ambient coordinates (straight-line mixing)."""
        raise NotImplementedError

    def chord_features(self, p: Point, q: Point, svals: Sequence[float]) -> Optional[dict]:
        """``geodesic_features`` for the points ``chord_point`` gives at svals."""
        return None

    def log(self, p: Point, q: Point) -> TangentDirection:
        raise NotImplementedError

    def exp(self, p: Point, x: TangentDirection, s: float = 1.0) -> Point:
        raise NotImplementedError

    def distance(self, p: Point, q: Point) -> float:
        raise NotImplementedError

    def inner(self, p: Point, x: TangentDirection, y: TangentDirection) -> float:
        raise NotImplementedError

    def features(self, p: Point) -> dict:
        raise NotImplementedError

    def random_point(self, rng: np.random.Generator, scale: float = 0.7) -> Point:
        raise NotImplementedError

    def point_to_json(self, p: Point):
        raise NotImplementedError

    # -- helpers --------------------------------------------------------
    def _check(self, p: Point) -> None:
        if p.manifold != self:
            raise ManifoldMismatchError(
                f"point from {p.manifold.name} used on {self.name}"
            )

    def _check_tangent(self, p: Point, x: TangentDirection) -> None:
        self._check(p)
        if x.base is p:
            return
        if x.base.manifold != self:
            raise ManifoldMismatchError("tangent direction from a different manifold")
        if self.distance(x.base, p) > 1e-9:
            raise ManifoldMismatchError("tangent direction is based at a different point")


@dataclass(frozen=True)
class Euclidean(Manifold):
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")

    @property
    def name(self) -> str:
        return f"Euclidean({self.dim})"

    @property
    def feature_names(self) -> tuple:
        return tuple(f"x{i + 1}" for i in range(self.dim))

    def point(self, raw) -> Point:
        arr = np.asarray(raw, dtype=float).reshape(-1)
        if arr.shape != (self.dim,):
            raise DomainError(f"expected a length-{self.dim} vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("point coordinates must be finite")
        return Point(self, _readonly(arr))

    def tangent(self, base: Point, raw) -> TangentDirection:
        self._check(base)
        arr = np.asarray(raw, dtype=float).reshape(-1)
        if arr.shape != (self.dim,):
            raise DomainError(f"expected a length-{self.dim} vector, got shape {arr.shape}")
        return TangentDirection(base, _readonly(arr))

    def geodesic_point(self, p: Point, q: Point, s: float) -> Point:
        self._check(p)
        self._check(q)
        return self.point((1.0 - s) * p.value + s * q.value)

    def geodesic_features(self, p: Point, q: Point, svals: Sequence[float]) -> Optional[dict]:
        self._check(p)
        self._check(q)
        s = np.asarray(svals, dtype=float)[:, None]
        coords = (1.0 - s) * p.value + s * q.value
        if not np.isfinite(coords).all():
            return None
        return dict(zip(self.feature_names, coords.T))

    def chord_point(self, p: Point, q: Point, s: float) -> Point:
        return self.geodesic_point(p, q, s)

    chord_features = geodesic_features

    def log(self, p: Point, q: Point) -> TangentDirection:
        self._check(p)
        self._check(q)
        return TangentDirection(p, _readonly(q.value - p.value))

    def exp(self, p: Point, x: TangentDirection, s: float = 1.0) -> Point:
        self._check_tangent(p, x)
        return self.point(p.value + s * x.value)

    def distance(self, p: Point, q: Point) -> float:
        self._check(p)
        self._check(q)
        return float(np.linalg.norm(q.value - p.value))

    def inner(self, p: Point, x: TangentDirection, y: TangentDirection) -> float:
        self._check_tangent(p, x)
        self._check_tangent(p, y)
        return float(np.dot(x.value, y.value))

    def features(self, p: Point) -> dict:
        self._check(p)
        return {f"x{i + 1}": float(v) for i, v in enumerate(p.value)}

    def random_point(self, rng: np.random.Generator, scale: float = 0.7) -> Point:
        return self.point(rng.normal(0.0, scale, size=self.dim))

    def point_to_json(self, p: Point):
        return [float(v) for v in p.value]


@dataclass(frozen=True)
class Circle(Manifold):
    """Unit circle through the chart angle theta in [0, 2*pi].

    Geodesics interpolate the chart angle; there is no wrap-around, so the
    chart boundary is a hard boundary for geodesic extensions.
    """

    @property
    def name(self) -> str:
        return "Circle"

    @property
    def feature_names(self) -> tuple:
        return ("theta",)

    def point(self, raw) -> Point:
        theta = float(raw)
        if not math.isfinite(theta):
            raise DomainError("angle must be finite")
        if theta < -ANGLE_SLACK or theta > TWO_PI + ANGLE_SLACK:
            raise DomainError(
                f"angle {theta} outside the chart range [0, {TWO_PI:.6f}]"
            )
        return Point(self, min(max(theta, 0.0), TWO_PI))

    def tangent(self, base: Point, raw) -> TangentDirection:
        self._check(base)
        return TangentDirection(base, float(raw))

    def geodesic_point(self, p: Point, q: Point, s: float) -> Point:
        self._check(p)
        self._check(q)
        return self.point((1.0 - s) * p.value + s * q.value)

    def geodesic_features(self, p: Point, q: Point, svals: Sequence[float]) -> Optional[dict]:
        self._check(p)
        self._check(q)
        s = np.asarray(svals, dtype=float)
        theta = self.angles((1.0 - s) * p.value + s * q.value)
        return None if theta is None else {"theta": theta}

    def angles(self, theta: np.ndarray) -> Optional[np.ndarray]:
        """``point``'s range check and clamp over an array: the angles points
        would store, or None when an entry would fail the check."""
        if not (
            np.isfinite(theta).all()
            and (theta >= -ANGLE_SLACK).all()
            and (theta <= TWO_PI + ANGLE_SLACK).all()
        ):
            return None
        # point's clamp min(max(theta, 0.0), TWO_PI), signed zeros included
        theta = np.where(0.0 > theta, 0.0, theta)
        return np.where(TWO_PI < theta, TWO_PI, theta)

    def chord_point(self, p: Point, q: Point, s: float) -> Point:
        return self.geodesic_point(p, q, s)

    chord_features = geodesic_features

    def log(self, p: Point, q: Point) -> TangentDirection:
        self._check(p)
        self._check(q)
        return TangentDirection(p, q.value - p.value)

    def exp(self, p: Point, x: TangentDirection, s: float = 1.0) -> Point:
        self._check_tangent(p, x)
        return self.point(p.value + s * x.value)

    def distance(self, p: Point, q: Point) -> float:
        self._check(p)
        self._check(q)
        return abs(q.value - p.value)

    def inner(self, p: Point, x: TangentDirection, y: TangentDirection) -> float:
        self._check_tangent(p, x)
        self._check_tangent(p, y)
        return x.value * y.value

    def features(self, p: Point) -> dict:
        self._check(p)
        return {"theta": p.value}

    def random_point(self, rng: np.random.Generator, scale: float = 0.7) -> Point:
        return self.point(rng.uniform(0.0, TWO_PI))

    def point_to_json(self, p: Point):
        return {"theta": p.value}


@dataclass(frozen=True)
class Spd(Manifold):
    """Symmetric positive definite matrices with the affine invariant metric.

    geodesic_point: p^(1/2) (p^(-1/2) q p^(-1/2))^s p^(1/2)
    log:            p^(1/2) logm(p^(-1/2) q p^(-1/2)) p^(1/2)
    distance:       Frobenius norm of logm(p^(-1/2) q p^(-1/2))
    """

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")

    @property
    def name(self) -> str:
        return f"Spd({self.dim})"

    @property
    def feature_names(self) -> tuple:
        return ("logdet", "trace")

    def point(self, raw) -> Point:
        arr = np.asarray(raw, dtype=float)
        if arr.shape != (self.dim, self.dim):
            raise DomainError(
                f"expected a {self.dim}x{self.dim} matrix, got shape {arr.shape}"
            )
        # non-finite entries fail before the symmetry check, and so do entries
        # above about 8.99e307, which overflow in (A + A^T) / 2
        with np.errstate(over="ignore"):
            sym = symmetrize(arr) if np.all(np.isfinite(arr)) else arr
        if not np.all(np.isfinite(sym)):
            raise DomainError("matrix entries must be finite")
        vals = np.linalg.eigvalsh(sym)
        if vals.min() <= EIG_FLOOR:
            raise NonPositiveDefiniteError(
                f"matrix is not positive definite (min eigenvalue {vals.min():.3e})"
            )
        return Point(self, _readonly(sym))

    def tangent(self, base: Point, raw) -> TangentDirection:
        self._check(base)
        arr = np.asarray(raw, dtype=float)
        if arr.shape != (self.dim, self.dim):
            raise DomainError(
                f"expected a {self.dim}x{self.dim} matrix, got shape {arr.shape}"
            )
        return TangentDirection(base, _readonly(symmetrize(arr)))

    def _roots(self, p: Point):
        vals, vecs = _pd_eig(p.value)
        half = (vecs * np.sqrt(vals)) @ vecs.T
        inv_half = (vecs / np.sqrt(vals)) @ vecs.T
        return half, inv_half

    def _pencil(self, p: Point, q: Point):
        """p^(1/2) and the eigendecomposition (vals, vecs) of p^(-1/2) q p^(-1/2)."""
        self._check(p)
        self._check(q)
        half, inv_half = self._roots(p)
        vals, vecs = _pd_eig(inv_half @ q.value @ inv_half)
        return half, vals, vecs

    def geodesic_point(self, p: Point, q: Point, s: float) -> Point:
        return self.point(self._grid(p, q, (s,))[0])

    def geodesic_points(self, p: Point, q: Point, svals: Sequence[float]) -> Iterator[Point]:
        """Grid points p^(1/2) m^s p^(1/2), m = p^(-1/2) q p^(-1/2), in order.

        p and m are each decomposed once.  The grid is built and validated
        as one stack with the checks of ``point``, and each point's features
        are memoised from one stacked slogdet.  When any point fails them,
        every grid matrix goes through ``point`` lazily, so the failure
        raises its usual error when the caller reaches it.
        """
        raw = self._grid(p, q, svals)
        stack = self._stack(raw)
        if stack is None:
            yield from map(self.point, raw)
            return
        sym, features = stack
        for value, logdet, trace in zip(
            sym, features["logdet"].tolist(), features["trace"].tolist()
        ):
            yield self._memoised(value, logdet, trace)

    def geodesic_features(self, p: Point, q: Point, svals: Sequence[float]) -> Optional[dict]:
        """The stacked logdet and trace of ``geodesic_points``, or None when a
        point fails validation or has a non-positive determinant sign."""
        stack = self._stack(self._grid(p, q, svals))
        return None if stack is None else stack[1]

    def _grid(self, p: Point, q: Point, svals: Sequence[float]) -> np.ndarray:
        """The geodesic grid as one raw (unvalidated) stack."""
        half, vals, vecs = self._pencil(p, q)
        # one scalar power per grid value: numpy special-cases exponents such
        # as 0.5, so a broadcast vals ** svals would change the bits
        pows = np.array([vals**s for s in svals]).reshape(len(svals), self.dim)
        return half @ ((vecs * pows[:, None, :]) @ vecs.T) @ half

    def _stack(self, raw: np.ndarray):
        """(sym, features) of a stack of matrices that all pass ``point``'s
        checks and have a positive determinant sign: the symmetrized stack,
        read-only, and its logdet and trace arrays.  None otherwise."""
        flipped = raw.transpose(0, 2, 1)
        # entries above about 8.99e307 overflow in (A + A^T) / 2; like
        # ``point``, reject them by the finiteness test, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            sym = 0.5 * (raw + flipped)
            gap = np.abs(raw - flipped)
        if not (np.isfinite(sym).all() and (gap <= SYM_TOL).all()):
            return None
        if not (np.linalg.eigvalsh(sym).min(axis=1) > EIG_FLOOR).all():
            return None
        signs, logdets = np.linalg.slogdet(sym)
        if not (signs > 0).all():
            return None
        sym.setflags(write=False)
        return sym, {"logdet": logdets, "trace": np.trace(sym, axis1=1, axis2=2)}

    def _memoised(self, value: np.ndarray, logdet: float, trace: float) -> Point:
        pt = Point(self, value)
        object.__setattr__(pt, "_features", {"logdet": logdet, "trace": trace})
        return pt

    def chord_point(self, p: Point, q: Point, s: float) -> Point:
        self._check(p)
        self._check(q)
        return self.point((1.0 - s) * p.value + s * q.value)

    def chord_features(self, p: Point, q: Point, svals: Sequence[float]) -> Optional[dict]:
        """The stacked logdet and trace of the ``chord_point`` grid, or None
        when a point fails validation or has a non-positive determinant sign."""
        self._check(p)
        self._check(q)
        s = np.asarray(svals, dtype=float)[:, None, None]
        stack = self._stack((1.0 - s) * p.value + s * q.value)
        return None if stack is None else stack[1]

    def log(self, p: Point, q: Point) -> TangentDirection:
        half, vals, vecs = self._pencil(p, q)
        mid = (vecs * np.log(vals)) @ vecs.T
        return TangentDirection(p, _readonly(half @ mid @ half))

    def exp(self, p: Point, x: TangentDirection, s: float = 1.0) -> Point:
        self._check_tangent(p, x)
        half, inv_half = self._roots(p)
        mid = sym_exp(s * (inv_half @ x.value @ inv_half))
        return self.point(half @ mid @ half)

    def distance(self, p: Point, q: Point) -> float:
        _, vals, _ = self._pencil(p, q)
        return float(np.sqrt(np.sum(np.log(vals) ** 2)))

    def inner(self, p: Point, x: TangentDirection, y: TangentDirection) -> float:
        self._check_tangent(p, x)
        self._check_tangent(p, y)
        a = np.linalg.solve(p.value, x.value)
        b = np.linalg.solve(p.value, y.value)
        return float(np.trace(a @ b))

    def features(self, p: Point) -> dict:
        """logdet and trace, computed once per point; each call gets a fresh dict."""
        self._check(p)
        if p._features is None:
            sign, logdet = np.linalg.slogdet(p.value)
            if sign <= 0:
                raise NonPositiveDefiniteError("determinant is not positive")
            feats = {"logdet": float(logdet), "trace": float(np.trace(p.value))}
            object.__setattr__(p, "_features", feats)
        return dict(p._features)

    def random_point(self, rng: np.random.Generator, scale: float = 0.7) -> Point:
        return self.random_points(rng, 1, scale)[1](0)

    def random_points(self, rng: np.random.Generator, k: int, scale: float = 0.7):
        """k random points exp(sym(X)), X with normal entries, as (features,
        point): ``point(i)`` builds the i-th point and ``features`` holds
        their logdet and trace as arrays.

        One stacked normal draw gives the bits of k draws in a row.  Each
        matrix is rebuilt on its own from one stacked eigh, as ``sym_exp``
        rebuilds it, and the stack is validated with ``point``'s checks.
        When a matrix fails them, ``features`` is None and each ``point(i)``
        goes through ``sym_exp`` and ``point``, raising its error there.
        Overflow from a huge scale is silenced; ``point`` rejects the result.
        """
        raw = rng.normal(0.0, scale, size=(k, self.dim, self.dim))

        def one_by_one(i: int) -> Point:
            with np.errstate(over="ignore", invalid="ignore"):
                return self.point(sym_exp(tangents[i]))

        with np.errstate(over="ignore", invalid="ignore"):
            tangents = 0.5 * (raw + raw.transpose(0, 2, 1))
            # sym_exp's symmetrize; a non-finite stack fails validation below
            sym = 0.5 * (tangents + tangents.transpose(0, 2, 1))
            try:
                vals, vecs = np.linalg.eigh(sym)
            except np.linalg.LinAlgError:
                return None, one_by_one
            stack = self._stack(
                np.stack([(vecs[i] * np.exp(vals[i])) @ vecs[i].T for i in range(k)])
            )
        if stack is None:
            return None, one_by_one
        sym, features = stack
        logdets, traces = features["logdet"].tolist(), features["trace"].tolist()
        return features, lambda i: self._memoised(sym[i], logdets[i], traces[i])

    def point_to_json(self, p: Point):
        return [[float(v) for v in row] for row in p.value]


# -- module-level operation surface -------------------------------------


def geodesic_at(geod: Geodesic, s: float) -> Point:
    """Point at parameter s along the geodesic (0 -> start, 1 -> end)."""
    return geod.at(s)


def log_map(p: Point, q: Point) -> TangentDirection:
    """Initial velocity of the geodesic running from p to q."""
    return p.manifold.log(p, q)


def exp_map(p: Point, x: TangentDirection, s: float = 1.0) -> Point:
    """Point reached after parameter s along the geodesic with velocity x."""
    return p.manifold.exp(p, x, s)


def distance(p: Point, q: Point) -> float:
    return p.manifold.distance(p, q)


def inner(p: Point, x: TangentDirection, y: TangentDirection) -> float:
    return p.manifold.inner(p, x, y)
