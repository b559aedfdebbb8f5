"""Three geometries with closed-form geodesics.

* ``Euclidean(dim)`` -- R^n with straight-line geodesics.
* ``Circle()`` -- the unit circle through the chart angle theta in [0, 2*pi];
  geodesics interpolate the chart angle directly, with no shortest-arc
  wrapping, so convexity verdicts are chart verdicts.
* ``Spd(dim)`` -- symmetric positive definite matrices with the affine
  invariant metric g_p(X, Y) = tr(p^-1 X p^-1 Y).

Points and tangents are immutable.  Every geometry walks two paths, the
geodesic and the chord (ambient mixing; on the flat geometries the chord is
the geodesic), through one seam: ``path_points`` gives a path grid's points
lazily and ``path_features`` its features as float64 arrays, entry j equal
bit for bit to the features of the j-th point, or None when a grid point is
invalid; the caller meets the error where that point raises it.  On ``Spd``
one Cholesky pencil per pair gives a grid's logdet and trace in closed form,
with no matrix per grid point; its points memoise the same features, and one
validity rule decides for points and arrays alike.  Every walk first refuses
an unknown path kind (``check_path``).  ``feature_rates`` gives the features'
one-sided rates along exp_p(s x) at s = 0, for the dual lane of ``expr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, ManifoldMismatchError, NonPositiveDefiniteError

SYM_TOL = 1e-8
EIG_FLOOR = 1e-12
ANGLE_SLACK = 1e-9
TWO_PI = 2.0 * math.pi


def check_path(path: str) -> None:
    """Refuse a path kind other than "geodesic" and "chord"."""
    if path not in ("geodesic", "chord"):
        raise ValueError(f"unknown path kind {path!r}")


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _mix(a: np.ndarray, b: np.ndarray, s) -> np.ndarray:
    """(1 - s) a + s b in ambient coordinates.  An overflow is left silent:
    the caller's finiteness check rejects the result."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (1.0 - s) * a + s * b


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


def _cholesky(mat: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of a matrix (or of each of a stack)."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise NonPositiveDefiniteError("matrix has no Cholesky factor") from None


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
    # Spd feature memo: a class attribute, not a field, so a point costs no more
    _features: ClassVar[Optional[dict]] = None

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
    def geodesic_point(self, p: Point, q: Point, s: float) -> Point:
        raise NotImplementedError

    def chord_point(self, p: Point, q: Point, s: float) -> Point:
        """Interpolation in ambient coordinates (straight-line mixing)."""
        raise NotImplementedError

    def path_points(self, p: Point, q: Point, svals: Sequence[float],
                    path: str = "geodesic") -> Iterator[Point]:
        """The points ``geodesic_point`` (``chord_point`` with path="chord")
        gives at each s in svals, in order, produced lazily: a point that
        fails validation raises when the caller reaches it."""
        check_path(path)
        point = self.geodesic_point if path == "geodesic" else self.chord_point
        for s in svals:
            yield point(p, q, s)

    def path_features(self, p: Point, q: Point, svals: Sequence[float],
                      path: str = "geodesic") -> Optional[dict]:
        """Feature name -> array over the grid, or None if a point is invalid;
        entry j equals ``features`` of the j-th point of ``path_points``."""
        check_path(path)
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

    def feature_rates(self, p: Point, x: TangentDirection) -> dict:
        """Feature name -> its one-sided rate d/ds at s = 0 along exp_p(s x)."""
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

    @cached_property
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
        return self.point(_mix(p.value, q.value, s))

    def path_features(self, p: Point, q: Point, svals: Sequence[float],
                      path: str = "geodesic") -> Optional[dict]:
        """A flat chord is the geodesic, so ``path`` is only checked."""
        check_path(path)
        self._check(p)
        self._check(q)
        s = np.asarray(svals, dtype=float)[:, None]
        coords = _mix(p.value, q.value, s)
        if not np.isfinite(coords).all():
            return None
        return dict(zip(self.feature_names, coords.T))

    def chord_point(self, p: Point, q: Point, s: float) -> Point:
        return self.geodesic_point(p, q, s)

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
        return dict(zip(self.feature_names, p.value.tolist()))

    def feature_rates(self, p: Point, x: TangentDirection) -> dict:
        self._check_tangent(p, x)
        return dict(zip(self.feature_names, x.value.tolist()))

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

    def path_features(self, p: Point, q: Point, svals: Sequence[float],
                      path: str = "geodesic") -> Optional[dict]:
        """A flat chord is the geodesic, so ``path`` is only checked."""
        check_path(path)
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

    def feature_rates(self, p: Point, x: TangentDirection) -> dict:
        """theta' = x; a geodesic that leaves the chart at once has no rate."""
        self._check_tangent(p, x)
        if (p.value == 0.0 and x.value < 0.0) or (p.value == TWO_PI and x.value > 0.0):
            raise DomainError(f"the geodesic from angle {p.value} along {x.value} "
                              "leaves the chart at once")
        return {"theta": x.value}

    def random_point(self, rng: np.random.Generator, scale: float = 0.7) -> Point:
        return self.point(rng.uniform(0.0, TWO_PI))

    def point_to_json(self, p: Point):
        return {"theta": p.value}


@dataclass(frozen=True)
class Spd(Manifold):
    """Symmetric positive definite matrices with the affine invariant metric.

    With b b^T = p and b diag(vals) b^T = q (``_pencil``):
    geodesic_point: b diag(vals^s) b^T = p^(1/2) (p^(-1/2) q p^(-1/2))^s p^(1/2)
    log:            b diag(log vals) b^T
    distance:       the Euclidean norm of log vals
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
        _cholesky(sym)  # every pencil from the point needs the factor
        return Point(self, _readonly(sym))

    def tangent(self, base: Point, raw) -> TangentDirection:
        self._check(base)
        arr = np.asarray(raw, dtype=float)
        if arr.shape != (self.dim, self.dim):
            raise DomainError(
                f"expected a {self.dim}x{self.dim} matrix, got shape {arr.shape}"
            )
        return TangentDirection(base, _readonly(symmetrize(arr)))

    def _pencil(self, p: Point, q: Point):
        """(b, vals), b b^T = p and b diag(vals) b^T = q: b = L V from the Cholesky
        p = L L^T and eigh L^-1 q L^-T = V diag(vals) V^T.  The one seam for a pair."""
        self._check(p)
        self._check(q)
        low = _cholesky(p.value)
        inv = np.linalg.inv(low)
        mid = inv @ q.value @ inv.T
        vals, vecs = np.linalg.eigh(0.5 * (mid + mid.T))
        if not vals.min() > 0.0:
            raise NonPositiveDefiniteError("matrix is not positive definite "
                                           f"(min eigenvalue {vals.min():.3e})")
        return low @ vecs, vals

    def _path(self, p: Point, q: Point, svals: Sequence[float], path: str):
        """(b, eig, features, ok) of the grid along ``path``: its j-th point is
        b diag(eig[j]) b^T, eig[j] = vals^s on the geodesic and (1 - s) + s vals on
        the chord, so logdet = logdet p + sum(log eig[j]) and trace = sum(|b_i|^2
        eig[j, i]), on the chord (1 - s) tr p + s tr q.  ok is the validity rule:
        eig[j] > 0, logdet and 2 trace finite (|entry| <= trace: no overflow)."""
        check_path(path)
        b, vals = self._pencil(p, q)
        start = self.features(p)
        s = np.asarray(svals, dtype=float)
        with np.errstate(all="ignore"):
            if path == "geodesic":
                # exp(s log vals), not vals ** s, whose bits vary with the grid length
                logs = np.log(vals)
                eig = np.exp(s[:, None] * logs)
                logdet = start["logdet"] + s * sum(logs)
                trace = sum((eig * sum(b * b)).T)
            else:
                eig = (1.0 - s)[:, None] + s[:, None] * vals
                logdet = start["logdet"] + sum(np.log(eig).T)
                trace = (1.0 - s) * start["trace"] + s * self.features(q)["trace"]
            ok = (eig > 0.0).all(axis=1) & np.isfinite(logdet) & np.isfinite(2.0 * trace)
        return b, eig, {"logdet": logdet, "trace": trace}, ok

    def path_points(self, p: Point, q: Point, svals: Sequence[float],
                    path: str = "geodesic") -> Iterator[Point]:
        """``_path``'s points in order, memoised; one breaking the rule raises there."""
        b, eig, features, ok = self._path(p, q, svals, path)
        with np.errstate(all="ignore"):  # a point that overflows is never handed out
            raw = ((b * eig[:, None, :]) @ b.T if path == "geodesic"
                   else _mix(p.value, q.value, np.asarray(svals, dtype=float)[:, None, None]))
            values = 0.5 * (raw + raw.transpose(0, 2, 1))
        logdets, traces = features["logdet"].tolist(), features["trace"].tolist()
        for j in range(len(svals)):
            if not (eig[j] > 0.0).all():
                raise NonPositiveDefiniteError("matrix is not positive definite (min "
                                               f"eigenvalue {eig[j].min():.3e} relative to p)")
            if not ok[j]:
                raise DomainError("matrix entries must be finite")
            yield self._memoised(values[j], logdets[j], traces[j])

    def path_features(self, p: Point, q: Point, svals: Sequence[float],
                      path: str = "geodesic") -> Optional[dict]:
        """``path_points``' features, or None when one breaks ``_path``'s rule."""
        _, _, features, ok = self._path(p, q, svals, path)
        return features if ok.all() else None

    def geodesic_point(self, p: Point, q: Point, s: float) -> Point:
        return next(self.path_points(p, q, (s,)))

    def chord_point(self, p: Point, q: Point, s: float) -> Point:
        return next(self.path_points(p, q, (s,), "chord"))

    def _stack(self, raw: np.ndarray):
        """(sym, features) of a stack of matrices that all pass ``point``'s
        checks and have a positive determinant sign: the symmetrized stack
        and its logdet and trace arrays.  None otherwise."""
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
        try:
            _cholesky(sym)
        except NonPositiveDefiniteError:
            return None
        signs, logdets = np.linalg.slogdet(sym)
        if not (signs > 0).all():
            return None
        return sym, {"logdet": logdets, "trace": np.trace(sym, axis1=1, axis2=2)}

    def _memoised(self, value: np.ndarray, logdet: float, trace: float) -> Point:
        value.setflags(write=False)
        pt = Point(self, value)
        object.__setattr__(pt, "_features", {"logdet": logdet, "trace": trace})
        return pt

    def log(self, p: Point, q: Point) -> TangentDirection:
        b, vals = self._pencil(p, q)
        return TangentDirection(p, _readonly((b * np.log(vals)) @ b.T))

    def exp(self, p: Point, x: TangentDirection, s: float = 1.0) -> Point:
        self._check_tangent(p, x)
        vals, vecs = _pd_eig(p.value)
        half, inv_half = (vecs * np.sqrt(vals)) @ vecs.T, (vecs / np.sqrt(vals)) @ vecs.T
        mid = sym_exp(s * (inv_half @ x.value @ inv_half))
        return self.point(half @ mid @ half)

    def distance(self, p: Point, q: Point) -> float:
        _, vals = self._pencil(p, q)
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

    def feature_rates(self, p: Point, x: TangentDirection) -> dict:
        """logdet' = tr(p^-1 X) = tr(L^-1 X L^-T) with p = L L^T, trace' = tr X."""
        self._check_tangent(p, x)
        inv = np.linalg.inv(_cholesky(p.value))
        return {"logdet": float(np.sum((inv @ x.value) * inv)), "trace": float(np.trace(x.value))}

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
