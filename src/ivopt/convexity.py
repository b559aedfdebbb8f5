"""Sampled certifiers for geodesic convexity notions.

Every check draws pairs or targets from a domain sampler with a fixed
seed, tests the defining inequality on a parameter grid, and returns
either HoldsOnSamples or CounterexampleFound with a witness that
re-evaluates to a violation.  Verdicts are statements about the samples,
never proofs; strict verdicts additionally require a fixed margin at
interior grid points.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from .calculus import DEFAULT_SCHEME, DerivScheme, dir_deriv, gh_dir_deriv, width_monotone_along
from .errors import SamplerExhaustedError
from .functions import IvFn, RealFn, values_along
from .interval import (
    Interval,
    OrderOutcome,
    OrderRelation,
    combine,
    compare,
    default_center_eps,
    gh_diff,
)
from .manifolds import Point, distance, log_map

STRICT_MARGIN = 1e-10
EQ_TOL = 1e-9
DERIV_EPS = 1e-7

Fn = Union[RealFn, IvFn]
Value = Union[float, Interval]


@dataclass
class DomainSampler:
    """Membership predicate plus proposal sampler for a region of a manifold."""

    membership: Callable[[Point], bool]
    sample: Callable[[np.random.Generator], Point]
    anchor: Optional[Point] = None
    name: str = ""

    def draw_one(
        self,
        rng: np.random.Generator,
        max_tries: int = 1000,
        apart_from: Optional[Point] = None,
        min_dist: float = 0.0,
    ) -> Point:
        for _ in range(max_tries):
            candidate = self.sample(rng)
            if not self.membership(candidate):
                continue
            # a distance is never negative, so min_dist <= 0 rejects nothing
            if (
                min_dist > 0.0
                and apart_from is not None
                and distance(apart_from, candidate) < min_dist
            ):
                continue
            return candidate
        raise SamplerExhaustedError(
            f"sampler {self.name or '<anonymous>'} found no admissible point "
            f"in {max_tries} proposals"
        )

    def draw(self, rng: np.random.Generator, n: int) -> list:
        return [self.draw_one(rng) for _ in range(n)]

    def restrict(self, extra: Callable[[Point], bool], name: str = "") -> "DomainSampler":
        base_membership = self.membership
        anchor = self.anchor if (self.anchor is not None and extra(self.anchor)) else None
        return DomainSampler(
            membership=lambda p: base_membership(p) and extra(p),
            sample=self.sample,
            anchor=anchor,
            name=name or (self.name + "|restricted"),
        )


class Verdict(Enum):
    HOLDS = "HoldsOnSamples"
    COUNTEREXAMPLE = "CounterexampleFound"


def _value_json(v):
    if v is None:
        return None
    if isinstance(v, Interval):
        return v.to_json()
    return float(v)


@dataclass(frozen=True)
class Counterexample:
    p: Point
    q: Point
    s: float
    lhs: Optional[Value]
    rhs: Optional[Value]

    def to_json(self) -> dict:
        return {
            "p": self.p.to_json(),
            "q": self.q.to_json(),
            "s": self.s,
            "lhs": _value_json(self.lhs),
            "rhs": _value_json(self.rhs),
        }


@dataclass
class ConvexityReport:
    verdict: Verdict
    counterexample: Optional[Counterexample]
    samples_used: int
    skipped: int = 0

    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "counterexample": (
                self.counterexample.to_json() if self.counterexample else None
            ),
            "samples_used": self.samples_used,
            "skipped": self.skipped,
        }


def _is_interval_fn(f: Fn) -> bool:
    return isinstance(f, IvFn)


def _mix(f: Fn, vp: Value, vq: Value, s: float) -> Value:
    if isinstance(vp, Interval):
        return combine(1.0 - s, vp, s, vq)
    return (1.0 - s) * vp + s * vq


def _nonstrict_violation(lhs: Value, rhs: Value) -> Optional[float]:
    """Severity of a violation of lhs <= rhs, or None when it holds.

    Violations whose magnitude stays below the STRICT_MARGIN floor are
    treated as numerical ties, not counterexamples.
    """
    if isinstance(lhs, Interval):
        outcome = compare(lhs, rhs, OrderRelation.MIN)
        if outcome is not OrderOutcome.GREATER:
            return None
        dc = lhs.center - rhs.center
        if abs(dc) > default_center_eps(lhs.center, rhs.center):
            return dc
        gap = lhs.halfwidth - rhs.halfwidth
        return gap if gap > STRICT_MARGIN else None
    gap = lhs - rhs
    tol = EQ_TOL * max(1.0, abs(rhs))
    return gap if gap > tol else None


def _strict_violation(lhs: Value, rhs: Value, margin: float) -> Optional[float]:
    """Severity of a failure of lhs < rhs with the given margin."""
    if isinstance(lhs, Interval):
        tie = max(margin, default_center_eps(lhs.center, rhs.center))
        dc = rhs.center - lhs.center
        if dc > tie:
            return None
        if abs(dc) <= tie and rhs.halfwidth - lhs.halfwidth > margin:
            return None
        return margin - min(dc, rhs.halfwidth - lhs.halfwidth)
    gap = rhs - lhs
    return None if gap > margin else margin - gap


def _grid_values(grid: int, interior: bool):
    if grid < 2:
        raise ValueError("grid must contain at least two points")
    first, last = (1, grid - 1) if interior else (0, grid)
    return [j / (grid - 1) for j in range(first, last)]


def _segment_check(
    f: Fn,
    p: Point,
    q: Point,
    grid: int,
    strict: bool,
    margin: float,
    path: str,
) -> list:
    """Return (severity, s, lhs, rhs) violations along one segment."""
    vp, vq = f(p), f(q)
    svals = _grid_values(grid, interior=strict)
    if path == "chord":
        values = (f(p.manifold.chord_point(p, q, s)) for s in svals)
    else:
        values = values_along(f, p, q, svals)
    out = []
    for s, lhs in zip(svals, values):
        rhs = _mix(f, vp, vq, s)
        severity = (
            _strict_violation(lhs, rhs, margin)
            if strict
            else _nonstrict_violation(lhs, rhs)
        )
        if severity is not None:
            out.append((severity, s, lhs, rhs))
    return out


def _report(worst, used: int, skipped: int = 0) -> ConvexityReport:
    """Report the worst (severity, counterexample) found, if any."""
    if worst is None:
        return ConvexityReport(Verdict.HOLDS, None, used, skipped)
    return ConvexityReport(Verdict.COUNTEREXAMPLE, worst[1], used, skipped)


def _worst_on_segments(
    f: Fn, segments, grid: int, strict: bool, margin: float, path: str
) -> ConvexityReport:
    """Worst convexity violation over (p, q) segments, drawn lazily in order."""
    worst = None
    used = 0
    for p, q in segments:
        used += 1
        for severity, s, lhs, rhs in _segment_check(f, p, q, grid, strict, margin, path):
            if worst is None or severity > worst[0]:
                worst = (severity, Counterexample(p, q, s, lhs, rhs))
    return _report(worst, used)


def check_convex(
    f: Fn,
    dom: DomainSampler,
    pairs: int = 64,
    grid: int = 33,
    strict: bool = False,
    seed: int = 0,
    path: str = "geodesic",
    margin: float = STRICT_MARGIN,
) -> ConvexityReport:
    """Test the convexity inequality on sampled pairs joined by geodesics.

    ``path="chord"`` replaces the geodesic with straight-line mixing in
    ambient coordinates, which probes ordinary convexity instead.
    """
    if path not in ("geodesic", "chord"):
        raise ValueError(f"unknown path kind {path!r}")
    rng = np.random.default_rng(seed)

    def drawn_pairs():
        for _ in range(pairs):
            p = dom.draw_one(rng)
            yield p, dom.draw_one(rng, apart_from=p, min_dist=1e-8 if strict else 0.0)

    return _worst_on_segments(f, drawn_pairs(), grid, strict, margin, path)


def check_convex_at(
    f: Fn,
    p0: Point,
    dom: DomainSampler,
    targets: int = 64,
    grid: int = 33,
    strict: bool = False,
    seed: int = 0,
    margin: float = STRICT_MARGIN,
) -> ConvexityReport:
    """Test the convexity inequality on geodesics from a fixed base point."""
    rng = np.random.default_rng(seed)
    segments = (
        (p0, dom.draw_one(rng, apart_from=p0, min_dist=1e-8 if strict else 0.0))
        for _ in range(targets)
    )
    return _worst_on_segments(f, segments, grid, strict, margin, "geodesic")


def check_cw_convex_at(
    f: IvFn,
    p0: Point,
    dom: DomainSampler,
    targets: int = 64,
    grid: int = 33,
    seed: int = 0,
) -> ConvexityReport:
    """Componentwise convexity at a point: center and width must both pass."""
    center_report = check_convex_at(f.center, p0, dom, targets, grid, seed=seed)
    if not center_report.holds():
        center_report.samples_used *= 2
        return center_report
    width_report = check_convex_at(f.width, p0, dom, targets, grid, seed=seed)
    width_report.samples_used += center_report.samples_used
    return width_report


def check_affine(
    f: Fn,
    dom: DomainSampler,
    pairs: int = 64,
    grid: int = 33,
    seed: int = 0,
    tol: float = EQ_TOL,
) -> ConvexityReport:
    """Test equality between path values and mixed endpoint values."""
    rng = np.random.default_rng(seed)
    worst = None
    used = 0
    for _ in range(pairs):
        p = dom.draw_one(rng)
        q = dom.draw_one(rng)
        vp, vq = f(p), f(q)
        used += 1
        svals = _grid_values(grid, interior=False)
        for s, lhs in zip(svals, values_along(f, p, q, svals)):
            rhs = _mix(f, vp, vq, s)
            if isinstance(lhs, Interval):
                gap = max(abs(lhs.lb - rhs.lb), abs(lhs.ub - rhs.ub))
            else:
                gap = abs(lhs - rhs)
            if gap > tol and (worst is None or gap > worst[0]):
                worst = (gap, Counterexample(p, q, s, lhs, rhs))
    return _report(worst, used)


def check_star_shaped(
    dom: DomainSampler,
    p0: Point,
    targets: int = 64,
    grid: int = 33,
    seed: int = 0,
) -> ConvexityReport:
    """Test that geodesics from p0 to sampled members stay inside the set."""
    if not dom.membership(p0):
        raise ValueError("base point is not a member of the sampled set")
    rng = np.random.default_rng(seed)
    used = 0
    for _ in range(targets):
        q = dom.draw_one(rng)
        used += 1
        svals = _grid_values(grid, interior=True)
        for s, pt in zip(svals, p0.manifold.geodesic_points(p0, q, svals)):
            if not dom.membership(pt):
                return ConvexityReport(
                    Verdict.COUNTEREXAMPLE,
                    Counterexample(p0, q, s, None, None),
                    used,
                )
    return ConvexityReport(Verdict.HOLDS, None, used)


def _deriv_violation(lhs: Interval, rhs: Interval) -> Optional[float]:
    """Violation of lhs <=min rhs at derivative precision, or None.

    Both sides carry extrapolation noise, so the center tie band and the
    width comparison use DERIV_EPS rather than exact endpoint arithmetic.
    """
    tie = DERIV_EPS * max(1.0, abs(lhs.center), abs(rhs.center))
    dc = lhs.center - rhs.center
    if dc > tie:
        return dc
    if dc >= -tie:
        wgap = lhs.halfwidth - rhs.halfwidth
        if wgap > DERIV_EPS * max(1.0, lhs.halfwidth, rhs.halfwidth):
            return wgap
    return None


def check_gradient_inequality(
    f: Fn,
    p0: Point,
    dom: DomainSampler,
    targets: int = 32,
    scheme: DerivScheme = DEFAULT_SCHEME,
    seed: int = 0,
) -> ConvexityReport:
    """Test derivative(p0 -> q) <= f(q) - f(p0) on sampled targets.

    Interval functions subtract with the gH difference and compare in the
    minimization order.  Geodesics whose width fails the monotonicity
    requirement are skipped and counted, since the decomposition backing
    the inequality is not available there.
    """
    rng = np.random.default_rng(seed)
    worst = None
    used = 0
    skipped = 0
    f_p0 = f(p0)
    for _ in range(targets):
        q = dom.draw_one(rng, apart_from=p0, min_dist=1e-8)
        x = log_map(p0, q)
        if _is_interval_fn(f):
            if not width_monotone_along(f, p0.manifold.geodesic(p0, q)):
                skipped += 1
                continue
            deriv = gh_dir_deriv(f, p0, x, scheme).value
            rhs = gh_diff(f(q), f_p0)
            used += 1
            severity = _deriv_violation(deriv, rhs)
            if severity is not None and (worst is None or severity > worst[0]):
                worst = (severity, Counterexample(p0, q, 0.0, deriv, rhs))
        else:
            deriv = dir_deriv(f, p0, x, scheme)
            rhs = f(q) - f_p0
            used += 1
            gap = deriv - rhs
            if gap > DERIV_EPS * max(1.0, abs(rhs)) and (worst is None or gap > worst[0]):
                worst = (gap, Counterexample(p0, q, 0.0, deriv, rhs))
    return _report(worst, used, skipped)


@dataclass
class LocalMinReport:
    verdict: str  # "Minimum" | "NotMinimumWitness"
    witness: Optional[dict]
    cw_convex_at: Optional[ConvexityReport]
    samples_used: int

    def holds(self) -> bool:
        return self.verdict == "Minimum"

    def to_json(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = {
                "target": self.witness["target"].to_json(),
                "derivative": _value_json(self.witness["derivative"]),
            }
        return {
            "verdict": self.verdict,
            "witness": witness,
            "cw_convex_at": self.cw_convex_at.to_json() if self.cw_convex_at else None,
            "samples_used": self.samples_used,
        }


def check_local_min(
    f: Fn,
    p0: Point,
    dom: DomainSampler,
    targets: int = 32,
    scheme: DerivScheme = DEFAULT_SCHEME,
    seed: int = 0,
) -> LocalMinReport:
    """Test the first-order minimality criterion at p0 over sampled directions.

    The criterion requires every sampled directional derivative to dominate
    zero in the minimization order; a failing direction is returned as a
    witness.  Componentwise convexity at p0 is checked alongside and
    reported, since the criterion characterizes minimality under it.
    """
    rng = np.random.default_rng(seed)
    cw_report = None
    if _is_interval_fn(f):
        cw_report = check_cw_convex_at(f, p0, dom, targets=min(targets, 16), seed=seed)
    else:
        cw_report = check_convex_at(f, p0, dom, targets=min(targets, 16), seed=seed)
    used = 0
    for _ in range(targets):
        q = dom.draw_one(rng, apart_from=p0, min_dist=1e-8)
        x = log_map(p0, q)
        used += 1
        if _is_interval_fn(f):
            deriv = gh_dir_deriv(f, p0, x, scheme)
            if deriv.center_part < -DERIV_EPS:
                return LocalMinReport(
                    "NotMinimumWitness",
                    {"target": q, "derivative": deriv.value},
                    cw_report,
                    used,
                )
        else:
            deriv = dir_deriv(f, p0, x, scheme)
            if deriv < -DERIV_EPS:
                return LocalMinReport(
                    "NotMinimumWitness",
                    {"target": q, "derivative": deriv},
                    cw_report,
                    used,
                )
    return LocalMinReport("Minimum", None, cw_report, used)
