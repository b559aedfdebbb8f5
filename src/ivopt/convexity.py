"""Sampled certifiers for geodesic convexity notions.

Every check draws pairs or targets from a domain sampler with a fixed
seed, tests the defining inequality on a parameter grid, and returns
either HoldsOnSamples or CounterexampleFound with a witness that
re-evaluates to a violation.  The verdicts of the ``check_*`` certifiers
are statements about the samples, never proofs, even where the curvature
rules (``curvature``) decide the function, as the KKT convexity hypotheses
use them; strict verdicts additionally require a fixed margin at interior
grid points.

Every check on function values runs on one segment loop,
``_worst_on_segments``: it takes each segment's path values as (lb, ub)
arrays, judges them with one array test, ``_violations``, that holds the
non-strict, strict and affine measures, and rebuilds the witness from the
winning grid index.  ``check_star_shaped`` tests membership, not values,
and keeps its own loop.

Segment values come from ``functions.path_bounds`` on the grid of
``functions.path_grid``: one array pass per segment where the manifold gives
the path's features as arrays (``path_features``) and the function is
compiled, else the path points (``path_points``) one by one.

``DomainSampler.draw_one`` is the reference rejection sampler.  Every check
draws through ``ProposalStream``, which tests a bulk proposer's proposals a
batch at a time and hands out exactly the points, and raises exactly the
errors, of ``draw_one`` called in a loop.  ``check_cw_convex_at`` and the
KKT convexity hypotheses share one componentwise check, ``_cw_convex_at``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import tee
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .calculus import dir_deriv, gh_dir_deriv, width_monotone_along
from .errors import SamplerExhaustedError
from .functions import IvFn, RealFn, path_bounds, path_grid
from .interval import Interval, compare_min_arrays, default_center_eps_arrays, gh_diff
from .interval import JsonReport, endpoints
from .manifolds import Manifold, Point, check_path, distance, log_map

STRICT_MARGIN = 1e-10
EQ_TOL = 1e-9
DERIV_EPS = 1e-7
MIN_DIST = 1e-8  # a sampled point at least this far from the base point is distinct
# consecutive rejected proposals before a draw gives up
MAX_TRIES = 1000

Fn = Union[RealFn, IvFn]
Value = Union[float, Interval]


class Proposals(NamedTuple):
    """k proposals of a bulk proposer, in the order ``sample`` draws them.

    ``point(i)`` is the point the i-th call of ``sample`` would return.
    ``member[i]`` is ``membership(point(i))`` and ``features`` holds each
    feature as one array over the proposals.  Both are None when the batch
    has no array form; its proposals are then tested point by point.
    """

    manifold: Manifold
    features: Optional[dict]
    member: Optional[np.ndarray]
    point: Callable[[int], Point]


@dataclass
class DomainSampler:
    """Membership predicate plus proposal sampler for a region of a manifold.

    ``propose(rng, k)``, when set, draws k proposals at once from the same
    generator stream as k calls of ``sample`` and returns them as
    ``Proposals``; ``ProposalStream`` uses it to test a whole batch at once.
    """

    membership: Callable[[Point], bool]
    sample: Callable[[np.random.Generator], Point]
    name: str = ""
    propose: Optional[Callable[[np.random.Generator, int], Proposals]] = None

    def draw_one(
        self,
        rng: np.random.Generator,
        apart_from: Optional[Point] = None,
        min_dist: float = 0.0,
    ) -> Point:
        for _ in range(MAX_TRIES):
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
        raise self.exhausted()

    def exhausted(self) -> SamplerExhaustedError:
        return SamplerExhaustedError(
            f"sampler {self.name or '<anonymous>'} found no admissible point "
            f"in {MAX_TRIES} proposals"
        )

    def restrict(self, extra: Callable[[Point], bool], name: str = "") -> "DomainSampler":
        base_membership = self.membership
        # no bulk proposer: extra is an opaque predicate with no array form
        return DomainSampler(
            membership=lambda p: base_membership(p) and extra(p),
            sample=self.sample,
            name=name or (self.name + "|restricted"),
            propose=None,
        )


class ProposalStream:
    """The points successive ``draw_one`` calls return, drawn in bulk.

    Proposals come k at a time from the sampler's ``propose`` and are tested
    as one batch; the accepted ones are handed out in draw order, and so are
    the rejections that ``MAX_TRIES`` bounds across batches, with ``min_dist``
    from each draw's ``apart_from`` checked by the scalar ``distance`` on each
    proposal that passed membership.  A batch without an array form replays
    its own proposals through ``membership``, so an exception is raised at
    the proposal that raises it.  Points and errors are exactly those of ``draw_one`` in a loop
    on the same generator, provided nothing else draws from it while the
    stream lives; unused proposals are dropped with the stream.  A sampler
    without ``propose`` is served by ``draw_one`` itself.  An exception ends
    the stream.
    """

    def __init__(self, sampler: DomainSampler, rng: np.random.Generator, min_dist: float = 0.0):
        self.sampler, self.rng, self.min_dist = sampler, rng, min_dist
        self._batch: Optional[Proposals] = None
        self._size = 0
        self._next = 0  # first proposal of the batch not yet examined
        self._run = 0  # consecutive rejections since the last accepted point
        self._pending: Optional[Exception] = None  # met after points were taken
        self._proposed = self._accepted = 0

    def points(self, n: int, apart_from: Optional[Point] = None) -> Iterator[Point]:
        """The next n points, in draw order, taken a batch at a time as they
        are asked for; an error met after some points is raised when the next
        point is asked for."""
        while n > 0:
            batch = self.take(n, apart_from)[0]
            n -= len(batch)
            yield from batch

    def take(self, m: int, apart_from: Optional[Point] = None):
        """(points, features): between 1 and m accepted points, in order,
        each at least ``min_dist`` from ``apart_from`` when that is given.

        ``features`` holds their features as arrays, or is None when they
        were tested point by point.  Fewer than m points come back at the
        end of a batch, or when the next point raises; the next call then
        raises that exception.
        """
        if self._pending is not None:
            raise self._pending
        sampler = self.sampler
        if sampler.propose is None:
            return [sampler.draw_one(self.rng, apart_from, self.min_dist)], None
        points, rows = [], []
        try:
            while not points:
                if self._next == self._size:
                    self._refill(m)
                self._scan(m, apart_from, points, rows)
        except Exception as exc:
            if not points:
                raise
            self._pending = exc
        self._accepted += len(points)
        batch = self._batch
        if batch.features is None:
            return points, None
        return points, {name: column[rows] for name, column in batch.features.items()}

    def _refill(self, m: int) -> None:
        # enough proposals for m acceptances at the rate seen so far (a
        # fixed 2 * m falls short where most proposals fail: 4 % fewer
        # kkt-flat tasks/s)
        rate = (self._accepted + 1) / (self._proposed + 2)
        k = min(max(int(1.25 * m / rate) + 8, 16), 4096)
        self._batch = self.sampler.propose(self.rng, k)
        self._size, self._next = k, 0
        self._proposed += k

    def _reject(self, count: int) -> None:
        self._run += count
        if self._run >= MAX_TRIES:
            raise self.sampler.exhausted()

    def _scan(self, m: int, apart_from: Optional[Point], points: list, rows: list) -> None:
        """Examine proposals of the batch in order until m points are taken."""
        batch, start = self._batch, self._next
        if batch.member is None:
            candidates = range(start, self._size)
        else:
            candidates = (np.flatnonzero(batch.member[start:]) + start).tolist()
        for i in candidates:
            self._reject(i - self._next)  # the members test rejected these
            self._next = i + 1
            q = batch.point(i)
            if (batch.member is None and not self.sampler.membership(q)) or (
                self.min_dist > 0.0
                and apart_from is not None
                and distance(apart_from, q) < self.min_dist
            ):
                self._reject(1)
                continue
            self._run = 0
            points.append(q)
            rows.append(i)
            if len(points) >= m:
                return
        self._reject(self._size - self._next)
        self._next = self._size


class Verdict(Enum):
    HOLDS = "HoldsOnSamples"
    COUNTEREXAMPLE = "CounterexampleFound"


@dataclass(frozen=True)
class Counterexample(JsonReport):
    p: Point
    q: Point
    s: float
    lhs: Optional[Value]
    rhs: Optional[Value]


@dataclass
class ConvexityReport(JsonReport):
    verdict: Verdict
    counterexample: Optional[Counterexample]
    samples_used: int
    skipped: int = 0

    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS


def _check_sizes(grid: int = 3, **counts: int) -> None:
    """Refuse, before anything is drawn, a count below 1 or a grid below 3:
    a grid of 2 tests only the path's ends, where every inequality holds."""
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    if grid < 3:
        raise ValueError("grid must contain at least three points")


def _violations(kind: str, bound: float, interval: bool, lhs: tuple, rhs: tuple):
    """(failing mask, severity) of lhs against rhs at each grid point, for the
    measure ``kind``: "convex" (lhs above rhs: reals beyond EQ_TOL * max(1,
    |rhs|), intervals in the min order with width gaps up to STRICT_MARGIN
    as ties), "strict" (lhs not below rhs by ``bound``) or "affine" (an
    endpoint gap above ``bound``).  A mask is the complement of the holding
    condition, so a NaN severity (an overflowing center) fails as it does
    in scalar code."""
    (llb, lub), (rlb, rub) = lhs, rhs
    if kind == "affine":
        gap, ugap = np.abs(llb - rlb), np.abs(lub - rub)
        gap = np.where(ugap > gap, ugap, gap)
        return gap > bound, gap
    if not interval:
        if kind == "strict":
            gap = rlb - llb
            return ~(gap > bound), bound - gap
        gap = llb - rlb
        return gap > EQ_TOL * np.maximum(1.0, np.abs(rlb)), gap
    lc, rc = 0.5 * (llb + lub), 0.5 * (rlb + rub)
    lw, rw = 0.5 * (lub - llb), 0.5 * (rub - rlb)
    eps = default_center_eps_arrays(lc, rc)
    if kind == "strict":
        tie = np.maximum(bound, eps)
        dc, dw = rc - lc, rw - lw
        holds = (dc > tie) | ((np.abs(dc) <= tie) & (dw > bound))
        return ~holds, bound - np.where(dw < dc, dw, dc)
    greater = compare_min_arrays(lc, lw, rc, rw, eps)[1]
    dc, dw = lc - rc, lw - rw
    by_center = np.abs(dc) > eps
    return greater & (by_center | (dw > STRICT_MARGIN)), np.where(by_center, dc, dw)


def _replacing(worst, fail: np.ndarray, severity: np.ndarray) -> Optional[int]:
    """The failing grid index that a scan in grid order makes the witness, or
    None: with no witness yet the first failure is taken, and a later one
    replaces it only if strictly more severe, so a NaN severity never
    replaces a witness and is never replaced."""
    idx = np.flatnonzero(fail)
    if idx.size == 0:
        return None
    sev = severity[idx]
    nan = np.isnan(sev)
    top = int(np.argmax(np.where(nan, -np.inf, sev)))
    if worst is None:
        return int(idx[0] if nan[0] else idx[top])
    return int(idx[top]) if sev[top] > worst[0] else None


def _report(worst, used: int, skipped: int = 0) -> ConvexityReport:
    """Report the worst (severity, counterexample) found, if any."""
    if worst is None:
        return ConvexityReport(Verdict.HOLDS, None, used, skipped)
    return ConvexityReport(Verdict.COUNTEREXAMPLE, worst[1], used, skipped)


def _worst_on_segments(f: Fn, segments, grid: int, kind: str = "convex",
                       bound: float = STRICT_MARGIN, path: str = "geodesic") -> ConvexityReport:
    """Worst violation of the measure ``kind`` (see ``_violations``) over
    (p, q) segments, drawn lazily in order; "strict" skips the grid's ends.
    Segments in a row that share their base point evaluate f there once."""
    interval = isinstance(f, IvFn)
    worst, used, base, svals = None, 0, None, None
    for p, q in segments:
        used += 1
        if base is None or base[0] is not p:
            base = (p, f(p))
        vp, vq = base[1], f(q)
        if svals is None:
            svals = path_grid(grid, interior=kind == "strict")
            s = np.array(svals)
        lhs = path_bounds(f, p, q, svals, path)
        (plb, pub), (qlb, qub) = endpoints(vp), endpoints(vq)
        with np.errstate(all="ignore"):
            rlb = (1.0 - s) * plb + s * qlb
            rhs = (rlb, (1.0 - s) * pub + s * qub) if interval else (rlb, rlb)
            fail, severity = _violations(kind, bound, interval, lhs, rhs)
        j = _replacing(worst, fail, severity)
        if j is not None:
            if interval:
                lhs_j, rhs_j = Interval(lhs[0][j], lhs[1][j]), Interval(rhs[0][j], rhs[1][j])
            else:
                lhs_j, rhs_j = float(lhs[0][j]), float(rhs[0][j])
            worst = (float(severity[j]), Counterexample(p, q, svals[j], lhs_j, rhs_j))
    return _report(worst, used)


def _drawn_pairs(dom: DomainSampler, pairs: int, seed: int, min_dist: float):
    """``pairs`` sampled (p, q) pairs, q at least ``min_dist`` from p."""
    stream = ProposalStream(dom, np.random.default_rng(seed), min_dist)
    for _ in range(pairs):
        p, = stream.points(1)
        q, = stream.points(1, apart_from=p)
        yield p, q


def check_convex(
    f: Fn,
    dom: DomainSampler,
    pairs: int = 64,
    grid: int = 33,
    strict: bool = False,
    seed: int = 0,
    path: str = "geodesic",
) -> ConvexityReport:
    """Test the convexity inequality on sampled pairs joined by geodesics.

    ``path="chord"`` replaces the geodesic with straight-line mixing in
    ambient coordinates, which probes ordinary convexity instead.
    """
    check_path(path)
    _check_sizes(grid, pairs=pairs)
    segments = _drawn_pairs(dom, pairs, seed, MIN_DIST if strict else 0.0)
    return _worst_on_segments(f, segments, grid, "strict" if strict else "convex", path=path)


def check_convex_at(
    f: Fn,
    p0: Point,
    dom: DomainSampler,
    targets: int = 64,
    grid: int = 33,
    strict: bool = False,
    seed: int = 0,
) -> ConvexityReport:
    """Test the convexity inequality on geodesics from a fixed base point."""
    _check_sizes(grid, targets=targets)
    stream = ProposalStream(dom, np.random.default_rng(seed), MIN_DIST if strict else 0.0)
    segments = ((p0, q) for q in stream.points(targets, apart_from=p0))
    return _worst_on_segments(f, segments, grid, "strict" if strict else "convex")


def _cw_convex_at(fns: Sequence[Fn], p0: Point, dom: DomainSampler, targets: int,
                  grid: int, seed: int) -> list:
    """Componentwise convexity of each function at p0, as a report each.

    Non-strict convexity on the geodesics from p0 to the targets
    ``check_convex_at`` draws with this seed, drawn once, on first use, and
    replayed for every function; an interval function's width is checked
    only where its center holds.
    """
    stream = ProposalStream(dom, np.random.default_rng(seed))
    passes = iter(tee(stream.points(targets), 2 * len(fns)))

    def convex(fn: RealFn) -> ConvexityReport:
        return _worst_on_segments(fn, ((p0, q) for q in next(passes)), grid)

    reports = []
    for f in fns:
        if not isinstance(f, IvFn):
            reports.append(convex(f))
            continue
        report = convex(f.center)
        reports.append(convex(f.width) if report.holds() else report)
    return reports


def check_cw_convex_at(
    f: IvFn,
    p0: Point,
    dom: DomainSampler,
    targets: int = 64,
    grid: int = 33,
    seed: int = 0,
) -> ConvexityReport:
    """Componentwise convexity at a point: center and width must both pass.

    Both run on the targets ``check_convex_at`` draws with this seed, drawn
    once; ``samples_used`` counts them once per component.
    """
    _check_sizes(grid, targets=targets)
    report, = _cw_convex_at([f], p0, dom, targets, grid, seed)
    report.samples_used *= 2
    return report


def check_affine(
    f: Fn,
    dom: DomainSampler,
    pairs: int = 64,
    grid: int = 33,
    seed: int = 0,
) -> ConvexityReport:
    """Test equality between path values and mixed endpoint values."""
    _check_sizes(grid, pairs=pairs)
    return _worst_on_segments(f, _drawn_pairs(dom, pairs, seed, 0.0), grid, "affine", EQ_TOL)


def check_star_shaped(
    dom: DomainSampler,
    p0: Point,
    targets: int = 64,
    grid: int = 33,
    seed: int = 0,
) -> ConvexityReport:
    """Test that geodesics from p0 to sampled members stay inside the set."""
    _check_sizes(grid, targets=targets)
    if not dom.membership(p0):
        raise ValueError("base point is not a member of the sampled set")
    svals = path_grid(grid, interior=True)
    stream = ProposalStream(dom, np.random.default_rng(seed))
    for used, q in enumerate(stream.points(targets), 1):
        for s, pt in zip(svals, p0.manifold.path_points(p0, q, svals)):
            if not dom.membership(pt):
                return ConvexityReport(
                    Verdict.COUNTEREXAMPLE,
                    Counterexample(p0, q, s, None, None),
                    used,
                )
    return ConvexityReport(Verdict.HOLDS, None, targets)


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
    seed: int = 0,
) -> ConvexityReport:
    """Test derivative(p0 -> q) <= f(q) - f(p0) on sampled targets.

    Interval functions subtract with the gH difference and compare in the
    minimization order.  Geodesics whose width fails the monotonicity
    requirement are skipped and counted, since the decomposition backing
    the inequality is not available there.
    """
    _check_sizes(targets=targets)
    worst, used, skipped = None, 0, 0
    f_p0 = f(p0)
    stream = ProposalStream(dom, np.random.default_rng(seed), MIN_DIST)
    for q in stream.points(targets, apart_from=p0):
        x = log_map(p0, q)
        if isinstance(f, IvFn):
            if not width_monotone_along(f, p0, q):
                skipped += 1
                continue
            deriv = gh_dir_deriv(f, p0, x).value
            rhs = gh_diff(f(q), f_p0)
            severity = _deriv_violation(deriv, rhs)
        else:
            deriv = dir_deriv(f, p0, x)
            rhs = f(q) - f_p0
            gap = deriv - rhs
            severity = gap if gap > DERIV_EPS * max(1.0, abs(rhs)) else None
        used += 1
        if severity is not None and (worst is None or severity > worst[0]):
            worst = (severity, Counterexample(p0, q, 0.0, deriv, rhs))
    return _report(worst, used, skipped)


@dataclass
class LocalMinReport(JsonReport):
    verdict: str  # "Minimum" | "NotMinimumWitness"
    witness: Optional[dict]
    cw_convex_at: Optional[ConvexityReport]
    samples_used: int

    def holds(self) -> bool:
        return self.verdict == "Minimum"


def check_local_min(
    f: Fn,
    p0: Point,
    dom: DomainSampler,
    targets: int = 32,
    seed: int = 0,
) -> LocalMinReport:
    """Test the first-order minimality criterion at p0 over sampled directions.

    The criterion requires every sampled directional derivative to dominate
    zero in the minimization order; a failing direction is returned as a
    witness.  Componentwise convexity at p0 is checked alongside and
    reported, since the criterion characterizes minimality under it.
    """
    _check_sizes(targets=targets)
    check_at = check_cw_convex_at if isinstance(f, IvFn) else check_convex_at
    cw_report = check_at(f, p0, dom, targets=min(targets, 16), seed=seed)
    stream = ProposalStream(dom, np.random.default_rng(seed), MIN_DIST)
    for used, q in enumerate(stream.points(targets, apart_from=p0), 1):
        x = log_map(p0, q)
        if isinstance(f, IvFn):
            deriv = gh_dir_deriv(f, p0, x)
            slope, value = deriv.center_part, deriv.value
        else:
            slope = value = dir_deriv(f, p0, x)
        if slope < -DERIV_EPS:
            witness = {"target": q, "derivative": value}
            return LocalMinReport("NotMinimumWitness", witness, cw_report, used)
    return LocalMinReport("Minimum", None, cw_report, targets)
