"""Sufficient-condition optimality certificates for constrained problems.

Three problem classes are supported, inferred from the value kinds:

* P2 -- real objective, real constraints;
* P3 -- interval objective, real constraints;
* P4 -- interval objective, interval constraints.

All verifiers run one pipeline, in this order:

1. precheck -- multiplier count and signs, feasibility, and complementary
   slackness against the active set;
2. convexity hypotheses at the candidate (reported, never gating);
3. width gate -- every interval-valued function among the objective and
   the active constraints must have a non-decreasing width along the
   sampled geodesics;
4. per-direction residual -- the stationarity sum along each sampled
   tangent direction, real or interval as the value kinds dictate;
5. strictness -- pairwise distinct tested values on sampled feasible
   points upgrade Optimal to StrictOptimal.

The split forms (P3 split, P4) test the center or the width of the
objective; the same feasible points decide that choice and strictness.
Verdicts are Optimal, StrictOptimal, or Inconclusive and are always
relative to the recorded samples; the conditions are sufficient only, so
no verdict ever asserts non-optimality.

Feasible points (directions, strictness points, hypothesis targets and
brute-force candidates) come from a ``ProposalStream`` over
``Problem.feasible_sampler()``: proposals are drawn in bulk and a batch is
tested with one compiled pass per constraint (``feasible_mask``), and
``brute_force_improvement`` compares the objective on a batch's accepted
points in one pass too.  An opaque or deferring function sends its batch
point by point, so the points and errors are those of ``draw_one`` in a loop.

find_multipliers searches the multipliers with one small linear program
over the sampled directions.  linprog solves it exactly without scipy, by a
two-phase simplex with Bland's rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from .calculus import (
    DEFAULT_SCHEME,
    DerivScheme,
    dir_deriv,
    gh_dir_deriv,
    width_monotone_along,
)
from .convexity import (
    DomainSampler,
    Proposals,
    ProposalStream,
    _worst_on_segments,
)
from .errors import ConfigError, InfeasibleCandidateError, ModeMismatchError, NotConvergedError
from .functions import IvFn, RealFn, bounds_on
from .interval import (
    ZERO,
    Interval,
    OrderOutcome,
    OrderRelation,
    combine,
    compare,
    compare_min_arrays,
    hausdorff,
    leq_min,
)
from .manifolds import Manifold, Point, TangentDirection, exp_map, log_map, distance

Fn = Union[RealFn, IvFn]

RESID_TOL = 1e-9
ACTIVE_TOL = 1e-8
FEAS_TOL = 1e-9
SLACK_TOL = 1e-12
DISTINCT_TOL = 1e-12
CONST_TOL = 1e-9
STRICT_SAMPLES = 32
HYPOTHESIS_TARGETS = 16
HYPOTHESIS_GRID = 17
LP_FEAS_TOL = 1e-9  # row slack per unit of the row's term sizes
LP_PIVOT_TOL = 1e-11  # smallest reduced cost and pivot the simplex acts on


@dataclass(frozen=True, eq=False)
class Problem:
    manifold: Manifold
    objective: Fn
    constraints: tuple
    domain: DomainSampler
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.objective.manifold != self.manifold:
            raise ConfigError("objective lives on a different manifold")
        for g in self.constraints:
            if g.manifold != self.manifold:
                raise ConfigError("constraint lives on a different manifold")
        self.label  # validate the kind combination eagerly

    @property
    def label(self) -> str:
        obj_iv = isinstance(self.objective, IvFn)
        kinds = {isinstance(g, IvFn) for g in self.constraints}
        if not obj_iv:
            if True in kinds:
                raise ConfigError(
                    "real objective with interval constraints is not a supported class"
                )
            return "P2"
        if True not in kinds:
            return "P3"
        if False in kinds:
            raise ConfigError("constraints mix real and interval kinds")
        return "P4"

    def constraint_label(self, i: int) -> str:
        return f"g{i + 1}"

    def is_feasible(self, p: Point) -> bool:
        return not self.feasibility_violations(p)

    def feasibility_violations(self, p: Point) -> list:
        out = []
        for i, g in enumerate(self.constraints):
            value = g(p)
            if isinstance(value, Interval):
                if not leq_min(value, ZERO):
                    out.append((i, value))
            elif value > FEAS_TOL:
                out.append((i, value))
        return out

    def feasible_sampler(self) -> DomainSampler:
        """The domain sampler restricted to feasible points.

        With a bulk proposer on the domain, a batch's membership mask is the
        domain's ANDed with ``feasible_mask``; a batch that has no mask goes
        point by point through ``membership``.
        """
        domain = self.domain
        propose = None
        if domain.propose is not None:

            def propose(rng: np.random.Generator, k: int) -> Proposals:
                batch = domain.propose(rng, k)
                member = None if batch.member is None else self.feasible_mask(batch)
                if member is None:
                    return batch._replace(features=None, member=None)
                return batch._replace(member=member)

        return DomainSampler(
            membership=lambda p: domain.membership(p) and self.is_feasible(p),
            sample=domain.sample,
            name=(self.name or "problem") + "|feasible",
            propose=propose,
        )

    def feasible_mask(self, batch: Proposals) -> Optional[np.ndarray]:
        """``is_feasible`` on each domain member of a batch, False elsewhere.

        One compiled pass per constraint over the members' features: a real
        constraint holds where its value is not above FEAS_TOL, an interval
        one where ``leq_min(value, ZERO)`` holds with the default center
        tolerance.  None when some constraint has no array form there
        (``bounds_on``), so that the batch goes point by point.
        """
        member = batch.member
        if not (self.constraints and member.any()):
            return member
        features = batch.features
        if not member.all():
            features = {name: column[member] for name, column in features.items()}
        ok = True
        for g in self.constraints:
            bounds = bounds_on(g, batch.manifold, features)
            if bounds is None:
                return None
            lb, ub = bounds
            if isinstance(g, IvFn):
                _, greater = compare_min_arrays(0.5 * (lb + ub), 0.5 * (ub - lb), 0.0, 0.0)
                ok = ok & ~greater
            else:
                ok = ok & ~(lb > FEAS_TOL)
        out = member.copy()
        out[member] = ok
        return out


def active_set(prob: Problem, p0: Point, tol: float = ACTIVE_TOL) -> tuple:
    """Indices of constraints binding at p0 (0-based; reports label them g1..)."""
    bad = prob.feasibility_violations(p0)
    if bad:
        detail = ", ".join(
            f"{prob.constraint_label(i)}={v}" for i, v in bad
        )
        raise InfeasibleCandidateError(f"candidate violates: {detail}")
    out = []
    for i, g in enumerate(prob.constraints):
        value = g(p0)
        if isinstance(value, Interval):
            if hausdorff(value, ZERO) <= tol:
                out.append(i)
        elif abs(value) <= tol:
            out.append(i)
    return tuple(out)


def direction_samples(
    prob: Problem,
    p0: Point,
    n: int,
    seed: int = 0,
    min_dist: float = 1e-8,
) -> List[TangentDirection]:
    """Tangent directions from p0 toward n sampled distinct feasible points."""
    stream = ProposalStream(prob.feasible_sampler(), np.random.default_rng(seed), min_dist)
    out = []
    while len(out) < n:
        out += [log_map(p0, q) for q in stream.take(n - len(out), apart_from=p0)[0]]
    return out


def _center_fn(f: Fn) -> RealFn:
    return f.center if isinstance(f, IvFn) else f


class LpResult(NamedTuple):
    x: Optional[np.ndarray]
    success: bool


def _feasible_row(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> bool:
    """Whether x is finite, nonnegative and satisfies A x <= b.

    Row k may exceed b_k by LP_FEAS_TOL times the size of its terms,
    |b_k| + sum_j |A_kj x_j|: the rounding a solve leaves in a tight row.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        terms = np.abs(A * x).sum(axis=1) + np.abs(b)
        ok = (A @ x - b <= LP_FEAS_TOL * terms).all()
    return bool(ok and np.isfinite(x).all() and (x >= 0.0).all())


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def _bland(T: np.ndarray, basis: np.ndarray, cost: np.ndarray, allowed: int) -> bool:
    """Pivot T to an optimal basis for cost with Bland's rule; False if unbounded.

    The entering column is the lowest-indexed one (below allowed) with a
    negative reduced cost, the leaving row the one with the lowest basic
    index among the smallest ratios.  Bland's rule never revisits a basis,
    so a repeat can only come from rounding and raises.
    """
    seen = set()
    while True:
        key = tuple(sorted(basis))
        if key in seen:
            raise NotConvergedError("multiplier LP: simplex pivots revisited a basis")
        seen.add(key)
        reduced = cost[:allowed] - cost[basis] @ T[:, :allowed]
        entering = np.flatnonzero(reduced < -LP_PIVOT_TOL)
        if not len(entering):
            return True
        col = entering[0]
        rows = np.flatnonzero(T[:, col] > LP_PIVOT_TOL)
        if not len(rows):
            return False
        ratios = T[rows, -1] / T[rows, col]
        ties = rows[ratios <= ratios.min() + LP_PIVOT_TOL * (1.0 + abs(ratios.min()))]
        _pivot(T, basis, ties[np.argmin(basis[ties])], col)


def linprog(c, A_ub, b_ub) -> LpResult:
    """Exact small LP: min c.x subject to A_ub x <= b_ub and x >= 0.

    A dense two-phase tableau simplex with Bland's rule.  Columns are x,
    then one slack per row, then one artificial per row with b_k < 0 (that
    row is negated so its right-hand side is nonnegative).  Phase 1
    minimises the artificials; phase 2 never lets them enter.  The answer
    must pass _feasible_row.  ``success`` is False exactly when no feasible
    x is found (or the LP is unbounded), and then ``x`` is None.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    m, n = A.shape
    sign = np.where(b < 0.0, -1.0, 1.0)
    art = np.flatnonzero(b < 0.0)
    width = n + m + len(art)
    T = np.zeros((m, width + 1))
    T[:, :n] = A * sign[:, None]
    T[:, n:n + m] = np.diag(sign)
    T[art, n + m + np.arange(len(art))] = 1.0
    T[:, -1] = b * sign
    basis = np.arange(n, n + m)
    basis[art] = n + m + np.arange(len(art))
    if len(art):
        _bland(T, basis, np.repeat([0.0, 1.0], [n + m, len(art)]), width)
        if T[basis >= n + m, -1].sum() > LP_FEAS_TOL * (1.0 + np.abs(b).sum()):
            return LpResult(None, False)
        for row in np.flatnonzero(basis >= n + m):
            cols = np.flatnonzero(np.abs(T[row, :n + m]) > LP_PIVOT_TOL)
            if len(cols):
                _pivot(T, basis, row, cols[0])
    if not _bland(T, basis, np.concatenate([c, np.zeros(m + len(art))]), n + m):
        return LpResult(None, False)
    x = np.zeros(width)
    x[basis] = T[:, -1]
    x = np.maximum(x[:n], 0.0)
    ok = _feasible_row(A, b, x)
    return LpResult(x if ok else None, ok)


def _solve_multiplier_lp(df: np.ndarray, dg: np.ndarray) -> Optional[np.ndarray]:
    """Smallest nonnegative mu with df_k + sum_j mu_j dg_kj >= -RESID_TOL for all k.

    df has one entry per direction; dg has one column per free multiplier.
    Returns None when the system is infeasible over the sampled directions,
    and raises ValueError on a non-finite df or dg.
    """
    df = np.asarray(df, dtype=float)
    dg = np.asarray(dg, dtype=float)
    for name, value in (("df", df), ("dg", dg)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f"multiplier LP: {name} must not contain inf or nan")
    n_free = dg.shape[1] if dg.ndim == 2 else 0
    if n_free == 0:
        return np.zeros(0) if np.all(df >= -RESID_TOL) else None
    res = linprog(c=np.ones(n_free), A_ub=-dg, b_ub=df + RESID_TOL)
    return res.x if res.success else None


def find_multipliers(
    prob: Problem,
    p0: Point,
    J: Sequence[int],
    directions: Sequence[TangentDirection],
    scheme: DerivScheme = DEFAULT_SCHEME,
) -> Optional[tuple]:
    """Feasible multipliers over the sampled directions, or None.

    The free multipliers are the smallest-sum solution of one linear program
    (_solve_multiplier_lp).  Only the center parts enter it; the width
    tie-break of the minimization order is re-checked by the verifiers.
    Multipliers off the active set are fixed at zero.
    """
    J = tuple(J)
    obj_c = _center_fn(prob.objective)
    df = np.array([dir_deriv(obj_c, p0, x, scheme) for x in directions])
    dg = np.zeros((len(directions), len(J)))
    for j, i in enumerate(J):
        g_c = _center_fn(prob.constraints[i])
        for k, x in enumerate(directions):
            dg[k, j] = dir_deriv(g_c, p0, x, scheme)
    free = _solve_multiplier_lp(df, dg)
    if free is None:
        return None
    mu = [0.0] * len(prob.constraints)
    for j, i in enumerate(J):
        mu[i] = float(free[j])
    return tuple(mu)


class KktVerdict(Enum):
    OPTIMAL = "Optimal"
    STRICT_OPTIMAL = "StrictOptimal"
    INCONCLUSIVE = "Inconclusive"


class SplitMode(Enum):
    CENTER_NONCONSTANT = "CenterNonConstant"
    CENTER_CONSTANT = "CenterConstant"


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    holds: bool
    gating: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "gating": self.gating,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class DirectionResidual:
    index: int
    direction: TangentDirection
    residual: Union[float, Interval]
    ok: bool

    def to_json(self) -> dict:
        value = self.residual
        return {
            "index": self.index,
            "direction": np.asarray(self.direction.value).tolist(),
            "residual": value.to_json() if isinstance(value, Interval) else value,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class KktCertificate:
    problem_name: str
    label: str
    candidate: Point
    active_set: tuple
    multipliers: tuple
    residuals: tuple
    hypothesis_report: tuple
    verdict: KktVerdict
    reason: str
    value: Union[float, Interval]
    n_directions: int
    seed: int

    @property
    def active_labels(self) -> tuple:
        return tuple(f"g{i + 1}" for i in self.active_set)

    def positive(self) -> bool:
        return self.verdict in (KktVerdict.OPTIMAL, KktVerdict.STRICT_OPTIMAL)

    def to_json(self) -> dict:
        value = self.value
        return {
            "problem": self.problem_name,
            "label": self.label,
            "candidate": self.candidate.to_json(),
            "active_set": list(self.active_labels),
            "active_indices": list(self.active_set),
            "multipliers": list(self.multipliers),
            "residuals": [r.to_json() for r in self.residuals],
            "hypothesis_report": [h.to_json() for h in self.hypothesis_report],
            "verdict": self.verdict.value,
            "reason": self.reason,
            "value": value.to_json() if isinstance(value, Interval) else value,
            "n_directions": self.n_directions,
            "seed": self.seed,
        }


def _precheck(prob: Problem, p0: Point, mu: Sequence[float], tol: float):
    """Validate multipliers, feasibility, and structural slackness."""
    if len(mu) != len(prob.constraints):
        raise ConfigError(
            f"expected {len(prob.constraints)} multipliers, got {len(mu)}"
        )
    if any(m < 0.0 for m in mu):
        raise ConfigError("multipliers must be nonnegative")
    J = active_set(prob, p0, tol)
    for i, m in enumerate(mu):
        if m > SLACK_TOL and i not in J:
            reason = (
                f"complementary slackness fails: multiplier for "
                f"{prob.constraint_label(i)} is {m} but the constraint is inactive"
            )
            return J, reason
    return J, None


def _feasible_points(prob: Problem, p0: Point, n: int, seed: int) -> list:
    return ProposalStream(prob.feasible_sampler(), np.random.default_rng(seed)).points(n)


def _pairwise_distinct(values) -> bool:
    """True when every pair of values differs by more than DISTINCT_TOL."""
    for a_idx in range(len(values)):
        for b_idx in range(a_idx + 1, len(values)):
            a, b = values[a_idx], values[b_idx]
            gap = hausdorff(a, b) if isinstance(a, Interval) else abs(a - b)
            if gap <= DISTINCT_TOL:
                return False
    return True


def _convexity_hypotheses(
    prob: Problem, p0: Point, labelled: list, seed: int
) -> List[HypothesisCheck]:
    """Convexity-at-candidate checks for the objective and active constraints.

    Interval-valued functions are checked componentwise: the width only
    when the center holds, as ``check_cw_convex_at`` does.  Every check
    runs on the same segments from p0, to the targets ``check_convex_at``
    draws with this seed; they are drawn once, on first use.  These are
    reported but do not gate the verdict: the worked scenarios require
    positive verdicts even where a sampled convexity check fails, so
    failures surface as warnings in the certificate instead.
    """
    stream = ProposalStream(prob.feasible_sampler(), np.random.default_rng(seed))
    targets = []

    def convex_at(fn: RealFn):
        def segments():
            for k in range(HYPOTHESIS_TARGETS):
                if k == len(targets):
                    targets.extend(stream.take(HYPOTHESIS_TARGETS - k)[0])
                yield p0, targets[k]

        return _worst_on_segments(fn, segments(), HYPOTHESIS_GRID)

    checks = []
    for fn, label in labelled:
        if isinstance(fn, IvFn):
            report = convex_at(fn.center)
            if report.holds():
                report = convex_at(fn.width)
            if label == "objective":
                label = "objective (componentwise)"
        else:
            report = convex_at(fn)
        detail = ""
        if not report.holds() and report.counterexample is not None:
            detail = f"violated at s={report.counterexample.s:.6g}"
        checks.append(
            HypothesisCheck(f"{label} convex at candidate", report.holds(), False, detail)
        )
    return checks


def _split_component(prob: Problem, points: list, mode: Optional[SplitMode]) -> SplitMode:
    """The split mode the sampled centers allow.

    A given mode is returned when the centers agree with it, else
    ModeMismatchError is raised; None picks the mode they imply.
    """
    centers = [prob.objective.center(q) for q in points]
    spread = max(centers) - min(centers) if centers else 0.0
    constant = spread <= CONST_TOL
    if mode is None:
        return SplitMode.CENTER_CONSTANT if constant else SplitMode.CENTER_NONCONSTANT
    if mode is SplitMode.CENTER_CONSTANT and not constant:
        raise ModeMismatchError(
            f"center varies by {spread:.3e} on sampled feasible points; "
            "use CenterNonConstant"
        )
    if mode is SplitMode.CENTER_NONCONSTANT and constant:
        raise ModeMismatchError(
            "center is constant on sampled feasible points; use CenterConstant"
        )
    return mode


def _verify(
    prob: Problem,
    p0: Point,
    mu: Sequence[float],
    directions: Sequence[TangentDirection],
    scheme: DerivScheme,
    tol: float,
    seed: int,
    split: bool = False,
    mode: Optional[SplitMode] = None,
) -> KktCertificate:
    """The stationarity pipeline shared by every verifier.

    Stages: precheck, convexity hypotheses, width gate, per-direction
    residual, strictness.  Unsplit checks test the objective; split checks
    test the center or width component the mode selects.  The residual is
    an interval when an interval-valued function enters it, a float
    otherwise.  Strictness points are drawn once and, on the split path,
    also decide the mode.
    """
    def certificate(residuals, hyp, verdict, reason):
        return KktCertificate(
            problem_name=prob.name,
            label=prob.label,
            candidate=p0,
            active_set=J,
            multipliers=tuple(float(m) for m in mu),
            residuals=tuple(residuals),
            hypothesis_report=tuple(hyp),
            verdict=verdict,
            reason=reason,
            value=prob.objective(p0),
            n_directions=len(directions),
            seed=seed,
        )

    def gate(label, where, k, residuals):
        check = HypothesisCheck(
            f"{label} width non-decreasing {where}", False, True, f"fails along direction {k}"
        )
        return certificate(
            residuals, hyp + [check], KktVerdict.INCONCLUSIVE, check.name + ": " + check.detail
        )

    J, slack_reason = _precheck(prob, p0, mu, tol)
    if slack_reason is not None:
        return certificate([], [], KktVerdict.INCONCLUSIVE, slack_reason)
    tested, what, of, points = prob.objective, "objective", "", None
    if split:
        points = _feasible_points(prob, p0, STRICT_SAMPLES, seed)
        if _split_component(prob, points, mode) is SplitMode.CENTER_NONCONSTANT:
            tested, what = prob.objective.center, "center"
        else:
            tested, what = prob.objective.width, "width"
        of = f" of the {what}"
    labelled = [(prob.objective, "objective")]
    labelled += [(prob.constraints[i], prob.constraint_label(i)) for i in J]
    hyp = _convexity_hypotheses(prob, p0, labelled, seed)

    for fn, label in labelled:
        if isinstance(fn, IvFn):
            for k, x in enumerate(directions):
                if not width_monotone_along(fn, p0.manifold.geodesic(p0, exp_map(p0, x))):
                    return gate(label, "along sampled geodesics", k, [])

    terms = [(tested, 1.0, "objective")]
    terms += [(prob.constraints[i], mu[i], prob.constraint_label(i)) for i in J if mu[i] != 0.0]
    interval_sum = any(isinstance(fn, IvFn) for fn in (tested,) + prob.constraints)
    residuals = []
    for k, x in enumerate(directions):
        total = None
        for fn, weight, label in terms:
            if isinstance(fn, IvFn):
                deriv = gh_dir_deriv(fn, p0, x, scheme)
                if not deriv.monotone_width_ok:
                    return gate(label, "on the step ladder", k, residuals)
                d = deriv.value
            else:
                d = dir_deriv(fn, p0, x, scheme)
            if interval_sum and not isinstance(d, Interval):
                d = Interval.point(d)
            if total is None:
                total = d
            elif interval_sum:
                total = combine(1.0, total, weight, d)
            else:
                total += weight * d
        ok = leq_min(ZERO, total) if interval_sum else total >= -RESID_TOL
        residuals.append(DirectionResidual(k, x, total, ok))
    bad = next((r for r in residuals if not r.ok), None)
    if bad is not None:
        reason = f"stationarity{of} fails along direction {bad.index}"
        if not split:
            shown = bad.residual if interval_sum else f"{bad.residual:.3e}"
            reason += f" (residual {shown})"
        return certificate(residuals, hyp, KktVerdict.INCONCLUSIVE, reason)

    if points is None:
        points = _feasible_points(prob, p0, STRICT_SAMPLES, seed)
    reason = f"stationarity{of} holds on all sampled directions; {what} values"
    if _pairwise_distinct([tested(q) for q in points]):
        verdict = KktVerdict.STRICT_OPTIMAL
        reason += " pairwise distinct on sampled feasible points"
    else:
        verdict = KktVerdict.OPTIMAL
        reason += " repeat on sampled feasible points, so strictness is not claimed"
    return certificate(residuals, hyp, verdict, reason)


def verify_p2(
    prob: Problem,
    p0: Point,
    mu: Sequence[float],
    directions: Sequence[TangentDirection],
    scheme: DerivScheme = DEFAULT_SCHEME,
    tol: float = ACTIVE_TOL,
    seed: int = 0,
) -> KktCertificate:
    """Real objective, real constraints: stationarity over sampled directions."""
    if prob.label != "P2":
        raise ConfigError(f"verify_p2 expects a P2 problem, got {prob.label}")
    return _verify(prob, p0, mu, directions, scheme, tol, seed)


def verify_p3(
    prob: Problem,
    p0: Point,
    mu: Sequence[float],
    directions: Sequence[TangentDirection],
    scheme: DerivScheme = DEFAULT_SCHEME,
    tol: float = ACTIVE_TOL,
    seed: int = 0,
) -> KktCertificate:
    """Interval objective, real constraints.

    The stationarity sum is the interval directional derivative of the
    objective with the real constraint derivatives folded in as degenerate
    intervals; it must dominate [0,0] in the minimization order.  A width
    that decreases along any sampled geodesic invalidates the center/width
    decomposition behind the condition, so it forces Inconclusive.
    """
    if prob.label != "P3":
        raise ConfigError(f"verify_p3 expects a P3 problem, got {prob.label}")
    return _verify(prob, p0, mu, directions, scheme, tol, seed)


def verify_p3_split(
    prob: Problem,
    p0: Point,
    mu: Sequence[float],
    directions: Sequence[TangentDirection],
    scheme: DerivScheme = DEFAULT_SCHEME,
    mode: SplitMode = SplitMode.CENTER_NONCONSTANT,
    tol: float = ACTIVE_TOL,
    seed: int = 0,
) -> KktCertificate:
    """Split form of the P3 check: test one component as a real condition.

    CenterNonConstant tests the center function and can certify strict
    optimality through it; CenterConstant (center flat on samples) tests
    the width function instead.  The mode must match the sampled behaviour
    of the center, otherwise ModeMismatchError is raised.
    """
    if prob.label != "P3":
        raise ConfigError(f"verify_p3_split expects a P3 problem, got {prob.label}")
    return _verify(prob, p0, mu, directions, scheme, tol, seed, split=True, mode=mode)


def verify_p4(
    prob: Problem,
    p0: Point,
    mu: Sequence[float],
    directions: Sequence[TangentDirection],
    scheme: DerivScheme = DEFAULT_SCHEME,
    mode: SplitMode = SplitMode.CENTER_NONCONSTANT,
    tol: float = ACTIVE_TOL,
    seed: int = 0,
) -> KktCertificate:
    """Interval objective and constraints.

    The tested component of the objective enters as a degenerate interval
    and the active constraints contribute interval directional derivatives
    scaled by their multipliers; the sum must dominate [0,0] in the
    minimization order.  Constraint widths must be non-decreasing along
    the sampled geodesics, else the verdict is Inconclusive.
    """
    if prob.label != "P4":
        raise ConfigError(f"verify_p4 expects a P4 problem, got {prob.label}")
    return _verify(prob, p0, mu, directions, scheme, tol, seed, split=True, mode=mode)


def reduce_p4(prob: Problem, pfix: Optional[Point] = None) -> Problem:
    """Rewrite interval constraints as real ones, pointwise by center size.

    At each evaluation point, a constraint whose center is away from zero
    contributes its center function; one whose center vanishes contributes
    its width function.  Requiring width <= 0 with nonnegative widths
    forces the width to zero there, which is the intended equality reading.
    Passing pfix freezes the center/width choice at that single point
    instead of re-deciding per evaluation.
    """
    if prob.label != "P4":
        raise ConfigError(f"reduce_p4 expects a P4 problem, got {prob.label}")
    reduced = []
    for g in prob.constraints:
        if pfix is not None:
            chosen = g.center if abs(g.center(pfix)) > ACTIVE_TOL else g.width
            reduced.append(
                RealFn(prob.manifold, chosen.fn, name=f"reduced[{g.name}]")
            )
        else:
            def fn(p: Point, g=g) -> float:
                c = g.center(p)
                return c if abs(c) > ACTIVE_TOL else g.width(p)

            reduced.append(RealFn(prob.manifold, fn, name=f"reduced[{g.name}]"))
    return Problem(
        manifold=prob.manifold,
        objective=prob.objective,
        constraints=tuple(reduced),
        domain=prob.domain,
        name=(prob.name or "problem") + "|reduced",
    )


def brute_force_improvement(
    prob: Problem,
    p0: Point,
    n: int = 1000,
    seed: int = 0,
    strict: bool = False,
) -> Optional[Point]:
    """Search sampled feasible points for a minimization-order improvement.

    Exact endpoint comparisons are used (no center tolerance).  With
    strict=False an improvement means a strictly smaller value; with
    strict=True any distinct point tying the candidate value also counts,
    matching what a strict-optimality claim rules out.
    """
    stream = ProposalStream(prob.feasible_sampler(), np.random.default_rng(seed))
    v0 = _as_interval(prob.objective(p0))
    drawn = 0
    while drawn < n:
        points, features = stream.take(n - drawn)
        drawn += len(points)
        bounds = None
        if features is not None:
            bounds = bounds_on(prob.objective, points[0].manifold, features)
        if bounds is None:
            for q in points:
                outcome = compare(_as_interval(prob.objective(q)), v0, OrderRelation.MIN, 0.0)
                if outcome is OrderOutcome.LESS or (
                    strict and outcome is OrderOutcome.EQUAL and distance(p0, q) > 1e-8
                ):
                    return q
            continue
        lb, ub = bounds
        less, greater = compare_min_arrays(
            0.5 * (lb + ub), 0.5 * (ub - lb), v0.center, v0.halfwidth, 0.0
        )
        # the first LESS, or with strict the first EQUAL at a distinct point
        for j in np.flatnonzero(less | (strict & ~greater)).tolist():
            if less[j] or distance(p0, points[j]) > 1e-8:
                return points[j]
    return None


def _as_interval(value: Union[float, Interval]) -> Interval:
    return value if isinstance(value, Interval) else Interval.point(value)
