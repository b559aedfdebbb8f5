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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Union

import numpy as np

from .calculus import (
    DEFAULT_SCHEME,
    DerivScheme,
    dir_deriv,
    gh_dir_deriv,
    width_monotone_along,
)
from .convexity import STRICT_MARGIN, DomainSampler, _worst_on_segments
from .errors import ConfigError, InfeasibleCandidateError, ModeMismatchError
from .functions import IvFn, RealFn
from .interval import Interval, OrderOutcome, OrderRelation, ZERO, combine, compare, hausdorff, leq_min
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

    def is_feasible(self, p: Point, tol: float = FEAS_TOL) -> bool:
        return not self.feasibility_violations(p, tol)

    def feasibility_violations(self, p: Point, tol: float = FEAS_TOL) -> list:
        out = []
        for i, g in enumerate(self.constraints):
            value = g(p)
            if isinstance(value, Interval):
                if not leq_min(value, ZERO):
                    out.append((i, value))
            elif value > tol:
                out.append((i, value))
        return out

    def feasible_sampler(self) -> DomainSampler:
        anchor = self.domain.anchor
        if anchor is not None and not self.is_feasible(anchor):
            anchor = None
        return DomainSampler(
            membership=lambda p: self.domain.membership(p) and self.is_feasible(p),
            sample=self.domain.sample,
            anchor=anchor,
            name=(self.name or "problem") + "|feasible",
        )


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
    rng = np.random.default_rng(seed)
    sampler = prob.feasible_sampler()
    out = []
    for _ in range(n):
        q = sampler.draw_one(rng, apart_from=p0, min_dist=min_dist)
        out.append(log_map(p0, q))
    return out


def _center_fn(f: Fn) -> RealFn:
    return f.center if isinstance(f, IvFn) else f


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use.

    Importing scipy.optimize costs most of ``import ivopt``, and only the
    multiplier search needs it.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _solve_multiplier_lp(df: np.ndarray, dg: np.ndarray) -> Optional[np.ndarray]:
    """Smallest nonnegative mu with df_k + sum_j mu_j dg_kj >= -RESID_TOL for all k.

    df has one entry per direction; dg has one column per free multiplier.
    Returns None when the system is infeasible over the sampled directions.
    """
    df = np.asarray(df, dtype=float)
    dg = np.asarray(dg, dtype=float)
    n_free = dg.shape[1] if dg.ndim == 2 else 0
    if n_free == 0:
        return np.zeros(0) if np.all(df >= -RESID_TOL) else None
    res = linprog(
        c=np.ones(n_free),
        A_ub=-dg,
        b_ub=df + RESID_TOL,
        bounds=[(0.0, None)] * n_free,
        method="highs",
    )
    return res.x if res.success else None


def find_multipliers(
    prob: Problem,
    p0: Point,
    J: Sequence[int],
    directions: Sequence[TangentDirection],
    scheme: DerivScheme = DEFAULT_SCHEME,
) -> Optional[tuple]:
    """Feasible multipliers over the sampled directions, or None.

    Only the center parts enter the linear program; the width tie-break of
    the minimization order is re-checked by the verifiers.  Multipliers off
    the active set are fixed at zero.
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


def _certificate(
    prob: Problem,
    p0: Point,
    J: tuple,
    mu: Sequence[float],
    residuals: Sequence[DirectionResidual],
    hyp: Sequence[HypothesisCheck],
    verdict: KktVerdict,
    reason: str,
    n_directions: int,
    seed: int,
) -> KktCertificate:
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
        n_directions=n_directions,
        seed=seed,
    )


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
    rng = np.random.default_rng(seed)
    return prob.feasible_sampler().draw(rng, n)


def _pairwise_distinct(values, tol: float = DISTINCT_TOL) -> bool:
    """True when every pair of values differs by more than tol."""
    for a_idx in range(len(values)):
        for b_idx in range(a_idx + 1, len(values)):
            a, b = values[a_idx], values[b_idx]
            if isinstance(a, Interval):
                gap = max(abs(a.lb - b.lb), abs(a.ub - b.ub))
            else:
                gap = abs(a - b)
            if gap <= tol:
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
    dom = prob.feasible_sampler()
    rng = np.random.default_rng(seed)
    targets = []

    def convex_at(fn: RealFn):
        def segments():
            for k in range(HYPOTHESIS_TARGETS):
                if k == len(targets):
                    targets.append(dom.draw_one(rng))
                yield p0, targets[k]

        return _worst_on_segments(
            fn, segments(), HYPOTHESIS_GRID, False, STRICT_MARGIN, "geodesic"
        )

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
        return _certificate(
            prob, p0, J, mu, residuals, hyp, verdict, reason, len(directions), seed
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


def reduce_p4(prob: Problem, pfix: Optional[Point] = None, tol: float = ACTIVE_TOL) -> Problem:
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
            chosen = g.center if abs(g.center(pfix)) > tol else g.width
            reduced.append(
                RealFn(prob.manifold, chosen.fn, name=f"reduced[{g.name}]")
            )
        else:
            def fn(p: Point, g=g) -> float:
                c = g.center(p)
                return c if abs(c) > tol else g.width(p)

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
    rng = np.random.default_rng(seed)
    sampler = prob.feasible_sampler()
    v0 = prob.objective(p0)
    if not isinstance(v0, Interval):
        v0 = Interval.point(v0)
    for _ in range(n):
        q = sampler.draw_one(rng)
        value = prob.objective(q)
        if not isinstance(value, Interval):
            value = Interval.point(value)
        outcome = compare(value, v0, OrderRelation.MIN, eps_c=0.0)
        if outcome is OrderOutcome.LESS:
            return q
        if strict and outcome is OrderOutcome.EQUAL and distance(p0, q) > 1e-8:
            return q
    return None
