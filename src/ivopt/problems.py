"""Problem files, default domain samplers, and the bundled scenario suite.

A problem file is JSON shaped as::

    {"manifold": {"kind": "circle"} | {"kind": "euclidean", "dim": n}
                 | {"kind": "spd", "dim": n},
     "objective": {"real": "expr"} | {"center": "expr", "width": "expr"}
                  | {"builtin": "name"},
     "constraints": [same forms as objective, ...],
     "candidate": point,
     "options": {"seed": int, "domain": {...}},
     "name": "..."}

Unknown keys are rejected at every level.  Points are a number or
{"theta": x} on the circle, a flat list on Euclidean space, and a nested
list on the SPD manifold.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .calculus import dir_deriv, gh_dir_deriv
from .convexity import (
    DomainSampler,
    Proposals,
    check_affine,
    check_convex,
    check_convex_at,
    check_cw_convex_at,
    check_star_shaped,
)
from .errors import ConfigError, DomainError, IvoptError, NonPositiveDefiniteError
from .functions import (
    CIRCLE,
    EUCLIDEAN1,
    SPD2,
    IvFn,
    RealFn,
    builtin,
    builtin_iv,
    builtin_real,
    two_branch_membership,
)
from .interval import Interval, OrderRelation, combine, compare
from .kkt import (
    Problem,
    active_set,
    brute_force_improvement,
    direction_samples,
    find_multipliers,
    verify_p2,
    verify_p3,
)
from .manifolds import Circle, Euclidean, Manifold, Point, Spd, TWO_PI, log_map

WIDTH_VALIDATION_SAMPLES = 64


# -- default domain samplers ----------------------------------------------


def _number(value, where: str) -> float:
    """float(value), or a ConfigError that names where the value came from."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be a number, got {value!r}") from None


def circle_domain(lo: float = 0.0, hi: float = TWO_PI) -> DomainSampler:
    """Uniform sampler over a chart arc of the circle."""
    if not (0.0 <= lo < hi <= TWO_PI):
        raise ConfigError(f"arc [{lo}, {hi}] is not inside the chart range")

    def membership(p: Point) -> bool:
        return p.manifold == CIRCLE and lo - 1e-12 <= p.value <= hi + 1e-12

    def sample(rng: np.random.Generator) -> Point:
        return CIRCLE.point(rng.uniform(lo, hi))

    def propose(rng: np.random.Generator, k: int) -> Proposals:
        # k scalar uniform(lo, hi) draws, bit for bit; the arc lies in the
        # chart range, so every draw passes the range check
        theta = CIRCLE.angles(rng.uniform(lo, hi, k))
        member = (lo - 1e-12 <= theta) & (theta <= hi + 1e-12)
        return Proposals(
            CIRCLE, {"theta": theta}, member, lambda i: Point(CIRCLE, float(theta[i]))
        )

    return DomainSampler(membership, sample, name=f"circle[{lo:.6g},{hi:.6g}]",
                         propose=propose)


def euclidean_box_domain(manifold: Euclidean, bounds=None) -> DomainSampler:
    """Uniform sampler over an axis-aligned box (default [-2, 2]^n)."""
    if bounds is None:
        bounds = [(-2.0, 2.0)] * manifold.dim
    try:
        pairs = [(float(lo), float(hi)) for lo, hi in bounds]
    except (TypeError, ValueError):
        pairs = []
    if len(pairs) != manifold.dim or any(lo >= hi for lo, hi in pairs):
        raise ConfigError(
            "options.domain.box must give one [lo, hi] pair of numbers with lo < hi "
            f"per coordinate, got {bounds!r}"
        )
    bounds = pairs
    # uniform(lo, hi) overflows unless hi - lo is finite, which also rules
    # out nan and infinite bounds; every draw is then finite
    if not all(math.isfinite(hi - lo) for lo, hi in bounds):
        raise ConfigError(
            f"options.domain.box bounds must be finite with a finite width, got {bounds}"
        )

    def membership(p: Point) -> bool:
        return p.manifold == manifold and all(
            lo - 1e-12 <= v <= hi + 1e-12 for v, (lo, hi) in zip(p.value, bounds)
        )

    def sample(rng: np.random.Generator) -> Point:
        return manifold.point([rng.uniform(lo, hi) for lo, hi in bounds])

    lows, highs = (np.array(side) for side in zip(*bounds))

    def propose(rng: np.random.Generator, k: int) -> Proposals:
        # the k * dim scalar uniform draws of k samples, row by row, bit for bit
        values = rng.uniform(lows, highs, (k, manifold.dim))
        values.setflags(write=False)
        member = ((lows - 1e-12 <= values) & (values <= highs + 1e-12)).all(axis=1)
        features = dict(zip(manifold.feature_names, values.T))
        return Proposals(manifold, features, member, lambda i: Point(manifold, values[i]))

    return DomainSampler(membership, sample, name=f"box{bounds}", propose=propose)


def spd_domain(manifold: Spd, scale: float = 0.7) -> DomainSampler:
    """Log-normal style sampler over the whole SPD manifold.

    A draw that fails (a scale so large that the matrix exponential loses
    positive definiteness) raises a ConfigError that names the scale.
    """
    if not 0.0 < scale < math.inf:
        raise ConfigError(f"options.domain.scale must be a finite positive number, got {scale}")

    def membership(p: Point) -> bool:
        return p.manifold == manifold

    def drawn(draw: Callable[[], Point]) -> Point:
        try:
            return draw()
        except IvoptError as exc:
            raise ConfigError(
                f"options.domain.scale {scale:g} is too large to sample {manifold.name}: {exc}"
            ) from exc

    def sample(rng: np.random.Generator) -> Point:
        return drawn(lambda: manifold.random_point(rng, scale=scale))

    def propose(rng: np.random.Generator, k: int) -> Proposals:
        # every draw is a member; a batch without features has no array form
        features, point = manifold.random_points(rng, k, scale)
        member = None if features is None else np.ones(k, dtype=bool)
        return Proposals(manifold, features, member, lambda i: drawn(lambda: point(i)))

    return DomainSampler(membership, sample, name=f"spd(scale={scale:.6g})", propose=propose)


def two_branch_domain() -> DomainSampler:
    """The union of the two diagonal geodesic segments leaving the identity."""

    def sample(rng: np.random.Generator) -> Point:
        s = rng.uniform(0.0, 1.0)
        if rng.integers(2) == 0:
            return SPD2.point(np.diag([2.0**s, 2.0**s]))
        return SPD2.point(np.diag([1.0, 2.0**s]))

    return DomainSampler(two_branch_membership, sample, name="two-branch union")


def default_domain(manifold: Manifold, spec: Optional[dict] = None) -> DomainSampler:
    """Domain sampler for a manifold, honouring an options.domain override."""
    spec = dict(spec or {})
    if isinstance(manifold, Circle):
        arc = spec.pop("arc", [0.0, TWO_PI])
        _reject_unknown(spec, "options.domain")
        where = "options.domain.arc"
        if not (isinstance(arc, (list, tuple)) and len(arc) == 2):
            raise ConfigError(f"{where} must be [lo, hi], got {arc!r}")
        return circle_domain(_number(arc[0], where), _number(arc[1], where))
    if isinstance(manifold, Euclidean):
        box = spec.pop("box", None)
        _reject_unknown(spec, "options.domain")
        return euclidean_box_domain(manifold, box)
    if isinstance(manifold, Spd):
        scale = spec.pop("scale", 0.7)
        _reject_unknown(spec, "options.domain")
        return spd_domain(manifold, _number(scale, "options.domain.scale"))
    raise ConfigError(f"no default domain for manifold {manifold.name}")


# -- config parsing --------------------------------------------------------


def _reject_unknown(mapping: dict, where: str) -> None:
    if mapping:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(mapping)}")


def parse_manifold(spec) -> Manifold:
    if not isinstance(spec, dict):
        raise ConfigError("manifold must be an object with a 'kind'")
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind == "circle":
        _reject_unknown(spec, "manifold")
        return CIRCLE
    if kind == "euclidean":
        dim = spec.pop("dim", None)
        _reject_unknown(spec, "manifold")
        if not isinstance(dim, int) or dim < 1:
            raise ConfigError("euclidean manifold needs an integer dim >= 1")
        return Euclidean(dim)
    if kind == "spd":
        dim = spec.pop("dim", None)
        _reject_unknown(spec, "manifold")
        if not isinstance(dim, int) or dim < 1:
            raise ConfigError("spd manifold needs an integer dim >= 1")
        return Spd(dim)
    raise ConfigError(f"unknown manifold kind {kind!r}")


def parse_point(manifold: Manifold, raw, where: str = "candidate") -> Point:
    """A point from its JSON form; errors name ``where`` it came from."""
    if isinstance(manifold, Circle):
        if isinstance(raw, dict):
            raw = dict(raw)
            theta = raw.pop("theta", None)
            _reject_unknown(raw, where)
            if theta is None:
                raise ConfigError(f"{where}: circle point object needs a 'theta'")
            where = f"{where}.theta"
            raw = theta
        value = _number(raw, where)
    elif isinstance(manifold, (Euclidean, Spd)):
        try:
            value = np.asarray(raw, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"{where} must be an array of numbers, got {raw!r}") from None
    else:
        raise ConfigError(f"cannot parse a point for manifold {manifold.name}")
    try:
        return manifold.point(value)
    except (DomainError, NonPositiveDefiniteError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_point_text(manifold: Manifold, text: str, where: str = "point") -> Point:
    """Parse a command-line point: a bare number or a JSON literal."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        try:
            raw = float(text)
        except ValueError:
            raise ConfigError(f"{where}: cannot parse point {text!r}") from None
    return parse_point(manifold, raw, where)


def _parse_fn(spec, manifold: Manifold, where: str) -> Union[RealFn, IvFn]:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object")
    spec = dict(spec)
    if "real" in spec:
        text = spec.pop("real")
        _reject_unknown(spec, where)
        return RealFn.from_expression(str(text), manifold)
    if "center" in spec or "width" in spec:
        center = spec.pop("center", None)
        width = spec.pop("width", None)
        _reject_unknown(spec, where)
        if center is None or width is None:
            raise ConfigError(f"{where} needs both 'center' and 'width'")
        return IvFn.from_expressions(str(center), str(width), manifold)
    if "builtin" in spec:
        name = str(spec.pop("builtin"))
        _reject_unknown(spec, where)
        fn = builtin(name)
        if fn.manifold != manifold:
            raise ConfigError(
                f"builtin {name!r} lives on {fn.manifold.name}, not {manifold.name}"
            )
        return fn
    raise ConfigError(
        f"{where} must be one of {{'real'}}, {{'center','width'}}, or {{'builtin'}}"
    )


@dataclass(frozen=True)
class LoadedProblem:
    problem: Problem
    candidate: Optional[Point]
    seed: Optional[int]


def build_problem(cfg: dict, source: str = "<config>") -> LoadedProblem:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{source}: top level must be an object")
    cfg = dict(cfg)
    manifold_spec = cfg.pop("manifold", None)
    objective_spec = cfg.pop("objective", None)
    constraints_spec = cfg.pop("constraints", [])
    candidate_spec = cfg.pop("candidate", None)
    options = cfg.pop("options", {})
    name = cfg.pop("name", "")
    _reject_unknown(cfg, source)
    if manifold_spec is None or objective_spec is None:
        raise ConfigError(f"{source}: 'manifold' and 'objective' are required")

    manifold = parse_manifold(manifold_spec)
    objective = _parse_fn(objective_spec, manifold, "objective")
    if not isinstance(constraints_spec, list):
        raise ConfigError("constraints must be a list")
    constraints = tuple(
        _parse_fn(spec, manifold, f"constraints[{i}]")
        for i, spec in enumerate(constraints_spec)
    )

    if not isinstance(options, dict):
        raise ConfigError("options must be an object")
    options = dict(options)
    seed = options.pop("seed", None)
    domain_spec = options.pop("domain", None)
    _reject_unknown(options, "options")
    if seed is not None and not isinstance(seed, int):
        raise ConfigError("options.seed must be an integer")

    # The piecewise builtins only make sense on their own branch set.
    uses_builtin = any(
        getattr(f, "name", "").startswith("two_branch")
        for f in (objective,) + constraints
    )
    if uses_builtin and domain_spec is None:
        domain = two_branch_domain()
    else:
        domain = default_domain(manifold, domain_spec)

    candidate = None if candidate_spec is None else parse_point(manifold, candidate_spec)

    problem = Problem(manifold, objective, constraints, domain, name=str(name))

    # width nonnegativity is part of the interval-function contract
    rng = np.random.default_rng(12345)
    for fn in (objective,) + constraints:
        if isinstance(fn, IvFn):
            fn.validate_width(_in_bulk(domain, rng, WIDTH_VALIDATION_SAMPLES),
                              WIDTH_VALIDATION_SAMPLES, rng)

    return LoadedProblem(problem, candidate, seed)


def _in_bulk(domain: DomainSampler, rng: np.random.Generator, n: int):
    """A stand-in for ``domain.sample`` over its next n calls on rng: the same
    points, drawn as one bulk proposal where the domain has a proposer, each
    built (and raising) when it is asked for."""
    if domain.propose is None:
        return domain.sample
    points = map(domain.propose(rng, n).point, range(n))
    return lambda _: next(points)


def load_problem(path: str) -> LoadedProblem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read problem file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"problem file {path} is not valid JSON: {exc}") from None
    return build_problem(cfg, source=path)


# -- bundled scenarios -----------------------------------------------------


def pstar_problem() -> LoadedProblem:
    """Quadratic objective on the circle, candidate at the quarter turn."""
    f = RealFn.from_expression("(theta - pi/2)^2", CIRCLE, name="f")
    g1 = RealFn.from_expression("theta - pi/2", CIRCLE, name="g1")
    g2 = RealFn.from_expression("exp(-(theta - pi/2)^2) - 1", CIRCLE, name="g2")
    g3 = RealFn.from_expression(
        "(2*theta/pi - 1) - (theta - pi/2)^2 - 1", CIRCLE, name="g3"
    )
    prob = Problem(CIRCLE, f, (g1, g2, g3), circle_domain(), name="Pstar")
    return LoadedProblem(prob, CIRCLE.point(math.pi / 2.0), None)


def pstarstar_problem() -> LoadedProblem:
    """Piecewise interval objective on the two-branch SPD set, candidate I."""
    prob = Problem(
        SPD2,
        builtin_iv("two_branch_objective"),
        (
            builtin_real("two_branch_g1"),
            builtin_real("two_branch_g2"),
            builtin_real("two_branch_g3"),
        ),
        two_branch_domain(),
        name="Pstarstar",
    )
    return LoadedProblem(prob, SPD2.point(np.eye(2)), None)


def scenario_ids() -> tuple:
    return ("3.1", "3.2", "4.1", "Pstar", "Pstarstar")


def _row(name, expected, actual, tol: float = 0.0, note: str = "") -> dict:
    if isinstance(actual, Interval):
        actual_json = actual.to_json()
        ok = (
            isinstance(expected, (list, tuple))
            and len(expected) == 2
            and abs(actual.lb - expected[0]) <= tol
            and abs(actual.ub - expected[1]) <= tol
        )
        expected_json = list(expected)
    elif isinstance(expected, str):
        actual_json = str(actual)
        ok = actual_json == expected
        expected_json = expected
    else:
        actual_json = float(actual)
        ok = abs(actual_json - float(expected)) <= tol
        expected_json = float(expected)
    out = {"name": name, "expected": expected_json, "actual": actual_json,
           "tol": tol, "ok": ok}
    if note:
        out["note"] = note
    return out


def _scenario_31(seed: int):
    f = IvFn.from_expressions("logdet", "logdet^2", SPD2, name="logdet pair")
    p = SPD2.point(np.eye(2))
    q = SPD2.point(2.0 * np.eye(2))
    mid = SPD2.chord_point(p, q, 0.5)
    value = f(mid)
    mix = combine(0.5, f(p), 0.5, f(q))
    dom = spd_domain(SPD2)
    rows = [
        _row("chord midpoint center", 0.811, value.center, 1e-3),
        _row("chord midpoint halfwidth", 0.658, value.halfwidth, 1e-3),
        _row("endpoint mix center", 0.693, mix.center, 1e-3),
        _row(
            "endpoint mix halfwidth",
            0.9609060278364028,
            mix.halfwidth,
            1e-9,
            note=(
                "a published halfwidth of 0.48 equals (ln 2)^2, the value at the "
                "geodesic midpoint, not the endpoint mix; the mixing rule gives 0.961"
            ),
        ),
        _row(
            "midpoint vs mix (minimization order)",
            "Greater",
            compare(value, mix, OrderRelation.MIN).value,
        ),
        _row(
            "geodesic convexity (strict)",
            "HoldsOnSamples",
            check_convex(f, dom, strict=True, seed=seed).verdict.value,
        ),
        _row(
            "straight-chord convexity",
            "CounterexampleFound",
            check_convex(f, dom, path="chord", seed=seed).verdict.value,
        ),
        _row(
            "center affinity",
            "HoldsOnSamples",
            check_affine(f.center, dom, seed=seed).verdict.value,
        ),
    ]
    notes = ["the straight-chord counterexample shows ordinary convexity fails"]
    return rows, notes


def _scenario_32(seed: int):
    f = IvFn.from_expressions("theta^2", "-theta^2 + 5*pi^2", CIRCLE,
                              name="quadratic pair")
    dom = circle_domain()
    p0 = CIRCLE.point(math.pi)
    rows = [
        _row(
            "interval convexity on samples",
            "HoldsOnSamples",
            check_convex(f, dom, seed=seed).verdict.value,
        ),
        _row(
            "center convex at anchor",
            "HoldsOnSamples",
            check_convex_at(f.center, p0, dom, seed=seed).verdict.value,
        ),
        _row(
            "width convex at anchor",
            "CounterexampleFound",
            check_convex_at(f.width, p0, dom, seed=seed).verdict.value,
        ),
        _row(
            "componentwise convexity at anchor",
            "CounterexampleFound",
            check_cw_convex_at(f, p0, dom, seed=seed).verdict.value,
        ),
    ]
    notes = ["convex in the minimization order yet not componentwise convex"]
    return rows, notes


def _scenario_41(seed: int):
    f = RealFn.from_expression("-abs(x1)", EUCLIDEAN1, name="neg-abs")
    level = -1.0
    box = euclidean_box_domain(EUCLIDEAN1, [(-4.0, 4.0)])
    level_set = box.restrict(lambda p: f(p) <= level + 1e-12, name="level set")
    p0 = EUCLIDEAN1.point([2.0])
    midpoint = EUCLIDEAN1.point([0.0])
    rows = [
        _row(
            "level set star-shaped at x=2",
            "CounterexampleFound",
            check_star_shaped(level_set, p0, seed=seed).verdict.value,
        ),
        _row(
            "segment midpoint of 2 and -2 inside level set",
            "no",
            "yes" if level_set.membership(midpoint) else "no",
        ),
    ]
    notes = ["the level set splits into two rays, so segments leave it"]
    return rows, notes


def _scenario_pstar(seed: int):
    loaded = pstar_problem()
    prob, p0 = loaded.problem, loaded.candidate
    J = active_set(prob, p0)
    dirs = direction_samples(prob, p0, 12, seed=seed)
    f, g1, g2, g3 = (prob.objective,) + prob.constraints
    err_f = max(abs(dir_deriv(f, p0, x)) for x in dirs)
    err_g1 = max(abs(dir_deriv(g1, p0, x) - x.value) for x in dirs)
    err_g2 = max(abs(dir_deriv(g2, p0, x)) for x in dirs)
    err_g3 = max(
        abs(dir_deriv(g3, p0, x) - (2.0 * (math.pi / 2.0 + x.value) / math.pi - 1.0))
        for x in dirs
    )
    mu_found = find_multipliers(prob, p0, J, dirs)
    cert = verify_p2(prob, p0, (0.0, 1.0, 0.0), dirs, seed=seed)
    improvement = brute_force_improvement(prob, p0, n=1000, seed=seed, strict=True)
    rows = [
        _row("active constraints", "g1,g2", ",".join(cert.active_labels)),
        _row("max |objective derivative|", 0.0, err_f, 1e-6),
        _row("max |g1 derivative - closed form|", 0.0, err_g1, 1e-6),
        _row("max |g2 derivative|", 0.0, err_g2, 1e-6),
        _row("max |g3 derivative - closed form|", 0.0, err_g3, 1e-6),
        _row(
            "multiplier search feasible with third multiplier zero",
            "yes",
            "yes" if (mu_found is not None and abs(mu_found[2]) <= 1e-12) else "no",
        ),
        _row("certificate verdict", "StrictOptimal", cert.verdict.value),
        _row("optimal value", 0.0, cert.value, 1e-12),
        _row(
            "sampled improvement over candidate",
            "none",
            "none" if improvement is None else "found",
        ),
    ]
    notes = [
        "directions are chart differences theta - pi/2 toward feasible angles",
        "the sampled convexity warning on g2 is expected; the verdict does not rely on it",
    ]
    return rows, notes


def _scenario_pstarstar(seed: int):
    loaded = pstarstar_problem()
    prob, p0 = loaded.problem, loaded.candidate
    f = prob.objective
    iso_target = SPD2.point(2.0 * np.eye(2))
    axis_target = SPD2.point(np.diag([1.0, 2.0]))
    gh_iso = gh_dir_deriv(f, p0, log_map(p0, iso_target)).value
    gh_axis = gh_dir_deriv(f, p0, log_map(p0, axis_target)).value
    two_ln2 = 2.0 * math.log(2.0)
    dirs = direction_samples(prob, p0, 12, seed=seed)
    cert = verify_p3(prob, p0, (1.0, 0.0, 0.0), dirs, seed=seed)
    improvement = brute_force_improvement(prob, p0, n=1000, seed=seed)
    rows = [
        _row("active constraints", "g1", ",".join(cert.active_labels)),
        _row("isotropic-branch derivative", [two_ln2, two_ln2], gh_iso, 1e-6),
        _row("single-axis-branch derivative", [0.0, 0.0], gh_axis, 1e-6),
        _row("certificate verdict", "Optimal", cert.verdict.value),
        _row("optimal value", [-1.0, 1.0], cert.value, 1e-12),
        _row(
            "sampled improvement over candidate",
            "none",
            "none" if improvement is None else "found",
        ),
    ]
    notes = [
        "the objective is constant on the single-axis branch, so strictness is not claimed",
    ]
    return rows, notes


_SCENARIOS = {
    "3.1": _scenario_31,
    "3.2": _scenario_32,
    "4.1": _scenario_41,
    "Pstar": _scenario_pstar,
    "Pstarstar": _scenario_pstarstar,
}


def run_repro(sid: str, seed: int = 0) -> dict:
    """Run one bundled scenario and compare against its expected table."""
    if sid not in _SCENARIOS:
        raise ConfigError(
            f"unknown scenario id {sid!r}; available: {list(scenario_ids())}"
        )
    start = time.perf_counter()
    rows, notes = _SCENARIOS[sid](seed)
    return {
        "id": sid,
        "seed": seed,
        "rows": rows,
        "notes": notes,
        "ok": all(r["ok"] for r in rows),
        "wall_time_s": time.perf_counter() - start,
    }
