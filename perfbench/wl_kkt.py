"""kkt-flat: KKT certification of generated problems on flat geometry.

Problems live on the circle chart and on Euclidean(2) / Euclidean(3).  Each
family has a known optimum in closed form (a projection onto a half-space,
or the minimiser of exp(t) - t) with its multiplier, and a known
non-optimal candidate.  Objectives are scaled by 1e-2, 1, 1e2 and 1e4, so
tolerance defects that depend on the function's scale show up as failed
tasks.  The bundled Pstar problem is one of the inputs.

Expected answers: an optimal candidate gets a positive verdict (anything
else is a failed task), a non-optimal one gets Inconclusive (a positive
verdict is unsound), every positive verdict must survive
brute_force_improvement, and brute force finds an improvement exactly for
the non-optimal candidates.
"""

from __future__ import annotations

import random

from common import OK, UNSOUND, WRONG, Task

NAME = "kkt-flat"
PASSES_PER_ROUND = 2  # about 6 s of tasks between rounds of process probes
SCALES = (1e-2, 1.0, 1e2, 1e4)
INSTANCES = 2  # seeded instances of each family at each scale
DIRECTIONS = 12
BRUTE_DRAWS = 200
ORACLE_DRAWS = 200


def _r(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _circle(objective, constraints, opt, nonopt, mu_opt, verify):
    return {"manifold": {"kind": "circle"}, "objective": objective,
            "constraints": constraints, "points": (opt, nonopt),
            "mu": (mu_opt, (0.0,) * len(constraints)), "verify": verify}


def _halfspace(n: int, rng: random.Random):
    """a, w, t and the projection x* = a - t*w of a onto {w.x <= w.x*}."""
    a = [_r(rng, 0.7, 1.0) for _ in range(n)]
    w = [_r(rng, 0.8, 1.2) for _ in range(n)]
    t = _r(rng, 0.3, 0.4)
    x_opt = [ai - t * wi for ai, wi in zip(a, w)]
    lin = " + ".join(f"{wi!r}*x{i + 1}" for i, wi in enumerate(w))
    b = sum(wi * xi for wi, xi in zip(w, x_opt))
    return n, a, t, x_opt, f"{lin} - {b!r}"


def _sq_dist(a) -> str:
    return " + ".join(f"(x{i + 1} - {ai!r})^2" for i, ai in enumerate(a))


def family(fam: str, s: float, rng: random.Random, dim: int = 2) -> dict:
    """One seeded instance of a problem family at objective scale s.

    Parameter ranges are narrow so that the feasible fractions, and with
    them the sampling cost, vary little from seed to seed.
    """
    a = _r(rng, 3.8, 4.4)
    b = _r(rng, 2.3, 2.7)
    k, w0, k2 = _r(rng, 0.1, 1.0), _r(rng, 0.1, 1.0), _r(rng, 0.1, 1.0)
    quad = f"{s!r}*(theta - {a!r})^2"
    iv_quad = {"center": quad, "width": f"{k * s!r}*(theta - {a!r})^2 + {w0 * s!r}"}
    inside = round(b * _r(rng, 0.1, 0.25), 4)
    mu = (2.0 * s * (a - b),)
    if fam == "circle-p2":
        # The non-optimal candidate sits on the boundary with the minimiser
        # inside, so every feasible direction improves and the LP is infeasible.
        a_in = _r(rng, 1.0, 1.6)
        cfg = _circle({"real": quad}, [{"real": f"theta - {b!r}"}], b, b, mu, "p2")
        cfg["objective_nonopt"] = {"real": f"{s!r}*(theta - {a_in!r})^2"}
        return cfg
    if fam == "circle-exp":
        lo = _r(rng, 2.3, 2.7)
        hi = round(lo + _r(rng, 1.3, 1.7), 4)
        return _circle({"real": f"{s!r}*(exp(theta - {lo!r}) - theta)"},
                       [{"real": f"theta - {hi!r}"}], lo,
                       round(hi - _r(rng, 0.05, 0.2), 4), (0.0,), "p2")
    if fam == "circle-p3":
        return _circle(iv_quad, [{"real": f"theta - {b!r}"}], b, inside, mu, "p3")
    if fam == "circle-p4":
        g = {"center": f"theta - {b!r}", "width": f"{k2!r}*(theta - {b!r})^2"}
        return _circle(iv_quad, [g], b, inside, mu, "p4")
    n, a_vec, t, x_opt, lin = _halfspace(dim, rng)
    quad_n = f"{s!r}*({_sq_dist(a_vec)})"
    iv_quad_n = {"center": quad_n, "width": f"{k * s!r}*({_sq_dist(a_vec)}) + {w0 * s!r}"}
    corner = [-1.9] * n
    mu_n = 2.0 * s * t
    cfg = {"manifold": {"kind": "euclidean", "dim": n}, "points": (x_opt, corner)}
    if fam == "euclid-p2":
        cfg.update(objective={"real": quad_n}, verify="p2",
                   constraints=[{"real": lin}, {"real": "x1 - 3"}], mu=((mu_n, 0.0), (0.0, 0.0)))
    elif fam == "euclid-p3":
        cfg.update(objective=iv_quad_n, verify="p3_split",
                   constraints=[{"real": lin}, {"real": "x1 - 3"}], mu=((mu_n, 0.0), (0.0, 0.0)))
    else:
        g = {"center": lin, "width": f"{k2!r}*({lin})^2"}
        cfg.update(objective=iv_quad_n, verify="p4", constraints=[g], mu=((mu_n,), (0.0,)))
    return cfg


FAMILIES = ("circle-p2", "circle-exp", "circle-p3", "circle-p4", "euclid-p2", "euclid-p3", "euclid-p4")


def case_config(fam: str, fam_cfg: dict, optimal: bool) -> dict:
    """Problem config of one family instance with its optimal or non-optimal candidate."""
    which = 0 if optimal else 1
    objective = fam_cfg["objective"]
    if not optimal and "objective_nonopt" in fam_cfg:
        objective = fam_cfg["objective_nonopt"]
    point = fam_cfg["points"][which]
    return {
        "manifold": fam_cfg["manifold"],
        "objective": objective,
        "constraints": fam_cfg["constraints"],
        "candidate": {"theta": point} if fam.startswith("circle") else point,
        "name": f"{fam}/{'opt' if optimal else 'nonopt'}",
    }


def specs(seed: int) -> list:
    """Problem configs with candidates; a fixed mix, seeded contents."""
    rng = random.Random(seed)
    out = []
    for s in SCALES:
        for instance, fam in enumerate(FAMILIES * INSTANCES):
            fam_cfg = family(fam, s, rng, dim=2 + instance % 2)
            for optimal in (True, False):
                out.append({"cfg": case_config(fam, fam_cfg, optimal), "optimal": optimal,
                            "mu": fam_cfg["mu"][0 if optimal else 1],
                            "verify": fam_cfg["verify"], "seed": rng.randrange(2**31)})
        out.append({"cfg": None, "optimal": True, "mu": (0.0, 1.0, 0.0), "verify": "p2",
                    "seed": rng.randrange(2**31)})
    return out


def build(seed: int) -> list:
    from ivopt.kkt import active_set, direction_samples
    from ivopt.problems import build_problem, pstar_problem

    tasks = []
    for spec in specs(seed):
        loaded = pstar_problem() if spec["cfg"] is None else build_problem(spec["cfg"])
        prob, p0 = loaded.problem, loaded.candidate
        case = Case(prob, p0, spec)
        case.active = active_set(prob, p0)
        case.dirs = direction_samples(prob, p0, DIRECTIONS, seed=spec["seed"])
        tasks.extend(case.tasks())
    return tasks


class Case:
    """One problem and candidate, with the four task types run on it."""

    def __init__(self, prob, p0, spec: dict):
        self.prob, self.p0, self.spec = prob, p0, spec
        self.optimal = spec["optimal"]
        self.active = ()
        self.dirs = []
        self._brute = {}

    def tasks(self) -> list:
        from ivopt import kkt

        prob, p0, seed = self.prob, self.p0, self.spec["seed"]
        verify = {
            "p2": lambda: kkt.verify_p2(prob, p0, self.spec["mu"], self.dirs, seed=seed),
            "p3": lambda: kkt.verify_p3(prob, p0, self.spec["mu"], self.dirs, seed=seed),
            "p3_split": lambda: kkt.verify_p3_split(prob, p0, self.spec["mu"], self.dirs, seed=seed),
            "p4": lambda: kkt.verify_p4(prob, p0, self.spec["mu"], self.dirs, seed=seed),
        }[self.spec["verify"]]
        return [
            Task("direction_samples",
                 lambda: kkt.direction_samples(prob, p0, DIRECTIONS, seed=seed),
                 self._check_directions),
            Task("find_multipliers",
                 lambda: kkt.find_multipliers(prob, p0, self.active, self.dirs),
                 self._check_multipliers),
            Task(f"verify_{self.spec['verify']}", verify, self._check_certificate),
            Task("brute_force_improvement",
                 lambda: kkt.brute_force_improvement(prob, p0, n=BRUTE_DRAWS, seed=seed),
                 self._check_brute_force),
        ]

    # -- oracle ------------------------------------------------------------
    def _check_directions(self, dirs) -> str:
        from ivopt.manifolds import exp_map

        if len(dirs) != DIRECTIONS:
            return WRONG
        for x in dirs:
            target = exp_map(self.p0, x)
            if not (self.prob.domain.membership(target) and self.prob.is_feasible(target)):
                return UNSOUND
        return OK

    def _check_multipliers(self, mu) -> str:
        if mu is None:
            return WRONG if self.optimal else OK
        if not self.optimal:
            return UNSOUND
        off_active = [m for i, m in enumerate(mu) if i not in self.active]
        if any(m < 0.0 for m in mu) or any(m != 0.0 for m in off_active):
            return UNSOUND
        return OK

    def _check_certificate(self, cert) -> str:
        if not cert.positive():
            return WRONG if self.optimal else OK
        if not self.optimal:
            return UNSOUND
        strict = cert.verdict.value == "StrictOptimal"
        return UNSOUND if self._improvement(strict) is not None else OK

    def _check_brute_force(self, point) -> str:
        if point is None:
            return WRONG if not self.optimal else OK
        if self.optimal or not _less(self.prob.objective(point), self.prob.objective(self.p0)):
            return UNSOUND
        return OK

    def _improvement(self, strict: bool):
        """brute_force_improvement backstop for a positive verdict, cached per case."""
        from ivopt.kkt import brute_force_improvement

        if strict not in self._brute:
            self._brute[strict] = brute_force_improvement(
                self.prob, self.p0, n=ORACLE_DRAWS, seed=self.spec["seed"] + 1, strict=strict)
        return self._brute[strict]


def _less(v, v0) -> bool:
    """Strictly smaller in the minimisation order, by plain arithmetic."""
    if isinstance(v, float):
        return v < v0
    return v.center < v0.center or (v.center == v0.center and v.halfwidth < v0.halfwidth)
