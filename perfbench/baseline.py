"""Cross-check of the ROADMAP Baseline per-layer table.

Each row is timed untraced, as the table was: the best of several repeats of
a loop of calls, reported in microseconds per call.  The inputs are fixed
(seed 0), not drawn from the workload seed, so the rows stay comparable with
the table.
"""

from __future__ import annotations

import math
import time

# Row name -> microseconds per call in the ROADMAP Baseline table.
ROADMAP_US = {
    "circle_expr_eval": 5,
    "spd2_ivfn_eval": 37,
    "spd2_point": 35,
    "spd2_geodesic_point": 105,
    "spd2_log": 73,
    "spd2_exp": 210,
    "circle_dir_deriv": 46,
    "spd2_gh_dir_deriv": 2750,
    "check_convex_spd2_64x33": 415000,
    "check_convex_circle_64x33": 52000,
}


def _rows() -> dict:
    import numpy as np

    from ivopt import calculus, convexity
    from ivopt.functions import CIRCLE, SPD2, IvFn, RealFn
    from ivopt.problems import circle_domain, spd_domain

    rng = np.random.default_rng(0)
    p, q = SPD2.random_point(rng), SPD2.random_point(rng)
    x = SPD2.log(p, q)
    raw = np.array(p.value)
    theta = CIRCLE.point(1.0)
    dtheta = CIRCLE.tangent(theta, 0.5)
    real_circle = RealFn.from_expression("(theta - pi/2)^2", CIRCLE)
    iv_spd = IvFn.from_expressions("logdet", "logdet^2", SPD2)
    iv_circle = IvFn.from_expressions("theta^2", "-theta^2 + 5*pi^2", CIRCLE)
    spd_dom, circle_dom = spd_domain(SPD2), circle_domain()
    # row -> (callable, calls per repeat)
    return {
        "circle_expr_eval": (lambda: real_circle(theta), 2000),
        "spd2_ivfn_eval": (lambda: iv_spd(p), 500),
        "spd2_point": (lambda: SPD2.point(raw), 500),
        "spd2_geodesic_point": (lambda: SPD2.geodesic_point(p, q, 0.5), 300),
        "spd2_log": (lambda: SPD2.log(p, q), 300),
        "spd2_exp": (lambda: SPD2.exp(p, x, 0.5), 200),
        "circle_dir_deriv": (lambda: calculus.dir_deriv(real_circle, theta, dtheta), 500),
        "spd2_gh_dir_deriv": (lambda: calculus.gh_dir_deriv(iv_spd, p, x), 20),
        "check_convex_spd2_64x33": (lambda: convexity.check_convex(iv_spd, spd_dom, seed=0), 1),
        "check_convex_circle_64x33": (lambda: convexity.check_convex(iv_circle, circle_dom, seed=0), 1),
    }


def measure(repeats: int = 3) -> dict:
    """Row name -> best microseconds per call over the repeats."""
    out = {}
    for name, (fn, calls) in _rows().items():
        best = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, (time.perf_counter() - start) / calls)
        out[name] = best * 1e6
    return out


def report_lines(measured: dict) -> list:
    lines = ["ROADMAP Baseline cross-check (us per call, best of repeats, untraced):"]
    for name, table in ROADMAP_US.items():
        value = measured[name]
        lines.append(f"  {name:28s} table {table:>9,} measured {value:>12,.1f} ratio {value / table:6.2f}")
    return lines
