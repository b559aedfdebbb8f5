"""Shipped acceptance checklist.

Nine end-to-end guarantees, one test each, in the order they are promised:
interval mixing on the matrix pair, geodesic-vs-chord convexity, the two
bundled optimality scenarios, bulk order-law sweeps, the derivative oracle,
the convexity implication ladder, brute-force soundness, and determinism.
Each test prints a single PASS/FAIL line to the real terminal (bypassing
capture) so the checklist is visible in any run transcript.
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from ivopt.calculus import dir_deriv, gh_dir_deriv
from ivopt.cli import main
from ivopt.convexity import (
    DomainSampler,
    check_convex,
    check_convex_at,
    check_cw_convex_at,
    check_gradient_inequality,
    check_local_min,
    check_star_shaped,
)
from ivopt.functions import (
    CIRCLE,
    EUCLIDEAN2,
    SPD2,
    IvFn,
    RealFn,
    iv_linear_combination,
)
from ivopt.interval import (
    Interval,
    OrderOutcome,
    OrderRelation,
    add,
    combine,
    compare,
    gh_diff,
    hausdorff,
    leq_min,
    scale,
)
from ivopt.kkt import (
    KktVerdict,
    active_set,
    brute_force_improvement,
    direction_samples,
    find_multipliers,
    verify_p2,
    verify_p3,
)
from ivopt.manifolds import Manifold, Point, exp_map, log_map
from ivopt.problems import (
    circle_domain,
    euclidean_box_domain,
    pstar_problem,
    pstarstar_problem,
    spd_domain,
)

HALF_PI = math.pi / 2.0
LN2 = math.log(2.0)
LESS, EQUIV, GREATER = (
    OrderOutcome.LESS,
    OrderOutcome.EQUAL,
    OrderOutcome.GREATER,
)


@contextmanager
def announce(capsys, num: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {num}: FAIL - {title}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"acceptance {num}: PASS - {title} ({elapsed:.2f}s)", flush=True)


def logdet_pair() -> IvFn:
    return IvFn.from_expressions("logdet", "logdet^2", SPD2, name="logdet pair")


# -- 1: interval value and mixing at the matrix-pair midpoint ---------------


def test_01_midpoint_value_beats_endpoint_mix(capsys):
    with announce(capsys, 1, "midpoint value vs endpoint mix on the matrix pair"):
        start = time.perf_counter()
        f = logdet_pair()
        p = SPD2.point(np.eye(2))
        q = SPD2.point(2.0 * np.eye(2))
        mid = SPD2.chord_point(p, q, 0.5)

        value = f(mid)
        assert value.center == pytest.approx(0.811, abs=1e-3)
        assert value.halfwidth == pytest.approx(0.658, abs=1e-3)

        mix = combine(0.5, f(p), 0.5, f(q))
        assert mix.center == pytest.approx(0.6931471805599453, abs=1e-12)
        assert mix.halfwidth == pytest.approx(0.9609060278364028, abs=1e-12)

        assert compare(value, mix, OrderRelation.MIN) is GREATER
        assert time.perf_counter() - start < 1.0


# -- 2: geodesic convexity holds strictly, chord convexity fails -------------


def test_02_geodesic_convex_but_not_chord_convex(capsys):
    with announce(capsys, 2, "strict geodesic convexity with a chord counterexample"):
        start = time.perf_counter()
        f = logdet_pair()
        dom = spd_domain(SPD2)
        strict = check_convex(f, dom, pairs=64, grid=33, strict=True, seed=0)
        assert strict.holds()
        assert strict.samples_used == 64
        chord = check_convex(f, dom, pairs=64, grid=33, path="chord", seed=0)
        assert not chord.holds()
        assert chord.counterexample is not None
        assert time.perf_counter() - start < 5.0


# -- 3: half-arc problem closed forms and strict certificate -----------------


def test_03_half_arc_certificate(capsys):
    with announce(capsys, 3, "half-arc problem derivatives, certificate, multipliers"):
        start = time.perf_counter()
        loaded = pstar_problem()
        prob, p0 = loaded.problem, loaded.candidate
        dirs = direction_samples(prob, p0, 12, seed=0)
        assert dirs
        f, g1, g2, g3 = (prob.objective,) + prob.constraints
        for x in dirs:
            theta = HALF_PI + x.value
            assert dir_deriv(f, p0, x) == pytest.approx(0.0, abs=1e-6)
            assert dir_deriv(g1, p0, x) == pytest.approx(theta - HALF_PI, abs=1e-6)
            assert dir_deriv(g2, p0, x) == pytest.approx(0.0, abs=1e-6)
            assert dir_deriv(g3, p0, x) == pytest.approx(
                2.0 * theta / math.pi - 1.0, abs=1e-6
            )

        cert = verify_p2(prob, p0, (0.0, 1.0, 0.0), dirs)
        assert cert.verdict is KktVerdict.STRICT_OPTIMAL
        assert cert.value == pytest.approx(0.0, abs=1e-12)

        J = active_set(prob, p0)
        mu = find_multipliers(prob, p0, J, dirs)
        assert mu is not None
        assert all(m >= 0.0 for m in mu)
        assert mu[2] == 0.0
        assert verify_p2(prob, p0, mu, dirs).positive()
        assert time.perf_counter() - start < 2.0


# -- 4: two-branch problem derivatives and non-strict certificate ------------


def test_04_two_branch_certificate(capsys):
    with announce(capsys, 4, "two-branch problem derivatives and Optimal verdict"):
        start = time.perf_counter()
        loaded = pstarstar_problem()
        prob, p0 = loaded.problem, loaded.candidate
        assert active_set(prob, p0) == (0,)

        f = prob.objective
        for s in (0.3, 0.7, 1.0):
            iso = SPD2.point(np.diag([2.0**s, 2.0**s]))
            gh = gh_dir_deriv(f, p0, log_map(p0, iso)).value
            assert gh.center == pytest.approx(2.0 * s * LN2, abs=1e-6)
            assert gh.halfwidth == pytest.approx(0.0, abs=1e-6)

            axis = SPD2.point(np.diag([1.0, 2.0**s]))
            gh = gh_dir_deriv(f, p0, log_map(p0, axis)).value
            assert gh.center == pytest.approx(0.0, abs=1e-6)
            assert gh.halfwidth == pytest.approx(0.0, abs=1e-6)

        dirs = direction_samples(prob, p0, 12, seed=0)
        cert = verify_p3(prob, p0, (1.0, 0.0, 0.0), dirs)
        assert cert.verdict is KktVerdict.OPTIMAL
        assert cert.value == Interval(-1.0, 1.0)
        assert cert.active_labels == ("g1",)
        assert time.perf_counter() - start < 2.0


# -- 5: bulk order-law sweep --------------------------------------------------


def _dyadic_interval(rng) -> Interval:
    a, b = rng.integers(-640, 641, size=2) / 64.0
    return Interval(min(a, b), max(a, b))


def test_05_order_law_sweep(capsys):
    with announce(capsys, 5, "order laws on 10^4 random pairs and triples"):
        start = time.perf_counter()
        assert (
            compare(Interval(1, 4), Interval(2, 3), OrderRelation.LU)
            is OrderOutcome.INCOMPARABLE
        )
        rng = np.random.default_rng(20260815)
        for _ in range(10_000):
            t1, t2, t3 = (_dyadic_interval(rng) for _ in range(3))

            # totality and antisymmetry
            out = compare(t1, t2, OrderRelation.MIN, eps_c=0.0)
            rev = compare(t2, t1, OrderRelation.MIN, eps_c=0.0)
            assert out in (LESS, EQUIV, GREATER)
            assert rev is {LESS: GREATER, GREATER: LESS, EQUIV: EQUIV}[out]

            # transitivity
            if leq_min(t1, t2, eps_c=0.0) and leq_min(t2, t3, eps_c=0.0):
                assert leq_min(t1, t3, eps_c=0.0)

            # nonnegative scaling preserves the order
            lam = rng.integers(0, 65) / 4.0
            if leq_min(t1, t2, eps_c=0.0):
                assert leq_min(scale(lam, t1), scale(lam, t2), eps_c=0.0)

            # addition preserves the order
            if leq_min(t1, t2, eps_c=0.0):
                assert leq_min(add(t1, t3), add(t2, t3), eps_c=0.0)

            # adding a degenerate shift is cancellable
            s = rng.integers(-640, 641) / 64.0
            if leq_min(Interval(0.0, 0.0), add(t1, Interval.point(s)), eps_c=0.0):
                assert leq_min(Interval.point(-s), t1, eps_c=0.0)

            # difference via endpoints equals the center/width form
            lo1, hi1, lo2, hi2 = rng.uniform(-8.0, 8.0, size=4)
            u = Interval(min(lo1, hi1), max(lo1, hi1))
            v = Interval(min(lo2, hi2), max(lo2, hi2))
            d = gh_diff(u, v)
            cw = Interval.from_center_width(
                u.center - v.center, abs(u.halfwidth - v.halfwidth)
            )
            assert abs(d.lb - cw.lb) <= 1e-12
            assert abs(d.ub - cw.ub) <= 1e-12
        assert time.perf_counter() - start < 5.0


# -- 6: derivative oracle over the smooth registry ---------------------------

SMOOTH_SPECS = (
    ("circle_sq_dev", CIRCLE, "(theta - pi/2)^2"),
    ("circle_lin_dev", CIRCLE, "theta - pi/2"),
    ("circle_gauss_gap", CIRCLE, "exp(-(theta - pi/2)^2) - 1"),
    ("circle_tilt_cap", CIRCLE, "(2*theta/pi - 1) - (theta - pi/2)^2 - 1"),
    ("circle_sin", CIRCLE, "sin(theta)"),
    ("circle_cos", CIRCLE, "cos(theta)"),
    ("circle_cubic", CIRCLE, "theta^3/10"),
    ("circle_log_shift", CIRCLE, "ln(1 + theta^2)"),
    ("circle_root", CIRCLE, "sqrt(1 + theta^2)"),
    ("circle_wave_mix", CIRCLE, "sin(2*theta) + cos(theta)"),
    ("e2_quad", EUCLIDEAN2, "x1^2 + x2^2"),
    ("e2_mix", EUCLIDEAN2, "x1*x2"),
    ("e2_exp", EUCLIDEAN2, "exp(x1/2)"),
    ("e2_trig", EUCLIDEAN2, "sin(x1) + cos(x2)"),
    ("e2_gap_sq", EUCLIDEAN2, "(x1 - x2)^2"),
    ("e2_root", EUCLIDEAN2, "sqrt(1 + x1^2 + x2^2)"),
    ("spd_logdet", SPD2, "logdet"),
    ("spd_logdet_sq", SPD2, "logdet^2"),
    ("spd_logdet_exp", SPD2, "exp(logdet/2)"),
    ("spd_logdet_sin", SPD2, "sin(logdet)"),
    ("spd_logdet_cubic", SPD2, "logdet^3/6"),
    ("spd_trace", SPD2, "trace"),
)


def smooth_registry() -> dict:
    """Named smooth functions of the derivative oracle below."""
    return {
        name: RealFn.from_expression(text, manifold, name=name)
        for name, manifold, text in SMOOTH_SPECS
    }


CIRCLE_DERIVS = {
    "circle_sq_dev": lambda th: 2.0 * (th - HALF_PI),
    "circle_lin_dev": lambda th: 1.0,
    "circle_gauss_gap": lambda th: -2.0 * (th - HALF_PI)
    * math.exp(-((th - HALF_PI) ** 2)),
    "circle_tilt_cap": lambda th: 2.0 / math.pi - 2.0 * (th - HALF_PI),
    "circle_sin": math.cos,
    "circle_cos": lambda th: -math.sin(th),
    "circle_cubic": lambda th: 3.0 * th**2 / 10.0,
    "circle_log_shift": lambda th: 2.0 * th / (1.0 + th**2),
    "circle_root": lambda th: th / math.sqrt(1.0 + th**2),
    "circle_wave_mix": lambda th: 2.0 * math.cos(2.0 * th) - math.sin(th),
}

E2_DERIVS = {
    "e2_quad": lambda x, v: 2.0 * x[0] * v[0] + 2.0 * x[1] * v[1],
    "e2_mix": lambda x, v: x[1] * v[0] + x[0] * v[1],
    "e2_exp": lambda x, v: 0.5 * math.exp(x[0] / 2.0) * v[0],
    "e2_trig": lambda x, v: math.cos(x[0]) * v[0] - math.sin(x[1]) * v[1],
    "e2_gap_sq": lambda x, v: 2.0 * (x[0] - x[1]) * (v[0] - v[1]),
    "e2_root": lambda x, v: (x[0] * v[0] + x[1] * v[1])
    / math.sqrt(1.0 + x[0] ** 2 + x[1] ** 2),
}

# along a geodesic leaving p with velocity X, logdet moves at the constant
# rate delta = tr(p^-1 X), and trace starts at rate tr(X)
SPD_DERIVS = {
    "spd_logdet": lambda u, delta, X: delta,
    "spd_logdet_sq": lambda u, delta, X: 2.0 * u * delta,
    "spd_logdet_exp": lambda u, delta, X: 0.5 * math.exp(u / 2.0) * delta,
    "spd_logdet_sin": lambda u, delta, X: math.cos(u) * delta,
    "spd_logdet_cubic": lambda u, delta, X: u**2 / 2.0 * delta,
    "spd_trace": lambda u, delta, X: float(np.trace(X)),
}


def _oracle_cases(rng):
    """Yield (function, base point, direction, closed-form value) rows."""
    reg = smooth_registry()
    for name, closed in CIRCLE_DERIVS.items():
        for theta0 in (0.7, 2.4, 4.1):
            p0 = CIRCLE.point(theta0)
            for dv in (0.9, -0.5):
                x = CIRCLE.tangent(p0, dv)
                yield reg[name], p0, x, closed(theta0) * dv
    for name, closed in E2_DERIVS.items():
        for _ in range(3):
            base = rng.uniform(-1.5, 1.5, size=2)
            vel = rng.uniform(-1.0, 1.0, size=2)
            p0 = EUCLIDEAN2.point(base)
            yield reg[name], p0, EUCLIDEAN2.tangent(p0, vel), closed(base, vel)
    for name, closed in SPD_DERIVS.items():
        for _ in range(3):
            p0 = SPD2.random_point(rng)
            q = SPD2.random_point(rng)
            x = log_map(p0, q)
            u0 = SPD2.features(p0)["logdet"]
            delta = float(np.trace(np.linalg.solve(p0.value, x.value)))
            yield reg[name], p0, x, closed(u0, delta, np.asarray(x.value))


def test_06_derivative_oracle(capsys):
    with announce(capsys, 6, "derivative oracle across the smooth registry"):
        reg = smooth_registry()
        covered = set(CIRCLE_DERIVS) | set(E2_DERIVS) | set(SPD_DERIVS)
        assert len(reg) >= 20
        assert covered == set(reg)

        h = 1e-7
        rng = np.random.default_rng(61)
        rows = 0
        for fn, p0, x, expected in _oracle_cases(rng):
            got = dir_deriv(fn, p0, x)
            forward = (fn(exp_map(p0, x, h)) - fn(p0)) / h
            assert got == pytest.approx(forward, abs=1e-5), fn.name
            assert got == pytest.approx(expected, abs=1e-6), fn.name
            rows += 1
        assert rows == len(CIRCLE_DERIVS) * 6 + len(E2_DERIVS) * 3 + len(SPD_DERIVS) * 3


# -- 7: convexity implication ladder -----------------------------------------


@dataclass
class LadderSetup:
    """Randomized function families on one manifold for the implication ladder.

    The scalar coordinate u is affine along geodesics (chart angle, first
    Euclidean coordinate, log-determinant), so quadratics in u are geodesically
    convex and tents in u are flat on a segment.
    """

    manifold: Manifold
    dom: DomainSampler
    u: Callable[[Point], float]
    strict_center: Callable  # rng -> RealFn, strictly convex along geodesics
    wild_width: Callable  # rng -> RealFn, nonnegative, generally non-convex
    convex_center: Callable  # rng -> RealFn
    convex_width: Callable  # rng -> RealFn, nonnegative convex
    concave_center: Callable  # rng -> RealFn, strictly concave in u
    min_family: Callable  # rng -> (IvFn, Point at its minimizer)
    flat_family: Callable  # rng -> (IvFn, Point, Point), two flat minimizers


def _wild_width_fn(manifold, u, rng) -> RealFn:
    w0 = 1.3 + abs(rng.normal())
    w1 = rng.uniform(0.3, 1.0)
    k = rng.uniform(2.0, 4.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return RealFn(manifold, lambda p: w0 + w1 * math.sin(k * u(p) + phase),
                  name="wiggle width")


def _u_quad_fn(manifold, u, rng, lo, hi, sign=1.0, floor=0.0) -> RealFn:
    a = sign * rng.uniform(0.5, 1.5)
    t = rng.uniform(lo, hi)
    c = floor + rng.uniform(0.0, 1.0)
    return RealFn(manifold, lambda p: a * (u(p) - t) ** 2 + c, name="u quad")


def _circle_setup() -> LadderSetup:
    u = lambda p: p.value

    def strict_center(rng):
        return _u_quad_fn(CIRCLE, u, rng, 0.9, 5.3)

    def min_family(rng):
        a = rng.uniform(0.5, 1.5)
        t = rng.uniform(1.2, 5.0)
        c = rng.uniform(-1.0, 1.0)
        w0 = rng.uniform(0.2, 1.2)
        w1 = rng.uniform(0.0, 1.0)
        f = IvFn(
            RealFn(CIRCLE, lambda p: a * (p.value - t) ** 2 + c),
            RealFn(CIRCLE, lambda p: w0 + w1 * (p.value - t) ** 2),
            name="aligned min",
        )
        return f, CIRCLE.point(t)

    def flat_family(rng):
        a = rng.uniform(0.8, 2.2)
        b = a + rng.uniform(1.0, 2.2)
        w0 = rng.uniform(0.3, 1.2)
        f = IvFn(
            RealFn(CIRCLE, lambda p: abs(p.value - a) + abs(p.value - b)),
            RealFn(CIRCLE, lambda p: w0),
            name="flat tent",
        )
        m1 = rng.uniform(a + 0.08, b - 0.08)
        m2 = rng.uniform(a + 0.08, b - 0.08)
        while abs(m2 - m1) < 0.05:
            m2 = rng.uniform(a + 0.08, b - 0.08)
        return f, CIRCLE.point(m1), CIRCLE.point(m2)

    return LadderSetup(
        manifold=CIRCLE,
        dom=circle_domain(),
        u=u,
        strict_center=strict_center,
        wild_width=lambda rng: _wild_width_fn(CIRCLE, u, rng),
        convex_center=strict_center,
        convex_width=lambda rng: _u_quad_fn(CIRCLE, u, rng, 0.9, 5.3, floor=0.1),
        concave_center=lambda rng: _u_quad_fn(CIRCLE, u, rng, 0.9, 5.3, sign=-1.0),
        min_family=min_family,
        flat_family=flat_family,
    )


def _euclidean_setup() -> LadderSetup:
    u = lambda p: float(p.value[0])

    def full_quad(rng, sign=1.0, floor=None):
        a = rng.uniform(0.5, 1.5, size=2)
        t = rng.uniform(-1.2, 1.2, size=2)
        c = rng.uniform(-1.0, 1.0) if floor is None else floor + rng.uniform(0.0, 1.0)

        def fn(p):
            d = np.asarray(p.value) - t
            return sign * float(a @ (d * d)) + c

        return RealFn(EUCLIDEAN2, fn, name="plane quad"), t

    def min_family(rng):
        center, t = full_quad(rng)
        w0 = rng.uniform(0.2, 1.2)
        w1 = rng.uniform(0.0, 1.0)

        def width(p):
            d = np.asarray(p.value) - t
            return w0 + w1 * float(d @ d)

        f = IvFn(center, RealFn(EUCLIDEAN2, width), name="aligned min")
        return f, EUCLIDEAN2.point(t)

    def flat_family(rng):
        a = rng.uniform(-1.5, -0.4)
        b = rng.uniform(0.4, 1.5)
        w0 = rng.uniform(0.3, 1.2)
        f = IvFn(
            RealFn(EUCLIDEAN2, lambda p: abs(p.value[0] - a) + abs(p.value[0] - b)),
            RealFn(EUCLIDEAN2, lambda p: w0),
            name="flat tent",
        )

        def strip_point():
            return EUCLIDEAN2.point(
                [rng.uniform(a + 0.08, b - 0.08), rng.uniform(-1.5, 1.5)]
            )

        m1 = strip_point()
        m2 = strip_point()
        while abs(m1.value[0] - m2.value[0]) < 0.05:
            m2 = strip_point()
        return f, m1, m2

    return LadderSetup(
        manifold=EUCLIDEAN2,
        dom=euclidean_box_domain(EUCLIDEAN2),
        u=u,
        strict_center=lambda rng: full_quad(rng)[0],
        wild_width=lambda rng: _wild_width_fn(EUCLIDEAN2, u, rng),
        convex_center=lambda rng: full_quad(rng)[0],
        convex_width=lambda rng: full_quad(rng, floor=0.1)[0],
        concave_center=lambda rng: _u_quad_fn(EUCLIDEAN2, u, rng, -1.2, 1.2, sign=-1.0),
        min_family=min_family,
        flat_family=flat_family,
    )


def _spd_setup() -> LadderSetup:
    def u(p):
        return SPD2.features(p)["logdet"]

    def strict_center(rng):
        # trace is strictly convex along affine-invariant geodesics; the
        # logdet quadratic adds curvature without breaking strictness
        a = rng.uniform(0.4, 1.2)
        b = rng.uniform(0.0, 0.6)
        t = rng.uniform(-1.0, 1.0)
        return RealFn(
            SPD2,
            lambda p: a * float(np.trace(p.value)) + b * (u(p) - t) ** 2,
            name="trace plus logdet quad",
        )

    def min_family(rng):
        a = rng.uniform(0.5, 1.5)
        t = rng.uniform(-0.8, 0.8)
        c = rng.uniform(-1.0, 1.0)
        w0 = rng.uniform(0.2, 1.2)
        w1 = rng.uniform(0.0, 1.0)
        f = IvFn(
            RealFn(SPD2, lambda p: a * (u(p) - t) ** 2 + c),
            RealFn(SPD2, lambda p: w0 + w1 * (u(p) - t) ** 2),
            name="aligned min",
        )
        p0 = SPD2.point(np.diag([math.exp(t / 2.0), math.exp(t / 2.0)]))
        return f, p0

    def point_with_logdet(rng, target):
        base = SPD2.random_point(rng)
        factor = math.exp((target - u(base)) / 2.0)
        return SPD2.point(factor * np.asarray(base.value))

    def flat_family(rng):
        a = rng.uniform(-0.9, -0.3)
        b = rng.uniform(0.3, 0.9)
        w0 = rng.uniform(0.3, 1.2)
        f = IvFn(
            RealFn(SPD2, lambda p: abs(u(p) - a) + abs(u(p) - b)),
            RealFn(SPD2, lambda p: w0),
            name="flat tent",
        )
        u1 = rng.uniform(a + 0.15, b - 0.15)
        u2 = rng.uniform(a + 0.15, b - 0.15)
        while abs(u2 - u1) < 0.05:
            u2 = rng.uniform(a + 0.15, b - 0.15)
        return f, point_with_logdet(rng, u1), point_with_logdet(rng, u2)

    return LadderSetup(
        manifold=SPD2,
        dom=spd_domain(SPD2),
        u=u,
        strict_center=strict_center,
        wild_width=lambda rng: _wild_width_fn(SPD2, u, rng),
        convex_center=lambda rng: _u_quad_fn(SPD2, u, rng, -1.0, 1.0),
        convex_width=lambda rng: _u_quad_fn(SPD2, u, rng, -1.0, 1.0, floor=0.1),
        concave_center=lambda rng: _u_quad_fn(SPD2, u, rng, -1.0, 1.0, sign=-1.0),
        min_family=min_family,
        flat_family=flat_family,
    )


LADDER_INSTANCES = 32
LADDER_SETUPS = {
    "circle": _circle_setup,
    "euclidean-plane": _euclidean_setup,
    "spd(2)": _spd_setup,
}


def _pair_apart(setup, rng, gap=0.3):
    p = setup.dom.draw_one(rng)
    q = setup.dom.draw_one(rng)
    while abs(setup.u(p) - setup.u(q)) < gap:
        q = setup.dom.draw_one(rng)
    return p, q


def _not_above(lhs, rhs):
    return compare(lhs, rhs, OrderRelation.MIN) is not GREATER


def _ladder_one_instance(setup: LadderSetup, rng, seed: int):
    dom, man = setup.dom, setup.manifold

    # strictly convex center forces interval convexity whatever the width
    f_strict = IvFn(setup.strict_center(rng), setup.wild_width(rng), name="strict")
    assert check_convex(f_strict, dom, pairs=6, grid=9, seed=seed).holds()
    anchor = dom.draw_one(rng)
    assert check_convex_at(f_strict, anchor, dom, targets=6, grid=9, seed=seed).holds()

    # interval convexity passes down to the center function
    assert check_convex(f_strict.center, dom, pairs=6, grid=9, seed=seed).holds()

    # componentwise convexity at a point implies interval convexity there
    f_cw = IvFn(setup.convex_center(rng), setup.convex_width(rng), name="cw")
    p0 = dom.draw_one(rng)
    assert check_cw_convex_at(f_cw, p0, dom, targets=6, grid=9, seed=seed).holds()
    assert check_convex_at(f_cw, p0, dom, targets=6, grid=9, seed=seed).holds()

    # pullback along a geodesic is convex in the segment parameter ...
    p, q = _pair_apart(setup, rng)
    fvals = {}

    def along(s):
        if s not in fvals:
            fvals[s] = f_cw(man.geodesic_point(p, q, s))
        return fvals[s]

    for _ in range(6):
        s1, s2 = sorted(rng.uniform(0.0, 1.0, size=2))
        t = rng.uniform(0.2, 0.8)
        s3 = (1.0 - t) * s1 + t * s2
        mixed = combine(1.0 - t, along(s1), t, along(s2))
        assert _not_above(along(s3), mixed)
    # ... and a concave center yields a pullback violation, witnessing the converse
    f_bad = IvFn(setup.concave_center(rng), setup.convex_width(rng), name="cap")
    bp, bq = _pair_apart(setup, rng)
    mixed = combine(0.5, f_bad(bp), 0.5, f_bad(bq))
    middle = f_bad(man.geodesic_point(bp, bq, 0.5))
    assert compare(middle, mixed, OrderRelation.MIN) is GREATER

    # sublevel sets of a convex function are star-shaped at their members
    base = dom.draw_one(rng)
    bound = Interval.from_center_width(
        f_cw(base).center + 0.8 + abs(rng.normal()) * 0.5,
        f_cw(base).halfwidth + 0.1 + abs(rng.normal()) * 0.3,
    )
    level = dom.restrict(
        lambda pt: compare(f_cw(pt), bound, OrderRelation.MIN) in (LESS, EQUIV),
        name="sublevel",
    )
    assert check_star_shaped(level, base, targets=6, grid=9, seed=seed).holds()

    # nonnegative combinations stay convex
    g_cw = IvFn(setup.convex_center(rng), setup.convex_width(rng), name="cw2")
    mix_fn = iv_linear_combination(
        rng.uniform(0.0, 2.0), f_cw, rng.uniform(0.0, 2.0), g_cw, name="combo"
    )
    assert check_convex(mix_fn, dom, pairs=6, grid=9, seed=seed).holds()

    # epigraph pairs mix consistently: bounds above the endpoints stay above
    for _ in range(4):
        ep, eq = dom.draw_one(rng), dom.draw_one(rng)
        B = Interval.from_center_width(
            f_cw(ep).center + abs(rng.normal()) * 0.5,
            f_cw(ep).halfwidth + abs(rng.normal()) * 0.5,
        )
        C = Interval.from_center_width(
            f_cw(eq).center + abs(rng.normal()) * 0.5,
            f_cw(eq).halfwidth + abs(rng.normal()) * 0.5,
        )
        for s in np.linspace(0.0, 1.0, 5):
            lhs = f_cw(man.geodesic_point(ep, eq, float(s)))
            assert _not_above(lhs, combine(1.0 - float(s), B, float(s), C))

    # a verified local minimum of a convex function is global on samples,
    # and the first-order lower bound holds there
    f_min, m0 = setup.min_family(rng)
    assert check_local_min(f_min, m0, dom, targets=6, seed=seed).holds()
    assert check_convex_at(f_min, m0, dom, targets=6, grid=9, seed=seed).holds()
    gi = check_gradient_inequality(f_min, m0, dom, targets=5, seed=seed)
    assert gi.holds()
    assert check_gradient_inequality(f_min.center, m0, dom, targets=5, seed=seed).holds()
    v0 = f_min(m0)
    for _ in range(8):
        assert _not_above(v0, f_min(dom.draw_one(rng)))

    # two minimizers force a constant minimal value along their geodesic
    f_flat, m1, m2 = setup.flat_family(rng)
    assert check_local_min(f_flat, m1, dom, targets=6, seed=seed).holds()
    assert check_local_min(f_flat, m2, dom, targets=6, seed=seed).holds()
    v1 = f_flat(m1)
    assert hausdorff(v1, f_flat(m2)) <= 1e-9
    for s in np.linspace(0.0, 1.0, 9):
        assert hausdorff(f_flat(man.geodesic_point(m1, m2, float(s))), v1) <= 1e-9
    for _ in range(4):
        other = f_flat(dom.draw_one(rng))
        # points inside the flat segment tie with the minimum up to rounding
        assert _not_above(v1, other) or hausdorff(v1, other) <= 1e-12


def test_07_convexity_implication_ladder(capsys):
    with announce(capsys, 7, "convexity implication ladder, 32 instances per manifold"):
        for name, build in LADDER_SETUPS.items():
            setup = build()
            for i in range(LADDER_INSTANCES):
                rng = np.random.default_rng(7_000 + i)
                try:
                    _ladder_one_instance(setup, rng, seed=i)
                except AssertionError as exc:
                    raise AssertionError(f"{name} instance {i}: {exc}") from exc


# -- 8: brute-force soundness of the shipped certificates ---------------------


def test_08_certified_candidates_survive_enumeration(capsys):
    with announce(capsys, 8, "no sampled improvement over certified candidates"):
        loaded = pstar_problem()
        dirs = direction_samples(loaded.problem, loaded.candidate, 12, seed=0)
        cert = verify_p2(loaded.problem, loaded.candidate, (0.0, 1.0, 0.0), dirs)
        assert cert.verdict is KktVerdict.STRICT_OPTIMAL
        # a strict verdict must survive even tie-counting enumeration
        assert (
            brute_force_improvement(
                loaded.problem, loaded.candidate, n=1000, seed=0, strict=True
            )
            is None
        )

        loaded2 = pstarstar_problem()
        dirs2 = direction_samples(loaded2.problem, loaded2.candidate, 12, seed=0)
        cert2 = verify_p3(loaded2.problem, loaded2.candidate, (1.0, 0.0, 0.0), dirs2)
        assert cert2.verdict is KktVerdict.OPTIMAL
        assert (
            brute_force_improvement(loaded2.problem, loaded2.candidate, n=1000, seed=0)
            is None
        )


# -- 9: determinism of the full reproduction suite ---------------------------


def test_09_repro_suite_is_deterministic(capsys):
    with announce(capsys, 9, "repro --all --json twice, identical up to wall time"):
        def run():
            rc = main(["repro", "--all", "--json", "--seed", "0"])
            out = capsys.readouterr().out
            assert rc == 0
            reports = json.loads(out)
            assert [r["id"] for r in reports] == ["3.1", "3.2", "4.1", "Pstar", "Pstarstar"]
            for r in reports:
                assert r.pop("wall_time_s") >= 0.0
            return json.dumps(reports, sort_keys=True)

        assert run() == run()
