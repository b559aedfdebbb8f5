"""Directional derivatives: extrapolated quotients and the interval split."""

import dataclasses
import math

import numpy as np
import pytest

from ivopt import calculus
from ivopt.calculus import dir_deriv, gh_dir_deriv, width_monotone_along
from ivopt.errors import DomainError, NotConvergedError
from ivopt.functions import (
    CIRCLE,
    EUCLIDEAN2,
    SPD2,
    IvFn,
    RealFn,
    builtin_iv,
)
from ivopt.interval import Interval
from ivopt.manifolds import log_map

I2 = np.eye(2)
LN2 = math.log(2.0)
HALF_PI = math.pi / 2.0


def circle_dir(p0_theta, target_theta):
    p0 = CIRCLE.point(p0_theta)
    return p0, log_map(p0, CIRCLE.point(target_theta))


class TestScheme:
    def test_defaults(self):
        assert calculus.LADDER_H0 == 1e-2
        assert calculus.LADDER_LEVELS == 6
        assert calculus.LADDER_TOL == 1e-6
        assert calculus.RICH_ORDER == 2


class TestRealDerivatives:
    """Closed forms for the half-arc scenario at the quarter turn."""

    F = RealFn.from_expression("(theta - pi/2)^2", CIRCLE)
    G1 = RealFn.from_expression("theta - pi/2", CIRCLE)
    G2 = RealFn.from_expression("exp(-(theta - pi/2)^2) - 1", CIRCLE)
    G3 = RealFn.from_expression("(2*theta/pi - 1) - (theta - pi/2)^2 - 1", CIRCLE)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.9, 1.4])
    def test_quadratic_vanishes_at_its_minimum(self, theta):
        p0, x = circle_dir(HALF_PI, theta)
        assert dir_deriv(self.F, p0, x) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.9, 1.4])
    def test_linear_constraint_derivative(self, theta):
        p0, x = circle_dir(HALF_PI, theta)
        assert dir_deriv(self.G1, p0, x) == pytest.approx(theta - HALF_PI, abs=1e-6)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.9, 1.4])
    def test_gaussian_gap_is_flat_at_the_center(self, theta):
        p0, x = circle_dir(HALF_PI, theta)
        assert dir_deriv(self.G2, p0, x) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.9, 1.4])
    def test_tilted_cap_derivative(self, theta):
        p0, x = circle_dir(HALF_PI, theta)
        want = 2.0 * theta / math.pi - 1.0
        assert dir_deriv(self.G3, p0, x) == pytest.approx(want, abs=1e-6)

    def test_one_sided_limit_at_a_kink(self):
        f = RealFn.from_expression("abs(theta - pi/2)", CIRCLE)
        p0, x = circle_dir(HALF_PI, 0.0)
        # forward quotient along the geodesic is exactly |v|
        assert dir_deriv(f, p0, x) == pytest.approx(HALF_PI, abs=1e-9)

    def test_scaling_in_the_direction(self):
        f = RealFn.from_expression("sin(theta)", CIRCLE)
        p0 = CIRCLE.point(1.0)
        x = CIRCLE.tangent(p0, 0.5)
        d1 = dir_deriv(f, p0, x)
        d2 = dir_deriv(f, p0, x.scaled(3.0))
        assert d1 == pytest.approx(0.5 * math.cos(1.0), abs=1e-7)
        assert d2 == pytest.approx(3.0 * d1, abs=1e-6)

    def test_euclidean_gradient_dot_direction(self):
        f = RealFn.from_expression("x1^2 + x2^2", EUCLIDEAN2)
        p = EUCLIDEAN2.point([1.0, -2.0])
        x = EUCLIDEAN2.tangent(p, [0.5, 1.0])
        assert dir_deriv(f, p, x) == pytest.approx(2 * 1.0 * 0.5 + 2 * -2.0 * 1.0,
                                                   abs=1e-6)

    def test_divergent_quotient_raises(self):
        # the expression's dual lane names the cause, sqrt at 0; the ladder of
        # the same function behind a plain callable fails to settle
        f = RealFn.from_expression("sqrt(abs(theta - pi/2))", CIRCLE)
        p0, x = circle_dir(HALF_PI, 0.0)
        with pytest.raises(DomainError, match="^sqrt at 0 has no finite rate"):
            dir_deriv(f, p0, x)
        with pytest.raises(NotConvergedError):
            dir_deriv(RealFn(CIRCLE, f.fn), p0, x)

    def test_an_unsettled_ladder_names_its_tolerance_and_depth(self):
        f = RealFn.from_expression("sqrt(abs(theta - pi/2))", CIRCLE)
        p0, x = circle_dir(HALF_PI, 0.0)
        with pytest.raises(DomainError):
            dir_deriv(f, p0, x)
        with pytest.raises(NotConvergedError, match="^cusp: ladder estimates did not "
                                                    "settle within 1e-06 after 6 levels"):
            dir_deriv(RealFn(CIRCLE, f.fn, name="cusp"), p0, x)


class TestGhDerivatives:
    def test_two_branch_isotropic_direction(self):
        f = builtin_iv("two_branch_objective")
        p0 = SPD2.point(I2)
        q = SPD2.point(2.0 * I2)  # ln det q = 2 ln 2
        d = gh_dir_deriv(f, p0, log_map(p0, q))
        assert d.monotone_width_ok
        assert d.center_part == pytest.approx(2.0 * LN2, abs=1e-6)
        assert d.width_part == pytest.approx(0.0, abs=1e-6)
        assert d.value.center == pytest.approx(2.0 * LN2, abs=1e-6)
        assert d.value.halfwidth == pytest.approx(0.0, abs=1e-6)

    def test_two_branch_single_axis_direction(self):
        f = builtin_iv("two_branch_objective")
        p0 = SPD2.point(I2)
        q = SPD2.point(np.diag([1.0, 2.0]))
        d = gh_dir_deriv(f, p0, log_map(p0, q))
        assert d.monotone_width_ok
        assert d.value.center == pytest.approx(0.0, abs=1e-6)
        assert d.value.halfwidth == pytest.approx(0.0, abs=1e-6)

    def test_constant_interval_function(self):
        f = IvFn(
            RealFn(CIRCLE, lambda p: 5.0),
            RealFn(CIRCLE, lambda p: 3.0),
        )
        p0, x = circle_dir(1.0, 2.0)
        d = gh_dir_deriv(f, p0, x)
        assert d.monotone_width_ok
        assert abs(d.value.center) <= 1e-9 and d.value.halfwidth <= 1e-9

    def test_closed_form_decomposition(self):
        # center (theta-1)^2, width theta+1: rates 2(t-1)v and v
        f = IvFn.from_expressions("(theta - 1)^2", "theta + 1", CIRCLE)
        p0 = CIRCLE.point(2.0)
        x = CIRCLE.tangent(p0, 0.5)
        d = gh_dir_deriv(f, p0, x)
        assert d.monotone_width_ok
        assert d.center_part == pytest.approx(2.0 * 1.0 * 0.5, abs=1e-6)
        assert d.width_part == pytest.approx(0.5, abs=1e-6)
        assert d.value.halfwidth == pytest.approx(0.5, abs=1e-6)

    def test_positive_homogeneity(self):
        f = IvFn.from_expressions("(theta - 1)^2", "theta + 1", CIRCLE)
        p0 = CIRCLE.point(2.0)
        x = CIRCLE.tangent(p0, 0.5)
        base = gh_dir_deriv(f, p0, x).value
        doubled = gh_dir_deriv(f, p0, x.scaled(2.0)).value
        assert doubled.center == pytest.approx(2.0 * base.center, abs=1e-6)
        assert doubled.halfwidth == pytest.approx(2.0 * base.halfwidth, abs=1e-6)

    def test_decreasing_width_lowers_the_flag(self):
        f = IvFn.from_expressions("theta", "2*pi - theta", CIRCLE)
        p0 = CIRCLE.point(1.0)
        x = CIRCLE.tangent(p0, 1.0)  # width falls along increasing theta
        d = gh_dir_deriv(f, p0, x)
        assert not d.monotone_width_ok
        # the assembled value still carries <center rate, |width rate|>
        assert d.value.center == pytest.approx(1.0, abs=1e-6)
        assert d.value.halfwidth == pytest.approx(1.0, abs=1e-6)
        assert d.width_part == pytest.approx(-1.0, abs=1e-6)

    def test_the_flag_is_the_sign_of_the_width_rate_at_the_chart_edge(self):
        # a step of the old width walk (1e-2 along -1) left the chart here
        f = IvFn.from_expressions("theta^2", "0.1*theta + 1", CIRCLE)
        p0 = CIRCLE.point(1e-3)
        d = gh_dir_deriv(f, p0, CIRCLE.tangent(p0, -1.0))
        assert (d.center_part, d.width_part) == (-0.002, -0.1)
        assert d.value == Interval.from_center_width(-0.002, 0.1)
        assert not d.monotone_width_ok

    def test_an_expression_takes_no_step_and_no_width_evaluation(self, monkeypatch):
        f = IvFn.from_expressions("(theta - 1)^2", "theta + 1", CIRCLE)
        calls = {"exp_map": 0, "width": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(calculus, "exp_map", counted("exp_map", calculus.exp_map))
        width = dataclasses.replace(f.width, fn=counted("width", f.width.fn))
        counted_f = IvFn(f.center, width, f.name)
        p0 = CIRCLE.point(2.0)
        d = gh_dir_deriv(counted_f, p0, CIRCLE.tangent(p0, 0.5))
        assert (d.center_part, d.width_part, d.monotone_width_ok) == (1.0, 0.5, True)
        assert calls == {"exp_map": 0, "width": 0}
        # the same wrappers count an opaque width's ladder
        gh_dir_deriv(IvFn(f.center, RealFn(CIRCLE, width.fn)), p0, CIRCLE.tangent(p0, 0.5))
        assert calls["exp_map"] > 0 and calls["width"] > 0

    def test_json_shape(self):
        f = IvFn.from_expressions("theta", "1", CIRCLE)
        p0, x = circle_dir(1.0, 2.0)
        blob = gh_dir_deriv(f, p0, x).to_json()
        assert set(blob) == {"value", "center_part", "width_part",
                             "monotone_width_ok"}


class TestWidthMonotone:
    def test_constant_width_passes(self):
        f = builtin_iv("two_branch_objective")
        p0 = SPD2.point(I2)
        assert width_monotone_along(f, p0, SPD2.point(2.0 * I2))

        zero = IvFn.from_expressions("theta", "0", CIRCLE)
        assert width_monotone_along(zero, CIRCLE.point(0.5), CIRCLE.point(2.0))

    def test_decreasing_width_detected(self):
        f = IvFn.from_expressions("0", "theta", CIRCLE)
        assert not width_monotone_along(f, CIRCLE.point(HALF_PI), CIRCLE.point(0.0))
        # the reversed geodesic has increasing width
        assert width_monotone_along(f, CIRCLE.point(0.0), CIRCLE.point(HALF_PI))


class TestForwardDifferenceAgreement:
    """The extrapolated value must track a plain forward difference."""

    @pytest.mark.parametrize("text,theta",
                             [("sin(theta)", 1.1), ("ln(1 + theta^2)", 0.8),
                              ("theta^3/10", 2.2), ("cos(theta)", 0.4)])
    def test_circle_samples(self, text, theta):
        f = RealFn.from_expression(text, CIRCLE)
        p0 = CIRCLE.point(theta)
        x = CIRCLE.tangent(p0, 0.7)
        h = 1e-7
        from ivopt.manifolds import exp_map

        forward = (f(exp_map(p0, x, h)) - f(p0)) / h
        assert dir_deriv(f, p0, x) == pytest.approx(forward, abs=1e-5)
