"""Real and interval-valued function wrappers and the builtin registry."""

import math
import random

import numpy as np
import pytest

from ivopt import expr
from ivopt.errors import (
    ConfigError,
    DomainError,
    ManifoldMismatchError,
    NegativeWidthError,
    NonFiniteError,
    UnknownFeatureError,
)
from ivopt.functions import (
    CIRCLE,
    EUCLIDEAN1,
    EUCLIDEAN2,
    SPD2,
    IvFn,
    RealFn,
    builtin_iv,
    builtin_names,
    builtin_real,
    iv_linear_combination,
    lift_real,
    linear_combination,
    smooth_registry,
    two_branch_classify,
    two_branch_membership,
    values_along,
)
from ivopt.interval import Interval
from ivopt.manifolds import Circle, Euclidean, Spd

I2 = np.eye(2)
LN2 = math.log(2.0)


class TestRealFn:
    def test_expression_binding_and_eval(self):
        f = RealFn.from_expression("(theta - pi/2)^2", CIRCLE)
        assert f(CIRCLE.point(math.pi / 2)) == 0.0
        assert f(CIRCLE.point(0.0)) == pytest.approx((math.pi / 2) ** 2)

    def test_unknown_feature_rejected_at_binding(self):
        with pytest.raises(UnknownFeatureError) as info:
            RealFn.from_expression("logdet + 1", CIRCLE)
        assert "logdet" in info.value.names

    def test_manifold_mismatch_at_call(self):
        f = RealFn.from_expression("theta", CIRCLE)
        with pytest.raises(ManifoldMismatchError):
            f(EUCLIDEAN1.point([1.0]))

    def test_nonfinite_guard(self):
        f = RealFn(EUCLIDEAN1, lambda p: float("nan"), name="bad")
        with pytest.raises(NonFiniteError):
            f(EUCLIDEAN1.point([0.0]))

    def test_spd_features_in_expressions(self):
        f = RealFn.from_expression("logdet", SPD2)
        assert f(SPD2.point(2.0 * I2)) == pytest.approx(math.log(4.0), abs=1e-12)
        g = RealFn.from_expression("trace", SPD2)
        assert g(SPD2.point(2.0 * I2)) == pytest.approx(4.0)


class TestIvFn:
    def test_center_width_views(self):
        f = IvFn.from_expressions("logdet", "logdet^2", SPD2)
        mid = SPD2.point(1.5 * I2)
        value = f(mid)
        assert isinstance(value, Interval)
        assert value.center == pytest.approx(0.811, abs=1e-3)
        assert value.halfwidth == pytest.approx(0.658, abs=1e-3)
        assert f(SPD2.point(I2)) == Interval(0.0, 0.0)

    def test_two_branch_objective_value_at_identity(self):
        f = builtin_iv("two_branch_objective")
        assert f(SPD2.point(I2)) == Interval(-1.0, 1.0)

    def test_small_negative_width_clamped(self):
        f = IvFn(
            RealFn(EUCLIDEAN1, lambda p: 1.0),
            RealFn(EUCLIDEAN1, lambda p: -1e-13),
        )
        assert f(EUCLIDEAN1.point([0.0])).halfwidth == 0.0

    def test_large_negative_width_rejected(self):
        f = IvFn(
            RealFn(EUCLIDEAN1, lambda p: 1.0),
            RealFn(EUCLIDEAN1, lambda p: -1e-6),
        )
        with pytest.raises(NegativeWidthError):
            f(EUCLIDEAN1.point([0.0]))

    def test_component_manifolds_must_agree(self):
        with pytest.raises(ManifoldMismatchError):
            IvFn(
                RealFn.from_expression("theta", CIRCLE),
                RealFn.from_expression("x1", EUCLIDEAN1),
            )

    def test_validate_width_sweeps_samples(self):
        # example width -theta^2 + 5*pi^2 stays nonnegative on the chart
        f = IvFn.from_expressions("theta^2", "-theta^2 + 5*pi^2", CIRCLE)
        rng = np.random.default_rng(0)
        f.validate_width(lambda r: CIRCLE.point(r.uniform(0.0, 2 * math.pi)),
                         200, rng)

        bad = IvFn.from_expressions("0", "theta - 4", CIRCLE)
        with pytest.raises(NegativeWidthError):
            bad.validate_width(
                lambda r: CIRCLE.point(r.uniform(0.0, 2 * math.pi)), 200, rng
            )

    def test_lift_real_has_zero_width(self):
        f = lift_real(RealFn.from_expression("x1", EUCLIDEAN1))
        value = f(EUCLIDEAN1.point([2.5]))
        assert value == Interval(2.5, 2.5)


class TestCombinations:
    def test_linear_combination(self):
        f = RealFn.from_expression("x1", EUCLIDEAN2)
        g = RealFn.from_expression("x2", EUCLIDEAN2)
        h = linear_combination(2.0, f, -3.0, g)
        assert h(EUCLIDEAN2.point([1.0, 1.0])) == pytest.approx(-1.0)

    def test_linear_combination_mismatch(self):
        with pytest.raises(ManifoldMismatchError):
            linear_combination(
                1.0,
                RealFn.from_expression("theta", CIRCLE),
                1.0,
                RealFn.from_expression("x1", EUCLIDEAN1),
            )

    def test_iv_linear_combination_follows_combine_rule(self):
        f = IvFn.from_expressions("x1", "1", EUCLIDEAN1)
        g = IvFn.from_expressions("2*x1", "x1^2", EUCLIDEAN1)
        h = iv_linear_combination(0.5, f, 2.0, g)
        p = EUCLIDEAN1.point([3.0])
        value = h(p)
        assert value.center == pytest.approx(0.5 * 3.0 + 2.0 * 6.0)
        assert value.halfwidth == pytest.approx(0.5 * 1.0 + 2.0 * 9.0)

    def test_iv_linear_combination_requires_nonneg(self):
        f = IvFn.from_expressions("x1", "1", EUCLIDEAN1)
        with pytest.raises(ValueError):
            iv_linear_combination(-1.0, f, 1.0, f)


class TestTwoBranchSet:
    def test_classify_branches(self):
        assert two_branch_classify(SPD2.point(np.diag([2.0**0.4, 2.0**0.4]))) == 0
        assert two_branch_classify(SPD2.point(np.diag([1.0, 2.0**0.4]))) == 1
        # the identity lies on both branches; the isotropic one is reported
        assert two_branch_classify(SPD2.point(I2)) == 0

    def test_membership_edges(self):
        assert two_branch_membership(SPD2.point(np.diag([2.0, 2.0])))
        assert two_branch_membership(SPD2.point(np.diag([1.0, 2.0])))
        assert not two_branch_membership(SPD2.point(np.diag([2.5, 2.5])))
        assert not two_branch_membership(SPD2.point(np.diag([1.5, 2.0])))
        assert not two_branch_membership(
            SPD2.point(np.array([[1.5, 0.1], [0.1, 1.5]]))
        )
        assert not two_branch_membership(EUCLIDEAN2.point([1.0, 1.0]))

    def test_classify_rejects_off_set_points(self):
        with pytest.raises(DomainError):
            two_branch_classify(SPD2.point(np.diag([0.5, 0.5])))
        with pytest.raises(DomainError):
            two_branch_classify(SPD2.point(np.diag([1.7, 1.3])))

    def test_branch_values_of_builtins(self):
        f = builtin_iv("two_branch_objective")
        g1 = builtin_real("two_branch_g1")
        g2 = builtin_real("two_branch_g2")
        g3 = builtin_real("two_branch_g3")
        iso = SPD2.point(np.diag([2.0**0.5, 2.0**0.5]))  # logdet = ln 2
        axis = SPD2.point(np.diag([1.0, 2.0**0.5]))      # logdet = ln sqrt 2

        v = f(iso)
        assert v.center == pytest.approx(LN2, abs=1e-12)
        assert v.halfwidth == pytest.approx(1.0)
        v = f(axis)
        assert v.center == 0.0 and v.halfwidth == pytest.approx(1.0)

        assert g1(iso) == pytest.approx(-LN2, abs=1e-12)
        assert g1(axis) == 0.0
        assert g2(iso) == pytest.approx(-(LN2**2) - 1.0, abs=1e-12)
        assert g2(axis) == -1.0
        assert g3(iso) == pytest.approx(LN2 - 1.0, abs=1e-12)
        assert g3(axis) == -1.0


class TestRegistry:
    def test_unknown_builtin(self):
        with pytest.raises(ConfigError):
            builtin_real("nope")
        with pytest.raises(ConfigError):
            builtin_iv("nope")

    def test_builtin_names_listed(self):
        names = builtin_names()
        assert "two_branch_objective" in names
        assert "two_branch_g1" in names

    def test_smooth_registry_binds_and_evaluates(self):
        reg = smooth_registry()
        assert len(reg) >= 20
        rng = np.random.default_rng(5)
        for name, fn in reg.items():
            p = fn.manifold.random_point(rng)
            assert math.isfinite(fn(p)), name


# -- values_along: the array path against the point-by-point loop ---------

PARITY_MANIFOLDS = (CIRCLE, EUCLIDEAN2, Euclidean(3), SPD2, Spd(3))


def _random_expression(rng: random.Random, names: tuple, depth: int) -> str:
    """Random text over the whole grammar; some of it leaves a domain."""
    if depth == 0 or rng.random() < 0.25:
        pick = rng.random()
        if pick < 0.6:
            return rng.choice(names)
        if pick < 0.9:
            return repr(round(rng.uniform(-3.0, 3.0), rng.choice((0, 1, 3))))
        return rng.choice(("pi", "e"))
    pick = rng.random()
    sub = lambda: _random_expression(rng, names, depth - 1)
    if pick < 0.45:
        return f"({sub()} {rng.choice('+-*/')} {sub()})"
    if pick < 0.6:
        exponent = rng.choice(("2", "3", "0.5", "-1", None))
        return f"({sub()})^{exponent or '(' + sub() + ')'}"
    if pick < 0.9:
        return f"{rng.choice(expr.FUNCTIONS)}({sub()})"
    return f"-{sub()}"


def _outcome(values):
    """Bits of the values produced before any exception, and that exception."""
    got = []
    try:
        for v in values:
            parts = (v.lb, v.ub) if isinstance(v, Interval) else (v,)
            got.append(tuple(float(x).hex() for x in parts))
    except Exception as exc:  # the parity is on whatever the scalar path raises
        return got, (type(exc), str(exc))
    return got, None


def _point_by_point(f, p, q, svals):
    return (f(pt) for pt in p.manifold.geodesic_points(p, q, svals))


class TestValuesAlong:
    @pytest.mark.parametrize("manifold", PARITY_MANIFOLDS, ids=str)
    def test_random_expressions_match_the_scalar_loop_bitwise(self, manifold):
        rng = random.Random(str(manifold))
        np_rng = np.random.default_rng(rng.randrange(2**31))
        names = manifold.feature_names
        array_path = 0
        for _ in range(60):
            f = RealFn.from_expression(_random_expression(rng, names, 4), manifold)
            p, q = manifold.random_point(np_rng), manifold.random_point(np_rng)
            svals = [j / 16 for j in range(17)]
            want = _outcome(_point_by_point(f, p, q, svals))
            assert _outcome(values_along(f, p, q, svals)) == want, f.name
            if want[1] is None:
                # every point evaluates, so the array path must not defer
                assert f.compiled(manifold.geodesic_features(p, q, svals)) is not None, f.name
                array_path += 1
        assert array_path >= 20

    @pytest.mark.parametrize("manifold", PARITY_MANIFOLDS, ids=str)
    def test_interval_functions_match_the_scalar_loop(self, manifold):
        rng = random.Random(str(manifold) + "iv")
        np_rng = np.random.default_rng(rng.randrange(2**31))
        names = manifold.feature_names
        for _ in range(30):
            center = _random_expression(rng, names, 3)
            width = f"({_random_expression(rng, names, 2)})^2"
            f = IvFn.from_expressions(center, width, manifold)
            p, q = manifold.random_point(np_rng), manifold.random_point(np_rng)
            svals = [j / 8 for j in range(1, 8)]
            assert _outcome(values_along(f, p, q, svals)) == _outcome(
                _point_by_point(f, p, q, svals)), f.name

    # theta runs 0.5, 0.75, 1.0, 1.25, 1.5 on this grid
    EDGE_P, EDGE_Q, EDGE_S = 0.5, 1.5, [j / 4 for j in range(5)]

    @pytest.mark.parametrize("center, width, error, at", [
        ("ln(1 - theta)", None, DomainError, 2),
        ("sqrt(1 - theta)", None, DomainError, 3),
        ("1/(theta - 1)", None, DomainError, 2),
        ("(1 - theta)^0.5", None, DomainError, 3),
        ("exp(-1/(theta - 1)^2)", None, DomainError, 2),
        ("exp(1000*theta)", None, NonFiniteError, 1),
        ("theta*1e308*1.5", None, NonFiniteError, 3),
        ("sin(theta*1e308*1.5)", None, ValueError, 3),
        ("theta", "1 - theta", NegativeWidthError, 3),
    ])
    def test_domain_edge_midway_raises_where_the_scalar_loop_does(
            self, center, width, error, at):
        if width is None:
            f = RealFn.from_expression(center, CIRCLE)
        else:
            f = IvFn.from_expressions(center, width, CIRCLE)
        p, q = CIRCLE.point(self.EDGE_P), CIRCLE.point(self.EDGE_Q)
        want = _outcome(_point_by_point(f, p, q, self.EDGE_S))
        assert want[1] is not None and want[1][0] is error and len(want[0]) == at
        assert _outcome(values_along(f, p, q, self.EDGE_S)) == want

    def test_a_caller_stopping_early_never_meets_a_later_failure(self):
        f = RealFn.from_expression("ln(1 - theta)", CIRCLE)
        values = values_along(f, CIRCLE.point(self.EDGE_P), CIRCLE.point(self.EDGE_Q),
                              self.EDGE_S)
        assert next(iter(values)) == math.log(0.5)

    def test_opaque_callables_run_point_by_point(self, monkeypatch):
        def no_arrays(*args):
            raise AssertionError("an opaque function must not ask for feature arrays")

        monkeypatch.setattr(Circle, "geodesic_features", no_arrays)
        seen = []
        opaque = RealFn(CIRCLE, lambda pt: seen.append(pt) or pt.value**2, name="opaque")
        p, q = CIRCLE.point(0.5), CIRCLE.point(2.0)
        svals = [j / 8 for j in range(9)]
        assert list(values_along(opaque, p, q, svals)) == [
            opaque(pt) for pt in CIRCLE.geodesic_points(p, q, svals)]
        assert len(seen) == 2 * len(svals)
        g = RealFn.from_expression("theta^2", CIRCLE)
        for f in (linear_combination(1.0, g, 2.0, g), lift_real(g)):
            assert _outcome(values_along(f, p, q, svals)) == _outcome(
                _point_by_point(f, p, q, svals))

    def test_builtins_run_point_by_point(self):
        f = builtin_iv("two_branch_objective")
        p, q = SPD2.point(I2), SPD2.point(np.diag([2.0, 2.0]))
        svals = [j / 4 for j in range(5)]
        assert f.center.compiled is None
        assert _outcome(values_along(f, p, q, svals)) == _outcome(
            _point_by_point(f, p, q, svals))

    def test_empty_grid(self):
        f = RealFn.from_expression("theta", CIRCLE)
        assert list(values_along(f, CIRCLE.point(0.5), CIRCLE.point(1.0), [])) == []
