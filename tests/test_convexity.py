"""Sampled convexity certifiers: verdicts, witnesses, and hypothesis plumbing."""

import math

import numpy as np
import pytest

from ivopt.convexity import (
    DomainSampler,
    Verdict,
    check_affine,
    check_convex,
    check_convex_at,
    check_cw_convex_at,
    check_gradient_inequality,
    check_local_min,
    check_star_shaped,
)
from ivopt.errors import SamplerExhaustedError
from ivopt.functions import (
    CIRCLE,
    EUCLIDEAN1,
    SPD2,
    IvFn,
    RealFn,
    builtin_iv,
    lift_real,
)
from ivopt.interval import Interval, OrderOutcome, OrderRelation, combine, compare
from ivopt.problems import (
    circle_domain,
    euclidean_box_domain,
    spd_domain,
    two_branch_domain,
)

I2 = np.eye(2)
HALF_PI = math.pi / 2.0

LOGDET_PAIR = IvFn.from_expressions("logdet", "logdet^2", SPD2)
SPD_DOM = spd_domain(SPD2)
CIRCLE_DOM = circle_domain()
ARC_DOM = circle_domain(0.0, HALF_PI)


def assert_witness_violates(f, report, path="geodesic", strict=False):
    """Re-evaluate a counterexample from scratch and confirm the violation."""
    ce = report.counterexample
    assert ce is not None
    manifold = ce.p.manifold
    if path == "chord":
        pt = manifold.chord_point(ce.p, ce.q, ce.s)
    else:
        pt = manifold.geodesic_point(ce.p, ce.q, ce.s)
    lhs = f(pt)
    vp, vq = f(ce.p), f(ce.q)
    if isinstance(lhs, Interval):
        rhs = combine(1.0 - ce.s, vp, ce.s, vq)
        outcome = compare(lhs, rhs, OrderRelation.MIN)
        if strict:
            assert outcome in (OrderOutcome.GREATER, OrderOutcome.EQUAL)
        else:
            assert outcome is OrderOutcome.GREATER
    else:
        rhs = (1.0 - ce.s) * vp + ce.s * vq
        if strict:
            assert lhs >= rhs - 1e-10
        else:
            assert lhs > rhs


class TestCheckConvex:
    def test_logdet_pair_strictly_convex_on_geodesics(self):
        report = check_convex(LOGDET_PAIR, SPD_DOM, pairs=16, strict=True)
        assert report.holds()
        assert report.samples_used == 16

    def test_logdet_pair_fails_on_chords(self):
        report = check_convex(LOGDET_PAIR, SPD_DOM, pairs=16, path="chord")
        assert report.verdict is Verdict.COUNTEREXAMPLE
        assert_witness_violates(LOGDET_PAIR, report, path="chord")

    def test_chord_midpoint_of_identity_and_double(self):
        p, q = SPD2.point(I2), SPD2.point(2.0 * I2)
        lhs = LOGDET_PAIR(SPD2.chord_point(p, q, 0.5))
        rhs = combine(0.5, LOGDET_PAIR(p), 0.5, LOGDET_PAIR(q))
        assert lhs.center == pytest.approx(0.811, abs=1e-3)
        assert lhs.halfwidth == pytest.approx(0.658, abs=1e-3)
        assert rhs.center == pytest.approx(math.log(2.0), abs=1e-12)
        assert rhs.halfwidth == pytest.approx(0.9609060278364028, abs=1e-12)
        assert compare(lhs, rhs, OrderRelation.MIN) is OrderOutcome.GREATER

    def test_constant_function_holds_nonstrict(self):
        const = IvFn.from_expressions("2", "1", CIRCLE)
        assert check_convex(const, CIRCLE_DOM, pairs=8).holds()
        # but never strictly
        report = check_convex(const, CIRCLE_DOM, pairs=8, strict=True)
        assert report.verdict is Verdict.COUNTEREXAMPLE

    def test_circle_pair_convex_but_wide(self):
        f = IvFn.from_expressions("theta^2", "-theta^2 + 5*pi^2", CIRCLE)
        assert check_convex(f, CIRCLE_DOM, pairs=16).holds()

    def test_path_name_validated(self):
        with pytest.raises(ValueError):
            check_convex(LOGDET_PAIR, SPD_DOM, pairs=1, path="bogus")


class TestCheckConvexAt:
    def test_linear_constraint_holds_at_base(self):
        g1 = RealFn.from_expression("theta - pi/2", CIRCLE)
        report = check_convex_at(g1, CIRCLE.point(HALF_PI), ARC_DOM, targets=16)
        assert report.holds()

    def test_concave_cap_fails_at_base(self):
        g3 = RealFn.from_expression(
            "(2*theta/pi - 1) - (theta - pi/2)^2 - 1", CIRCLE
        )
        report = check_convex_at(g3, CIRCLE.point(HALF_PI), ARC_DOM, targets=16)
        assert report.verdict is Verdict.COUNTEREXAMPLE
        assert_witness_violates(g3, report)

    def test_affine_function_holds_everywhere(self):
        f = lift_real(RealFn.from_expression("logdet", SPD2))
        report = check_convex_at(f, SPD2.point(I2), SPD_DOM, targets=8)
        assert report.holds()


class TestCwConvexAt:
    def test_two_branch_objective_passes(self):
        f = builtin_iv("two_branch_objective")
        dom = two_branch_domain()
        report = check_cw_convex_at(f, SPD2.point(I2), dom, targets=16)
        assert report.holds()

    def test_width_component_can_fail(self):
        f = IvFn.from_expressions("theta^2", "-theta^2 + 5*pi^2", CIRCLE)
        report = check_cw_convex_at(f, CIRCLE.point(math.pi), CIRCLE_DOM,
                                    targets=16)
        assert report.verdict is Verdict.COUNTEREXAMPLE
        # the counterexample lives in the width component
        assert_witness_violates(f.width, report)

    def test_linear_components_pass(self):
        f = IvFn.from_expressions("theta", "theta + 1", CIRCLE)
        report = check_cw_convex_at(f, CIRCLE.point(1.0), CIRCLE_DOM, targets=8)
        assert report.holds()


class TestCheckAffine:
    def test_logdet_is_affine_along_geodesics(self):
        f = RealFn.from_expression("logdet", SPD2)
        assert check_affine(f, SPD_DOM, pairs=16).holds()

    def test_quadratic_is_not_affine(self):
        f = RealFn.from_expression("theta^2", CIRCLE)
        report = check_affine(f, CIRCLE_DOM, pairs=8)
        assert report.verdict is Verdict.COUNTEREXAMPLE

    def test_constant_is_affine(self):
        f = IvFn.from_expressions("3", "1", CIRCLE)
        assert check_affine(f, CIRCLE_DOM, pairs=8).holds()


class TestStarShaped:
    def test_two_branch_union_at_identity(self):
        dom = two_branch_domain()
        report = check_star_shaped(dom, SPD2.point(I2), targets=16)
        assert report.holds()

    def test_split_level_set_is_not_star_shaped(self):
        # level set {p: -|x| <= -1} = two rays; the gap breaks geodesics
        box = euclidean_box_domain(EUCLIDEAN1, [(-4.0, 4.0)])
        f = RealFn.from_expression("-abs(x1)", EUCLIDEAN1)
        level = box.restrict(lambda p: f(p) <= -1.0 + 1e-12, name="level")
        report = check_star_shaped(level, EUCLIDEAN1.point([2.0]), targets=16)
        assert report.verdict is Verdict.COUNTEREXAMPLE
        ce = report.counterexample
        mid = EUCLIDEAN1.geodesic_point(ce.p, ce.q, ce.s)
        assert not level.membership(mid)

    def test_full_box_is_star_shaped(self):
        box = euclidean_box_domain(EUCLIDEAN1, [(-4.0, 4.0)])
        assert check_star_shaped(box, EUCLIDEAN1.point([0.5]), targets=8).holds()

    def test_base_point_must_belong(self):
        box = euclidean_box_domain(EUCLIDEAN1, [(-4.0, 4.0)])
        level = box.restrict(lambda p: abs(p.value[0]) >= 1.0)
        with pytest.raises(ValueError):
            check_star_shaped(level, EUCLIDEAN1.point([0.0]))


class TestGradientInequality:
    def test_logdet_pair_at_identity(self):
        report = check_gradient_inequality(
            LOGDET_PAIR, SPD2.point(I2), SPD_DOM, targets=8
        )
        assert report.holds()
        assert report.samples_used == 8

    def test_constant_function(self):
        const = IvFn.from_expressions("1", "2", CIRCLE)
        report = check_gradient_inequality(const, CIRCLE.point(1.0), CIRCLE_DOM,
                                           targets=8)
        assert report.holds()

    def test_two_branch_objective(self):
        f = builtin_iv("two_branch_objective")
        report = check_gradient_inequality(
            f, SPD2.point(I2), two_branch_domain(), targets=8
        )
        assert report.holds()

    def test_real_convex_function(self):
        f = RealFn.from_expression("(theta - 1)^2", CIRCLE)
        report = check_gradient_inequality(f, CIRCLE.point(2.0), CIRCLE_DOM,
                                           targets=8)
        assert report.holds()

    def test_non_monotone_geodesics_are_skipped_and_counted(self):
        f = IvFn.from_expressions("0", "2*pi - theta", CIRCLE)
        report = check_gradient_inequality(f, CIRCLE.point(math.pi), CIRCLE_DOM,
                                           targets=16)
        assert report.holds()
        assert report.skipped > 0
        assert report.samples_used + report.skipped == 16


class TestLocalMin:
    def test_two_branch_objective_is_minimal_at_identity(self):
        f = builtin_iv("two_branch_objective")
        report = check_local_min(f, SPD2.point(I2), two_branch_domain(),
                                 targets=16)
        assert report.holds()
        assert report.verdict == "Minimum"
        assert report.cw_convex_at is not None and report.cw_convex_at.holds()

    def test_quadratic_off_minimum_yields_witness(self):
        f = RealFn.from_expression("theta^2", CIRCLE)
        report = check_local_min(f, CIRCLE.point(HALF_PI), CIRCLE_DOM, targets=16)
        assert report.verdict == "NotMinimumWitness"
        target = report.witness["target"]
        got = report.witness["derivative"]
        # closed form along the chart geodesic: 2*theta0*(theta_q - theta0)
        want = 2.0 * HALF_PI * (target.value - HALF_PI)
        assert got == pytest.approx(want, abs=1e-5)
        assert got < 0.0

    def test_constant_function_is_minimal_anywhere(self):
        const = IvFn.from_expressions("4", "1", CIRCLE)
        report = check_local_min(const, CIRCLE.point(2.0), CIRCLE_DOM, targets=8)
        assert report.holds()

    def test_json_shape(self):
        const = IvFn.from_expressions("4", "1", CIRCLE)
        blob = check_local_min(const, CIRCLE.point(2.0), CIRCLE_DOM,
                               targets=4).to_json()
        assert blob["verdict"] == "Minimum"
        assert blob["witness"] is None
        assert blob["cw_convex_at"]["verdict"] == "HoldsOnSamples"


class TestDomainSampler:
    def test_draw_respects_membership_and_distance(self):
        rng = np.random.default_rng(0)
        dom = circle_domain(0.0, 1.0)
        pts = dom.draw(rng, 32)
        assert all(0.0 <= p.value <= 1.0 for p in pts)
        anchor = CIRCLE.point(0.5)
        q = dom.draw_one(rng, apart_from=anchor, min_dist=0.25)
        assert abs(q.value - 0.5) >= 0.25

    def test_zero_min_dist_computes_no_distance(self, monkeypatch):
        calls = []
        original = type(SPD2).distance

        def spy(manifold, p, q):
            calls.append((p, q))
            return original(manifold, p, q)

        monkeypatch.setattr(type(SPD2), "distance", spy)
        anchor = SPD2.point(I2)
        drawn = SPD_DOM.draw_one(np.random.default_rng(0), apart_from=anchor, min_dist=0.0)
        assert calls == []
        again = SPD_DOM.draw_one(np.random.default_rng(0), apart_from=anchor, min_dist=1e-8)
        assert len(calls) == 1
        assert np.array_equal(drawn.value, again.value)

    def test_restrict_narrows_membership_and_keeps_anchor(self):
        dom = circle_domain()
        dom = DomainSampler(dom.membership, dom.sample, anchor=CIRCLE.point(0.2))
        narrowed = dom.restrict(lambda p: p.value < 1.0)
        assert narrowed.anchor is not None
        assert narrowed.membership(CIRCLE.point(0.5))
        assert not narrowed.membership(CIRCLE.point(2.0))
        # anchor outside the restriction is dropped
        dropped = dom.restrict(lambda p: p.value > 1.0)
        assert dropped.anchor is None

    def test_exhaustion_raises(self):
        dom = circle_domain().restrict(lambda p: False, name="empty")
        rng = np.random.default_rng(0)
        with pytest.raises(SamplerExhaustedError):
            dom.draw_one(rng, max_tries=50)

    def test_reports_serialize(self):
        report = check_convex(LOGDET_PAIR, SPD_DOM, pairs=2, grid=5)
        blob = report.to_json()
        assert blob["verdict"] == "HoldsOnSamples"
        assert blob["counterexample"] is None
        assert blob["samples_used"] == 2
