"""Sampled convexity certifiers: verdicts, witnesses, and hypothesis plumbing."""

import json
import math
import warnings
from functools import partial
from pathlib import Path

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
    _replacing,
    _worst_on_segments,
)
from ivopt.errors import SamplerExhaustedError
from ivopt.functions import (
    CIRCLE,
    EUCLIDEAN1,
    EUCLIDEAN2,
    SPD2,
    IvFn,
    RealFn,
    builtin_iv,
    builtin_real,
    lift_real,
    linear_combination,
)
from ivopt.interval import (
    Interval,
    OrderOutcome,
    OrderRelation,
    combine,
    compare,
    default_center_eps,
)
from ivopt.kkt import Problem, _convexity_hypotheses
from ivopt.manifolds import Spd
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

    @staticmethod
    def _targets(p0, dom, n, seed=0):
        rng = np.random.default_rng(seed)
        return [dom.draw_one(rng, apart_from=p0, min_dist=1e-8) for _ in range(n)]

    @pytest.mark.parametrize("f", [
        RealFn.from_expression("-(theta - 1)^2", CIRCLE),
        # a constant width leaves the center gap to decide
        IvFn.from_expressions("-(theta - 1)^2", "1", CIRCLE),
    ])
    def test_concave_center_yields_the_worst_target(self, f):
        # at theta0 = 2 the derivative exceeds f(q) - f(p0) by (theta_q - 2)^2
        p0 = CIRCLE.point(2.0)
        report = check_gradient_inequality(f, p0, CIRCLE_DOM, targets=8)
        assert report.verdict is Verdict.COUNTEREXAMPLE and report.samples_used == 8
        cx = report.counterexample
        far = max(self._targets(p0, CIRCLE_DOM, 8), key=lambda q: abs(q.value - 2.0))
        assert cx.q.value == far.value and cx.s == 0.0
        lhs, rhs = (v.center if isinstance(v, Interval) else v for v in (cx.lhs, cx.rhs))
        assert lhs == pytest.approx(-2.0 * (far.value - 2.0), abs=1e-6)
        assert rhs == pytest.approx(1.0 - (far.value - 1.0) ** 2, abs=1e-12)

    def test_width_gap_on_tied_centers(self):
        # center theta: derivative and difference tie; width ln(theta) grows
        # along every target, and its rate (theta_q - 1) exceeds ln(theta_q)
        f = IvFn.from_expressions("theta", "ln(theta)", CIRCLE)
        p0, dom = CIRCLE.point(1.0), circle_domain(1.0, 3.0)
        report = check_gradient_inequality(f, p0, dom, targets=8)
        assert report.verdict is Verdict.COUNTEREXAMPLE and report.skipped == 0
        cx = report.counterexample
        far = max(q.value for q in self._targets(p0, dom, 8))
        assert cx.q.value == far
        assert cx.lhs.center == pytest.approx(cx.rhs.center, abs=1e-7)
        assert cx.lhs.halfwidth == pytest.approx(far - 1.0, abs=1e-6)
        assert cx.rhs.halfwidth == pytest.approx(math.log(far), abs=1e-12)

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

    def test_interval_witness_and_its_json(self):
        f = IvFn.from_expressions("theta^2", "1", CIRCLE)
        p0 = CIRCLE.point(HALF_PI)
        report = check_local_min(f, p0, CIRCLE_DOM, targets=16)
        assert report.verdict == "NotMinimumWitness"
        # the witness is the first target below theta0, where the center falls
        rng = np.random.default_rng(0)
        targets = [CIRCLE_DOM.draw_one(rng, apart_from=p0, min_dist=1e-8) for _ in range(16)]
        first = next(k for k, q in enumerate(targets) if q.value < HALF_PI)
        assert report.samples_used == first + 1
        target, deriv = report.witness["target"], report.witness["derivative"]
        assert target.value == targets[first].value
        assert isinstance(deriv, Interval) and deriv.halfwidth == 0.0
        assert deriv.center == pytest.approx(2.0 * HALF_PI * (target.value - HALF_PI), abs=1e-5)
        blob = json.loads(json.dumps(report.to_json()))
        assert blob["witness"] == {"target": {"theta": target.value},
                                   "derivative": [deriv.lb, deriv.ub]}
        assert blob["samples_used"] == first + 1

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

    def test_restrict_narrows_membership(self):
        dom = circle_domain()
        dom = DomainSampler(dom.membership, dom.sample)
        narrowed = dom.restrict(lambda p: p.value < 1.0)
        assert narrowed.membership(CIRCLE.point(0.5))
        assert not narrowed.membership(CIRCLE.point(2.0))

    def test_exhaustion_raises(self):
        dom = circle_domain().restrict(lambda p: False, name="empty")
        rng = np.random.default_rng(0)
        with pytest.raises(SamplerExhaustedError):
            dom.draw_one(rng)

    def test_reports_serialize(self):
        report = check_convex(LOGDET_PAIR, SPD_DOM, pairs=2, grid=5)
        blob = report.to_json()
        assert blob["verdict"] == "HoldsOnSamples"
        assert blob["counterexample"] is None
        assert blob["samples_used"] == 2


# -- the one violation test ---------------------------------------------------


def _tabled(values: dict, interval_widths: dict = None):
    """An opaque function on Euclidean(1) given by its value at x = 0, 1, 2, ...

    With ``interval_widths`` it is interval-valued, with those halfwidths.
    """
    real = RealFn(EUCLIDEAN1, lambda pt: values[float(pt.value[0])], name="tabled")
    if interval_widths is None:
        return real
    width = RealFn(EUCLIDEAN1, lambda pt: interval_widths[float(pt.value[0])], name="w")
    return IvFn(real, width, name="tabled")


def _line(a: float, b: float):
    return EUCLIDEAN1.point([a]), EUCLIDEAN1.point([b])


class TestViolationCore:
    def test_ties_within_a_segment_go_to_the_first_point(self):
        # gaps 1, 0.5, 1 at s = 0.25, 0.5, 0.75
        f = _tabled({0.0: 0.0, 1.0: 1.0, 2.0: 0.5, 3.0: 1.0, 4.0: 0.0})
        report = _worst_on_segments(f, [_line(0.0, 4.0)], 5)
        assert report.counterexample.s == 0.25
        assert report.counterexample.lhs == 1.0 and report.counterexample.rhs == 0.0

    def test_ties_across_segments_go_to_the_first_segment(self):
        f = _tabled({0.0: 0.0, 1.0: 1.0, 2.0: 0.5, 3.0: 1.0, 4.0: 0.0})
        first, second = _line(0.0, 4.0), _line(0.0, 4.0)
        report = _worst_on_segments(f, [first, second], 5)
        assert report.counterexample.p is first[0]
        assert report.samples_used == 2
        # a strictly worse later segment does replace the witness
        g = _tabled({0.0: 0.0, 1.0: 3.0, 2.0: 1.0, 4.0: 0.0})  # gaps 1, then 2.5
        report = _worst_on_segments(g, [_line(0.0, 4.0), _line(0.0, 2.0)], 3)
        assert report.counterexample.q.value[0] == 2.0 and report.counterexample.s == 0.5

    @pytest.mark.parametrize("excess, verdict", [
        (5e-7, Verdict.HOLDS),  # inside EQ_TOL * |rhs| = 1e-6
        (2e-6, Verdict.COUNTEREXAMPLE),
    ])
    def test_real_tolerance_band_scales_with_the_mixed_value(self, excess, verdict):
        f = _tabled({0.0: 1000.0, 1.0: 1000.0 + excess, 2.0: 1000.0})
        report = _worst_on_segments(f, [_line(0.0, 2.0)], 3)
        assert report.verdict is verdict

    @pytest.mark.parametrize("halfwidth, verdict", [
        (0.0, Verdict.HOLDS),
        (1e-9, Verdict.COUNTEREXAMPLE),
    ])
    def test_a_center_win_inside_the_tie_band_leaves_it_to_the_widths(self, halfwidth, verdict):
        # compare() calls the midpoint GREATER on centers, yet after rounding
        # the center gap is no larger than the tie band
        c1 = math.nextafter(1e-9, 1.0)
        c2 = 0.75 * (c1 - 1e-9)
        f = _tabled({0.0: c2, 1.0: c1, 2.0: c2}, {0.0: 0.0, 1.0: halfwidth, 2.0: 0.0})
        p, q = _line(0.0, 2.0)
        lhs, rhs = f(EUCLIDEAN1.point([1.0])), combine(0.5, f(p), 0.5, f(q))
        assert compare(lhs, rhs, OrderRelation.MIN) is OrderOutcome.GREATER
        assert abs(lhs.center - rhs.center) <= default_center_eps(lhs.center, rhs.center)
        report = _worst_on_segments(f, [(p, q)], 3)
        assert report.verdict is verdict

    @pytest.mark.parametrize("interval", [False, True])
    def test_strict_equality_is_a_counterexample_of_severity_zero(self, interval):
        values = {float(x): 2.0 for x in range(5)}
        f = _tabled(values, {x: 0.5 for x in values} if interval else None)
        # severity 0 - 0 at each interior point: the first one is the witness
        report = _worst_on_segments(f, [_line(0.0, 4.0)], 5, "strict", 0.0)
        assert report.verdict is Verdict.COUNTEREXAMPLE
        assert report.counterexample.s == 0.25

    def test_an_overflowing_center_still_fails_strictly(self):
        # the center 0.5 * (lb + ub) is inf on both sides, so the severity is NaN
        f = IvFn.from_expressions(FLOAT_MAX, "0", CIRCLE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_convex(f, circle_domain(), pairs=3, strict=True)
            assert report.verdict is Verdict.COUNTEREXAMPLE
            assert report.counterexample.s == 0.03125
            for strict in (False, True):
                for g in (f, RealFn.from_expression(FLOAT_MAX, CIRCLE)):
                    check_convex(g, circle_domain(), pairs=3, grid=9, strict=strict)
                    check_affine(g, circle_domain(), pairs=3, grid=9)

    def test_nan_keeps_its_place_in_the_scan(self):
        nan = float("nan")
        fail = np.array([False, True, True, True])
        # no witness yet: a NaN first failure is kept
        assert _replacing(None, fail, np.array([0.0, nan, 5.0, 5.0])) == 1
        # otherwise NaN is skipped and the first of the largest wins
        assert _replacing(None, fail, np.array([0.0, 1.0, nan, 1.0])) == 1
        assert _replacing((1.0, None), fail, np.array([0.0, nan, 2.0, 2.0])) == 2
        assert _replacing((2.0, None), fail, np.array([0.0, nan, 2.0, 1.0])) is None
        # a NaN witness is never replaced
        assert _replacing((nan, None), fail, np.array([0.0, 1.0, 2.0, 3.0])) is None

    def test_a_shared_base_point_is_evaluated_once(self):
        p0 = CIRCLE.point(1.0)
        seen = []
        f = RealFn(CIRCLE, lambda pt: seen.append(pt) or pt.value**2, name="recorded")
        check_convex_at(f, p0, CIRCLE_DOM, targets=16, grid=5)
        assert sum(pt is p0 for pt in seen) == 1

    def test_hypotheses_evaluate_each_function_once_at_the_candidate(self):
        p0 = CIRCLE.point(1.0)
        seen = {}

        def recorded(text):
            inner = RealFn.from_expression(text, CIRCLE)
            seen[text] = []
            return RealFn(CIRCLE, lambda pt: seen[text].append(pt) or inner(pt), name=text)

        objective = IvFn(recorded("(theta - 1)^2"), recorded("theta"), name="objective")
        constraint = recorded("theta - 3")
        prob = Problem(CIRCLE, objective, (constraint,), circle_domain())
        _convexity_hypotheses(prob, p0, [(objective, "objective"), (constraint, "g1")], 0)
        assert {text: sum(pt is p0 for pt in pts) for text, pts in seen.items()} == {
            "(theta - 1)^2": 1, "theta": 1, "theta - 3": 1}


# -- pinned reports ----------------------------------------------------------

PINNED_REPORTS_PATH = Path(__file__).parent / "data" / "convexity_reports.json"
PINNED_GRIDS = (2, 9, 17, 33)
FLOAT_MAX = "1.7976931348623157e308"


def _fixed_domain(points) -> DomainSampler:
    """A sampler that picks among a few fixed points, so that grid points of
    its segments land exactly where a function leaves its domain."""
    return DomainSampler(lambda p: True, lambda rng: points[int(rng.integers(len(points)))],
                         name="fixed")


def _report_cases() -> dict:
    """name -> thunk returning a ConvexityReport, over every check on each geometry.

    Real and interval functions, compiled and opaque, convex and not, some
    that leave their domain midway along a segment, and the float-limit
    constant whose centers overflow.
    """
    spd3 = Spd(3)
    circle_fns = {
        "sq": RealFn.from_expression("(theta - pi/2)^2", CIRCLE),
        "sin": RealFn.from_expression("sin(theta)", CIRCLE),
        "iv-bowl": IvFn.from_expressions("(theta - pi/2)^2", "0.1*theta", CIRCLE),
        "iv-cap": IvFn.from_expressions("-theta^2", "theta", CIRCLE),
        "iv-flat-center": IvFn.from_expressions("2", "(theta - 3)^2", CIRCLE),
        "lift-sin": lift_real(RealFn.from_expression("sin(theta)", CIRCLE)),
        "combo": linear_combination(
            1.0, RealFn.from_expression("theta^2", CIRCLE),
            -3.0, RealFn.from_expression("theta", CIRCLE)),
        "max-real": RealFn.from_expression(FLOAT_MAX, CIRCLE),
        "max-iv": IvFn.from_expressions(FLOAT_MAX, "0", CIRCLE),
    }
    plane_fns = {
        "quad": RealFn.from_expression("x1^2 + x2^2", EUCLIDEAN2),
        "saddle": RealFn.from_expression("x1*x2", EUCLIDEAN2),
        "linear": RealFn.from_expression("2*x1 - x2 + 1", EUCLIDEAN2),
        "iv-quad": IvFn.from_expressions("x1^2 + x2^2", "0.5*x1^2 + 0.1", EUCLIDEAN2),
        "iv-saddle": IvFn.from_expressions("x1*x2", "x1^2", EUCLIDEAN2),
        "iv-linear": IvFn.from_expressions("x1 + x2", "0.25", EUCLIDEAN2),
    }
    spd_fns = lambda m: {
        "logdet": RealFn.from_expression("logdet", m),
        "neg-trace": RealFn.from_expression("-trace", m),
        "iv-logdet-pair": IvFn.from_expressions("logdet", "logdet^2", m),
        "iv-concave": IvFn.from_expressions("-logdet^2", "0.2*trace", m),
        "lift-trace": lift_real(RealFn.from_expression("trace", m)),
    }
    edge = _fixed_domain([CIRCLE.point(0.5), CIRCLE.point(1.5)])
    # valid at theta = 0.5 and 1.5 but not at theta = 1, the midpoint between
    edge_fns = {
        "ln-edge": RealFn.from_expression("ln(abs(theta - 1))", CIRCLE),
        "sqrt-edge": RealFn.from_expression("sqrt((theta - 1)^2 - 0.01)", CIRCLE),
        "zero-divisor": RealFn.from_expression("1/(theta - 1)", CIRCLE),
        "negative-width": IvFn.from_expressions("theta", "(theta - 1)^2 - 0.01", CIRCLE),
        "iv-ln-edge": IvFn.from_expressions("theta^2", "ln(abs(theta - 1)) + 5", CIRCLE),
        "endpoint": RealFn.from_expression("ln(1 - theta)", CIRCLE),
    }
    settings = (
        ("circle", circle_domain(), CIRCLE.point(1.0), circle_fns),
        ("e2", euclidean_box_domain(EUCLIDEAN2), EUCLIDEAN2.point([0.3, -0.4]), plane_fns),
        ("spd2", spd_domain(SPD2), SPD2.point(np.diag([1.0, 2.0])), spd_fns(SPD2)),
        ("spd3", spd_domain(spd3), spd3.point(np.diag([1.0, 2.0, 0.5])), spd_fns(spd3)),
        ("edge", edge, CIRCLE.point(0.5), edge_fns),
        ("two-branch", two_branch_domain(), SPD2.point(I2), {
            "objective": builtin_iv("two_branch_objective"),
            "g2": builtin_real("two_branch_g2"),
        }),
    )
    cases = {}
    for where, dom, base, fns in settings:
        for k, (fname, f) in enumerate(fns.items()):
            for grid in PINNED_GRIDS:
                seed = 7 * k + grid
                tag = f"{where}/{fname}/{grid}"
                cases[f"convex/{tag}"] = partial(check_convex, f, dom, 3, grid, seed=seed)
                cases[f"strict/{tag}"] = partial(
                    check_convex, f, dom, 3, grid, strict=True, seed=seed)
                cases[f"chord/{tag}"] = partial(
                    check_convex, f, dom, 3, grid, seed=seed, path="chord")
                cases[f"at/{tag}"] = partial(check_convex_at, f, base, dom, 3, grid, seed=seed)
                cases[f"at-strict/{tag}"] = partial(
                    check_convex_at, f, base, dom, 3, grid, strict=True, seed=seed)
                cases[f"affine/{tag}"] = partial(check_affine, f, dom, 3, grid, seed=seed)
                if isinstance(f, IvFn):
                    cases[f"cw/{tag}"] = partial(check_cw_convex_at, f, base, dom, 3, grid,
                                                 seed=seed)
    box = euclidean_box_domain(EUCLIDEAN1, [(-4.0, 4.0)])
    split = box.restrict(lambda p: abs(p.value[0]) >= 1.0, name="split")
    shells = {
        "box": (box, EUCLIDEAN1.point([0.5])),
        "split": (split, EUCLIDEAN1.point([2.0])),
        "two-branch": (two_branch_domain(), SPD2.point(I2)),
        "arc": (circle_domain(0.5, 2.5).restrict(lambda p: abs(p.value - 1.5) > 0.2),
                CIRCLE.point(0.7)),
    }
    for name, (dom, base) in shells.items():
        for grid in PINNED_GRIDS:
            cases[f"star/{name}/{grid}"] = partial(check_star_shaped, dom, base, 4, grid,
                                                   seed=grid)
    cases["strict/circle/max-iv/33/pairs-3/seed-0"] = partial(
        check_convex, circle_fns["max-iv"], circle_domain(), pairs=3, strict=True)
    return cases


def pinned_reports() -> dict:
    """The JSON of every pinned report, or its error as "Type: text".

    The fixture at PINNED_REPORTS_PATH holds this output as captured before
    the convexity checks were moved onto one segment loop; regenerate it only
    for an intended change of report output.
    """
    out = {}
    for name, run in _report_cases().items():
        try:
            out[name] = run().to_json()
        except Exception as exc:
            out[name] = f"{type(exc).__name__}: {exc}"
    return out


class TestPinnedReports:
    @pytest.fixture(scope="class")
    def current(self):
        return pinned_reports()

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads(PINNED_REPORTS_PATH.read_text(encoding="utf-8"))

    def test_cases_match_the_fixture(self, current, pinned):
        assert sorted(current) == sorted(pinned)

    def test_reports_match_exactly(self, current, pinned):
        # compared as JSON text, so bits, signed zeros and NaN all count
        text = lambda blob: json.dumps(blob, sort_keys=True)
        assert [name for name in sorted(pinned)
                if text(current[name]) != text(pinned[name])] == []

    def test_fixture_covers_verdicts_witnesses_and_errors(self, pinned):
        reports = [r for r in pinned.values() if isinstance(r, dict)]
        errors = " | ".join(r for r in pinned.values() if isinstance(r, str))
        verdicts = {r["verdict"] for r in reports}
        assert verdicts == {"HoldsOnSamples", "CounterexampleFound"}
        witnesses = [r["counterexample"] for r in reports if r["counterexample"]]
        assert {type(w["lhs"]) for w in witnesses} == {float, list, type(None)}
        for text in ("DomainError", "NegativeWidthError"):
            assert text in errors
        assert pinned["strict/circle/max-iv/33/pairs-3/seed-0"]["counterexample"]["s"] == 0.03125
