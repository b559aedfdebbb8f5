"""First-order optimality verifiers: active sets, multipliers, certificates."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ivopt import curvature, kkt
from ivopt.calculus import dir_deriv
from ivopt.convexity import DomainSampler, ProposalStream
from ivopt.errors import ConfigError, InfeasibleCandidateError, IvoptError
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
)
from ivopt.interval import ZERO, Interval, endpoints, hausdorff
from ivopt.kkt import (
    KktVerdict,
    Problem,
    _solve_multiplier_lp,
    active_set,
    brute_force_improvement,
    direction_samples,
    find_multipliers,
    reduce_p4,
    verify_p2,
    verify_p3,
    verify_p3_split,
    verify_p4,
)
from ivopt.manifolds import log_map
from ivopt.problems import (
    build_problem,
    circle_domain,
    euclidean_box_domain,
    pstar_problem,
    pstarstar_problem,
    two_branch_domain,
)

I2 = np.eye(2)
HALF_PI = math.pi / 2.0
NEAR_HALF_PI = 1.5707963217948966  # pi/2 - 5e-9, where Pstar's g1 is near active

PSTAR = pstar_problem()
PSTARSTAR = pstarstar_problem()

# Every multiplier LP (inputs and HiGHS's answer) of kkt-flat find_multipliers
# at seeds 1-3 and of run_repro for every scenario at seed 0, captured when
# scipy's HiGHS solved them; floats are written by repr.
PINNED_LPS = json.loads(
    (Path(__file__).parent / "data" / "multiplier_lps.json").read_text(encoding="utf-8"))


def pstar_directions(n=12, seed=0):
    return direction_samples(PSTAR.problem, PSTAR.candidate, n, seed=seed)


def pstarstar_directions(n=12, seed=0):
    return direction_samples(PSTARSTAR.problem, PSTARSTAR.candidate, n, seed=seed)


def circle_real_constraints():
    return (
        RealFn.from_expression("theta - pi/2", CIRCLE, name="g1"),
        RealFn.from_expression("exp(-(theta - pi/2)^2) - 1", CIRCLE, name="g2"),
        RealFn.from_expression(
            "(2*theta/pi - 1) - (theta - pi/2)^2 - 1", CIRCLE, name="g3"
        ),
    )


def circle_problem(objective, constraints=()):
    return Problem(CIRCLE, objective, constraints, circle_domain())


def proved_p4_circle_center() -> tuple:
    """(objective, constraints) of the pinned p4-circle-center case."""
    return (IvFn.from_expressions("(theta - 4)^2", "0.5*(theta - 4)^2 + 0.2", CIRCLE),
            (IvFn.from_expressions("theta - 2.5", "0.3*(theta - 2.5)^2", CIRCLE),))


def undecided_p4_circle_center() -> tuple:
    """The same functions with a square of each written as a product, which
    the curvature rules leave undecided and which has the same values."""
    return (IvFn.from_expressions("(theta - 4)*(theta - 4)", "0.5*(theta - 4)^2 + 0.2", CIRCLE),
            (IvFn.from_expressions("theta - 2.5", "0.3*((theta - 2.5)*(theta - 2.5))",
                                   CIRCLE),))


def without_proofs(monkeypatch) -> None:
    """Functions built from now on store an unknown shape, so every
    convexity hypothesis on them is sampled."""
    monkeypatch.setattr(curvature, "geodesic_shape",
                        lambda tree, manifold: curvature.UNKNOWN_SHAPE)


class TestProblem:
    def test_label_inference(self):
        assert PSTAR.problem.label == "P2"
        assert PSTARSTAR.problem.label == "P3"
        iv_g = (lift_real(builtin_real("two_branch_g1")),)
        p4 = Problem(SPD2, builtin_iv("two_branch_objective"), iv_g,
                     two_branch_domain())
        assert p4.label == "P4"

    def test_real_objective_with_interval_constraints_rejected(self):
        with pytest.raises(ConfigError):
            Problem(
                CIRCLE,
                RealFn.from_expression("theta", CIRCLE),
                (IvFn.from_expressions("theta", "1", CIRCLE),),
                circle_domain(),
            )

    def test_mixed_constraint_kinds_rejected(self):
        with pytest.raises(ConfigError):
            Problem(
                CIRCLE,
                IvFn.from_expressions("theta", "1", CIRCLE),
                (
                    RealFn.from_expression("theta - 5", CIRCLE),
                    IvFn.from_expressions("theta - 5", "0", CIRCLE),
                ),
                circle_domain(),
            )

    def test_objective_manifold_must_match(self):
        with pytest.raises(ConfigError):
            Problem(CIRCLE, RealFn.from_expression("x1", EUCLIDEAN1), (),
                    circle_domain())

    def test_feasibility(self):
        prob = PSTAR.problem
        assert prob.is_feasible(CIRCLE.point(HALF_PI))
        assert prob.is_feasible(CIRCLE.point(0.0))
        assert not prob.is_feasible(CIRCLE.point(2.0))
        bad = prob.feasibility_violations(CIRCLE.point(2.0))
        assert [i for i, _ in bad] == [0]  # only the linear bound breaks

    def test_constraint_labels(self):
        assert PSTAR.problem.constraint_label(0) == "g1"
        assert PSTAR.problem.constraint_label(2) == "g3"


class TestActiveSet:
    def test_half_arc_candidate_binds_two(self):
        J = active_set(PSTAR.problem, PSTAR.candidate)
        assert J == (0, 1)

    def test_two_branch_candidate_binds_one(self):
        J = active_set(PSTARSTAR.problem, PSTARSTAR.candidate)
        assert J == (0,)

    def test_interior_point_binds_none(self):
        assert active_set(PSTAR.problem, CIRCLE.point(0.3)) == ()

    def test_infeasible_candidate_rejected(self):
        with pytest.raises(InfeasibleCandidateError) as info:
            active_set(PSTAR.problem, CIRCLE.point(2.0))
        assert "g1" in str(info.value)

    @staticmethod
    def counted(prob, p0, fault=None):
        """prob with each constraint counting its evaluations at p0; constraint
        ``fault`` raises there, and so does the one after it."""
        counts = [0] * len(prob.constraints)

        def wrap(i, g):
            def fn(p):
                if p is p0:
                    counts[i] += 1
                    if fault is not None and i >= fault:
                        raise ZeroDivisionError(f"g{i + 1}")
                return g(p)
            return RealFn(g.manifold, fn, name=g.name)

        constraints = [wrap(i, g) for i, g in enumerate(prob.constraints)]
        return Problem(prob.manifold, prob.objective, constraints, prob.domain), counts

    def test_each_constraint_is_evaluated_once_at_the_candidate(self):
        prob, counts = self.counted(PSTAR.problem, PSTAR.candidate)
        assert active_set(prob, PSTAR.candidate) == (0, 1)
        assert counts == [1, 1, 1]
        counts[:] = [0, 0, 0]
        # the verifiers' precheck: the active set and complementary slackness
        assert kkt._precheck(prob, PSTAR.candidate, (0.0, 1.0, 0.0)) == ((0, 1), None)
        assert counts == [1, 1, 1]

    def test_a_raising_constraint_raises_first_in_order(self):
        prob, counts = self.counted(PSTAR.problem, PSTAR.candidate, fault=1)
        for call in (lambda: active_set(prob, PSTAR.candidate),
                     lambda: kkt._precheck(prob, PSTAR.candidate, (0.0, 1.0, 0.0)),
                     lambda: verify_p2(prob, PSTAR.candidate, (0.0, 1.0, 0.0),
                                       pstar_directions(4))):
            counts[:] = [0, 0, 0]
            with pytest.raises(ZeroDivisionError, match="^g2$"):
                call()
            assert counts == [1, 1, 0]


class TestDirectionSamples:
    def test_deterministic_under_seed(self):
        a = pstar_directions(6, seed=3)
        b = pstar_directions(6, seed=3)
        assert [x.value for x in a] == [x.value for x in b]

    def test_empty_request(self):
        assert pstar_directions(0) == []

    def test_directions_point_at_feasible_targets(self):
        for x in pstar_directions(12):
            theta = HALF_PI + x.value
            assert 0.0 - 1e-9 <= theta <= HALF_PI + 1e-9

    def test_two_branch_directions_cover_both_branches(self):
        values = [np.asarray(x.value) for x in pstarstar_directions(16)]
        iso = [v for v in values if abs(v[0, 0] - v[1, 1]) <= 1e-12]
        axis = [v for v in values if abs(v[0, 0]) <= 1e-12 and abs(v[1, 1]) > 0]
        assert iso and axis


class TestMultiplierSearch:
    def test_lp_examples(self):
        mu = _solve_multiplier_lp(np.array([-1.0]), np.array([[2.0]]))
        assert mu is not None and mu[0] == pytest.approx(0.5, abs=1e-9)

    def test_lp_scaling_invariance(self):
        base = _solve_multiplier_lp(np.array([-1.0]), np.array([[2.0]]))
        scaled = _solve_multiplier_lp(np.array([-1.0]), np.array([[20.0]]))
        assert scaled[0] == pytest.approx(base[0] / 10.0, abs=1e-9)

    def test_lp_infeasible(self):
        assert _solve_multiplier_lp(np.array([-1.0]), np.array([[0.0]])) is None
        assert _solve_multiplier_lp(np.array([-1.0]), np.zeros((1, 0))) is None

    def test_lp_no_free_variables_feasible(self):
        out = _solve_multiplier_lp(np.array([0.0, 2.0]), np.zeros((2, 0)))
        assert out is not None and out.size == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_lp_rejects_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="df must not contain inf or nan"):
            _solve_multiplier_lp(np.array([1.0, bad]), np.array([[1.0], [2.0]]))
        with pytest.raises(ValueError, match="dg must not contain inf or nan"):
            _solve_multiplier_lp(np.array([1.0, 2.0]), np.array([[1.0], [bad]]))
        # without free multipliers no LP is solved, and the input is still checked
        with pytest.raises(ValueError, match="df must not contain inf or nan"):
            _solve_multiplier_lp(np.array([1.0, bad]), np.zeros((2, 0)))

    def test_lp_reproduces_the_pinned_highs_answers(self):
        assert len(PINNED_LPS) == 331
        differ = []
        for i, lp in enumerate(PINNED_LPS):
            out = _solve_multiplier_lp(np.array(lp["df"]), np.array(lp["dg"]))
            got = None if out is None else [float(v) for v in out]
            if repr(got) != repr(lp["mu"]):
                differ.append((i, lp["source"], got, lp["mu"]))
        assert not differ

    def test_find_multipliers_half_arc(self):
        directions = pstar_directions()
        J = active_set(PSTAR.problem, PSTAR.candidate)
        mu = find_multipliers(PSTAR.problem, PSTAR.candidate, J, directions)
        assert mu is not None
        assert len(mu) == 3
        assert all(m >= 0.0 for m in mu)
        assert mu[2] == 0.0  # nothing assigned to the non-convex constraint
        cert = verify_p2(PSTAR.problem, PSTAR.candidate, mu, directions)
        assert cert.positive()

    def test_find_multipliers_two_branch(self):
        directions = pstarstar_directions()
        J = active_set(PSTARSTAR.problem, PSTARSTAR.candidate)
        mu = find_multipliers(PSTARSTAR.problem, PSTARSTAR.candidate, J,
                              directions)
        assert mu is not None
        assert mu[1] == 0.0 and mu[2] == 0.0


class TestVerifyP2:
    def test_half_arc_strict_optimal(self):
        cert = verify_p2(PSTAR.problem, PSTAR.candidate, (0.0, 1.0, 0.0),
                         pstar_directions())
        assert cert.verdict is KktVerdict.STRICT_OPTIMAL
        assert cert.value == pytest.approx(0.0, abs=1e-12)
        assert cert.active_labels == ("g1", "g2")
        assert all(r.ok for r in cert.residuals)

    def test_slackness_violation_is_inconclusive_before_derivatives(self):
        cert = verify_p2(PSTAR.problem, PSTAR.candidate, (0.0, 0.0, 1.0),
                         pstar_directions())
        assert cert.verdict is KktVerdict.INCONCLUSIVE
        assert "complementary slackness" in cert.reason
        assert "g3" in cert.reason
        assert cert.residuals == ()

    def test_slackness_is_checked_by_the_constraint_value(self):
        # 5e-9 below the quarter turn g1 is about -5e-9: feasible and within
        # ACTIVE_TOL of zero, so active, yet a unit multiplier scales it past
        # RESID_TOL and fails complementary slackness
        prob, p0 = PSTAR.problem, CIRCLE.point(NEAR_HALF_PI)
        g1 = prob.constraints[0](p0)
        assert -kkt.ACTIVE_TOL < g1 < -kkt.RESID_TOL
        assert active_set(prob, p0) == (0, 1)
        directions = direction_samples(prob, p0, 12)
        cert = verify_p2(prob, p0, (1.0, 0.0, 0.0), directions)
        assert cert.verdict is KktVerdict.INCONCLUSIVE
        assert cert.reason == ("complementary slackness fails: multiplier for g1 is "
                               f"1.0 but g1 is {g1} at the candidate")
        assert cert.residuals == ()
        # mu * |g1| within RESID_TOL passes the check
        cert = verify_p2(prob, p0, (0.1, 0.0, 0.0), directions)
        assert "complementary slackness" not in cert.reason

    def test_multiplier_validation(self):
        with pytest.raises(ConfigError):
            verify_p2(PSTAR.problem, PSTAR.candidate, (0.0, 1.0),
                      pstar_directions(2))
        with pytest.raises(ConfigError):
            verify_p2(PSTAR.problem, PSTAR.candidate, (0.0, -1.0, 0.0),
                      pstar_directions(2))

    @pytest.mark.parametrize("mu", [(math.nan, 1.0, 0.0), (0.0, 1.0, math.inf),
                                    (0.0, -math.inf, 0.0)])
    def test_non_finite_multipliers_are_refused(self, mu):
        # NaN passes a sign test, and neither NaN nor inf is a JSON number
        with pytest.raises(ConfigError, match="^multipliers must be finite and nonnegative$"):
            verify_p2(PSTAR.problem, PSTAR.candidate, mu, pstar_directions(2))

    def test_label_guard(self):
        with pytest.raises(ConfigError):
            verify_p2(PSTARSTAR.problem, PSTARSTAR.candidate, (0.0, 0.0, 0.0),
                      pstarstar_directions(2))

    def test_unconstrained_stationary_point(self):
        prob = Problem(
            CIRCLE,
            RealFn.from_expression("(theta - 2)^2", CIRCLE),
            (),
            circle_domain(),
            name="unconstrained",
        )
        p0 = CIRCLE.point(2.0)
        cert = verify_p2(prob, p0, (), direction_samples(prob, p0, 8))
        assert cert.positive()
        assert brute_force_improvement(prob, p0, n=500) is None

    def test_descent_direction_is_inconclusive(self):
        prob = Problem(
            CIRCLE,
            RealFn.from_expression("theta^2", CIRCLE),
            (),
            circle_domain(),
        )
        p0 = CIRCLE.point(HALF_PI)
        cert = verify_p2(prob, p0, (), direction_samples(prob, p0, 8))
        assert cert.verdict is KktVerdict.INCONCLUSIVE
        assert "stationarity fails" in cert.reason

    def test_convexity_warnings_do_not_gate(self):
        cert = verify_p2(PSTAR.problem, PSTAR.candidate, (0.0, 1.0, 0.0),
                         pstar_directions())
        gating = [h for h in cert.hypothesis_report if h.gating]
        assert not gating
        flat = [h for h in cert.hypothesis_report if not h.holds]
        # the smooth bump constraint is genuinely non-convex at the candidate
        assert any("g2" in h.name for h in flat)
        assert cert.positive()


class TestVerifyP3:
    def test_label_guards(self):
        dirs = pstar_directions(2)
        with pytest.raises(ConfigError, match="verify_p3 expects a P3 problem, got P2"):
            verify_p3(PSTAR.problem, PSTAR.candidate, (0.0, 1.0, 0.0), dirs)
        with pytest.raises(ConfigError, match="verify_p3_split expects a P3 problem, got P2"):
            verify_p3_split(PSTAR.problem, PSTAR.candidate, (0.0, 1.0, 0.0), dirs)

    def test_two_branch_optimal_not_strict(self):
        cert = verify_p3(PSTARSTAR.problem, PSTARSTAR.candidate,
                         (1.0, 0.0, 0.0), pstarstar_directions())
        assert cert.verdict is KktVerdict.OPTIMAL
        assert cert.value == Interval(-1.0, 1.0)
        assert cert.active_labels == ("g1",)
        assert "repeat" in cert.reason

    def test_constant_objective_optimal(self):
        prob = Problem(
            CIRCLE,
            IvFn.from_expressions("2", "1", CIRCLE),
            (),
            circle_domain(),
        )
        p0 = CIRCLE.point(1.0)
        cert = verify_p3(prob, p0, (), direction_samples(prob, p0, 6))
        assert cert.verdict is KktVerdict.OPTIMAL

    def test_negative_center_rate_is_inconclusive(self):
        prob = Problem(
            CIRCLE,
            IvFn.from_expressions("theta", "1", CIRCLE),
            (),
            circle_domain(),
        )
        p0 = CIRCLE.point(math.pi)
        cert = verify_p3(prob, p0, (), direction_samples(prob, p0, 8))
        assert cert.verdict is KktVerdict.INCONCLUSIVE

    def test_decreasing_width_gates(self):
        prob = Problem(
            CIRCLE,
            IvFn.from_expressions("(theta - pi)^2", "2*pi - theta", CIRCLE),
            (),
            circle_domain(),
        )
        p0 = CIRCLE.point(math.pi)
        cert = verify_p3(prob, p0, (), direction_samples(prob, p0, 8))
        assert cert.verdict is KktVerdict.INCONCLUSIVE
        assert any(h.gating and not h.holds for h in cert.hypothesis_report)
        assert "width" in cert.reason

    def test_width_dip_finer_than_the_grid_gates_on_the_step_ladder(self):
        # the width falls on [1, 1.001] only: the grid along the geodesic to
        # theta = 2 steps over the dip, the width's rate at the candidate
        # (2*(1 - 1.001) = -0.002) does not
        prob = Problem(
            CIRCLE,
            IvFn.from_expressions("(theta - 1)^2", "(theta - 1.001)^2", CIRCLE),
            (),
            circle_domain(),
        )
        p0 = CIRCLE.point(1.0)
        dirs = [log_map(p0, CIRCLE.point(0.5)), log_map(p0, CIRCLE.point(2.0))]
        cert = verify_p3(prob, p0, (), dirs)
        assert cert.verdict is KktVerdict.INCONCLUSIVE
        assert cert.reason == (
            "objective width non-decreasing at the candidate: fails along direction 1"
        )
        assert [r.index for r in cert.residuals] == [0]
        gate = cert.hypothesis_report[-1]
        assert gate.gating and not gate.holds


class TestVerifyP3Split:
    def test_recast_half_arc_is_strict_via_center(self):
        prob = Problem(
            CIRCLE,
            IvFn.from_expressions("(theta - pi/2)^2", "0", CIRCLE),
            circle_real_constraints(),
            circle_domain(),
            name="recast",
        )
        p0 = CIRCLE.point(HALF_PI)
        cert = verify_p3_split(prob, p0, (0.0, 1.0, 0.0),
                               direction_samples(prob, p0, 12))
        assert cert.verdict is KktVerdict.STRICT_OPTIMAL
        assert cert.reason.startswith("stationarity of the center holds")

    def test_constant_center_tested_through_width(self):
        prob = Problem(
            CIRCLE,
            IvFn.from_expressions("5", "(theta - pi/2)^2 + 1", CIRCLE),
            circle_real_constraints(),
            circle_domain(),
            name="flat-center",
        )
        p0 = CIRCLE.point(HALF_PI)
        cert = verify_p3_split(prob, p0, (0.0, 1.0, 0.0),
                               direction_samples(prob, p0, 12))
        assert cert.verdict is KktVerdict.STRICT_OPTIMAL
        assert cert.reason.startswith("stationarity of the width holds")

    @pytest.mark.parametrize("center, component", [
        ("5 + 1e-12*theta", "width"),  # spread below CONST_TOL on the samples
        ("5 + 1e-6*theta", "center"),
    ])
    def test_the_center_spread_picks_the_component(self, center, component):
        prob = Problem(
            CIRCLE,
            IvFn.from_expressions(center, "(theta - pi/2)^2 + 1", CIRCLE),
            circle_real_constraints(),
            circle_domain(),
        )
        p0 = CIRCLE.point(HALF_PI)
        cert = verify_p3_split(prob, p0, (0.0, 1.0, 0.0), direction_samples(prob, p0, 8))
        assert cert.reason.startswith(f"stationarity of the {component} ")

    def test_fully_constant_objective_is_plain_optimal(self):
        prob = Problem(
            CIRCLE,
            IvFn.from_expressions("5", "1", CIRCLE),
            circle_real_constraints(),
            circle_domain(),
        )
        p0 = CIRCLE.point(HALF_PI)
        cert = verify_p3_split(prob, p0, (0.0, 0.0, 0.0),
                               direction_samples(prob, p0, 8))
        assert cert.verdict is KktVerdict.OPTIMAL


def lifted_two_branch_problem():
    constraints = tuple(
        lift_real(builtin_real(name))
        for name in ("two_branch_g1", "two_branch_g2", "two_branch_g3")
    )
    return Problem(
        SPD2,
        builtin_iv("two_branch_objective"),
        constraints,
        two_branch_domain(),
        name="lifted",
    )


class TestVerifyP4:
    def test_lifted_two_branch_problem_is_optimal(self):
        prob = lifted_two_branch_problem()
        p0 = SPD2.point(I2)
        cert = verify_p4(prob, p0, (1.0, 0.0, 0.0),
                         direction_samples(prob, p0, 12))
        assert cert.verdict is KktVerdict.OPTIMAL
        assert cert.label == "P4"
        assert cert.active_labels == ("g1",)

    def test_slackness_is_checked_by_the_hausdorff_distance(self):
        # g1 = <theta - 2.000000005, 0> is about 5e-9 from [0, 0] at theta = 2:
        # active, but a unit multiplier scales that distance past RESID_TOL
        f = IvFn.from_expressions("(theta - 2)^2", "0.1", CIRCLE)
        g1 = IvFn.from_expressions("theta - 2.000000005", "0", CIRCLE)
        prob, p0 = Problem(CIRCLE, f, (g1,), circle_domain()), CIRCLE.point(2.0)
        assert active_set(prob, p0) == (0,)
        cert = verify_p4(prob, p0, (1.0,), direction_samples(prob, p0, 4))
        assert cert.verdict is KktVerdict.INCONCLUSIVE
        assert cert.reason == ("complementary slackness fails: multiplier for g1 is 1.0 "
                               f"but g1 is {g1(p0)} at the candidate")

    def test_label_guard(self):
        with pytest.raises(ConfigError):
            verify_p4(PSTARSTAR.problem, PSTARSTAR.candidate, (1.0, 0.0, 0.0),
                      pstarstar_directions(2))

    def test_infeasible_candidate(self):
        prob = lifted_two_branch_problem()
        bad = SPD2.point(np.diag([2.0, 2.0]))  # breaks the logdet cap
        with pytest.raises(InfeasibleCandidateError):
            verify_p4(prob, bad, (1.0, 0.0, 0.0), [])

    def test_a_tested_center_is_evaluated_once_per_strictness_point(self):
        # the P4 problem file of the CI determinism step: its center is tested,
        # at the 32 strictness points once and at the candidate for the value
        prob = build_problem({
            "manifold": {"kind": "euclidean", "dim": 2},
            "objective": {"center": "(x1 - 1)^2 + (x2 - 1)^2",
                          "width": "0.5*((x1 - 1)^2 + (x2 - 1)^2) + 0.25"},
            "constraints": [{"center": "x1 + x2 - 1", "width": "0.1*(x1 + x2 - 1)^2"}],
        }).problem
        p0 = EUCLIDEAN2.point([0.5, 0.5])
        dirs = direction_samples(prob, p0, 12, seed=0)
        center, calls = prob.objective.center, []
        fn = center.fn
        object.__setattr__(center, "fn", lambda p: calls.append(p) or fn(p))
        cert = verify_p4(prob, p0, (1.0,), dirs, seed=0)
        assert cert.verdict is KktVerdict.STRICT_OPTIMAL
        assert cert.reason.startswith("stationarity of the center holds")
        assert len(calls) == kkt.STRICT_SAMPLES + 1


def _pairwise_distinct_loop(values) -> bool:
    """The pair loop that strictness ran before its array test: the reference."""
    for a_idx in range(len(values)):
        for b_idx in range(a_idx + 1, len(values)):
            a, b = values[a_idx], values[b_idx]
            gap = hausdorff(a, b) if isinstance(a, Interval) else abs(a - b)
            if gap <= kkt.DISTINCT_TOL:
                return False
    return True


def _strictness_cases() -> list:
    tol = kkt.DISTINCT_TOL
    below, above = np.nextafter(tol, 0.0), np.nextafter(tol, 1.0)
    cases = [[], [1.0], [Interval(0.0, 1.0)], [-0.0, 0.0],
             [Interval(-0.0, 1.0), Interval(0.0, 1.0)], [Interval(-1.0, -0.0), Interval(-1.0, 0.0)]]
    for gap in (below, tol, above):
        cases += [[0.0, gap], [gap, 5.0, 0.0],
                  [Interval(0.0, 0.5), Interval(gap, 0.5)],
                  [Interval(-1.0, 0.0), Interval(-1.0, gap)],
                  [Interval(0.0, 0.5), Interval(gap, 0.5 + gap)]]
    rng = np.random.default_rng(7)
    for _ in range(20):
        spread = rng.normal(size=32)
        clustered = rng.integers(0, 200, size=32) * tol
        cases.append(spread.tolist())
        cases.append(clustered.tolist())
        for centers in (spread, clustered):
            widths = rng.integers(0, 3, size=32) * rng.choice([tol, 1.0])
            cases.append([Interval.from_center_width(c, w)
                          for c, w in zip(centers.tolist(), widths.tolist())])
    return cases


class TestStrictness:
    def test_the_array_test_is_the_pair_loop(self):
        answers = []
        for values in _strictness_cases():
            answers.append(kkt._pairwise_distinct(values))
            assert answers[-1] is _pairwise_distinct_loop(values), values
        assert True in answers and False in answers

    def test_the_tolerance_edge(self):
        tol = kkt.DISTINCT_TOL
        assert kkt._pairwise_distinct([]) and kkt._pairwise_distinct([1.0])
        assert not kkt._pairwise_distinct([-0.0, 0.0])
        assert not kkt._pairwise_distinct([0.0, tol])
        assert kkt._pairwise_distinct([0.0, np.nextafter(tol, 1.0)])
        assert not kkt._pairwise_distinct([Interval(-1.0, 0.0), Interval(-1.0, tol)])
        assert kkt._pairwise_distinct([Interval(-1.0, 0.0),
                                       Interval(-1.0, np.nextafter(tol, 1.0))])

    @pytest.mark.parametrize("value", [0.0, -0.0, 3e-9, -2.5, Interval(-0.0, 0.0),
                                       Interval(-3.0, 1.0), Interval(-1e-9, 2e-9)])
    def test_the_gap_to_zero_is_the_hausdorff_distance(self, value):
        assert kkt._gap(value) == hausdorff(Interval(*endpoints(value)), ZERO)


class TestReduceP4:
    def test_pointwise_center_or_width_choice(self):
        away = IvFn(
            RealFn(EUCLIDEAN1, lambda p: -1.0),
            RealFn(EUCLIDEAN1, lambda p: 0.5),
            name="away",
        )
        pinned = IvFn(
            RealFn(EUCLIDEAN1, lambda p: 0.0),
            RealFn(EUCLIDEAN1, lambda p: 0.0),
            name="pinned",
        )
        prob = Problem(
            EUCLIDEAN1,
            IvFn.from_expressions("x1", "1", EUCLIDEAN1),
            (away, pinned),
            euclidean_box_domain(EUCLIDEAN1),
        )
        p = EUCLIDEAN1.point([0.3])
        reduced = reduce_p4(prob, p)
        assert reduced.label == "P3"
        assert reduced.constraints[0](p) == -1.0  # center decides
        assert reduced.constraints[1](p) == 0.0   # width decides

    def test_frozen_choice_at_a_point(self):
        prob = lifted_two_branch_problem()
        pfix = SPD2.point(np.diag([2.0**0.5, 2.0**0.5]))
        reduced = reduce_p4(prob, pfix=pfix)
        # centers are nonzero at pfix, so the originals come back
        originals = [builtin_real(n) for n in
                     ("two_branch_g1", "two_branch_g2", "two_branch_g3")]
        probe = SPD2.point(np.diag([1.0, 1.7]))
        for got, want in zip(reduced.constraints, originals):
            assert got(probe) == pytest.approx(want(probe), abs=1e-12)

    def test_a_frozen_choice_keeps_the_component_lanes(self):
        prob = Problem(
            CIRCLE,
            IvFn.from_expressions("(theta - 4)^2", "1", CIRCLE),
            (IvFn.from_expressions("1e4*exp(theta)", "0.1", CIRCLE),),
            circle_domain(),
        )
        p0 = CIRCLE.point(4.0)
        (g,) = reduce_p4(prob, pfix=p0).constraints
        center = prob.constraints[0].center
        assert g.name == "reduced[<1e4*exp(theta), 0.1>]"
        assert (g.compiled, g.dual, g.shape) == (center.compiled, center.dual, center.shape)
        # exact from the center's dual lane; the step ladder did not settle here
        assert dir_deriv(g, p0, CIRCLE.tangent(p0, 0.5)) == 272990.75016572117

    def test_lifted_reduction_matches_originals_on_samples(self):
        prob = lifted_two_branch_problem()
        # all three centers are nonzero at pfix, so each reduces to its center
        reduced = reduce_p4(prob, SPD2.point(np.diag([2.0**0.5, 2.0**0.5])))
        originals = [builtin_real(n) for n in
                     ("two_branch_g1", "two_branch_g2", "two_branch_g3")]
        rng = np.random.default_rng(4)
        dom = two_branch_domain()
        for _ in range(32):
            p = dom.draw_one(rng)
            for got, want in zip(reduced.constraints, originals):
                assert got(p) == pytest.approx(want(p), abs=1e-12)

    def test_requires_interval_constraints(self):
        with pytest.raises(ConfigError):
            reduce_p4(PSTARSTAR.problem, PSTARSTAR.candidate)


class TestBruteForce:
    def test_no_improvement_at_the_half_arc_candidate(self):
        assert brute_force_improvement(PSTAR.problem, PSTAR.candidate,
                                       n=800, strict=True) is None

    def test_improvement_found_at_suboptimal_point(self):
        better = brute_force_improvement(PSTAR.problem, CIRCLE.point(0.3),
                                         n=800)
        assert better is not None
        f = PSTAR.problem.objective
        assert f(better) < f(CIRCLE.point(0.3))

    def test_two_branch_candidate_unimprovable_but_tied(self):
        assert brute_force_improvement(PSTARSTAR.problem, PSTARSTAR.candidate,
                                       n=800) is None
        tied = brute_force_improvement(PSTARSTAR.problem, PSTARSTAR.candidate,
                                       n=800, strict=True)
        assert tied is not None
        assert PSTARSTAR.problem.objective(tied) == Interval(-1.0, 1.0)


class TestCertificateShape:
    def test_json_keys_and_labels(self):
        cert = verify_p2(PSTAR.problem, PSTAR.candidate, (0.0, 1.0, 0.0),
                         pstar_directions(4))
        blob = cert.to_json()
        assert blob["verdict"] == "StrictOptimal"
        assert blob["active_set"] == ["g1", "g2"]
        assert blob["active_indices"] == [0, 1]
        assert blob["multipliers"] == [0.0, 1.0, 0.0]
        assert blob["label"] == "P2"
        assert len(blob["residuals"]) == 4
        assert all(set(r) == {"index", "direction", "residual", "ok"}
                   for r in blob["residuals"])


# -- pinned certificates ---------------------------------------------------

PINNED_PATH = Path(__file__).parent / "data" / "kkt_pinned_certificates.json"
E2_QUAD = "(x1 - 1)^2 + (x2 - 1)^2"  # (0.5, 0.5) is its minimiser on x1 + x2 <= 1


def _pinned_cases() -> dict:
    """Verifier runs with given multipliers on circle and Euclidean problems.

    name -> (verifier, problem, candidate, multipliers).
    """
    circle = lambda objective, constraints=(): Problem(
        CIRCLE, objective, constraints, circle_domain()
    )
    plane = lambda objective, constraints: Problem(
        EUCLIDEAN2, objective, constraints, euclidean_box_domain(EUCLIDEAN2)
    )
    iv_circle = lambda c, w: IvFn.from_expressions(c, w, CIRCLE)
    iv_plane = lambda c, w: IvFn.from_expressions(c, w, EUCLIDEAN2)
    half_arc, pi_pt = CIRCLE.point(HALF_PI), CIRCLE.point(math.pi)
    corner = EUCLIDEAN2.point([0.5, 0.5])
    halfspace = (RealFn.from_expression("x1 + x2 - 1", EUCLIDEAN2),)
    iv_halfspace = (iv_plane("x1 + x2 - 1", "0.1*(x1 + x2 - 1)^2"),)
    iv_arc_cap = (iv_circle("theta - 2.5", "0.3*(theta - 2.5)^2"),)
    recast = iv_circle("(theta - pi/2)^2", "0")
    flat_center = iv_circle("5", "(theta - pi/2)^2 + 1")
    bowl = iv_circle("(theta - pi/2)^2", "(theta - pi/2)^2 + 1")
    cap = CIRCLE.point(2.5)
    return {
        "p2-circle-half-arc": (verify_p2, PSTAR.problem, PSTAR.candidate, (0.0, 1.0, 0.0)),
        "p2-circle-slackness": (verify_p2, PSTAR.problem, PSTAR.candidate, (0.0, 0.0, 1.0)),
        "p2-circle-descent": (
            verify_p2, circle(RealFn.from_expression("theta^2", CIRCLE)), half_arc, ()),
        "p2-euclid-halfspace": (
            verify_p2, plane(RealFn.from_expression(E2_QUAD, EUCLIDEAN2), halfspace),
            corner, (1.0,)),
        "p3-circle-bowl": (
            verify_p3, circle(bowl, circle_real_constraints()), half_arc, (0.0, 1.0, 0.0)),
        "p3-circle-descent": (
            verify_p3, circle(iv_circle("theta", "1")), pi_pt, ()),
        "p3-circle-decreasing-width": (
            verify_p3, circle(iv_circle("(theta - pi)^2", "2*pi - theta")), pi_pt, ()),
        "p3-euclid-halfspace": (
            verify_p3, plane(iv_plane(E2_QUAD, f"0.5*({E2_QUAD}) + 0.25"), halfspace),
            corner, (1.0,)),
        "p3_split-circle-center": (
            verify_p3_split, circle(recast, circle_real_constraints()), half_arc,
            (0.0, 1.0, 0.0)),
        "p3_split-circle-width": (
            verify_p3_split, circle(flat_center, circle_real_constraints()), half_arc,
            (0.0, 1.0, 0.0)),
        "p3_split-circle-flat": (
            verify_p3_split, circle(iv_circle("5", "1"), circle_real_constraints()), half_arc,
            (0.0, 0.0, 0.0)),
        "p3_split-euclid-center": (
            verify_p3_split, plane(iv_plane(E2_QUAD, "0.25"), halfspace), corner, (1.0,)),
        "p3_split-euclid-width": (
            verify_p3_split, plane(iv_plane("3", f"{E2_QUAD} + 1"), halfspace),
            corner, (1.0,)),
        "p4-circle-center": (
            verify_p4, circle(iv_circle("(theta - 4)^2", "0.5*(theta - 4)^2 + 0.2"), iv_arc_cap),
            cap, (3.0,)),
        "p4-circle-center-zero-multiplier": (
            verify_p4, circle(iv_circle("(theta - 4)^2", "0.5*(theta - 4)^2 + 0.2"), iv_arc_cap),
            cap, (0.0,)),
        "p4-circle-interior": (
            verify_p4, circle(iv_circle("(theta - 4)^2", "0.5*(theta - 2)^2 + 0.2"), iv_arc_cap),
            CIRCLE.point(2.0), (0.0,)),
        "p4-circle-constraint-width-gate": (
            verify_p4,
            circle(iv_circle("(theta - 4)^2", "0.5*(theta - 4)^2 + 0.2"),
                   (iv_circle("theta - 2.5", "((theta - 2.5)*(theta - 1.5))^2"),)),
            cap, (3.0,)),
        "p4-circle-width": (
            verify_p4, circle(iv_circle("2", "(theta - 4)^2 + 0.2"), iv_arc_cap),
            cap, (3.0,)),
        "p4-euclid-center": (
            verify_p4, plane(iv_plane(E2_QUAD, f"0.5*({E2_QUAD}) + 0.25"), iv_halfspace),
            corner, (1.0,)),
        "p4-euclid-width": (
            verify_p4, plane(iv_plane("3", f"{E2_QUAD} + 0.5"), iv_halfspace),
            corner, (1.0,)),
    }


def pinned_certificates() -> dict:
    """Certificate JSON of every pinned case.

    The fixture at PINNED_PATH holds this output as captured before the
    verifiers were folded into one pipeline; regenerate it only for an
    intended change of verifier output.
    """
    out = {}
    for name, (verify, prob, p0, mu) in _pinned_cases().items():
        directions = direction_samples(prob, p0, 8, seed=3)
        out[name] = verify(prob, p0, mu, directions, seed=3).to_json()
    return out


PINNED = json.loads(PINNED_PATH.read_text(encoding="utf-8"))


class TestPinnedCertificates:
    @pytest.fixture(scope="class")
    def current(self):
        return pinned_certificates()

    def test_cases_match_the_fixture(self, current):
        assert sorted(current) == sorted(PINNED)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_certificate_matches(self, name, current):
        got, want = current[name], PINNED[name]
        assert set(got) == set(want)
        for key in want:
            if key != "residuals":
                assert got[key] == want[key], key
        assert len(got["residuals"]) == len(want["residuals"])
        for g, w in zip(got["residuals"], want["residuals"]):
            assert (g["index"], g["ok"]) == (w["index"], w["ok"])
            for part in ("direction", "residual"):
                assert np.allclose(g[part], w[part], rtol=0.0, atol=1e-12), part

    def test_fixture_covers_every_verdict_and_mode(self):
        verdicts = {c["verdict"] for c in PINNED.values()}
        assert verdicts == {"Optimal", "StrictOptimal", "Inconclusive"}
        reasons = " | ".join(c["reason"] for c in PINNED.values())
        for text in ("(residual [", "(residual -", "stationarity of the center fails",
                     "stationarity of the width", "along sampled geodesics",
                     "complementary slackness", "repeat on sampled feasible points"):
            assert text in reasons


class TestNoDirections:
    @pytest.mark.parametrize("name", sorted(_pinned_cases()))
    def test_every_verifier_refuses_an_empty_direction_list(self, name):
        # stationarity over no direction would certify anything
        verify, prob, p0, mu = _pinned_cases()[name]
        with pytest.raises(ConfigError, match="no directions to test"):
            verify(prob, p0, mu, [], seed=3)
        with pytest.raises(ConfigError, match="no directions to test"):
            verify(prob, p0, mu, direction_samples(prob, p0, 0, seed=3), seed=3)

    def test_find_multipliers_refuses_an_empty_direction_list(self):
        # all-zero multipliers over no direction would be a vacuous answer
        J = active_set(PSTAR.problem, PSTAR.candidate)
        for directions in ([], direction_samples(PSTAR.problem, PSTAR.candidate, 0, seed=3)):
            with pytest.raises(ConfigError, match="^no directions to test: stationarity needs at "
                                                  "least one$"):
                find_multipliers(PSTAR.problem, PSTAR.candidate, J, directions)


class TestOnePipeline:
    def _count_draws(self, monkeypatch):
        calls = []
        original = kkt._feasible_points

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(kkt, "_feasible_points", counting)
        return calls

    @pytest.mark.parametrize("name", [
        "p3_split-circle-center", "p3_split-euclid-width",
        "p4-circle-center", "p4-euclid-width",
    ])
    def test_split_verifiers_draw_feasible_points_once(self, name, monkeypatch):
        calls = self._count_draws(monkeypatch)
        verify, prob, p0, mu = _pinned_cases()[name]
        verify(prob, p0, mu, direction_samples(prob, p0, 4, seed=3), seed=3)
        assert len(calls) == 1

    def test_unsplit_failure_draws_nothing(self, monkeypatch):
        calls = self._count_draws(monkeypatch)
        verify, prob, p0, mu = _pinned_cases()["p2-circle-descent"]
        cert = verify(prob, p0, mu, direction_samples(prob, p0, 4, seed=3), seed=3)
        assert cert.verdict is KktVerdict.INCONCLUSIVE
        assert calls == []

    def _verify_drawing(self, monkeypatch, verify, prob, p0, mu) -> tuple:
        """(certificate, points drawn) of one run on 4 directions, counting the
        points the proposal streams hand out plus any draw_one call made
        outside a stream."""
        directions = direction_samples(prob, p0, 4, seed=3)
        draws, in_stream = [], []
        take, draw_one = ProposalStream.take, DomainSampler.draw_one

        def counting_take(stream, m, apart_from=None):
            in_stream.append(True)
            try:
                points, features = take(stream, m, apart_from)
            finally:
                in_stream.pop()
            draws.extend(points)
            return points, features

        def counting_draw_one(sampler, *args, **kwargs):
            q = draw_one(sampler, *args, **kwargs)
            if not in_stream:
                draws.append(q)
            return q

        with monkeypatch.context() as patch:
            patch.setattr(ProposalStream, "take", counting_take)
            patch.setattr(DomainSampler, "draw_one", counting_draw_one)
            cert = verify(prob, p0, mu, directions, seed=3)
        return cert, draws

    def test_hypotheses_draw_their_targets_once(self, monkeypatch):
        # objective and one active constraint, both interval-valued and
        # checked componentwise, each with a component the curvature rules
        # cannot decide: 16 hypothesis targets plus 32 strictness points (four
        # 16-target redraws plus 32 before the targets were shared)
        verify, pinned, p0, mu = _pinned_cases()["p4-circle-center"]
        prob = circle_problem(*undecided_p4_circle_center())
        assert not any(map(kkt._proved_convex, (prob.objective,) + prob.constraints))
        cert, draws = self._verify_drawing(monkeypatch, verify, prob, p0, mu)
        assert cert.active_set == (0,)
        assert len(cert.hypothesis_report) == 2
        assert len(draws) == 48
        # a product of non-constants in place of a square, with the same
        # values, so the certificate is the pinned case's
        want, _ = self._verify_drawing(monkeypatch, verify, pinned, p0, mu)
        assert cert.to_json() == want.to_json()

    def test_proved_hypotheses_draw_nothing(self, monkeypatch):
        # every function of the pinned case is proved convex, so only the 32
        # strictness points are drawn
        verify, prob, p0, mu = _pinned_cases()["p4-circle-center"]
        assert all(map(kkt._proved_convex, (prob.objective,) + prob.constraints))
        cert, draws = self._verify_drawing(monkeypatch, verify, prob, p0, mu)
        assert len(cert.hypothesis_report) == 2
        assert all(check.holds for check in cert.hypothesis_report)
        assert len(draws) == 32

    def test_mixed_hypotheses_match_the_sampled_certificate(self, monkeypatch):
        # a proved objective next to an undecided constraint: the same
        # certificate as with every stored shape unknown
        verify, _, p0, mu = _pinned_cases()["p4-circle-center"]

        def mixed():
            objective, _ = proved_p4_circle_center()
            _, constraints = undecided_p4_circle_center()
            return circle_problem(objective, constraints)

        prob = mixed()
        assert kkt._proved_convex(prob.objective)
        assert not kkt._proved_convex(prob.constraints[0])
        cert, draws = self._verify_drawing(monkeypatch, verify, prob, p0, mu)
        assert len(draws) == 48
        without_proofs(monkeypatch)
        sampled, _ = self._verify_drawing(monkeypatch, verify, mixed(), p0, mu)
        assert json.dumps(cert.to_json()) == json.dumps(sampled.to_json())


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestProvedHypotheses:
    """Proved convexity hypotheses give the certificates sampled ones give."""

    @staticmethod
    def _kkt_flat_verifications(seed: int) -> list:
        """The certificate JSON, or the error text, of each kkt-flat verify
        task at this seed, with the problems built now."""
        import wl_kkt

        out = []
        for spec in wl_kkt.specs(seed):
            loaded = pstar_problem() if spec["cfg"] is None else build_problem(spec["cfg"])
            prob, p0 = loaded.problem, loaded.candidate
            directions = direction_samples(prob, p0, wl_kkt.DIRECTIONS, seed=spec["seed"])
            verify = getattr(kkt, "verify_" + spec["verify"])
            try:
                cert = verify(prob, p0, spec["mu"], directions, seed=spec["seed"])
                out.append(json.dumps(cert.to_json()))
            except IvoptError as exc:
                out.append(f"{type(exc).__name__}: {exc}")
        return out

    def test_kkt_flat_is_byte_identical_without_proofs(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        proved, decide = [], kkt._proved_convex

        def counted(fn):
            proved.append(decide(fn))
            return proved[-1]

        monkeypatch.setattr(kkt, "_proved_convex", counted)
        with_proofs = self._kkt_flat_verifications(1)
        # most hypotheses are proved; Pstar's active g2 is not
        assert sum(proved) > 0.9 * len(proved) and not all(proved)
        without_proofs(monkeypatch)
        proved.clear()
        assert self._kkt_flat_verifications(1) == with_proofs
        assert not any(proved)
