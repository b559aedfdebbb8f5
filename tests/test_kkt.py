"""First-order optimality verifiers: active sets, multipliers, certificates."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ivopt import kkt
from ivopt.convexity import DomainSampler, ProposalStream
from ivopt.errors import (
    ConfigError,
    InfeasibleCandidateError,
    IvoptError,
    ModeMismatchError,
)
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
from ivopt.interval import Interval
from ivopt.kkt import (
    KktVerdict,
    Problem,
    SplitMode,
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
    circle_domain,
    euclidean_box_domain,
    pstar_problem,
    pstarstar_problem,
    two_branch_domain,
)

I2 = np.eye(2)
HALF_PI = math.pi / 2.0

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

    def test_multiplier_validation(self):
        with pytest.raises(ConfigError):
            verify_p2(PSTAR.problem, PSTAR.candidate, (0.0, 1.0),
                      pstar_directions(2))
        with pytest.raises(ConfigError):
            verify_p2(PSTAR.problem, PSTAR.candidate, (0.0, -1.0, 0.0),
                      pstar_directions(2))

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
        # theta = 2 steps over the dip, the derivative's step ladder does not
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
            "objective width non-decreasing on the step ladder: fails along direction 1"
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
                               direction_samples(prob, p0, 12),
                               mode=SplitMode.CENTER_NONCONSTANT)
        assert cert.verdict is KktVerdict.STRICT_OPTIMAL

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
                               direction_samples(prob, p0, 12),
                               mode=SplitMode.CENTER_CONSTANT)
        assert cert.verdict is KktVerdict.STRICT_OPTIMAL

    def test_fully_constant_objective_is_plain_optimal(self):
        prob = Problem(
            CIRCLE,
            IvFn.from_expressions("5", "1", CIRCLE),
            circle_real_constraints(),
            circle_domain(),
        )
        p0 = CIRCLE.point(HALF_PI)
        cert = verify_p3_split(prob, p0, (0.0, 0.0, 0.0),
                               direction_samples(prob, p0, 8),
                               mode=SplitMode.CENTER_CONSTANT)
        assert cert.verdict is KktVerdict.OPTIMAL

    def test_mode_mismatch_detected(self):
        prob = Problem(
            CIRCLE,
            IvFn.from_expressions("(theta - pi/2)^2", "0", CIRCLE),
            circle_real_constraints(),
            circle_domain(),
        )
        p0 = CIRCLE.point(HALF_PI)
        directions = direction_samples(prob, p0, 4)
        with pytest.raises(ModeMismatchError):
            verify_p3_split(prob, p0, (0.0, 1.0, 0.0), directions,
                            mode=SplitMode.CENTER_CONSTANT)
        flat = Problem(
            CIRCLE,
            IvFn.from_expressions("5", "1", CIRCLE),
            circle_real_constraints(),
            circle_domain(),
        )
        with pytest.raises(ModeMismatchError):
            verify_p3_split(flat, p0, (0.0, 1.0, 0.0),
                            direction_samples(flat, p0, 4),
                            mode=SplitMode.CENTER_NONCONSTANT)


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
                         direction_samples(prob, p0, 12),
                         mode=SplitMode.CENTER_NONCONSTANT)
        assert cert.verdict is KktVerdict.OPTIMAL
        assert cert.label == "P4"
        assert cert.active_labels == ("g1",)

    def test_mode_mismatch(self):
        prob = lifted_two_branch_problem()
        p0 = SPD2.point(I2)
        directions = direction_samples(prob, p0, 4)
        with pytest.raises(ModeMismatchError):
            verify_p4(prob, p0, (1.0, 0.0, 0.0), directions,
                      mode=SplitMode.CENTER_CONSTANT)

    def test_label_guard(self):
        with pytest.raises(ConfigError):
            verify_p4(PSTARSTAR.problem, PSTARSTAR.candidate, (1.0, 0.0, 0.0),
                      pstarstar_directions(2))

    def test_infeasible_candidate(self):
        prob = lifted_two_branch_problem()
        bad = SPD2.point(np.diag([2.0, 2.0]))  # breaks the logdet cap
        with pytest.raises(InfeasibleCandidateError):
            verify_p4(prob, bad, (1.0, 0.0, 0.0), [])


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
        reduced = reduce_p4(prob)
        assert reduced.label == "P3"
        p = EUCLIDEAN1.point([0.3])
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

    def test_lifted_reduction_matches_originals_on_samples(self):
        prob = lifted_two_branch_problem()
        reduced = reduce_p4(prob)
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
            reduce_p4(PSTARSTAR.problem)


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

    name -> (verifier, problem, candidate, multipliers, keyword arguments).
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
    cnc, cc = {"mode": SplitMode.CENTER_NONCONSTANT}, {"mode": SplitMode.CENTER_CONSTANT}
    return {
        "p2-circle-half-arc": (verify_p2, PSTAR.problem, PSTAR.candidate, (0.0, 1.0, 0.0), {}),
        "p2-circle-slackness": (verify_p2, PSTAR.problem, PSTAR.candidate, (0.0, 0.0, 1.0), {}),
        "p2-circle-descent": (
            verify_p2, circle(RealFn.from_expression("theta^2", CIRCLE)), half_arc, (), {}),
        "p2-euclid-halfspace": (
            verify_p2, plane(RealFn.from_expression(E2_QUAD, EUCLIDEAN2), halfspace),
            corner, (1.0,), {}),
        "p3-circle-bowl": (
            verify_p3, circle(bowl, circle_real_constraints()), half_arc, (0.0, 1.0, 0.0), {}),
        "p3-circle-descent": (
            verify_p3, circle(iv_circle("theta", "1")), pi_pt, (), {}),
        "p3-circle-decreasing-width": (
            verify_p3, circle(iv_circle("(theta - pi)^2", "2*pi - theta")), pi_pt, (), {}),
        "p3-euclid-halfspace": (
            verify_p3, plane(iv_plane(E2_QUAD, f"0.5*({E2_QUAD}) + 0.25"), halfspace),
            corner, (1.0,), {}),
        "p3_split-circle-center": (
            verify_p3_split, circle(recast, circle_real_constraints()), half_arc,
            (0.0, 1.0, 0.0), cnc),
        "p3_split-circle-width": (
            verify_p3_split, circle(flat_center, circle_real_constraints()), half_arc,
            (0.0, 1.0, 0.0), cc),
        "p3_split-circle-mismatch": (
            verify_p3_split, circle(recast, circle_real_constraints()), half_arc,
            (0.0, 1.0, 0.0), cc),
        "p3_split-circle-flat": (
            verify_p3_split, circle(iv_circle("5", "1"), circle_real_constraints()), half_arc,
            (0.0, 0.0, 0.0), cc),
        "p3_split-euclid-center": (
            verify_p3_split, plane(iv_plane(E2_QUAD, "0.25"), halfspace), corner, (1.0,), cnc),
        "p3_split-euclid-width": (
            verify_p3_split, plane(iv_plane("3", f"{E2_QUAD} + 1"), halfspace),
            corner, (1.0,), cc),
        "p4-circle-center": (
            verify_p4, circle(iv_circle("(theta - 4)^2", "0.5*(theta - 4)^2 + 0.2"), iv_arc_cap),
            cap, (3.0,), cnc),
        "p4-circle-center-zero-multiplier": (
            verify_p4, circle(iv_circle("(theta - 4)^2", "0.5*(theta - 4)^2 + 0.2"), iv_arc_cap),
            cap, (0.0,), cnc),
        "p4-circle-interior": (
            verify_p4, circle(iv_circle("(theta - 4)^2", "0.5*(theta - 2)^2 + 0.2"), iv_arc_cap),
            CIRCLE.point(2.0), (0.0,), cnc),
        "p4-circle-constraint-width-gate": (
            verify_p4,
            circle(iv_circle("(theta - 4)^2", "0.5*(theta - 4)^2 + 0.2"),
                   (iv_circle("theta - 2.5", "((theta - 2.5)*(theta - 1.5))^2"),)),
            cap, (3.0,), cnc),
        "p4-circle-width": (
            verify_p4, circle(iv_circle("2", "(theta - 4)^2 + 0.2"), iv_arc_cap),
            cap, (3.0,), cc),
        "p4-euclid-center": (
            verify_p4, plane(iv_plane(E2_QUAD, f"0.5*({E2_QUAD}) + 0.25"), iv_halfspace),
            corner, (1.0,), cnc),
        "p4-euclid-width": (
            verify_p4, plane(iv_plane("3", f"{E2_QUAD} + 0.5"), iv_halfspace),
            corner, (1.0,), cc),
        "p4-euclid-mismatch": (
            verify_p4, plane(iv_plane(E2_QUAD, "0.25"), iv_halfspace), corner, (1.0,), cc),
    }


def pinned_certificates() -> dict:
    """Certificate JSON, or the error text, of every pinned case.

    The fixture at PINNED_PATH holds this output as captured before the
    verifiers were folded into one pipeline; regenerate it only for an
    intended change of verifier output.
    """
    out = {}
    for name, (verify, prob, p0, mu, kwargs) in _pinned_cases().items():
        directions = direction_samples(prob, p0, 8, seed=3)
        try:
            out[name] = verify(prob, p0, mu, directions, seed=3, **kwargs).to_json()
        except IvoptError as exc:
            out[name] = f"{type(exc).__name__}: {exc}"
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
        if isinstance(want, str):
            assert got == want
            return
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
        verdicts = {c["verdict"] for c in PINNED.values() if isinstance(c, dict)}
        assert verdicts == {"Optimal", "StrictOptimal", "Inconclusive"}
        reasons = " | ".join(c["reason"] for c in PINNED.values() if isinstance(c, dict))
        for text in ("(residual [", "(residual -", "stationarity of the center fails",
                     "stationarity of the width", "along sampled geodesics",
                     "complementary slackness", "repeat on sampled feasible points"):
            assert text in reasons
        errors = [c for c in PINNED.values() if isinstance(c, str)]
        assert errors and all(e.startswith("ModeMismatchError: ") for e in errors)


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
        "p4-circle-center", "p4-euclid-width", "p4-euclid-mismatch",
    ])
    def test_split_verifiers_draw_feasible_points_once(self, name, monkeypatch):
        calls = self._count_draws(monkeypatch)
        verify, prob, p0, mu, kwargs = _pinned_cases()[name]
        directions = direction_samples(prob, p0, 4, seed=3)
        try:
            verify(prob, p0, mu, directions, seed=3, **kwargs)
        except ModeMismatchError:
            pass
        assert len(calls) == 1

    def test_unsplit_failure_draws_nothing(self, monkeypatch):
        calls = self._count_draws(monkeypatch)
        verify, prob, p0, mu, kwargs = _pinned_cases()["p2-circle-descent"]
        cert = verify(prob, p0, mu, direction_samples(prob, p0, 4, seed=3), seed=3)
        assert cert.verdict is KktVerdict.INCONCLUSIVE
        assert calls == []

    @pytest.mark.parametrize("name", ["p4-circle-center", "p4-euclid-width",
                                      "p3_split-circle-width"])
    def test_mode_none_picks_the_sampled_mode(self, name):
        verify, prob, p0, mu, kwargs = _pinned_cases()[name]
        directions = direction_samples(prob, p0, 8, seed=3)
        picked = verify(prob, p0, mu, directions, mode=None, seed=3)
        assert picked.to_json() == verify(prob, p0, mu, directions, seed=3, **kwargs).to_json()

    def test_hypotheses_draw_their_targets_once(self, monkeypatch):
        # objective and one active constraint, both interval-valued and
        # checked componentwise: 16 hypothesis targets plus 32 strictness
        # points (four 16-target redraws plus 32 before the targets were shared),
        # counted as the points the proposal streams hand out plus any
        # draw_one call made outside a stream
        verify, prob, p0, mu, kwargs = _pinned_cases()["p4-circle-center"]
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

        monkeypatch.setattr(ProposalStream, "take", counting_take)
        monkeypatch.setattr(DomainSampler, "draw_one", counting_draw_one)
        cert = verify(prob, p0, mu, directions, seed=3, **kwargs)
        assert cert.active_set == (0,)
        assert len(cert.hypothesis_report) == 2
        assert len(draws) == 48
