"""Problem-file parsing, default domains, and the bundled scenario runner."""

import json
import math
import re

import numpy as np
import pytest

from ivopt.errors import ConfigError, NegativeWidthError, NonPositiveDefiniteError
from ivopt.functions import CIRCLE, SPD2
from ivopt.kkt import brute_force_improvement, direction_samples
from ivopt.manifolds import Euclidean, Spd, TWO_PI
from ivopt.problems import (
    build_problem,
    circle_domain,
    default_domain,
    euclidean_box_domain,
    load_problem,
    parse_manifold,
    parse_point,
    parse_point_text,
    pstar_problem,
    pstarstar_problem,
    run_repro,
    scenario_ids,
    spd_domain,
    two_branch_domain,
)

RNG = np.random.default_rng(7)


def pstar_config(**overrides):
    cfg = {
        "manifold": {"kind": "circle"},
        "objective": {"real": "(theta - pi/2)^2"},
        "constraints": [
            {"real": "theta - pi/2"},
            {"real": "exp(-(theta - pi/2)^2) - 1"},
            {"real": "(2*theta/pi - 1) - (theta - pi/2)^2 - 1"},
        ],
        "candidate": {"theta": math.pi / 2.0},
        "options": {"seed": 11},
        "name": "half-arc",
    }
    cfg.update(overrides)
    return cfg


class TestDomainSamplers:
    def test_circle_arc_bounds_checked(self):
        dom = circle_domain(0.5, 1.0)
        for _ in range(20):
            p = dom.draw_one(RNG)
            assert 0.5 <= p.value <= 1.0
        for lo, hi in [(-0.1, 1.0), (1.0, 1.0), (2.0, 1.0), (0.0, TWO_PI + 1.0)]:
            with pytest.raises(ConfigError):
                circle_domain(lo, hi)

    def test_euclidean_box(self):
        e2 = Euclidean(2)
        dom = euclidean_box_domain(e2, [(-1.0, 0.0), (3.0, 4.0)])
        p = dom.draw_one(RNG)
        assert -1.0 <= p.value[0] <= 0.0 and 3.0 <= p.value[1] <= 4.0
        assert not dom.membership(e2.point([0.5, 3.5]))
        with pytest.raises(ConfigError):
            euclidean_box_domain(e2, [(-1.0, 0.0)])
        with pytest.raises(ConfigError):
            euclidean_box_domain(e2, [(0.0, 0.0), (3.0, 4.0)])

    def test_spd_domain(self):
        dom = spd_domain(Spd(2))
        p = dom.draw_one(RNG)
        assert np.all(np.linalg.eigvalsh(p.value) > 0.0)
        with pytest.raises(ConfigError):
            spd_domain(Spd(2), scale=0.0)

    def test_two_branch_domain_samples_stay_on_the_union(self):
        dom = two_branch_domain()
        for _ in range(50):
            p = dom.draw_one(RNG)
            assert dom.membership(p)

    def test_default_domain_overrides(self):
        arc = default_domain(CIRCLE, {"arc": [1.0, 2.0]})
        assert all(1.0 <= arc.draw_one(RNG).value <= 2.0 for _ in range(10))
        box = default_domain(Euclidean(1), {"box": [[0.0, 1.0]]})
        assert 0.0 <= box.draw_one(RNG).value[0] <= 1.0
        default_domain(Spd(2), {"scale": 0.5})
        with pytest.raises(ConfigError):
            default_domain(CIRCLE, {"arc": [1.0, 2.0], "oops": 1})
        with pytest.raises(ConfigError):
            default_domain(CIRCLE, {"arc": [1.0]})


EUCLID1 = {"kind": "euclidean", "dim": 1}
SPD_2 = {"kind": "spd", "dim": 2}

# problem files whose domain numbers the default samplers cannot draw from:
# (manifold, objective, candidate, options.domain, key the error names)
BAD_DOMAINS = {
    "box-overflow": (EUCLID1, "x1^2", [0.5], {"box": [[-1e308, 1e308]]}, "domain.box"),
    "box-nan": (EUCLID1, "x1^2", [0.5], {"box": [[math.nan, 1.0]]}, "domain.box"),
    "box-inf": (EUCLID1, "x1^2", [0.5], {"box": [[0.0, math.inf]]}, "domain.box"),
    "box-minus-inf": (EUCLID1, "x1^2", [0.5], {"box": [[-math.inf, 1.0]]}, "domain.box"),
    "scale-nan": (SPD_2, "logdet^2", [[1.0, 0.0], [0.0, 1.0]], {"scale": math.nan},
                  "domain.scale"),
    "scale-inf": (SPD_2, "logdet^2", [[1.0, 0.0], [0.0, 1.0]], {"scale": math.inf},
                  "domain.scale"),
    "arc-nan": ({"kind": "circle"}, "theta^2", 0.5, {"arc": [math.nan, 1.0]}, "arc"),
    "arc-inf": ({"kind": "circle"}, "theta^2", 0.5, {"arc": [0.0, math.inf]}, "arc"),
}
BAD_DOMAIN_CASES = pytest.mark.parametrize(
    "manifold, objective, candidate, domain, key",
    list(BAD_DOMAINS.values()),
    ids=list(BAD_DOMAINS),
)


def bad_domain_config(manifold, objective, candidate, domain) -> dict:
    return {"manifold": manifold, "objective": {"real": objective},
            "constraints": [], "candidate": candidate, "options": {"domain": domain}}


@BAD_DOMAIN_CASES
def test_unsamplable_domain_numbers_are_rejected(manifold, objective, candidate, domain, key):
    with pytest.raises(ConfigError, match=key):
        build_problem(bad_domain_config(manifold, objective, candidate, domain))


CIRCLE_M = {"kind": "circle"}
SPD_I = [[1.0, 0.0], [0.0, 1.0]]
ROT = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
NO_FACTOR = ROT @ np.diag([1e5, 2e-12]) @ ROT.T

# problem files with a value that is not a number, or not a list of them,
# where one is due: (manifold, objective, candidate, options.domain, key)
MALFORMED_NUMBERS = {
    "box-number": (EUCLID1, "x1^2", [0.5], {"box": 5}, "options.domain.box"),
    "box-short-pair": (EUCLID1, "x1^2", [0.5], {"box": [[1]]}, "options.domain.box"),
    "box-long-pair": (EUCLID1, "x1^2", [0.5], {"box": [[0, 1, 2]]}, "options.domain.box"),
    "box-string": (EUCLID1, "x1^2", [0.5], {"box": [["a", 1]]}, "options.domain.box"),
    "scale-null": (SPD_2, "logdet^2", SPD_I, {"scale": None}, "options.domain.scale"),
    "scale-list": (SPD_2, "logdet^2", SPD_I, {"scale": [1]}, "options.domain.scale"),
    "scale-string": (SPD_2, "logdet^2", SPD_I, {"scale": "x"}, "options.domain.scale"),
    "arc-null": (CIRCLE_M, "theta^2", 0.5, {"arc": [None, 1]}, "options.domain.arc"),
    "arc-string": (CIRCLE_M, "theta^2", 0.5, {"arc": ["a", 1]}, "options.domain.arc"),
    "circle-list": (CIRCLE_M, "theta^2", [1], {}, "candidate"),
    "circle-theta-list": (CIRCLE_M, "theta^2", {"theta": [1]}, {}, "candidate.theta"),
    "euclid-object": (EUCLID1, "x1^2", {"x": 1}, {}, "candidate"),
    # a JSON true or false is a Python bool, which float() takes as 1 or 0
    "scale-bool": (SPD_2, "logdet^2", SPD_I, {"scale": True}, "options.domain.scale"),
    "arc-bool": (CIRCLE_M, "theta^2", 0.5, {"arc": [False, True]}, "options.domain.arc"),
    "box-bool": (EUCLID1, "x1^2", [0.5], {"box": [[False, True]]}, "options.domain.box"),
    "circle-bool": (CIRCLE_M, "theta^2", True, {}, "candidate"),
    "circle-theta-bool": (CIRCLE_M, "theta^2", {"theta": False}, {}, "candidate.theta"),
    "euclid-bool": ({"kind": "euclidean", "dim": 2}, "x1^2", [True, False], {}, "candidate"),
    "spd-bool": (SPD_2, "logdet^2", [[1.0, 0.0], [0.0, True]], {}, "candidate"),
}
MALFORMED_NUMBER_CASES = pytest.mark.parametrize(
    "manifold, objective, candidate, domain, key",
    list(MALFORMED_NUMBERS.values()),
    ids=list(MALFORMED_NUMBERS),
)


@MALFORMED_NUMBER_CASES
def test_malformed_numbers_name_their_key(manifold, objective, candidate, domain, key):
    with pytest.raises(ConfigError, match="^" + re.escape(key) + " must "):
        build_problem(bad_domain_config(manifold, objective, candidate, domain))


@pytest.mark.parametrize("manifold, text, flag", [
    (CIRCLE, "[1]", "--point"),
    (SPD2, '{"a": 1}', "--at"),
    (CIRCLE, "true", "--point"),
    (CIRCLE, '{"theta": false}', "--point.theta"),
    (Euclidean(2), "[1, true]", "--point"),
    (SPD2, "[[1, 0], [0, true]]", "--at"),
])
def test_malformed_point_text_names_the_flag(manifold, text, flag):
    with pytest.raises(ConfigError, match="^" + flag + " must "):
        parse_point_text(manifold, text, flag.split(".")[0])


def test_numbers_accepted_before_stay_accepted():
    assert default_domain(CIRCLE, {"arc": ["1", 2]}).name == "circle[1,2]"
    assert default_domain(Spd(2), {"scale": "0.5"}).name == "spd(scale=0.5)"
    assert default_domain(Euclidean(1), {"box": [("0", 1)]}).name == "box[(0.0, 1.0)]"
    box = euclidean_box_domain(Euclidean(2), np.array([[0, 1], [-1, 0]]))
    assert box.name == "box[(0.0, 1.0), (-1.0, 0.0)]"
    assert parse_point(CIRCLE, "1.5").value == 1.5
    assert parse_point(CIRCLE, {"theta": "1.5"}).value == 1.5
    assert list(parse_point(Euclidean(2), ["1", 2]).value) == [1.0, 2.0]


@pytest.mark.parametrize("spec, objective, raw, where, cause", [
    (SPD_2, "trace", [[1]], "candidate", "expected a 2x2 matrix, got shape (1, 1)"),
    (SPD_2, "trace", [[1, 0], [0, 0]], "candidate", "matrix is not positive definite"),
    (SPD_2, "trace", [[1, 1e999], [1e999, 1]], "candidate", "matrix entries must be finite"),
    ({"kind": "euclidean", "dim": 2}, "x1", [1, 2, 3], "candidate",
     "expected a length-2 vector"),
    ({"kind": "circle"}, "theta", 7.0, "candidate", "angle 7.0 outside the chart range"),
    ({"kind": "circle"}, "theta", {"theta": -1}, "candidate.theta",
     "angle -1.0 outside the chart range"),
    # its smallest eigenvalue passes the floor, but it has no Cholesky factor
    (SPD_2, "trace", NO_FACTOR.tolist(), "candidate", "matrix has no Cholesky factor"),
])
def test_a_point_the_manifold_rejects_names_its_key(spec, objective, raw, where, cause):
    cfg = {"manifold": spec, "objective": {"real": objective}, "candidate": raw}
    with pytest.raises(ConfigError) as info:
        build_problem(cfg)
    assert str(info.value).startswith(f"{where}: {cause}")
    manifold = parse_manifold(spec)
    with pytest.raises(ConfigError) as info:
        parse_point_text(manifold, json.dumps(raw).replace("Infinity", "1e999"), "--at")
    assert str(info.value).startswith(where.replace("candidate", "--at") + f": {cause}")


def test_an_spd_scale_too_large_to_sample_is_named_with_its_cause():
    cfg = bad_domain_config(SPD_2, "logdet^2", SPD_I, {"scale": 1e3})
    domain = build_problem(cfg).problem.domain
    with pytest.raises(ConfigError) as info:
        domain.draw_one(np.random.default_rng(0))
    assert str(info.value).startswith(
        "options.domain.scale 1000 is too large to sample Spd(2): "
        "matrix is not positive definite (min eigenvalue ")
    assert isinstance(info.value.__cause__, NonPositiveDefiniteError)


def test_spd_draws_that_succeed_are_the_manifolds():
    sample = spd_domain(Spd(2), 0.9).sample
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(20):
        assert np.array_equal(sample(rng).value, Spd(2).random_point(ref, 0.9).value)


def test_widest_finite_boxes_draw_finite_points():
    """A box with a finite width hi - lo only ever proposes finite points, so
    the bulk proposer needs no point-by-point fallback for overflow."""
    e1 = Euclidean(1)
    for bounds in ([(-8.98e307, 8.98e307)], [(0.0, 1.7976931348623157e308)],
                   [(-1.7976931348623157e308, 0.0)], [(1e308, 1.7976931348623157e308)]):
        batch = euclidean_box_domain(e1, bounds).propose(np.random.default_rng(0), 4096)
        assert np.isfinite(batch.features["x1"]).all() and batch.member.all()


# The file's candidate 0.5 lies outside the arc, where ln(theta - 1) is not
# defined; the feasible set is [2, 3].
OUTSIDE_CANDIDATE = {
    "manifold": {"kind": "circle"},
    "objective": {"real": "(theta - 2)^2"},
    "constraints": [{"real": "-ln(theta - 1)"}],
    "candidate": 0.5,
    "options": {"domain": {"arc": [1.5, 3.0]}},
}


def test_a_candidate_outside_the_domain_is_not_evaluated_when_sampling():
    prob = build_problem(OUTSIDE_CANDIDATE).problem
    p0 = CIRCLE.point(2.0)
    assert brute_force_improvement(prob, p0, n=200) is None
    dirs = direction_samples(prob, p0, 8)
    assert len(dirs) == 8 and all(0.0 < x.value <= 1.0 for x in dirs)


class TestParseManifold:
    def test_kinds(self):
        assert parse_manifold({"kind": "circle"}) == CIRCLE
        assert parse_manifold({"kind": "euclidean", "dim": 3}) == Euclidean(3)
        assert parse_manifold({"kind": "spd", "dim": 2}) == SPD2

    @pytest.mark.parametrize("spec", [
        "circle",
        {"kind": "torus"},
        {"kind": "circle", "dim": 1},
        {"kind": "euclidean"},
        {"kind": "euclidean", "dim": 0},
        {"kind": "euclidean", "dim": 1.5},
        {"kind": "spd", "dim": "2"},
        {"kind": "euclidean", "dim": True},
        {"kind": "spd", "dim": False},
    ])
    def test_rejections(self, spec):
        with pytest.raises(ConfigError):
            parse_manifold(spec)


class TestParsePoint:
    def test_circle_forms(self):
        assert parse_point(CIRCLE, 1.5).value == 1.5
        assert parse_point(CIRCLE, {"theta": 1.5}).value == 1.5
        with pytest.raises(ConfigError):
            parse_point(CIRCLE, {"theta": 1.5, "phi": 0.0})
        with pytest.raises(ConfigError):
            parse_point(CIRCLE, {})

    def test_array_forms(self):
        p = parse_point(Euclidean(2), [1.0, 2.0])
        assert list(p.value) == [1.0, 2.0]
        q = parse_point(SPD2, [[2.0, 0.0], [0.0, 2.0]])
        assert np.allclose(q.value, 2.0 * np.eye(2))

    def test_text_forms(self):
        assert parse_point_text(CIRCLE, "1.5").value == 1.5
        assert parse_point_text(CIRCLE, '{"theta": 0.5}').value == 0.5
        assert list(parse_point_text(Euclidean(2), "[1, 2]").value) == [1.0, 2.0]
        with pytest.raises(ConfigError):
            parse_point_text(CIRCLE, "not-a-point")


SPD_TRACE = {"manifold": SPD_2, "objective": {"real": "trace"}}
EUCLID_X1 = {"manifold": {"kind": "euclidean", "dim": 2}, "objective": {"real": "x1"}}
# a problem file with one unknown key at one level, and the error's full text
UNKNOWN_KEYS = {
    "top-level": (pstar_config(extra=1, another=2),
                  "unknown key(s) in src.json: ['another', 'extra']"),
    "manifold-circle": (pstar_config(manifold={"kind": "circle", "radius": 1.0}),
                        "unknown key(s) in manifold: ['radius']"),
    "manifold-euclidean": (dict(EUCLID_X1, manifold={"kind": "euclidean", "dim": 2, "n": 2}),
                           "unknown key(s) in manifold: ['n']"),
    "manifold-spd": (dict(SPD_TRACE, manifold={"kind": "spd", "dim": 2, "metric": "ai"}),
                     "unknown key(s) in manifold: ['metric']"),
    "real": (pstar_config(objective={"real": "theta", "width": "1"}),
             "unknown key(s) in objective: ['width']"),
    "center-width": (pstar_config(constraints=[{"center": "theta", "width": "1", "lb": 0}]),
                     "unknown key(s) in constraints[0]: ['lb']"),
    "builtin": ({"manifold": SPD_2, "objective": {"builtin": "two_branch_objective", "on": 1}},
                "unknown key(s) in objective: ['on']"),
    "circle-candidate": (pstar_config(candidate={"theta": 1.5, "phi": 0.0}),
                         "unknown key(s) in candidate: ['phi']"),
    "options": (pstar_config(options={"seed": 1, "speed": 1}),
                "unknown key(s) in options: ['speed']"),
    "domain-circle": (pstar_config(options={"domain": {"arc": [0.0, 3.0], "box": 1}}),
                      "unknown key(s) in options.domain: ['box']"),
    "domain-euclidean": (dict(EUCLID_X1, options={"domain": {"scale": 1}}),
                         "unknown key(s) in options.domain: ['scale']"),
    "domain-spd": (dict(SPD_TRACE, options={"domain": {"scale": 0.5, "arc": 1, "box": 2}}),
                   "unknown key(s) in options.domain: ['arc', 'box']"),
}
# options.domain values that are not an object, on each manifold's default domain
# and on the two-branch set
NON_OBJECT_DOMAINS = [[1], 5, True, "x", [["box", [[0, 1], [0, 1]]]], False, 0, [], ""]
NON_OBJECT_DOMAIN_PROBLEMS = {
    "circle": (CIRCLE_M, {"real": "theta"}),
    "euclidean": (EUCLID_X1["manifold"], EUCLID_X1["objective"]),
    "spd": (SPD_2, {"real": "trace"}),
    "two-branch": (SPD_2, {"builtin": "two_branch_objective"}),
}


class TestBuildProblem:
    def test_full_config(self):
        loaded = build_problem(pstar_config())
        assert loaded.problem.label == "P2"
        assert loaded.problem.name == "half-arc"
        assert loaded.seed == 11
        assert loaded.candidate.value == pytest.approx(math.pi / 2.0)

    def test_interval_objective_config(self):
        cfg = {
            "manifold": {"kind": "spd", "dim": 2},
            "objective": {"center": "logdet", "width": "logdet^2"},
        }
        loaded = build_problem(cfg)
        assert loaded.problem.label == "P3"
        assert loaded.candidate is None and loaded.seed is None

    def test_builtin_objective_selects_branch_domain(self):
        cfg = {
            "manifold": {"kind": "spd", "dim": 2},
            "objective": {"builtin": "two_branch_objective"},
            "constraints": [{"builtin": "two_branch_g1"}],
        }
        loaded = build_problem(cfg)
        assert loaded.problem.domain.name == "two-branch union"

    @pytest.mark.parametrize("cfg", [
        {"objective": {"real": "theta"}},
        {"manifold": {"kind": "circle"}},
        pstar_config(extra=1),
        pstar_config(objective={"real": "theta", "width": "1"}),
        pstar_config(objective={"center": "theta"}),
        pstar_config(objective={"builtin": "nope"}),
        pstar_config(objective={"builtin": "two_branch_g1"}),  # wrong manifold
        pstar_config(constraints={"real": "theta"}),
        pstar_config(options={"seed": "0"}),
        pstar_config(options={"speed": 1}),
        pstar_config(manifold={"kind": "circle", "radius": 1.0}),
        "just a string",
    ])
    def test_rejections(self, cfg):
        with pytest.raises(ConfigError):
            build_problem(cfg)

    @pytest.mark.parametrize("cfg, text", UNKNOWN_KEYS.values(), ids=UNKNOWN_KEYS)
    def test_an_unknown_key_is_named_with_its_level(self, cfg, text):
        with pytest.raises(ConfigError) as info:
            build_problem(cfg, source="src.json")
        assert str(info.value) == text

    @pytest.mark.parametrize("manifold, objective", NON_OBJECT_DOMAIN_PROBLEMS.values(),
                             ids=NON_OBJECT_DOMAIN_PROBLEMS)
    @pytest.mark.parametrize("domain", NON_OBJECT_DOMAINS, ids=repr)
    def test_a_domain_that_is_not_an_object_is_refused(self, manifold, objective, domain):
        cfg = {"manifold": manifold, "objective": objective, "options": {"domain": domain}}
        with pytest.raises(ConfigError) as info:
            build_problem(json.loads(json.dumps(cfg)))
        assert str(info.value) == f"options.domain must be an object, got {domain!r}"

    @pytest.mark.parametrize("manifold, objective", NON_OBJECT_DOMAIN_PROBLEMS.values(),
                             ids=NON_OBJECT_DOMAIN_PROBLEMS)
    def test_a_null_absent_or_empty_domain_is_the_default(self, manifold, objective):
        # on the two-branch builtins, the default is the two-branch union
        cfg = {"manifold": manifold, "objective": objective}
        default = build_problem(cfg).problem.domain.name
        for domain in (None, {}):
            assert build_problem(dict(cfg, options={"domain": domain})).problem.domain.name == default

    @pytest.mark.parametrize("cfg, key", [
        ({"manifold": {"kind": "euclidean", "dim": True}, "objective": {"real": "x1^2"}}, "dim"),
        ({"manifold": {"kind": "spd", "dim": True}, "objective": {"real": "logdet^2"}}, "dim"),
        (pstar_config(options={"seed": True}), "options.seed"),
        (pstar_config(options={"seed": False}), "options.seed"),
        (pstar_config(options={"seed": -1}), "options.seed must be a non-negative integer"),
    ])
    def test_json_booleans_are_not_integers(self, cfg, key):
        # json.loads gives a Python bool, which isinstance counts as an int
        with pytest.raises(ConfigError, match=key):
            build_problem(json.loads(json.dumps(cfg)))

    def test_width_sign_is_validated_on_samples(self):
        cfg = {
            "manifold": {"kind": "circle"},
            "objective": {"center": "0", "width": "theta - pi"},
        }
        with pytest.raises(NegativeWidthError):
            build_problem(cfg)

    def test_load_problem_round_trip(self, tmp_path):
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(pstar_config()), encoding="utf-8")
        loaded = load_problem(str(path))
        assert loaded.problem.label == "P2"

    def test_load_problem_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_problem(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_problem(str(bad))


class TestBundledProblems:
    def test_half_arc_bundle(self):
        loaded = pstar_problem()
        assert loaded.problem.label == "P2"
        assert loaded.problem.is_feasible(loaded.candidate)
        assert len(loaded.problem.constraints) == 3

    def test_two_branch_bundle(self):
        loaded = pstarstar_problem()
        assert loaded.problem.label == "P3"
        assert loaded.problem.is_feasible(loaded.candidate)


class TestScenarios:
    def test_ids(self):
        assert scenario_ids() == ("3.1", "3.2", "4.1", "Pstar", "Pstarstar")

    def test_unknown_id(self):
        with pytest.raises(ConfigError):
            run_repro("9.9")

    def test_star_shaped_scenario_passes(self):
        out = run_repro("4.1")
        assert out["ok"]
        assert out["id"] == "4.1"
        assert {r["name"]: r["ok"] for r in out["rows"]} and all(
            r["ok"] for r in out["rows"]
        )
        assert "wall_time_s" in out

    def test_circle_scenario_passes(self):
        out = run_repro("3.2")
        assert out["ok"]
        verdicts = {r["name"]: r["actual"] for r in out["rows"]}
        assert verdicts["width convex at anchor"] == "CounterexampleFound"

    def test_seed_changes_do_not_change_conclusions(self):
        a = run_repro("4.1", seed=0)
        b = run_repro("4.1", seed=99)
        assert a["ok"] and b["ok"]
        assert a["seed"] == 0 and b["seed"] == 99
