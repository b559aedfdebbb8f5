"""End-to-end command-line behaviour: exit codes, output shapes, seeding."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ivopt

from ivopt.cli import build_parser, main
from ivopt.kkt import direction_samples, verify_p3
from ivopt.problems import load_problem
from test_problems import (
    BAD_DOMAIN_CASES,
    MALFORMED_NUMBER_CASES,
    NO_FACTOR,
    OUTSIDE_CANDIDATE,
    SPD_I,
    bad_domain_config,
)

PSTAR_CFG = {
    "manifold": {"kind": "circle"},
    "objective": {"real": "(theta - pi/2)^2"},
    "constraints": [
        {"real": "theta - pi/2"},
        {"real": "exp(-(theta - pi/2)^2) - 1"},
        {"real": "(2*theta/pi - 1) - (theta - pi/2)^2 - 1"},
    ],
    "candidate": {"theta": math.pi / 2.0},
    "name": "half-arc",
}


@pytest.fixture
def pstar_file(tmp_path):
    path = tmp_path / "pstar.json"
    path.write_text(json.dumps(PSTAR_CFG), encoding="utf-8")
    return str(path)


@pytest.fixture
def spd_file(tmp_path):
    cfg = {"manifold": {"kind": "spd", "dim": 2}, "objective": {"real": "logdet^2"}}
    path = tmp_path / "spd.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


@pytest.fixture
def convex_file(tmp_path):
    cfg = {
        "manifold": {"kind": "circle"},
        "objective": {"real": "(theta - 3)^2"},
    }
    path = tmp_path / "convex.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


@pytest.fixture
def concave_file(tmp_path):
    cfg = {
        "manifold": {"kind": "circle"},
        "objective": {"real": "-(theta - 3)^2"},
    }
    path = tmp_path / "concave.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


E2_QUAD = "(x1 - 1)^2 + (x2 - 1)^2"


def p4_cfg(center: str, width: str, name: str) -> dict:
    """A P4 problem on the plane whose candidate (0.5, 0.5) is optimal."""
    return {
        "manifold": {"kind": "euclidean", "dim": 2},
        "objective": {"center": center, "width": width},
        "constraints": [{"center": "x1 + x2 - 1", "width": "0.1*(x1 + x2 - 1)^2"}],
        "candidate": [0.5, 0.5],
        "name": name,
    }


@pytest.fixture
def p4_files(tmp_path):
    """Center-nonconstant and center-constant P4 problem files."""
    paths = {}
    for key, center, width in (
        ("nonconstant", E2_QUAD, f"0.5*({E2_QUAD}) + 0.25"),
        ("constant", "3", f"{E2_QUAD} + 0.5"),
    ):
        path = tmp_path / f"p4_{key}.json"
        path.write_text(json.dumps(p4_cfg(center, width, key)), encoding="utf-8")
        paths[key] = str(path)
    return paths


class TestOrder:
    def test_lu_incomparable(self, capsys):
        assert main(["order", "[1,4]", "[2,3]", "--relation", "lu"]) == 0
        assert capsys.readouterr().out.strip() == "Incomparable"

    def test_min_prefers_narrower_on_center_tie(self, capsys):
        assert main(["order", "[1,4]", "[2,3]"]) == 0
        assert capsys.readouterr().out.strip() == "Greater"

    def test_eps_zero_forces_exact_centers(self, capsys):
        args = ["order", "[0,2]", "[1e-12,2.000000000001]"]
        assert main(args) == 0
        assert capsys.readouterr().out.strip() == "Equal"
        assert main(args + ["--eps", "0"]) == 0
        assert capsys.readouterr().out.strip() == "Less"

    @pytest.mark.parametrize("eps", ["-1", "nan"])
    def test_negative_or_nan_eps_rejected(self, capsys, eps):
        for pair in (["[0.5,0.5]", "[0,0]"], ["[0,0]", "[0.5,0.5]"]):
            assert main(["order", *pair, "--eps", eps]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: eps_c must be non-negative")

    def test_eps_with_the_lu_order_is_refused(self, capsys):
        # the endpointwise order has no center tie to widen
        assert main(["order", "[0,1]", "[0.5,2]", "--relation", "lu", "--eps", "0.5",
                     "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --eps is the center tie tolerance of min and max; "
                                "drop it with --relation lu\n")

    def test_infinite_eps_ties_every_center(self, capsys):
        assert main(["order", "[0.5,0.5]", "[0,0]", "--eps", "inf"]) == 0
        assert capsys.readouterr().out.strip() == "Equal"

    def test_json_report(self, capsys):
        assert main(["order", "<2,1>", "[1,3]", "--relation", "max", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "Equal"
        assert payload["relation"] == "max"
        assert payload["left"] == [1.0, 3.0]

    def test_malformed_interval(self, capsys):
        assert main(["order", "[2,1]", "[0,1]"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_relation(self, capsys):
        assert main(["order", "[0,1]", "[0,1]", "--relation", "both"]) == 1
        assert "usage error" in capsys.readouterr().err


class TestCheckConvexity:
    def test_convex_objective_passes(self, convex_file, capsys):
        rc = main(["check-convexity", "--problem", convex_file,
                   "--pairs", "8", "--grid", "9", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("HoldsOnSamples")

    def test_concave_objective_reports_witness(self, concave_file, capsys):
        rc = main(["check-convexity", "--problem", concave_file,
                   "--pairs", "8", "--grid", "9", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 2
        assert out.startswith("CounterexampleFound")
        assert "witness:" in out and "path value" in out

    def test_at_point_mode(self, convex_file, capsys):
        rc = main(["check-convexity", "--problem", convex_file, "--at", "3.0",
                   "--pairs", "8", "--grid", "9", "--seed", "1"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("HoldsOnSamples")

    def test_json_payload(self, convex_file, capsys):
        rc = main(["check-convexity", "--problem", convex_file, "--json",
                   "--pairs", "8", "--grid", "9", "--seed", "4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "HoldsOnSamples"
        assert payload["seed"] == 4
        assert payload["path"] == "geodesic"

    def test_at_point_has_no_chord_path(self, convex_file, capsys):
        # checks at a point run on geodesics; a chord request must not be
        # reported as checked
        rc = main(["check-convexity", "--problem", convex_file, "--at", "3.0",
                   "--path", "chord", "--json", "--pairs", "4"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "--at" in captured.err and "--path chord" in captured.err

    def test_missing_problem_file(self, tmp_path, capsys):
        rc = main(["check-convexity", "--problem", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestCheckKkt:
    def test_given_multipliers_strict(self, pstar_file, capsys):
        rc = main(["check-kkt", "--problem", pstar_file, "--mu", "0,1,0",
                   "--directions", "8", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0].startswith("StrictOptimal")
        assert "active set: g1,g2" in out

    def test_multiplier_search_json(self, pstar_file, capsys):
        rc = main(["check-kkt", "--problem", pstar_file, "--json",
                   "--directions", "8", "--seed", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "StrictOptimal"
        assert len(payload["found_mu"]) == 3
        assert payload["found_mu"][2] == 0.0

    @pytest.mark.parametrize("scale", ["1", "1e2", "1e4"])
    def test_scaled_spd_barrier_optimum_at_every_scale(self, scale, tmp_path, capsys):
        # minimise a*(trace - 3*logdet) subject to logdet <= 1: e^(1/2) I is
        # the closed-form optimum; the step ladder did not settle at a = 1e4
        half = math.exp(0.5)
        cfg = {"manifold": {"kind": "spd", "dim": 2},
               "objective": {"real": f"{scale}*(trace - 3*logdet)"},
               "constraints": [{"real": "logdet - 1"}],
               "candidate": [[half, 0.0], [0.0, half]], "options": {"seed": 3}}
        path = tmp_path / "barrier.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["check-kkt", "--problem", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "StrictOptimal"

    def test_interior_point_is_inconclusive(self, pstar_file, capsys):
        rc = main(["check-kkt", "--problem", pstar_file, "--point", "0.3",
                   "--directions", "8", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "Inconclusive" in out

    def test_no_multipliers_json(self, pstar_file, capsys):
        rc = main(["check-kkt", "--problem", pstar_file, "--point", "0.3", "--json",
                   "--directions", "8", "--seed", "0"])
        assert rc == 2
        assert json.loads(capsys.readouterr().out) == {
            "verdict": "Inconclusive",
            "reason": "no feasible multipliers over the sampled directions",
            "seed": 0,
        }

    def test_no_candidate_is_an_error(self, convex_file, capsys):
        assert main(["check-kkt", "--problem", convex_file, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: no candidate: pass --point or set 'candidate' in the file\n")

    def test_problem_flag_required(self, capsys):
        assert main(["check-kkt", "--mu", "0,1,0"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("mu", ["a,b,c", "0,1"])
    def test_bad_multiplier_text(self, pstar_file, mu, capsys):
        assert main(["check-kkt", "--problem", pstar_file, "--mu", mu]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--deriv-h0", "0.01"),
        ("--deriv-levels", "6"),
        ("--deriv-tol", "1e-6"),
    ])
    def test_the_derivative_scheme_is_not_an_option(self, pstar_file, flag, value, capsys):
        rc = main(["check-kkt", "--problem", pstar_file, "--mu", "0,1,0", flag, value])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: unrecognized arguments: {flag}")

    @pytest.mark.parametrize("args", [["--mode", "CenterConstant"], ["--find-mu"]])
    def test_removed_split_and_search_flags_are_usage_errors(self, pstar_file, args, capsys):
        # the split component comes from the samples, and the search is the default
        assert main(["check-kkt", "--problem", pstar_file, *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: unrecognized arguments: {args[0]}")

    @pytest.mark.parametrize("mu", ["nan,1,0", "0,1,inf", "0,-inf,0"])
    def test_non_finite_multipliers_are_refused(self, pstar_file, mu, capsys):
        # a certificate could not print them as JSON numbers
        assert main(["check-kkt", "--problem", pstar_file, f"--mu={mu}", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: multipliers must be finite and nonnegative\n"

    def test_the_active_set_tolerance_is_not_an_option(self, pstar_file, capsys):
        assert main(["check-kkt", "--problem", pstar_file, "--tol", "1e-8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: unrecognized arguments: --tol")

    def test_an_active_constraint_does_not_excuse_slackness(self, pstar_file, capsys):
        # 5e-9 below the quarter turn g1 is about -5e-9, active at the fixed
        # tolerance: a unit multiplier on it fails complementary slackness
        near = ["check-kkt", "--problem", pstar_file, "--point", "1.5707963217948966"]
        assert main([*near, "--mu", "1,0,0"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("Inconclusive: complementary slackness fails: multiplier "
                              "for g1 is 1.0 but g1 is -4.99")
        assert "active set: g1,g2\n" in out
        # 0.1 * |g1| is within RESID_TOL: slackness holds, stationarity does not
        assert main([*near, "--mu", "0.1,0,0"]) == 2
        assert capsys.readouterr().out.startswith("Inconclusive: stationarity fails")
        assert main(near) == 0
        assert capsys.readouterr().out.startswith("StrictOptimal: ")

    def test_a_blank_mu_lists_no_multipliers(self, pstar_file, tmp_path, capsys):
        cfg = {"manifold": {"kind": "circle"}, "objective": {"real": "(theta - 2)^2"},
               "candidate": {"theta": 2.0}}
        path = tmp_path / "unconstrained.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["check-kkt", "--problem", str(path), "--mu=", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "StrictOptimal" and payload["multipliers"] == []
        # the count is still checked
        assert main(["check-kkt", "--problem", pstar_file, "--mu="]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected 3 multipliers, got 0\n"

    def test_feasible_point_when_the_file_candidate_is_outside_the_domain(
            self, tmp_path, capsys):
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(OUTSIDE_CANDIDATE), encoding="utf-8")
        rc = main(["check-kkt", "--problem", str(path), "--point", "2.0"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert captured.out.startswith("StrictOptimal: ")

    def test_p3_file_gets_the_library_certificate(self, tmp_path, capsys):
        cfg = {
            "manifold": {"kind": "circle"},
            "objective": {"center": "(theta - 2)^2", "width": "0.5*(theta - 2)^2 + 0.1"},
            "constraints": [{"real": "theta - 2.5"}],
            "candidate": 2.0,
            "options": {"seed": 5},
        }
        path = tmp_path / "p3.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["check-kkt", "--problem", str(path), "--mu", "0", "--json",
                   "--directions", "8"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        loaded = load_problem(str(path))
        p0 = loaded.candidate
        dirs = direction_samples(loaded.problem, p0, 8, seed=5)
        cert = verify_p3(loaded.problem, p0, (0.0,), dirs, seed=5)
        assert payload == json.loads(json.dumps(cert.to_json()))
        assert payload["label"] == "P3" and payload["verdict"] == "StrictOptimal"


class TestNothingSampled:
    """A count or grid that samples nothing is an error, not a verdict."""

    @pytest.mark.parametrize("directions", ["0", "-3"])
    def test_check_kkt_without_directions(self, tmp_path, directions, capsys):
        cfg = {"manifold": {"kind": "circle"}, "objective": {"real": "-(theta - pi/2)^2"},
               "candidate": {"theta": math.pi / 2.0}}
        path = tmp_path / "peak.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["check-kkt", "--problem", str(path), "--directions", directions])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("error: no directions to test")

    @pytest.mark.parametrize("args, message", [
        (["--pairs", "0"], "pairs must be at least 1"),
        (["--at", "[[1,0],[0,1]]", "--pairs", "0"], "targets must be at least 1"),
        (["--pairs", "-4", "--grid", "1"], "pairs must be at least 1"),
        (["--grid", "2"], "grid must contain at least three points"),
        (["--grid", "1"], "grid must contain at least three points"),
        (["--at", "[[1,0],[0,1]]", "--grid", "0"], "grid must contain at least three points"),
    ])
    def test_check_convexity_without_samples(self, spd_file, args, message, capsys):
        rc = main(["check-convexity", "--problem", spd_file, *args])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


class TestJsonBooleans:
    @pytest.mark.parametrize("cfg, key", [
        ({"manifold": {"kind": "euclidean", "dim": True}, "objective": {"real": "x1^2"},
          "candidate": [0.0]}, "dim"),
        ({"manifold": {"kind": "spd", "dim": True}, "objective": {"real": "logdet^2"},
          "candidate": [[1.0]]}, "dim"),
        (dict(PSTAR_CFG, options={"seed": True}), "options.seed"),
    ])
    def test_check_kkt_names_the_key(self, tmp_path, cfg, key, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["check-kkt", "--problem", str(path), "--directions", "4"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and key in captured.err


class TestUnsamplableDomain:
    @pytest.mark.parametrize("command", ["check-kkt", "check-convexity"])
    @BAD_DOMAIN_CASES
    def test_is_an_error_line(self, tmp_path, command, manifold, objective, candidate,
                              domain, key, capsys):
        # json.dumps writes NaN and Infinity, which the problem loader reads
        cfg = bad_domain_config(manifold, objective, candidate, domain)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main([command, "--problem", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err and "Traceback" not in err


class TestMalformedNumbers:
    @pytest.mark.parametrize("command", ["check-kkt", "check-convexity"])
    @MALFORMED_NUMBER_CASES
    def test_is_an_error_line(self, tmp_path, command, manifold, objective, candidate,
                              domain, key, capsys):
        cfg = bad_domain_config(manifold, objective, candidate, domain)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main([command, "--problem", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must ") and "Traceback" not in err

    @pytest.mark.parametrize("command, problem, flag, text", [
        ("check-kkt", "pstar_file", "--point", "[1]"),
        ("check-convexity", "spd_file", "--at", '{"a": 1}'),
        ("check-kkt", "pstar_file", "--point", "true"),
        ("check-convexity", "spd_file", "--at", "[[1, 0], [0, true]]"),
    ])
    def test_a_malformed_point_flag_is_an_error_line(self, request, command, problem,
                                                      flag, text, capsys):
        path = request.getfixturevalue(problem)
        assert main([command, "--problem", path, flag, text]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must ") and "Traceback" not in err

    def test_an_spd_scale_too_large_to_sample(self, tmp_path, capsys):
        cfg = bad_domain_config({"kind": "spd", "dim": 2}, "logdet^2", SPD_I, {"scale": 1e3})
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["check-convexity", "--problem", str(path), "--pairs", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: options.domain.scale 1000 is too large to sample Spd(2): "
            "matrix is not positive definite")


    def test_an_spd_scale_that_overflows_prints_only_the_error_line(self, tmp_path):
        # a fresh process: numpy prints its RuntimeWarnings straight to stderr
        cfg = bad_domain_config({"kind": "spd", "dim": 2}, "logdet^2", SPD_I, {"scale": 1e5})
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        src = str(Path(ivopt.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
        for extra in ([], ["--strict"], ["--path", "chord"], ["--at", json.dumps(SPD_I)]):
            out = subprocess.run(
                [sys.executable, "-m", "ivopt.cli", "check-convexity", "--problem", str(path),
                 "--pairs", "4", *extra],
                env=env, capture_output=True, text=True, timeout=120)
            assert out.returncode == 1
            assert out.stderr == ("error: options.domain.scale 100000 is too large to sample "
                                  "Spd(2): matrix entries must be finite\n")


class TestMalformedPoints:
    """A point that the manifold rejects is an error line naming its key."""

    @pytest.fixture
    def short_candidate_file(self, tmp_path):
        cfg = {"manifold": {"kind": "spd", "dim": 2}, "objective": {"real": "logdet^2"},
               "candidate": [[1]]}
        path = tmp_path / "short.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("extra", [[], ["--point", json.dumps(SPD_I)]])
    def test_file_candidate_is_named(self, short_candidate_file, extra, capsys):
        assert main(["check-kkt", "--problem", short_candidate_file, *extra]) == 1
        err = capsys.readouterr().err
        assert err == "error: candidate: expected a 2x2 matrix, got shape (1, 1)\n"

    @pytest.mark.parametrize("command, flag", [("check-kkt", "--point"),
                                               ("check-convexity", "--at")])
    @pytest.mark.parametrize("text, cause", [
        ("[[1, 0], [0, -1]]", "matrix is not positive definite (min eigenvalue -1.000e+00)"),
        ("[[1, 2], [0, 1]]", "matrix asymmetry 2.000e+00 exceeds tolerance 1.0e-08"),
        ("[1, 0, 0, 1]", "expected a 2x2 matrix, got shape (4,)"),
        (json.dumps(NO_FACTOR.tolist()), "matrix has no Cholesky factor"),
    ])
    def test_flag_point_is_named(self, spd_file, command, flag, text, cause, capsys):
        assert main([command, "--problem", spd_file, flag, text]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag}: {cause}\n" and "Traceback" not in captured.err

    def test_circle_point_outside_the_chart_is_named(self, convex_file, capsys):
        assert main(["check-convexity", "--problem", convex_file, "--at", '{"theta": 7}']) == 1
        assert capsys.readouterr().err.startswith("error: --at.theta: angle 7.0 outside ")


class TestCheckKktSplitMode:
    ARGS = ["--directions", "8", "--seed", "2", "--json"]

    def _run(self, path, capsys, *extra):
        rc = main(["check-kkt", "--problem", path, *self.ARGS, *extra])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    @pytest.mark.parametrize("key, component", [
        ("nonconstant", "center"),
        ("constant", "width"),
    ])
    def test_mode_defaults_to_the_sampled_center(self, p4_files, key, component, capsys):
        rc, out, _ = self._run(p4_files[key], capsys)
        assert rc == 0
        payload = json.loads(out)
        assert payload["label"] == "P4"
        assert payload["verdict"] == "StrictOptimal"
        assert payload["reason"].startswith(f"stationarity of the {component} holds")

    def test_feasible_points_drawn_once(self, p4_files, monkeypatch, capsys):
        from ivopt import kkt

        calls = []
        original = kkt._feasible_points
        monkeypatch.setattr(
            kkt, "_feasible_points", lambda *a, **k: calls.append(a) or original(*a, **k)
        )
        for key in ("nonconstant", "constant"):
            calls.clear()
            assert self._run(p4_files[key], capsys)[0] == 0
            assert len(calls) == 1


class TestRepro:
    def test_single_scenario(self, capsys):
        rc = main(["repro", "--example", "4.1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("scenario 4.1")
        assert "result: ok" in out

    def test_text_rows_show_tolerances_and_notes(self, capsys):
        assert main(["repro", "--example", "3.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "  [ok  ] chord midpoint center: expected 0.811 (tol 0.001), got " \
            "0.8109302162163288" in lines
        assert any(line.startswith("         note: a published halfwidth") for line in lines)

    def test_unknown_scenario_choice(self, capsys):
        assert main(["repro", "--example", "9.9"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_example_or_all_required(self, capsys):
        assert main(["repro"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_json_is_deterministic_up_to_wall_time(self, capsys):
        def run():
            assert main(["repro", "--example", "4.1", "--json", "--seed", "2"]) == 0
            payload = json.loads(capsys.readouterr().out)
            payload.pop("wall_time_s")
            return payload

        assert run() == run()


class TestSeedResolution:
    @pytest.mark.parametrize("value", ["5", "abc"])
    def test_env_seed_is_ignored(self, monkeypatch, value, capsys):
        monkeypatch.setenv("IVOPT_SEED", value)
        assert main(["repro", "--example", "4.1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 0
        assert main(["repro", "--example", "4.1", "--json", "--seed", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 3

    def test_file_seed_is_the_fallback(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("IVOPT_SEED", "5")
        cfg = dict(PSTAR_CFG)
        cfg["options"] = {"seed": 11}
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["check-convexity", "--problem", str(path), "--json",
                   "--pairs", "4", "--grid", "5"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 11

    @pytest.mark.parametrize("command", [
        ["check-convexity", "--problem", "{file}"],
        ["check-kkt", "--problem", "{file}"],
        ["repro", "--all"],
    ])
    def test_a_negative_seed_flag_is_refused(self, pstar_file, command, capsys):
        argv = [arg.format(file=pstar_file) for arg in command] + ["--seed", "-1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("command", ["check-convexity", "check-kkt"])
    def test_a_negative_file_seed_is_refused(self, tmp_path, command, capsys):
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(dict(PSTAR_CFG, options={"seed": -1})), encoding="utf-8")
        assert main([command, "--problem", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: options.seed must be a non-negative integer\n"

    def test_a_seed_of_two_to_the_63_runs(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(dict(PSTAR_CFG, options={"seed": 2**63})), encoding="utf-8")
        for argv in (["check-kkt", "--problem", str(path), "--mu", "0,1,0", "--json"],
                     ["check-kkt", "--problem", str(path), "--mu", "0,1,0", "--json",
                      "--seed", str(2**63 + 1)]):
            assert main([*argv, "--directions", "4"]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert json.loads(first)["seed"] == 2**63
        assert json.loads(second)["seed"] == 2**63 + 1


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "ivopt" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_readme_cli_section_matches_the_parser(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8")
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = {
            (command, flag)
            for command, sub in subparsers.choices.items()
            for action in sub._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
        undocumented = sorted(f"{command} {flag}" for command, flag in options
                              if not re.search(re.escape(flag) + r"(?![\w-])", section))
        assert undocumented == []
        unknown = set(re.findall(r"--[a-z][\w-]*", section)) - {flag for _, flag in options}
        assert unknown == set()
