"""End-to-end command-line behaviour: exit codes, output shapes, seeding."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ivopt

from ivopt.cli import main
from ivopt.kkt import direction_samples, verify_p3
from ivopt.problems import load_problem
from test_problems import (
    BAD_DOMAIN_CASES,
    MALFORMED_NUMBER_CASES,
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


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("IVOPT_SEED", raising=False)


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
        rc = main(["check-kkt", "--problem", pstar_file, "--find-mu", "--json",
                   "--directions", "8", "--seed", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "StrictOptimal"
        assert len(payload["found_mu"]) == 3
        assert payload["found_mu"][2] == 0.0

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

    def test_mu_and_find_mu_conflict(self, pstar_file, capsys):
        rc = main(["check-kkt", "--problem", pstar_file,
                   "--mu", "0,1,0", "--find-mu"])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    def test_problem_flag_required(self, capsys):
        assert main(["check-kkt", "--mu", "0,1,0"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("mu", ["a,b,c", "0,1"])
    def test_bad_multiplier_text(self, pstar_file, mu, capsys):
        assert main(["check-kkt", "--problem", pstar_file, "--mu", mu]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_scheme_flag(self, pstar_file, capsys):
        rc = main(["check-kkt", "--problem", pstar_file, "--mu", "0,1,0",
                   "--deriv-levels", "0"])
        assert rc == 1

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

    @pytest.mark.parametrize("key, mode, component", [
        ("nonconstant", "CenterNonConstant", "center"),
        ("constant", "CenterConstant", "width"),
    ])
    def test_mode_defaults_to_the_sampled_center(self, p4_files, key, mode, component, capsys):
        rc, out, _ = self._run(p4_files[key], capsys)
        assert rc == 0
        payload = json.loads(out)
        assert payload["label"] == "P4"
        assert payload["verdict"] == "StrictOptimal"
        assert payload["reason"].startswith(f"stationarity of the {component} holds")
        assert self._run(p4_files[key], capsys, "--mode", mode) == (rc, out, "")

    @pytest.mark.parametrize("key, wrong, hint, fix", [
        ("nonconstant", "CenterConstant", "center varies by", "use CenterNonConstant"),
        ("constant", "CenterNonConstant", "center is constant", "use CenterConstant"),
    ])
    def test_mode_mismatch_is_an_error(self, p4_files, key, wrong, hint, fix, capsys):
        rc, out, err = self._run(p4_files[key], capsys, "--mode", wrong)
        assert rc == 1
        assert out == ""
        assert err.startswith(f"error: {hint}")
        assert err.rstrip().endswith(fix)

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
    def test_env_seed_used(self, monkeypatch, capsys):
        monkeypatch.setenv("IVOPT_SEED", "5")
        assert main(["repro", "--example", "4.1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("IVOPT_SEED", "5")
        assert main(["repro", "--example", "4.1", "--json", "--seed", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 3

    def test_file_seed_is_the_fallback(self, tmp_path, capsys):
        cfg = dict(PSTAR_CFG)
        cfg["options"] = {"seed": 11}
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        rc = main(["check-convexity", "--problem", str(path), "--json",
                   "--pairs", "4", "--grid", "5"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 11

    def test_invalid_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("IVOPT_SEED", "abc")
        assert main(["repro", "--example", "4.1", "--json"]) == 1
        assert "IVOPT_SEED" in capsys.readouterr().err


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "ivopt" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err
