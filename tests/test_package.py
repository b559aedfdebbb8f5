"""The package namespace: what ``from ivopt import *`` exports."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ivopt


def star_import() -> dict:
    namespace = {}
    exec("from ivopt import *", namespace)
    namespace.pop("__builtins__")
    return namespace


def test_star_import_binds_the_public_names_only():
    bound = star_import()
    public = {
        name for name, value in vars(ivopt).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(bound) == public | {"__version__"}
    assert len(ivopt.__all__) == len(set(ivopt.__all__)) == 87


def test_no_submodule_is_exported():
    bound = star_import()
    assert not [name for name, value in bound.items() if inspect.ismodule(value)]
    for submodule in ("calculus", "convexity", "errors", "expr", "functions",
                      "interval", "kkt", "manifolds", "problems"):
        assert inspect.ismodule(getattr(ivopt, submodule))
        assert submodule not in bound


def test_exports_are_callables_classes_and_constants():
    bound = star_import()
    constants = {name for name, value in bound.items() if not callable(value)}
    assert constants == {"ZERO", "__version__"}
    assert bound["__version__"] == ivopt.__version__
    for name in ("verify_p2", "verify_p3", "verify_p3_split", "verify_p4",
                 "check_convex", "check_convex_at", "Interval", "KktVerdict", "Spd"):
        assert bound[name] is getattr(ivopt, name)


def test_the_split_component_and_the_active_set_tolerance_are_not_parameters():
    # the split verifiers read the component from their samples, and every
    # verifier takes its active set at the fixed kkt.ACTIVE_TOL
    for module in (ivopt, ivopt.kkt, ivopt.errors):
        assert not hasattr(module, "SplitMode") and not hasattr(module, "ModeMismatchError")
    for verify in (ivopt.verify_p2, ivopt.verify_p3, ivopt.verify_p3_split, ivopt.verify_p4):
        assert list(inspect.signature(verify).parameters) == [
            "prob", "p0", "mu", "directions", "seed"]
    assert list(inspect.signature(ivopt.active_set).parameters) == ["prob", "p0"]


def test_names_no_caller_reached_are_gone():
    for owner, name in ((ivopt.interval, "lt_min"), (ivopt.interval, "geq_max"),
                        (ivopt.interval.Interval, "is_degenerate"),
                        (ivopt.manifolds.Point, "close_to"), (ivopt.manifolds, "CLOSE_TOL"),
                        (ivopt.functions, "smooth_registry")):
        assert not hasattr(owner, name), name


def _modules_after(code: str) -> set:
    """sys.modules of a fresh interpreter after running code."""
    src = str(Path(ivopt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = code + "\nimport sys\nprint('\\n'.join(sorted(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    return set(out.split())


def test_import_and_order_leave_scipy_optimize_unloaded():
    assert "scipy.optimize" not in _modules_after("import ivopt")
    loaded = _modules_after(
        "from ivopt.cli import main\nassert main(['order', '[1,4]', '[2,3]']) == 0")
    assert "ivopt.kkt" in loaded
    assert "scipy.optimize" not in loaded


# Pstar as a problem file: g1 and g2 are active at the candidate, so
# check-kkt without --mu solves a multiplier LP with two free multipliers.
P2_ACTIVE_CFG = {
    "manifold": {"kind": "circle"},
    "objective": {"real": "(theta - pi/2)^2"},
    "constraints": [
        {"real": "theta - pi/2"},
        {"real": "exp(-(theta - pi/2)^2) - 1"},
        {"real": "(2*theta/pi - 1) - (theta - pi/2)^2 - 1"},
    ],
    "candidate": {"theta": 1.5707963267948966},
}

# Runs the commands in one process and fails unless each exits 0 and
# kkt.linprog solved the LPs with free multipliers.
NO_SCIPY_RUN = """
import contextlib, io, sys
{block}
from ivopt import kkt
from ivopt.cli import main
solved = []
solve = kkt.linprog
kkt.linprog = lambda *args, **kwargs: solved.append(1) or solve(*args, **kwargs)
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
assert len(solved) >= 2, solved  # check-kkt's search and Pstar's, at least
"""


@pytest.mark.parametrize("block", ["", 'sys.modules["scipy"] = None'],
                         ids=["scipy-installed", "scipy-blocked"])
def test_no_command_loads_scipy(block, tmp_path):
    problem = tmp_path / "p2.json"
    problem.write_text(json.dumps(P2_ACTIVE_CFG), encoding="utf-8")
    commands = [
        ["order", "[1,4]", "[2,3]"],
        ["check-kkt", "--problem", str(problem), "--json"],
        ["repro", "--all", "--json"],
    ]
    loaded = _modules_after(NO_SCIPY_RUN.format(block=block, commands=commands))
    assert "ivopt.kkt" in loaded
    # a blocked import leaves None under "scipy" in sys.modules
    assert {m for m in loaded if m.split(".")[0] == "scipy"} == ({"scipy"} if block else set())
