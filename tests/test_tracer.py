"""The benchmark's span tracer wraps library names and puts them back.

``perfbench/tracer.py`` looks up each name it wraps, so a library name that
is removed or renamed fails here rather than only in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import ivopt
from ivopt import kkt
from ivopt.problems import build_problem

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    """perfbench/tracer.py as a module, loaded without writing bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces() -> dict:
    """Every binding of the ivopt modules and of numpy.linalg, by identity."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "ivopt" or name.startswith("ivopt."))]
    return {(module.__name__, key): id(value)
            for module in modules + [np.linalg] for key, value in vars(module).items()}


def test_install_wraps_and_uninstall_restores(monkeypatch):
    tracer = load_tracer(monkeypatch).Tracer()
    original, before = kkt.verify_p4, namespaces()
    loaded = build_problem({
        "manifold": {"kind": "euclidean", "dim": 2},
        "objective": {"center": "(x1 - 1)^2 + (x2 - 1)^2", "width": "0.25"},
        "constraints": [{"center": "x1 + x2 - 1", "width": "0.1*(x1 + x2 - 1)^2"}],
        "candidate": [0.5, 0.5],
    })
    prob, p0 = loaded.problem, loaded.candidate
    tracer.install()
    try:
        assert kkt.verify_p4 is not original and kkt.verify_p4.__wrapped__ is original
        assert ivopt.verify_p4 is kkt.verify_p4
        directions = kkt.direction_samples(prob, p0, 4, seed=1)
        cert = kkt.verify_p4(prob, p0, (1.0,), directions, seed=1)
    finally:
        tracer.uninstall()
    assert cert.positive()
    assert tracer.calls["kkt.verify"] == 1 and tracer.calls["kkt.feasible_points"] == 1
    assert kkt.verify_p4 is original and ivopt.verify_p4 is original
    assert namespaces() == before
