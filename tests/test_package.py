"""The package namespace: what ``from ivopt import *`` exports."""

import inspect

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
    assert len(ivopt.__all__) == len(set(ivopt.__all__)) == 96


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
    assert constants == {"DEFAULT_SCHEME", "ZERO", "__version__"}
    assert bound["__version__"] == ivopt.__version__
    for name in ("verify_p2", "verify_p3", "verify_p3_split", "verify_p4",
                 "check_convex", "check_convex_at", "Interval", "SplitMode", "Spd"):
        assert bound[name] is getattr(ivopt, name)
