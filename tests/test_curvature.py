"""Curvature rules: sound against the sampled certifiers and an exact second
derivative, and silent on nonconvex inputs."""

import functools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ivopt import kkt
from ivopt.convexity import check_affine, check_convex, check_convex_at
from ivopt.curvature import AFFINE, CONVEX, UNKNOWN, geodesic_shape
from ivopt.errors import NonFiniteError
from ivopt.expr import parse
from ivopt.functions import (
    CIRCLE,
    EUCLIDEAN2,
    IvFn,
    RealFn,
    builtin,
    builtin_names,
    iv_linear_combination,
    lift_real,
    linear_combination,
)
from ivopt.kkt import reduce_p4
from ivopt.manifolds import Euclidean, Spd
from ivopt.problems import build_problem, circle_domain, default_domain, pstar_problem

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

MANIFOLDS = {"circle": CIRCLE, "e2": EUCLIDEAN2, "e3": Euclidean(3), "spd2": Spd(2),
             "spd3": Spd(3)}
FLAT = ("circle", "e2", "e3")
SCALES = ("0.5", "2", "1.25", "pi", "0.1")
DEPTH = 3


@functools.lru_cache(maxsize=None)
def _texts(manifold, depth: int) -> tuple:
    """(affine, convex, concave) strategies for expression text up to depth
    operators deep, built by the curvature rules, the convex one mixed with
    compositions the rules leave undecided."""
    names = list(manifold.feature_names)
    flat = [name for name in names if name != "trace"]
    aff = st.sampled_from(flat + ["2", "pi"])
    cvx = st.sampled_from(names)
    ccv = aff
    scale = st.sampled_from(SCALES)
    for _ in range(depth):
        aff, cvx, ccv = (
            st.one_of(
                aff,
                st.tuples(aff, aff).map("({0[0]} + {0[1]})".format),
                st.tuples(aff, aff).map("({0[0]} - {0[1]})".format),
                st.tuples(scale, aff).map("{0[0]}*({0[1]})".format),
                st.tuples(aff, scale).map("({0[0]})/{0[1]}".format),
                aff.map("-({})".format),
            ),
            st.one_of(
                cvx,
                st.tuples(cvx, cvx).map("({0[0]} + {0[1]})".format),
                st.tuples(cvx, ccv).map("({0[0]} - {0[1]})".format),
                st.tuples(scale, cvx).map("{0[0]}*({0[1]})".format),
                ccv.map("-({})".format),
                cvx.map("exp({})".format),
                aff.map("({})^2".format),
                aff.map("({})^4".format),
                aff.map("abs({})".format),
                st.one_of(aff.map("abs({})".format), cvx.map("exp({})".format)).map(
                    "({})^1.5".format),
                # undecided: a product, sin, an odd power, a division by a
                # non-constant, ln and sqrt of convex arguments
                st.tuples(cvx, cvx).map("({0[0]})*({0[1]})".format),
                cvx.map("sin({})".format),
                cvx.map("({})^3".format),
                st.tuples(scale, cvx).map("{0[0]}/({0[1]})".format),
                cvx.map("ln(1 + {})".format),
                cvx.map("sqrt({})".format),
            ),
            st.one_of(
                aff,
                ccv,
                st.tuples(ccv, ccv).map("({0[0]} + {0[1]})".format),
                st.tuples(ccv, cvx).map("({0[0]} - {0[1]})".format),
                st.tuples(scale, ccv).map("{0[0]}*({0[1]})".format),
                cvx.map("-({})".format),
            ),
        )
    return aff, cvx, ccv


def _proved(text: str, manifold) -> str:
    return geodesic_shape(parse(text), manifold).curvature


def _sampled_checks(f, manifold, affine: bool) -> None:
    """No sampled certifier refutes f, at several seeds and random bases."""
    dom = default_domain(manifold)
    try:
        for seed in (0, 1, 2):
            assert check_convex(f, dom, pairs=6, grid=9, seed=seed).holds(), seed
            base = dom.sample(np.random.default_rng(seed + 10))
            assert check_convex_at(f, base, dom, targets=6, grid=9, seed=seed).holds(), seed
            if affine:
                assert check_affine(f, dom, pairs=6, grid=9, seed=seed).holds(), seed
    except NonFiniteError:
        pass  # an overflow is no verdict, and a proof does not rule one out


def _second_derivative(text: str, manifold, rng) -> tuple:
    """(f, f'') at t = 0 along a random line through the features, from
    sympy's exact derivative evaluated with mpmath at 50 digits."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t", real=True)
    line = {
        name: sympy.Rational(repr(a)) + t * sympy.Rational(repr(d))
        for name, a, d in zip(manifold.feature_names, rng.uniform(-3.0, 3.0, 3).round(6).tolist(),
                              rng.normal(size=3).round(6).tolist())
    }
    names = {"pi": sympy.pi, "e": sympy.E, "ln": sympy.log, "exp": sympy.exp,
             "sin": sympy.sin, "cos": sympy.cos, "sqrt": sympy.sqrt, "abs": sympy.Abs}
    f = sympy.sympify(re.sub(r"\^", "**", text), locals={**names, **line}, rational=True)
    value, second = (g.subs(t, 0).evalf(50) for g in (f, sympy.diff(f, t, 2)))
    return value, second


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
@settings(max_examples=40)
@given(data=st.data())
def test_proved_convex_is_never_refuted(name, data):
    manifold = MANIFOLDS[name]
    _, convex, _ = _texts(manifold, DEPTH)
    text = data.draw(convex)
    curvature = _proved(text, manifold)
    if curvature not in (AFFINE, CONVEX):
        return
    _sampled_checks(RealFn.from_expression(text, manifold), manifold, curvature == AFFINE)
    if name in FLAT:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        value, second = _second_derivative(text, manifold, rng)
        assert second.is_real and value.is_real
        tol = 1e-30 * max(1.0, abs(float(value)))
        assert float(second) >= -tol
        if curvature == AFFINE:
            assert abs(float(second)) <= tol


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
def test_the_fuzz_proves_and_refuses(name):
    # the texts above hold affine and convex proofs, and undecided ones
    manifold = MANIFOLDS[name]
    seen = set()

    @settings(max_examples=40, database=None)
    @given(_texts(manifold, DEPTH)[1])
    def collect(text):
        seen.add(_proved(text, manifold))

    collect()
    assert {AFFINE, CONVEX, UNKNOWN} <= seen


# -- nonconvex corpus: zero proofs ------------------------------------------

NONCONVEX_TEXTS = [
    ("circle", "sin(theta)"), ("circle", "cos(theta)"), ("circle", "theta^2 + sin(theta)"),
    ("e2", "cos(x1) + x2^2"), ("circle", "theta^3"), ("e2", "x1^0.5"), ("circle", "1/theta"),
    ("circle", "ln(theta)"), ("e2", "sqrt(x1)"), ("spd2", "sin(logdet)"),
    ("spd2", "logdet^3/6"), ("spd3", "-trace"), ("spd2", "ln(trace)"),
]


@pytest.mark.parametrize("name,text", NONCONVEX_TEXTS)
def test_nonconvex_texts_get_no_proof(name, text):
    assert _proved(text, MANIFOLDS[name]) not in (AFFINE, CONVEX)


def _workload_specs(module: str, seed: int, monkeypatch) -> list:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return __import__(module).specs(seed)


def _negated(spec: dict) -> dict:
    if "real" in spec:
        return {"real": f"-({spec['real']})"}
    return {"center": f"-({spec['center']})", "width": spec["width"]}


def test_negated_kkt_flat_objectives_get_no_proof(monkeypatch):
    objectives = [spec["cfg"] for spec in _workload_specs("wl_kkt", 1, monkeypatch)
                  if spec["cfg"] is not None]
    assert len(objectives) == 112
    for cfg in objectives:
        assert kkt._proved_convex(build_problem(cfg).problem.objective), cfg["name"]
        negated = build_problem({**cfg, "objective": _negated(cfg["objective"])})
        assert not kkt._proved_convex(negated.problem.objective), cfg["name"]


def test_convexity_spd_families_are_decided(monkeypatch):
    # every non-strict geodesic task expected to hold is proved, and no
    # negated function is
    decided = {"convex": [], "negated": [], "affine": []}
    for spec in _workload_specs("wl_convexity", 1, monkeypatch):
        task, family = spec["cfg"]["name"].split("/")[:2]
        if task in ("convex", "convex_at", "affine") and family in decided:
            f = build_problem(spec["cfg"]).problem.objective
            if family == "affine":  # with a constant width, if interval-valued
                center = f.center if isinstance(f, IvFn) else f
                decided[family].append(center.shape.curvature == AFFINE)
            else:
                decided[family].append(kkt._proved_convex(f))
    assert all(decided["convex"]) and all(decided["affine"])
    assert decided["negated"] and not any(decided["negated"])


def test_pstar_and_builtins_get_no_proof():
    g1, g2, g3 = pstar_problem().problem.constraints
    assert kkt._proved_convex(g1)
    assert not kkt._proved_convex(g2) and not kkt._proved_convex(g3)
    assert not any(kkt._proved_convex(builtin(name)) for name in builtin_names())


def test_functions_without_an_expression_get_no_proof():
    f = RealFn.from_expression("theta^2", CIRCLE)
    iv = IvFn.from_expressions("theta^2", "1", CIRCLE)
    assert kkt._proved_convex(f) and kkt._proved_convex(iv)
    opaque = RealFn(CIRCLE, lambda p: p.value ** 2)
    p4 = kkt.Problem(CIRCLE, iv, (IvFn.from_expressions("theta - 1", "0", CIRCLE),),
                     circle_domain())
    unproved = [
        opaque,
        linear_combination(1.0, f, 2.0, f),
        iv_linear_combination(1.0, iv, 2.0, iv),
        lift_real(f),
    ]
    assert not any(map(kkt._proved_convex, unproved))
    # a frozen reduction is the chosen component: the width 0 at theta = 1,
    # the center theta - 1 at theta = 2
    for theta, shape in ((1.0, p4.constraints[0].width.shape),
                         (2.0, p4.constraints[0].center.shape)):
        (g,) = reduce_p4(p4, CIRCLE.point(theta)).constraints
        assert g.shape == shape and kkt._proved_convex(g)


# -- rules that keep a proof inside every operator's domain -------------------


@pytest.mark.parametrize("text,curvature", [
    ("ln(2)*theta", AFFINE),
    ("1/0*theta", UNKNOWN),
    ("ln(-1) + theta", UNKNOWN),
    ("exp(1000) + theta^2", UNKNOWN),
    ("theta/(1 - 1)", UNKNOWN),
    ("-ln(0*theta + 2)", CONVEX),
    ("-ln(exp(theta))", UNKNOWN),
    ("-sqrt(0*theta)", CONVEX),
    ("(theta^2)^1.5", CONVEX),
    ("(theta^2 - 1)^1.5", UNKNOWN),
    ("(-theta^2)^2", UNKNOWN),
    ("abs(theta^2)", UNKNOWN),
    ("exp(-theta^2)", UNKNOWN),
    ("-(-(theta^2))", CONVEX),
    ("0*sin(theta)", UNKNOWN),
])
def test_domain_and_composition_edges(text, curvature):
    assert _proved(text, CIRCLE) == curvature


def test_trace_is_positive_and_logdet_affine():
    spd = MANIFOLDS["spd2"]
    trace, logdet = (geodesic_shape(parse(t), spd) for t in ("trace", "logdet"))
    assert (trace.curvature, trace.signs, logdet.curvature) == (CONVEX, {1}, AFFINE)
    assert _proved("trace - 3*logdet", spd) == CONVEX
    assert _proved("-sqrt(trace)", spd) == UNKNOWN
    assert math.isclose(geodesic_shape(parse("2*pi"), spd).value, 2 * math.pi)
