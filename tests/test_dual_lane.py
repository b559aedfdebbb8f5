"""The expression's dual lane: exact one-sided rates against sympy and mpmath,
its one-sided edges, and the derivatives that now take it."""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ivopt.calculus import dir_deriv, gh_dir_deriv
from ivopt.errors import DomainError, NonFiniteError
from ivopt.expr import compile_dual, compile_scalar, parse
from ivopt.functions import CIRCLE, EUCLIDEAN1, EUCLIDEAN2, SPD2, IvFn, RealFn
from ivopt.manifolds import TWO_PI

sympy = pytest.importorskip("sympy")
mp = pytest.importorskip("mpmath")

MANIFOLDS = {"circle": CIRCLE, "e2": EUCLIDEAN2, "spd2": SPD2}
DEPTH = 3
REL = 1e-12


@functools.lru_cache(maxsize=None)
def _texts(manifold):
    """Expression text up to DEPTH operators deep over the manifold's features,
    every operator and function of the grammar included, kept inside its
    domain: a divisor, an ln or sqrt argument and a moving power's base
    are bounded away from zero."""
    names = list(manifold.feature_names)
    node = st.sampled_from(names + ["2", "0.5", "pi", "e"])
    for _ in range(DEPTH):
        pair = st.tuples(node, node)
        node = st.one_of(
            node,
            pair.map("({0[0]} + {0[1]})".format),
            pair.map("({0[0]} - {0[1]})".format),
            pair.map("({0[0]})*({0[1]})".format),
            pair.map("({0[0]})/(1 + ({0[1]})^2)".format),
            node.map("-({})".format),
            node.map("({})^2".format),
            node.map("({})^3".format),
            node.map("(1 + ({})^2)^0.5".format),
            node.map("(1 + ({})^2)^-1.5".format),
            pair.map("(2 + sin({0[0]}))^cos({0[1]})".format),
            node.map("exp(sin({}))".format),
            node.map("ln(1 + ({})^2)".format),
            node.map("sqrt(1 + ({})^2)".format),
            node.map("sin({})".format),
            node.map("cos({})".format),
            node.map("abs({})".format),
        )
    return node


def _base(manifold, rng):
    """(p, x, feature values, feature rates) at a random base and direction,
    the rates exact: on Spd(2) tr(p^-1 X) and tr X at 50 digits."""
    if manifold == CIRCLE:
        p = manifold.point(rng.uniform(0.3, TWO_PI - 0.3))
        x = manifold.tangent(p, rng.normal())
        return p, x, {"theta": p.value}, {"theta": mp.mpf(x.value)}
    if manifold == EUCLIDEAN2:
        p = manifold.point(rng.uniform(-2.0, 2.0, 2))
        x = manifold.tangent(p, rng.normal(size=2))
        return (p, x, manifold.features(p),
                {f"x{i + 1}": mp.mpf(v) for i, v in enumerate(x.value.tolist())})
    a = rng.normal(0.0, 0.5, (2, 2))
    p = manifold.point(np.eye(2) + a @ a.T)
    r = rng.normal(size=(2, 2))
    x = manifold.tangent(p, r + r.T)
    with mp.workdps(50):
        pm, xm = mp.matrix(p.value.tolist()), mp.matrix(x.value.tolist())
        rates = {"logdet": sum((pm**-1 * xm)[i, i] for i in range(2)),
                 "trace": xm[0, 0] + xm[1, 1]}
    return p, x, manifold.features(p), rates


def _exact_rate(text: str, values: dict, rates: dict):
    """sympy's derivative of the text along feature + t * rate at t = 0, at 50 digits."""
    t = sympy.Symbol("t", real=True)
    line = {name: sympy.Rational(values[name]) + t * sympy.Float(rates[name], 60)
            for name in values}
    names = {"pi": sympy.pi, "e": sympy.E, "log": sympy.log, "exp": sympy.exp,
             "sin": sympy.sin, "cos": sympy.cos, "sqrt": sympy.sqrt, "abs": sympy.Abs}
    source = re.sub(r"\bln\(", "log(", text).replace("^", "**")
    f = sympy.sympify(source, locals={**names, **line}, rational=True)
    return sympy.diff(f, t).subs(t, 0).evalf(50)


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rate_matches_sympy(name, data):
    manifold = MANIFOLDS[name]
    text = data.draw(_texts(manifold))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    p, x, values, rates = _base(manifold, rng)
    f = RealFn.from_expression(text, manifold)
    try:
        got = dir_deriv(f, p, x)
    except NonFiniteError:
        return  # a power of a large value overflows: no rate to compare
    exact = _exact_rate(text, values, rates)
    assert exact.is_real
    assert abs(got - float(exact)) <= REL * max(1.0, abs(float(exact))), (text, got, exact)


@pytest.mark.parametrize("seed", range(8))
def test_spd_feature_rates_match_the_geodesic(seed):
    # d/dh of logdet and trace of exp_p(hX) = p^1/2 expm(h p^-1/2 X p^-1/2) p^1/2
    # at h = 0, by mpmath at 50 digits
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.7, (2, 2))
    p = SPD2.point(0.2 * np.eye(2) + a @ a.T)
    r = rng.normal(size=(2, 2))
    x = SPD2.tangent(p, r + r.T)
    got = SPD2.feature_rates(p, x)
    with mp.workdps(50):
        half = mp.sqrtm(mp.matrix(p.value.tolist()))
        inv_half = half**-1
        mid = inv_half * mp.matrix(x.value.tolist()) * inv_half

        def along(h):
            q = half * mp.expm(h * mid) * half
            return mp.matrix([[mp.log(mp.det(q))], [q[0, 0] + q[1, 1]]])

        exact = [mp.diff(lambda h, k=k: along(h)[k], 0) for k in range(2)]
    for key, want in zip(("logdet", "trace"), exact):
        assert abs(got[key] - float(want)) <= REL * max(1.0, abs(float(want))), key


@pytest.mark.parametrize("lam", [1e-4, 3e-3, 0.5, 1.0, 7.0, 1e2, 1e4, 1e6])
@pytest.mark.parametrize("manifold, text, point, direction", [
    (EUCLIDEAN1, "exp(x1)", [3.0], [0.5]),
    (CIRCLE, "exp(theta)", 4.0, 0.5),
    (EUCLIDEAN2, "(x1 - 0.3)^2 + sin(x2)", [1.0, -0.5], [0.4, -1.2]),
    (SPD2, "trace - 3*logdet", np.diag([1.5, 2.0]), [[0.2, 0.1], [0.1, -0.3]]),
])
def test_scaling_scales_the_rate(lam, manifold, text, point, direction):
    # the dual lane's rate scales exactly with the function
    p = manifold.point(point)
    x = manifold.tangent(p, direction)
    base = dir_deriv(RealFn.from_expression(text, manifold), p, x)
    scaled = dir_deriv(RealFn.from_expression(f"{lam!r}*({text})", manifold), p, x)
    assert scaled == pytest.approx(lam * base, rel=1e-15)


class TestEdges:
    def rate(self, text, theta, x):
        p = CIRCLE.point(theta)
        return dir_deriv(RealFn.from_expression(text, CIRCLE), p, CIRCLE.tangent(p, x))

    def test_abs_at_its_kink_is_one_sided(self):
        for x in (2.0, -2.0):
            assert self.rate("abs(theta - 1)", 1.0, x) == 2.0
            assert self.rate("-abs(theta - 1)", 1.0, x) == -2.0
        assert self.rate("abs(theta - 1)", 1.0, 0.0) == 0.0

    def test_chart_edge(self):
        # a geodesic that leaves the chart at once has no rate ...
        for theta, x in ((0.0, -0.5), (TWO_PI, 0.5)):
            with pytest.raises(DomainError, match="leaves the chart at once"):
                self.rate("theta^2", theta, x)
        # ... one that stays in it has one, at the edge and near it, where
        # the ladder's first step left the chart
        assert self.rate("theta^2", 0.0, 0.5) == 0.0
        assert self.rate("theta^2", TWO_PI, -0.5) == -2.0 * TWO_PI * 0.5
        assert self.rate("theta^2", 1e-3, -1.0) == -2e-3
        p = CIRCLE.point(1e-3)
        opaque = RealFn(CIRCLE, RealFn.from_expression("theta^2", CIRCLE).fn)
        with pytest.raises(DomainError, match="outside the chart range"):
            dir_deriv(opaque, p, CIRCLE.tangent(p, -1.0))

    def test_a_fault_at_the_base_point_wins(self):
        # f(p)'s own error, before the chart edge and before a rate fault
        with pytest.raises(DomainError, match="^ln of non-positive value 0.0$"):
            self.rate("ln(theta)", 0.0, -1.0)
        with pytest.raises(DomainError, match="^division by zero$"):
            self.rate("sqrt(theta - 1) / (theta - 1)", 1.0, 1.0)

    def test_sqrt_at_zero(self):
        # the ladder did not settle here (last gap 16.6)
        with pytest.raises(DomainError, match="^sqrt at 0 has no finite rate"):
            self.rate("sqrt(theta - 1)", 1.0, 1.0)
        assert self.rate("sqrt(theta - 1)", 1.0, 0.0) == 0.0
        assert self.rate("sqrt(theta - 1)", 2.0, 1.0) == 0.5

    def test_power_of_a_moving_zero_base(self):
        for text in ("(theta - 1)^0.5", "(theta - 1)^0.25", "abs(theta - 1)^0.9"):
            message = "^0 \\^ 0\\.[0-9]+ has no finite rate where the base moves$"
            with pytest.raises(DomainError, match=message):
                self.rate(text, 1.0, 1.0)
            assert self.rate(text, 1.0, 0.0) == 0.0
        assert self.rate("(theta - 1)^1", 1.0, 3.0) == 3.0
        assert self.rate("(theta - 1)^1.5", 1.0, 3.0) == 0.0
        assert self.rate("(theta - 1)^0", 1.0, 3.0) == 0.0

    def test_power_with_a_moving_exponent(self):
        for theta in (1.0, 0.5):
            with pytest.raises(DomainError, match="the exponent moves"):
                self.rate("(theta - 1)^(2*theta)", theta, 1.0)
        assert self.rate("(theta - 1)^(2*theta)", 0.5, 0.0) == 0.0
        assert self.rate("2^theta", 1.0, 1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-15)

    def test_non_finite_rate(self):
        with pytest.raises(NonFiniteError, match="rate"):
            self.rate("1e300*theta", 1.0, 1e10)

    def test_constants_are_plain_floats(self):
        tree = parse("2*pi - e^2")
        run = compile_dual(tree, compile_scalar(tree))
        assert run({}) == (2 * math.pi - math.e**2, 0.0)
        assert run({"theta": (1.0, 5.0)}) == (2 * math.pi - math.e**2, 0.0)


def test_gh_rates_come_from_the_lane():
    f = IvFn.from_expressions("(theta - 4)^2", "0.5*(theta - 2)^2 + 0.2", CIRCLE)
    p = CIRCLE.point(2.5)
    d = gh_dir_deriv(f, p, CIRCLE.tangent(p, -0.5))
    assert (d.center_part, d.width_part) == (1.5, -0.25)
    assert d.value.center == 1.5 and d.value.halfwidth == 0.25
    assert not d.monotone_width_ok  # the width falls along -0.5


def test_opaque_functions_keep_the_ladder():
    f = RealFn.from_expression("1e4*exp(theta)", CIRCLE)
    p = CIRCLE.point(4.0)
    x = CIRCLE.tangent(p, 0.5)
    assert dir_deriv(f, p, x) == pytest.approx(0.5e4 * math.exp(4.0), rel=1e-15)
    # the ladder stops on agreement relative to the estimate's size
    assert dir_deriv(RealFn(CIRCLE, f.fn), p, x) == pytest.approx(0.5e4 * math.exp(4.0),
                                                                rel=1e-9)
