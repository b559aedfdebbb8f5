"""The multiplier LP solver against scipy's HiGHS, the test-only oracle.

``kkt.linprog`` solves min c.x subject to A_ub x <= b_ub and x >= 0 by a
two-phase simplex with Bland's rule.  Random LPs, integer-rounded ones with
duplicate or zero columns and zero rows, and m = 0 are solved by both and
must agree on feasibility and on the optimal value.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as highs_linprog

from ivopt.kkt import LP_FEAS_TOL, RESID_TOL, _solve_multiplier_lp, linprog

# Chvatal, Linear Programming (1983), section 3: the simplex cycles on it when
# the entering column has the most negative reduced cost and ties in the ratio
# test go to the lowest basic index; the optimum is x = (1, 0, 1, 0).
CHVATAL_C = [-10.0, 57.0, 9.0, 24.0]
CHVATAL_A = [[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0], [1.0, 0.0, 0.0, 0.0]]
CHVATAL_B = [0.0, 0.0, 1.0]


@st.composite
def lp_data(draw, max_n=6, max_m=15):
    """A (m x n) and b of A x <= b: random, or integer-rounded and degenerate."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    if draw(st.booleans()):
        entry = st.integers(-3, 3).map(float)
    else:
        entry = st.floats(-10.0, 10.0).map(lambda v: round(v, 3))
    A = np.array(draw(st.lists(entry, min_size=m * n, max_size=m * n))).reshape(m, n)
    b = np.array(draw(st.lists(entry, min_size=m, max_size=m)))
    if n > 1 and draw(st.booleans()):
        j, k = draw(st.permutations(range(n)))[:2]
        A[:, j] = A[:, k] if draw(st.booleans()) else 0.0
    if m:
        A[sorted(draw(st.sets(st.integers(0, m - 1), max_size=3)))] = 0.0
    return A, b


def highs(c, A, b):
    """HiGHS's (status, optimal value); bound violations within its tolerance clipped."""
    res = highs_linprog(c, A_ub=A if len(b) else None, b_ub=b if len(b) else None,
                        bounds=(0.0, None), method="highs")
    assert res.status in (0, 2, 3), res.message
    value = float(np.dot(c, np.maximum(res.x, 0.0))) if res.status == 0 else None
    return res.status, value


def assert_solves_row_system(A, b, x):
    assert np.all(x >= 0.0)
    terms = np.abs(A * x).sum(axis=1) + np.abs(b)
    assert np.all(A @ x - b <= LP_FEAS_TOL * terms)


def same_value(ours, oracle):
    return math.isclose(ours, oracle, rel_tol=1e-9, abs_tol=1e-12)


def _simplex_multipliers(df, dg):
    """The multiplier LP handed straight to linprog, bypassing its wrapper."""
    res = linprog(np.ones(dg.shape[1]), -dg, df + RESID_TOL)
    return res.x if res.success else None


@pytest.mark.parametrize("solve", [_solve_multiplier_lp, _simplex_multipliers],
                         ids=["default", "simplex-only"])
@settings(max_examples=150)
@given(data=lp_data())
def test_multiplier_lp_matches_highs(solve, data):
    dg, df = data
    A, b = -dg, df + RESID_TOL
    mu = solve(df, dg)
    again = solve(df, dg)
    status, value = highs(np.ones(dg.shape[1]), A, b)
    assert (mu is None) == (status == 2)
    if mu is None:
        assert again is None
        return
    assert np.array_equal(mu, again)
    assert same_value(float(mu.sum()), value)
    assert_solves_row_system(A, b, mu)


@settings(max_examples=150)
@given(data=lp_data(), costs=st.lists(st.integers(-3, 3), min_size=6, max_size=6))
@example(data=(np.array(CHVATAL_A), np.array(CHVATAL_B)), costs=CHVATAL_C + [0.0, 0.0])
def test_linprog_with_any_costs_matches_highs(data, costs):
    A, b = data
    c = np.array(costs[:A.shape[1]], dtype=float)
    res = linprog(c, A, b)
    again = linprog(c, A, b)
    status, value = highs(c, A, b)
    assert res.success == (status == 0)
    assert again.success == res.success
    if res.success:
        assert np.array_equal(res.x, again.x)
        assert same_value(float(c @ res.x), value)
        assert_solves_row_system(A, b, res.x)
    else:
        assert res.x is None


def test_simplex_solves_the_cycling_example():
    res = linprog(CHVATAL_C, CHVATAL_A, CHVATAL_B)
    assert res.success
    assert res.x.tolist() == [1.0, 0.0, 1.0, 0.0]


@pytest.mark.parametrize("A, b, want", [
    # x1 + x2 >= 1: the whole edge from (1, 0) to (0, 1) is optimal
    ([[-1.0, -1.0]], [-1.0], [1.0, 0.0]),
    # x1 + x2 + x3 >= 2 and x1 + x3 >= 1: (0, 0, 2), (0, 1, 1), (1, 1, 0), (2, 0, 0)
    ([[-1.0, -1.0, -1.0], [-1.0, 0.0, -1.0]], [-2.0, -1.0], [1.0, 1.0, 0.0]),
])
def test_tied_optima_resolve_to_the_same_optimal_vertex(A, b, want):
    for _ in range(3):
        assert linprog(np.ones(len(want)), A, b).x.tolist() == want
