"""Interval arithmetic, gH difference, Hausdorff metric, and order relations."""

import math

import pytest
from hypothesis import given, strategies as st

from ivopt.interval import (
    Interval,
    OrderOutcome,
    OrderRelation,
    ZERO,
    add,
    combine,
    compare,
    format_interval,
    gh_diff,
    hausdorff,
    leq_min,
    lt_min,
    geq_max,
    parse_interval,
    scale,
)

LN2 = math.log(2.0)
LN4 = math.log(4.0)


# exactly representable values so exact (eps_c = 0) comparisons are meaningful
def dyadics(lo=-1024, hi=1024):
    return st.integers(min_value=lo, max_value=hi).map(lambda k: k / 64.0)


@st.composite
def dyadic_intervals(draw):
    a = draw(dyadics())
    b = draw(dyadics())
    return Interval(min(a, b), max(a, b))


@st.composite
def float_intervals(draw):
    vals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    a = draw(vals)
    b = draw(vals)
    return Interval(min(a, b), max(a, b))


class TestConstruction:
    def test_endpoints_and_views(self):
        t = Interval(1.0, 4.0)
        assert t.lb == 1.0 and t.ub == 4.0
        assert t.center == 2.5
        assert t.halfwidth == 1.5

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Interval(0.0, float("nan"))
        with pytest.raises(ValueError):
            Interval(float("-inf"), 0.0)

    def test_negative_halfwidth_rejected(self):
        with pytest.raises(ValueError):
            Interval.from_center_width(0.0, -0.5)

    def test_point_is_degenerate(self):
        t = Interval.point(3.0)
        assert t.lb == t.ub == 3.0
        assert t.is_degenerate()
        assert not Interval(0.0, 1.0).is_degenerate()

    @given(c=dyadics(), w=st.integers(min_value=0, max_value=1024).map(lambda k: k / 64.0))
    def test_center_width_roundtrip(self, c, w):
        t = Interval.from_center_width(c, w)
        assert t.center == c
        assert t.halfwidth == w


class TestArithmetic:
    def test_add_examples(self):
        assert add(Interval(1, 4), Interval(2, 3)) == Interval(3, 7)
        assert add(ZERO, Interval(-2.5, 7.0)) == Interval(-2.5, 7.0)
        assert add(Interval(-1, 1), Interval(-2, 5)) == Interval(-3, 6)

    def test_scale_examples(self):
        assert scale(-1.0, Interval(1, 4)) == Interval(-4, -1)
        assert scale(0.0, Interval(-3, 9)) == ZERO
        assert scale(2.0, Interval(-1, 3)) == Interval(-2, 6)

    def test_combine_examples(self):
        t = combine(1.0, ZERO, 1.0, Interval.from_center_width(1.386, 0.0))
        assert t.center == pytest.approx(1.386, abs=1e-15)
        assert t.halfwidth == 0.0

        # half-sum of [0,0] and the interval with center ln4, halfwidth (ln4)^2
        half = combine(0.5, ZERO, 0.5, Interval(LN4 - LN4**2, LN4 + LN4**2))
        assert half.center == pytest.approx(LN2, abs=1e-12)
        assert half.halfwidth == pytest.approx(0.9609060278364028, abs=1e-12)
        assert half.center == pytest.approx(0.693, abs=1e-3)

        t = combine(-1.0, Interval.from_center_width(2, 3), 1.0,
                    Interval.from_center_width(2, 3))
        assert t.center == 0.0
        assert t.halfwidth == 6.0

    @given(t1=dyadic_intervals(), t2=dyadic_intervals())
    def test_combine_generalizes_add_and_scale(self, t1, t2):
        assert combine(1.0, t1, 1.0, t2) == add(t1, t2)
        assert combine(2.5, t1, 0.0, ZERO) == scale(2.5, t1)
        assert combine(-1.5, t1, 0.0, ZERO) == scale(-1.5, t1)

    @given(t1=dyadic_intervals(), t2=dyadic_intervals())
    def test_add_endpointwise(self, t1, t2):
        out = add(t1, t2)
        assert out.lb == t1.lb + t2.lb
        assert out.ub == t1.ub + t2.ub


class TestGhDiff:
    def test_self_difference_is_zero(self):
        t = Interval(-2.25, 7.5)
        assert gh_diff(t, t) == ZERO

    def test_nested_example(self):
        assert gh_diff(Interval(1, 4), Interval(2, 3)) == Interval(-1, 1)

    def test_center_width_form(self):
        t1 = Interval.from_center_width(5, 2)
        t2 = Interval.from_center_width(3, 7)
        out = gh_diff(t1, t2)
        assert out.center == pytest.approx(2.0, abs=1e-12)
        assert out.halfwidth == pytest.approx(5.0, abs=1e-12)

    @given(t1=float_intervals(), t2=float_intervals())
    def test_endpoint_vs_cw_identity(self, t1, t2):
        out = gh_diff(t1, t2)
        want = Interval.from_center_width(
            t1.center - t2.center, abs(t1.halfwidth - t2.halfwidth)
        )
        # the center/width form rounds at the scale of the input endpoints
        scale_ = max(1.0, abs(t1.lb), abs(t1.ub), abs(t2.lb), abs(t2.ub))
        assert abs(out.lb - want.lb) <= 1e-12 * scale_
        assert abs(out.ub - want.ub) <= 1e-12 * scale_


class TestHausdorff:
    def test_examples(self):
        assert hausdorff(Interval(1, 4), Interval(2, 3)) == 1.0
        assert hausdorff(Interval(-5, 5), Interval(-5, 5)) == 0.0
        assert hausdorff(ZERO, Interval(3, 5)) == 5.0

    @given(t1=dyadic_intervals(), t2=dyadic_intervals(), t3=dyadic_intervals())
    def test_metric_axioms(self, t1, t2, t3):
        assert hausdorff(t1, t2) == hausdorff(t2, t1)
        assert hausdorff(t1, t1) == 0.0
        assert (hausdorff(t1, t2) == 0.0) == (t1 == t2)
        assert hausdorff(t1, t3) <= hausdorff(t1, t2) + hausdorff(t2, t3)


class TestCompare:
    def test_lu_incomparable_witness(self):
        assert compare(Interval(1, 4), Interval(2, 3), OrderRelation.LU) \
            is OrderOutcome.INCOMPARABLE

    def test_lu_comparable_cases(self):
        assert compare(Interval(0, 1), Interval(2, 3), OrderRelation.LU) \
            is OrderOutcome.LESS
        assert compare(Interval(2, 3), Interval(0, 1), OrderRelation.LU) \
            is OrderOutcome.GREATER
        assert compare(Interval(0, 1), Interval(0, 1), OrderRelation.LU) \
            is OrderOutcome.EQUAL

    def test_min_order_examples(self):
        # equal centers 2.5; the narrower interval precedes
        assert compare(Interval(2, 3), Interval(1, 4), OrderRelation.MIN) \
            is OrderOutcome.LESS
        t = Interval(-1.5, 2.0)
        assert compare(t, t, OrderRelation.MIN) is OrderOutcome.EQUAL
        assert compare(Interval(0, 1), Interval(4, 5), OrderRelation.MIN) \
            is OrderOutcome.LESS

    def test_max_order_mirrors(self):
        # larger center is preferred; width ties break toward the narrower one
        assert compare(Interval(4, 5), Interval(0, 1), OrderRelation.MAX) \
            is OrderOutcome.GREATER
        assert compare(Interval(2, 3), Interval(1, 4), OrderRelation.MAX) \
            is OrderOutcome.GREATER
        assert geq_max(Interval(2, 3), Interval(1, 4))

    def test_max_order_smaller_center_is_less(self):
        # the narrower interval would precede in the width tie-break
        assert compare(Interval(0, 1), Interval(3, 7), OrderRelation.MAX) \
            is OrderOutcome.LESS

    def test_center_tolerance_default_is_scale_aware(self):
        # centers differ by far less than eps; halfwidths decide
        t1 = Interval.from_center_width(1e6, 2.0)
        t2 = Interval.from_center_width(1e6 + 1e-8, 1.0)
        assert compare(t1, t2) is OrderOutcome.GREATER
        # exact mode sees the center difference
        assert compare(t1, t2, eps_c=0.0) is OrderOutcome.LESS

    @pytest.mark.parametrize("eps_c", [-1.0, float("nan")])
    @pytest.mark.parametrize("rel", list(OrderRelation), ids=lambda r: r.value)
    def test_negative_or_nan_center_tolerance_rejected(self, eps_c, rel):
        # eps_c = -1 would make each interval of this pair Less than the other
        pair = (Interval.point(0.5), Interval.point(0.0))
        for t1, t2 in (pair, pair[::-1]):
            with pytest.raises(ValueError, match="eps_c"):
                compare(t1, t2, rel, eps_c)
            with pytest.raises(ValueError, match="eps_c"):
                leq_min(t1, t2, eps_c)

    def test_infinite_center_tolerance_ties_every_center(self):
        inf = float("inf")
        assert compare(Interval(0, 1), Interval(9, 9), eps_c=inf) is OrderOutcome.GREATER
        assert compare(Interval(9, 9), Interval(0, 1), eps_c=inf) is OrderOutcome.LESS

    def test_helpers(self):
        assert leq_min(Interval(0, 1), Interval(0, 1))
        assert not lt_min(Interval(0, 1), Interval(0, 1))
        assert lt_min(Interval(0, 1), Interval(4, 5))

    @given(t1=dyadic_intervals(), t2=dyadic_intervals())
    def test_min_order_total_and_antisymmetric(self, t1, t2):
        out = compare(t1, t2, OrderRelation.MIN, eps_c=0.0)
        rev = compare(t2, t1, OrderRelation.MIN, eps_c=0.0)
        assert out is not OrderOutcome.INCOMPARABLE
        if out is OrderOutcome.LESS:
            assert rev is OrderOutcome.GREATER
        elif out is OrderOutcome.GREATER:
            assert rev is OrderOutcome.LESS
        else:
            assert rev is OrderOutcome.EQUAL
            assert t1 == t2

    @given(t1=dyadic_intervals(), t2=dyadic_intervals(), t3=dyadic_intervals())
    def test_min_order_transitive(self, t1, t2, t3):
        if leq_min(t1, t2, eps_c=0.0) and leq_min(t2, t3, eps_c=0.0):
            assert leq_min(t1, t3, eps_c=0.0)

    @given(t1=dyadic_intervals(), t2=dyadic_intervals(),
           s=st.integers(min_value=0, max_value=64).map(lambda k: k / 4.0))
    def test_nonneg_scaling_preserves_order(self, t1, t2, s):
        if leq_min(t1, t2, eps_c=0.0):
            assert leq_min(scale(s, t1), scale(s, t2), eps_c=0.0)

    @given(t1=dyadic_intervals(), t2=dyadic_intervals(),
           t3=dyadic_intervals(), t4=dyadic_intervals())
    def test_addition_preserves_order(self, t1, t2, t3, t4):
        if leq_min(t1, t2, eps_c=0.0) and leq_min(t3, t4, eps_c=0.0):
            assert leq_min(add(t1, t3), add(t2, t4), eps_c=0.0)

    @given(t1=dyadic_intervals(), s=dyadics())
    def test_shift_cancellation(self, t1, s):
        # 0 <= T1 + [s,s] implies [-s,-s] <= T1
        if leq_min(ZERO, add(t1, Interval.point(s)), eps_c=0.0):
            assert leq_min(Interval.point(-s), t1, eps_c=0.0)


class TestTextForms:
    def test_format_canonical(self):
        assert format_interval(Interval(1, 4)) == "[1,4]"
        assert format_interval(Interval(-0.5, 2.25)) == "[-0.5,2.25]"

    def test_parse_both_syntaxes(self):
        assert parse_interval("[1,4]") == Interval(1, 4)
        assert parse_interval(" [ -1.5 , 2.5e0 ] ".replace(" ", "")) == Interval(-1.5, 2.5)
        assert parse_interval("<2,3>") == Interval(-1, 5)

    def test_parse_rejects_malformed(self):
        for bad in ("", "[1,2", "1,2", "[1]", "[a,b]", "<1,-2>"):
            with pytest.raises(ValueError):
                parse_interval(bad)

    @given(t=float_intervals())
    def test_format_parse_roundtrip_exact(self, t):
        assert parse_interval(format_interval(t)) == t
