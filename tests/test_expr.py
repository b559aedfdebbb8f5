"""Expression grammar: parsing, evaluation, precedence, and round-trips."""

import math

import pytest
from hypothesis import given, strategies as st

from ivopt import expr
from ivopt.errors import (
    DomainError,
    ExprSyntaxError,
    NonFiniteError,
    UnknownFunctionError,
)


def ev(text, **features):
    return expr.eval_node(expr.parse(text), features)


class TestPrecedence:
    def test_core_rules(self):
        assert ev("2+3*4") == 14.0
        assert ev("2^3^2") == 512.0  # right-associative
        assert ev("-2^2") == -4.0    # exponent binds tighter than unary minus

    def test_more_rules(self):
        assert ev("2*3^2") == 18.0
        assert ev("(2+3)*4") == 20.0
        assert ev("8/4/2") == 1.0    # left-associative
        assert ev("1-2-3") == -4.0
        assert ev("-2*-3") == 6.0
        assert ev("2^-1") == 0.5     # unary minus allowed in the exponent

    def test_structure_of_negated_power(self):
        tree = expr.parse("-theta^2 + 5*pi^2")
        assert isinstance(tree, expr.BinOp) and tree.op == "+"
        assert isinstance(tree.left, expr.Neg)
        assert isinstance(tree.left.operand, expr.BinOp)
        assert tree.left.operand.op == "^"
        # value check: at theta = pi the whole thing is 4*pi^2
        assert ev("-theta^2 + 5*pi^2", theta=math.pi) == pytest.approx(
            4.0 * math.pi**2
        )

    def test_power_node_over_difference(self):
        tree = expr.parse("(theta - pi/2)^2")
        assert isinstance(tree, expr.BinOp) and tree.op == "^"
        assert isinstance(tree.left, expr.BinOp) and tree.left.op == "-"


class TestEvaluation:
    def test_worked_values(self):
        assert ev("(theta - pi/2)^2", theta=math.pi / 2) == 0.0
        assert ev("logdet", logdet=math.log(4.0)) == pytest.approx(1.3863, abs=1e-4)
        assert ev("exp(-(theta-pi/2)^2)-1", theta=math.pi / 2) == 0.0

    def test_constants(self):
        assert ev("pi") == math.pi
        assert ev("e") == math.e
        assert ev("cos(pi)") == pytest.approx(-1.0)

    def test_functions(self):
        assert ev("ln(e)") == pytest.approx(1.0)
        assert ev("sqrt(16)") == 4.0
        assert ev("abs(-3.5)") == 3.5
        assert ev("sin(0)") == 0.0

    def test_number_forms(self):
        assert ev("1.5e2") == 150.0
        assert ev(".25") == 0.25
        assert ev("2.") == 2.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ev("ln(0)")
        with pytest.raises(DomainError):
            ev("ln(-1)")
        with pytest.raises(DomainError):
            ev("sqrt(-4)")
        with pytest.raises(DomainError):
            ev("1/0")

    def test_overflow_reported(self):
        with pytest.raises(NonFiniteError):
            ev("exp(10000)")

    def test_power_overflow_reported(self):
        with pytest.raises(NonFiniteError, match=r"10.0 \^ 400.0 overflows"):
            ev("10^400")

    def test_unbound_feature(self):
        with pytest.raises(DomainError, match="feature 'x2' has no bound value"):
            expr.eval_node(expr.parse("x1 + x2"), {"x1": 1.0})


class TestParseErrors:
    def test_unclosed_call_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            expr.parse("ln(")
        assert info.value.position == 3

    @pytest.mark.parametrize("text, message, position", [
        ("(1 + 2", r"unclosed parenthesis at offset 6 \(expected '\)'\)", 6),
        ("ln(2", r"unclosed call at offset 4 \(expected '\)' or ','\)", 4),
        ("ln(1, 2)", "ln expects exactly one argument at offset 0", 0),
    ])
    def test_unclosed_and_overfull_forms(self, text, message, position):
        with pytest.raises(ExprSyntaxError, match=message) as info:
            expr.parse(text)
        assert info.value.position == position

    def test_expected_tokens_attached(self):
        with pytest.raises(ExprSyntaxError) as info:
            expr.parse("2 +")
        assert info.value.expected

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            expr.parse("1 2")
        with pytest.raises(ExprSyntaxError):
            expr.parse("(1+2))")

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            expr.parse("")

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError) as info:
            expr.parse("foo(2)")
        assert info.value.name == "foo"

    def test_feature_names_collected(self):
        names = expr.feature_names(expr.parse("x1*x2 + sin(x1) - pi"))
        assert names == frozenset({"x1", "x2"})


ROUNDTRIP_CORPUS = [
    "1", "-1", "2.5", "pi", "e", "theta", "x1", "logdet", "trace",
    "1+2", "1-2", "2*3", "8/4", "2^3", "-theta", "--theta",
    "2+3*4", "(2+3)*4", "2^3^2", "-2^2", "(-2)^2", "2^-1",
    "1-2-3", "8/4/2", "1-(2-3)", "8/(4/2)",
    "theta - pi/2", "(theta - pi/2)^2", "-theta^2 + 5*pi^2",
    "exp(-(theta-pi/2)^2)-1", "(2*theta/pi - 1) - (theta - pi/2)^2 - 1",
    "ln(1 + theta^2)", "sqrt(1 + x1^2 + x2^2)", "sin(2*theta) + cos(theta)",
    "logdet^2", "logdet^3/6", "exp(logdet/2)", "abs(x1 - x2)",
    "x1*x2", "(x1 - x2)^2", "sin(x1) + cos(x2)", "x1^2 + x2^2",
    "theta^3/10", "1/(1+exp(-theta))", "sqrt(abs(theta - pi/2))",
    "2*e^2", "-(theta + 1)", "-(theta^2 + 1)", "cos(pi*x1)",
    "abs(-x1)", "ln(e^2)", "0.5*(x1 + x2)", "-x1/-x2",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", ROUNDTRIP_CORPUS)
    def test_print_then_reparse_is_structural_identity(self, text):
        tree = expr.parse(text)
        assert expr.parse(expr.to_text(tree)) == tree

    @pytest.mark.parametrize("text", ROUNDTRIP_CORPUS)
    def test_roundtrip_preserves_value(self, text):
        env = {"theta": 0.75, "x1": 1.25, "x2": -0.5,
               "logdet": 0.4, "trace": 3.0}
        tree = expr.parse(text)
        a = expr.eval_node(tree, env)
        b = expr.eval_node(expr.parse(expr.to_text(tree)), env)
        assert b == pytest.approx(a, rel=1e-15, abs=1e-15)

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_number_rendering_exact(self, x):
        node = expr.Num(x)
        assert ev(expr.to_text(node)) == x
