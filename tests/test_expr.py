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


def fault(tree, features=None):
    """(type, text) of what eval_node raises on a tree."""
    with pytest.raises(Exception) as info:
        expr.eval_node(tree, features or {})
    return type(info.value), str(info.value)


INF, NAN = math.inf, math.nan
UNKNOWN_CALL = expr.Call("foo", (expr.Num(1.0),))
UNBOUND = expr.Feature("y")


class TestEvalFaults:
    """The exact type and text of each fault, and which of two comes first."""

    @pytest.mark.parametrize("text, features, error, message", [
        ("1/0", {}, DomainError, "division by zero"),
        ("theta/(theta - theta)", {"theta": 2.0}, DomainError, "division by zero"),
        ("1/-0", {}, DomainError, "division by zero"),
        ("ln(0)", {}, DomainError, "ln of non-positive value 0.0"),
        ("ln(-0)", {}, DomainError, "ln of non-positive value -0.0"),
        ("ln(theta)", {"theta": -INF}, DomainError, "ln of non-positive value -inf"),
        ("sqrt(-4)", {}, DomainError, "sqrt of negative value -4.0"),
        ("(-8)^(1/3)", {}, DomainError,
         "-8.0 ^ 0.3333333333333333 is undefined over the reals"),
        ("0^-1", {}, DomainError, "0.0 ^ -1.0 is undefined over the reals"),
        ("10^400", {}, NonFiniteError, "10.0 ^ 400.0 overflows"),
        ("exp(10000)", {}, NonFiniteError, "exp(10000.0) overflows"),
        ("exp(theta)", {"theta": 710.0}, NonFiniteError, "exp(710.0) overflows"),
        ("theta*1e308*10", {"theta": 1.0}, NonFiniteError, "expression evaluated to inf"),
        ("-theta*1e308*10", {"theta": 1.0}, NonFiniteError, "expression evaluated to -inf"),
        ("theta - theta", {"theta": INF}, NonFiniteError, "expression evaluated to nan"),
        ("ln(theta) + sqrt(theta)", {"theta": NAN}, NonFiniteError,
         "expression evaluated to nan"),
        ("exp(theta)", {"theta": INF}, NonFiniteError, "expression evaluated to inf"),
        ("sin(theta)", {"theta": INF}, ValueError, "math domain error"),
        ("cos(theta)", {"theta": -INF}, ValueError, "math domain error"),
        ("x1 + x2", {"x1": 1.0}, DomainError, "feature 'x2' has no bound value"),
    ])
    def test_fault_type_and_text(self, text, features, error, message):
        assert fault(expr.parse(text), features) == (error, message)

    @pytest.mark.parametrize("text, message", [
        ("1/0 + ln(0)", "division by zero"),
        ("ln(0) + 1/0", "ln of non-positive value 0.0"),
        ("ln(0)/0", "ln of non-positive value 0.0"),
        ("1/ln(0)", "ln of non-positive value 0.0"),
        ("sqrt(-1)^ln(0)", "sqrt of negative value -1.0"),
        ("(-1)^0.5 * exp(1e4)", "-1.0 ^ 0.5 is undefined over the reals"),
        ("exp(1e4) - 10^400", "exp(10000.0) overflows"),
        ("y + 1/0", "feature 'y' has no bound value"),
        ("1/0 + y", "division by zero"),
        ("ln(y - 1/0)", "feature 'y' has no bound value"),
    ])
    def test_faults_come_left_to_right(self, text, message):
        assert fault(expr.parse(text))[1] == message

    def test_overflow_names_the_call(self):
        # an integer leaf in a hand-built tree overflows converting to float
        huge = expr.Num(10**400)
        for fn in ("exp", "sin", "cos", "sqrt"):
            assert fault(expr.Call(fn, (huge,))) == (
                NonFiniteError, f"{fn}({10**400}) overflows")

    def test_unknown_function_in_a_hand_built_tree(self):
        with pytest.raises(UnknownFunctionError) as info:
            expr.eval_node(UNKNOWN_CALL, {})
        assert (info.value.name, info.value.position) == ("foo", 0)
        assert str(info.value) == "unknown function 'foo' at offset 0"
        # its argument is evaluated first, and anything left of it before that
        assert fault(expr.Call("foo", (UNBOUND,))) == (
            DomainError, "feature 'y' has no bound value")
        assert fault(expr.BinOp("+", UNBOUND, UNKNOWN_CALL))[0] is DomainError
        assert fault(expr.BinOp("+", UNKNOWN_CALL, UNBOUND))[0] is UnknownFunctionError

    def test_unknown_node_in_a_hand_built_tree(self):
        assert fault("junk") == (TypeError, "unknown expression node 'junk'")
        assert fault(expr.Neg("junk")) == (TypeError, "unknown expression node 'junk'")
        modulo = expr.BinOp("%", expr.Num(1.0), expr.Num(2.0))
        assert fault(modulo) == (TypeError, f"unknown expression node {modulo!r}")
        # operands are evaluated first, left to right
        assert fault(expr.BinOp("%", UNBOUND, expr.Num(2.0)))[0] is DomainError
        assert fault(expr.BinOp("+", UNBOUND, "junk"))[0] is DomainError
        assert fault(expr.BinOp("+", "junk", UNBOUND))[0] is TypeError


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
