"""Arithmetic expression language over manifold features.

Grammar (recursive descent):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

'^' is right-associative and binds tighter than the operand of a unary
minus, so "-2^2" is -(2^2) = -4 and "2^3^2" is 2^(3^2) = 512.

Identifiers resolve to the constants pi and e, to one of the supported
functions (ln, exp, sin, cos, sqrt, abs) when called, or otherwise to a
manifold feature whose validity is checked at binding time.

``_compile`` is the one tree walk that evaluates.  It turns a tree into
nested closures over a dict of feature values, taking every operator and
function from the op tables of a lane, and evaluates operands left to right
before their operator, so the first fault met is the one raised.

- The scalar lane (``compile_scalar``; ``eval_node`` compiles it per call)
  works on Python floats and raises where a value is undefined: a zero
  divisor, ``ln``, ``sqrt`` or ``^`` off their domain, an overflow, or a
  non-finite result.
- The array lane (``compile_node``) takes a dict of equal-length float64
  feature arrays and returns the scalar lane's value at each entry, bit for
  bit.  ``+ - * /`` and negation are float64 numpy operations, which round
  as Python floats do; ``ln exp sin cos sqrt`` and ``^`` apply the same
  ``math`` functions entry by entry, since numpy's vectorised ones can
  differ by an ulp.  It defers, returning None, wherever the scalar lane
  could raise at some entry; a caller that gets None evaluates point by
  point and meets the exception there.
- The dual lane (``compile_dual``) maps feature (value, rate) pairs to the
  expression's (value, one-sided rate) by forward-mode differentiation;
  constants stay plain floats.  The value half applies the scalar lane's
  ops, so it raises what the scalar lane raises.  In the rate half abs at
  0 has rate |du|, and ``DomainError`` is raised where the rate is not
  finite from the right: ``sqrt`` at 0 and ``u^v`` at u = 0 with v < 1,
  each with du != 0, and ``u^v`` with dv != 0 and u <= 0.  A non-finite
  rate raises ``NonFiniteError``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ExprSyntaxError, NonFiniteError, UnknownFunctionError

FUNCTIONS = ("ln", "exp", "sin", "cos", "sqrt", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Feature:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


Node = object


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self) -> Node:
        node = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ExprSyntaxError(self.pos, "unexpected trailing input", ("end of input",))
        return node

    # -- scanning ------------------------------------------------------
    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _take(self, ch: str) -> bool:
        if self._peek() == ch:
            self.pos += 1
            return True
        return False

    # -- productions ----------------------------------------------------
    def _expr(self) -> Node:
        node = self._term()
        while True:
            ch = self._peek()
            if ch == "+" or ch == "-":
                self.pos += 1
                node = BinOp(ch, node, self._term())
            else:
                return node

    def _term(self) -> Node:
        node = self._unary()
        while True:
            ch = self._peek()
            if ch == "*" or ch == "/":
                self.pos += 1
                node = BinOp(ch, node, self._unary())
            else:
                return node

    def _unary(self) -> Node:
        if self._take("-"):
            return Neg(self._unary())
        return self._power()

    def _power(self) -> Node:
        base = self._atom()
        if self._take("^"):
            return BinOp("^", base, self._unary())
        return base

    def _atom(self) -> Node:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            node = self._expr()
            if not self._take(")"):
                raise ExprSyntaxError(self.pos, "unclosed parenthesis", ("')'",))
            return node
        match = _NUMBER_RE.match(self.text, self.pos)
        if match:
            self.pos = match.end()
            return Num(float(match.group()))
        match = _IDENT_RE.match(self.text, self.pos)
        if match:
            name = match.group()
            name_pos = self.pos
            self.pos = match.end()
            if self._peek() == "(":
                if name not in FUNCTIONS:
                    raise UnknownFunctionError(name, name_pos)
                self.pos += 1
                args = [self._expr()]
                while self._take(","):
                    args.append(self._expr())
                if not self._take(")"):
                    raise ExprSyntaxError(self.pos, "unclosed call", ("')'", "','"))
                if len(args) != 1:
                    raise ExprSyntaxError(
                        name_pos, f"{name} expects exactly one argument"
                    )
                return Call(name, tuple(args))
            if name in CONSTANTS:
                return Const(name)
            return Feature(name)
        raise ExprSyntaxError(
            self.pos,
            "expected an operand",
            ("number", "identifier", "'('", "'-'"),
        )


def parse(text: str) -> Node:
    """Parse an expression into its tree form."""
    return _Parser(text).parse()


def feature_names(node: Node) -> frozenset:
    """Collect the feature identifiers referenced by an expression."""
    if isinstance(node, Feature):
        return frozenset((node.name,))
    if isinstance(node, Neg):
        return feature_names(node.operand)
    if isinstance(node, BinOp):
        return feature_names(node.left) | feature_names(node.right)
    if isinstance(node, Call):
        return frozenset().union(*map(feature_names, node.args))
    return frozenset()


def eval_node(node: Node, features: dict) -> float:
    """Evaluate with the given feature values; raises on domain faults."""
    return compile_scalar(node)(features)


def compile_scalar(node: Node) -> Callable[[dict], float]:
    """The scalar lane: ``eval_node(node, ...)`` compiled once."""
    body = _compile(node, _SCALAR_OPS, _SCALAR_CALLS)

    def run(features: dict) -> float:
        value = body(features)
        if not math.isfinite(value):
            raise NonFiniteError(f"expression evaluated to {value}")
        return value

    return run


class _RateFault(Exception):
    """Raised inside a dual-lane closure where a rate is not finite from the right."""


def compile_dual(node: Node, scalar: Callable[[dict], float]) -> Callable[[dict], tuple]:
    """The dual lane of ``node`` (module docstring), compiled on its first call.
    A rate fault raises once ``scalar``, the node's scalar lane, has evaluated
    the values without a fault of its own."""
    body = [node]  # the tree until the first call, then its closure

    def run(features: dict) -> tuple:
        if not callable(body[0]):
            body[0] = _compile(body[0], _DUAL_OPS, _DUAL_CALLS)
        try:
            out = body[0](features)
        except _RateFault as fault:
            scalar({name: pair[0] for name, pair in features.items()})
            raise DomainError(*fault.args) from None
        value, rate = out if out.__class__ is tuple else (out, 0.0)  # a constant
        for what, x in (("expression", value), ("expression's rate", rate)):
            if not math.isfinite(x):
                raise NonFiniteError(f"{what} evaluated to {x}")
        return value, rate

    return run


class _Defer(Exception):
    """Raised inside an array-lane closure where the scalar lane could raise."""


def compile_node(node: Node) -> Callable[[dict], Optional[np.ndarray]]:
    """The array lane of ``eval_node(node, ...)``; see the module docstring."""
    body = _compile(node, _ARRAY_OPS, _ARRAY_CALLS)

    def run(features: dict) -> Optional[np.ndarray]:
        n = len(next(iter(features.values())))
        try:
            with np.errstate(all="ignore"):
                values = body(features)
        except _Defer:
            return None
        values = np.broadcast_to(values, (n,))
        return values if np.isfinite(values).all() else None

    return run


def _compile(node: Node, ops: dict, calls: dict):
    """node as closures over a features dict, with a lane's op tables."""
    if isinstance(node, (Num, Const)):
        value = node.value if isinstance(node, Num) else CONSTANTS[node.name]
        return lambda features: value
    if isinstance(node, Feature):
        name = node.name

        def lookup(features):
            try:
                return features[name]
            except KeyError:
                raise DomainError(f"feature {name!r} has no bound value") from None

        return lookup
    if isinstance(node, Neg):
        operand, neg = _compile(node.operand, ops, calls), ops["neg"]
        return lambda features: neg(operand(features))
    if isinstance(node, Call):
        arg = _compile(node.args[0], ops, calls)
        apply = calls.get(node.fn) or _fails(UnknownFunctionError, node.fn, 0)
        return lambda features: apply(arg(features))
    if isinstance(node, BinOp):
        left, right = _compile(node.left, ops, calls), _compile(node.right, ops, calls)
        op = ops.get(node.op) or _fails(TypeError, f"unknown expression node {node!r}")
        return lambda features: op(left(features), right(features))
    return _fails(TypeError, f"unknown expression node {node!r}")


def _fails(error: type, *args):
    """A closure that raises ``error(*args)`` when reached, after its operands."""
    def fail(*operands):
        raise error(*args)

    return fail


def _divide_scalar(left, right):
    if right == 0.0:
        raise DomainError("division by zero")
    return left / right


def _power_scalar(left, right):
    try:
        return math.pow(left, right)
    except ValueError:
        raise DomainError(f"{left} ^ {right} is undefined over the reals") from None
    except OverflowError:
        raise NonFiniteError(f"{left} ^ {right} overflows") from None


def _ln(x):
    if x <= 0.0:
        raise DomainError(f"ln of non-positive value {x}")
    return math.log(x)


def _sqrt(x):
    if x < 0.0:
        raise DomainError(f"sqrt of negative value {x}")
    return math.sqrt(x)


def _named_overflow(name: str, fn):
    """fn, with an OverflowError raised as a NonFiniteError naming the call."""

    def apply(x):
        try:
            return fn(x)
        except OverflowError:
            raise NonFiniteError(f"{name}({x}) overflows") from None

    return apply


def _entrywise(fn, *args):
    """fn on each entry as a Python float, as the scalar lane applies it."""
    try:
        if not any(isinstance(a, np.ndarray) for a in args):
            return fn(*args)
        columns = [a.tolist() if isinstance(a, np.ndarray) else repeat(a) for a in args]
        return np.array([fn(*entry) for entry in zip(*columns)])
    except (ValueError, OverflowError):
        raise _Defer from None


def _divide(left, right):
    if np.any(right == 0.0):
        raise _Defer
    return left / right


# The lanes' op tables.  + - * round alike on floats and float64 arrays.  math
# raises ValueError or OverflowError wherever the scalar lane raises (sin and
# cos at +-inf pass it through), so _entrywise defers there.
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_SCALAR_OPS = {**_ARITHMETIC, "/": _divide_scalar, "^": _power_scalar}
_ARRAY_OPS = {**_ARITHMETIC, "/": _divide, "^": partial(_entrywise, math.pow)}
_MATH = {"ln": math.log, "exp": math.exp, "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}
_SCALAR_CALLS = {name: _named_overflow(name, fn)
                 for name, fn in {**_MATH, "ln": _ln, "sqrt": _sqrt}.items()}
_ARRAY_CALLS = {name: partial(_entrywise, fn) for name, fn in _MATH.items()}
_SCALAR_CALLS["abs"] = _ARRAY_CALLS["abs"] = abs
_SCALAR_OPS["neg"] = _ARRAY_OPS["neg"] = operator.neg


def _dual_binary(value_op, rate):
    """A dual-lane operator: value_op on the values, then rate(value, u, du, w, dw)."""
    def op(a, b):
        if a.__class__ is not tuple and b.__class__ is not tuple:
            return value_op(a, b)
        u, du = a if a.__class__ is tuple else (a, 0.0)
        w, dw = b if b.__class__ is tuple else (b, 0.0)
        value = value_op(u, w)
        return value, rate(value, u, du, w, dw)

    return op


def _dual_unary(value_fn, rate):
    """A dual-lane function: value_fn on the value, then rate(value, u, du)."""
    def apply(a):
        if a.__class__ is not tuple:
            return value_fn(a)
        value = value_fn(a[0])
        return value, rate(value, *a)

    return apply


def _power_rate(v, u, du, w, dw):
    if dw != 0.0:
        if u <= 0.0:
            raise _RateFault(f"{u} ^ {w} has no rate where the exponent moves "
                             "and the base is not positive")
        return v * (dw * math.log(u) + w * du / u)
    if du == 0.0 or w == 0.0:
        return 0.0
    if u != 0.0:
        return w * (v / u) * du
    if w < 1.0:
        raise _RateFault(f"0 ^ {w} has no finite rate where the base moves")
    return du if w == 1.0 else 0.0


def _sqrt_rate(v, u, du):
    if v == 0.0 and du != 0.0:
        raise _RateFault("sqrt at 0 has no finite rate where its argument moves")
    return du / (2.0 * v) if du != 0.0 else 0.0


_DUAL_OPS = {name: _dual_binary(_SCALAR_OPS[name], rate) for name, rate in {
    "+": lambda v, u, du, w, dw: du + dw,
    "-": lambda v, u, du, w, dw: du - dw,
    "*": lambda v, u, du, w, dw: du * w + u * dw,
    "/": lambda v, u, du, w, dw: (du - v * dw) / w,
    "^": _power_rate,
}.items()}
_DUAL_OPS["neg"] = _dual_unary(operator.neg, lambda v, u, du: -du)
_DUAL_CALLS = {name: _dual_unary(_SCALAR_CALLS[name], rate) for name, rate in {
    "ln": lambda v, u, du: du / u,
    "exp": lambda v, u, du: v * du,
    "sin": lambda v, u, du: math.cos(u) * du,
    "cos": lambda v, u, du: -math.sin(u) * du,
    "sqrt": _sqrt_rate,
    "abs": lambda v, u, du: du if u > 0.0 else -du if u < 0.0 else abs(du),
}.items()}


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3


def to_text(node: Node) -> str:
    """Render an expression; parse(to_text(t)) is structurally equal to t."""
    return _render(node, 0)


def _render(node: Node, parent_prec: int) -> str:
    if isinstance(node, Num):
        return f"{node.value:.17g}"
    if isinstance(node, (Const, Feature)):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({_render(node.args[0], 0)})"
    if isinstance(node, Neg):
        text = "-" + _render(node.operand, _NEG_PREC)
        return f"({text})" if parent_prec > _NEG_PREC else text
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        if node.op == "^":
            # Right-associative; the base must bind tighter than '^'.
            left = _render(node.left, prec + 1)
            right = _render(node.right, prec - 1)
        else:
            left = _render(node.left, prec)
            right = _render(node.right, prec + 1)
        text = f"{left} {node.op} {right}" if node.op != "^" else f"{left}^{right}"
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"unknown expression node {node!r}")
