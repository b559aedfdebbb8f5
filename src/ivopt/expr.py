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

``eval_node`` evaluates a tree at one point.  ``compile_node`` turns a tree
into its array form: a closure that takes a dict of equal-length float64
feature arrays and returns the values ``eval_node`` gives at each entry, bit
for bit.  ``+ - * /`` and negation are float64 numpy operations, which round
as Python floats do; ``ln exp sin cos sqrt`` and ``^`` apply the same
``math`` functions entry by entry, since numpy's vectorised ones can differ
by an ulp.  The closure defers, returning None, wherever ``eval_node`` could
raise at some entry: a zero divisor, an argument outside a function's domain,
an error from ``math``, or a non-finite result.  A caller that gets None
evaluates point by point and meets the exception there.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
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
    found = set()

    def walk(n: Node) -> None:
        if isinstance(n, Feature):
            found.add(n.name)
        elif isinstance(n, Neg):
            walk(n.operand)
        elif isinstance(n, BinOp):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, Call):
            for a in n.args:
                walk(a)

    walk(node)
    return frozenset(found)


def eval_node(node: Node, features: dict) -> float:
    """Evaluate with the given feature values; raises on domain faults."""
    value = _eval(node, features)
    if not math.isfinite(value):
        raise NonFiniteError(f"expression evaluated to {value}")
    return value


def _eval(node: Node, features: dict) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Feature):
        try:
            return features[node.name]
        except KeyError:
            raise DomainError(f"feature {node.name!r} has no bound value") from None
    if isinstance(node, Neg):
        return -_eval(node.operand, features)
    if isinstance(node, Call):
        arg = _eval(node.args[0], features)
        return _apply(node.fn, arg)
    if isinstance(node, BinOp):
        left = _eval(node.left, features)
        right = _eval(node.right, features)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if right == 0.0:
                raise DomainError("division by zero")
            return left / right
        if node.op == "^":
            try:
                result = math.pow(left, right)
            except ValueError:
                raise DomainError(
                    f"{left} ^ {right} is undefined over the reals"
                ) from None
            except OverflowError:
                raise NonFiniteError(f"{left} ^ {right} overflows") from None
            return result
    raise TypeError(f"unknown expression node {node!r}")


def _apply(fn: str, x: float) -> float:
    try:
        if fn == "ln":
            if x <= 0.0:
                raise DomainError(f"ln of non-positive value {x}")
            return math.log(x)
        if fn == "exp":
            return math.exp(x)
        if fn == "sin":
            return math.sin(x)
        if fn == "cos":
            return math.cos(x)
        if fn == "sqrt":
            if x < 0.0:
                raise DomainError(f"sqrt of negative value {x}")
            return math.sqrt(x)
        if fn == "abs":
            return abs(x)
    except OverflowError:
        raise NonFiniteError(f"{fn}({x}) overflows") from None
    raise UnknownFunctionError(fn, 0)


class _Defer(Exception):
    """Raised inside a compiled closure where eval_node could raise."""


def compile_node(node: Node) -> Callable[[dict], Optional[np.ndarray]]:
    """The array form of ``eval_node(node, ...)``; see the module docstring."""
    body = _compile(node)

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


def _compile(node: Node):
    if isinstance(node, (Num, Const)):
        value = node.value if isinstance(node, Num) else CONSTANTS[node.name]
        return lambda features: value
    if isinstance(node, Feature):
        name = node.name  # bound at RealFn.from_expression, so always present
        return lambda features: features[name]
    if isinstance(node, Neg):
        operand = _compile(node.operand)
        return lambda features: -operand(features)
    if isinstance(node, Call):
        apply, arg = _ARRAY_CALLS[node.fn], _compile(node.args[0])
        return lambda features: apply(arg(features))
    if isinstance(node, BinOp):
        op, left, right = _ARRAY_OPS[node.op], _compile(node.left), _compile(node.right)
        return lambda features: op(left(features), right(features))
    raise TypeError(f"unknown expression node {node!r}")


def _entrywise(fn, *args):
    """fn on each entry as a Python float, as eval_node applies it."""
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


_ARRAY_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _divide,
    "^": lambda a, b: _entrywise(math.pow, a, b),
}
# math.log and math.sqrt raise ValueError wherever _apply raises DomainError,
# so _entrywise defers on their domain edges too
_ARRAY_CALLS = {
    "ln": lambda x: _entrywise(math.log, x),
    "exp": lambda x: _entrywise(math.exp, x),
    "sin": lambda x: _entrywise(math.sin, x),
    "cos": lambda x: _entrywise(math.cos, x),
    "sqrt": lambda x: _entrywise(math.sqrt, x),
    "abs": abs,
}


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
