"""Curvature of expressions along geodesics, decided by composition rules.

``geodesic_shape(tree, manifold)`` gives a parsed expression's ``Shape``
along the geodesics that ``manifold.path_features`` walks: its curvature
(affine, convex, concave or unknown), the signs its values can take, and its
value when it names no feature.  The rules are those of disciplined convex
programming (Grant, Boyd & Ye, "Disciplined convex programming", 2006) in
their geodesic form (Cheng, Dixit & Weber, "Disciplined geodesically convex
programming", 2024):

- atoms: ``theta`` and ``xᵢ`` are affine along the flat geodesics; on
  ``Spd`` ``logdet`` is affine and ``trace`` is convex and positive.  No
  other sign is taken from a chart, so a flat proof holds on the whole line;
- sums keep curvature, and so does scaling by a constant, which a negative
  constant flips;
- ``a^p`` for a constant p: an affine a to an even positive integer p is
  convex and nonnegative, a convex nonnegative a to p >= 1 is convex;
- ``exp`` of an affine or convex argument is convex, ``abs`` of an affine
  one is convex, ``ln`` and ``sqrt`` of an affine or concave one concave;
- everything else (``sin``, ``cos``, a product of non-constants, a division
  by a non-constant, any other power) is unknown.

Signs are those float evaluation can give, rounding and underflow included:
a scaled positive value may underflow to zero, and so may ``exp``.  ``ln``,
``sqrt``, ``/`` and ``^`` count only where their operand is shown inside
their domain, so a function whose shape is known never raises DomainError;
it may still overflow.  A constant subexpression is evaluated as the
scalar lane evaluates it, and one that raises makes the whole shape unknown.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import expr as expr_mod
from .errors import IvoptError
from .expr import BinOp, Call, Const, Feature, Neg, Num
from .manifolds import Circle, Euclidean, Spd

AFFINE, CONVEX, CONCAVE, UNKNOWN = "affine", "convex", "concave", "unknown"

ANY = frozenset((-1, 0, 1))
NONNEG = frozenset((0, 1))
POSITIVE = frozenset((1,))

# curvature as (convex, concave): a sum is both only where both terms are
_FLAGS = {AFFINE: (True, True), CONVEX: (True, False), CONCAVE: (False, True),
          UNKNOWN: (False, False)}
_NAMES = {flags: name for name, flags in _FLAGS.items()}


class Shape(NamedTuple):
    """Curvature along geodesics, the possible signs (a subset of {-1, 0, 1})
    and, for an expression without features, its value."""

    curvature: str
    signs: frozenset = ANY
    value: Optional[float] = None

    def convex(self) -> bool:
        """Whether the expression is proved convex (affine included)."""
        return self.curvature in (AFFINE, CONVEX)


UNKNOWN_SHAPE = Shape(UNKNOWN)


def _sign(value: float) -> int:
    return (value > 0.0) - (value < 0.0)


def _feature_shapes(manifold) -> dict:
    """Shapes of the manifold's features along its geodesics."""
    if isinstance(manifold, (Circle, Euclidean)):
        return {name: Shape(AFFINE) for name in manifold.feature_names}
    if isinstance(manifold, Spd):
        return {"logdet": Shape(AFFINE), "trace": Shape(CONVEX, POSITIVE)}
    return {}


def geodesic_shape(tree, manifold) -> Shape:
    """The shape of a parsed expression along the manifold's geodesics."""
    return _shape(tree, _feature_shapes(manifold))


def _shape(node, features: dict) -> Shape:
    if isinstance(node, (Num, Const)):
        return _constant(node)
    if isinstance(node, Feature):
        return features.get(node.name, UNKNOWN_SHAPE)
    if isinstance(node, Neg):
        inner = _shape(node.operand, features)
        return _constant(node) if inner.value is not None else _scaled(inner, -1, exact=True)
    if isinstance(node, Call):
        return _call(node, _shape(node.args[0], features))
    if isinstance(node, BinOp):
        return _binop(node, _shape(node.left, features), _shape(node.right, features))
    return UNKNOWN_SHAPE


def _constant(node) -> Shape:
    """A feature-free node, valued as the scalar lane values it."""
    try:
        value = expr_mod.eval_node(node, {})
    except IvoptError:
        return UNKNOWN_SHAPE
    return Shape(AFFINE, frozenset((_sign(value),)), value)


def _scaled(shape: Shape, sign: int, exact: bool = False) -> Shape:
    """shape times a constant of that sign; a product that is not ``exact``
    (not a negation) can underflow to zero."""
    if shape.curvature == UNKNOWN:
        return UNKNOWN_SHAPE
    if sign == 0:
        return Shape(AFFINE, frozenset((0,)))
    convex, concave = _FLAGS[shape.curvature]
    curvature = _NAMES[(convex, concave) if sign > 0 else (concave, convex)]
    signs = frozenset(sign * s for s in shape.signs)
    return Shape(curvature, signs if exact else signs | {0})


def _sum_signs(left: frozenset, right: frozenset) -> frozenset:
    out = set()
    for a in left:
        for b in right:
            out |= {a} if b == 0 or a == b else {b} if a == 0 else ANY
    return frozenset(out)


def _binop(node: BinOp, left: Shape, right: Shape) -> Shape:
    if left.value is not None and right.value is not None:
        return _constant(node)
    if UNKNOWN in (left.curvature, right.curvature):
        return UNKNOWN_SHAPE
    if node.op in "+-":
        if node.op == "-":
            right = _scaled(right, -1, exact=True)
        flags = zip(_FLAGS[left.curvature], _FLAGS[right.curvature])
        curvature = _NAMES[tuple(a and b for a, b in flags)]
        if curvature == UNKNOWN:
            return UNKNOWN_SHAPE
        return Shape(curvature, _sum_signs(left.signs, right.signs))
    if node.op == "*" and left.value is not None:
        return _scaled(right, _sign(left.value))
    if node.op in "*/" and right.value is not None:
        if node.op == "/" and right.value == 0.0:
            return UNKNOWN_SHAPE  # division by zero everywhere
        return _scaled(left, _sign(right.value))
    if node.op == "^" and right.value is not None:
        return _power(left, right.value)
    return UNKNOWN_SHAPE


def _power(base: Shape, p: float) -> Shape:
    if base.curvature == AFFINE and p > 0.0 and p % 2.0 == 0.0:
        return Shape(CONVEX, NONNEG)
    if base.convex() and p >= 1.0 and base.signs <= NONNEG:
        return Shape(CONVEX, NONNEG)
    return UNKNOWN_SHAPE


def _call(node: Call, arg: Shape) -> Shape:
    if arg.value is not None:
        return _constant(node)
    if node.fn == "exp" and arg.convex():
        return Shape(CONVEX, NONNEG)
    if node.fn == "abs" and arg.curvature == AFFINE:
        return Shape(CONVEX, NONNEG)
    concave = arg.curvature in (AFFINE, CONCAVE)
    if node.fn == "ln" and concave and arg.signs == POSITIVE:
        return Shape(CONCAVE)
    if node.fn == "sqrt" and concave and arg.signs <= NONNEG:
        return Shape(CONCAVE, NONNEG)
    return UNKNOWN_SHAPE
