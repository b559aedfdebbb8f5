"""Closed bounded intervals with center/halfwidth views and order relations.

An interval is stored by its endpoints.  The center-then-halfwidth total
orders (one for minimization, one for maximization) and the endpointwise
partial order are exposed through a single ``compare`` entry point.  A real
value v is the degenerate interval [v, v] (``endpoints``).  ``value_json`` is
the one rule that turns a value or a report into JSON, and a report dataclass
that derives from ``JsonReport`` is written out field by field through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np


class OrderRelation(Enum):
    MIN = "min"
    MAX = "max"
    LU = "lu"


class OrderOutcome(Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"
    INCOMPARABLE = "Incomparable"


CENTER_EPS = 1e-9  # the center tie band, relative to max(1, |c1|, |c2|)


def default_center_eps(c1: float, c2: float) -> float:
    """Tolerance below which two centers are treated as tied."""
    return CENTER_EPS * max(1.0, abs(c1), abs(c2))


def default_center_eps_arrays(c1, c2):
    """``default_center_eps`` entry by entry over numpy arrays (or scalars)."""
    return CENTER_EPS * np.maximum(np.maximum(1.0, np.abs(c1)), np.abs(c2))


@dataclass(frozen=True)
class Interval:
    lb: float
    ub: float

    def __post_init__(self):
        lb = float(self.lb)
        ub = float(self.ub)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)
        if not (math.isfinite(lb) and math.isfinite(ub)):
            raise ValueError(f"interval endpoints must be finite, got [{lb}, {ub}]")
        if lb > ub:
            raise ValueError(f"lower endpoint {lb} exceeds upper endpoint {ub}")

    @property
    def center(self) -> float:
        return 0.5 * (self.lb + self.ub)

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.ub - self.lb)

    @classmethod
    def from_center_width(cls, center: float, halfwidth: float) -> "Interval":
        if halfwidth < 0.0:
            raise ValueError(f"halfwidth must be nonnegative, got {halfwidth}")
        return cls(center - halfwidth, center + halfwidth)

    @classmethod
    def point(cls, x: float) -> "Interval":
        return cls(x, x)

    def to_json(self) -> list:
        return [self.lb, self.ub]

    def __str__(self) -> str:
        return format_interval(self)


ZERO = Interval(0.0, 0.0)


def endpoints(v) -> tuple:
    """(lb, ub) of an interval, a real v as (v, v)."""
    return (v.lb, v.ub) if isinstance(v, Interval) else (v, v)


def value_json(v):
    """A value's JSON form: its own ``to_json`` where it has one (an interval
    gives [lb, ub]), an enum's value, a list, tuple or dict item by item,
    None, a bool, an int or a string as it is, and float(v) for any other real."""
    if hasattr(v, "to_json"):
        return v.to_json()
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, dict):
        return {key: value_json(item) for key, item in v.items()}
    if isinstance(v, (list, tuple)):
        return [value_json(item) for item in v]
    if v is None or isinstance(v, (bool, int, str)):
        return v
    return float(v)


class JsonReport:
    """Base of the report dataclasses: a report's JSON is its fields by name,
    in field order, each through ``value_json``."""

    def to_json(self) -> dict:
        return {field.name: value_json(getattr(self, field.name)) for field in fields(self)}


def format_interval(t: Interval) -> str:
    """Canonical text form ``[lb,ub]`` with 17 significant digits."""
    return f"[{t.lb:.17g},{t.ub:.17g}]"


def parse_interval(text: str) -> Interval:
    """Parse ``[lb,ub]`` or the center/halfwidth form ``<c,w>``."""
    s = text.strip()
    if len(s) >= 2 and s[0] == "[" and s[-1] == "]":
        body, centered = s[1:-1], False
    elif len(s) >= 2 and s[0] == "<" and s[-1] == ">":
        body, centered = s[1:-1], True
    else:
        raise ValueError(f"cannot parse interval {text!r}: expected [lb,ub] or <c,w>")
    parts = body.split(",")
    if len(parts) != 2:
        raise ValueError(f"cannot parse interval {text!r}: expected two comma-separated numbers")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ValueError(f"cannot parse interval {text!r}: {exc}") from None
    if centered:
        return Interval.from_center_width(a, b)
    return Interval(a, b)


def add(t1: Interval, t2: Interval) -> Interval:
    """Minkowski sum."""
    return Interval(t1.lb + t2.lb, t1.ub + t2.ub)


def scale(n: float, t: Interval) -> Interval:
    """Scalar multiple; a negative scalar swaps the endpoints."""
    if n >= 0.0:
        return Interval(n * t.lb, n * t.ub)
    return Interval(n * t.ub, n * t.lb)


def combine(s1: float, t1: Interval, s2: float, t2: Interval) -> Interval:
    """Linear combination s1*T1 + s2*T2 via the Minkowski operations."""
    return add(scale(s1, t1), scale(s2, t2))


def gh_diff(t1: Interval, t2: Interval) -> Interval:
    """Generalized Hukuhara difference.

    Equals the interval with center c1-c2 and halfwidth |w1-w2|.
    """
    lo = t1.lb - t2.lb
    hi = t1.ub - t2.ub
    return Interval(min(lo, hi), max(lo, hi))


def hausdorff(t1: Interval, t2: Interval) -> float:
    """Hausdorff distance: the larger endpoint gap."""
    return max(abs(t1.lb - t2.lb), abs(t1.ub - t2.ub))


def compare(
    t1: Interval,
    t2: Interval,
    rel: OrderRelation = OrderRelation.MIN,
    eps_c: float | None = None,
) -> OrderOutcome:
    """Compare two intervals under the chosen relation.

    For MIN and MAX the comparison is total: centers decide first (ties
    within ``eps_c``), halfwidths break center ties.  ``eps_c=None`` uses
    the scale-aware default; pass 0.0 for exact comparison.  A negative or
    NaN ``eps_c`` would break totality and raises ValueError.  LU compares
    endpointwise and may return Incomparable.
    """
    if eps_c is not None and not eps_c >= 0.0:
        raise ValueError(f"eps_c must be non-negative, got {eps_c}")
    if rel is OrderRelation.LU:
        if t1.lb == t2.lb and t1.ub == t2.ub:
            return OrderOutcome.EQUAL
        if t1.lb <= t2.lb and t1.ub <= t2.ub:
            return OrderOutcome.LESS
        if t1.lb >= t2.lb and t1.ub >= t2.ub:
            return OrderOutcome.GREATER
        return OrderOutcome.INCOMPARABLE

    c1, c2 = t1.center, t2.center
    eps = default_center_eps(c1, c2) if eps_c is None else float(eps_c)
    if rel is OrderRelation.MIN:
        if c1 < c2 - eps:
            return OrderOutcome.LESS
        if c2 < c1 - eps:
            return OrderOutcome.GREATER
    else:
        # MAX order: a larger center is the preferable ("greater") side.
        if c1 > c2 + eps:
            return OrderOutcome.GREATER
        if c2 > c1 + eps:
            return OrderOutcome.LESS
    w1, w2 = t1.halfwidth, t2.halfwidth
    if w1 < w2:
        return OrderOutcome.LESS if rel is OrderRelation.MIN else OrderOutcome.GREATER
    if w1 > w2:
        return OrderOutcome.GREATER if rel is OrderRelation.MIN else OrderOutcome.LESS
    return OrderOutcome.EQUAL


def compare_min_arrays(c1, w1, c2, w2, eps_c=None) -> tuple:
    """``compare(t1, t2, MIN, eps_c)`` entry by entry over numpy arrays of
    centers and halfwidths (t2's may be scalars): the LESS and GREATER
    masks; every other entry is EQUAL.  The same float tests on the same
    bits, so each entry is what ``compare`` returns for the intervals it
    stands for.  Unlike ``compare``, it does not check ``eps_c``: callers
    pass None, 0.0 or a non-negative array."""
    if eps_c is None:
        eps_c = default_center_eps_arrays(c1, c2)
    less = c1 < c2 - eps_c
    greater = ~less & (c2 < c1 - eps_c)
    tied = ~(less | greater)
    return less | (tied & (w1 < w2)), greater | (tied & (w1 > w2))


def leq_min(t1: Interval, t2: Interval, eps_c: float | None = None) -> bool:
    """T1 precedes-or-ties T2 in the minimization order."""
    return compare(t1, t2, OrderRelation.MIN, eps_c) in (
        OrderOutcome.LESS,
        OrderOutcome.EQUAL,
    )
