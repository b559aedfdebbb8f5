"""The proposal stream: bulk draws that reproduce draw_one in a loop exactly.

The reference for every comparison is the scalar ``DomainSampler.draw_one``
loop, reached by the same problem with its domain's bulk proposer removed.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from ivopt.convexity import DomainSampler, ProposalStream
from ivopt.functions import CIRCLE, IvFn, RealFn, lift_real
from ivopt.kkt import (
    Problem,
    _convexity_hypotheses,
    _feasible_points,
    brute_force_improvement,
    direction_samples,
    reduce_p4,
)
from ivopt.manifolds import Euclidean
from ivopt.problems import build_problem, circle_domain, euclidean_box_domain


def scalar_only(prob: Problem) -> Problem:
    """The same problem drawn by draw_one alone: no bulk proposer."""
    return replace(prob, domain=replace(prob.domain, propose=None))


def describe(value):
    """Points, directions and reports by repr, with the bits of array values."""
    if isinstance(value, (list, tuple)):
        return [describe(v) for v in value]
    if hasattr(value, "value"):
        return repr(value), np.asarray(value.value).tobytes()
    return repr(value)


def outcome(call):
    try:
        return "returned", describe(call())
    except Exception as exc:  # the type and message must match too
        return "raised", type(exc).__name__, str(exc)


def recording(fn):
    """fn with an opaque wrapper that logs where it is evaluated, in order."""
    seen = []

    def wrap(part):
        def record(p):
            seen.append(np.asarray(p.value).tobytes())
            return part(p)

        return RealFn(part.manifold, record, name=part.name)

    if isinstance(fn, IvFn):
        return IvFn(wrap(fn.center), fn.width, name=fn.name), seen
    return wrap(fn), seen


def assert_same_sampling(prob: Problem, p0, seed: int) -> None:
    """Every kkt sampling site gives the same result, or raises the same
    error at the same draw, with and without the bulk proposer."""
    ref = scalar_only(prob)
    labelled = [(prob.objective, "objective")]
    labelled += [(g, prob.constraint_label(i)) for i, g in enumerate(prob.constraints)]
    for n, strict in ((200, False), (200, True), (3, True)):
        assert outcome(lambda: brute_force_improvement(prob, p0, n, seed, strict)) == outcome(
            lambda: brute_force_improvement(ref, p0, n, seed, strict))
    for n in (1, 12):
        assert outcome(lambda: direction_samples(prob, p0, n, seed)) == outcome(
            lambda: direction_samples(ref, p0, n, seed))
    assert outcome(lambda: _feasible_points(prob, p0, 32, seed)) == outcome(
        lambda: _feasible_points(ref, p0, 32, seed))
    assert outcome(lambda: _convexity_hypotheses(prob, p0, labelled, seed)) == outcome(
        lambda: _convexity_hypotheses(ref, p0, labelled, seed))
    # the draw at which brute force stops: an opaque objective sees every
    # accepted point, in order, up to the return or the error
    logs = []
    for problem in (prob, ref):
        objective, seen = recording(problem.objective)
        watched = replace(problem, objective=objective)
        logs.append((outcome(lambda: brute_force_improvement(watched, p0, 200, seed)), seen))
    assert logs[0] == logs[1]


# -- random problems on the circle and Euclidean(1..3) ---------------------

SAFE_FUNCTIONS = ("sin", "cos", "abs", "exp")
EDGE_FUNCTIONS = ("ln", "sqrt")


def random_expr(rng: random.Random, feats, depth: int, edges: bool) -> str:
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(list(feats) + [repr(round(rng.uniform(-3.0, 3.0), 3))])
    if roll < 0.75:
        op = rng.choice("+-*/" if edges else "+-*")
        return f"({random_expr(rng, feats, depth - 1, edges)} {op} " \
               f"{random_expr(rng, feats, depth - 1, edges)})"
    if roll < 0.85:
        return f"({random_expr(rng, feats, depth - 1, edges)})^{rng.choice(['2', '3'])}"
    fn = rng.choice(SAFE_FUNCTIONS + (EDGE_FUNCTIONS if edges else ()))
    if fn == "exp":  # keep exp from overflowing most of the time
        return f"exp(sin({random_expr(rng, feats, depth - 1, edges)}))"
    return f"{fn}({random_expr(rng, feats, depth - 1, edges)})"


def random_constraint_text(rng: random.Random, feats) -> str:
    """Mostly cut-outs of a sizeable part of the domain; sometimes any
    expression of the grammar, domain edges and zero divisors included."""
    if rng.random() < 0.25:
        return random_expr(rng, feats, 3, edges=True)
    centre = [round(rng.uniform(-1.5, 1.5) if f != "theta" else rng.uniform(0.5, 5.5), 3)
              for f in feats]
    if rng.random() < 0.5:
        ball = " + ".join(f"({f} - {c!r})^2" for f, c in zip(feats, centre))
        return f"{ball} - {round(rng.uniform(0.5, 4.0), 3)!r}"
    lin = " + ".join(f"{round(rng.uniform(-1, 1), 3)!r}*({f} - {c!r})"
                     for f, c in zip(feats, centre))
    return lin


def random_problem(seed: int):
    rng = random.Random(seed)
    if rng.random() < 0.4:
        manifold = CIRCLE
        lo = round(rng.uniform(0.0, 2.0), 3) if rng.random() < 0.3 else 0.0
        hi = round(rng.uniform(lo + 1.0, 2 * math.pi), 3) if rng.random() < 0.3 else 2 * math.pi
        domain = circle_domain(lo, hi)
    else:
        manifold = Euclidean(rng.choice((1, 2, 3)))
        bounds = []
        for _ in range(manifold.dim):
            lo = round(rng.uniform(-2.5, 0.0), 3)
            bounds.append((lo, round(lo + rng.uniform(0.5, 4.0), 3)))
        domain = euclidean_box_domain(manifold, bounds)
    feats = manifold.feature_names
    interval_objective = rng.random() < 0.5
    interval_constraints = interval_objective and rng.random() < 0.5
    real = lambda text: RealFn.from_expression(text, manifold)
    if interval_objective:
        width = rng.choice([f"0.5*({random_expr(rng, feats, 2, False)})^2 + 0.1", "0",
                            random_expr(rng, feats, 2, True)])
        objective = IvFn(real(random_expr(rng, feats, 3, rng.random() < 0.3)), real(width))
    else:
        objective = real(random_expr(rng, feats, 3, rng.random() < 0.3))
    constraints = []
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        text = random_constraint_text(rng, feats)
        if interval_constraints:
            width = rng.choice(["0", f"0.2*({text})^2", "0.05"])
            constraints.append(IvFn(real(text), real(width)))
        else:
            constraints.append(real(text))
    prob = Problem(manifold, objective, tuple(constraints), domain)
    p0 = domain.draw_one(np.random.default_rng(seed))
    return prob, p0


@pytest.mark.parametrize("chunk", range(8))
def test_random_problems_sample_as_draw_one_does(chunk):
    for seed in range(chunk * 10, chunk * 10 + 10):
        prob, p0 = random_problem(seed)
        assert_same_sampling(prob, p0, seed)


def test_random_problems_take_the_array_path():
    # a guard on the parity test: most random problems really run in bulk
    bulk = 0
    for seed in range(80):
        prob, _ = random_problem(seed)
        stream = ProposalStream(prob.feasible_sampler(), np.random.default_rng(seed))
        try:
            bulk += stream.take(8)[1] is not None
        except Exception:
            pass
    assert bulk >= 40


# -- edge cases ----------------------------------------------------------------


def circle_problem(objective: str, *constraints, lo=0.0, hi=2 * math.pi) -> Problem:
    fns = tuple(c if isinstance(c, (RealFn, IvFn)) else RealFn.from_expression(c, CIRCLE)
                for c in constraints)
    return Problem(CIRCLE, RealFn.from_expression(objective, CIRCLE), fns,
                   circle_domain(lo, hi))


@pytest.mark.parametrize("constraint", ["ln(theta - 0.05) - 5", "sqrt(theta - 0.05) - 5"])
def test_domain_edge_midway_replays_the_batch(constraint):
    # the edge covers under 1 % of the arc: the error comes some way into a batch
    prob = circle_problem("(theta - 3)^2", constraint)
    p0 = CIRCLE.point(3.0)
    raised = 0
    for seed in range(30):
        assert_same_sampling(prob, p0, seed)
        raised += outcome(lambda: brute_force_improvement(prob, p0, 200, seed))[0] == "raised"
    assert 5 <= raised < 30


def test_zero_divisor_midway_replays_the_batch():
    seed = 4
    # the sixth proposal of this seed makes the divisor exactly zero
    c = float(np.random.default_rng(seed).uniform(0.0, 2 * math.pi, 6)[5])
    prob = circle_problem("(theta - 3)^2", f"1/(theta - {c!r}) - 1e6")
    p0 = CIRCLE.point(3.0)
    assert_same_sampling(prob, p0, seed)
    assert len(_feasible_points(prob, p0, 5, seed)) == 5
    assert outcome(lambda: _feasible_points(prob, p0, 6, seed)) == (
        "raised", "DomainError", "division by zero")


def test_opaque_constraints_go_point_by_point():
    iv = lambda c, w: IvFn.from_expressions(c, w, CIRCLE)
    p4 = Problem(CIRCLE, iv("(theta - 4)^2", "0.5*(theta - 4)^2 + 0.2"),
                 (iv("theta - 2.5", "0.3*(theta - 2.5)^2"),), circle_domain())
    lifted = Problem(CIRCLE, iv("(theta - 3)^2", "1"),
                     (lift_real(RealFn.from_expression("theta - 4", CIRCLE)),), circle_domain())
    for prob in (reduce_p4(p4), reduce_p4(p4, CIRCLE.point(1.0)), lifted):
        stream = ProposalStream(prob.feasible_sampler(), np.random.default_rng(0))
        assert stream.take(8)[1] is None
        for seed in range(5):
            assert_same_sampling(prob, CIRCLE.point(2.5), seed)


def test_user_built_sampler_is_drawn_by_draw_one(monkeypatch):
    dom = circle_domain(1.0, 3.0)
    user = DomainSampler(dom.membership, dom.sample, name="user")
    prob = Problem(CIRCLE, RealFn.from_expression("theta", CIRCLE), (), user)
    calls = []
    original = DomainSampler.draw_one
    monkeypatch.setattr(DomainSampler, "draw_one",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    assert brute_force_improvement(prob, CIRCLE.point(2.0), 50, 1) is not None
    assert len(calls) >= 1
    monkeypatch.setattr(DomainSampler, "draw_one", original)
    assert_same_sampling(prob, CIRCLE.point(2.0), 1)


class ScriptedRng:
    """Stands in for a Generator: ``uniform`` hands out scripted values in order."""

    def __init__(self, values):
        self.values, self.pos = list(values), 0

    def uniform(self, lo, hi, size=None):
        count = 1 if size is None else int(np.prod(size))
        assert self.pos + count <= len(self.values), "script too short"
        out = self.values[self.pos:self.pos + count]
        self.pos += count
        return out[0] if size is None else np.array(out).reshape(size)


def draws(prob: Problem, script, n: int, **kwargs):
    """Outcomes of the first 1..n draws, by the stream and by draw_one."""
    stream_side, scalar_side = [], []
    for k in range(1, n + 1):
        stream = ProposalStream(prob.feasible_sampler(), ScriptedRng(script), **kwargs)
        stream_side.append(outcome(lambda: stream.points(k)))
        sampler, rng = scalar_only(prob).feasible_sampler(), ScriptedRng(script)
        scalar_side.append(outcome(lambda: [
            sampler.draw_one(rng, apart_from=kwargs.get("apart_from"),
                             min_dist=kwargs.get("min_dist", 0.0))
            for _ in range(k)]))
    assert stream_side == scalar_side
    return stream_side


@pytest.mark.parametrize("gap", [999, 1000])
def test_exhaustion_at_exactly_max_tries_across_batches(gap):
    # accepted proposals at 0 and 1 + gap; the run between spans many batches
    prob = circle_problem("theta", "theta - 1")
    results = draws(prob, [0.5] + [2.0] * gap + [0.5] + [2.0] * 20000, 3)
    assert results[0][0] == "returned"
    assert results[1][0] == ("returned" if gap < 1000 else "raised")
    assert results[2] == ("raised", "SamplerExhaustedError",
                          "sampler problem|feasible found no admissible point in 1000 proposals")


def test_min_dist_rejections_count_toward_max_tries():
    prob = circle_problem("theta", "theta - 3")
    p0 = CIRCLE.point(1.0)
    for seed in range(10):
        for min_dist in (0.5, 1.5):
            assert outcome(lambda: direction_samples(prob, p0, 12, seed, min_dist)) == outcome(
                lambda: direction_samples(scalar_only(prob), p0, 12, seed, min_dist))
    # every member within 2 of p0: the min_dist test alone exhausts the sampler
    near = circle_problem("theta", "theta - 3", hi=3.0)
    assert outcome(lambda: direction_samples(near, p0, 1, 0, 5.0)) == (
        "raised", "SamplerExhaustedError",
        "sampler problem|feasible found no admissible point in 1000 proposals")
    # runs of min_dist rejections: 500, 999, then one that exhausts at 1000
    script = [1.2] * 500 + [2.5] + [1.2] * 999 + [2.9] + [1.2] * 20000
    results = draws(prob, script, 3, apart_from=p0, min_dist=1.0)
    assert [r[0] for r in results] == ["returned", "returned", "raised"]
    assert results[2][1] == "SamplerExhaustedError"


@pytest.mark.parametrize("scalar_larger", [True, False])
def test_min_dist_uses_the_scalar_distance(scalar_larger):
    # points where numpy's row-wise norm differs from distance in the last bit
    e2 = Euclidean(2)
    rows = np.random.default_rng(0).uniform(-2.0, 2.0, (2000, 2))
    scalar = np.array([np.linalg.norm(v) for v in rows])
    vectorised = np.linalg.norm(rows, axis=1)
    pick = np.flatnonzero(scalar > vectorised if scalar_larger else scalar < vectorised)[0]
    v = rows[pick]
    # min_dist at the larger of the two: only the scalar distance decides right
    min_dist = max(scalar[pick], vectorised[pick])
    prob = Problem(e2, RealFn.from_expression("x1", e2), (), euclidean_box_domain(e2))
    script = list(v) + [1.9, 1.9] * 10 + [0.0] * 40000
    results = draws(prob, script, 2, apart_from=e2.point([0.0, 0.0]), min_dist=min_dist)
    first = results[0][1][0][1]
    assert (first == v.tobytes()) == scalar_larger


def test_ties_under_strict_check_the_distance_in_order():
    p0 = CIRCLE.point(1.0)
    flat = circle_problem("5", lo=1.0, hi=1.0 + 2e-8)
    for seed in range(20):
        assert_same_sampling(flat, p0, seed)
        q = brute_force_improvement(flat, p0, 50, seed, strict=True)
        assert q is not None and q.value - 1.0 > 1e-8
        assert brute_force_improvement(flat, p0, 50, seed) is None
    tiny = circle_problem("5", lo=1.0, hi=1.0 + 1e-9)
    assert brute_force_improvement(tiny, p0, 50, 0, strict=True) is None
    iv = Problem(CIRCLE, IvFn.from_expressions("1", "abs(theta - 2) - abs(theta - 2) + 0.5",
                                               CIRCLE), (), circle_domain())
    for seed in range(5):
        assert_same_sampling(iv, CIRCLE.point(2.0), seed)


def test_interval_constraint_mask_uses_the_default_center_tolerance():
    # center 1e-9*(theta - 3) with zero width ties [0, 0] up to theta = 4
    g = IvFn.from_expressions("1e-9*(theta - 3)", "0", CIRCLE)
    prob = Problem(CIRCLE, IvFn.from_expressions("theta", "1", CIRCLE), (g,), circle_domain())
    points = _feasible_points(prob, None, 64, 0)
    assert max(q.value for q in points) > 3.5
    for seed in range(5):
        assert_same_sampling(prob, CIRCLE.point(2.0), seed)


def test_bulk_uniform_equals_scalar_draws():
    # the proposers rest on this numpy Generator property; a numpy change
    # that breaks it must fail here first
    for seed in range(50):
        lo, hi = 0.3, 5.9
        scalar = np.random.default_rng(seed)
        assert np.array_equal(np.random.default_rng(seed).uniform(lo, hi, 37),
                              [scalar.uniform(lo, hi) for _ in range(37)])
        lows, highs = np.array([-2.0, 0.5, -1e3]), np.array([2.0, 0.75, 1e4])
        scalar = np.random.default_rng(seed)
        rows = [[scalar.uniform(a, b) for a, b in zip(lows, highs)] for _ in range(23)]
        bulk = np.random.default_rng(seed).uniform(lows, highs, (23, 3))
        assert bulk.tobytes() == np.array(rows).tobytes()


# -- samplers that keep or drop the bulk proposer ------------------------------


def test_loaded_problem_keeps_its_proposer():
    cfg = {"manifold": {"kind": "euclidean", "dim": 2},
           "objective": {"real": "x1^2 + x2^2"},
           "constraints": [{"real": "x1 + x2 - 1"}],
           "candidate": [0.5, 0.5]}
    prob = build_problem(cfg).problem
    assert prob.domain.propose is not None
    stream = ProposalStream(prob.feasible_sampler(), np.random.default_rng(0))
    points, features = stream.take(10)
    assert features is not None and len(points) == len(features["x1"])


def test_restricted_sampler_draws_point_by_point(monkeypatch):
    box = euclidean_box_domain(Euclidean(1), [(-4.0, 4.0)])
    level = box.restrict(lambda p: p.value[0] <= -1.0, name="level set")
    assert level.propose is None
    calls = []
    original = DomainSampler.draw_one
    monkeypatch.setattr(DomainSampler, "draw_one",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    points, features = ProposalStream(level, np.random.default_rng(0)).take(5)
    assert features is None and len(points) == 1 and len(calls) == 1
    assert points[0].value[0] <= -1.0
