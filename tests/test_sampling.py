"""The proposal stream: bulk draws that reproduce draw_one in a loop exactly.

The reference for every comparison is the scalar ``DomainSampler.draw_one``
loop, reached by the same problem with its domain's bulk proposer removed.
"""

import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ivopt import convexity, problems
from ivopt.convexity import (
    DomainSampler,
    ProposalStream,
    check_affine,
    check_convex,
    check_convex_at,
    check_cw_convex_at,
    check_gradient_inequality,
    check_local_min,
    check_star_shaped,
)
from ivopt.errors import ConfigError, SamplerExhaustedError
from ivopt.functions import CIRCLE, IvFn, RealFn, lift_real
from ivopt.kkt import (
    Problem,
    _convexity_hypotheses,
    _feasible_points,
    brute_force_improvement,
    direction_samples,
    reduce_p4,
)
from ivopt.manifolds import Euclidean, Point, Spd, sym_exp
from ivopt.problems import build_problem, circle_domain, euclidean_box_domain, spd_domain


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


def target_checks(f, dom, p0, seed):
    """The checks that draw targets around p0, each with few targets."""
    iv = f if isinstance(f, IvFn) else IvFn(f, RealFn.from_expression("0.25", f.manifold))
    yield lambda: check_star_shaped(dom, p0, targets=6, grid=5, seed=seed)
    yield lambda: check_gradient_inequality(f, p0, dom, targets=6, seed=seed)
    yield lambda: check_local_min(f, p0, dom, targets=6, seed=seed)
    yield lambda: check_cw_convex_at(iv, p0, dom, targets=6, grid=5, seed=seed)


def assert_same_sampling(prob: Problem, p0, seed: int) -> None:
    """Every kkt sampling site, and every check that draws targets around
    p0, gives the same result, or raises the same error at the same draw,
    with and without the bulk proposer."""
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
    for bulk, scalar in zip(target_checks(prob.objective, prob.feasible_sampler(), p0, seed),
                            target_checks(ref.objective, ref.feasible_sampler(), p0, seed)):
        assert outcome(bulk) == outcome(scalar)
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
    stream = ProposalStream(lifted.feasible_sampler(), np.random.default_rng(0))
    assert stream.take(8)[1] is None
    for seed in range(5):
        assert_same_sampling(lifted, CIRCLE.point(2.5), seed)
    # a reduction frozen at theta = 1 keeps the center theta - 2.5, with its lanes
    frozen = reduce_p4(p4, CIRCLE.point(1.0))
    stream = ProposalStream(frozen.feasible_sampler(), np.random.default_rng(0))
    assert stream.take(8)[1] is not None
    for seed in range(5):
        assert_same_sampling(frozen, CIRCLE.point(2.5), seed)


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


def draws(prob: Problem, script, n: int, apart_from=None, min_dist: float = 0.0):
    """Outcomes of the first 1..n draws, by the stream and by draw_one."""
    stream_side, scalar_side = [], []
    for k in range(1, n + 1):
        stream = ProposalStream(prob.feasible_sampler(), ScriptedRng(script), min_dist)
        stream_side.append(outcome(lambda: list(stream.points(k, apart_from))))
        sampler, rng = scalar_only(prob).feasible_sampler(), ScriptedRng(script)
        scalar_side.append(outcome(lambda: [
            sampler.draw_one(rng, apart_from=apart_from, min_dist=min_dist)
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


def test_points_are_drawn_as_they_are_asked_for():
    # one feasible proposal, then none: the exhaustion comes with the second
    # point, after the first was handed out
    prob = circle_problem("theta", "theta - 3")
    for sampler in (prob.feasible_sampler(), scalar_only(prob).feasible_sampler()):
        points = ProposalStream(sampler, ScriptedRng([2.0] + [5.0] * 20000)).points(3)
        assert next(points).value == 2.0
        with pytest.raises(SamplerExhaustedError):
            next(points)


def test_min_dist_rejections_count_toward_max_tries():
    prob = circle_problem("theta", "theta - 3")
    p0 = CIRCLE.point(1.0)

    def apart(prob: Problem, n: int, seed: int, min_dist: float):
        stream = ProposalStream(prob.feasible_sampler(), np.random.default_rng(seed), min_dist)
        return lambda: list(stream.points(n, apart_from=p0))

    for seed in range(10):
        for min_dist in (0.5, 1.5):
            assert outcome(apart(prob, 12, seed, min_dist)) == outcome(
                apart(scalar_only(prob), 12, seed, min_dist))
    # every member within 2 of p0: the min_dist test alone exhausts the sampler
    near = circle_problem("theta", "theta - 3", hi=3.0)
    assert outcome(apart(near, 1, 0, 5.0)) == (
        "raised", "SamplerExhaustedError",
        "sampler problem|feasible found no admissible point in 1000 proposals")
    # runs of min_dist rejections: 500, 999, then one that exhausts at 1000
    script = [1.2] * 500 + [2.5] + [1.2] * 999 + [2.9] + [1.2] * 20000
    results = draws(prob, script, 3, apart_from=p0, min_dist=1.0)
    assert [r[0] for r in results] == ["returned", "returned", "raised"]
    assert results[2][1] == "SamplerExhaustedError"


@pytest.mark.parametrize("scalar_larger", [True, False])
def test_min_dist_uses_the_scalar_distance(scalar_larger, monkeypatch):
    # the scalar distance made one ulp off the true one, and min_dist at the
    # larger of the two: only a draw that asks the scalar distance decides right
    e2 = Euclidean(2)
    v = np.array([1.25, -0.75])
    origin = e2.point([0.0, 0.0])
    true_distance = convexity.distance
    nudge = math.inf if scalar_larger else -math.inf
    monkeypatch.setattr(convexity, "distance",
                        lambda p, q: math.nextafter(true_distance(p, q), nudge))
    min_dist = max(true_distance(origin, e2.point(v)), convexity.distance(origin, e2.point(v)))
    prob = Problem(e2, RealFn.from_expression("x1", e2), (), euclidean_box_domain(e2))
    script = list(v) + [1.9, 1.9] * 10 + [0.0] * 40000
    results = draws(prob, script, 2, apart_from=origin, min_dist=min_dist)
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


# -- SPD proposals, and the checks that draw through the stream ----------------


def scalar_spd_draw(manifold: Spd, rng, scale: float) -> Point:
    """One SPD draw by the scalar formula: a normal matrix, sym_exp, Spd.point."""
    raw = rng.normal(0.0, scale, size=(manifold.dim, manifold.dim))
    return manifold.point(sym_exp(0.5 * (raw + raw.T)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the scalar formula's overflow
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_spd_proposals_equal_sequential_draws(dim):
    manifold = Spd(dim)
    midway = 0  # batches whose draws fail after some succeeded
    for scale in (0.05, 0.7, 3.0, 10.0, 15.0, 1e5):
        dom = spd_domain(manifold, scale)
        for seed in range(30):
            k = 1 + seed % 17
            rng, by_sample, by_formula = (np.random.default_rng(seed) for _ in range(3))
            batch = dom.propose(rng, k)
            got = [outcome(lambda: batch.point(i)) for i in range(k)]
            assert got == [outcome(lambda: dom.sample(by_sample)) for _ in range(k)]
            for i in range(k):
                want = outcome(lambda: scalar_spd_draw(manifold, by_formula, scale))
                if want[0] == "returned":
                    assert got[i] == want
                else:
                    assert got[i][:2] == ("raised", "ConfigError")
                    assert got[i][2].endswith(f"{manifold.name}: {want[2]}")
            assert rng.bit_generator.state == by_sample.bit_generator.state
            raised = [g[0] == "raised" for g in got]
            midway += any(raised) and not raised[0]
            # the array form exists exactly when every draw succeeds
            assert (batch.features is None) == (batch.member is None) == any(raised)
            if batch.features is None:
                continue
            assert batch.member.all()
            by_formula = np.random.default_rng(seed)
            for i in range(k):
                fresh = Point(manifold, scalar_spd_draw(manifold, by_formula, scale).value)
                for name, value in manifold.features(fresh).items():
                    assert float(batch.features[name][i]).hex() == value.hex()
    assert midway > 0


@pytest.mark.parametrize("scale", [1e5, 1.7e308])
def test_huge_spd_scales_raise_without_a_warning(scale):
    manifold = Spd(2)
    dom = spd_domain(manifold, scale)
    f = RealFn.from_expression("logdet^2", manifold)
    draws = (lambda: dom.sample(np.random.default_rng(0)),
             lambda: dom.propose(np.random.default_rng(0), 16).point(0),
             lambda: check_convex(f, dom, pairs=4),
             lambda: check_convex(f, dom, pairs=4, path="chord"),
             lambda: check_convex_at(f, manifold.point(np.eye(2)), dom, targets=4))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        for draw in draws:
            with pytest.raises(ConfigError, match="matrix entries must be finite"):
                draw()
    assert [str(w.message) for w in seen] == []


def opaque(f):
    """f behind a plain callable: no array form, evaluated point by point; its
    dual lane is kept, so its derivatives are f's."""
    if isinstance(f, IvFn):
        return IvFn(opaque(f.center), opaque(f.width), name=f.name)
    return RealFn(f.manifold, lambda p: f(p), name=f.name, dual=f.dual)


E2 = Euclidean(2)
CHECK_CASES = {
    "spd2": (spd_domain(Spd(2)), ("logdet^2 + 0.3*trace", "0.2*trace"), np.eye(2)),
    "spd3": (spd_domain(Spd(3), 0.9), ("-logdet + 0.1*trace^2", "0.05*logdet^2"), np.eye(3)),
    "spd2-failing": (spd_domain(Spd(2), 10.0), ("trace", "0.1"), np.eye(2)),
    "circle": (circle_domain(), ("theta^2/10 + sin(theta)/20", "0.1*theta"), 2.0),
    # draws closer than 1e-8 to p: strict pairs reject by each pair's own p
    "circle-tiny-arc": (circle_domain(1.0, 1.0 + 2e-8), ("theta^2", "0.5"), 1.0 + 1e-8),
    "euclidean": (euclidean_box_domain(E2), ("x1^2 - x2", "0.1*x1^2"), [0.5, -0.5]),
}


def check_calls(f, dom, p0, seed):
    yield lambda: check_convex(f, dom, pairs=10, grid=9, seed=seed)
    yield lambda: check_convex(f, dom, pairs=10, grid=9, strict=True, seed=seed)
    yield lambda: check_convex(f, dom, pairs=10, grid=5, seed=seed, path="chord")
    yield lambda: check_affine(f, dom, pairs=10, grid=9, seed=seed)
    yield lambda: check_convex_at(f, p0, dom, targets=10, grid=9, seed=seed)
    yield lambda: check_convex_at(f, p0, dom, targets=10, grid=9, strict=True, seed=seed)
    yield from target_checks(f, dom, p0, seed)


def report(call):
    try:
        return "returned", repr(call().to_json())
    except Exception as exc:
        return "raised", type(exc).__name__, str(exc)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # spd2-failing's scalar draws
@pytest.mark.parametrize("case", sorted(CHECK_CASES))
def test_checks_report_as_with_draw_one_and_point_by_point(case):
    dom, (center, width), raw = CHECK_CASES[case]
    manifold = dom.propose(np.random.default_rng(0), 1).manifold
    p0 = manifold.point(raw)
    real = RealFn.from_expression(center, manifold)
    functions = (real, IvFn.from_expressions(center, width, manifold))
    outcomes = set()
    for f in functions + (opaque(real),):
        for seed in range(3):
            for bulk, scalar, by_points in zip(
                check_calls(f, dom, p0, seed),
                check_calls(f, replace(dom, propose=None), p0, seed),
                check_calls(opaque(f), replace(dom, propose=None), p0, seed),
            ):
                got = report(bulk)
                assert got == report(scalar) == report(by_points)
                outcomes.add(got[1] if got[0] == "raised" else "Holds" in got[1])
    assert len(outcomes) > 1  # not one outcome throughout


def segment_bits(draw):
    """The (p, q) value bits of the segments draw() makes, up to its error."""
    got = []
    try:
        for p, q in draw():
            got.append((np.asarray(p.value).tobytes(), np.asarray(q.value).tobytes()))
    except Exception as exc:
        got.append((type(exc).__name__, str(exc)))
    return got


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # spd2-failing's scalar draws
@pytest.mark.parametrize("case", sorted(CHECK_CASES))
def test_checks_draw_the_segments_of_draw_one(case, monkeypatch):
    # each q is checked against its own p (the tiny arc rejects by that)
    dom, _, raw = CHECK_CASES[case]
    manifold = dom.propose(np.random.default_rng(0), 1).manifold
    p0 = manifold.point(raw)
    f = RealFn.from_expression("1", manifold)
    segments = []
    monkeypatch.setattr(convexity, "_worst_on_segments", lambda f, segs, *a, **k: segs)

    def pairs_by_draw_one(seed, min_dist):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            p = dom.draw_one(rng)
            yield p, dom.draw_one(rng, apart_from=p, min_dist=min_dist)

    def targets_by_draw_one(seed, min_dist):
        rng = np.random.default_rng(seed)
        return ((p0, dom.draw_one(rng, apart_from=p0, min_dist=min_dist)) for _ in range(10))

    for seed in range(5):
        for strict, min_dist in ((False, 0.0), (True, 1e-8)):
            segments.append(segment_bits(lambda: check_convex(f, dom, 10, strict=strict,
                                                              seed=seed)))
            assert segments[-1] == segment_bits(lambda: pairs_by_draw_one(seed, min_dist))
            segments.append(segment_bits(lambda: check_convex_at(f, p0, dom, 10, strict=strict,
                                                                 seed=seed)))
            assert segments[-1] == segment_bits(lambda: targets_by_draw_one(seed, min_dist))
        assert segment_bits(lambda: check_affine(f, dom, 10, seed=seed)) == segments[-4]
    assert any(len(got) == 10 for got in segments)


def test_cw_convex_at_draws_its_targets_once(monkeypatch):
    # counted as the points the streams hand out plus any draw_one call
    # made outside a stream; center and width both hold, so both run
    dom = spd_domain(Spd(2))
    f = IvFn.from_expressions("logdet^2 + 0.3*trace", "0.2*trace", Spd(2))
    draws, in_stream = [], []
    take, draw_one = ProposalStream.take, DomainSampler.draw_one

    def counting_take(stream, m, apart_from=None):
        in_stream.append(True)
        try:
            points, features = take(stream, m, apart_from)
        finally:
            in_stream.pop()
        draws.extend(points)
        return points, features

    def counting_draw_one(sampler, *args, **kwargs):
        q = draw_one(sampler, *args, **kwargs)
        if not in_stream:
            draws.append(q)
        return q

    monkeypatch.setattr(ProposalStream, "take", counting_take)
    monkeypatch.setattr(DomainSampler, "draw_one", counting_draw_one)
    for sampler in (dom, replace(dom, propose=None)):
        draws.clear()
        report = check_cw_convex_at(f, Spd(2).point(np.eye(2)), sampler, targets=10, grid=5)
        assert report.holds() and report.samples_used == 20
        assert len(draws) == 10


def test_spd_problem_with_constraints_samples_as_draw_one_does():
    cfg = {"manifold": {"kind": "spd", "dim": 2},
           "objective": {"center": "trace", "width": "0.1*trace"},
           "constraints": [{"center": "logdet - 1", "width": "0.05"},
                           {"center": "trace - 4", "width": "0.1"}],
           "candidate": [[1.5, 0.0], [0.0, 1.5]]}
    prob = build_problem(cfg).problem
    points, features = ProposalStream(prob.feasible_sampler(), np.random.default_rng(0)).take(8)
    assert features is not None and len(points) == len(features["logdet"])
    p0 = prob.manifold.point(cfg["candidate"])
    for seed in range(3):
        assert_same_sampling(prob, p0, seed)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the huge scale's scalar draws
@pytest.mark.parametrize("manifold, objective, constraint, domain", [
    ({"kind": "circle"}, ("theta", "1"), ("theta - 3", "theta - 1"), None),
    ({"kind": "euclidean", "dim": 2}, ("x1", "x2 + 1.5"), ("x1", "0.1"), None),
    ({"kind": "spd", "dim": 2}, ("trace", "0.1*trace"), ("logdet", "logdet + 0.5"), None),
    ({"kind": "spd", "dim": 3}, ("trace", "logdet + 2.5"), ("logdet", "0.1"), {"scale": 0.4}),
    ({"kind": "spd", "dim": 2}, ("trace", "0.1"), ("logdet", "0.1"), {"scale": 1e5}),
])
def test_width_validation_draws_as_sample_does(manifold, objective, constraint, domain,
                                               monkeypatch):
    # the same draws, and the same error at the same draw, without the proposer
    cfg = {"manifold": manifold,
           "objective": {"center": objective[0], "width": objective[1]},
           "constraints": [{"center": constraint[0], "width": constraint[1]}],
           "options": {"domain": domain} if domain else {}}
    bulk = outcome(lambda: build_problem(cfg).problem.name)
    default_domain = problems.default_domain
    monkeypatch.setattr(problems, "default_domain",
                        lambda m, spec=None: replace(default_domain(m, spec), propose=None))
    assert bulk == outcome(lambda: build_problem(cfg).problem.name)
