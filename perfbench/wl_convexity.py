"""convexity-spd: sampled convexity certification on Spd(2) and Spd(3).

Every function is built from a problem config over the SPD features
``logdet`` and ``trace``, so its verdict follows from closed-form facts:
``logdet`` is affine along affine-invariant geodesics, ``logdet^2`` and
``trace`` are geodesically convex (``trace`` strictly, for distinct
endpoints), ``logdet`` is strictly concave along straight chords, ``trace``
is affine along them, and negating a strictly convex function gives
counterexamples.  Every reported witness is re-evaluated and must still be a
violation.
"""

from __future__ import annotations

import random

from common import OK, UNSOUND, WRONG, Task

NAME = "convexity-spd"
PASSES_PER_ROUND = 2  # about 5 s of tasks between rounds of process probes
PAIRS = 6
INSTANCES = 2  # seeded functions of each kind and variant
GRIDS = (9, 33)
DIMS = (2, 3)

HOLDS, COUNTER = "HoldsOnSamples", "CounterexampleFound"

# (task type, function family, expected verdict)
KINDS = (
    ("convex", "convex", HOLDS),
    ("convex_strict", "convex", HOLDS),
    ("convex", "negated", COUNTER),
    ("chord", "logdet", COUNTER),
    ("chord", "trace", HOLDS),
    ("affine", "affine", HOLDS),
    ("affine", "convex", COUNTER),
    ("convex_at", "convex", HOLDS),
    ("convex_at", "negated", COUNTER),
)


def _num(rng: random.Random, lo: float, hi: float) -> str:
    return repr(round(rng.uniform(lo, hi), 4))


def function(family: str, interval: bool, rng: random.Random) -> dict:
    """Objective spec of one function family, real or interval-valued."""
    a, b, e, g = (_num(rng, 0.2, 2.0) for _ in range(4))
    c, d = _num(rng, -1.0, 1.0), _num(rng, -2.0, 2.0)
    convex = f"{a}*logdet^2 + {b}*trace + {c}*logdet + {d}"
    convex_width = f"{_num(rng, 0.05, 0.5)}*trace + {_num(rng, 0.05, 0.5)}*logdet^2"
    const_width = _num(rng, 0.1, 1.0)
    center, width = {
        "convex": (convex, convex_width),
        "negated": (f"-({convex})", convex_width),
        "logdet": (f"{e}*logdet + {d}", const_width),
        "trace": (f"{b}*trace + {d}", f"{g}*trace"),
        "affine": (f"{c}*logdet + {d}", const_width),
    }[family]
    return {"center": center, "width": width} if interval else {"real": center}


def specs(seed: int) -> list:
    """Problem configs plus task parameters; a fixed mix, seeded contents."""
    rng = random.Random(seed)
    out = []
    for variant in range(2 * 2 * 2 * INSTANCES):
        dim = DIMS[variant % 2]
        interval = bool((variant // 2) % 2)
        grid = GRIDS[(variant // 4) % 2]
        for task, family, expected in KINDS:
            cfg = {
                "manifold": {"kind": "spd", "dim": dim},
                "objective": function(family, interval, rng),
                "options": {"domain": {"scale": float(_num(rng, 0.4, 0.9))}},
                "name": f"{task}/{family}/spd{dim}",
            }
            out.append({"cfg": cfg, "task": task, "expected": expected, "grid": grid,
                        "seed": rng.randrange(2**31)})
    return out


def build(seed: int) -> list:
    import numpy as np

    from ivopt.problems import build_problem

    tasks = []
    for spec in specs(seed):
        prob = build_problem(spec["cfg"]).problem
        base = None
        if spec["task"] == "convex_at":
            base = prob.domain.sample(np.random.default_rng(spec["seed"] + 1))
        tasks.append(_task(spec, prob, base))
    return tasks


def _task(spec: dict, prob, base) -> Task:
    from ivopt import convexity

    f, dom, grid, seed, kind = prob.objective, prob.domain, spec["grid"], spec["seed"], spec["task"]
    if kind == "convex":
        run = lambda: convexity.check_convex(f, dom, pairs=PAIRS, grid=grid, seed=seed)
    elif kind == "convex_strict":
        run = lambda: convexity.check_convex(f, dom, pairs=PAIRS, grid=grid, strict=True, seed=seed)
    elif kind == "chord":
        run = lambda: convexity.check_convex(f, dom, pairs=PAIRS, grid=grid, seed=seed, path="chord")
    elif kind == "affine":
        run = lambda: convexity.check_affine(f, dom, pairs=PAIRS, grid=grid, seed=seed)
    else:
        run = lambda: convexity.check_convex_at(f, base, dom, targets=PAIRS, grid=grid, seed=seed)
    return Task(f"check_{kind}", run, lambda report: _check(report, f, spec))


def _parts(value):
    """(center, halfwidth) of an interval, (value, 0) of a real."""
    if isinstance(value, float):
        return value, 0.0
    return value.center, value.halfwidth


def _still_violated(f, ce, kind: str) -> bool:
    """Re-evaluate a witness with plain arithmetic on its endpoint values."""
    manifold = ce.p.manifold
    path_point = manifold.chord_point if kind == "chord" else manifold.geodesic_point
    (cl, wl) = _parts(f(path_point(ce.p, ce.q, ce.s)))
    (cp, wp), (cq, wq) = _parts(f(ce.p)), _parts(f(ce.q))
    cr, wr = (1.0 - ce.s) * cp + ce.s * cq, (1.0 - ce.s) * wp + ce.s * wq
    if kind == "affine":
        return abs(cl - cr) + abs(wl - wr) > 0.0
    return cl > cr or (cl == cr and wl > wr)


def _check(report, f, spec: dict) -> str:
    if report.samples_used != PAIRS:
        return WRONG
    got = report.verdict.value
    if got == COUNTER:
        if spec["expected"] == HOLDS or not _still_violated(f, report.counterexample, spec["task"]):
            return UNSOUND
        return OK
    return OK if spec["expected"] == HOLDS else WRONG
