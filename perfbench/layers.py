"""Per-layer metrics from the tracer's snapshots.

Counts come from the first traced pass; every pass runs the same tasks, so
they repeat exactly.  Seconds are the median over the passes.  ``self_s``
is a span's duration minus the time its child spans cover, summed over the
pass.
"""

from __future__ import annotations

import statistics

GEOMETRIES = ("spd", "circle", "euclidean")
METHODS = ("point", "geodesic_point", "exp", "log", "features")


def metrics(snapshots: list, setup: dict, import_s: float, overhead: float,
            baseline_us: dict) -> dict:
    first = snapshots[0]
    calls, counts = first["calls"], first["counts"]

    def self_s(span: str) -> float:
        return statistics.median(s["self_s"].get(span, 0.0) for s in snapshots)

    out = {}

    def span(span_name: str, key: str = "", with_calls: bool = True) -> None:
        key = key or span_name
        if with_calls:
            out[f"{key}.calls"] = (calls.get(span_name, 0), "count")
        out[f"{key}.self_s"] = (self_s(span_name), "s")

    for geometry in GEOMETRIES:
        for method in METHODS:
            span(f"manifolds.{geometry}.{method}")
    out["manifolds.eig.calls"] = (counts.get("manifolds.eig.calls", 0), "count")

    span("expr.eval")
    span("functions.eval")
    out["functions.iv_eval.calls"] = (calls.get("functions.iv_eval", 0), "count")

    for fn in ("dir_deriv", "gh_dir_deriv", "width_monotone_along"):
        span(f"calculus.{fn}")
    derivs = counts.get("calculus.top_derivs", 0)
    evals = counts.get("calculus.evals_in_deriv", 0)
    out["calculus.evals_per_deriv"] = (evals / derivs if derivs else 0.0, "ratio")

    span("convexity.check")
    out["convexity.grid_points"] = (counts.get("convexity.grid_points", 0), "count")
    proposals = counts.get("convexity.sampler.proposals", 0)
    accepted = counts.get("convexity.sampler.accepted", 0)
    out["convexity.sampler.proposals"] = (proposals, "count")
    out["convexity.sampler.accepted"] = (accepted, "count")
    out["convexity.sampler.accept_ratio"] = (accepted / proposals if proposals else 0.0, "ratio")
    out["convexity.sampler.exhausted"] = (counts.get("convexity.sampler.exhausted", 0), "count")
    span("convexity.sampler", with_calls=False)

    span("kkt.lp")
    out["kkt.lp.infeasible"] = (counts.get("kkt.lp.infeasible", 0), "count")
    span("kkt.verify")
    out["kkt.feasible_draws"] = (calls.get("kkt.feasible_points", 0), "count")
    span("kkt.brute_force", with_calls=False)
    span("kkt.direction_samples", with_calls=False)

    span("interval.compare")
    span("interval.combine")

    build = setup["self_s"].get("problems.build", 0.0) + self_s("problems.build")
    out["problems.build.self_s"] = (build, "s")
    span("problems.repro", with_calls=False)
    out["cli.import_s"] = (import_s, "s")
    span("cli.main", with_calls=False)

    out["trace.overhead"] = (overhead, "ratio")
    for row, value in baseline_us.items():
        out[f"baseline.{row}_us"] = (value, "us")
    return out
