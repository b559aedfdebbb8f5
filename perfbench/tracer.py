"""Span tracer that wraps ivopt's public callables from outside the library.

Nothing here is imported by an untraced run, so untraced runs install no
wrappers.  ``Tracer.install`` replaces each target with a wrapper that
records a span (id, parent id, name, start, end); ``uninstall`` puts every
original back.  Module functions are rebound in every ``ivopt.*`` namespace
that holds the same object, so callers that did ``from .x import f`` see the
wrapper too.  Spans are kept in memory; ``write_spans`` stores them as gzipped
JSON lines at the end of a run.

Counters that ride on the spans:

* ``manifolds.eig.calls`` -- numpy ``eigh``/``eigvalsh`` calls made while a
  manifold span is open;
* ``convexity.grid_points`` -- geodesic or chord points built while a
  convexity check is open;
* ``calculus.evals_in_deriv`` / ``calculus.top_derivs`` -- ``RealFn``
  evaluations inside derivative spans, and derivative calls not nested in
  another derivative call;
* ``convexity.sampler.proposals`` / ``.accepted`` / ``.exhausted``;
* ``kkt.lp.infeasible`` -- multiplier LPs that did not report success.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter

MANIFOLD_METHODS = ("point", "geodesic_point", "exp", "log", "features", "chord_point")


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent_id, name, start, end)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [span_id, name, start, child_seconds]
        self._next_id = 1
        self._manifold_depth = 0
        self._check_depth = 0
        self._deriv_depth = 0
        self._restore = []

    # -- spans ------------------------------------------------------------
    def span(self, name, fn, kind=""):
        """Return a wrapper of fn that records one span per call."""
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else 0
            span_id = tracer._next_id
            tracer._next_id += 1
            if kind == "manifold":
                tracer._manifold_depth += 1
                if tracer._check_depth and name.endswith(("geodesic_point", "chord_point")):
                    tracer.counts["convexity.grid_points"] += 1
            elif kind == "check":
                tracer._check_depth += 1
            elif kind == "deriv":
                if not tracer._deriv_depth:
                    tracer.counts["calculus.top_derivs"] += 1
                tracer._deriv_depth += 1
            elif kind == "eval" and tracer._deriv_depth:
                tracer.counts["calculus.evals_in_deriv"] += 1
            frame = [span_id, name, _clock(), 0.0]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                tracer._stack.pop()
                duration = end - frame[2]
                if tracer._stack:
                    tracer._stack[-1][3] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[3]
                tracer.spans.append((span_id, parent, name, frame[2], end))
                if kind == "manifold":
                    tracer._manifold_depth -= 1
                elif kind == "check":
                    tracer._check_depth -= 1
                elif kind == "deriv":
                    tracer._deriv_depth -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------
    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, cls, attr, name, kind=""):
        self._set(cls, attr, self.span(name, cls.__dict__[attr], kind))

    def _wrap_function(self, module, attr, name, kind=""):
        """Rebind module.attr in every ivopt namespace that holds the same object."""
        original = getattr(module, attr)
        wrapper = self.span(name, original, kind)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ivopt" or mod_name.startswith("ivopt.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def install(self):
        import ivopt.calculus as calculus
        import ivopt.convexity as convexity
        import ivopt.expr as expr
        import ivopt.functions as functions
        import ivopt.interval as interval
        import ivopt.kkt as kkt
        import ivopt.manifolds as manifolds
        import ivopt.problems as problems

        for cls, geometry in (
            (manifolds.Spd, "spd"),
            (manifolds.Circle, "circle"),
            (manifolds.Euclidean, "euclidean"),
        ):
            for method in MANIFOLD_METHODS:
                self._wrap_method(cls, method, f"manifolds.{geometry}.{method}", "manifold")
        self._wrap_eig(np.linalg)

        self._wrap_function(expr, "eval_node", "expr.eval")
        self._wrap_method(functions.RealFn, "__call__", "functions.eval", "eval")
        self._wrap_method(functions.IvFn, "__call__", "functions.iv_eval")

        for fn in ("dir_deriv", "gh_dir_deriv"):
            self._wrap_function(calculus, fn, f"calculus.{fn}", "deriv")
        self._wrap_function(calculus, "width_monotone_along", "calculus.width_monotone_along")

        for fn in (
            "check_convex",
            "check_convex_at",
            "check_cw_convex_at",
            "check_affine",
            "check_star_shaped",
            "check_gradient_inequality",
            "check_local_min",
        ):
            self._wrap_function(convexity, fn, "convexity.check", "check")
        self._wrap_sampler(convexity.DomainSampler, convexity.SamplerExhaustedError)

        self._wrap_lp(kkt)
        for fn in ("verify_p2", "verify_p3", "verify_p3_split", "verify_p4"):
            self._wrap_function(kkt, fn, "kkt.verify")
        self._wrap_function(kkt, "brute_force_improvement", "kkt.brute_force")
        self._wrap_function(kkt, "direction_samples", "kkt.direction_samples")
        self._wrap_function(kkt, "_feasible_points", "kkt.feasible_points")

        for fn in ("compare", "combine"):
            self._wrap_function(interval, fn, f"interval.{fn}")

        self._wrap_function(problems, "build_problem", "problems.build")
        self._wrap_function(problems, "run_repro", "problems.repro")

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- counters on foreign callables -------------------------------------
    def _wrap_eig(self, linalg):
        tracer = self
        for attr in ("eigh", "eigvalsh"):
            original = linalg.__dict__[attr]

            def counted(*args, _original=original, **kwargs):
                if tracer._manifold_depth:
                    tracer.counts["manifolds.eig.calls"] += 1
                return _original(*args, **kwargs)

            self._set(linalg, attr, counted)

    def _wrap_sampler(self, sampler_cls, exhausted_error):
        tracer = self
        original = sampler_cls.__dict__["draw_one"]

        def draw_one(sampler, *args, **kwargs):
            propose = sampler.sample

            def counted_sample(rng):
                tracer.counts["convexity.sampler.proposals"] += 1
                return propose(rng)

            sampler.sample = counted_sample
            try:
                point = original(sampler, *args, **kwargs)
            except exhausted_error:
                tracer.counts["convexity.sampler.exhausted"] += 1
                raise
            finally:
                sampler.sample = propose
            tracer.counts["convexity.sampler.accepted"] += 1
            return point

        self._set(sampler_cls, "draw_one", self.span("convexity.sampler", draw_one))

    def _wrap_lp(self, kkt):
        tracer = self
        original = kkt.linprog

        def linprog(*args, **kwargs):
            result = original(*args, **kwargs)
            if not result.success:
                tracer.counts["kkt.lp.infeasible"] += 1
            return result

        self._set(kkt, "linprog", self.span("kkt.lp", linprog))

    # -- output -------------------------------------------------------------
    def snapshot(self) -> dict:
        """Aggregates as plain data: calls, self seconds, counters."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def write_spans(self, path: str) -> None:
        """Gzipped JSON lines: a header naming the fields and span names, then
        one [id, parent_id, name_index, start_ns, end_ns] row per span, with
        times relative to the first span's start."""
        names = sorted({span[2] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = min((span[3] for span in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start_ns", "end_ns"],
                                 "names": names}) + "\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(f"[{span_id},{parent},{index[name]},"
                         f"{round((start - origin) * 1e9)},{round((end - origin) * 1e9)}]\n")


def merge(snapshots) -> dict:
    """Sum several snapshots (one per traced process) into one."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float), "counts": defaultdict(int)}
    for snap in snapshots:
        for section, values in snap.items():
            if section in out:
                for key, value in values.items():
                    out[section][key] += value
    return {section: dict(values) for section, values in out.items()}
