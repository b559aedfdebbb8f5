"""Command-line front end.

Subcommands: order, check-convexity, check-kkt, repro.  Exit codes are 0
for a successful run with a positive verdict, 2 when the verdict is
inconclusive, a counterexample was found, or a reproduction row mismatches,
and 1 for usage or runtime errors.  The sampling seed resolves in order:
--seed flag, the problem file's options.seed, then 0; a negative one is an
error.  check-kkt's active set is fixed (kkt.ACTIVE_TOL), and a blank --mu
lists no multipliers, as a problem without constraints has none.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .convexity import check_convex, check_convex_at
from .errors import ConfigError, IvoptError
from .interval import Interval, OrderRelation, compare, format_interval, parse_interval
from .kkt import active_set, direction_samples, find_multipliers, verify_p2, verify_p3, verify_p4
from .problems import load_problem, parse_point_text, run_repro, scenario_ids


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        raise _UsageError(message)


def _dump_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _resolve_seed(flag_seed: Optional[int], file_seed: Optional[int] = None) -> int:
    if flag_seed is not None:
        return flag_seed
    return 0 if file_seed is None else file_seed


def _fmt_value(value) -> str:
    if isinstance(value, Interval):
        return format_interval(value)
    return f"{value:.17g}"


# -- order -----------------------------------------------------------------


def _cmd_order(args) -> int:
    if args.eps is not None and args.relation == "lu":
        raise ConfigError("--eps is the center tie tolerance of min and max; "
                          "drop it with --relation lu")
    if args.eps is not None and not args.eps >= 0.0:
        raise ConfigError(f"--eps must be a non-negative number, got {args.eps}")
    t1 = parse_interval(args.left)
    t2 = parse_interval(args.right)
    rel = OrderRelation(args.relation)
    outcome = compare(t1, t2, rel, eps_c=args.eps)
    if args.json:
        _dump_json(
            {
                "left": t1.to_json(),
                "right": t2.to_json(),
                "relation": rel.value,
                "eps": args.eps,
                "outcome": outcome.value,
            }
        )
    else:
        print(outcome.value)
    return 0


# -- check-convexity ---------------------------------------------------------


def _cmd_check_convexity(args) -> int:
    if args.at is not None and args.path == "chord":
        raise ConfigError("--at checks geodesics from the point only; drop --path chord")
    loaded = load_problem(args.problem)
    prob = loaded.problem
    seed = _resolve_seed(args.seed, loaded.seed)
    if args.at is not None:
        p0 = parse_point_text(prob.manifold, args.at, "--at")
        report = check_convex_at(
            prob.objective, p0, prob.domain,
            targets=args.pairs, grid=args.grid, strict=args.strict, seed=seed,
        )
        where = "at the given point"
    else:
        report = check_convex(
            prob.objective, prob.domain,
            pairs=args.pairs, grid=args.grid, strict=args.strict, seed=seed,
            path=args.path,
        )
        where = "over sampled pairs"
    if args.json:
        payload = report.to_json()
        payload.update(
            {
                "problem": prob.name,
                "strict": args.strict,
                "path": args.path,
                "seed": seed,
            }
        )
        _dump_json(payload)
    else:
        print(f"{report.verdict.value} ({where}, {report.samples_used} samples, seed {seed})")
        if report.counterexample is not None:
            ce = report.counterexample
            print(f"witness: s={ce.s:.6g}")
            print(f"  p = {json.dumps(ce.p.to_json())}")
            print(f"  q = {json.dumps(ce.q.to_json())}")
            if ce.lhs is not None:
                print(f"  path value  {_fmt_value(ce.lhs)}")
                print(f"  mixed value {_fmt_value(ce.rhs)}")
    return 0 if report.holds() else 2


# -- check-kkt ----------------------------------------------------------------


def _parse_mu(text: str) -> tuple:
    """Comma-separated multipliers, blank text being none (``_precheck`` counts them)."""
    try:
        return tuple(float(part) for part in text.split(",")) if text.strip() else ()
    except ValueError:
        raise ConfigError(f"cannot parse multipliers {text!r}") from None


def _cmd_check_kkt(args) -> int:
    loaded = load_problem(args.problem)
    prob = loaded.problem
    seed = _resolve_seed(args.seed, loaded.seed)
    if args.point is not None:
        p0 = parse_point_text(prob.manifold, args.point, "--point")
    elif loaded.candidate is not None:
        p0 = loaded.candidate
    else:
        raise ConfigError("no candidate: pass --point or set 'candidate' in the file")

    dirs = direction_samples(prob, p0, args.directions, seed=seed)

    found_mu = None
    if args.mu is not None:
        mu = _parse_mu(args.mu)
    else:
        J = active_set(prob, p0)
        found_mu = find_multipliers(prob, p0, J, dirs)
        if found_mu is None:
            message = "no feasible multipliers over the sampled directions"
            if args.json:
                _dump_json({"verdict": "Inconclusive", "reason": message, "seed": seed})
            else:
                print(f"Inconclusive: {message}")
            return 2
        mu = found_mu

    label = prob.label
    if label == "P2":
        cert = verify_p2(prob, p0, mu, dirs, seed=seed)
    elif label == "P3":
        cert = verify_p3(prob, p0, mu, dirs, seed=seed)
    else:
        cert = verify_p4(prob, p0, mu, dirs, seed=seed)

    if args.json:
        payload = cert.to_json()
        if found_mu is not None:
            payload["found_mu"] = list(found_mu)
        _dump_json(payload)
    else:
        print(f"{cert.verdict.value}: {cert.reason}")
        print(f"value at candidate: {_fmt_value(cert.value)}")
        print(f"active set: {','.join(cert.active_labels) or '(empty)'}")
        print("multipliers: " + ", ".join(f"{m:g}" for m in cert.multipliers))
        for check in cert.hypothesis_report:
            if not check.holds:
                kind = "required" if check.gating else "warning"
                print(f"{kind}: {check.name} failed ({check.detail})")
    return 0 if cert.positive() else 2


# -- repro --------------------------------------------------------------------


def _print_repro_text(report: dict) -> None:
    print(f"scenario {report['id']} (seed {report['seed']})")
    for row in report["rows"]:
        status = "ok  " if row["ok"] else "FAIL"
        expected = row["expected"]
        actual = row["actual"]
        line = f"  [{status}] {row['name']}: expected {expected}"
        if row["tol"]:
            line += f" (tol {row['tol']:g})"
        line += f", got {actual}"
        print(line)
        if not row["ok"]:
            print(f"         diff: expected {expected!r} vs actual {actual!r}")
        if row.get("note"):
            print(f"         note: {row['note']}")
    for note in report["notes"]:
        print(f"  note: {note}")
    print(f"  result: {'ok' if report['ok'] else 'MISMATCH'} "
          f"({report['wall_time_s']:.3f}s)")


def _cmd_repro(args) -> int:
    seed = _resolve_seed(args.seed)
    ids = list(scenario_ids()) if args.all else [args.example]
    reports = [run_repro(sid, seed=seed) for sid in ids]
    if args.json:
        _dump_json(reports if args.all else reports[0])
    else:
        for report in reports:
            _print_repro_text(report)
    return 0 if all(r["ok"] for r in reports) else 2


# -- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ivopt",
        description=(
            "Interval-valued optimization toolkit: interval orders, geodesic "
            "convexity certifiers, and sufficient-condition optimality checks "
            "on three closed-form manifolds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_order = sub.add_parser("order", help="compare two intervals")
    p_order.add_argument("left", help="interval, [lb,ub] or <center,halfwidth>")
    p_order.add_argument("right", help="interval, [lb,ub] or <center,halfwidth>")
    p_order.add_argument(
        "--relation", choices=["min", "max", "lu"], default="min",
        help="order relation (default: min)",
    )
    p_order.add_argument(
        "--eps", type=float, default=None,
        help="center tie tolerance for min/max, not lu (default: scale-aware; 0 = exact)",
    )
    p_order.add_argument("--json", action="store_true", help="emit a JSON report")
    p_order.set_defaults(handler=_cmd_order)

    p_conv = sub.add_parser("check-convexity", help="sampled convexity certifier")
    p_conv.add_argument("--problem", required=True, help="problem file (JSON)")
    p_conv.add_argument("--at", help="check convexity at this point only")
    p_conv.add_argument("--pairs", type=int, default=64,
                        help="sampled pairs or targets (default: 64)")
    p_conv.add_argument("--grid", type=int, default=33,
                        help="points on the [0,1] parameter grid (default: 33)")
    p_conv.add_argument("--strict", action="store_true",
                        help="require a strict margin at interior grid points")
    p_conv.add_argument("--path", choices=["geodesic", "chord"], default="geodesic",
                        help="mix along geodesics or straight chords (not with --at)")
    p_conv.add_argument("--seed", type=int, default=None, help="sampling seed")
    p_conv.add_argument("--json", action="store_true", help="emit a JSON report")
    p_conv.set_defaults(handler=_cmd_check_convexity)

    p_kkt = sub.add_parser("check-kkt", help="sufficient-condition optimality check")
    p_kkt.add_argument("--problem", required=True, help="problem file (JSON)")
    p_kkt.add_argument("--point", help="candidate point (defaults to the file's)")
    p_kkt.add_argument("--mu", help="comma-separated multipliers, one per constraint "
                                    "(default: search for feasible ones)")
    p_kkt.add_argument("--directions", type=int, default=16,
                       help="sampled tangent directions (default: 16)")
    p_kkt.add_argument("--seed", type=int, default=None, help="sampling seed")
    p_kkt.add_argument("--json", action="store_true", help="emit a JSON certificate")
    p_kkt.set_defaults(handler=_cmd_check_kkt)

    p_repro = sub.add_parser("repro", help="run a bundled scenario end to end")
    group = p_repro.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", choices=list(scenario_ids()),
                       help="scenario id to run")
    group.add_argument("--all", action="store_true", help="run every scenario")
    p_repro.add_argument("--seed", type=int, default=None, help="sampling seed")
    p_repro.add_argument("--json", action="store_true", help="emit JSON reports")
    p_repro.set_defaults(handler=_cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help exits through argparse
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 1
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.handler(args)
    except IvoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
