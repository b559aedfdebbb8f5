"""cli: whole ``ivopt`` processes, run one at a time.

One cycle runs ``order`` five times, interleaved with ``check-convexity
--json`` on a convex and a non-convex problem file and ``check-kkt --json`` on
an optimal P4 (whose split mode the CLI picks itself) and a non-optimal P2
candidate.  ``repro --all --json`` runs in the process probes that every
workload runs (see ``run.py``), so it is timed the same way everywhere.

Expected answers: exit codes and verdicts follow from the generated
problems, ``order`` prints the outcome worked out here from the endpoints,
and each command's ``--json`` output (minus ``wall_time_s``) is byte-identical
on every repeat.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

from common import OK, OUT, ROOT, UNSOUND, WRONG, Task, cli_argv, run_process

NAME = "cli"
PASSES_PER_ROUND = 1  # one pass is nine processes, about 10 s
# A cycle is nine commands, five of them ``order``: the median is then the
# slowest ``order`` and p90 falls inside the check-* group, not in a gap
# between groups, where it would jump from run to run.
ORDER_RELATIONS = ("min", "lu", "max", "min", "lu")
REPRO_ARGS = ["repro", "--all", "--json", "--seed", "0"]
CONVEXITY_PAIRS = "16"


def _interval(rng: random.Random) -> tuple:
    lo = round(rng.uniform(-5.0, 5.0), 3)
    return lo, round(lo + rng.uniform(0.0, 4.0), 3)


def expected_order(t1: tuple, t2: tuple, relation: str) -> str:
    if relation == "lu":
        if t1 == t2:
            return "Equal"
        if t1[0] <= t2[0] and t1[1] <= t2[1]:
            return "Less"
        if t1[0] >= t2[0] and t1[1] >= t2[1]:
            return "Greater"
        return "Incomparable"
    # Centers differ (see order_pair), so min and max both rank by center.
    return "Less" if (t1[0] + t1[1]) < (t2[0] + t2[1]) else "Greater"


def order_pair(rng: random.Random) -> tuple:
    """Two intervals whose centers differ by at least 0.5, so no tie band applies."""
    while True:
        t1, t2 = _interval(rng), _interval(rng)
        if abs((t1[0] + t1[1]) - (t2[0] + t2[1])) >= 1.0:
            return t1, t2


def _text(t: tuple) -> str:
    return f"[{t[0]!r},{t[1]!r}]"


def problem_configs(seed: int) -> dict:
    """Problem files of one cycle, by file name."""
    import wl_convexity
    import wl_kkt

    rng = random.Random(seed)
    spd = {"kind": "spd", "dim": 2}
    options = lambda: {"seed": rng.randrange(2**31)}
    out = {
        "convex.json": {"manifold": spd, "objective": wl_convexity.function("convex", True, rng),
                        "options": options(), "name": "convex"},
        "nonconvex.json": {"manifold": spd, "objective": wl_convexity.function("negated", False, rng),
                           "options": options(), "name": "nonconvex"},
    }
    p2 = wl_kkt.family("circle-p2", 1.0, rng)
    p4 = wl_kkt.family("euclid-p4", 1.0, rng)
    for name, fam, cfg, optimal in (
        ("p4_opt.json", "euclid-p4", p4, True),
        ("p2_nonopt.json", "circle-p2", p2, False),
    ):
        out[name] = dict(wl_kkt.case_config(fam, cfg, optimal), options=options())
    return out


def build(seed: int) -> list:
    """Validate and write the problem files, then return one cycle of tasks."""
    return [command.task() for command in cycle(seed)]


def cycle(seed: int) -> list:
    """Validate and write the problem files, then return one cycle of commands."""
    from ivopt.problems import build_problem

    folder = OUT / f"cli-inputs-{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, cfg in problem_configs(seed).items():
        build_problem(cfg, source=name)
        path = folder / name
        path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
        paths[name] = str(path)

    rng = random.Random(seed + 1)
    orders = [order_task(order_pair(rng), rel) for rel in ORDER_RELATIONS]
    conv = lambda name: ["check-convexity", "--problem", paths[name], "--json",
                         "--pairs", CONVEXITY_PAIRS]
    kkt = lambda name: ["check-kkt", "--problem", paths[name], "--json"]
    positive = ("Optimal", "StrictOptimal")
    others = [
        CliTask("check-convexity", conv("convex.json"), 0, ("HoldsOnSamples",)),
        CliTask("check-kkt", kkt("p4_opt.json"), 0, positive),
        CliTask("check-convexity", conv("nonconvex.json"), 2, ("CounterexampleFound",)),
        CliTask("check-kkt", kkt("p2_nonopt.json"), 2, ("Inconclusive",)),
    ]
    return [task for pair in zip(orders, others) for task in pair] + orders[len(others):]


def order_task(pair: tuple, relation: str):
    t1, t2 = pair
    args = ["order", _text(t1), _text(t2)]
    if relation != "min":
        args += ["--relation", relation]
    return CliTask("order", args, 0, (expected_order(t1, t2, relation),))


def probe_orders(seed: int):
    """Endless ``order`` commands for the process probes of every workload."""
    rng = random.Random(seed + 2)
    for relation in itertools.cycle(ORDER_RELATIONS):
        yield order_task(order_pair(rng), relation)


def repro_command() -> "CliTask":
    return CliTask("repro", REPRO_ARGS, 0, None)


class CliTask:
    """One CLI command with its expected exit code and verdicts."""

    def __init__(self, kind: str, args: list, code: int, verdicts):
        self.kind, self.args, self.code, self.verdicts = kind, args, code, verdicts
        self.first_output = None

    def task(self) -> Task:
        return Task(self.kind, lambda: run_process(cli_argv(*self.args)), self.check)

    def traced_task(self, snapshot: Path) -> Task:
        """The same command run under the span tracer, which writes a snapshot."""
        argv = [sys.executable, str(ROOT / "perfbench" / "trace_boot.py"), str(snapshot), *self.args]
        return Task(self.kind, lambda: run_process(argv), self.check)

    def check(self, result) -> str:
        _, code, stdout = result
        try:
            status, stdout = self._verdict_status(stdout)
        except (ValueError, KeyError, TypeError):
            status = WRONG  # missing or malformed output
        if code != self.code and status == OK:
            status = WRONG
        if self.first_output is None:
            self.first_output = stdout
        elif stdout != self.first_output:
            status = UNSOUND
        return status

    def _verdict_status(self, stdout: str) -> tuple:
        if self.kind == "repro":
            reports = json.loads(stdout)
            for report in reports:
                report.pop("wall_time_s")
            status = OK if all(r["ok"] for r in reports) else WRONG
            stdout = json.dumps(reports, sort_keys=True)
        elif self.kind == "order":
            status = OK if stdout.strip() in self.verdicts else UNSOUND
        else:
            status = OK if json.loads(stdout)["verdict"] in self.verdicts else WRONG
            # A certificate for a non-optimal candidate, or a counterexample
            # to a convex function, contradicts a closed-form fact.
            contradicts = (self.kind == "check-kkt") == (self.code == 2)
            if status != OK and contradicts:
                status = UNSOUND
        return status, stdout
