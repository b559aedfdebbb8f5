"""ivopt benchmark entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics with no wrappers
installed; with ``--trace 1`` it measures the per-layer metrics from spans
recorded around ivopt's public callables, the tracing overhead, and the
ROADMAP Baseline cross-check.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the metrics are exactly those BENCHMARK.json lists for the mode.  Lines
before it describe the run; a copy of the result with its metadata, the
timed processes of an untraced run with their reference samples, and the
spans of a traced run are written under ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import resource
import statistics
import sys
import time

from calibration import ProcessSpeed, Speed
from common import (OUT, ROOT, SRC, Tally, describe, latency_metrics, run_cycle, run_process,
                    run_task, save, scaled)

MIN_ROUNDS = 2
WARMUP_TASKS = 16


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not trace:
        return {m["name"]: m["unit"] for m in spec["end_to_end"]}
    patterns = json.loads((ROOT / "perfbench" / "metric_map.json").read_text(encoding="utf-8"))
    unmapped = [m["name"] for m in spec["per_layer"]
                if not any(fnmatch.fnmatchcase(m["name"], p) for p in patterns["layer_map"])]
    if unmapped:
        raise RuntimeError(f"per-layer metrics missing from metric_map.json: {unmapped}")
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# -- untraced runs: end-to-end metrics ------------------------------------------


class Probes:
    """Fresh processes that every workload runs the same way, each between two
    reference processes: set-up probes (``setup_s``), ``ivopt order``
    (``cli_start_ms``) and ``ivopt repro --all --json`` (``repro_all_s``)."""

    def __init__(self, workload: str, seed: int, speed: ProcessSpeed):
        import wl_cli

        self.argv = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
                     workload, str(seed)]
        self.speed = speed
        self.setup = []  # (start, seconds) of each set-up probe, as it timed itself
        self.tally = Tally()
        self.orders = wl_cli.probe_orders(seed)
        self.repro = wl_cli.repro_command().task()

    def round(self) -> None:
        for step in (self._setup, self._order, self._setup, self._repro):
            self.speed.sample()
            step()
        self.speed.sample()

    def _setup(self) -> None:
        start = time.perf_counter()
        _, code, stdout = run_process(self.argv)
        if code != 0:
            raise RuntimeError(f"set-up probe {self.argv[2:]} exited with {code}")
        self.setup.append((start, float(stdout.strip().splitlines()[-1])))

    def _order(self) -> None:
        run_task(next(self.orders).task(), self.tally)

    def _repro(self) -> None:
        run_task(self.repro, self.tally)


def end_to_end(name: str, seed: int, seconds: float) -> tuple:
    """Return (metrics, tallies) of an untraced run.

    The run is whole rounds, for about ``seconds`` and at least
    ``MIN_ROUNDS``: the workload's ``PASSES_PER_ROUND`` passes over its task
    list, then one round of process probes.  Task-loop times are
    scaled by the kernel reference (``cli``'s task loop, which runs
    processes, by reference processes), and process times by the reference
    processes next to them (calibration.py).
    """
    import wl_cli

    import workloads

    module = workloads.MODULES[name]
    tasks = module.build(seed)
    process_speed = ProcessSpeed()
    if name == wl_cli.NAME:
        run_task(tasks[0], Tally())  # warm the file cache
        speed = process_speed
    else:
        for task in tasks[:WARMUP_TASKS]:
            run_task(task, Tally())
        speed = Speed()
    loop, probes = Tally(), Probes(name, seed, process_speed)
    start, rounds = time.perf_counter(), 0
    # Stop at the round boundary nearest to the deadline.
    while rounds < MIN_ROUNDS or (time.perf_counter() - start) * (1 + 0.5 / rounds) < seconds:
        for _ in range(module.PASSES_PER_ROUND):
            run_cycle(tasks, loop, speed)
        if speed is not process_speed:
            speed.sample()
        probes.round()
        rounds += 1
    measured_s = time.perf_counter() - start
    who = resource.RUSAGE_CHILDREN if name == wl_cli.NAME else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    order = loop.by_kind.get("order", []) + probes.tally.by_kind["order"]
    repro = probes.tally.by_kind["repro"]
    metrics = {"setup_s": (statistics.median(scaled(probes.setup, process_speed)), "s")}
    metrics.update(latency_metrics(loop, speed))
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    metrics["cli_start_ms"] = (statistics.median(scaled(order, process_speed)) * 1e3, "ms")
    metrics["repro_all_s"] = (statistics.median(scaled(repro, process_speed)), "s")
    raw = {"tasks_per_s": latency_metrics(loop)["tasks_per_s"][0],
           "cli_start_ms": statistics.median(scaled(order)) * 1e3,
           "repro_all_s": statistics.median(scaled(repro)),
           "setup_s": statistics.median(scaled(probes.setup))}
    print(f"run: {rounds} rounds in {measured_s:.1f} s, {module.PASSES_PER_ROUND} passes over "
          f"{len(tasks)} tasks a round; "
          f"each round ends with {len(probes.setup) // rounds} set-up probes, one order and "
          f"one repro process")
    if speed is not process_speed:
        print(f"task loop: reference {speed.describe()}")
    print(f"processes: reference {process_speed.describe()}")
    print(f"processes timed: {len(probes.setup)} set-up probes, {len(order)} order, "
          f"{len(repro)} repro")
    print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    save(f"processes-{name}-{seed}.json",
         {"reference": list(zip(process_speed.ends, process_speed.seconds)),
          "setup": probes.setup, "order": order, "repro": repro})
    return metrics, [loop, probes.tally]


# -- traced runs: per-layer metrics ----------------------------------------------


def traced(name: str, seed: int, seconds: float, import_s: float) -> tuple:
    """Return (metrics, tallies) of a traced run."""
    import baseline
    import layers
    import wl_cli
    from tracer import Tracer, merge

    import workloads

    module = workloads.MODULES[name]
    setup_tracer = Tracer()
    setup_tracer.install()
    module.build(seed)
    setup_tracer.uninstall()

    folder = OUT / f"trace-{name}-{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    setup_tracer.write_spans(str(folder / "setup.spans.jsonl.gz"))
    untraced_s, traced_s, snapshots = [], [], []
    checked = Tally()
    if name == wl_cli.NAME:
        commands = wl_cli.cycle(seed)
        run_task(commands[0].task(), Tally())  # warm the file cache
        for task in [command.task() for command in commands]:
            run_task(task, checked)
        traced_tally = Tally()
        paths = []
        for i, command in enumerate(commands):
            paths.append(folder / f"process-{i}.json")
            run_task(command.traced_task(paths[-1]), traced_tally)
        untraced_s.append(checked.busy_s)
        traced_s.append(traced_tally.busy_s)
        procs = [json.loads(p.read_text(encoding="utf-8")) for p in paths if p.exists()]
        snapshots.append(merge(procs))
        import_s = statistics.median(p["import_s"] for p in procs)
        tallies = [checked, traced_tally]
        pass_tasks = len(commands)
    else:
        tasks = module.build(seed)
        for task in tasks[:WARMUP_TASKS]:
            run_task(task, Tally())
        deadline = time.perf_counter() + seconds
        while True:
            untraced = Tally()
            for task in tasks:
                run_task(task, untraced)
            untraced_s.append(untraced.busy_s)
            if not snapshots:
                checked = untraced  # the traced passes repeat exactly these tasks
            tracer = Tracer()
            tracer.install()
            traced_pass = Tally()
            for task in tasks:
                run_task(task, traced_pass, check=False)
            tracer.uninstall()
            traced_s.append(traced_pass.busy_s)
            if not snapshots:
                tracer.write_spans(str(folder / "pass.spans.jsonl.gz"))
            snapshots.append(tracer.snapshot())
            if time.perf_counter() >= deadline:
                break
        tallies = [checked]
        pass_tasks = len(tasks)

    reference = Speed()
    for _ in range(10):
        reference.sample()
    measured = baseline.measure()
    overhead = statistics.median(traced_s) / statistics.median(untraced_s)
    metrics = layers.metrics(snapshots, setup_tracer.snapshot(), import_s, overhead, measured)
    print(f"traced passes: {len(snapshots)} of {pass_tasks} tasks each; "
          f"tracing overhead {overhead:.3f} (traced {statistics.median(traced_s):.3f} s "
          f"over untraced {statistics.median(untraced_s):.3f} s per pass)")
    if len({json.dumps(s['calls'], sort_keys=True) for s in snapshots}) > 1:
        print("warning: call counts differ between traced passes")
    for line in baseline.report_lines(measured):
        print(line)
    print(f"  (unscaled; reference kernel just before: {reference.describe()})")
    return metrics, tallies


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "ivopt" / "__init__.py").is_file():
        print(f"perfbench: no ivopt sources under {SRC}; run it from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.MODULES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.MODULES)}", file=sys.stderr)
        return 2
    declared = _declared_metrics(args.trace)

    start = time.perf_counter()
    import ivopt  # noqa: F401

    import_s = time.perf_counter() - start
    from common import run_metadata

    meta = run_metadata(args.workload, args.seed, args.trace)
    print(f"perfbench {json.dumps(meta, sort_keys=True)}")
    if args.trace:
        metrics, tallies = traced(args.workload, args.seed, args.seconds, import_s)
    else:
        metrics, tallies = end_to_end(args.workload, args.seed, args.seconds)
    for line in describe(tallies[0]):
        print(line)
    mismatched = sorted(k for k in declared if k not in metrics or metrics[k][1] != declared[k])
    if mismatched:
        raise RuntimeError(f"BENCHMARK.json metrics not measured with their unit: {mismatched}")
    for key, (value, unit) in sorted(metrics.items()):
        print(f"metric {key} = {value:.6g} {unit}")
    result = {
        "correct": all(t.unsound == 0 for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": metrics[k][0], "unit": declared[k]} for k in declared},
    }
    save(f"result-{args.workload}-{args.seed}-trace{args.trace}.json",
         dict(result, meta=meta, all_metrics={k: v[0] for k, v in metrics.items()}))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
