"""Shared pieces of the benchmark: task loop, statistics, processes, metadata."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
PROCESS_TIMEOUT_S = 60

# Task outcomes.  "wrong" is a failed task (it raised, or missed the expected
# verdict); "unsound" is also failed and additionally marks the run incorrect:
# the program returned an answer that a closed-form fact contradicts.
OK, WRONG, UNSOUND = "ok", "wrong", "unsound"


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]


@dataclass
class Tally:
    latencies: list = field(default_factory=list)  # every timed run, seconds
    per_task: dict = field(default_factory=dict)  # id(task) -> its (start, seconds) runs
    by_kind: dict = field(default_factory=dict)  # task kind -> its (start, seconds) runs
    busy_s: float = 0.0
    failed: int = 0
    unsound: int = 0
    reasons: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def record(self, task: Task, start: float, seconds: float, status: str,
               why: str = "") -> None:
        kind = task.kind
        self.latencies.append(seconds)
        self.per_task.setdefault(id(task), []).append((start, seconds))
        self.by_kind.setdefault(kind, []).append((start, seconds))
        self.busy_s += seconds
        if status != OK:
            self.failed += 1
            self.reasons[f"{kind}: {status}{' (' + why + ')' if why else ''}"] += 1
        if status == UNSOUND:
            self.unsound += 1


def run_task(task: Task, tally: Tally, check: bool = True) -> None:
    """Time one task, then check its answer outside the timed region."""
    start = time.perf_counter()
    try:
        result = task.run()
    except Exception as exc:  # a raising task is a failed task, not a crash
        tally.record(task, start, time.perf_counter() - start, WRONG, type(exc).__name__)
        return
    elapsed = time.perf_counter() - start
    tally.record(task, start, elapsed, task.check(result) if check else OK)


def run_cycle(tasks, tally: Tally, speed) -> None:
    """One pass over the task list, sampling the calibration reference
    between tasks when it is due."""
    for task in tasks:
        speed.maybe_sample()
        run_task(task, tally)


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def scaled(runs, speed=None) -> list:
    """Seconds of (start, seconds) runs, scaled to nominal speed when a
    calibration.Speed or ProcessSpeed is given."""
    if speed is None:
        return [seconds for _, seconds in runs]
    return speed.scaled(runs)


def task_means_ms(tally: Tally, speed=None) -> list:
    """Each distinct task's mean latency over its runs, in (scaled) ms."""
    return [statistics.fmean(scaled(runs, speed)) * 1e3 for runs in tally.per_task.values()]


def latency_metrics(tally: Tally, speed=None) -> dict:
    """Throughput, and latency percentiles over the distinct tasks' means.

    A task's mean over the cycles of a run averages over the machine's fast
    and slow spells, so it scales with the run's mean speed; a percentile
    over single runs would not.
    """
    means = task_means_ms(tally, speed)
    return {
        "tasks_per_s": (len(means) / (sum(means) / 1e3), "1/s"),
        "task_p50_ms": (statistics.median(means), "ms"),
        "task_p90_ms": (percentile(means, 90), "ms"),
        "ok_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
    }


def describe(tally: Tally) -> list:
    """Human-readable summary lines: sample counts and failure reasons."""
    means = task_means_ms(tally)
    p90 = percentile(means, 90)
    lines = [
        f"tasks: {tally.attempted} attempted, {tally.failed} failed "
        f"(failed_ratio {tally.failed / tally.attempted:.4f}), {tally.unsound} unsound",
        f"latency samples: {len(means)} distinct tasks, each the mean of "
        f"{tally.attempted / len(means):.1f} runs; {sum(v > p90 for v in means)} beyond p90; "
        f"task time {tally.busy_s:.3f} s as measured",
    ]
    for reason, n in sorted(tally.reasons.items()):
        lines.append(f"  failure x{n}: {reason}")
    return lines


# -- processes -------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("IVOPT_SEED", None)  # the CLI would prefer it over the file's seed
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv, env=None) -> tuple:
    """Run one process to completion; return (seconds, exit code, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=ROOT, env=env or child_env(), capture_output=True, text=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc.returncode, proc.stdout


def cli_argv(*args) -> list:
    return [sys.executable, "-m", "ivopt.cli", *args]


# -- metadata ----------------------------------------------------------------


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def source_digest() -> str:
    """sha256 over the library sources, which identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ivopt").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_metadata(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def save(name: str, payload) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")
    return path
