"""Machine-speed calibration of the reported times.

A shared 2-core x86-64 virtual machine can flip between a fast and a
half-as-fast state many times a minute (other tenants, frequency changes),
and its process start-up can drift by 20 % or more from one minute to the
next, with nothing else of the benchmark's running: more than any bound
worth having.
So the times of each phase of a run are scaled to a nominal machine speed:
multiplied by the reference's nominal over its measured duration.

* In-process task loops (``Speed``): the reference is a fixed kernel timed
  between the loop's tasks, every ``RESAMPLE_S`` seconds.  The kernel does
  the kind of work ivopt does -- interpreter-level float arithmetic, calls
  and attribute access, and small numpy linear algebra.
* Whole processes (``ProcessSpeed``): the reference is a process that
  imports numpy, scipy.linalg and a few stdlib modules, run before and
  after each process probe, and between the processes of a task loop once
  ``PROCESS_RESAMPLE_S`` seconds have passed since the last one.  A kernel
  timed in this process does not track a child's speed; a reference
  process does.

Each timed run is scaled by the reference samples on either side of it,
because the machine's state changes within seconds; a sample slower than
``OUTLIER`` medians (an interrupt, a child process exiting) is left out.

Neither reference runs ivopt code, so a change to the library cannot move
it.  The nominal durations are close to the references' typical durations
on such a 2-core machine (Python 3.11, numpy 2.4, scipy 1.17), so scaled
times read like times measured there.
"""

from __future__ import annotations

import bisect
import math
import statistics
import sys
import time

NOMINAL_S = 2.2e-3
NOMINAL_PROCESS_S = 0.5
REFERENCE_IMPORTS = "import argparse, dataclasses, json, numpy, scipy.linalg"
RESAMPLE_S = 0.1
PROCESS_RESAMPLE_S = 2.5
OUTLIER = 2.5  # samples slower than this many medians are dropped
_MAT = ((2.0, 0.3, 0.1), (0.3, 1.0, 0.2), (0.1, 0.2, 1.5))


class _Acc:
    __slots__ = ("total", "seen")

    def __init__(self):
        self.total = 0.0
        self.seen = {}


def _step(acc: _Acc, i: int) -> None:
    x = (i * 0.5) ** 2 / (i + 1.0)
    acc.total += math.sqrt(x) + math.log1p(x)
    acc.seen[i % 17] = acc.total


def kernel() -> float:
    # numpy is imported here, not at module level, so that importing this
    # module leaves the cost of importing numpy to the set-up being timed.
    import numpy as np

    mat = np.array(_MAT)
    acc = _Acc()
    for i in range(2000):
        _step(acc, i)
    for _ in range(40):
        vals, vecs = np.linalg.eigh(mat)
        acc.total += float(np.linalg.slogdet((vecs * vals) @ vecs.T)[1])
    return acc.total


class _Reference:
    """Timed reference samples of one phase, and the scale they give a run."""

    nominal = 1.0
    resample_s = 0.0  # least time between the end of a sample and maybe_sample's next

    def __init__(self):
        self.ends = []  # perf_counter when each sample ended
        self.seconds = []  # duration of each sample

    def _take(self) -> float:
        raise NotImplementedError

    def sample(self) -> None:
        seconds = self._take()
        self.ends.append(time.perf_counter())
        self.seconds.append(seconds)

    def maybe_sample(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= self.resample_s:
            self.sample()

    def typical(self) -> float:
        """Median reference seconds over the phase."""
        return statistics.median(self.seconds)

    def scale(self, start: float, seconds: float, limit: float) -> float:
        """Nominal over measured seconds for a run that began at ``start``:
        the mean of the last sample before it and the first after it, leaving
        out a sample slower than ``limit``."""
        i = bisect.bisect_right(self.ends, start)
        j = bisect.bisect_left(self.ends, start + seconds)
        near = [s for s in self.seconds[max(i - 1, 0):i] + self.seconds[j:j + 1] if s <= limit]
        return self.nominal / (sum(near) / len(near) if near else self.typical())

    def scaled(self, runs) -> list:
        """Seconds of (start, seconds) runs, scaled to nominal speed."""
        limit = OUTLIER * self.typical()
        return [seconds * self.scale(start, seconds, limit) for start, seconds in runs]

    def describe(self) -> str:
        s = sorted(self.seconds)
        return (f"{len(s)} samples {s[0]:.4f}..{s[-1]:.4f} s, median {self.typical():.4f} s, "
                f"nominal {self.nominal:.4f} s")


class Speed(_Reference):
    """Kernel samples between the tasks of an in-process loop."""

    nominal = NOMINAL_S
    resample_s = RESAMPLE_S

    def _take(self) -> float:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start


class ProcessSpeed(_Reference):
    """Reference processes between the timed processes of a phase."""

    nominal = NOMINAL_PROCESS_S
    resample_s = PROCESS_RESAMPLE_S

    def _take(self) -> float:
        from common import run_process

        seconds, code, _ = run_process([sys.executable, "-c", REFERENCE_IMPORTS])
        if code != 0:
            raise RuntimeError(f"reference process exited with {code}")
        return seconds
