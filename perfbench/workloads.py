"""Workload name to module.  Each module has ``build(seed) -> list[Task]``
and ``PASSES_PER_ROUND``, the passes over that list in one round of a run."""

import wl_cli
import wl_convexity
import wl_kkt

MODULES = {m.NAME: m for m in (wl_convexity, wl_kkt, wl_cli)}
