"""Time one set-up in a fresh process: import ivopt, then build the inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
Prints the seconds taken as its last line.
"""

import sys
import time

import workloads

if __name__ == "__main__":
    start = time.perf_counter()
    import ivopt  # noqa: F401

    workloads.MODULES[sys.argv[1]].build(int(sys.argv[2]))
    print(time.perf_counter() - start)
