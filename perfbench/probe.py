"""Time one workload set-up in a fresh interpreter.

``python3 -m perfbench.probe WORKLOAD SEED``, from the repository root
with ``src`` on ``PYTHONPATH``, imports the program, runs the workload's
set-up as a benchmark run does, and prints the seconds spent importing
plus setting up.  A run's ``setup_s`` is the median of its own set-up and
a few of these probes, so every sample starts from a cold process: no
sample profits from caches an earlier set-up in the same process filled.
"""

from __future__ import annotations

import sys
import time


def timed_import() -> float:
    """Seconds to import the program and load its native kernel."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import repro  # noqa: F401
    from repro.machine.native import get_native

    from perfbench import workloads  # noqa: F401

    get_native()
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    import_s = timed_import()
    from perfbench import workloads

    print(import_s + workloads.SETUPS[workload](seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
