"""Start a ``repro serve`` daemon for the serve-mix workload.

Runs the daemon exactly as ``python -m repro serve`` does, with two
additions that live only in the benchmark:

* the ``stats`` response carries ``all_counters``, the daemon collector's
  complete counter set (``repro serve`` itself reports the ``serve.*``,
  ``registry.*`` and ``family.*`` families), so replay and cache ratios of
  the worker processes can be read by difference around the timed phase;
* with ``--trace-dir DIR`` the layer wrappers of :mod:`layers` are
  installed before the workers fork, and every process writes its
  per-layer totals to ``DIR/<pid>.json`` after each outermost layer call.

The daemon's configuration (chip, workers, queue depth, deadline,
upgrade budget) is the serve-mix configuration of :mod:`workloads`.

Usage: ``python perfbench/daemon.py --socket S --registry R [--trace-dir D]``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--registry", required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()

    from repro import telemetry
    from repro.serve import ServeConfig, serve_forever
    from repro.serve.server import GemmServer

    from perfbench import layers, workloads

    plain_stats = GemmServer.stats

    def stats_with_all_counters(self) -> dict:
        stats = plain_stats(self)
        col = telemetry.active_collector()
        stats["all_counters"] = dict(col.counters) if col is not None else {}
        return stats

    GemmServer.stats = stats_with_all_counters

    if args.trace_dir:
        tracer = layers.Tracer()
        layers.install(tracer)
        trace_dir = Path(args.trace_dir)

        def start_dumping() -> None:
            tracer.dump_path = str(trace_dir / f"{os.getpid()}.json")
            tracer.dump(tracer.dump_path)

        def in_child() -> None:
            tracer.reset_after_fork()
            start_dumping()

        os.register_at_fork(after_in_child=in_child)
        start_dumping()

    config = ServeConfig(
        chip=workloads.CHIP,
        registry=args.registry,
        workers=workloads.SERVE_WORKERS,
        queue_depth=workloads.SERVE_QUEUE_DEPTH,
        deadline_ms=workloads.SERVE_DEADLINE_MS,
        upgrade_budget=workloads.SERVE_UPGRADE_BUDGET,
    )
    return serve_forever(config, socket_path=args.socket)


if __name__ == "__main__":
    sys.exit(main())
