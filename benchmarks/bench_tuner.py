"""Wall-clock benchmark: parallel trial measurement vs. the serial tuner,
plus the registry serving path and the family cold-start path.

Four legs, results in ``BENCH_tuner.json`` at the repository root:

1. **serial** -- ``AutoTuner.tune(jobs=1)`` on the benchmark space;
2. **parallel** -- the same search with ``jobs=N`` (default
   ``min(4, cpu_count)``).  The selected best schedule and cycles must be
   *identical* to the serial run (the determinism contract of
   ``repro.tuner.parallel``); any divergence is a hard failure.  The
   recorded ``parallel_speedup`` is the honest host measurement -- on a
   single-CPU host the pool cannot beat the serial search and the speedup
   gate is skipped (recorded as such).
3. **registry** -- serving-style ``AutoGEMM.gemm`` with
   ``registry=``/``auto_tune=True``: the first call on a fresh shape pays
   a tuning search, the second call (a fresh ``AutoGEMM``, as another
   serving process would be) must be a ``registry.hits`` with **zero**
   trials.  ``registry_speedup`` is first-call wall-clock over
   second-call wall-clock.
4. **coldstart** -- the input-aware family path
   (``repro.tuner.families``) on an *unseen* shape whose family has one
   tuned neighbour: the full-tune miss path is timed against the
   zero-trial projection serve (``coldstart_speedup``, gated >= 10x),
   the projected schedule's estimated cycles are compared to the
   tuned-best (``quality_ratio``), and the background upgrade must
   converge the registry entry to the exact schedule a direct tune picks
   for the same budget and seed (``upgrade_converged``).

Every timed call starts from an empty process-wide tile planner
(:func:`repro.tiling.planner.clear`): the legs share one process, and a
planner warmed by an earlier leg would otherwise time a later one warm.

Usage::

    PYTHONPATH=src python benchmarks/bench_tuner.py            # full space
    PYTHONPATH=src python benchmarks/bench_tuner.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/bench_tuner.py --jobs 8
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from _bench_utils import finalize_payload  # noqa: E402
from repro import telemetry  # noqa: E402
from repro.gemm.autogemm import AutoGEMM  # noqa: E402
from repro.machine.chips import get_chip  # noqa: E402
from repro.tiling import planner  # noqa: E402
from repro.tuner.records import schedule_to_dict  # noqa: E402
from repro.tuner.tuner import AutoTuner  # noqa: E402


def run_search(chip, m, n, k, budget, seed, jobs):
    tuner = AutoTuner(chip)
    planner.clear()
    t0 = time.perf_counter()
    result = tuner.tune(m, n, k, budget=budget, seed=seed, jobs=jobs)
    return result, time.perf_counter() - t0


def run_registry_leg(chip, m, n, k, budget, registry_path):
    rng = np.random.default_rng(7)
    a = rng.uniform(-1, 1, (m, k)).astype(np.float32)
    b = rng.uniform(-1, 1, (k, n)).astype(np.float32)

    first = AutoGEMM(chip, registry=str(registry_path), auto_tune=True,
                     tune_budget=budget)
    planner.clear()
    with telemetry.collecting() as col1:
        t0 = time.perf_counter()
        first.gemm(a, b)
        first_s = time.perf_counter() - t0

    # A fresh library instance models a second serving process sharing the
    # registry file: it must serve the tuned schedule without any trials.
    second = AutoGEMM(chip, registry=str(registry_path), auto_tune=True,
                      tune_budget=budget)
    planner.clear()
    with telemetry.collecting() as col2:
        t0 = time.perf_counter()
        second.gemm(a, b)
        second_s = time.perf_counter() - t0

    return {
        "first_call_seconds": round(first_s, 3),
        "first_call_trials": int(col1.counters.get("tuner.trials_measured", 0)),
        "first_call_misses": int(col1.counters.get("registry.misses", 0)),
        "second_call_seconds": round(second_s, 4),
        "second_call_trials": int(col2.counters.get("tuner.trials_measured", 0)),
        "second_call_hits": int(col2.counters.get("registry.hits", 0)),
        "registry_speedup": round(first_s / second_s, 1) if second_s else None,
    }


def run_coldstart_leg(chip, budget, registry_path, miss_registry_path):
    """Family projection serve vs. the full-tune miss path.

    Seed shape A and query shape B share the tall-skinny family (B is
    1.25x A's n -- log2 distance ~0.32, inside the serving radius) but B
    has no registry entry anywhere, so without the family path its first
    serve pays a full tune.
    """
    seed_shape = (32, 512, 64)
    query = (32, 640, 64)
    rng = np.random.default_rng(11)
    qa = rng.uniform(-1, 1, (query[0], query[2])).astype(np.float32)
    qb = rng.uniform(-1, 1, (query[2], query[1])).astype(np.float32)

    # The miss path: B against a registry that has never seen its family.
    miss = AutoGEMM(chip, registry=str(miss_registry_path), auto_tune=True,
                    tune_budget=budget, family_serve=False)
    planner.clear()
    t0 = time.perf_counter()
    miss.gemm(qa, qb)
    full_tune_s = time.perf_counter() - t0
    # The auto_tune winner (budget, seed=0) it just published: the
    # tuned-best baseline the projection and the upgrade are held against.
    tuned_best = next(
        e for e in miss.registry.live_entries(chip.name)
        if (e.m, e.n, e.k) == query
    )

    # Warm A into the serving registry (the `repro registry warm` step).
    warm = AutoGEMM(chip, registry=str(registry_path), auto_tune=True,
                    tune_budget=budget, family_serve=False)
    sa = rng.uniform(-1, 1, (seed_shape[0], seed_shape[2])).astype(np.float32)
    sb = rng.uniform(-1, 1, (seed_shape[2], seed_shape[1])).astype(np.float32)
    warm.gemm(sa, sb)

    # The projection serve: fresh process-equivalent, zero trials allowed.
    server = AutoGEMM(chip, registry=str(registry_path), tune_budget=budget,
                      family_upgrade=False)
    planner.clear()
    with telemetry.collecting() as col:
        t0 = time.perf_counter()
        result = server.gemm(qa, qb)
        projection_s = time.perf_counter() - t0
    projection = result.family_projection
    quality = (
        server.estimator.estimate(
            *query, schedule=projection.schedule
        ).cycles / tuned_best.cycles
        if projection is not None else None
    )

    # The background upgrade: same budget and seed as the direct tune, so
    # the registry entry must converge to the identical best schedule.
    upgrader = AutoGEMM(chip, registry=str(registry_path),
                        tune_budget=budget, family_upgrade=True)
    upgrader.gemm(qa, qb)
    upgrader.drain_upgrades(timeout=300)
    upgraded = upgrader.registry.get(chip.name, *query)
    converged = upgraded == tuned_best.schedule

    return {
        "seed_shape": {"m": seed_shape[0], "n": seed_shape[1], "k": seed_shape[2]},
        "query_shape": {"m": query[0], "n": query[1], "k": query[2]},
        "budget": budget,
        "full_tune_seconds": round(full_tune_s, 3),
        "projection_seconds": round(projection_s, 4),
        "projection_trials": int(col.counters.get("tuner.trials_measured", 0)),
        "family_served": int(col.counters.get("family.served", 0)),
        "family": projection.family if projection else None,
        "distance": round(projection.distance, 3) if projection else None,
        "confidence": round(projection.confidence, 3) if projection else None,
        "quality_ratio": round(quality, 3) if quality is not None else None,
        "upgrade_converged": converged,
        "coldstart_speedup": (
            round(full_tune_s / projection_s, 1) if projection_s else None
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chip", default="KP920")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized space (96^3, budget 12)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="parallel worker count (default min(4, cpus))")
    parser.add_argument("--budget", type=int, default=0,
                        help="override the trial budget")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="required parallel speedup when the host has "
                             "at least --jobs CPUs")
    parser.add_argument("--min-coldstart-speedup", type=float, default=10.0,
                        help="required projection-serve speedup over the "
                             "full-tune miss path")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_tuner.json")
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    jobs = args.jobs if args.jobs else min(4, max(cpus, 2))
    jobs = max(jobs, 2)
    if args.smoke:
        m, n, k, budget = 96, 96, 96, 12
    else:
        m, n, k, budget = 128, 384, 256, 24
    if args.budget:
        budget = args.budget

    chip = get_chip(args.chip)
    print(f"[bench_tuner] {chip.name} {m}x{n}x{k} budget={budget}: "
          f"serial search ...", flush=True)
    serial, serial_s = run_search(chip, m, n, k, budget, args.seed, jobs=1)
    print(f"[bench_tuner]   {serial_s:.2f}s   now jobs={jobs} "
          f"({cpus} cpu(s)) ...", flush=True)
    parallel, parallel_s = run_search(chip, m, n, k, budget, args.seed, jobs=jobs)

    identical = (
        serial.schedule == parallel.schedule
        and serial.cycles == parallel.cycles
    )
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    gate = cpus >= 2
    print(f"[bench_tuner]   {parallel_s:.2f}s   speedup {speedup:.2f}x  "
          f"identical={identical}   registry leg ...", flush=True)

    registry_path = args.output.parent / ".bench_tuner_registry.jsonl"
    coldstart_paths = (
        args.output.parent / ".bench_tuner_families.jsonl",
        args.output.parent / ".bench_tuner_families_miss.jsonl",
    )
    for p in (registry_path, *coldstart_paths):
        if p.exists():
            p.unlink()
    try:
        registry = run_registry_leg(chip, 64, 48, 96, min(budget, 12),
                                    registry_path)
        print(f"[bench_tuner]   registry hit "
              f"{registry['registry_speedup']}x   coldstart leg ...",
              flush=True)
        coldstart = run_coldstart_leg(chip, min(budget, 12), *coldstart_paths)
    finally:
        for p in (registry_path, *coldstart_paths):
            if p.exists():
                p.unlink()

    payload = {
        "benchmark": "tuner_wallclock",
        "chip": chip.name,
        "shape": {"m": m, "n": n, "k": k},
        "budget": budget,
        "seed": args.seed,
        "smoke": args.smoke,
        "cpus": cpus,
        "jobs": jobs,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "parallel_speedup": round(speedup, 2),
        "speedup_gate": (
            f">= {args.min_speedup}x" if gate
            else f"skipped ({cpus} cpu host: pool cannot beat serial)"
        ),
        "best_identical": identical,
        "best_cycles": serial.cycles,
        "best_schedule": schedule_to_dict(serial.schedule),
        "registry": registry,
        "coldstart": coldstart,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    finalize_payload(payload)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench_tuner] serial {serial_s:.2f}s  parallel {parallel_s:.2f}s "
          f"(jobs={jobs}, speedup {speedup:.2f}x)  "
          f"registry hit in {registry['second_call_seconds']}s "
          f"({registry['registry_speedup']}x)  "
          f"coldstart projection in {coldstart['projection_seconds']}s "
          f"({coldstart['coldstart_speedup']}x, quality "
          f"{coldstart['quality_ratio']})  -> {args.output}")

    if not identical:
        print("[bench_tuner] parallel search selected a DIFFERENT schedule",
              file=sys.stderr)
        return 1
    if registry["second_call_trials"] != 0 or registry["second_call_hits"] < 1:
        print("[bench_tuner] registry serving leg re-tuned instead of "
              "hitting the registry", file=sys.stderr)
        return 1
    if coldstart["projection_trials"] != 0 or coldstart["family_served"] < 1:
        print("[bench_tuner] coldstart leg tuned on the request path instead "
              "of serving a family projection", file=sys.stderr)
        return 1
    if not coldstart["upgrade_converged"]:
        print("[bench_tuner] background upgrade did not converge to the "
              "direct-tune schedule", file=sys.stderr)
        return 1
    if gate and speedup < args.min_speedup:
        print(f"[bench_tuner] speedup {speedup:.2f}x below required "
              f"{args.min_speedup:.1f}x on a {cpus}-cpu host", file=sys.stderr)
        return 2
    if (coldstart["coldstart_speedup"] or 0) < args.min_coldstart_speedup:
        print(f"[bench_tuner] coldstart speedup "
              f"{coldstart['coldstart_speedup']}x below required "
              f"{args.min_coldstart_speedup:.1f}x", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
