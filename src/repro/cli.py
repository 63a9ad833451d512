"""Command-line interface: quick inspection without writing a script.

Usage examples::

    python -m repro chips
    python -m repro kernel 5 16 64 --chip KP920 --rotate
    python -m repro gemm 26 36 17 --chip Graviton2 --json
    python -m repro estimate 256 3136 64 --chip KP920 --threads 8
    python -m repro tiles --lane 4
    python -m repro dmt 26 36 --kc 64 --chip KP920 --metrics
    python -m repro calibrate --chip Graviton2
    python -m repro profile 64 64 64 --chip KP920 --trace-out trace.json
    python -m repro lint-kernels --isa both --json --out findings.json
    python -m repro lint-artifacts --chip Graviton2 --mutation --json
    python -m repro chaos --chip KP920 --json --out chaos.json
    python -m repro tune 80 320 64 --chip KP920 --budget 32 --jobs 4
    python -m repro registry list --registry schedules.jsonl
    python -m repro explain 384 2 512 --chip KP920 --json
    python -m repro bench compare BENCH_old.json BENCH_executor.json

``gemm`` and ``estimate`` accept ``--json`` for machine-readable output;
``gemm``/``estimate``/``dmt`` accept ``--metrics`` to print telemetry
counters after the run.  ``profile`` runs a GEMM with full telemetry and
writes a Chrome-trace JSON openable in Perfetto (see
``docs/observability.md``).  ``lint-kernels`` runs the static kernel
verifier over the whole generated family (see ``docs/static-analysis.md``).
``lint-artifacts`` does the same for the *compiled-replay* artifacts:
it re-compiles every generatable shape (plus fused blocks per Figure 4
boundary mode) and proves each lowering equivalent to its source template
(also ``docs/static-analysis.md``).  ``chaos`` sweeps the fault-injection
sites and proves each degrades gracefully (see ``docs/robustness.md``).  ``tune`` runs the auto-tuner
(``--jobs N`` measures trials on a process pool, ``--registry`` publishes
the winner) and ``registry`` inspects/edits the persistent tuned-schedule
registry (see ``docs/tuning_guide.md``).  ``explain`` attributes a GEMM's
cycles against the chip rooflines and names the binding constraint per
phase; ``bench compare`` judges two benchmark JSON artifacts and exits 22
on regression (both in ``docs/observability.md``).

Every subcommand returns a distinct non-zero exit code on failure (see
``FAIL_CODES``); argparse usage errors exit with the conventional 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from . import signals
from .analysis.reporting import format_table
from .codegen.microkernel import generate_microkernel
from .codegen.tiles import enumerate_tiles, first_choice_tiles
from .gemm.autogemm import AutoGEMM
from .gemm.reference import reference_gemm, relative_error
from .machine.chips import ALL_CHIPS, EXTRA_CHIPS, get_chip
from .model.perf_model import ModelParams
from .telemetry import (
    chrome_trace,
    collecting,
    format_counters,
    format_tree,
    metrics_dict,
    write_chrome_trace,
)
from .tiling.planner import planner

__all__ = ["main"]


@contextlib.contextmanager
def _metrics_scope(enabled: bool):
    """Yields an active collector when ``--metrics`` was passed, else None."""
    if not enabled:
        yield None
    else:
        with collecting() as collector:
            yield collector


def _random_operands(args) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(args.seed)
    a = rng.uniform(-1, 1, (args.m, args.k)).astype(np.float32)
    b = rng.uniform(-1, 1, (args.k, args.n)).astype(np.float32)
    return a, b


def _cmd_chips(_args) -> int:
    rows = [
        [
            c.name,
            c.cores,
            f"{c.freq_ghz:.2f}",
            f"{c.simd.upper()}({c.vector_bits})",
            f"{c.l1d_bytes // 1024}K",
            f"{c.peak_gflops_core:.1f}",
            c.chip_class,
        ]
        for c in list(ALL_CHIPS.values()) + list(EXTRA_CHIPS.values())
    ]
    print(
        format_table(
            ["chip", "cores", "GHz", "SIMD", "L1d", "peak GF/core", "class"], rows
        )
    )
    return 0


def _cmd_kernel(args) -> int:
    chip = get_chip(args.chip)
    kernel = generate_microkernel(
        args.mr,
        args.nr,
        args.kc,
        lane=chip.sigma_lane,
        rotate=args.rotate,
        sigma_ai=chip.sigma_ai,
    )
    print(kernel.cpp_source())
    return 0


def _cmd_gemm(args) -> int:
    chip = get_chip(args.chip)
    lib = AutoGEMM(chip, use_replay=not args.no_replay)
    a, b = _random_operands(args)
    with _metrics_scope(args.metrics) as collector:
        result = lib.gemm(a, b, threads=args.threads)
    err = relative_error(result.c, reference_gemm(a, b))
    if args.json:
        payload = {
            "command": "gemm",
            "m": args.m,
            "n": args.n,
            "k": args.k,
            "chip": chip.name,
            "threads": args.threads,
            "cycles": result.cycles,
            "seconds": result.seconds,
            "gflops": result.gflops,
            "efficiency": result.efficiency,
            "relative_error": float(err),
            "kernel_calls": result.kernel_calls,
            "instructions": result.instructions,
            "phase_cycles": result.phase_cycles,
        }
        if collector is not None:
            payload["metrics"] = metrics_dict(collector)["counters"]
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{args.m}x{args.n}x{args.k} on {chip.name} ({args.threads} thread(s))")
    print(f"  relative error : {err:.2e}")
    print(f"  cycles         : {result.cycles:,.0f}")
    print(f"  GFLOP/s        : {result.gflops:.1f} ({result.efficiency:.1%} of peak)")
    for phase, cycles in result.phase_cycles.items():
        print(f"  {phase:<15}: {cycles:,.0f}")
    if collector is not None:
        print("counters:")
        print(format_counters(collector))
    return 0


def _cmd_estimate(args) -> int:
    chip = get_chip(args.chip)
    lib = AutoGEMM(chip)
    with _metrics_scope(args.metrics) as collector:
        est = lib.estimate(args.m, args.n, args.k, threads=args.threads)
    if args.json:
        payload = {
            "command": "estimate",
            "m": args.m,
            "n": args.n,
            "k": args.k,
            "chip": chip.name,
            "threads": args.threads,
            "cycles": est.cycles,
            "seconds": est.seconds,
            "gflops": est.gflops,
            "efficiency": est.efficiency,
            "kernel_calls": est.kernel_calls,
            "pack_cycles": est.pack_cycles,
            "bandwidth_limited": est.bandwidth_limited,
            "residency": {
                "a": est.residency.a_level,
                "b": est.residency.b_level,
                "c": est.residency.c_level,
            },
        }
        if collector is not None:
            payload["metrics"] = metrics_dict(collector)["counters"]
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{args.m}x{args.n}x{args.k} on {chip.name} ({args.threads} thread(s))")
    print(f"  cycles  : {est.cycles:,.0f}")
    print(f"  GFLOP/s : {est.gflops:.1f} ({est.efficiency:.1%} of peak)")
    print(f"  operand residency (A/B/C cache level): "
          f"{est.residency.a_level}/{est.residency.b_level}/{est.residency.c_level}")
    if collector is not None:
        print("counters:")
        print(format_counters(collector))
    return 0


def _cmd_profile(args) -> int:
    from .machine.native import native_status

    chip = get_chip(args.chip)
    lib = AutoGEMM(chip, use_replay=not args.no_replay)
    a, b = _random_operands(args)
    with collecting() as collector:
        result = lib.gemm(a, b, threads=args.threads)
    write_chrome_trace(collector, args.trace_out, process_name="repro-gemm")
    if args.metrics_out:
        payload = metrics_dict(collector)
        payload["native_status"] = native_status()
        with open(args.metrics_out, "w") as fh:
            json.dump(payload, fh, indent=2)
    print(f"{args.m}x{args.n}x{args.k} on {chip.name} ({args.threads} thread(s))")
    print(f"  cycles  : {result.cycles:,.0f}")
    print(f"  GFLOP/s : {result.gflops:.1f} ({result.efficiency:.1%} of peak)")
    print("phase breakdown (sums to cycles):")
    for phase, cycles in result.phase_cycles.items():
        share = cycles / result.cycles if result.cycles else 0.0
        print(f"  {phase:<18}: {cycles:>14,.0f}  ({share:.1%})")
    print()
    print(format_tree(collector))
    print()
    print("counters:")
    print(format_counters(collector))
    if args.metrics:
        # The scoreboard/consult hot loops lower to native C kernels when a
        # compiler is available; surface where (and why) they latched.
        print()
        print(f"native kernels : {native_status()}")
    print()
    print(f"trace written to {args.trace_out} "
          f"(open in https://ui.perfetto.dev or chrome://tracing)")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_explain(args) -> int:
    chip = get_chip(args.chip)
    lib = AutoGEMM(chip, use_replay=not args.no_replay)
    a, b = _random_operands(args)
    with collecting() as collector:
        # Prime the shared replay cache first: the estimator times each
        # distinct micro-kernel shape once, and those measurements are the
        # "replay" side of the attribution engine's calibration residuals.
        lib.estimate(args.m, args.n, args.k, threads=args.threads)
        result = lib.gemm(a, b, threads=args.threads)
    attr = result.attribution
    payload = {"command": "explain", **attr.to_dict()}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    if args.trace_out:
        trace = chrome_trace(collector, process_name="repro-explain")
        trace["otherData"]["attribution"] = attr.to_dict()
        with open(args.trace_out, "w") as fh:
            json.dump(trace, fh, indent=2)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{attr.m}x{attr.n}x{attr.k} on {attr.chip} "
          f"({attr.threads} thread(s)): {attr.gflops:.1f} GFLOP/s "
          f"({attr.efficiency:.1%} of peak), bound: {attr.bound}")
    rows = [
        [
            p.phase,
            f"{p.cycles:,.0f}",
            f"{p.fraction:.1%}",
            p.constraint,
            " ".join(
                f"{k}={v}" for k, v in sorted(p.detail.items())
                if not isinstance(v, dict)
            ),
        ]
        for p in attr.phases
    ]
    print(format_table(["phase", "cycles", "fraction", "constraint", "detail"], rows))
    print("rooflines (attainable GFLOP/s if bound only by):")
    for level, gflops in attr.rooflines.items():
        shown = f"{gflops:.1f}" if gflops is not None else "n/a"
        print(f"  {level:<8}: {shown}")
    if attr.padded_flop_fraction:
        print(f"padded-FLOP waste: {attr.padded_flop_fraction:.1%} of issued FLOPs")
    if attr.calibration:
        print("model-vs-replay calibration (per timed kernel):")
        for cal in attr.calibration:
            res = "/".join(f"L{lvl}" for lvl in cal.residency)
            print(f"  {cal.mr}x{cal.nr}x{cal.kc}"
                  f"{' rot' if cal.rotate else ''} ({res}): "
                  f"model {cal.model_cycles:,.0f} "
                  f"replay {cal.measured_cycles:,.0f} "
                  f"residual {cal.residual:+.1%}")
        print(f"max |residual| (model divergence): {attr.model_divergence:.1%}")
    if args.out:
        print(f"attribution written to {args.out}")
    if args.trace_out:
        print(f"annotated trace written to {args.trace_out}")
    return 0


def _cmd_bench(args) -> int:
    from .telemetry.history import compare

    with open(args.old) as fh:
        old = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    report = compare(
        old, new, threshold=args.threshold, ignore_machine=args.ignore_machine
    )
    if args.json:
        print(json.dumps({"command": "bench compare", **report.to_dict()}, indent=2))
    else:
        print(report.summary())
    return 0 if report.ok else FAIL_CODES["bench"]


def _cmd_tiles(args) -> int:
    tiles = enumerate_tiles(args.lane, generatable_only=True)
    main = {(t.mr, t.nr) for t in first_choice_tiles(args.lane)}
    rows = [
        [f"{t.mr}x{t.nr}", f"{t.ai_max:.2f}", t.registers, "*" if (t.mr, t.nr) in main else ""]
        for t in tiles[: args.limit]
    ]
    print(format_table(["tile", "AI_max", "registers", "main"], rows))
    return 0


def _cmd_calibrate(args) -> int:
    from .model.calibration import calibrate_sigma_ai

    chip = get_chip(args.chip)
    result = calibrate_sigma_ai(chip, kc=args.kc, max_tiles=args.tiles)
    print(f"{chip.name}: calibrated sigma_AI = {result.sigma_ai:.2f} "
          f"(configured {chip.sigma_ai}); best tile efficiency "
          f"{result.peak_efficiency:.1%}")
    for m in result.measurements:
        marker = "*" if m.ai_max >= result.sigma_ai else " "
        print(f"  {marker} {m.tile.mr}x{m.tile.nr}: AI={m.ai_max:5.2f} "
              f"eff={m.efficiency:.1%}")
    return 0


def _cmd_dmt(args) -> int:
    chip = get_chip(args.chip)
    tiler = planner(ModelParams.from_chip(chip)).tiler
    with _metrics_scope(args.metrics) as collector:
        result = tiler.tile(args.mc, args.nc, args.kc)
    shapes: dict[tuple[int, int], int] = {}
    for t in result.plan:
        shapes[(t.kernel_mr, t.kernel_nr)] = shapes.get((t.kernel_mr, t.kernel_nr), 0) + 1
    print(f"DMT on C({args.mc},{args.nc}) kc={args.kc} ({chip.name}):")
    print(f"  split: n_front={result.n_front} m_front_up={result.m_front_up} "
          f"m_back_up={result.m_back_up}")
    print(f"  tiles: {result.plan.num_tiles}  "
          f"low-AI: {len(result.plan.low_ai_tiles(chip.sigma_ai))}")
    for (mr, nr), count in sorted(shapes.items()):
        print(f"    {count:3d} x {mr}x{nr}")
    if collector is not None:
        print("counters:")
        print(format_counters(collector))
    return 0


def _cmd_lint_kernels(args) -> int:
    from .analysis.staticcheck import run_mutation_suite, sweep_kernels

    isas = ("neon", "sve") if args.isa == "both" else (args.isa,)
    chip = get_chip(args.chip) if args.chip else None
    reports = sweep_kernels(
        isas=isas, chip=chip, kc=args.kc, fusion=not args.no_fusion
    )
    n_errors = sum(len(r.errors) for r in reports)
    n_warnings = sum(len(r.warnings) for r in reports)
    n_advice = sum(len(r.advice) for r in reports)
    failed = n_errors > 0

    payload = {
        "command": "lint-kernels",
        "isas": list(isas),
        "reports": [r.to_dict() for r in reports],
        "total_reports": len(reports),
        "errors": n_errors,
        "warnings": n_warnings,
        "advice": n_advice,
    }
    if args.mutation:
        mrep = run_mutation_suite()
        payload["mutation"] = {
            "detected": mrep.detected,
            "total": mrep.total,
            "detection_rate": mrep.detection_rate,
            "by_class": {
                cls: {"detected": d, "total": t}
                for cls, (d, t) in mrep.by_class().items()
            },
            "missed": [
                {"class": o.mutant.cls, "description": o.mutant.description}
                for o in mrep.missed()
            ],
        }
        if mrep.detection_rate < args.mutation_threshold:
            failed = True
    payload["ok"] = not failed

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for r in reports:
            if r.errors or r.warnings:
                print(r.summary())
                for f in r.errors + r.warnings:
                    print(f"    {f.severity}: [{f.code}] {f.message}")
        print(
            f"lint-kernels: {len(reports)} report(s) over {'/'.join(isas)}: "
            f"{n_errors} error(s), {n_warnings} warning(s), "
            f"{n_advice} advice"
        )
        if args.mutation:
            print(mrep.summary())
        if args.out:
            print(f"findings written to {args.out}")
    return FAIL_CODES["lint-kernels"] if failed else 0


def _cmd_lint_artifacts(args) -> int:
    from .analysis.artifactcheck import (
        run_artifact_mutation_suite,
        sweep_artifacts,
    )

    isas = ("neon", "sve") if args.isa == "both" else (args.isa,)
    chip = get_chip(args.chip) if args.chip else None
    reports = sweep_artifacts(
        isas=isas, chip=chip, kc=args.kc, fusion=not args.no_fusion
    )
    n_errors = sum(len(r.errors) for r in reports)
    n_warnings = sum(len(r.warnings) for r in reports)
    n_advice = sum(len(r.advice) for r in reports)
    failed = n_errors > 0

    payload = {
        "command": "lint-artifacts",
        "isas": list(isas),
        "chip": chip.name if chip else None,
        "reports": [r.to_dict() for r in reports],
        "total_reports": len(reports),
        "errors": n_errors,
        "warnings": n_warnings,
        "advice": n_advice,
    }
    if args.mutation:
        mrep = run_artifact_mutation_suite()
        payload["mutation"] = {
            "detected": mrep.detected,
            "total": mrep.total,
            "detection_rate": mrep.detection_rate,
            "by_class": {
                cls: {"detected": d, "total": t}
                for cls, (d, t) in mrep.by_class().items()
            },
            "missed": [
                {"class": o.mutant.cls, "description": o.mutant.description}
                for o in mrep.missed()
            ],
        }
        if mrep.detection_rate < args.mutation_threshold:
            failed = True
    payload["ok"] = not failed

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for r in reports:
            if r.errors or r.warnings:
                print(r.summary())
                for f in r.errors + r.warnings:
                    print(f"    {f.severity}: [{f.code}] {f.message}")
        print(
            f"lint-artifacts: {len(reports)} report(s) over "
            f"{'/'.join(isas)}: {n_errors} error(s), "
            f"{n_warnings} warning(s), {n_advice} advice"
        )
        if args.mutation:
            print(mrep.summary())
        if args.out:
            print(f"findings written to {args.out}")
    return FAIL_CODES["lint-artifacts"] if failed else 0


def _cmd_chaos(args) -> int:
    with signals.handling():
        return _cmd_chaos_body(args)


def _cmd_chaos_body(args) -> int:
    from .faults.chaos import run_chaos

    sites = args.sites.split(",") if args.sites else None
    report = run_chaos(
        chip=args.chip,
        seed=args.seed,
        m=args.m,
        n=args.n,
        k=args.k,
        budget=args.budget,
        sites=sites,
    )
    payload = report.to_dict()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        rows = [
            [
                s.site,
                "ok" if s.ok else "FAIL",
                s.injected,
                "yes" if s.gemm_bitexact else "NO",
                "yes" if s.gemm_degraded else "no",
                s.tune_failed_trials,
                s.error or "",
            ]
            for s in report.sites
        ]
        print(
            format_table(
                ["site", "status", "fired", "bit-exact", "degraded",
                 "failed trials", "error"],
                rows,
            )
        )
        print(
            f"chaos: {len(report.sites)} site(s) on {report.chip}, "
            f"{report.m}x{report.n}x{report.k}, budget {report.budget}: "
            + ("all degraded gracefully" if report.ok else "FAILURES above")
        )
        if args.out:
            print(f"report written to {args.out}")
    return 0 if report.ok else FAIL_CODES["chaos"]


def _cmd_tune(args) -> int:
    # Graceful SIGTERM/SIGINT: every finished trial is already fsynced to
    # --records, so the handler only has to unwind cleanly; main() maps the
    # interrupt to the conventional 128+signum exit code.
    with signals.handling():
        return _cmd_tune_body(args)


def _cmd_tune_body(args) -> int:
    import time as _time

    from .tuner.records import schedule_to_dict

    chip = get_chip(args.chip)
    lib = AutoGEMM(
        chip,
        tuning_records=args.records,
        log_trials=args.log_trials,
        registry=args.registry,
    )
    with _metrics_scope(args.metrics) as collector:
        t0 = _time.perf_counter()
        result = lib.tune_result(
            args.m,
            args.n,
            args.k,
            budget=args.budget,
            seed=args.seed,
            resume=args.resume,
            jobs=args.jobs,
            threads=args.threads,
        )
        seconds = _time.perf_counter() - t0
    if args.json:
        payload = {
            "command": "tune",
            "m": args.m,
            "n": args.n,
            "k": args.k,
            "chip": chip.name,
            "budget": args.budget,
            "seed": args.seed,
            "jobs": args.jobs,
            "threads": args.threads,
            "best_cycles": result.cycles,
            "best_schedule": schedule_to_dict(result.schedule),
            "attempted": result.attempted,
            "failed": result.failed,
            "quarantined": result.quarantined,
            "resumed": result.resumed,
            "wall_seconds": round(seconds, 3),
        }
        if collector is not None:
            payload["metrics"] = metrics_dict(collector)["counters"]
        print(json.dumps(payload, indent=2))
        return 0
    s = result.schedule
    print(f"tuned {args.m}x{args.n}x{args.k} on {chip.name} "
          f"({args.jobs} job(s), {seconds:.1f}s)")
    print(f"  best cycles : {result.cycles:,.0f}")
    print(f"  schedule    : mc={s.mc} nc={s.nc} kc={s.kc} "
          f"order={'/'.join(s.loop_order)} packing={s.packing.value}")
    print(f"  trials      : {result.attempted} attempted, "
          f"{result.failed} failed, {result.resumed} resumed, "
          f"{result.quarantined} quarantined")
    if args.registry:
        print(f"  published to {args.registry}")
    if collector is not None:
        print("counters:")
        print(format_counters(collector))
    return 0


def _cmd_serve(args) -> int:
    from .serve import ServeConfig, serve_forever

    config = ServeConfig(
        chip=args.chip,
        registry=args.registry,
        workers=args.workers,
        queue_depth=args.queue_depth,
        deadline_ms=args.deadline_ms,
        retries=args.retries,
        backoff_ms=args.backoff_ms,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        use_replay=not args.no_replay,
        family_serve=not args.no_family,
        upgrade_budget=args.upgrade_budget,
    )
    if not args.socket and not args.host:
        raise ValueError("serve needs --socket PATH or --host HOST")
    where = args.socket if args.socket else f"{args.host}:{args.port}"
    print(
        f"repro serve: {args.workers} worker(s), queue depth "
        f"{args.queue_depth}, listening on {where}",
        flush=True,
    )
    code = serve_forever(
        config,
        socket_path=args.socket,
        host=args.host if not args.socket else None,
        port=args.port,
    )
    print("repro serve: drained cleanly", flush=True)
    return code


def _cmd_registry(args) -> int:
    from .tuner.records import schedule_to_dict
    from .tuner.registry import ScheduleRegistry

    reg = ScheduleRegistry(args.registry)

    def entry_dict(e) -> dict:
        return {
            "chip": e.chip,
            "m": e.m,
            "n": e.n,
            "k": e.k,
            "threads": e.threads,
            "cycles": e.cycles,
            "stale": reg.is_stale(e),
            "fingerprint": e.fingerprint,
            "tuned_at": e.tuned_at,
            "schedule": schedule_to_dict(e.schedule),
        }

    if args.registry_cmd == "list":
        entries = reg.entries(include_stale=True)
        if args.chip:
            entries = [e for e in entries if e.chip == args.chip]
        if args.json:
            print(json.dumps(
                {
                    "command": "registry list",
                    "registry": str(reg.path),
                    "fingerprint": reg.fingerprint,
                    "entries": [entry_dict(e) for e in entries],
                },
                indent=2,
            ))
            return 0
        rows = [
            [
                e.chip,
                f"{e.m}x{e.n}x{e.k}",
                e.threads,
                f"{e.cycles:,.0f}",
                f"{e.schedule.mc}/{e.schedule.nc}/{e.schedule.kc}",
                e.schedule.packing.value,
                "stale" if reg.is_stale(e) else "live",
            ]
            for e in entries
        ]
        print(format_table(
            ["chip", "shape", "thr", "cycles", "mc/nc/kc", "packing", "state"],
            rows,
        ))
        print(f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'} in "
              f"{reg.path} (fingerprint {reg.fingerprint})")
        return 0

    if args.registry_cmd == "warm":
        return _registry_warm(args, reg)

    if args.registry_cmd == "evict":
        shape = None
        if args.shape:
            parts = args.shape.lower().split("x")
            if len(parts) != 3:
                raise ValueError("--shape must look like MxNxK, e.g. 64x64x64")
            shape = tuple(int(p) for p in parts)
        evicted = reg.evict(chip=args.chip, shape=shape, stale_only=args.stale)
        if args.json:
            print(json.dumps({
                "command": "registry evict",
                "registry": str(reg.path),
                "evicted": evicted,
                "remaining": len(reg.entries(include_stale=True)),
            }, indent=2))
        else:
            print(f"evicted {evicted} entr{'y' if evicted == 1 else 'ies'} "
                  f"from {reg.path}")
        return 0

    # export
    count = reg.export(args.out, include_stale=args.stale)
    if args.json:
        print(json.dumps({
            "command": "registry export",
            "registry": str(reg.path),
            "out": args.out,
            "exported": count,
        }, indent=2))
    else:
        print(f"exported {count} entr{'y' if count == 1 else 'ies'} "
              f"to {args.out}")
    return 0


def _registry_warm(args, reg) -> int:
    """``repro registry warm``: pre-populate the shape families.

    Tunes the smallest-FLOPs shapes of the chosen workload suite
    (ResNet-50 layers and/or BERT encoder GEMMs) into the registry, so a
    daemon pointed at it serves zero-trial family projections for unseen
    in-family shapes from the first request (docs/tuning_guide.md,
    "Input-aware serving").  Shapes with an existing live exact entry are
    skipped -- re-running warm is cheap and idempotent.
    """
    import time as _time

    from .gemm.autogemm import AutoGEMM
    from .tuner.families import classify_shape
    from .workloads import BERT_BASE, RESNET50_LAYERS, encoder_layer_gemms

    chip = get_chip(args.chip)
    shapes: list = []
    if args.suite in ("resnet50", "both"):
        shapes.extend(RESNET50_LAYERS)
    if args.suite in ("bert", "both"):
        shapes.extend(encoder_layer_gemms(BERT_BASE))
    seen: set[tuple[int, int, int]] = set()
    unique = []
    for s in shapes:  # BERT q/k/v are one shape: tune it once
        if (s.m, s.n, s.k) not in seen:
            seen.add((s.m, s.n, s.k))
            unique.append(s)
    unique.sort(key=lambda s: 2 * s.m * s.n * s.k)
    if args.limit > 0:
        unique = unique[: args.limit]

    lib = AutoGEMM(
        chip, registry=reg, family_serve=False, tune_budget=args.budget,
        tune_jobs=args.jobs,
    )
    tuned, skipped = [], []
    t0 = _time.perf_counter()
    for s in unique:
        if reg.contains(chip.name, s.m, s.n, s.k, args.threads):
            skipped.append(s)
            continue
        result = lib.tune_result(
            s.m, s.n, s.k, budget=args.budget, seed=args.seed,
            jobs=args.jobs, threads=args.threads,
        )
        tuned.append((s, result))
    seconds = _time.perf_counter() - t0

    if args.json:
        print(json.dumps({
            "command": "registry warm",
            "registry": str(reg.path),
            "chip": chip.name,
            "suite": args.suite,
            "budget": args.budget,
            "threads": args.threads,
            "wall_seconds": round(seconds, 3),
            "tuned": [
                {
                    "name": s.name,
                    "m": s.m, "n": s.n, "k": s.k,
                    "family": classify_shape(s.m, s.n, s.k),
                    "best_cycles": r.cycles,
                }
                for s, r in tuned
            ],
            "skipped": [s.name for s in skipped],
            "entries": len(reg),
        }, indent=2))
        return 0
    for s, r in tuned:
        print(f"  {s.name:<14} {s.m}x{s.n}x{s.k:<6} "
              f"[{classify_shape(s.m, s.n, s.k)}] "
              f"best {r.cycles:,.0f} cycles")
    for s in skipped:
        print(f"  {s.name:<14} {s.m}x{s.n}x{s.k:<6} already warm, skipped")
    print(f"warmed {len(tuned)} shape(s) ({len(skipped)} already present) "
          f"into {reg.path} in {seconds:.1f}s; {len(reg)} live entr"
          f"{'y' if len(reg) == 1 else 'ies'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("chips", help="list the modelled chips")

    k = sub.add_parser("kernel", help="print a generated micro-kernel")
    k.add_argument("mr", type=int)
    k.add_argument("nr", type=int)
    k.add_argument("kc", type=int)
    k.add_argument("--chip", default="Graviton2")
    k.add_argument("--rotate", action="store_true")

    g = sub.add_parser("gemm", help="run a GEMM on the simulator")
    g.add_argument("m", type=int)
    g.add_argument("n", type=int)
    g.add_argument("k", type=int)
    g.add_argument("--chip", default="Graviton2")
    g.add_argument("--threads", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--json", action="store_true",
                   help="machine-readable JSON output")
    g.add_argument("--metrics", action="store_true",
                   help="collect and report telemetry counters")
    g.add_argument("--no-replay", action="store_true",
                   help="disable the tile-replay fast path (interpret "
                        "every tile instruction by instruction)")

    e = sub.add_parser("estimate", help="project a GEMM without full simulation")
    e.add_argument("m", type=int)
    e.add_argument("n", type=int)
    e.add_argument("k", type=int)
    e.add_argument("--chip", default="Graviton2")
    e.add_argument("--threads", type=int, default=1)
    e.add_argument("--json", action="store_true",
                   help="machine-readable JSON output")
    e.add_argument("--metrics", action="store_true",
                   help="collect and report telemetry counters")

    p = sub.add_parser(
        "profile",
        help="run a GEMM with full telemetry and export a Chrome trace",
    )
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--chip", default="Graviton2")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-out", default="trace.json",
                   help="Chrome-trace JSON output path (Perfetto-loadable)")
    p.add_argument("--metrics", action="store_true",
                   help="also report native-kernel status (whether the "
                        "scoreboard/consult hot loops run as compiled C "
                        "or latched to the Python paths, and why)")
    p.add_argument("--metrics-out", default=None,
                   help="optional flat JSON metrics dump path "
                        "(includes native_status)")
    p.add_argument("--no-replay", action="store_true",
                   help="disable the tile-replay fast path (interpret "
                        "every tile instruction by instruction)")

    x = sub.add_parser(
        "explain",
        help="run a GEMM and attribute its cycles against the chip "
             "rooflines (which constraint binds each phase)",
    )
    x.add_argument("m", type=int)
    x.add_argument("n", type=int)
    x.add_argument("k", type=int)
    x.add_argument("--chip", default="Graviton2")
    x.add_argument("--threads", type=int, default=1)
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--json", action="store_true",
                   help="machine-readable JSON output")
    x.add_argument("--out", default=None,
                   help="write the attribution JSON artifact to this path")
    x.add_argument("--trace-out", default=None,
                   help="write a Chrome trace annotated with the "
                        "attribution (in otherData) to this path")
    x.add_argument("--no-replay", action="store_true",
                   help="disable the tile-replay fast path")

    bc = sub.add_parser(
        "bench",
        help="benchmark history tooling (regression gate for BENCH_*.json)",
    )
    bsub = bc.add_subparsers(dest="bench_cmd", required=True)
    bcmp = bsub.add_parser(
        "compare",
        help="compare two benchmark JSON artifacts; exit 22 on regression, "
             "0 on ok or skip (incomparable machines)",
    )
    bcmp.add_argument("old", help="baseline benchmark JSON file")
    bcmp.add_argument("new", help="candidate benchmark JSON file")
    bcmp.add_argument("--threshold", type=float, default=0.1,
                      help="relative change tolerated on timing metrics "
                           "(default 0.1 = 10%%)")
    bcmp.add_argument("--ignore-machine", action="store_true",
                      help="compare even when machine fingerprints differ")
    bcmp.add_argument("--json", action="store_true",
                      help="machine-readable JSON output")

    t = sub.add_parser("tiles", help="list feasible register tiles")
    t.add_argument("--lane", type=int, default=4)
    t.add_argument("--limit", type=int, default=20)

    c = sub.add_parser("calibrate", help="micro-benchmark sigma_AI for a chip")
    c.add_argument("--chip", default="KP920")
    c.add_argument("--kc", type=int, default=128)
    c.add_argument("--tiles", type=int, default=16)

    d = sub.add_parser("dmt", help="show the DMT plan for a block")
    d.add_argument("mc", type=int)
    d.add_argument("nc", type=int)
    d.add_argument("--kc", type=int, default=64)
    d.add_argument("--chip", default="KP920")
    d.add_argument("--metrics", action="store_true",
                   help="collect and report telemetry counters")

    lk = sub.add_parser(
        "lint-kernels",
        help="statically verify the whole generated kernel family",
    )
    lk.add_argument("--isa", choices=["neon", "sve", "both"], default="both")
    lk.add_argument("--kc", type=int, default=None,
                    help="override the per-ISA sweep k_c")
    lk.add_argument("--chip", default=None,
                    help="enable advisory pipeline lints against this "
                         "chip's latencies")
    lk.add_argument("--json", action="store_true",
                    help="machine-readable JSON output")
    lk.add_argument("--out", default=None,
                    help="write the JSON findings artifact to this path")
    lk.add_argument("--no-fusion", action="store_true",
                    help="skip the fused-pair boundary checks")
    lk.add_argument("--mutation", action="store_true",
                    help="also run the mutation self-test harness")
    lk.add_argument("--mutation-threshold", type=float, default=0.95,
                    help="minimum mutation detection rate (default 0.95)")

    la = sub.add_parser(
        "lint-artifacts",
        help="statically verify the compiled-replay artifacts (lowering "
             "equivalence + interval safety) over the kernel family",
    )
    la.add_argument("--isa", choices=["neon", "sve", "both"], default="both")
    la.add_argument("--kc", type=int, default=None,
                    help="override the per-ISA sweep k_c")
    la.add_argument("--chip", default=None,
                    help="also check the post-consult LRU cache export "
                         "against this chip")
    la.add_argument("--json", action="store_true",
                    help="machine-readable JSON output")
    la.add_argument("--out", default=None,
                    help="write the JSON findings artifact to this path")
    la.add_argument("--no-fusion", action="store_true",
                    help="skip the fused-block artifact checks")
    la.add_argument("--mutation", action="store_true",
                    help="also run the compiled-lowering mutation self-test")
    la.add_argument("--mutation-threshold", type=float, default=0.95,
                    help="minimum mutation detection rate (default 0.95)")

    ch = sub.add_parser(
        "chaos",
        help="fault-injection sweep over every registered site "
             "(see docs/robustness.md)",
    )
    ch.add_argument("--chip", default="KP920")
    ch.add_argument("--seed", type=int, default=7)
    ch.add_argument("--m", type=int, default=64)
    ch.add_argument("--n", type=int, default=48)
    ch.add_argument("--k", type=int, default=96)
    ch.add_argument("--budget", type=int, default=40,
                    help="tuning trials per site in the tune leg")
    ch.add_argument("--sites", default=None,
                    help="comma-separated subset of fault sites "
                         "(default: all registered sites)")
    ch.add_argument("--json", action="store_true",
                    help="machine-readable JSON output")
    ch.add_argument("--out", default=None,
                    help="write the JSON report artifact to this path")

    tu = sub.add_parser(
        "tune",
        help="auto-tune a shape (TVM-style search, optionally on a "
             "process pool of measurement workers)",
    )
    tu.add_argument("m", type=int)
    tu.add_argument("n", type=int)
    tu.add_argument("k", type=int)
    tu.add_argument("--chip", default="Graviton2")
    tu.add_argument("--budget", type=int, default=32,
                    help="measured candidates (default 32)")
    tu.add_argument("--seed", type=int, default=0)
    tu.add_argument("--jobs", type=int, default=1,
                    help="measurement worker processes; >1 parallelises "
                         "trial measurement with results identical to a "
                         "serial search for the same seed")
    tu.add_argument("--threads", type=int, default=1,
                    help="thread count the tuned schedule is registered "
                         "under in the registry")
    tu.add_argument("--records", default=None,
                    help="tuning-record JSON-lines file (winner history; "
                         "required for --resume)")
    tu.add_argument("--resume", action="store_true",
                    help="checkpoint every trial to --records and replay "
                         "trials an interrupted run already measured")
    tu.add_argument("--log-trials", action="store_true",
                    help="persist every evaluated trial to --records")
    tu.add_argument("--registry", default=None,
                    help="persistent tuned-schedule registry file the "
                         "winner is published to")
    tu.add_argument("--json", action="store_true",
                    help="machine-readable JSON output")
    tu.add_argument("--metrics", action="store_true",
                    help="collect and report telemetry counters")

    sv = sub.add_parser(
        "serve",
        help="run the GEMM-as-a-service daemon on a local socket "
             "(see docs/serving.md); SIGTERM drains gracefully and exits 0",
    )
    sv.add_argument("--socket", default=None,
                    help="unix-domain socket path to listen on")
    sv.add_argument("--host", default=None,
                    help="TCP host to listen on instead of a unix socket")
    sv.add_argument("--port", type=int, default=0,
                    help="TCP port (0 = ephemeral; printed at startup)")
    sv.add_argument("--chip", default="KP920")
    sv.add_argument("--workers", type=int, default=2,
                    help="supervised worker processes (default 2)")
    sv.add_argument("--queue-depth", type=int, default=32,
                    help="bounded admission queue; beyond it requests are "
                         "shed with an explicit overload error (default 32)")
    sv.add_argument("--deadline-ms", type=int, default=30000,
                    help="default per-request deadline when the request "
                         "carries none (default 30000)")
    sv.add_argument("--retries", type=int, default=2,
                    help="max retries for transient worker failures "
                         "(default 2)")
    sv.add_argument("--backoff-ms", type=int, default=10,
                    help="base of the exponential retry backoff "
                         "(default 10)")
    sv.add_argument("--breaker-threshold", type=int, default=3,
                    help="consecutive failures before a shape key is "
                         "quarantined (default 3)")
    sv.add_argument("--breaker-cooldown", type=float, default=30.0,
                    help="seconds a quarantined shape stays quarantined "
                         "before a half-open probe (default 30)")
    sv.add_argument("--registry", default=None,
                    help="persistent tuned-schedule registry file shared "
                         "with the workers")
    sv.add_argument("--no-replay", action="store_true",
                    help="disable the tile-replay fast path in workers")
    sv.add_argument("--no-family", action="store_true",
                    help="disable input-aware family projection on "
                         "registry misses (serve heuristic instead)")
    sv.add_argument("--upgrade-budget", type=int, default=8,
                    help="tuning trials for the background upgrade a "
                         "family-projected serve enqueues (default 8)")

    rg = sub.add_parser(
        "registry",
        help="inspect or edit a persistent tuned-schedule registry",
    )
    rsub = rg.add_subparsers(dest="registry_cmd", required=True)
    rl = rsub.add_parser("list", help="list registry entries (live + stale)")
    rl.add_argument("--registry", required=True,
                    help="registry JSON-lines file")
    rl.add_argument("--chip", default=None, help="filter by chip name")
    rl.add_argument("--json", action="store_true",
                    help="machine-readable JSON output")
    rv = rsub.add_parser("evict", help="drop entries and rewrite the file")
    rv.add_argument("--registry", required=True,
                    help="registry JSON-lines file")
    rv.add_argument("--chip", default=None, help="evict only this chip")
    rv.add_argument("--shape", default=None,
                    help="evict only this MxNxK shape (e.g. 64x64x64)")
    rv.add_argument("--stale", action="store_true",
                    help="evict only fingerprint-stale entries")
    rv.add_argument("--json", action="store_true",
                    help="machine-readable JSON output")
    rx = rsub.add_parser("export", help="write a standalone registry file")
    rx.add_argument("--registry", required=True,
                    help="registry JSON-lines file")
    rx.add_argument("--out", required=True, help="output path")
    rx.add_argument("--stale", action="store_true",
                    help="include fingerprint-stale entries")
    rx.add_argument("--json", action="store_true",
                    help="machine-readable JSON output")
    rw = rsub.add_parser(
        "warm",
        help="pre-populate shape families by tuning workload shapes "
             "(ResNet-50 / BERT), so unseen in-family shapes serve "
             "zero-trial projections",
    )
    rw.add_argument("--registry", required=True,
                    help="registry JSON-lines file to warm")
    rw.add_argument("--chip", default="KP920")
    rw.add_argument("--suite", choices=("resnet50", "bert", "both"),
                    default="resnet50",
                    help="workload suite the warm shapes come from "
                         "(default resnet50)")
    rw.add_argument("--limit", type=int, default=4,
                    help="max shapes to tune, smallest-FLOPs first "
                         "(0 = all; default 4)")
    rw.add_argument("--budget", type=int, default=8,
                    help="tuning trials per shape (default 8)")
    rw.add_argument("--jobs", type=int, default=1,
                    help="parallel measurement workers per tune")
    rw.add_argument("--threads", type=int, default=1,
                    help="thread count the schedules are tuned for")
    rw.add_argument("--seed", type=int, default=0)
    rw.add_argument("--json", action="store_true",
                    help="machine-readable JSON output")

    return parser


_COMMANDS = {
    "chips": _cmd_chips,
    "calibrate": _cmd_calibrate,
    "kernel": _cmd_kernel,
    "gemm": _cmd_gemm,
    "estimate": _cmd_estimate,
    "profile": _cmd_profile,
    "tiles": _cmd_tiles,
    "dmt": _cmd_dmt,
    "lint-kernels": _cmd_lint_kernels,
    "lint-artifacts": _cmd_lint_artifacts,
    "chaos": _cmd_chaos,
    "tune": _cmd_tune,
    "serve": _cmd_serve,
    "registry": _cmd_registry,
    "bench": _cmd_bench,
    "explain": _cmd_explain,
}

#: Per-subcommand failure exit codes: distinct, non-zero, and disjoint from
#: argparse's usage-error 2, so scripts and CI can tell *which* stage of a
#: multi-command pipeline failed from the status alone.
FAIL_CODES = {
    "chips": 10,
    "kernel": 11,
    "gemm": 12,
    "estimate": 13,
    "profile": 14,
    "tiles": 15,
    "calibrate": 16,
    "dmt": 17,
    "lint-kernels": 18,
    "chaos": 19,
    "tune": 20,
    "registry": 21,
    # ``bench compare`` deliberately owns 22: CI keys on "exit 22 means a
    # measured regression" as distinct from crash/usage failures.
    "bench": 22,
    "explain": 23,
    "lint-artifacts": 24,
    "serve": 25,
}
assert set(FAIL_CODES) == set(_COMMANDS)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except signals.GracefulInterrupt as gi:
        # SIGTERM/SIGINT under signals.handling(): already-checkpointed
        # state is flushed (appends are fsynced as they happen), so all
        # that is left is the conventional 128+signum status.
        print(
            f"repro {args.command}: interrupted by signal {gi.signum}; "
            "checkpointed state is on disk",
            file=sys.stderr,
        )
        return signals.exit_code(gi.signum)
    except Exception as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return FAIL_CODES[args.command]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
