"""Host-time and simulated-time benchmark of the repro stack.

Usage, from the repository root::

    python3 perfbench/run.py --limits-ms gemm-warm=610,dnn-resnet50=12400,serve-mix=350 \
        --workload gemm-warm --seed 1 --seconds 20 --trace 0

``--limits-ms`` is fixed in the ``command`` of ``BENCHMARK.json``: the
per-op latency limit goodput counts against, per workload.  Each is twice
a latency measured on a 2-core x86 host while it ran every workload about
2x slower than in its fast hours: the largest ``latency_tail_ms`` for
gemm-warm and serve-mix, the largest single op for dnn-resnet50 (whose
tail is its median).  So goodput matches throughput on a healthy run, even
on the slow host, and falls once the slowest ops slow down twofold.
``--workload all`` runs every workload in turn and prints one row each;
``--holdout SEED`` then also runs each workload with that second seed and
checks that both seeds give the same workload size and class shares and
that no op failed on either.

Workloads (their one-line reasons are the ``why`` fields of
``BENCHMARK.json``): ``gemm-warm``, ``dnn-resnet50``, ``serve-mix``; see
:mod:`perfbench.workloads` for what each runs and what its *op* is.

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` repeats the timed phase with the layer wrappers of
:mod:`perfbench.layers` and the program's own telemetry collector, and
reports per-layer calls and host seconds, counter ratios,
``unattributed_s`` and ``trace_overhead``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a ``provenance`` object (seed, machine fingerprint, native kernel
status, shapes, offered rate, latency limit, workload reason).  A run with
any failed op -- an exception, an error response, a C matrix that is not
bit-exact against ``reference.sgemm``, a degraded result, or cycles that
differ between calls of one shape -- or one that breaks its workload's
premise exits 1.  Built artefacts (the native kernel) and daemon state go
to ``$CARGO_TARGET_DIR`` or ``.bench_build`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("gemm-warm", "dnn-resnet50", "serve-mix")


def _build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def _prepare_env(build: Path) -> None:
    """Keep every file the program writes inside the checkout."""
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_DIR"] = str(build / "native")
    os.environ["TMPDIR"] = str(build / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _why() -> dict:
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return {}
    return {w["name"]: w["why"] for w in json.loads(spec.read_text())["workloads"]}


def _build_native(build: Path) -> None:
    """Compile the native kernel once per checkout, in a child process, so
    neither the compile nor the compiler's memory lands in a measured run."""
    if not any((build / "native").glob("*.so")):
        subprocess.run(
            [sys.executable, "-c",
             "from repro.machine.native import get_native; get_native()"],
            check=False, stdout=sys.stderr,
        )


def run_one(args) -> int:
    build = _build_dir()
    _prepare_env(build)
    _build_native(build)
    from perfbench import probe

    import_s = probe.timed_import()
    from repro.machine.native import native_status
    from repro.telemetry.history import attach_fingerprint

    from perfbench import workloads

    ctx = workloads.Context(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        limits_ms=args.limits_ms, build_dir=build, import_s=import_s,
    )
    fn = {"gemm-warm": workloads.gemm_warm, "dnn-resnet50": workloads.dnn_resnet50,
          "serve-mix": workloads.serve_mix}[args.workload]
    try:
        out = fn(ctx)
    except workloads.PremiseError as exc:
        print(f"perfbench: {args.workload} broke its premise: {exc}", file=sys.stderr)
        return 1
    if out.failed:
        print(f"perfbench: {args.workload}: {out.failed} of {out.attempted} ops failed: "
              + "; ".join(out.problems), file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": out.attempted,
                          "failed": out.failed, "metrics": {}}))
        return 1
    catalogue = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    unknown = set(out.metrics) - set(catalogue)
    missing = set() if args.trace else set(catalogue) - set(out.metrics)
    if unknown or missing:
        raise RuntimeError(
            f"{args.workload}: metrics not in the catalogue {sorted(unknown)}, "
            f"catalogue metrics not measured {sorted(missing)}"
        )
    metrics = {name: out.metrics.get(name, (0.0, unit)) for name, unit in catalogue.items()}
    provenance = attach_fingerprint({
        "workload": args.workload,
        "why": _why().get(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "native_status": native_status(),
        **out.provenance,
    })
    dominant = None
    if args.trace:
        selfs = {k[: -len(".self_s")]: v for k, (v, _) in metrics.items()
                 if k.endswith(".self_s")}
        dominant = max(selfs, key=selfs.get)
        provenance["dominant_layer"] = dominant
    _print_table(args.workload, metrics, dominant)
    print(json.dumps({"provenance": provenance}, default=float))
    result = {
        "correct": True,
        "attempted": out.attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _print_table(workload: str, metrics: dict, dominant: str | None) -> None:
    cells = "  ".join(f"{k}={v:.6g}" for k, (v, _) in metrics.items() if v)
    print(f"[{workload}] {cells}")
    if dominant:
        print(f"[{workload}] dominant layer (self time): {dominant}")


def _run_child(args, workload: str, seed: int):
    """One workload in its own process; returns (provenance, result) or None."""
    proc = subprocess.run(
        [sys.executable, __file__, "--limits-ms", args.limits_text,
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-2]:
        print(line)
    if proc.returncode != 0 or len(lines) < 2:
        return None
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def run_all(args) -> int:
    """One row per workload; with ``--holdout`` a held-out seed check."""
    rows, rc = [], 0
    for workload in WORKLOADS:
        got = _run_child(args, workload, args.seed)
        rows.append((workload, got[1] if got else None))
        rc |= got is None
        if got and args.holdout is not None:
            again = _run_child(args, workload, args.holdout)
            same = again is not None and all(
                got[0][key] == again[0][key] for key in ("size", "class_shares")
            )
            print(f"[{workload}] held-out seed {args.holdout}: "
                  f"{'same size and class shares, no failed op' if same else 'MISMATCH'}")
            rc |= not same
    measured = [res for _, res in rows if res]
    if measured and not args.trace:  # traced rows are the per-workload lines above
        names = [f"{k} [{m['unit']}]" for k, m in measured[0]["metrics"].items()]
        print("workload".ljust(14) + "".join(n.rjust(24) for n in names))
        for workload, res in rows:
            vals = [f"{m['value']:.5g}" for m in res["metrics"].values()] if res else []
            print(workload.ljust(14) + "".join(v.rjust(24) for v in vals or ["failed"]))
    print(json.dumps({w: r for w, r in rows}))
    return int(rc)


def _limits(text: str) -> dict[str, float]:
    limits = {}
    for item in text.split(","):
        name, _, value = item.partition("=")
        limits[name] = float(value)
    if set(limits) != set(WORKLOADS):
        raise argparse.ArgumentTypeError(f"need a limit for each of {WORKLOADS}")
    return limits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limits-ms", required=True, type=_limits,
                        help="per-op latency limits, e.g. gemm-warm=1000,...")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", type=int, default=None,
                        help="with --workload all: second seed to check against")
    args = parser.parse_args(argv)
    args.limits_text = ",".join(f"{k}={v:g}" for k, v in args.limits_ms.items())
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
