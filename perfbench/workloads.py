"""The three benchmark workloads.

Each workload is a function ``(ctx) -> Outcome``.  Every workload has one
*op*, the unit its latency, throughput and goodput count:

* ``gemm-warm`` -- one in-process ``AutoGEMM.gemm`` call (closed loop,
  one caller, whole seeded rounds over a 9-shape irregular pool);
* ``dnn-resnet50`` -- one GEMM-layer estimate that
  ``NetworkRunner(chip, "autoGEMM").run(resnet50())`` makes on a fresh
  engine (21 distinct layer shapes);
* ``serve-mix`` -- one ``gemm`` request to a 2-worker ``repro serve``
  daemon: a closed-loop capacity phase, then open-loop traffic at a fixed
  offered rate with latency counted from each request's due time.

End-to-end metrics, reported by every workload for its op:

* ``setup_s`` -- seconds to import the program and set the workload up
  (gemm-warm: a fresh engine and warm passes until one has no replay
  miss; dnn-resnet50: runner and network graph; serve-mix: registry tune,
  daemon start and warm-up to its end state).  gemm-warm and dnn-resnet50
  report the median of the run's own set-up and fresh-process probes
  (:mod:`perfbench.probe`); serve-mix imports once and reports the median
  of two set-ups, each with a fresh daemon;
* ``ops_per_s`` -- completed ops per host second: for gemm-warm the
  median over the rounds of the timed phase, for serve-mix the daemon's
  closed-loop capacity (the open-loop phase completes what it is offered);
* ``latency_p50_ms`` / ``latency_tail_ms`` -- op latency; the tail is the
  highest percentile with at least 10 samples beyond it (with 21 ops,
  dnn-resnet50's tail is its median);
* ``goodput_rps`` -- correct ops within the workload's latency limit per
  host second (gemm-warm: median over rounds; serve-mix: over the
  open-loop phase, so at most the offered rate);
* ``sim_gflops`` -- flops over simulated seconds of the workload's distinct
  shapes (for dnn-resnet50: GEMM flops over the simulated inference time,
  ``NetworkTiming.total``); identical for every seed;
* ``peak_rss_mb`` -- peak resident set of the benchmark process, or for
  serve-mix of the largest daemon process, read after the drain.

The shape pools are fixed, so simulated metrics are identical for every
seed; the seed draws the order of the ops, the operands, and for
serve-mix the arrival schedule.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import layers
from .stats import latency_summary

CHIP = "KP920"
ROOT = Path(__file__).resolve().parents[1]


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    limits_ms: dict[str, float]
    build_dir: Path
    import_s: float


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def premise(self, ok: bool, what: str) -> None:
        """A run that breaks its workload's premise reports no numbers."""
        if not ok:
            raise PremiseError(what)


class PremiseError(RuntimeError):
    """The run did not measure what its workload claims to measure."""


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------

#: Work cap for the in-process mix: every call of the pool stays well
#: under a second of host time on a 2-core x86 host.
MAX_MNK = 1 << 21
MAX_MN = 1024
#: Shapes per class.  Latencies cluster by shape, so with K equally
#: frequent shapes a percentile q sits on a cluster boundary, and jumps
#: between two clusters from run to run, whenever q*K is a whole number:
#: K = 9 keeps p50 and p75 inside a cluster.
PER_CLASS = 3


def _capped(generator, gen_seed: int, count: int) -> list[tuple[int, int, int]]:
    out: list[tuple[int, int, int]] = []
    for s in generator(64, gen_seed):
        shape = (s.m, s.n, s.k)
        if s.m * s.n * s.k <= MAX_MNK and max(s.m, s.n) <= MAX_MN and shape not in out:
            out.append(shape)
        if len(out) == count:
            return out
    raise RuntimeError(f"{generator.__name__} gave fewer than {count} capped shapes")


def gemm_pool() -> dict[str, list[tuple[int, int, int]]]:
    """The gemm-warm mix: the first capped draws of each irregularity class
    from ``repro.workloads.irregular`` (generator seeds fixed)."""
    from repro.workloads import irregular

    return {
        "tall-skinny": _capped(irregular.tall_skinny, 0, PER_CLASS),
        "long-rectangle": _capped(irregular.long_rectangle, 1, PER_CLASS),
        "small": _capped(irregular.small_matrices, 2, PER_CLASS),
    }


#: serve-mix: the cheapest (least M*N*K) gemm-warm shape of each class is
#: tuned into the registry, so requests stay short and the serve layer's
#: own costs are a large share of each; its neighbour with M scaled by this
#: factor is in the same family, so the daemon first serves it by family
#: projection.
SERVE_NEIGHBOUR_M = 1.25
#: Requests per schedule round: each registry shape twice, each neighbour
#: once (9, for the same reason as PER_CLASS).
SERVE_ROUND = 9
SERVE_TUNE_BUDGET = 1
SERVE_UPGRADE_BUDGET = 1
SERVE_WORKERS = 2
SERVE_OPERAND_SEEDS = 3


def _flat(pool: dict) -> list[tuple[str, tuple[int, int, int]]]:
    return [(cls, shape) for cls, shapes in pool.items() for shape in shapes]


def _class_shares(classes: list[str]) -> dict[str, float]:
    n = len(classes)
    return {c: round(classes.count(c) / n, 4) for c in sorted(set(classes))}


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _median(values: list[float]) -> float:
    return float(np.median(values))


#: Fresh-interpreter set-up probes per run (see ``perfbench/probe.py``);
#: ``setup_s`` is the median of these and the run's own set-up.
SETUP_PROBES = {"gemm-warm": 1, "dnn-resnet50": 2}


def fresh_setups(workload: str, seed: int) -> list[float]:
    """Import-plus-set-up seconds of ``workload`` in fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES[workload]):
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.probe", workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} set-up probe failed:\n{proc.stderr[-2000:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


# ---------------------------------------------------------------------------
# gemm-warm
# ---------------------------------------------------------------------------

MAX_WARM_PASSES = 4
#: At least this many rounds however short the run: 23 rounds are 207
#: calls, so the tail is p95 (the ladder's rung with 10 calls beyond it
#: from 200 calls) until a run completes 1000 calls (p99).  p95 lies inside
#: the slowest shape's cluster; p90, which 9 equally frequent shapes put
#: on a cluster boundary, is never used.
MIN_ROUNDS = 23


def _gemm_operands(pool_flat, rng, variants: int):
    from repro.gemm.reference import sgemm

    ops = {}
    for _, (m, n, k) in pool_flat:
        for v in range(variants):
            a = rng.uniform(-1, 1, (m, k)).astype(np.float32)
            b = rng.uniform(-1, 1, (k, n)).astype(np.float32)
            ops[(m, n, k), v] = (a, b, sgemm(a, b))
    return ops


def _check_gemm(out: Outcome, res, want, shape, cycles: dict) -> bool:
    ok = True
    if not np.array_equal(res.c, want):
        out.fail(f"{shape}: C differs from reference.sgemm")
        ok = False
    if res.degraded:
        out.fail(f"{shape}: degraded result {res.degradations}")
        ok = False
    expected = cycles.setdefault(shape, res.cycles)
    if res.cycles != expected:
        out.fail(f"{shape}: cycles {res.cycles} != {expected} of an earlier call")
        ok = False
    return ok


def _warm_engine(pool_flat, operands, out: Outcome, cycles: dict):
    """Build a fresh engine and run warm passes until one has no replay
    miss and no capture; returns the engine and the pass count."""
    from repro import telemetry
    from repro.gemm.autogemm import AutoGEMM

    lib = AutoGEMM(CHIP)
    for passes in range(1, MAX_WARM_PASSES + 1):
        with telemetry.collecting() as col:
            for _, shape in pool_flat:
                a, b, want = operands[shape, 0]
                out.attempted += 1
                _check_gemm(out, lib.gemm(a, b), want, shape, cycles)
        if col.counter("replay.misses") == 0 and col.counter("replay.captures") == 0:
            return lib, passes
    raise PremiseError(f"replay misses remain after {MAX_WARM_PASSES} warm passes")


def _gemm_inputs(seed: int):
    pool = gemm_pool()
    pool_flat = _flat(pool)
    rng = np.random.default_rng(seed)
    return pool, pool_flat, rng, _gemm_operands(pool_flat, rng, variants=2)


def gemm_setup(seed: int) -> float:
    """Seconds of one gemm-warm set-up, as a set-up probe runs it."""
    _, pool_flat, _, operands = _gemm_inputs(seed)
    out = Outcome()
    t0 = time.perf_counter()
    _warm_engine(pool_flat, operands, out, {})
    setup = time.perf_counter() - t0
    if out.failed:
        raise RuntimeError("; ".join(out.problems))
    return setup


def gemm_warm(ctx: Context) -> Outcome:
    from repro.machine.simulator import Simulator

    out = Outcome()
    pool, pool_flat, rng, operands = _gemm_inputs(ctx.seed)
    cycles: dict = {}
    instructions: dict = {}

    t0 = time.perf_counter()
    lib, passes = _warm_engine(pool_flat, operands, out, cycles)
    setups = [ctx.import_s + time.perf_counter() - t0]
    gc.collect()
    templates = lib._replay.memo_stats()["templates"]

    # A fresh seeded order every round, so no shape always follows the same
    # one; the traced re-run replays the same orders.
    orders: list[list[int]] = []

    def rounds(first: int = 0, count: int | None = None, seconds: float = 0.0,
               min_rounds: int = 0):
        """Closed loop over whole seeded rounds of the pool from round
        ``first``: ``count`` of them, or at least ``min_rounds`` and as many
        as start within ``seconds``; returns per-call (seconds, shape, ok,
        round) and the index after the last round."""
        calls = []
        t_start = time.perf_counter()
        r = first

        def done() -> bool:
            if count is not None:
                return r >= first + count
            return r - first >= min_rounds and time.perf_counter() - t_start >= seconds

        while not done():
            while len(orders) <= r:
                orders.append([int(i) for i in rng.permutation(len(pool_flat))])
            for i in orders[r]:
                _, shape = pool_flat[i]
                a, b, want = operands[shape, (r + 1) % 2]
                t = time.perf_counter()
                res = lib.gemm(a, b)
                dt = time.perf_counter() - t
                ok = _check_gemm(out, res, want, shape, cycles)
                instructions.setdefault(shape, res.instructions)
                calls.append((dt, shape, ok, r))
            r += 1
        return calls, r

    # The timed phase runs in two halves around the fresh-process set-up
    # probe, so its rounds sample the host over the whole run rather than
    # one stretch of it: the shared 2-core host's speed drifts by 10-30%
    # within a minute.
    half = dict(seconds=ctx.seconds / 2, min_rounds=-(-MIN_ROUNDS // 2))
    with layers.call_log(Simulator, "run") as interp:
        calls, n_rounds = rounds(**half)
        setups += fresh_setups("gemm-warm", ctx.seed)
        more, n_rounds = rounds(n_rounds, **half)
        calls += more
    out.attempted += len(calls)
    out.premise(not interp, f"timed phase interpreted {len(interp)} kernels")
    out.premise(
        lib._replay.memo_stats()["templates"] == templates,
        "timed phase captured new replay templates",
    )

    host_s = sum(dt for dt, *_ in calls)
    limit_s = ctx.limits_ms["gemm-warm"] / 1e3
    lat = latency_summary([dt for dt, *_ in calls])
    chip = lib.chip
    flops = sum(2 * m * n * k for _, (m, n, k) in pool_flat)
    sim_s = sum(cycles[s] for _, s in pool_flat) / (chip.freq_ghz * 1e9)
    instr = sum(instructions[s] for _, s, *_ in calls)
    class_of = {s: cls for cls, s in pool_flat}
    # Rates are medians over rounds, so a short stall of the host moves one
    # round, not the figure.
    per_round: dict[int, list] = {}
    for dt, _, ok, r in calls:
        per_round.setdefault(r, []).append((dt, ok and dt <= limit_s))
    round_s = {r: sum(dt for dt, _ in c) for r, c in per_round.items()}

    out.metrics = {
        "setup_s": (_median(setups), "s"),
        "ops_per_s": (_median([len(c) / round_s[r] for r, c in per_round.items()]), "1/s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "latency_tail_ms": (lat["tail_ms"], "ms"),
        "goodput_rps": (_median([sum(g for _, g in c) / round_s[r]
                                 for r, c in per_round.items()]), "1/s"),
        "sim_gflops": (flops / sim_s / 1e9, "GFLOP/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    out.provenance = {
        "op": "AutoGEMM.gemm call, closed loop, one caller",
        "shapes": {cls: [list(s) for s in shapes] for cls, shapes in pool.items()},
        "class_shares": _class_shares([class_of[s] for _, s, *_ in calls]),
        "size": len(pool_flat),
        "rounds": n_rounds,
        "setup_samples_s": setups,
        "warm_passes": passes,
        "latency": lat,
        "latency_limit_ms": ctx.limits_ms["gemm-warm"],
        "latency_median_by_shape_ms": {
            "x".join(map(str, shape)): _median([dt * 1e3 for dt, s, *_ in calls if s == shape])
            for _, shape in pool_flat
        },
        "sim_instr_per_host_s": instr / host_s,
        "sim_flops": flops,
    }

    if ctx.trace:
        _trace_gemm(ctx, out, lib, rounds, n_rounds, host_s, instr)
    return out


def _trace_gemm(ctx, out, lib, rounds, n_rounds, untraced_s, instr):
    from repro import telemetry

    tracer = layers.Tracer()
    gc_log = _GcLog()
    with telemetry.collecting() as col, layers.traced(tracer), gc_log:
        t0 = time.perf_counter()
        calls, _ = rounds(count=n_rounds)
        wall = time.perf_counter() - t0
    out.attempted += len(calls)
    counters = dict(col.counters)
    out.premise(counters.get("replay.misses", 0) == 0, "traced phase had replay misses")
    out.premise(counters.get("replay.captures", 0) == 0, "traced phase captured templates")
    traced_s = sum(dt for dt, *_ in calls)
    snap = tracer.snapshot()
    out.metrics = layer_metrics(snap, counters, traced_s, untraced_s)
    out.metrics.update(gc_log.metrics())
    out.metrics["machine.sim_instr_per_host_s"] = (instr / untraced_s, "1/s")
    out.provenance["traced_wall_s"] = wall


# ---------------------------------------------------------------------------
# dnn-resnet50
# ---------------------------------------------------------------------------

SPOT_CHECKS = 4


def _network_setup():
    from repro.dnn.models import resnet50
    from repro.dnn.runner import NetworkRunner
    from repro.machine.chips import get_chip

    return NetworkRunner(get_chip(CHIP), "autoGEMM"), resnet50()


def dnn_setup(seed: int) -> float:
    """Seconds of one dnn-resnet50 set-up, as a set-up probe runs it."""
    t0 = time.perf_counter()
    _network_setup()
    return time.perf_counter() - t0


#: The set-ups a fresh-process probe can time, by workload.
SETUPS = {"gemm-warm": gemm_setup, "dnn-resnet50": dnn_setup}


def _network_once(runner, net, out: Outcome):
    """One whole-network run; returns (timing, wall_s, estimate durations)."""
    from repro.gemm.executor import GemmExecutor

    with layers.call_log(runner.library, "estimate") as est, \
            layers.call_log(runner._fallback, "estimate") as fallback, \
            layers.call_log(GemmExecutor, "run") as executed:
        t0 = time.perf_counter()
        timing = runner.run(net)
        wall = time.perf_counter() - t0
    out.premise(not executed, f"network run executed {len(executed)} GEMMs")
    out.premise(not fallback, f"{len(fallback)} layers fell back to another library")
    return timing, wall, list(est)


def _check_network(net, timing, runner, rng, out: Outcome) -> None:
    gemm_ops = net.gemm_ops
    timed = [o for o in timing.ops if o.kind == "gemm"]
    out.attempted += len(timed)
    if len(timed) != len(gemm_ops) or len(timing.ops) != len(net.ops):
        out.fail(f"timed {len(timing.ops)} ops of {len(net.ops)}")
    for o in timing.ops:
        if not (np.isfinite(o.seconds) and o.seconds > 0):
            out.fail(f"{o.name}: simulated seconds {o.seconds}")
    # Seeded spot check: re-estimating a layer on the warm engine must give
    # the identical simulated time the network run recorded.
    picks = rng.choice(len(gemm_ops), size=SPOT_CHECKS, replace=False)
    for i in sorted(int(p) for p in picks):
        s = gemm_ops[i].shape
        again = runner.library.estimate(s.m, s.n, s.k).seconds
        if again != timed[i].seconds:
            out.fail(f"{s.name}: re-estimate {again} != network {timed[i].seconds}")


def dnn_resnet50(ctx: Context) -> Outcome:
    from repro.tuner.families import classify_shape

    out = Outcome()
    rng = np.random.default_rng(ctx.seed)
    setups = fresh_setups("dnn-resnet50", ctx.seed)
    t0 = time.perf_counter()
    runner, net = _network_setup()
    setups.append(ctx.import_s + time.perf_counter() - t0)

    timing, wall, est = _network_once(runner, net, out)
    _check_network(net, timing, runner, rng, out)
    limit_s = ctx.limits_ms["dnn-resnet50"] / 1e3
    lat = latency_summary(est)
    flops = net.gemm_flops
    out.metrics = {
        "setup_s": (_median(setups), "s"),
        "ops_per_s": (len(est) / wall, "1/s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "latency_tail_ms": (lat["tail_ms"], "ms"),
        "goodput_rps": (sum(1 for d in est if d <= limit_s) / wall, "1/s"),
        "sim_gflops": (flops / timing.total / 1e9, "GFLOP/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    out.provenance = {
        "op": "GEMM-layer estimate of NetworkRunner(chip, 'autoGEMM').run(resnet50()), "
              "fresh engine",
        "network_s": wall,
        "sim_network_ms": timing.total * 1e3,
        "sim_gemm_ms": timing.t_gemm * 1e3,
        "size": len(net.gemm_ops),
        "shapes": [[o.shape.m, o.shape.n, o.shape.k] for o in net.gemm_ops],
        "class_shares": _class_shares([classify_shape(o.shape.m, o.shape.n, o.shape.k)
                                       for o in net.gemm_ops]),
        "distinct_shapes": len(est),
        "setup_samples_s": setups,
        "latency": lat,
        "latency_limit_ms": ctx.limits_ms["dnn-resnet50"],
    }
    if ctx.trace:
        from repro import telemetry

        runner, net = _network_setup()
        tracer = layers.Tracer()
        gc_log = _GcLog()
        with telemetry.collecting() as col, layers.traced(tracer), gc_log:
            t_timing, t_wall, _ = _network_once(runner, net, out)
        if t_timing.total != timing.total:
            out.fail("traced network run gave a different simulated time")
        snap = tracer.snapshot()
        out.metrics = layer_metrics(snap, dict(col.counters), t_wall, wall)
        out.metrics.update(gc_log.metrics())
        out.metrics["dnn.network_s"] = (wall, "s")
        out.metrics["dnn.sim_network_ms"] = (timing.total * 1e3, "ms")
    return out


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------

SETUP_REPEATS_SERVE = 2
#: Closed-loop capacity phase: requests kept in flight (two per worker, so
#: no worker idles while its next request travels) and whole rounds sent.
CAPACITY_DEPTH = 2 * SERVE_WORKERS
CAPACITY_ROUNDS = 20
#: Offered requests per second of the open-loop phase.  The closed-loop
#: capacity of the daemon on one 2-core x86 host was 68 to 94 requests/s in
#: its fast hours and 30 to 61 (median 37, 20 runs) in its slow ones, when
#: the host ran every workload about 2x slower.  15 requests/s is at most
#: half of that capacity, so latency stays mostly service time (traced: mean
#: queue 0.0, mean in flight 1.1) and a slow host cannot push the daemon
#: into overload.  Each run records its own capacity and offered load.
SERVE_RATE = 15.0
SERVE_QUEUE_DEPTH = 16
SERVE_DEADLINE_MS = 30_000
MAX_WARM_ROUNDS = 10


class _Daemon:
    """A ``repro serve`` daemon started through ``perfbench/daemon.py``."""

    def __init__(self, rundir: Path, registry: Path, trace_dir: Path | None):
        self.sock_path = rundir / "serve.sock"
        if self.sock_path.exists():
            self.sock_path.unlink()
        launcher = Path(__file__).resolve().parent / "daemon.py"
        cmd = [
            sys.executable, str(launcher),
            "--socket", str(self.sock_path), "--registry", str(registry),
        ]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        self.log = open(rundir / "daemon.log", "ab")
        self.proc = subprocess.Popen(cmd, stdout=self.log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited at start (rc={self.proc.returncode})")
            if self.sock_path.exists():
                try:
                    self.client().close()
                    return
                except OSError:
                    pass
            time.sleep(0.02)
        self.stop()
        raise RuntimeError("daemon did not listen within 60s")

    def client(self, timeout: float = 60.0):
        from repro.serve import ServeClient

        path = str(self.sock_path)
        if len(path) > 100:  # AF_UNIX path limit
            path = os.path.relpath(path)
        return ServeClient(socket_path=path, timeout=timeout)

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rc = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rc = self.proc.wait(timeout=30)
        self.log.close()
        return rc


def _serve_pool():
    """``[(class, registry shape), (class, its neighbour), ...]``."""
    from repro.tuner.families import DEFAULT_MAX_DISTANCE, classify_shape, log_distance

    pool = []
    for cls, shapes in gemm_pool().items():
        shape = min(shapes, key=lambda s: s[0] * s[1] * s[2])
        m, n, k = shape
        near = (round(m * SERVE_NEIGHBOUR_M), n, k)
        if classify_shape(*near) != classify_shape(*shape) or log_distance(
            near + (1,), shape + (1,)
        ) > DEFAULT_MAX_DISTANCE:
            raise RuntimeError(f"{near} is not in the family of {shape}")
        pool += [(cls, shape), (cls, near)]
    return pool


def _registry_shapes(pool) -> list[tuple[int, int, int]]:
    return [shape for _, shape in pool[::2]]


def _tune_registry(path: Path, pool) -> None:
    from repro.gemm.autogemm import AutoGEMM

    lib = AutoGEMM(CHIP, registry=str(path), family_serve=False)
    for m, n, k in _registry_shapes(pool):
        lib.tune_result(m, n, k, budget=SERVE_TUNE_BUDGET, seed=0)


def _serve_refs(pool):
    from repro.gemm.reference import sgemm
    from repro.serve import protocol

    refs = {}
    for _, (m, n, k) in pool:
        for s in range(SERVE_OPERAND_SEEDS):
            refs[(m, n, k), s] = sgemm(*protocol.operands_from_seed(m, n, k, s))
    return refs


def _check_response(resp, shape, oseed, refs, cycles, out: Outcome) -> bool:
    from repro.serve import protocol

    if not resp.get("ok"):
        out.fail(f"{shape}: error response {resp.get('error')}")
        return False
    res = resp["result"]
    m, n, _ = shape
    c = protocol.array_from_b64(res["c_b64"], m, n, "c_b64")
    ok = True
    if not np.array_equal(c, refs[shape, oseed]):
        out.fail(f"{shape}: C differs from reference.sgemm")
        ok = False
    if res.get("degraded"):
        out.fail(f"{shape}: degraded result")
        ok = False
    key = (shape, res.get("schedule_source"))
    expected = cycles.setdefault(key, res["cycles"])
    if res["cycles"] != expected:
        out.fail(f"{shape}: cycles {res['cycles']} != {expected} of an earlier response")
        ok = False
    return ok


def _upgrades_drained(stats: dict) -> bool:
    c = stats.get("counters", {})
    done = c.get("family.upgrades_completed", 0) + c.get("family.upgrade_failed", 0)
    return c.get("family.upgrades_enqueued", 0) == done


def _serve_round(cli, pool, r, refs, cycles, out: Outcome, seen: set, sources: dict):
    """Each pool shape twice, pipelined: the idle-worker queue is FIFO, so
    the two requests land on different workers."""
    for _, shape in pool:
        m, n, k = shape
        oseeds = [(r + j) % SERVE_OPERAND_SEEDS for j in range(2)]
        rids = [cli.send({"op": "gemm", "m": m, "n": n, "k": k, "seed": s})
                for s in oseeds]
        for rid, oseed in zip(rids, oseeds):
            resp = cli.recv_for(rid)
            out.attempted += 1
            if _check_response(resp, shape, oseed, refs, cycles, out):
                res = resp["result"]
                src = res["schedule_source"]
                sources[src] = sources.get(src, 0) + 1
                seen.add((res["worker_pid"], shape, src))


def _warm_daemon(daemon: _Daemon, pool, refs, cycles, out: Outcome) -> dict:
    """Serve the pool until the warm-up end state: the family upgrades the
    neighbours triggered have drained, and afterwards every (worker pid,
    shape) pair has been served from the registry."""
    sources: dict[str, int] = {}
    with daemon.client() as cli:
        _serve_round(cli, pool, 0, refs, cycles, out, set(), sources)
        deadline = time.monotonic() + 120
        while not _upgrades_drained(cli.stats()):
            if time.monotonic() > deadline:
                raise PremiseError("family upgrades did not drain within 120s")
            time.sleep(0.05)
        seen: set = set()
        for r in range(1, MAX_WARM_ROUNDS):
            _serve_round(cli, pool, r, refs, cycles, out, seen, sources)
            out.premise(not out.failed, f"warm-up responses failed: {out.problems[:3]}")
            stats = cli.stats()
            want = {(pid, s, "registry") for pid in stats["workers"] for _, s in pool}
            if want <= seen:
                out.premise(_upgrades_drained(stats), "family upgrades resumed after drain")
                return {"warm_rounds": r + 1, "warm_sources": sources,
                        "upgrades": stats["counters"].get("family.upgrades_completed", 0)}
    raise PremiseError(f"serve warm-up end state not reached in {MAX_WARM_ROUNDS} rounds")


def _requests(rng, pool, rounds: int):
    """Whole seeded rounds of SERVE_ROUND requests, so every seed has the
    same mix: ``[((class, shape), operand seed), ...]``."""
    weighted = [e for i, e in enumerate(pool) for _ in range(2 if i % 2 == 0 else 1)]
    shapes = []
    for _ in range(rounds):
        shapes += [weighted[i] for i in rng.permutation(len(weighted))]
    oseeds = rng.integers(0, SERVE_OPERAND_SEEDS, len(shapes))
    return [(shape, int(o)) for shape, o in zip(shapes, oseeds)]


def _schedule(rng, pool, seconds: float):
    """Seeded open-loop schedule at SERVE_RATE: request ``i`` is due at a
    uniform random instant of its own 1/SERVE_RATE slot, so every seed
    offers the same load with random spacing but no Poisson-sized bursts
    (which would make the median wait depend on the seed)."""
    reqs = _requests(rng, pool, max(3, int(SERVE_RATE * seconds // SERVE_ROUND)))
    due = (np.arange(len(reqs)) + rng.uniform(0.0, 1.0, len(reqs))) / SERVE_RATE
    return [(float(t), shape, oseed) for t, (shape, oseed) in zip(due, reqs)]


def _capacity(daemon: _Daemon, reqs, refs, cycles, out: Outcome) -> tuple[float, float]:
    """Closed loop: keep CAPACITY_DEPTH requests in flight over ``reqs``.
    Returns (completed requests per second, wall seconds); the rate is the
    median over windows of SERVE_ROUND consecutive completions, so a short
    stall of the host moves one window, not the figure."""
    it = iter(enumerate(reqs))
    pending: dict[str, tuple] = {}
    done: list[tuple[dict, tuple]] = []
    finished = []
    with daemon.client() as cli:
        def send_next() -> None:
            nxt = next(it, None)
            if nxt is not None:
                i, ((_, (m, n, k)), oseed) = nxt
                rid = cli.send({"op": "gemm", "id": f"k{i}", "m": m, "n": n, "k": k,
                                "seed": oseed, "deadline_ms": SERVE_DEADLINE_MS})
                pending[rid] = reqs[i]

        t0 = time.perf_counter()
        for _ in range(CAPACITY_DEPTH):
            send_next()
        while pending:
            resp = cli.recv()
            finished.append(time.perf_counter())
            done.append((resp, pending.pop(resp["id"])))
            send_next()
    for resp, ((_, shape), oseed) in done:
        out.attempted += 1
        _check_response(resp, shape, oseed, refs, cycles, out)
    edges = [t0] + finished[SERVE_ROUND - 1::SERVE_ROUND]
    rates = [SERVE_ROUND / (b - a) for a, b in zip(edges, edges[1:])]
    return _median(rates), finished[-1] - t0


def _drive(daemon: _Daemon, schedule, sample: bool):
    """Open loop over one connection: the main thread sends at due times,
    one receiver thread reads responses.  With ``sample`` the main thread
    also polls ``stats`` and ``ping`` on a second connection between sends."""
    recv_at: dict[str, tuple[float, dict]] = {}
    sent_at: dict[str, float] = {}
    samples = {"ping_ms": [], "queued": [], "inflight": []}
    with daemon.client() as cli, daemon.client() as probe:
        def receive():
            try:
                for _ in range(len(schedule)):
                    resp = cli.recv()
                    recv_at[resp["id"]] = (time.perf_counter(), resp)
            except (TimeoutError, ConnectionError):
                pass  # the missing responses fail below

        rx = threading.Thread(target=receive, daemon=True)
        rx.start()
        t0 = time.perf_counter()
        next_probe = t0
        for i, (due, shape, oseed) in enumerate(schedule):
            while True:
                now = time.perf_counter()
                if sample and now >= next_probe and t0 + due - now > 0.02:
                    p0 = time.perf_counter()
                    probe.request({"op": "ping"})
                    samples["ping_ms"].append((time.perf_counter() - p0) * 1e3)
                    st = probe.stats()
                    samples["queued"].append(st["queued"])
                    samples["inflight"].append(st["inflight"])
                    next_probe += 0.5
                    continue
                if now >= t0 + due:
                    break
                time.sleep(min(t0 + due - now, 0.005))
            m, n, k = shape[1]
            rid = f"r{i}"
            sent_at[rid] = time.perf_counter() - t0
            cli.send({"op": "gemm", "id": rid, "m": m, "n": n, "k": k,
                      "seed": oseed, "deadline_ms": SERVE_DEADLINE_MS})
        rx.join(timeout=SERVE_DEADLINE_MS / 1e3 + 90)
        wall = max((t for t, _ in recv_at.values()), default=time.perf_counter()) - t0
    rows = []
    missing = {"ok": False, "error": {"code": "no response", "message": ""}}
    for i, (due, shape, oseed) in enumerate(schedule):
        t_recv, resp = recv_at.get(f"r{i}", (t0 + wall, missing))
        rows.append({"due": due, "late": sent_at[f"r{i}"] - due,
                     "latency": t_recv - t0 - due, "shape": shape,
                     "oseed": oseed, "resp": resp})
    return rows, wall, samples


def _serve_setup(rundir: Path, pool, refs, cycles, out: Outcome, trace_dir=None):
    registry = rundir / "registry.jsonl"
    for stale in (registry, Path(f"{registry}.lock")):
        if stale.exists():
            stale.unlink()
    _tune_registry(registry, pool)
    daemon = _Daemon(rundir, registry, trace_dir)
    try:
        warm = _warm_daemon(daemon, pool, refs, cycles, out)
    except BaseException:
        daemon.stop()
        raise
    return daemon, warm


def serve_mix(ctx: Context) -> Outcome:
    rundir = ctx.build_dir / f"serve-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        return _serve_mix(ctx, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _serve_mix(ctx: Context, rundir: Path) -> Outcome:
    out = Outcome()
    pool = _serve_pool()
    refs = _serve_refs(pool)
    cycles: dict = {}
    rng = np.random.default_rng(ctx.seed)
    schedule = _schedule(rng, pool, ctx.seconds)

    setups = []
    for rep in range(SETUP_REPEATS_SERVE):
        t0 = time.perf_counter()
        daemon, warm = _serve_setup(rundir, pool, refs, cycles, out)
        setups.append(time.perf_counter() - t0)
        if rep < SETUP_REPEATS_SERVE - 1:
            rc = daemon.stop()
            out.premise(rc == 0, f"daemon exited {rc} after drain")
    try:
        capacity, capacity_s = _capacity(daemon, _requests(rng, pool, CAPACITY_ROUNDS),
                                         refs, cycles, out)
        rows, wall, samples = _drive(daemon, schedule, sample=ctx.trace)
        with daemon.client() as cli:
            stats = cli.stats()
    finally:
        rc = daemon.stop()
    if rc != 0:
        out.fail(f"daemon exited {rc} after drain")

    good = 0
    limit_s = ctx.limits_ms["serve-mix"] / 1e3
    sources: dict[str, int] = {}
    for row in rows:
        out.attempted += 1
        ok = _check_response(row["resp"], row["shape"][1], row["oseed"], refs, cycles, out)
        if ok:
            src = row["resp"]["result"]["schedule_source"]
            sources[src] = sources.get(src, 0) + 1
            good += row["latency"] <= limit_s
    if out.failed:
        return out
    lat = latency_summary([row["latency"] for row in rows])
    served = {row["shape"][1]: row["resp"]["result"] for row in rows}
    flops = sum(2 * m * n * k for _, (m, n, k) in pool)
    from repro.machine.chips import get_chip

    sim_s = sum(served[s]["cycles"] for _, s in pool) / (get_chip(CHIP).freq_ghz * 1e9)
    out.metrics = {
        "setup_s": (ctx.import_s + _median(setups), "s"),
        "ops_per_s": (capacity, "1/s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "latency_tail_ms": (lat["tail_ms"], "ms"),
        "goodput_rps": (good / wall, "1/s"),
        "sim_gflops": (flops / sim_s / 1e9, "GFLOP/s"),
        "peak_rss_mb": (_peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
    }
    counters = stats.get("counters", {})
    out.provenance = {
        "op": "gemm request to a 2-worker repro serve daemon",
        "ops_per_s": f"closed-loop capacity, {CAPACITY_DEPTH} in flight, "
                     f"{CAPACITY_ROUNDS * SERVE_ROUND} requests",
        "capacity_rps": capacity,
        "capacity_s": capacity_s,
        "offered_rate_rps": SERVE_RATE,
        "offered_load": SERVE_RATE / capacity,
        "completed_rps": len(rows) / wall,
        "shed": counters.get("serve.rejected", 0),
        "worker_respawns": counters.get("serve.worker_respawns", 0),
        "size": len(schedule),
        "shapes": [[cls, list(s)] for cls, s in pool],
        "registry_shapes": [list(s) for s in _registry_shapes(pool)],
        "class_shares": _class_shares([row["shape"][0] for row in rows]),
        "setup_samples_s": setups,
        "latency": lat,
        "latency_limit_ms": ctx.limits_ms["serve-mix"],
        "late_max_ms": max(row["late"] for row in rows) * 1e3,
        "latency_by_shape_ms": {
            "x".join(map(str, s)): sorted(round(r["latency"] * 1e3, 1)
                                          for r in rows if r["shape"][1] == s)
            for _, s in pool
        },
        "timed_sources": sources,
        **warm,
    }
    if ctx.trace:
        _trace_serve(out, rundir, pool, refs, cycles, schedule, rows, samples,
                     counters, sources)
    return out


def _trace_serve(out, rundir, pool, refs, cycles, schedule, rows, samples,
                 counters, sources):
    """Re-run the timed schedule against a second daemon whose processes
    carry the layer wrappers; the layers it reports cover that phase only."""
    trace_dir = rundir / "trace"
    trace_dir.mkdir()
    daemon, _ = _serve_setup(rundir, pool, refs, cycles, out, trace_dir)
    try:
        with daemon.client() as cli:
            c0 = cli.stats()["all_counters"]
        before = _read_dumps(trace_dir)
        t_rows, _, _ = _drive(daemon, schedule, sample=False)
        with daemon.client() as cli:
            c1 = cli.stats()["all_counters"]
    finally:
        rc = daemon.stop()
    out.premise(rc == 0, f"traced daemon exited {rc}")
    after = _read_dumps(trace_dir)
    for row in t_rows:
        out.attempted += 1
        _check_response(row["resp"], row["shape"][1], row["oseed"], refs, cycles, out)
    per_proc = []
    for pid, snap in after.items():
        layers.check(snap)
        per_proc.append(layers.diff(snap, before.get(pid, {"layers": {}, "root_s": 0.0})))
    snap = layers.merge(per_proc)
    timed_counters = {k: v - c0.get(k, 0.0) for k, v in c1.items()}
    out.premise(timed_counters.get("replay.misses", 0) == 0, "traced phase had replay misses")
    traced_s = sum(r["latency"] for r in t_rows)
    untraced_s = sum(r["latency"] for r in rows)
    out.metrics = layer_metrics(snap, timed_counters, traced_s, untraced_s)
    out.metrics.update({
        "serve.ping_ms": (_median(samples["ping_ms"]), "ms"),
        "serve.queued_mean": (float(np.mean(samples["queued"])), "count"),
        "serve.inflight_mean": (float(np.mean(samples["inflight"])), "count"),
        "serve.late_ms": (max(r["late"] for r in rows) * 1e3, "ms"),
    })
    for src in ("registry", "family", "heuristic"):
        out.metrics[f"serve.source.{src}_share"] = (sources.get(src, 0) / len(rows), "ratio")
    out.provenance["trace_processes"] = len(per_proc)


def _read_dumps(trace_dir: Path) -> dict:
    snaps = {}
    for f in sorted(trace_dir.glob("*.json")):
        snap = json.loads(f.read_text())
        snaps[snap["pid"]] = snap
    return snaps


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: End-to-end metrics every untraced run reports, with their units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "goodput_rps": "1/s",
    "sim_gflops": "GFLOP/s",
    "peak_rss_mb": "MB",
}

_RATIOS = (
    ("gemm.kernel_cache.hit_ratio", "kernel_cache.hits", "kernel_cache.misses"),
    ("gemm.kernel_cache.replay_hit_ratio", "replay.hits", "replay.misses"),
    ("gemm.kernel_cache.timed_hit_ratio", "timed_cache.hits", "timed_cache.misses"),
    ("gemm.executor.plan_cache_hit_ratio", "plan_cache.hits", "plan_cache.misses"),
    ("tuner.registry.hit_ratio", "registry.hits", "registry.misses"),
)

#: Per-layer metrics every traced run reports, with their units; a layer a
#: workload never enters reads 0.
PER_LAYER = {
    f"{name}.{suffix}": unit
    for name in layers.LAYER_NAMES
    for suffix, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))
}
for _name, _, _ in _RATIOS:
    PER_LAYER[_name] = "ratio"
    PER_LAYER[f"{_name}.base"] = "count"
PER_LAYER.update({
    "machine.native.consult_share": "ratio",
    "machine.native.consult_share.base": "count",
    "machine.native.sched_share": "ratio",
    "machine.native.sched_share.base": "count",
    "machine.native.built": "bool",
    "machine.sim_instr_per_host_s": "1/s",
    "dnn.network_s": "s",
    "dnn.sim_network_ms": "ms",
    "serve.ping_ms": "ms",
    "serve.queued_mean": "count",
    "serve.inflight_mean": "count",
    "serve.late_ms": "ms",
    "serve.source.registry_share": "ratio",
    "serve.source.family_share": "ratio",
    "serve.source.heuristic_share": "ratio",
    "python.gc_s": "s",
    "python.gc_gen2": "count",
    "unattributed_s": "s",
    "trace_overhead": "ratio",
})


class _GcLog:
    """Collections and pause time of the interpreter's cyclic GC."""

    def __init__(self) -> None:
        self.gen2 = 0
        self.seconds = 0.0
        self._t0 = 0.0

    def _cb(self, phase, info) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0
            self.gen2 += info["generation"] == 2

    def __enter__(self):
        gc.callbacks.append(self._cb)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._cb)

    def metrics(self) -> dict:
        return {"python.gc_s": (self.seconds, "s"),
                "python.gc_gen2": (float(self.gen2), "count")}


def layer_metrics(snap: dict, counters: dict, traced_s: float, untraced_s: float) -> dict:
    """Per-layer calls / inclusive / self seconds plus the counter ratios.

    ``traced_s`` is the traced wall the layers should account for:
    ``unattributed_s`` is what the self times leave of it."""
    from repro.machine.native import native_status

    layers.check(snap)
    if traced_s < layers.self_sum(snap) * (1 - 1e-9):
        raise AssertionError(
            f"layer self times {layers.self_sum(snap)}s exceed the traced wall {traced_s}s"
        )
    metrics: dict[str, tuple[float, str]] = {}
    for name in layers.LAYER_NAMES:
        calls, incl, own = snap["layers"].get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (float(calls), "count")
        metrics[f"{name}.s"] = (incl, "s")
        metrics[f"{name}.self_s"] = (own, "s")

    def ratio(name: str, part: float, base: float) -> None:
        metrics[name] = (part / base if base else 0.0, "ratio")
        metrics[f"{name}.base"] = (float(base), "count")

    for name, hits, misses in _RATIOS:
        h = counters.get(hits, 0.0)
        ratio(name, h, h + counters.get(misses, 0.0))
    ratio("machine.native.consult_share", counters.get("replay.consult_native", 0.0),
          metrics["machine.cache.consult_batch.calls"][0])
    ratio("machine.native.sched_share", counters.get("replay.sched_native", 0.0),
          counters.get("replay.compiled_hits", 0.0))
    metrics.update({
        "machine.native.built": (float(native_status().startswith("built")), "bool"),
        "unattributed_s": (traced_s - layers.self_sum(snap), "s"),
        "trace_overhead": (traced_s / untraced_s - 1.0, "ratio"),
    })
    return metrics
