"""Per-layer host-time tracing, installed from outside the program.

The program under test is never edited: :func:`traced` wraps the public
entry points listed in :data:`LAYERS` (class methods and module functions
of ``repro``) for the duration of a ``with`` block and restores them on
exit.  Every wrapper records, per layer name:

* ``calls`` -- completed calls;
* ``s`` -- inclusive host seconds, counted only at the outermost active
  call of that layer on its thread, so recursion never counts twice;
* ``self_s`` -- inclusive seconds minus the time spent inside child
  wrappers.

Self times partition the traced time exactly: on every thread, the sum of
``self_s`` over all layers equals the summed duration of the outermost
(root) wrapped calls.  :func:`check` asserts that identity, which is
what guarantees nested wrappers never double-count.

Forked serve workers inherit the wrappers; :meth:`Tracer.reset_after_fork`
clears the inherited totals so each process reports only its own work.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

#: (layer name, "module:qualname") of every wrapped entry point.  The layer
#: names are the per-layer metric prefixes printed by the benchmark.
LAYERS = (
    ("gemm.autogemm.gemm", "repro.gemm.autogemm:AutoGEMM.gemm"),
    ("telemetry.attribution.attribute_gemm",
     "repro.telemetry.attribution:attribute_gemm"),
    ("gemm.executor.run", "repro.gemm.executor:GemmExecutor.run"),
    ("gemm.executor.plan_block", "repro.gemm.executor:GemmExecutor.plan_block"),
    ("machine.cache.consult_batch",
     "repro.machine.cache:CacheHierarchy.consult_batch"),
    ("machine.pipeline.replay_template",
     "repro.machine.pipeline:PipelineModel.replay_template"),
    ("machine.pipeline.time_trace",
     "repro.machine.pipeline:PipelineModel.time_trace"),
    ("codegen.microkernel.generate",
     "repro.codegen.microkernel:generate_microkernel"),
    ("machine.simulator.run", "repro.machine.simulator:Simulator.run"),
    ("gemm.kernel_cache.capture", "repro.gemm.kernel_cache:ReplayCache.capture"),
    ("machine.compiled.compile_template",
     "repro.machine.compiled:compile_template"),
    ("codegen.fusion.fuse_templates", "repro.codegen.fusion:fuse_templates"),
    ("tiling.dmt.tile", "repro.tiling.dmt:DynamicMicroTiler.tile"),
    ("gemm.estimator.estimate", "repro.gemm.estimator:GemmEstimator.estimate"),
    ("gemm.estimator.block_cycles",
     "repro.gemm.estimator:GemmEstimator.block_cycles"),
    ("dnn.runner.run", "repro.dnn.runner:NetworkRunner.run"),
    ("tuner.registry.get", "repro.tuner.registry:ScheduleRegistry.get"),
    ("tuner.families.lookup", "repro.tuner.families:FamilyIndex.lookup"),
    ("tuner.tuner.tune", "repro.tuner.tuner:AutoTuner.tune"),
)

LAYER_NAMES = tuple(name for name, _ in LAYERS)


class Tracer:
    """Thread-aware call/self/inclusive accumulator for wrapped layers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.totals: dict[str, list] = {}  # name -> [calls, incl_s, self_s]
        self.root_s = 0.0
        self.pid = os.getpid()
        self.dump_path: str | None = None

    def reset_after_fork(self) -> None:
        """Drop the totals (and the lock state) a forked child inherited."""
        self.__init__()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        self._stack().append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        t1 = time.perf_counter()
        stack = self._stack()
        name, t0, child = stack.pop()
        self.record(stack, name, t1 - t0, child)
        if not stack and self.dump_path is not None:
            self.dump(self.dump_path)

    def record(self, stack: list, name: str, dur: float, child: float) -> None:
        """Book one finished call of ``name`` that lasted ``dur`` seconds,
        ``child`` of them inside nested wrappers; ``stack`` holds the calls
        still open on this thread (the caller is ``stack[-1]``)."""
        outermost = all(frame[0] != name for frame in stack)
        with self._lock:
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            if outermost:
                entry[1] += dur
            entry[2] += dur - child
            if stack:
                stack[-1][2] += dur
            else:
                self.root_s += dur

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "pid": self.pid,
                "root_s": self.root_s,
                "layers": {k: list(v) for k, v in self.totals.items()},
            }

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


def self_sum(snapshot: dict) -> float:
    return sum(v[2] for v in snapshot["layers"].values())


def check(snapshot: dict, tol: float = 1e-6) -> None:
    """Raise if the self times of a snapshot do not partition its root time."""
    total = self_sum(snapshot)
    if abs(total - snapshot["root_s"]) > tol * max(1.0, snapshot["root_s"]):
        raise AssertionError(
            f"self times sum to {total!r}s but root calls took "
            f"{snapshot['root_s']!r}s (pid {snapshot['pid']})"
        )


def diff(after: dict, before: dict) -> dict:
    """The work a snapshot recorded since an earlier one of the same process."""
    layers = {}
    for name, (calls, incl, own) in after["layers"].items():
        c0, i0, s0 = before["layers"].get(name, (0, 0.0, 0.0))
        if calls - c0:
            layers[name] = [calls - c0, incl - i0, own - s0]
    return {"pid": after["pid"], "root_s": after["root_s"] - before["root_s"],
            "layers": layers}


def merge(snapshots: list[dict]) -> dict:
    """Sum snapshots of different processes (or phases) into one."""
    layers: dict[str, list] = {}
    for snap in snapshots:
        for name, vals in snap["layers"].items():
            acc = layers.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += vals[i]
    return {"pid": None, "root_s": sum(s["root_s"] for s in snapshots),
            "layers": layers}


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every :data:`LAYERS` entry point; returns the undo list.

    A module function is also replaced wherever another ``repro`` module
    imported it by name, so callers that bound it at import time are traced.
    """
    undo = []
    for name, target in LAYERS:
        owner, attr = _resolve(target)
        original = owner.__dict__[attr]
        wrapped = _wrap(tracer, name, original)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original))
        if isinstance(owner, type):
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not mod_name.startswith("repro"):
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                undo.append((mod, attr, original))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


@contextmanager
def traced(tracer: Tracer):
    """Wrap the layers for the duration of the block."""
    undo = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(undo)


@contextmanager
def call_log(owner, attr: str):
    """Record the host seconds of every call of ``owner.attr``.

    One clock pair per call, no stack: cheap enough for the untraced run,
    where it times the few coarse operations a workload reports latency
    for, and free on a path a workload must never take (the premise
    checks count its calls)."""
    on_class = isinstance(owner, type)
    original = owner.__dict__[attr] if on_class else getattr(owner, attr)
    durations: list[float] = []

    @functools.wraps(original)
    def logged(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - t0)

    setattr(owner, attr, logged)
    try:
        yield durations
    finally:
        if on_class:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)
