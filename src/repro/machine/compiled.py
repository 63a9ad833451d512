"""Trace-template compilation: replay a captured kernel trace as arrays.

A :class:`~repro.machine.simulator.TraceTemplate` holds its memory ops and
scheduling stream as per-instruction Python tuples.  Replaying one is a pure
function of data that never changes after capture, so this module does the
analysis once -- ``compile_template`` lowers a template into a
:class:`CompiledTemplate`, a structure-of-arrays artifact:

* **memory ops** as parallel integer arrays (``mem_kind`` / ``mem_op`` /
  ``mem_delta`` / ``mem_plevel``): one fancy-index add rebases every op's
  address for a new tile, and the whole stream goes to
  :meth:`~repro.machine.cache.CacheHierarchy.consult_batch` in a single
  call instead of one ``access()`` per op;
* **load positions** as a boolean mask, so the scheduler's level signature
  is a vectorized gather + ``tobytes`` rather than a bytearray fill;
* **scheduler tables** (built lazily, only on a signature-memo miss): dense
  per-instruction unit ids and load/store/prefetch positions, letting
  :meth:`PipelineModel._schedule_compiled` gather every instruction's
  latency with fancy indexing, plus the CSR dataflow tables the native
  scoreboard kernel reads.

The exactness contract: a compiled replay consults the cache hierarchy at
the identical address sequence in identical program order an interpreted
run would, and the scheduler evaluates :meth:`PipelineModel.time_trace`'s
float expressions in identical order -- cycle counts and cache state are
bit-equal to interpretation (pinned by ``tests/test_gemm_compiled.py``).
What cannot be vectorized exactly is the scoreboard recurrence itself
(each instruction's issue time depends on earlier finish times through
max-chains); it runs in the native kernel or one flat-array Python loop,
with everything order-invariant -- address arithmetic, latency selection,
level counting -- hoisted into array ops.

Compilation is deterministic and chip-independent (cache-line ids are
derived at consult time from the target hierarchy's line size), so one
artifact serves every chip and launch configuration; it is cached on the
template (``template.compiled``) and dropped by
``TraceTemplate.invalidate_compiled``.  The ``template.compile`` fault
site covers the lowering step: :func:`ensure_compiled` latches an injected
fault and the caller times the template by interpretation instead -- the
first rung of the compiled -> interpret -> reference degradation chain.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

from .. import telemetry
from ..faults import plan as _faults

__all__ = ["CompiledTemplate", "compile_template", "ensure_compiled"]

#: Mirror of the template mem-op kind encoding (simulator.KIND_*); imported
#: numerically to keep this module free of circular imports.
_KIND_LOAD, _KIND_STORE, _KIND_PREFETCH = 1, 2, 3


class CompiledTemplate:
    """Structure-of-arrays form of one trace template's replay analysis."""

    __slots__ = (
        "mem_kind",
        "mem_op",
        "mem_delta",
        "mem_plevel",
        "load_mask",
        "n_ops",
        "n_loads",
        "_sched_tables",
        "_flow_tables",
    )

    def __init__(
        self,
        mem_kind: np.ndarray,
        mem_op: np.ndarray,
        mem_delta: np.ndarray,
        mem_plevel: np.ndarray,
    ) -> None:
        self.mem_kind = mem_kind
        self.mem_op = mem_op
        self.mem_delta = mem_delta
        self.mem_plevel = mem_plevel
        self.load_mask = mem_kind == _KIND_LOAD
        self.n_ops = int(mem_kind.size)
        self.n_loads = int(np.count_nonzero(self.load_mask))
        self._sched_tables = None
        self._flow_tables = None

    # ------------------------------------------------------------------
    def consult(self, bases: tuple[int, ...], caches) -> bytes:
        """Run every memory op through ``caches`` in program order.

        Rebases the op stream (``bases[operand] + delta``) with one fancy
        index + add, hands the whole stream to the hierarchy's batched
        consult, and returns the per-load service-level signature --
        byte-identical to the interpreted walk's ``bytearray``.
        """
        bases_arr = np.asarray(bases, dtype=np.int64)
        addrs = bases_arr[self.mem_op]
        addrs += self.mem_delta
        levels = caches.consult_batch(addrs, self.mem_kind, self.mem_plevel)
        return levels[self.load_mask].tobytes()

    # ------------------------------------------------------------------
    def sched_tables(self, template):
        """Dense scheduler-side arrays, built on first signature miss.

        Returns ``(unit_arr, load_pos, store_pos, prefetch_pos)``: the
        per-instruction unit-id vector and the instruction indices of each
        memory kind, which is everything latency selection needs to happen
        as array gathers instead of per-instruction branches.
        """
        tables = self._sched_tables
        if tables is None:
            # Gather through the flow tables instead of iterating the sched
            # list: the per-instruction pass there is O(distinct periods)
            # for fused templates, and the unit/kind vectors fall out as two
            # fancy-index gathers over the (small) per-flow tables.
            flow_ids, flow_unit, flow_kind = self.flow_tables(template)[:3]
            unit_arr = flow_unit[flow_ids]
            kind_arr = flow_kind[flow_ids]
            tables = (
                unit_arr,
                np.flatnonzero(kind_arr == _KIND_LOAD),
                np.flatnonzero(kind_arr == _KIND_STORE),
                np.flatnonzero(kind_arr == _KIND_PREFETCH),
            )
            self._sched_tables = tables
        return tables

    # ------------------------------------------------------------------
    def flow_tables(self, template):
        """Dataflow arrays for the native scoreboard kernel, built lazily.

        Returns ``(flow_ids, flow_unit, flow_kind, r_off, r_idx, w_off,
        w_idx)``: a per-instruction index into the template's distinct
        *flows* (unique ``(unit, reads, writes, kind)`` tuples -- generated
        kernels re-execute a few hundred distinct instructions millions of
        times) plus the per-flow unit id, memory-op kind, and CSR-layout
        read/write register lists.

        A fused template's scheduling stream is assembled from repeated
        period segments whose tuple sequences are *identical objects* for
        equal period keys (tile bodies are shared lists and boundary merges
        re-append the source tuples), so the per-instruction pass runs once
        per distinct period and the full vector is a concatenation --
        O(distinct periods), not O(instructions).
        """
        tables = self._flow_tables
        if tables is None:
            sched = template.sched
            flow_of: dict[int, int] = {}
            flow_unit: list[int] = []
            flow_kind: list[int] = []
            flow_reads: list[tuple] = []
            flow_writes: list[tuple] = []

            def seg_ids(seg) -> np.ndarray:
                out = np.empty(len(seg), np.int32)
                for pos, entry in enumerate(seg):
                    fid = flow_of.get(id(entry))
                    if fid is None:
                        fid = len(flow_unit)
                        flow_of[id(entry)] = fid
                        flow_unit.append(entry[0])
                        flow_kind.append(entry[3])
                        flow_reads.append(entry[1])
                        flow_writes.append(entry[2])
                    out[pos] = fid
                return out

            periods = template.sched_periods
            if periods is not None:
                starts, keys = periods
                by_key: dict = {}
                parts = []
                for i, key in enumerate(keys):
                    arr = by_key.get(key)
                    if arr is None:
                        arr = seg_ids(sched[starts[i] : starts[i + 1]])
                        by_key[key] = arr
                    parts.append(arr)
                parts.append(seg_ids(sched[starts[len(keys)] :]))
                flow_ids = (
                    np.concatenate(parts) if parts else np.empty(0, np.int32)
                )
            else:
                flow_ids = seg_ids(sched)

            n_flows = len(flow_unit)
            r_off = np.zeros(n_flows + 1, np.int32)
            w_off = np.zeros(n_flows + 1, np.int32)
            np.cumsum([len(t) for t in flow_reads], out=r_off[1:])
            np.cumsum([len(t) for t in flow_writes], out=w_off[1:])
            r_idx = np.fromiter(
                (r for t in flow_reads for r in t), np.int32, int(r_off[-1])
            )
            w_idx = np.fromiter(
                (r for t in flow_writes for r in t), np.int32, int(w_off[-1])
            )
            tables = (
                flow_ids,
                np.asarray(flow_unit, np.int32),
                np.asarray(flow_kind, np.uint8),
                r_off,
                r_idx,
                w_off,
                w_idx,
            )
            self._flow_tables = tables
        return tables


def compile_template(template) -> CompiledTemplate:
    """Lower ``template`` into its structure-of-arrays replay artifact.

    Fused templates carry their memory ops as ``(operand_offset, op_list)``
    chunks where tile bodies *share* the source template's list; each
    distinct list is converted to arrays once and reused for every
    repetition, so compiling a thousand-tile fused block costs one pass
    over the few distinct tile templates plus the (small) materialised
    boundary interleaves.
    """
    if _faults._PLAN is not None:
        _faults.check("template.compile")
    kinds: list[np.ndarray] = []
    ops: list[np.ndarray] = []
    deltas: list[np.ndarray] = []
    plevels: list[np.ndarray] = []
    chunk_cache: dict[int, tuple] = {}
    for off, chunk in template.mem_chunks:
        arrs = chunk_cache.get(id(chunk))
        if arrs is None:
            if chunk:
                kind_t, op_t, delta_t, plevel_t = zip(*chunk)
            else:
                kind_t = op_t = delta_t = plevel_t = ()
            arrs = (
                np.array(kind_t, np.uint8),
                np.array(op_t, np.int32),
                np.array(delta_t, np.int64),
                np.array(plevel_t, np.uint8),
            )
            chunk_cache[id(chunk)] = arrs
        k, o, d, p = arrs
        kinds.append(k)
        ops.append(o + off if off else o)
        deltas.append(d)
        plevels.append(p)
    if kinds:
        compiled = CompiledTemplate(
            np.concatenate(kinds),
            np.concatenate(ops),
            np.concatenate(deltas),
            np.concatenate(plevels),
        )
    else:
        compiled = CompiledTemplate(
            np.empty(0, np.uint8),
            np.empty(0, np.int32),
            np.empty(0, np.int64),
            np.empty(0, np.uint8),
        )
    if compiled.n_loads != template.n_loads:  # pragma: no cover - invariant
        raise AssertionError(
            f"compiled load count {compiled.n_loads} != template "
            f"{template.n_loads}"
        )
    if os.environ.get("REPRO_STATICCHECK") == "1":
        # Artifact gate (same opt-in as the executor's kernel gate): prove
        # the lowering equivalent to the source template before the
        # artifact can serve a replay.  Imported lazily -- the verifier
        # lives above the machine layer and must not be a dependency of
        # this hot module.  An error-severity finding raises
        # StaticCheckError, which is deliberately NOT a recoverable fault:
        # a corrupt lowering must abort, not degrade.
        from ..analysis.artifactcheck.checker import gate_compiled

        gate_compiled(template, compiled)
    return compiled


def ensure_compiled(
    template, on_fault: Callable[[], None] | None = None
) -> CompiledTemplate | None:
    """The template's compiled artifact, lowering it on first use.

    A recoverable fault at ``template.compile`` latches
    ``template.compile_failed`` and returns ``None`` -- then and on every
    later call, without retrying.  Nothing has touched a cache hierarchy
    yet, so the caller can time the template by interpretation with cycles
    identical to a replay.  The latch is reported once, to ``on_fault`` if
    given, else as the ``degraded.compile_skipped`` counter.
    """
    compiled = template.compiled
    if compiled is None and not template.compile_failed:
        try:
            compiled = compile_template(template)
        except _faults.RECOVERABLE_FAULTS:
            template.compile_failed = True
            if on_fault is None:
                telemetry.count("degraded.compile_skipped")
            else:
                on_fault()
        else:
            template.compiled = compiled
            telemetry.count("compile.templates")
    return compiled
