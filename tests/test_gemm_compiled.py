"""Compiled trace templates: bit-exact equivalence with interpretation.

Compiled replay inherits the interpreter's exactness contract and adds
nothing to it: for any problem, replay must produce byte-identical ``C``
and identical ``cycles`` / ``instructions`` / ``loads_by_level`` /
``phase_cycles`` to full interpretation (``use_replay=False``), whether
its scoreboard runs in the native kernel or, under ``REPRO_NATIVE=0``, in
the flat-array Python loop.  These tests pin that three-way contract across
the same matrix the replay tests cover, the batched cache consult's state
equality against the scalar methods, the timing-memo LRU bound, and the
compiled -> interpret -> reference degradation chain.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.codegen.fusion import fuse_traces
from repro.faults import plan as faults
from repro.gemm import AutoGEMM, GemmExecutor, KernelKey, ReplayCache, Residency
from repro.gemm.reference import sgemm
from repro.gemm.schedule import Schedule
from repro.machine import native
from repro.machine.cache import CacheHierarchy
from repro.machine.chips import A64FX, APPLE_M2, GRAVITON2, KP920
from repro.machine.compiled import compile_template, ensure_compiled
from repro.machine.pipeline import PipelineModel
from repro.machine.simulator import DEFAULT_TIMING_MEMO_CAP, template_to_trace


def result_fields(r):
    return (
        r.c.tobytes(),
        r.cycles,
        r.instructions,
        r.loads_by_level,
        r.phase_cycles,
    )


def native_off(monkeypatch):
    """Latch the native kernels off for the rest of the test, exactly as
    ``REPRO_NATIVE=0`` does; monkeypatch restores them afterwards."""
    monkeypatch.setattr(native, "_native", None)
    monkeypatch.setattr(native, "_failed", True)


def assert_equivalent(monkeypatch, chip, m, n, k, schedule=None, beta=1.0,
                      threads=1, warm=True):
    """Three-way equality: native compiled replay == Python compiled replay
    (``REPRO_NATIVE=0``) == interpreter."""
    rng = np.random.default_rng(m * 1_000_003 + n * 1_009 + k)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    c = rng.standard_normal((m, n)).astype(np.float32) if beta != 0.0 else None
    kwargs = dict(schedule=schedule, beta=beta, threads=threads, warm=warm)
    compiled = GemmExecutor(chip).run(a, b, c, **kwargs)
    interp = GemmExecutor(chip, use_replay=False).run(a, b, c, **kwargs)
    native_off(monkeypatch)
    python = GemmExecutor(chip).run(a, b, c, **kwargs)
    assert result_fields(compiled) == result_fields(python)
    assert result_fields(compiled) == result_fields(interp)
    return compiled


class TestBitExactness:
    @pytest.mark.parametrize("chip", [GRAVITON2, KP920, A64FX], ids=lambda c: c.name)
    @pytest.mark.parametrize("m,n,k", [(48, 40, 56), (33, 47, 29)])
    def test_chips_and_shapes(self, monkeypatch, chip, m, n, k):
        assert_equivalent(monkeypatch, chip, m, n, k)

    @pytest.mark.parametrize("fuse", [True, False])
    def test_fusion_modes(self, monkeypatch, fuse):
        sched = Schedule(mc=32, nc=32, kc=32, fuse=fuse)
        assert_equivalent(monkeypatch, GRAVITON2, 64, 64, 64, schedule=sched)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 0.5])
    def test_beta(self, monkeypatch, beta):
        assert_equivalent(monkeypatch, GRAVITON2, 48, 36, 40, beta=beta)

    def test_padded_edge_tiles(self, monkeypatch):
        sched = Schedule(mc=32, nc=32, kc=32, static_edges="pad")
        assert_equivalent(monkeypatch, GRAVITON2, 60, 52, 44, schedule=sched)

    def test_multi_k_blocks_accumulate_key(self, monkeypatch):
        sched = Schedule(mc=32, nc=32, kc=16)
        assert_equivalent(monkeypatch, GRAVITON2, 64, 48, 64, schedule=sched)

    def test_threads_cold_cache(self, monkeypatch):
        assert_equivalent(
            monkeypatch, GRAVITON2, 96, 96, 96, threads=4, warm=False
        )


def scoreboards_agree(chip, tpl, trace, bases, launch):
    """``_scoreboard_dense``, the native kernel and ``time_trace`` give
    identical cycles and stall cycles for ``tpl`` replayed at ``bases``
    (``trace`` is the interpreted trace the replay stands for)."""
    model = PipelineModel(chip, caches=CacheHierarchy(chip), launch_cycles=launch)
    compiled = ensure_compiled(tpl)
    lat = model._latencies(tpl, compiled, compiled.consult(bases, model.caches))
    dense = model._scoreboard_dense(tpl, lat.tolist())
    oracle = PipelineModel(
        chip, caches=CacheHierarchy(chip), launch_cycles=launch
    ).time_trace(trace)
    assert dense == (oracle.cycles, oracle.stall_cycles)
    nat = model._scoreboard_native(tpl, compiled, lat)
    if native.get_native() is not None and len(tpl.units) <= native.MAX_UNITS:
        assert nat == dense


def check_generated_case(chip, m, n, k, fuse, tiling):
    """One generated case: C bit-exact against ``sgemm``, and the three
    scoreboards agree on every per-tile and fused template it captured."""
    rng = np.random.default_rng(m * 10_007 + n * 101 + k)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    sched = Schedule(
        mc=32, nc=32, kc=32, fuse=fuse, use_dmt=tiling == "dmt",
        static_edges="shrink" if tiling == "dmt" else tiling,
    )
    ex = GemmExecutor(chip)
    result = ex.run(a, b, schedule=sched)
    assert result.c.tobytes() == sgemm(a, b).tobytes()

    launch = ex.launch_cycles
    # Overlapping bases, so later tiles hit lines earlier ones pulled in.
    def bases(i):
        return (4096 + 256 * i, (1 << 20) + 128 * i, (2 << 20) + 64 * i)

    by_uid = {t.uid: t for t in ex.replay._templates.values()}
    for tpl in by_uid.values():
        scoreboards_agree(
            chip, tpl, template_to_trace(tpl, bases(0)), bases(0), launch
        )
    for uids, fused in ex.replay._fused.items():
        tiles = [by_uid[u] for u in uids]
        trace = fuse_traces(
            [template_to_trace(t, bases(i)) for i, t in enumerate(tiles)]
        )
        all_bases = tuple(x for i in range(len(tiles)) for x in bases(i))
        scoreboards_agree(chip, fused, trace, all_bases, launch)


class TestScoreboardProperty:
    @settings(max_examples=10, deadline=None)
    @given(
        chip=st.sampled_from([GRAVITON2, KP920, APPLE_M2, A64FX]),
        m=st.integers(1, 48),
        n=st.integers(1, 48),
        k=st.integers(1, 48),
        fuse=st.booleans(),
        tiling=st.sampled_from(["dmt", "pad", "shrink"]),
    )
    def test_generated_cases(self, chip, m, n, k, fuse, tiling):
        check_generated_case(chip, m, n, k, fuse, tiling)


class TestConsultBatch:
    """The batched consult must leave the hierarchy in the scalar methods'
    exact state -- LRU order included -- and report the same levels/stats."""

    @staticmethod
    def _streams(chip, seed, n_ops=4000):
        """A mixed op stream with heavy same-line runs (the elision case),
        set-conflict strides, and interleaved prefetches/stores."""
        rng = np.random.default_rng(seed)
        line = chip.cache_line
        addrs, kinds, plevels = [], [], []
        cursor = 64
        for _ in range(n_ops):
            roll = rng.integers(0, 10)
            if roll < 5:  # same-line run (unit-stride lane loads)
                for i in range(int(rng.integers(1, 5))):
                    addrs.append(cursor + 4 * i)
                    kinds.append(1)
                    plevels.append(0)
            elif roll < 7:  # store
                addrs.append(cursor)
                kinds.append(2)
                plevels.append(0)
            elif roll < 8:  # prefetch (breaks elision for its successor)
                addrs.append(cursor + line)
                kinds.append(3)
                plevels.append(int(rng.integers(1, 3)))
            else:  # conflict-stride jump
                cursor = int(rng.integers(0, 1 << 22)) * 4
                addrs.append(cursor)
                kinds.append(1)
                plevels.append(0)
            cursor += line if roll == 9 else 0
        return (
            np.asarray(addrs, np.int64),
            np.asarray(kinds, np.uint8),
            np.asarray(plevels, np.uint8),
        )

    @staticmethod
    def _state(h):
        return [
            [list(s.keys()) for s in cache._sets] for _, cache in h.levels
        ]

    @pytest.mark.parametrize("chip", [GRAVITON2, KP920, A64FX], ids=lambda c: c.name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_state_and_levels_equal_scalar(self, chip, seed):
        addrs, kinds, plevels = self._streams(chip, seed)
        batched = CacheHierarchy(chip)
        got = batched.consult_batch(addrs, kinds, plevels)

        scalar = CacheHierarchy(chip)
        want = np.ones(len(addrs), np.uint8)
        for i, (addr, kind) in enumerate(zip(addrs.tolist(), kinds.tolist())):
            if kind == 1:
                want[i] = scalar.access(addr)
            elif kind == 2:
                scalar.access(addr, is_write=True)
            else:
                scalar.prefetch(addr, int(plevels[i]))

        load = kinds == 1
        assert got[load].tobytes() == want[load].tobytes()
        assert batched.stats.hits == scalar.stats.hits
        assert self._state(batched) == self._state(scalar)

    def test_empty_stream(self):
        h = CacheHierarchy(GRAVITON2)
        out = h.consult_batch(
            np.empty(0, np.int64), np.empty(0, np.uint8), np.empty(0, np.uint8)
        )
        assert len(out) == 0
        assert h.stats.accesses == 0

    def test_fault_plan_falls_back_to_scalar_polls(self):
        # With a plan installed every demand access must poll cache.access
        # -- same call count as the interpreted walk would make.
        addrs, kinds, plevels = self._streams(GRAVITON2, 3, n_ops=200)
        demand = int((kinds != 3).sum())
        plan = faults.FaultPlan([faults.FaultSpec("cache.access", nth=10**9)])
        with faults.injecting(plan):
            CacheHierarchy(GRAVITON2).consult_batch(addrs, kinds, plevels)
        assert plan.calls("cache.access") == demand


class TestCompiledArtifact:
    @staticmethod
    def _template(chip=GRAVITON2, kc=32):
        cache = ReplayCache(chip)
        key = KernelKey(mr=4, nr=16, kc=kc, lane=chip.sigma_lane)
        cache.cycles(key, Residency(1, 1, 1))  # interpret + capture
        (tpl,) = cache._templates.values()
        return tpl

    def test_compile_matches_template_streams(self):
        tpl = self._template()
        art = compile_template(tpl)
        assert art.n_ops == sum(len(ops) for _, ops in tpl.mem_chunks)
        assert art.n_loads == tpl.n_loads
        flat = [
            (kind, off + op, delta, pl)
            for off, ops in tpl.mem_chunks
            for kind, op, delta, pl in ops
        ]
        assert art.mem_kind.tolist() == [f[0] for f in flat]
        assert art.mem_op.tolist() == [f[1] for f in flat]
        assert art.mem_delta.tolist() == [f[2] for f in flat]

    def test_replay_signature_and_cycles_match_interpreted_walk(
        self, monkeypatch
    ):
        """Native replay == Python replay == time_trace on the template's
        materialised trace."""
        tpl = self._template()
        bases = (64, 8256, 12352)
        timings = []
        for leg in ("native", "python"):
            if leg == "python":
                native_off(monkeypatch)
            model = PipelineModel(GRAVITON2, caches=CacheHierarchy(GRAVITON2))
            tpl.timing_memo.clear()  # force both legs through scheduling
            timings.append(model.replay_template(tpl, bases))
        oracle = PipelineModel(
            GRAVITON2, caches=CacheHierarchy(GRAVITON2)
        ).time_trace(template_to_trace(tpl, bases))
        for got in timings:
            assert got.cycles == oracle.cycles
            assert got.stall_cycles == oracle.stall_cycles
            assert got.loads_by_level == oracle.loads_by_level

    def test_invalidate_compiled(self):
        tpl = self._template()
        model = PipelineModel(GRAVITON2, caches=CacheHierarchy(GRAVITON2))
        model.replay_template(tpl, (64, 8256, 12352))
        assert tpl.compiled is not None and tpl.timing_memo
        tpl.invalidate_compiled()
        assert tpl.compiled is None
        assert not tpl.compile_failed
        assert not tpl.timing_memo

    def test_compile_counters(self):
        tpl = self._template()
        model = PipelineModel(GRAVITON2, caches=CacheHierarchy(GRAVITON2))
        with telemetry.collecting() as col:
            model.replay_template(tpl, (64, 8256, 12352))
            model.replay_template(tpl, (64, 8256, 12352))
        assert col.counters.get("compile.templates") == 1  # compiled once
        assert col.counters.get("replay.compiled_hits") == 2


class TestMemoLRU:
    def test_cap_and_eviction_counters(self):
        tpl = TestCompiledArtifact._template()
        tpl.memo_cap = 4
        model = PipelineModel(GRAVITON2, caches=CacheHierarchy(GRAVITON2))
        with telemetry.collecting() as col:
            for i in range(10):
                # Distinct launch_cycles values force distinct memo keys.
                model.launch_cycles = float(i)
                model.replay_template(tpl, (64, 8256, 12352))
        assert len(tpl.timing_memo) == 4
        assert col.counters.get("replay.memo_insertions") == 10
        assert col.counters.get("replay.memo_evictions") == 6

    def test_lru_keeps_recent(self):
        tpl = TestCompiledArtifact._template()
        tpl.memo_cap = 2
        model = PipelineModel(GRAVITON2, caches=CacheHierarchy(GRAVITON2))
        for i in (0.0, 1.0, 0.0, 2.0):  # re-touch 0.0 before inserting 2.0
            model.launch_cycles = i
            model.replay_template(tpl, (64, 8256, 12352))
        kept = {key[1] for key in tpl.timing_memo}
        assert kept == {0.0, 2.0}  # 1.0 was the least recently used

    def test_default_cap(self):
        tpl = TestCompiledArtifact._template()
        assert tpl.memo_cap == DEFAULT_TIMING_MEMO_CAP == 64

    def test_memo_stats(self):
        cache = ReplayCache(GRAVITON2)
        key = KernelKey(mr=4, nr=16, kc=32, lane=GRAVITON2.sigma_lane)
        cache.cycles(key, Residency(1, 1, 1))
        cache.cycles(key, Residency(2, 2, 2))
        stats = cache.memo_stats()
        assert stats["templates"] == 1
        assert stats["entries"] >= 1
        assert stats["capacity"] == DEFAULT_TIMING_MEMO_CAP
        assert stats["compiled"] == 1


class TestChipValueKeys:
    """Scheduler tables and timing memos are keyed by the chip's value: a
    variant that keeps a chip's name but changes a latency replays with
    its own latencies, cycle-identical to interpretation."""

    VARIANT = replace(GRAVITON2, lat_fma=12)

    def test_template_replays_per_chip_value(self):
        tpl = TestCompiledArtifact._template()
        bases = (64, 8256, 12352)
        for chip in (GRAVITON2, self.VARIANT):
            replayed = PipelineModel(chip, caches=CacheHierarchy(chip)).replay_template(tpl, bases)
            interpreted = PipelineModel(chip, caches=CacheHierarchy(chip)).time_trace(
                template_to_trace(tpl, bases)
            )
            assert replayed.cycles == interpreted.cycles
        assert len(tpl.timing_memo) == 2

    def test_executor_after_a_same_name_chip(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((48, 48)).astype(np.float32)
        b = rng.standard_normal((48, 32)).astype(np.float32)
        GemmExecutor(GRAVITON2).run(a, b)
        replayed = GemmExecutor(self.VARIANT).run(a, b)
        interpreted = GemmExecutor(self.VARIANT, use_replay=False).run(a, b)
        assert result_fields(replayed) == result_fields(interpreted)


class TestDegradationChain:
    def test_compile_fault_degrades_to_interpreted_replay(self):
        """Rung 1: a compile fault falls back to interpretation -- cycles
        and C identical to a fault-free run."""
        rng = np.random.default_rng(11)
        a = rng.standard_normal((64, 48)).astype(np.float32)
        b = rng.standard_normal((48, 40)).astype(np.float32)
        clean = AutoGEMM(GRAVITON2).gemm(a, b)
        plan = faults.FaultPlan(
            [faults.FaultSpec("template.compile", probability=1.0)]
        )
        with faults.injecting(plan), telemetry.collecting() as col:
            faulted = AutoGEMM(GRAVITON2).gemm(a, b)
        assert plan.total_injected() > 0
        assert result_fields(faulted) == result_fields(clean)
        assert col.counters.get("degraded.compile_skipped", 0) > 0
        assert col.counters.get("replay.compiled_hits", 0) == 0

    @pytest.mark.parametrize("fuse", [True, False])
    def test_compile_fault_is_cycle_identical(self, fuse):
        """A compile fault on multi-tile blocks times every template by
        interpretation -- trace fusion for a fused block, time_trace per
        tile otherwise -- never by the analytic model or unfused."""
        rng = np.random.default_rng(13)
        a = rng.standard_normal((64, 48)).astype(np.float32)
        b = rng.standard_normal((48, 64)).astype(np.float32)
        sched = Schedule(mc=32, nc=32, kc=24, fuse=fuse)
        clean = GemmExecutor(GRAVITON2).run(a, b, schedule=sched)
        plan = faults.FaultPlan(
            [faults.FaultSpec("template.compile", probability=1.0)]
        )
        with faults.injecting(plan), telemetry.collecting() as col:
            faulted = GemmExecutor(GRAVITON2).run(a, b, schedule=sched)
        assert plan.total_injected() > 0
        assert result_fields(faulted) == result_fields(clean)
        assert faulted.c.tobytes() == sgemm(a, b).tobytes()
        assert col.counters.get("degraded.compile_skipped", 0) > 0
        assert col.counters.get("replay.hits", 0) > 0
        assert faulted.degradations.get("model_timing", 0) == 0
        assert faulted.degradations.get("unfused", 0) == 0

    @pytest.mark.parametrize("fuse", [True, False])
    def test_compile_fault_is_visible_on_the_result(self, fuse):
        """Each latched compile fault is one ``compile_skipped`` engagement
        on the result and on the counter; a later run over the same
        latched templates engages nothing."""
        rng = np.random.default_rng(13)
        a = rng.standard_normal((64, 48)).astype(np.float32)
        b = rng.standard_normal((48, 64)).astype(np.float32)
        sched = Schedule(mc=32, nc=32, kc=24, fuse=fuse)
        executor = GemmExecutor(GRAVITON2)
        plan = faults.FaultPlan(
            [faults.FaultSpec("template.compile", probability=1.0)]
        )
        with faults.injecting(plan), telemetry.collecting() as col:
            faulted = executor.run(a, b, schedule=sched)
            again = executor.run(a, b, schedule=sched)
        injected = plan.total_injected()
        assert injected > 0
        assert faulted.degraded
        assert faulted.degradations == {"compile_skipped": injected}
        assert col.counters.get("degraded.compile_skipped") == injected
        assert not again.degraded and again.degradations == {}

    def test_compile_fault_in_estimator_reinterprets(self):
        """ReplayCache.cycles on a template whose compile faulted measures
        by interpretation: same cycles as the compiled replay."""
        key = KernelKey(mr=4, nr=16, kc=32, lane=GRAVITON2.sigma_lane)
        clean = ReplayCache(GRAVITON2)
        clean.cycles(key, Residency(1, 1, 1))
        want = clean.cycles(key, Residency(2, 2, 2))
        faulted = ReplayCache(GRAVITON2)
        faulted.cycles(key, Residency(1, 1, 1))
        plan = faults.FaultPlan(
            [faults.FaultSpec("template.compile", probability=1.0)]
        )
        with faults.injecting(plan), telemetry.collecting() as col:
            got = faulted.cycles(key, Residency(2, 2, 2))
        assert got == want
        assert col.counters.get("degraded.compile_skipped", 0) == 1
        assert "replay.hits" not in col.counters

    def test_chain_to_interpret_and_reference(self):
        """Rungs 2..4: faults on compile + capture + replay-apply push tiles
        down to interpretation, and generation faults to the numpy
        reference; C stays bit-exact against sgemm throughout."""
        rng = np.random.default_rng(12)
        a = rng.standard_normal((48, 40)).astype(np.float32)
        b = rng.standard_normal((40, 36)).astype(np.float32)
        want = sgemm(a, b)
        plan = faults.FaultPlan(
            [
                faults.FaultSpec("template.compile", probability=1.0),
                faults.FaultSpec("trace.capture", probability=0.5),
                faults.FaultSpec("replay.apply", probability=0.5),
                faults.FaultSpec("kernel.generate", nth=2, mode="permanent"),
            ],
            seed=3,
        )
        with faults.injecting(plan):
            result = AutoGEMM(GRAVITON2).gemm(a, b)
        assert plan.total_injected() > 0
        assert result.c.tobytes() == want.tobytes()
        assert result.degraded


class TestNativeKernels:
    """The cffi-built C kernels must be bit-equal to their Python loops and
    must degrade to them silently when unavailable."""

    @staticmethod
    def _require_native():
        from repro.machine import native

        if native.get_native() is None:
            pytest.skip(f"native kernel unavailable: {native.native_status()}")

    def test_consult_native_matches_python_loop(self, monkeypatch):
        self._require_native()
        from repro.machine import cache as cache_mod

        addrs, kinds, plevels = TestConsultBatch._streams(GRAVITON2, 7)
        monkeypatch.setattr(cache_mod, "NATIVE_MIN_KEPT", 1)
        h_native = CacheHierarchy(GRAVITON2)
        with telemetry.collecting() as col:
            got = h_native.consult_batch(addrs, kinds, plevels)
        assert col.counters.get("replay.consult_native", 0) >= 1

        h_python = CacheHierarchy(GRAVITON2)
        native_off(monkeypatch)
        want = h_python.consult_batch(addrs, kinds, plevels)

        assert got.tobytes() == want.tobytes()
        assert h_native.stats.hits == h_python.stats.hits
        assert TestConsultBatch._state(h_native) == TestConsultBatch._state(
            h_python
        )

    def test_consult_native_interleaves_with_scalar_walks(self, monkeypatch):
        # Scalar mutations (warm_range between fused blocks) land between
        # batches; the export/import round-trip must compose with them.
        self._require_native()
        from repro.machine import cache as cache_mod

        monkeypatch.setattr(cache_mod, "NATIVE_MIN_KEPT", 1)
        streams = [TestConsultBatch._streams(GRAVITON2, s) for s in (11, 12)]
        h_native = CacheHierarchy(GRAVITON2)
        for addrs, kinds, plevels in streams:
            h_native.consult_batch(addrs, kinds, plevels)
            h_native.warm_range(1 << 20, 4096, 1)

        h_python = CacheHierarchy(GRAVITON2)
        native_off(monkeypatch)
        for addrs, kinds, plevels in streams:
            h_python.consult_batch(addrs, kinds, plevels)
            h_python.warm_range(1 << 20, 4096, 1)

        assert h_native.stats.hits == h_python.stats.hits
        assert TestConsultBatch._state(h_native) == TestConsultBatch._state(
            h_python
        )

    def test_scoreboard_native_matches_python(self, monkeypatch):
        self._require_native()
        rng = np.random.default_rng(5)
        a = rng.standard_normal((48, 32)).astype(np.float32)
        b = rng.standard_normal((32, 48)).astype(np.float32)

        with telemetry.collecting() as col:
            fast = GemmExecutor(GRAVITON2).run(a, b)
        assert col.counters.get("replay.sched_native", 0) >= 1

        native_off(monkeypatch)
        with telemetry.collecting() as col:
            slow = GemmExecutor(GRAVITON2).run(a, b)
        assert "replay.sched_native" not in col.counters
        assert result_fields(fast) == result_fields(slow)

    def test_env_knob_latches_native_off(self, monkeypatch):
        from repro.machine import native

        monkeypatch.setattr(native, "_native", None)
        monkeypatch.setattr(native, "_failed", False)
        monkeypatch.setattr(native, "_status", "unbuilt")
        monkeypatch.setenv("REPRO_NATIVE", "0")
        with telemetry.collecting() as col:
            assert native.get_native() is None
        assert native.native_status() == "disabled"
        assert col.counters.get("native.latched", 0) == 1
        # Latched: even after the env var goes away, no re-probe (and no
        # second count -- the latch fires once per process).
        monkeypatch.delenv("REPRO_NATIVE")
        with telemetry.collecting() as col:
            assert native.get_native() is None
        assert "native.latched" not in col.counters

    @staticmethod
    def _unbuilt(monkeypatch):
        from repro.machine import native

        monkeypatch.setattr(native, "_native", None)
        monkeypatch.setattr(native, "_failed", False)
        monkeypatch.setattr(native, "_status", "unbuilt")

    def _latched_run_matches_python(self, monkeypatch):
        """The current latched state must replay bit-identically to an
        explicit ``REPRO_NATIVE=0`` run."""
        rng = np.random.default_rng(9)
        a = rng.standard_normal((32, 24)).astype(np.float32)
        b = rng.standard_normal((24, 32)).astype(np.float32)
        latched = GemmExecutor(GRAVITON2).run(a, b)
        self._unbuilt(monkeypatch)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        forced_off = GemmExecutor(GRAVITON2).run(a, b)
        assert result_fields(latched) == result_fields(forced_off)

    def test_unwritable_cache_dir_latches(self, monkeypatch, tmp_path):
        # REPRO_NATIVE_DIR pointing at a regular *file* makes the cache
        # publish step fail on any platform (even running as root, where a
        # read-only directory would not): os.makedirs refuses the path.
        from repro.machine import native

        blocker = tmp_path / "not-a-directory"
        blocker.write_text("occupied")
        self._unbuilt(monkeypatch)
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(blocker))
        with telemetry.collecting() as col:
            assert native.get_native() is None
        assert native.native_status().startswith("unavailable:")
        assert col.counters.get("native.latched", 0) == 1
        # Latched for the process: a later call with a writable dir does
        # not re-probe.
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path / "fine"))
        assert native.get_native() is None
        self._latched_run_matches_python(monkeypatch)

    def test_corrupted_cached_so_latches(self, monkeypatch, tmp_path):
        # A truncated/garbage .so in the cache is found by the cache probe
        # and fails at dlopen; the latch (not a crash) must absorb it.
        from repro.machine import native

        bad = tmp_path / f"{native._module_name()}.so"
        bad.write_bytes(b"\x7fELF garbage, not a loadable object")
        self._unbuilt(monkeypatch)
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        with telemetry.collecting() as col:
            assert native.get_native() is None
        assert native.native_status().startswith("unavailable:")
        assert col.counters.get("native.latched", 0) == 1
        self._latched_run_matches_python(monkeypatch)
