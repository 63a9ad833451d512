"""Input-aware schedule serving: families, projection, background upgrade.

Contract (docs/tuning_guide.md "Input-aware serving"): a registry miss on
an unseen shape whose family has a tuned neighbour within the log-scale
serving radius is served a *projected* schedule with **zero tuning trials
on the request path** (``family.served``), bit-exact like any other
schedule; the background upgrade then tunes the exact key off the request
path and converges the registry entry to the same best schedule a direct
``tune`` picks for the same budget and seed.  Faults during the upgrade
leave the registry entry either old or new -- never torn -- and never
disturb the projection already served.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro import telemetry
from repro.faults import plan as faults
from repro.gemm.autogemm import AutoGEMM
from repro.gemm.reference import sgemm
from repro.gemm.schedule import default_schedule
from repro.tuner import families
from repro.tuner.families import (
    FamilyIndex,
    classify_shape,
    log_distance,
    project_schedule,
)
from repro.tuner.prune import model_cost
from repro.tuner.registry import ScheduleRegistry

# Seed shape A and query shape B share the tall-skinny family; B is an
# exact-key miss with a near neighbour (log2(320/256) ~ 0.32).
SEED_SHAPE = (16, 256, 32)
QUERY = (16, 320, 32)


@pytest.fixture
def path(tmp_path):
    return tmp_path / "registry.jsonl"


def put_shape(reg, chip, m, n, k, threads=1, cycles=1000.0, schedule=None):
    sched = schedule or default_schedule(m, n, k, chip)
    reg.put(chip.name, m, n, k, threads, sched, cycles)
    return sched


def operands(m, n, k, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (m, k)).astype(np.float32)
    b = rng.uniform(-1, 1, (k, n)).astype(np.float32)
    return a, b


class TestClassify:
    @pytest.mark.parametrize(
        "shape,family",
        [
            ((64, 3136, 64), "tall-skinny"),   # ResNet-50 L2
            ((32, 256, 32), "tall-skinny"),    # boundary: n == 8m
            ((3136, 64, 64), "long-rectangle"),
            ((128, 128, 128), "small-cube"),   # boundary: every dim == 128
            ((64, 64, 129), "square"),         # k pushes it out of the cube
            ((768, 128, 768), "square"),       # BERT qkv: aspect 6 < 8
            ((512, 512, 512), "square"),
        ],
    )
    def test_bands(self, shape, family):
        assert classify_shape(*shape) == family

    def test_small_cube_wins_over_aspect(self):
        # 8x128 has tall-skinny aspect but fits the cube: LIBXSMM regime.
        assert classify_shape(8, 128, 64) == "small-cube"

    def test_degenerate_shape_rejected(self):
        with pytest.raises(ValueError):
            classify_shape(0, 64, 64)

    def test_matches_workload_kinds(self):
        # The bands must agree with the paper-workload taxonomy where the
        # two overlap (LayerShape calls the remainder "rectangular").
        from repro.workloads import RESNET50_LAYERS

        for layer in RESNET50_LAYERS:
            got = classify_shape(layer.m, layer.n, layer.k)
            want = layer.kind if layer.kind != "rectangular" else "square"
            assert got == want, layer


class TestLogDistance:
    def test_identity_and_symmetry(self):
        a, b = (16, 256, 32, 1), (32, 256, 64, 2)
        assert log_distance(a, a) == 0.0
        assert log_distance(a, b) == log_distance(b, a)

    def test_ratio_scale_not_absolute(self):
        # 64 vs 128 is exactly as far as 1024 vs 2048: blocking decisions
        # track ratios, not differences.
        near = log_distance((64, 256, 32, 1), (128, 256, 32, 1))
        far = log_distance((1024, 256, 32, 1), (2048, 256, 32, 1))
        assert near == pytest.approx(far) == pytest.approx(1.0)

    def test_threads_axis_down_weighted(self):
        same = (16, 256, 32, 1)
        threaded = (16, 256, 32, 4)
        assert log_distance(same, threaded) == pytest.approx(0.5 * 2)
        assert log_distance(same, threaded, thread_weight=0.0) == 0.0


class TestProjection:
    def test_projected_schedule_fits_query(self, kp920, path):
        reg = ScheduleRegistry(path)
        put_shape(reg, kp920, *SEED_SHAPE)
        (entry,) = reg.live_entries(kp920.name)
        m, n, k = QUERY
        sched, cycles = project_schedule(entry, m, n, k, kp920)
        assert sched.mc <= m and sched.nc <= n and sched.kc <= k
        assert cycles > 0 and math.isfinite(cycles)

    def test_keeps_family_traits_reclamps_blocks(self, kp920, path):
        reg = ScheduleRegistry(path)
        base = put_shape(reg, kp920, *SEED_SHAPE)
        (entry,) = reg.live_entries(kp920.name)
        sched, _ = project_schedule(entry, *QUERY, kp920)
        # Loop order, packing and micro-kernel options generalize across
        # the family and ride along unchanged; only the blocks re-clamp.
        assert sched.loop_order == base.loop_order
        assert sched.packing == base.packing
        assert sched.use_dmt == base.use_dmt

    def test_model_ranks_at_least_as_well_as_plain_clip(self, kp920, path):
        reg = ScheduleRegistry(path)
        base = put_shape(reg, kp920, *SEED_SHAPE)
        (entry,) = reg.live_entries(kp920.name)
        m, n, k = QUERY
        _, cost = project_schedule(entry, m, n, k, kp920)
        assert cost <= model_cost(base.clipped(m, n, k), m, n, k, kp920)

    def test_tie_goes_to_the_plain_clip_each_variant_scored_once(
        self, kp920, path, monkeypatch
    ):
        """With every variant at the same cost the winner is the first in
        the fixed order -- the plain clip of the source blocks -- not
        whichever a hash-ordered set yields first."""
        reg = ScheduleRegistry(path)
        base = put_shape(reg, kp920, *SEED_SHAPE)
        (entry,) = reg.live_entries(kp920.name)
        scored = []

        def flat_cost(schedule, m, n, k, chip):
            scored.append(schedule)
            return 4096.0

        monkeypatch.setattr(families, "model_cost", flat_cost)
        m, n, k = QUERY
        sched, cost = project_schedule(entry, m, n, k, kp920)
        assert sched == base.clipped(m, n, k)
        assert cost == 4096.0
        assert len(scored) == len(set(scored)) > 1


class TestFamilyIndex:
    def test_same_family_neighbour_served(self, kp920, path):
        reg = ScheduleRegistry(path)
        put_shape(reg, kp920, *SEED_SHAPE)
        proj = FamilyIndex(reg, kp920).lookup(*QUERY)
        assert proj is not None
        assert proj.family == "tall-skinny"
        assert proj.distance == pytest.approx(math.log2(320 / 256))
        assert proj.confidence == pytest.approx(1 / (1 + proj.distance))
        assert proj.predicted_cycles > 0

    def test_cross_family_never_served(self, kp920, path):
        reg = ScheduleRegistry(path)
        put_shape(reg, kp920, 256, 16, 32)  # long-rectangle neighbour only
        assert FamilyIndex(reg, kp920).lookup(*QUERY) is None

    def test_distance_cutoff(self, kp920, path):
        reg = ScheduleRegistry(path)
        put_shape(reg, kp920, *SEED_SHAPE)
        index = FamilyIndex(reg, kp920, max_distance=0.1)
        assert index.lookup(*QUERY) is None  # 0.32 > 0.1: too far to trust

    def test_nearest_of_several_wins(self, kp920, path):
        reg = ScheduleRegistry(path)
        put_shape(reg, kp920, 16, 2048, 32, cycles=100.0)
        near = put_shape(
            reg, kp920, *SEED_SHAPE,
            schedule=replace(default_schedule(*SEED_SHAPE, kp920), kc=16),
        )
        proj = FamilyIndex(reg, kp920).lookup(*QUERY)
        assert proj.source.n == 256
        assert proj.schedule.kc == near.clipped(*QUERY).kc

    def test_refreshes_when_another_process_appends(self, kp920, path):
        reg = ScheduleRegistry(path)
        index = FamilyIndex(reg, kp920)
        assert index.lookup(*QUERY) is None
        writer = ScheduleRegistry(path)  # another process, in effect
        put_shape(writer, kp920, *SEED_SHAPE)
        assert index.lookup(*QUERY) is not None  # no explicit invalidation

    def test_thread_adjacent_entry_projects(self, kp920, path):
        # Satellite contract: tuned at threads=1, served at threads=4 --
        # the exact-key miss is a registry.thread_miss and the projection
        # path serves the thread-neighbour.
        reg = ScheduleRegistry(path)
        m, n, k = SEED_SHAPE
        put_shape(reg, kp920, m, n, k, threads=1)
        with telemetry.collecting() as col:
            assert reg.get(kp920.name, m, n, k, threads=4) is None
        assert col.counters.get("registry.thread_miss") == 1
        assert col.counters.get("registry.misses") is None  # not lumped in
        proj = FamilyIndex(reg, kp920).lookup(m, n, k, threads=4)
        assert proj is not None
        assert proj.distance == pytest.approx(0.5 * 2)  # thread axis only


class TestAutoGemmFamilyServing:
    def test_unseen_in_family_shape_serves_with_zero_trials(self, kp920, path):
        reg = ScheduleRegistry(path)
        put_shape(reg, kp920, *SEED_SHAPE)
        lib = AutoGEMM(kp920, registry=reg, family_upgrade=False)
        a, b = operands(*QUERY)
        with telemetry.collecting() as col:
            result = lib.gemm(a, b)
        # The acceptance criterion: zero tuning trials on the request path.
        assert col.counters.get("tuner.trials_measured") is None
        assert col.counters.get("family.served") == 1
        assert col.counters.get("registry.misses") == 1
        assert result.schedule_source == "family"
        assert result.family_projection.family == "tall-skinny"
        assert result.c.tobytes() == sgemm(a, b).tobytes()

    def test_exact_registry_hit_beats_projection(self, kp920, path):
        reg = ScheduleRegistry(path)
        put_shape(reg, kp920, *SEED_SHAPE)
        exact = put_shape(reg, kp920, *QUERY)
        lib = AutoGEMM(kp920, registry=reg, family_upgrade=False)
        a, b = operands(*QUERY)
        with telemetry.collecting() as col:
            result = lib.gemm(a, b)
        assert result.schedule_source == "registry"
        assert result.family_projection is None
        assert col.counters.get("family.served") is None
        assert lib.schedule_for(*QUERY) == exact

    def test_family_serve_opt_out(self, kp920, path):
        reg = ScheduleRegistry(path)
        put_shape(reg, kp920, *SEED_SHAPE)
        lib = AutoGEMM(kp920, registry=reg, family_serve=False)
        a, b = operands(*QUERY)
        with telemetry.collecting() as col:
            result = lib.gemm(a, b)
        assert result.schedule_source == "heuristic"
        assert col.counters.get("family.served") is None

    def test_empty_family_counts_miss_falls_through(self, kp920, path):
        lib = AutoGEMM(kp920, registry=str(path), family_upgrade=False)
        a, b = operands(*QUERY)
        with telemetry.collecting() as col:
            result = lib.gemm(a, b)
        assert result.schedule_source == "heuristic"
        assert col.counters.get("family.misses") == 1

    def test_thread_miss_served_through_projection(self, kp920, path):
        reg = ScheduleRegistry(path)
        m, n, k = SEED_SHAPE
        put_shape(reg, kp920, m, n, k, threads=1)
        lib = AutoGEMM(kp920, registry=reg, family_upgrade=False)
        a, b = operands(m, n, k)
        with telemetry.collecting() as col:
            result = lib.gemm(a, b, threads=2)
        assert col.counters.get("registry.thread_miss") == 1
        assert result.schedule_source == "family"
        assert result.c.tobytes() == sgemm(a, b).tobytes()

    def test_background_upgrade_converges_to_direct_tune(self, kp920, path):
        reg = ScheduleRegistry(path)
        put_shape(reg, kp920, *SEED_SHAPE)
        lib = AutoGEMM(kp920, registry=reg, family_upgrade=True, tune_budget=2)
        a, b = operands(*QUERY)
        with telemetry.collecting() as col:
            result = lib.gemm(a, b)
            assert result.schedule_source == "family"
            assert lib.drain_upgrades(timeout=300)
        assert col.counters.get("family.upgrades_enqueued") == 1
        assert col.counters.get("family.upgrades_completed") == 1
        # The upgrade ran the same deterministic search a direct tune
        # would: for a fixed budget and seed the registry entry must be
        # the identical schedule.
        direct = AutoGEMM(kp920).tune(*QUERY, budget=2, seed=0)
        assert ScheduleRegistry(path).get(kp920.name, *QUERY) == direct
        # And the shape's next resolution is a registry exact hit.
        follow = lib.gemm(a, b)
        assert follow.schedule_source == "registry"
        assert follow.c.tobytes() == sgemm(a, b).tobytes()

    def test_upgrade_dedupes_inflight_and_landed(self, kp920, path):
        reg = ScheduleRegistry(path)
        put_shape(reg, kp920, *SEED_SHAPE)
        lib = AutoGEMM(kp920, registry=reg, family_upgrade=False, tune_budget=2)
        assert lib.enqueue_upgrade(*QUERY) is True
        assert lib.enqueue_upgrade(*QUERY) is False  # in flight: one tune
        assert lib.drain_upgrades(timeout=300)
        assert lib.enqueue_upgrade(*QUERY) is False  # landed: exact entry

    def test_registry_write_failure_keeps_detail(self, kp920, path):
        # Satellite contract: a read-only registry must not kill the tune
        # and must not be a silent counter -- the failure type/message is
        # kept (native_status() style) and surfaced via registry_report().
        lib = AutoGEMM(kp920, registry=str(path), tune_budget=2)

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        lib.registry.put = denied
        with telemetry.collecting() as col:
            lib.tune(*QUERY, budget=2)
        assert col.counters.get("registry.write_failed") == 1
        report = lib.registry_report()
        assert report["status"].startswith("write failed: PermissionError")
        assert "Permission denied" in report["status"]

    def test_registry_report_healthy(self, kp920, path):
        reg = ScheduleRegistry(path)
        put_shape(reg, kp920, *SEED_SHAPE)
        report = AutoGEMM(kp920, registry=reg).registry_report()
        assert report == {
            "path": str(path), "entries": 1, "writable": True, "status": "ok",
        }
        assert AutoGEMM(kp920).registry_report() is None


class TestUpgradeUnderFaults:
    def test_records_io_faults_leave_entry_old_or_new(self, kp920, path):
        # Transient I/O faults fire during the background upgrade's
        # registry traffic; whatever happens, a cold reader must see either
        # no entry for the query or one complete upgraded entry -- never a
        # torn line -- and the projection already served stays bit-exact.
        reg = ScheduleRegistry(path)
        put_shape(reg, kp920, *SEED_SHAPE)
        lib = AutoGEMM(kp920, registry=reg, family_upgrade=True, tune_budget=2)
        a, b = operands(*QUERY)
        plan = faults.FaultPlan(
            [
                # First registry-I/O poll is guaranteed to fault; later
                # ones draw from the seeded stream.
                faults.FaultSpec("records.io", nth=1, mode="transient"),
                faults.FaultSpec("records.io", probability=0.3, mode="transient"),
            ],
            seed=3,
        )
        with telemetry.collecting() as col, faults.injecting(plan):
            result = lib.gemm(a, b)
            # Served during the in-flight upgrade: must already be exact.
            assert result.c.tobytes() == sgemm(a, b).tobytes()
            assert lib.drain_upgrades(timeout=300)
        assert plan.injected.get("records.io", 0) > 0  # the plan really fired
        assert col.counters.get("family.served") == 1
        cold = ScheduleRegistry(path)
        assert cold.skipped_lines == 0  # never torn
        upgraded = cold.get(kp920.name, *QUERY)
        if upgraded is not None:  # the upgrade landed: it is the real winner
            assert upgraded == AutoGEMM(kp920).tune(*QUERY, budget=2, seed=0)

    def test_tune_faults_fail_upgrade_not_serving(self, kp920, path):
        # Every candidate measurement of the background tune fails: the
        # upgrade is counted failed with its error kept, the registry keeps
        # serving the old state, and the already-served projection stands.
        reg = ScheduleRegistry(path)
        put_shape(reg, kp920, *SEED_SHAPE)
        lib = AutoGEMM(kp920, registry=reg, family_upgrade=True, tune_budget=2)
        a, b = operands(*QUERY)
        plan = faults.FaultPlan(
            [faults.FaultSpec("tuner.measure", probability=1.0, mode="permanent")],
            seed=3,
        )
        with telemetry.collecting() as col, faults.injecting(plan):
            result = lib.gemm(a, b)
            assert lib.drain_upgrades(timeout=300)
        assert result.schedule_source == "family"
        assert result.c.tobytes() == sgemm(a, b).tobytes()
        assert col.counters.get("family.upgrade_failed") == 1
        assert col.counters.get("family.upgrades_completed") is None
        assert "tuning failed" in lib.registry_report()["upgrade_error"]
        cold = ScheduleRegistry(path)
        assert cold.get(kp920.name, *QUERY) is None  # old state intact
        assert cold.skipped_lines == 0
        # Serving still works after the failed upgrade (re-projection).
        again = AutoGEMM(kp920, registry=str(path), family_upgrade=False)
        assert again.gemm(a, b).schedule_source == "family"
