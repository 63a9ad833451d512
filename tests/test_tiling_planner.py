"""The process-wide tile planner (``repro.tiling.planner``).

Contract: a planner is keyed by the ``(ModelParams, rotate)`` value, and
whatever it planned before -- including across a memo-bound eviction --
it answers exactly what a fresh ``DynamicMicroTiler`` answers.  The
executor and the estimator get their block plans from the same planner,
and concurrent callers get identical plans.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gemm.estimator import GemmEstimator
from repro.gemm.executor import GemmExecutor
from repro.gemm.kernel_cache import Residency
from repro.gemm.schedule import Schedule
from repro.machine.chips import A64FX, GRAVITON2, KP920
from repro.model.perf_model import DEFAULT_LAUNCH_CYCLES, MicroKernelModel, ModelParams
from repro.tiling import planner as planner_mod
from repro.tiling.dmt import DynamicMicroTiler
from repro.tiling.planner import Planner, planner
from repro.tuner.prune import model_cost

CAP_M = DynamicMicroTiler.M_CAP
CAP_N = DynamicMicroTiler.N_CAP


def fresh(params: ModelParams, rotate: bool) -> DynamicMicroTiler:
    return DynamicMicroTiler(MicroKernelModel(params), lane=params.lane, rotate=rotate)


def plan_cells(plan) -> list[tuple]:
    return [(t.row, t.col, t.rows, t.cols, t.kernel_mr, t.kernel_nr) for t in plan]


blocks = st.tuples(
    st.integers(1, 40), st.integers(1, 48), st.sampled_from([8, 16, 24])
)
# Beyond the exact-DP caps: the bulk-band peel in each direction.
large_blocks = st.sampled_from([(CAP_M + 10, 20, 8), (12, CAP_N + 12, 8)])


class TestSharedEqualsFresh:
    @settings(max_examples=12, deadline=None)
    @given(
        chip=st.sampled_from([KP920, GRAVITON2, A64FX]),
        rotate=st.booleans(),
        level=st.integers(1, 4),
        small=st.lists(blocks, min_size=1, max_size=3),
        large=large_blocks,
        tiny=st.booleans(),
    )
    def test_plan_cost_and_split(self, chip, rotate, level, small, large, tiny):
        params = replace(ModelParams.from_chip(chip), lat_load=float(chip.load_latency(level)))
        # A tiny bound evicts the memos many times within one block.
        bound = 97 if tiny else DynamicMicroTiler.MEMO_BOUND
        plan_bound = 1 if tiny else planner_mod.PLAN_BOUND
        with mock.patch.object(DynamicMicroTiler, "MEMO_BOUND", bound), \
                mock.patch.object(planner_mod, "PLAN_BOUND", plan_bound):
            for mc, nc, kc in [*small, large, *small]:
                shared = planner(params, rotate)
                want = fresh(params, rotate).tile(mc, nc, kc)
                got = shared.tiler.tile(mc, nc, kc)
                assert (got.cost, got.n_front, got.m_front_up, got.m_back_up) == (
                    want.cost, want.n_front, want.m_front_up, want.m_back_up
                )
                assert plan_cells(got.plan) == plan_cells(want.plan)
                assert shared.block_cost(mc, nc, kc) == (want.cost, want.plan.num_tiles)
                plan = shared.plan_block(mc, nc, kc, Schedule(32, 32, 32))
                assert plan_cells(plan) == plan_cells(want.plan)

    def test_memo_bound_holds(self):
        with mock.patch.object(DynamicMicroTiler, "MEMO_BOUND", 97):
            tiler = fresh(ModelParams.from_chip(KP920), True)
            tiler.tile(40, 48, 16)
            assert 0 < len(tiler._region_cache) <= 97
            assert 0 < len(tiler._tr_cache) <= 97

    def test_key_is_the_value(self):
        a = ModelParams.from_chip(KP920)
        assert planner(a) is planner(replace(a))
        assert planner(a) is not planner(a, rotate=False)
        assert planner(a) is not planner(replace(a, lat_load=a.lat_load + 1))

    def test_planner_bound_clears(self):
        planner_mod.clear()
        with mock.patch.object(planner_mod, "PLANNER_BOUND", 2):
            first = planner(ModelParams.from_chip(KP920))
            planner(ModelParams.from_chip(GRAVITON2))
            planner(ModelParams.from_chip(A64FX))
            assert len(planner_mod._PLANNERS) == 1
            assert planner(ModelParams.from_chip(KP920)) is not first


class TestOnePlanEverywhere:
    def test_executor_and_estimator_plan_alike(self):
        """Both take their block plans from the rotating planner of their
        model, whatever ``schedule.rotate`` says."""
        seen = []
        real = Planner.plan_block

        def spy(self, *args):
            plan = real(self, *args)
            seen.append(plan)
            return plan

        for sched in (
            Schedule(32, 32, 32, rotate=False),
            Schedule(32, 32, 32, use_dmt=False, static_edges="pad"),
        ):
            seen.clear()
            want = GemmExecutor(KP920).plan_block(26, 36, 64, sched)
            with mock.patch.object(Planner, "plan_block", spy):
                est = GemmEstimator(KP920)
                _, tiles = est.block_cycles(26, 36, 64, sched, False, Residency(1, 1, 1))
            assert len(seen) == 1 and seen[0] is want
            assert tiles == want.num_tiles

    def test_concurrent_planning_is_identical(self):
        """More threads than cores, a short switch interval and a memo
        bound small enough to clear mid-solve: every thread still gets
        the fresh tiler's plans, and nothing raises."""
        planner_mod.clear()
        params = ModelParams.from_chip(GRAVITON2)
        shapes = [(37, 52, 16), (24, 40, 16), (37, 52, 16), (30, 44, 8)]
        want = [plan_cells(fresh(params, True).tile(*s).plan) for s in shapes]
        workers = 4
        start = threading.Barrier(workers)
        results: list[list] = [[] for _ in range(workers)]
        errors: list[Exception] = []

        def work(slot: int) -> None:
            try:
                start.wait(timeout=30)
                for mc, nc, kc in shapes:
                    plan = planner(params).plan_block(mc, nc, kc, Schedule(32, 32, 32))
                    results[slot].append(plan_cells(plan))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(DynamicMicroTiler, "MEMO_BOUND", 211):
                threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert results == [want] * workers


class TestEqn13BlockModel:
    """The block model of Eqn 13 is DMT's minimisation: the planner's
    block cost, and the Eqn 13 schedule cost built on it."""

    def test_figure5_block_has_13_tiles(self):
        cost, tiles = planner(ModelParams.from_chip(KP920)).block_cost(26, 36, 64)
        assert cost > 0
        assert tiles == 13  # the Figure 5 example

    def test_model_cost_launches_each_of_the_13_tiles(self):
        unfused = model_cost(Schedule(mc=26, nc=36, kc=64, fuse=False), 26, 36, 64, KP920)
        fused = model_cost(Schedule(mc=26, nc=36, kc=64, fuse=True), 26, 36, 64, KP920)
        assert unfused - fused == 12 * DEFAULT_LAUNCH_CYCLES

    def test_split_parameters_within_bounds(self):
        result = planner(ModelParams.from_chip(KP920)).tiler.tile(30, 48, 32)
        assert 0 <= result.n_front <= 48
        assert 0 <= result.m_front_up <= 30
        assert 0 <= result.m_back_up <= 30

    def test_deeper_residency_costs_more(self):
        params = ModelParams.from_chip(KP920)
        l1, _ = planner(replace(params, lat_load=float(KP920.lat_load_l1))).block_cost(32, 32, 32)
        l2, _ = planner(replace(params, lat_load=float(KP920.lat_load_l2))).block_cost(32, 32, 32)
        assert l2 > l1

    def test_model_cost_rebases_to_deeper_residency(self):
        """A working set that overflows L1 is costed at L2 latency."""
        sched = Schedule(mc=32, nc=32, kc=32)
        small_l1 = replace(KP920, l1d_bytes=4096)
        assert model_cost(sched, 32, 32, 32, small_l1) > model_cost(sched, 32, 32, 32, KP920)

    def test_model_cost_scales_with_blocks(self):
        sched = Schedule(mc=32, nc=32, kc=32)
        one = model_cost(sched, 32, 32, 32, GRAVITON2)
        four = model_cost(sched, 64, 64, 32, GRAVITON2)
        assert four == 4 * one

    def test_model_cost_clips_blocks(self):
        # A block larger than the problem is clipped to it.
        sched = Schedule(mc=64, nc=64, kc=64)
        assert model_cost(sched, 8, 8, 8, GRAVITON2) == model_cost(
            sched.clipped(8, 8, 8), 8, 8, 8, GRAVITON2
        ) > 0
