"""The process-wide tile planner: which tile plan a cache block gets.

One :class:`Planner` per ``(ModelParams, rotate)`` value serves the
executor's and the estimator's block plans, the Eqn 13 block cost of
:func:`repro.tuner.prune.model_cost` and ``repro dmt``, so DMT's memos
fill once per model value, not once per call or per engine.  Every memo
is cleared at a constant bound; nothing is built at import time.  Other
threads (family upgrades) and forked tuner workers may repeat work, but
entries are inserted whole, and no lock exists for a fork to inherit held.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import telemetry
from ..model.perf_model import MicroKernelModel, ModelParams
from .dmt import DynamicMicroTiler, _remember
from .plans import TilePlan
from .static_tiling import libxsmm_tiling, openblas_tiling, tile_for_chip

if TYPE_CHECKING:
    from ..gemm.schedule import Schedule

__all__ = ["Planner", "planner", "clear"]

#: Planners kept per process; tile plans kept per planner (a plan holds an
#: object per placed tile, so this bound is far below the number memos').
PLANNER_BOUND = 64
PLAN_BOUND = 2048


class Planner:
    """DMT and the static strategies for one ``(ModelParams, rotate)``."""

    def __init__(self, params: ModelParams, rotate: bool) -> None:
        self.params = params
        self.tiler = DynamicMicroTiler(
            MicroKernelModel(params), lane=params.lane, rotate=rotate
        )
        self._plans: dict[tuple, TilePlan] = {}
        self._costs: dict[tuple[int, int, int], tuple[float, int]] = {}

    def plan_block(self, mc: int, nc: int, kc: int, schedule: "Schedule") -> TilePlan:
        """Tile plan for one cache block under the schedule's strategy:
        DMT, or a static tile with OpenBLAS-style padded or LIBXSMM-style
        shrunk edges."""
        key = (mc, nc, kc, schedule.use_dmt, schedule.main_tile, schedule.static_edges)
        plan = self._plans.get(key)
        if plan is not None:
            telemetry.count("plan_cache.hits")
            return plan
        telemetry.count("plan_cache.misses")
        with telemetry.span("plan_block", mc=mc, nc=nc, kc=kc,
                            strategy="dmt" if schedule.use_dmt else schedule.static_edges):
            if schedule.use_dmt:
                plan = self.tiler.tile(mc, nc, kc).plan
            else:
                default_tile = tile_for_chip(self.params.lane)
                tile = schedule.main_tile or (default_tile.mr, default_tile.nr)
                if schedule.static_edges == "pad":
                    plan = openblas_tiling(mc, nc, tile)
                else:
                    plan = libxsmm_tiling(mc, nc, tile)
        _remember(self._plans, key, plan, PLAN_BOUND)
        return plan

    def block_cost(self, mc: int, nc: int, kc: int) -> tuple[float, int]:
        """``(cycles, tiles)`` of DMT's plan for one block: the Eqn 13
        cost minimised over the four-region split, and its tile count."""
        key = (mc, nc, kc)
        cost = self._costs.get(key)
        if cost is None:
            result = self.tiler.tile(mc, nc, kc)
            cost = (result.cost, result.plan.num_tiles)
            _remember(self._costs, key, cost, DynamicMicroTiler.MEMO_BOUND)
        return cost


_PLANNERS: dict[tuple[ModelParams, bool], Planner] = {}


def planner(params: ModelParams, rotate: bool = True) -> Planner:
    """The process's planner for ``params`` (created on first use)."""
    key = (params, rotate)
    found = _PLANNERS.get(key)
    if found is None:
        if len(_PLANNERS) >= PLANNER_BOUND:
            _PLANNERS.clear()
        found = _PLANNERS.setdefault(key, Planner(params, rotate))
    return found


def clear() -> None:
    """Drop every planner and its memos (benchmarks timing cold legs)."""
    _PLANNERS.clear()
