"""Dynamic Micro-Tiling -- Algorithm 1 of the paper.

DMT splits a cache-block sub-matrix ``C(m_c, n_c)`` into at most four
rectangular regions (a vertical cut at ``n_front``, then an independent
horizontal cut in each column band), and tiles each region with the
micro-kernel shape minimising the projected runtime ``T(m, n)`` from the
performance model.  The result balances tile sizes, avoids the padded work
of OpenBLAS-style tiling and the low-AI edge kernels of LIBXSMM-style
tiling (Figure 5c), and minimises the number of tiles among cost ties.

Implementation note: Algorithm 1 as printed is a triple loop over
``(n_front, m_front_up, m_back_up)``.  Because the two column bands choose
their horizontal cuts independently, the objective decomposes as
``P(n_front) = S(n_front) + S(n_c - n_front)`` with
``S(n) = min_m [T(m, n) + T(m_c - m, n)]`` -- the same optimum in
``O(m_c * n_c)`` evaluations instead of ``O(m_c^2 * n_c)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .. import telemetry
from ..codegen.tiles import TileShape, enumerate_tiles
from ..model.perf_model import MicroKernelModel
from .plans import PlacedTile, TilePlan

__all__ = ["RegionChoice", "DMTResult", "DynamicMicroTiler"]


@dataclass(frozen=True)
class RegionChoice:
    """Best tiling of one rectangular region: cost, tile shape, tile count."""

    cost: float
    tile: TileShape | None
    num_tiles: int


@dataclass(frozen=True)
class DMTResult:
    """The four-region split DMT selected, plus the assembled plan."""

    plan: TilePlan
    cost: float
    n_front: int
    m_front_up: int
    m_back_up: int


class DynamicMicroTiler:
    """Algorithm 1, parameterised by the chip's performance model; callers
    share one per model value through :mod:`repro.tiling.planner`."""

    #: Entry bound of each memo.  One ResNet-50 estimate fills about 72k
    #: region entries; reaching the bound clears the memo.
    MEMO_BOUND = 1 << 18

    def __init__(
        self,
        model: MicroKernelModel,
        lane: int = 4,
        tiles: Sequence[TileShape] | None = None,
        rotate: bool = True,
    ) -> None:
        self.model = model
        self.lane = lane
        self.rotate = rotate
        self.tiles = (
            tuple(tiles)
            if tiles is not None
            else enumerate_tiles(lane, generatable_only=True)
        )
        # Plain numbers only (nothing per entry for the GC to traverse);
        # a concurrent caller may repeat work but reads only whole values.
        self._tr_cache: dict[tuple[int, int, int], float] = {}
        self._region_cache: dict[int, float] = {}

    # -- T_r(m_r, n_r): model cost of one kernel invocation -----------------
    def kernel_cost(self, mr: int, nr: int, kc: int) -> float:
        key = (mr, nr, kc)
        cached = self._tr_cache.get(key)
        if cached is None:
            cached = self.model.tile_cost(mr, nr, kc, rotate=self.rotate)
            _remember(self._tr_cache, key, cached, self.MEMO_BOUND)
        return cached

    # -- T(m, n): inner minimisation of Algorithm 1 lines 11-16 -------------
    def region(self, m: int, n: int, kc: int) -> RegionChoice:
        """Best single-tile-shape cover of an ``m x n`` region.

        Grid remainders run remainder-sized kernels (the generator supports
        arbitrary edge shapes via predicated lanes), so the cost of a
        candidate tile includes its own edge penalty -- a tile that divides
        the region evenly wins, which is what makes DMT prefer *balanced*
        region splits.
        """
        if m == 0 or n == 0:
            return RegionChoice(0.0, None, 0)
        best = RegionChoice(math.inf, None, 0)
        for tile in self.tiles:
            mr = min(tile.mr, m)
            nr = min(tile.nr, n)
            fr, rem_r = divmod(m, mr)
            fc, rem_c = divmod(n, nr)
            cost = fr * fc * self.kernel_cost(mr, nr, kc)
            count = fr * fc
            if rem_r:
                cost += fc * self.kernel_cost(rem_r, nr, kc)
                count += fc
            if rem_c:
                cost += fr * self.kernel_cost(mr, rem_c, kc)
                count += fr
            if rem_r and rem_c:
                cost += self.kernel_cost(rem_r, rem_c, kc)
                count += 1
            if cost < best.cost - 1e-9 or (
                abs(cost - best.cost) <= 1e-9 and count < best.num_tiles
            ):
                best = RegionChoice(cost, TileShape(mr, nr, self.lane), count)
        return best

    def region_cost(self, m: int, n: int, kc: int) -> float:
        """``region(m, n, kc).cost``, memoised for the split search (whose
        regions never exceed the caps below, so ``m`` and ``n`` pack into
        24 bits each of one integer key)."""
        if m == 0 or n == 0:
            return 0.0
        key = (kc << 48) | (n << 24) | m
        cost = self._region_cache.get(key)
        if cost is None:
            cost = self.region(m, n, kc).cost
            _remember(self._region_cache, key, cost, self.MEMO_BOUND)
        return cost

    def _emit_region(
        self, plan: TilePlan, r0: int, c0: int, m: int, n: int, kc: int
    ) -> None:
        if m == 0 or n == 0:
            return
        choice = self.region(m, n, kc)
        assert choice.tile is not None
        mr, nr = choice.tile.mr, choice.tile.nr
        for r in range(0, m, mr):
            rows = min(mr, m - r)
            for c in range(0, n, nr):
                cols = min(nr, n - c)
                plan.tiles.append(
                    PlacedTile(
                        row=r0 + r,
                        col=c0 + c,
                        rows=rows,
                        cols=cols,
                        kernel_mr=rows,
                        kernel_nr=cols,
                    )
                )

    #: Above these block extents the exact DP is peeled: bulk column bands of
    #: ``N_BULK`` (divisible by every first-choice n_r: 8, 12, 16, 20) and
    #: row bands of ``M_BULK`` (divisible by 2, 4, 5, 8, 10) tile perfectly
    #: with any candidate shape, so Algorithm 1 only needs to run on the
    #: remainder band -- same optimum, bounded cost for ResNet-scale blocks.
    N_CAP = 288
    N_BULK = 240
    M_CAP = 120
    M_BULK = 40

    # -- Algorithm 1 ---------------------------------------------------------
    def tile(self, mc: int, nc: int, kc: int) -> DMTResult:
        """Run DMT on a cache block ``C(m_c, n_c)`` with depth ``k_c``.

        Blocks beyond ``M_CAP x N_CAP`` are decomposed into perfectly
        divisible bulk bands plus a remainder band solved by the exact DP
        (see class attribute note)."""
        if mc < 1 or nc < 1 or kc < 1:
            raise ValueError("block dimensions must be positive")
        telemetry.count("dmt.tile_calls")

        if nc > self.N_CAP or mc > self.M_CAP:
            with telemetry.span("dmt_tile_large", mc=mc, nc=nc, kc=kc):
                return self._tile_large(mc, nc, kc)
        with telemetry.span("dmt_tile", mc=mc, nc=nc, kc=kc):
            return self._tile_exact(mc, nc, kc)

    def _tile_exact(self, mc: int, nc: int, kc: int) -> DMTResult:
        """The exact DP on one block within the caps."""

        # S(n) = min_m T(m, n) + T(mc - m, n); symmetric in m, so m <= mc/2.
        region_cost = self.region_cost

        def best_m_split(n: int) -> tuple[float, int]:
            if n == 0:
                return 0.0, 0
            best_cost, best_m = math.inf, 0
            for m_up in range(0, mc // 2 + 1):
                cost = region_cost(m_up, n, kc) + region_cost(mc - m_up, n, kc)
                if cost < best_cost - 1e-9:
                    best_cost, best_m = cost, m_up
            return best_cost, best_m

        split_cache: dict[int, tuple[float, int]] = {}

        def split(n: int) -> tuple[float, int]:
            if n not in split_cache:
                split_cache[n] = best_m_split(n)
            return split_cache[n]

        best_cost, best_nf = math.inf, 0
        for n_front in range(0, nc // 2 + 1):
            cost = split(n_front)[0] + split(nc - n_front)[0]
            if cost < best_cost - 1e-9:
                best_cost, best_nf = cost, n_front

        _, m_front_up = split(best_nf)
        _, m_back_up = split(nc - best_nf)

        plan = TilePlan(mc, nc, strategy="dmt")
        self._emit_region(plan, 0, 0, m_front_up, best_nf, kc)
        self._emit_region(plan, m_front_up, 0, mc - m_front_up, best_nf, kc)
        self._emit_region(plan, 0, best_nf, m_back_up, nc - best_nf, kc)
        self._emit_region(plan, m_back_up, best_nf, mc - m_back_up, nc - best_nf, kc)
        plan.validate()
        return DMTResult(
            plan=plan,
            cost=best_cost,
            n_front=best_nf,
            m_front_up=m_front_up,
            m_back_up=m_back_up,
        )

    def _tile_large(self, mc: int, nc: int, kc: int) -> DMTResult:
        """Bulk-band decomposition for blocks beyond the exact-DP caps."""
        plan = TilePlan(mc, nc, strategy="dmt")
        cost = 0.0

        # Peel bulk row bands first (rare: only very tall blocks).
        row0 = 0
        m_rem = mc
        sub_results: list[tuple[DMTResult, int, int]] = []
        bands: list[tuple[int, int]] = []  # (row0, band height)
        if mc > self.M_CAP:
            q = (mc - 1) // self.M_BULK  # leave a non-empty remainder band
            for _ in range(q):
                bands.append((row0, self.M_BULK))
                row0 += self.M_BULK
            m_rem = mc - row0
        bands.append((row0, m_rem))

        # Memoise band solutions by height (bulk bands all share M_BULK).
        solved: dict[int, DMTResult] = {}
        for band_row, band_m in bands:
            if band_m not in solved:
                solved[band_m] = self._tile_columns(band_m, nc, kc)
            sub = solved[band_m]
            _merge_into(plan, sub.plan, band_row, 0)
            cost += sub.cost
            sub_results.append((sub, band_row, band_m))

        plan.validate()
        lead = sub_results[0][0]
        return DMTResult(
            plan=plan,
            cost=cost,
            n_front=lead.n_front,
            m_front_up=lead.m_front_up,
            m_back_up=lead.m_back_up,
        )

    def _tile_columns(self, mc: int, nc: int, kc: int) -> DMTResult:
        """Column-direction bulk peel for one row band (mc <= M_CAP)."""
        if nc <= self.N_CAP:
            return self.tile(mc, nc, kc)
        plan = TilePlan(mc, nc, strategy="dmt")
        cost = 0.0
        q = (nc - 1) // self.N_BULK
        col0 = 0
        bulk = self.tile(mc, self.N_BULK, kc)
        for _ in range(q):
            _merge_into(plan, bulk.plan, 0, col0)
            cost += bulk.cost
            col0 += self.N_BULK
        rem = self.tile(mc, nc - col0, kc)
        _merge_into(plan, rem.plan, 0, col0)
        cost += rem.cost
        plan.validate()
        return DMTResult(
            plan=plan,
            cost=cost,
            n_front=bulk.n_front,
            m_front_up=bulk.m_front_up,
            m_back_up=bulk.m_back_up,
        )


def _remember(memo: dict, key, value, bound: int) -> None:
    if len(memo) >= bound:
        memo.clear()
    memo[key] = value


def _merge_into(dst: TilePlan, src: TilePlan, row0: int, col0: int) -> None:
    for t in src.tiles:
        dst.tiles.append(
            PlacedTile(
                row=row0 + t.row,
                col=col0 + t.col,
                rows=t.rows,
                cols=t.cols,
                kernel_mr=t.kernel_mr,
                kernel_nr=t.kernel_nr,
            )
        )

