"""Analytic-hybrid performance estimation for large problems.

Fully simulating a ResNet-50 layer (e.g. ``64 x 12544 x 147``) instruction
by instruction is wasteful: a blocked GEMM executes the *same few* micro-
kernel shapes millions of times.  The estimator therefore:

1. enumerates the cache blocks a schedule produces and the tile plan of
   each distinct block shape;
2. simulates each distinct micro-kernel shape **once** on the cycle-level
   pipeline, with operands pre-warmed to the residency the blocked loop
   sustains (B panel in L1 when it fits, L2 otherwise, ...);
3. multiplies by tile counts, adds launch/packing/loop overheads, and
   combines per-core totals through the fork/join multi-core model with a
   DRAM-bandwidth floor.

Accuracy against full simulation is validated in the test suite on shapes
small enough to run both ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .. import telemetry
from ..machine.chips import ChipSpec
from ..machine.multicore import parallel_time, partition_blocks
from ..model.perf_model import DEFAULT_LAUNCH_CYCLES, MicroKernelModel, ModelParams
from ..tiling.planner import planner
from .kernel_cache import GLOBAL_KERNEL_CACHE, KernelCache, KernelKey, ReplayCache, Residency
from .packing import PackingMode, packing_cycles
from .schedule import Schedule, default_schedule

__all__ = ["GemmEstimate", "GemmEstimator"]


@dataclass
class GemmEstimate:
    """Projected performance of one GEMM under a schedule."""

    m: int
    n: int
    k: int
    cycles: float
    chip: ChipSpec
    threads: int = 1
    kernel_calls: int = 0
    pack_cycles: float = 0.0
    offline_pack_cycles: float = 0.0
    bandwidth_limited: bool = False
    residency: Residency = field(default_factory=Residency)

    @property
    def flops(self) -> int:
        return 2 * self.m * self.n * self.k

    @property
    def seconds(self) -> float:
        return self.cycles / (self.chip.freq_ghz * 1e9)

    @property
    def gflops(self) -> float:
        return self.flops / self.seconds / 1e9 if self.cycles else 0.0

    @property
    def efficiency(self) -> float:
        peak = self.chip.peak_gflops_core * self.threads
        return self.gflops / peak if peak else 0.0


def _fit_level(bytes_needed: int, chip: ChipSpec, headroom: float = 0.6) -> int:
    """Smallest cache level holding ``bytes_needed`` within headroom."""
    if bytes_needed <= chip.l1d_bytes * headroom:
        return 1
    if chip.l2_bytes and bytes_needed <= chip.l2_bytes * headroom:
        return 2
    if chip.l3_bytes and bytes_needed <= chip.l3_bytes * headroom:
        return 3
    return 4


def _block_sizes(extent: int, block: int) -> dict[int, int]:
    """{block size: count} for a 1-D blocking of ``extent``."""
    full, rem = divmod(extent, block)
    sizes = {block: full} if full else {}
    if rem:
        sizes[rem] = sizes.get(rem, 0) + 1
    return sizes


class GemmEstimator:
    """Kernel-level-simulated, block-level-analytic GEMM projection."""

    def __init__(
        self,
        chip: ChipSpec,
        kernels: KernelCache | None = None,
        launch_cycles: float = DEFAULT_LAUNCH_CYCLES,
        replay_cache: ReplayCache | None = None,
    ) -> None:
        """``replay_cache`` shares trace templates and timed-kernel memos
        with other components (the executor); by default a private one is
        created."""
        self.chip = chip
        self.kernels = kernels if kernels is not None else GLOBAL_KERNEL_CACHE
        self.timed = (
            replay_cache if replay_cache is not None else ReplayCache(chip, self.kernels)
        )
        self.launch_cycles = launch_cycles
        self.model = MicroKernelModel(ModelParams.from_chip(chip, launch=launch_cycles))

    def residency_for(self, schedule: Schedule) -> Residency:
        """*Block-level* residency: where an operand's cache block lives when
        first touched inside the block (the cold side of the cold/warm split
        in :meth:`block_cycles`)."""
        chip = self.chip
        b_bytes = 4 * schedule.kc * schedule.nc
        a_bytes = 4 * schedule.mc * schedule.kc
        c_bytes = 4 * schedule.mc * schedule.nc
        return Residency(
            a_level=_fit_level(a_bytes + b_bytes, chip),
            b_level=_fit_level(b_bytes, chip),
            c_level=_fit_level(c_bytes + b_bytes, chip),
        )

    # -- block cost ---------------------------------------------------------
    def block_cycles(
        self, mc: int, nc: int, kc: int, schedule: Schedule, accumulate: bool,
        residency: Residency,
    ) -> tuple[float, int]:
        """(cycles, kernel calls) of one cache block under the schedule.

        Cold/warm split: within a block sweep, the first micro-tile row of a
        column band pulls that band's B panel up from the block's residency
        level; the remaining ``m/m_r - 1`` tiles over the same columns re-read
        it from the level the *panel* (``k_c x n_r``) fits in -- usually L1.
        The A row-panel is symmetric along columns.  This is the reuse
        structure the blocked loop actually produces, and ignoring it
        overstates large-``n_c`` schedules by the whole L2/L3 latency.
        """
        plan = planner(self.model.p).plan_block(mc, nc, kc, schedule)
        chip = self.chip
        panel_level = _fit_level(4 * kc * 4 * chip.sigma_lane, chip)

        # (shape, first_row, first_col) -> count
        groups: dict[tuple[int, int, bool, bool], int] = {}
        for tile in plan:
            key = (tile.kernel_mr, tile.kernel_nr, tile.row == 0, tile.col == 0)
            groups[key] = groups.get(key, 0) + 1

        cycles = 0.0
        for (mr, nr, first_row, first_col), count in groups.items():
            kkey = KernelKey(
                mr=mr,
                nr=nr,
                kc=kc,
                lane=chip.sigma_lane,
                accumulate=accumulate,
                rotate=schedule.rotate,
                sigma_ai=chip.sigma_ai,
                lookahead=schedule.lookahead,
                use_pairs=schedule.use_pairs,
            )
            res = Residency(
                a_level=residency.a_level if first_col else min(panel_level, residency.a_level),
                b_level=residency.b_level if first_row else min(panel_level, residency.b_level),
                c_level=residency.c_level,
            )
            cycles += count * self.timed.cycles(kkey, res)
        # Launch: once per block when fused, once per tile otherwise.
        launches = 1 if schedule.fuse else plan.num_tiles
        cycles += launches * self.launch_cycles
        return cycles, plan.num_tiles

    # -- whole problem --------------------------------------------------------
    # -- split-K extension ---------------------------------------------------
    def _reduction_cycles(self, mc: int, nc: int, ways: int) -> float:
        """Merging ``ways`` partial C blocks: (ways - 1) streaming add
        passes over the block (load partial + load acc + add + store)."""
        if ways <= 1:
            return 0.0
        chip = self.chip
        vecs = -(-(mc * nc) // chip.sigma_lane)
        per_pass = vecs * (2.0 / chip.ipc_load + 1.0 / chip.ipc_fma + 1.0 / chip.ipc_store)
        return (ways - 1) * (per_pass + chip.lat_load_l1)

    def estimate(
        self,
        m: int,
        n: int,
        k: int,
        schedule: Schedule | None = None,
        threads: int = 1,
        beta: float = 0.0,
        split_k: bool = False,
    ) -> GemmEstimate:
        with telemetry.span("estimate", m=m, n=n, k=k, threads=threads) as sp:
            est = self._estimate(m, n, k, schedule, threads, beta, split_k)
            sp.add_cycles(est.cycles)
        return est

    def _estimate(
        self,
        m: int,
        n: int,
        k: int,
        schedule: Schedule | None,
        threads: int,
        beta: float,
        split_k: bool,
    ) -> GemmEstimate:
        chip = self.chip
        schedule = (
            schedule.clipped(m, n, k)
            if schedule is not None
            else default_schedule(m, n, k, chip, threads=threads)
        )
        if threads < 1 or threads > chip.cores:
            raise ValueError(f"threads must be in [1, {chip.cores}]")

        residency = self.residency_for(schedule)
        m_sizes = _block_sizes(m, schedule.mc)
        n_sizes = _block_sizes(n, schedule.nc)
        k_sizes = _block_sizes(k, schedule.kc)
        k_blocks = sum(k_sizes.values())

        # Cost of the full K sweep for each distinct (mc, nc) block shape.
        block_cost: dict[tuple[int, int], tuple[float, int]] = {}
        pack_cycles_total = 0.0
        for mc_eff in m_sizes:
            for nc_eff in n_sizes:
                cyc = 0.0
                calls = 0
                first = True
                for kc_eff, k_count in k_sizes.items():
                    acc_first = beta != 0.0
                    c1, n1 = self.block_cycles(
                        mc_eff, nc_eff, kc_eff, schedule, acc_first, residency
                    )
                    c2, n2 = self.block_cycles(
                        mc_eff, nc_eff, kc_eff, schedule, True, residency
                    )
                    if first:
                        cyc += c1 + (k_count - 1) * c2
                        calls += n1 + (k_count - 1) * n2
                        first = False
                    else:
                        cyc += k_count * c2
                        calls += k_count * n2
                block_cost[(mc_eff, nc_eff)] = (cyc, calls)

        # Online packing: each (kc, nc) panel packed once per sweep; with the
        # n-loop outside m (default), a panel is reused by every m block.
        if schedule.packing is PackingMode.ONLINE:
            for nc_eff, n_count in n_sizes.items():
                for kc_eff, k_count in k_sizes.items():
                    pack_cycles_total += (
                        n_count * k_count * packing_cycles(kc_eff, nc_eff, chip).cycles
                    )
        offline_pack = (
            packing_cycles(k, n, chip).cycles
            if schedule.packing is PackingMode.OFFLINE
            else 0.0
        )

        # Assemble the C-block list and partition across cores.
        c_list: list[tuple[int, int]] = []
        for mc_eff, m_count in m_sizes.items():
            for nc_eff, n_count in n_sizes.items():
                c_list.extend([(mc_eff, nc_eff)] * (m_count * n_count))

        # Split-K extension (the paper's stated future work, §V-C): when the
        # run is starved of C blocks, idle cores take K slices of the same
        # block into private partial-C buffers, merged by a streaming
        # reduction afterwards.
        split_ways = 1
        if split_k and threads > len(c_list) and k_blocks > 1:
            split_ways = min(k_blocks, max(1, threads // len(c_list)))

        units: list[float] = []
        total_calls = 0
        for key in c_list:
            cyc, calls = block_cost[key]
            total_calls += calls
            share = cyc / split_ways
            for w in range(split_ways):
                extra = (
                    self._reduction_cycles(key[0], key[1], split_ways)
                    if w == 0
                    else 0.0
                )
                units.append(share + extra)
        counts = partition_blocks(len(units), threads)
        per_core: list[float] = []
        idx = 0
        for cnt in counts:
            core_cycles = sum(units[idx : idx + cnt])
            idx += cnt
            per_core.append(max(core_cycles, 1.0))
        # Packing charged to the whole run (done inside the parallel region,
        # shared among cores).
        per_core = [c + pack_cycles_total / max(1, threads) for c in per_core]

        # Unique DRAM traffic: A re-read once per N sweep, B once per M sweep
        # (once total when packed), C read+written once.
        n_sweeps = sum(n_sizes.values())
        m_sweeps = sum(m_sizes.values())
        b_rereads = 1 if schedule.packing is not PackingMode.NONE else m_sweeps
        a_bytes = 4 * m * k * min(n_sweeps, max(1, math.ceil(4 * k * n / max(chip.l2_bytes, 1))))
        dram_bytes = float(a_bytes + 4 * k * n * b_rereads + 8 * m * n)

        timing = parallel_time(per_core, chip, dram_bytes if threads > 1 else 0.0)
        return GemmEstimate(
            m=m,
            n=n,
            k=k,
            cycles=timing.cycles,
            chip=chip,
            threads=threads,
            kernel_calls=total_calls,
            pack_cycles=pack_cycles_total,
            offline_pack_cycles=offline_pack,
            bandwidth_limited=timing.bandwidth_limited,
            residency=residency,
        )
