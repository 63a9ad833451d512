"""Search-space pruning with the Eqn 13 performance model (paper §IV-B).

``model_cost`` projects the runtime of a whole schedule *analytically* --
no simulation -- by combining:

* the DMT region decomposition of each cache block (Eqn 13: the sum of the
  four regions' tile costs);
* a residency correction: when the blocked operands overflow a cache level,
  the model's load latency is re-based to that level (the KP920 ``K=256``
  cliff in Figure 6);
* packing and launch overheads.

This is what lets TVM-style tuning "drop the tuning time dramatically":
ranked by model cost, only the top sliver of the space is ever measured.
"""

from __future__ import annotations

import math
from dataclasses import replace

from ..gemm.packing import PackingMode, packing_cycles
from ..gemm.schedule import Schedule
from ..machine.chips import ChipSpec
from ..model.perf_model import ModelParams
from ..tiling.planner import planner

__all__ = ["model_cost", "prune"]


def _residency_latency(bytes_needed: int, chip: ChipSpec, headroom: float = 0.6) -> float:
    if bytes_needed <= chip.l1d_bytes * headroom:
        return float(chip.lat_load_l1)
    if chip.l2_bytes and bytes_needed <= chip.l2_bytes * headroom:
        return float(chip.lat_load_l2)
    if chip.l3_bytes and bytes_needed <= chip.l3_bytes * headroom:
        return float(chip.lat_load_l3)
    return float(chip.lat_load_mem)


def model_cost(schedule: Schedule, m: int, n: int, k: int, chip: ChipSpec) -> float:
    """Projected cycles for a problem under a schedule (single core)."""
    schedule = schedule.clipped(m, n, k)
    working_set = 4 * (
        schedule.kc * schedule.nc + schedule.mc * schedule.kc
    )
    lat_load = _residency_latency(working_set, chip)
    params = replace(ModelParams.from_chip(chip), lat_load=lat_load)

    m_blocks = math.ceil(m / schedule.mc)
    n_blocks = math.ceil(n / schedule.nc)
    k_blocks = math.ceil(k / schedule.kc)

    # Representative block (remainder blocks are strictly smaller; the model
    # needs ranking fidelity, not exactness).
    cost, num_tiles = planner(params, schedule.rotate).block_cost(
        schedule.mc, schedule.nc, schedule.kc
    )
    launches = 1 if schedule.fuse else num_tiles
    block_cycles = cost + launches * params.launch

    total = m_blocks * n_blocks * k_blocks * block_cycles

    if schedule.packing is PackingMode.ONLINE:
        total += n_blocks * k_blocks * packing_cycles(schedule.kc, schedule.nc, chip).cycles
    return total


def prune(
    schedules: list[Schedule],
    m: int,
    n: int,
    k: int,
    chip: ChipSpec,
    keep: int | float = 0.1,
) -> list[Schedule]:
    """Rank schedules by model cost; keep the best ``keep`` (count or
    fraction).  This is the Eqn 13 pruning step in the tuning loop."""
    if not schedules:
        return []
    scored = sorted(schedules, key=lambda s: model_cost(s, m, n, k, chip))
    count = keep if isinstance(keep, int) else max(1, int(len(scored) * keep))
    return scored[:count]
