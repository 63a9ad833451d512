"""Input-aware schedule serving: shape families (IAAT-style, no cold tune).

A :class:`~repro.tuner.registry.ScheduleRegistry` miss used to cost a full
tuning search -- seconds of cold-start latency on every unseen irregular
shape (``BENCH_tuner.json`` puts a hit at ~31x faster than the miss path).
This module closes that gap the way IAAT does for small GEMM: treat tuned
schedules as a *parameterized family* rather than per-shape one-offs,

1. **classify** the query ``(m, n, k)`` into one of the paper's
   irregularity bands (:func:`classify_shape`: tall-skinny /
   long-rectangle / small-cube / square);
2. find the **nearest tuned neighbour** in the same band under a
   log-scale distance over ``(m, n, k, threads)`` (:func:`log_distance` --
   shapes are similar when their *ratios* are, not their differences);
3. **project** the neighbour's schedule onto the query shape
   (:func:`project_schedule`: re-clamp ``mc``/``nc``/``kc`` to the query's
   divisor-constrained candidates and re-rank the variants with the
   analytic Eqn 13 model, keeping the neighbour's loop order, packing and
   micro-kernel options), attaching a model-projected confidence bound;
4. serve the projection immediately -- O(lookup), zero tuning trials on
   the request path -- while a **background upgrade**
   (:class:`FamilyUpgrader`) runs the real search off the request path and
   atomically publishes the winner to the registry, so the *next* call is
   an exact registry hit.

The resolution order in :class:`~repro.gemm.AutoGEMM` becomes::

    explicit > registry exact hit > family projection > session > auto_tune > heuristic

Telemetry: ``family.served`` / ``family.misses`` (projection path
consulted), ``family.upgrades_enqueued`` / ``family.upgrades_completed`` /
``family.upgrade_failed`` (background lifecycle), and a ``family.project``
span tagged with the band, distance, confidence, and source entry.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, replace

from .. import telemetry
from ..gemm.schedule import Schedule
from ..machine.chips import ChipSpec
from .prune import model_cost
from .registry import RegistryEntry, ScheduleRegistry
from .space import candidate_blocks

__all__ = [
    "FAMILIES",
    "classify_shape",
    "log_distance",
    "project_schedule",
    "FamilyProjection",
    "FamilyIndex",
    "FamilyUpgrader",
]

#: The shape-family bands, mirroring the paper's irregularity classes
#: (``LayerShape.kind`` uses the same thresholds; "square" here covers its
#: "rectangular" remainder).
FAMILIES = ("tall-skinny", "long-rectangle", "small-cube", "square")

#: ``max(m, n) / min(m, n)`` at or above which a shape stops being square.
ASPECT_RATIO = 8

#: Every-dimension bound of the small-cube band (the LIBXSMM regime:
#: operands fit last-level cache).
SMALL_MAX = 128

#: Default log2-distance radius inside which a neighbour is projectable.
#: 2.0 means the shapes agree dimension-wise within ~4x overall.
DEFAULT_MAX_DISTANCE = 2.0

#: Weight of the threads axis in the distance metric.  Blocking is far
#: less sensitive to the thread count than to the shape (the parallel
#: split happens above the cache blocks), so a threads=1 entry is a near
#: neighbour of the same shape at threads=4.
THREAD_WEIGHT = 0.5


def classify_shape(m: int, n: int, k: int) -> str:
    """The family band of a problem shape.

    Same thresholds as :attr:`repro.workloads.LayerShape.kind`: a shape is
    ``small-cube`` when every operand dimension is at most
    :data:`SMALL_MAX`; otherwise the ``m``/``n`` aspect ratio at
    :data:`ASPECT_RATIO` splits ``tall-skinny`` (``n >> m``) from
    ``long-rectangle`` (``m >> n``), and the remainder is ``square``.
    """
    if min(m, n, k) < 1:
        raise ValueError(f"shape dimensions must be >= 1, got {m}x{n}x{k}")
    if max(m, n) <= SMALL_MAX and k <= SMALL_MAX:
        return "small-cube"
    if n >= ASPECT_RATIO * m:
        return "tall-skinny"
    if m >= ASPECT_RATIO * n:
        return "long-rectangle"
    return "square"


def log_distance(
    a: tuple[int, int, int, int],
    b: tuple[int, int, int, int],
    thread_weight: float = THREAD_WEIGHT,
) -> float:
    """Log-scale Euclidean distance between two ``(m, n, k, threads)``.

    Each axis contributes ``log2(x/y)``: a 2x disagreement in one
    dimension costs 1.0 regardless of absolute size (64 vs 128 is as far
    as 1024 vs 2048 -- blocking decisions track ratios).  The threads axis
    is down-weighted by ``thread_weight``.
    """
    m1, n1, k1, t1 = a
    m2, n2, k2, t2 = b
    d2 = (
        math.log2(m1 / m2) ** 2
        + math.log2(n1 / n2) ** 2
        + math.log2(k1 / k2) ** 2
        + (thread_weight * math.log2(t1 / t2)) ** 2
    )
    return math.sqrt(d2)


@dataclass(frozen=True)
class FamilyProjection:
    """A schedule served from a family neighbour instead of a tune.

    ``predicted_cycles`` is the Eqn 13 model cost of the projected
    schedule on the *query* shape, rescaled by the source entry's
    measured/model ratio (the model's calibration at the neighbour) -- a
    confidence *bound*, not a measurement.  ``confidence`` decays with
    the neighbour distance: ``1 / (1 + distance)`` in (0, 1].
    """

    schedule: Schedule
    family: str
    source: RegistryEntry
    distance: float
    confidence: float
    predicted_cycles: float


def _nearest_candidates(candidates: tuple[int, ...], value: int, keep: int = 2) -> list[int]:
    """The ``keep`` candidates closest to ``value`` in log space."""
    return sorted(candidates, key=lambda c: abs(math.log2(c / value)))[:keep]


def project_schedule(
    entry: RegistryEntry, m: int, n: int, k: int, chip: ChipSpec
) -> tuple[Schedule, float]:
    """Project a tuned entry's schedule onto a query shape.

    Keeps the neighbour's loop order, packing mode and micro-kernel
    options (rotation, fusion, DMT/static tile choice) -- the parts of a
    schedule that generalize across a family -- and re-clamps the cache
    blocks: for each of ``mc``/``nc``/``kc`` the two divisor-constrained
    candidates of the *query* extent nearest the source block are crossed,
    the plain clip of the source blocks is added, and the analytic Eqn 13
    model ranks the variants.  Each variant is scored once; a cost tie goes
    to the first in that order (the plain clip first), never to hash
    order.  Returns ``(schedule, model_cycles)``.
    """
    base = entry.schedule
    lane = chip.sigma_lane
    variants = [base.clipped(m, n, k)]
    for mc in _nearest_candidates(candidate_blocks(m, chip), base.mc):
        for nc in _nearest_candidates(
            candidate_blocks(n, chip, min_block=min(lane, n)), base.nc
        ):
            for kc in _nearest_candidates(candidate_blocks(k, chip), base.kc):
                variants.append(
                    replace(base, mc=mc, nc=nc, kc=kc).clipped(m, n, k)
                )
    costs = {s: model_cost(s, m, n, k, chip) for s in dict.fromkeys(variants)}
    best = min(costs, key=costs.__getitem__)
    return best, costs[best]


class FamilyIndex:
    """Family-bucketed view of a registry's live entries for one chip.

    Rebuilt lazily whenever the registry's file signature changes, so a
    background upgrade (or another process's tune) landing in the file is
    visible to the next lookup without any explicit invalidation call.
    """

    def __init__(
        self,
        registry: ScheduleRegistry,
        chip: ChipSpec,
        max_distance: float = DEFAULT_MAX_DISTANCE,
        thread_weight: float = THREAD_WEIGHT,
    ) -> None:
        self.registry = registry
        self.chip = chip
        self.max_distance = max_distance
        self.thread_weight = thread_weight
        self._by_family: dict[str, list[RegistryEntry]] = {}
        self._built_sig: object = ()

    def refresh(self) -> None:
        """Rebuild the buckets if the registry changed on disk."""
        self.registry.refresh()
        sig = self.registry.signature
        if sig == self._built_sig:
            return
        buckets: dict[str, list[RegistryEntry]] = {}
        for entry in self.registry.live_entries(chip=self.chip.name):
            buckets.setdefault(
                classify_shape(entry.m, entry.n, entry.k), []
            ).append(entry)
        self._by_family = buckets
        self._built_sig = sig

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_family.values())

    def lookup(
        self, m: int, n: int, k: int, threads: int = 1
    ) -> FamilyProjection | None:
        """The nearest same-family projection, or None.

        O(entries-in-band) distance scan plus a constant number of model
        evaluations -- the whole point is that this is registry-lookup
        cheap, never tune-shaped.
        """
        with telemetry.span(
            "family.project", chip=self.chip.name, m=m, n=n, k=k,
            threads=threads,
        ) as sp:
            self.refresh()
            family = classify_shape(m, n, k)
            query = (m, n, k, threads)
            best: RegistryEntry | None = None
            best_d = math.inf
            for entry in self._by_family.get(family, ()):  # O(band)
                d = log_distance(
                    query,
                    (entry.m, entry.n, entry.k, entry.threads),
                    self.thread_weight,
                )
                if d < best_d:
                    best, best_d = entry, d
            if best is None or best_d > self.max_distance:
                sp.set(outcome="miss", family=family)
                return None
            schedule, model_cycles = project_schedule(best, m, n, k, self.chip)
            source_model = model_cost(
                best.schedule.clipped(best.m, best.n, best.k),
                best.m, best.n, best.k, self.chip,
            )
            calibration = (
                best.cycles / source_model
                if source_model > 0 and best.cycles > 0
                else 1.0
            )
            projection = FamilyProjection(
                schedule=schedule,
                family=family,
                source=best,
                distance=best_d,
                confidence=1.0 / (1.0 + best_d),
                predicted_cycles=model_cycles * calibration,
            )
            sp.set(
                outcome="served",
                family=family,
                distance=round(best_d, 3),
                confidence=round(projection.confidence, 3),
                source=f"{best.m}x{best.n}x{best.k}t{best.threads}",
            )
            return projection


class FamilyUpgrader:
    """Background tune-and-publish for family-served shapes.

    Each :meth:`enqueue` spawns (at most once per in-flight key) a daemon
    thread running the owning :class:`~repro.gemm.AutoGEMM`'s
    ``tune_result`` -- the same deterministic search a direct ``tune``
    call runs, publishing its winner through the registry's fsynced
    append, so the entry upgrades atomically from "projected, transient"
    to "tuned, persisted" and every other process observes it through the
    file.  Failures (injected faults, read-only registry) are absorbed
    and counted (``family.upgrade_failed``); the projection already
    served stays valid either way.
    """

    def __init__(self, lib) -> None:
        self._lib = lib
        self._pending: dict[tuple, threading.Thread] = {}
        self._lock = threading.Lock()
        #: Last upgrade failure, ``None`` when everything landed.
        self.last_error: str | None = None

    def enqueue(
        self,
        m: int,
        n: int,
        k: int,
        threads: int = 1,
        budget: int | None = None,
        seed: int = 0,
    ) -> bool:
        """Start a background upgrade for a key; False when one is already
        in flight for it or the registry already has the exact entry."""
        key = (m, n, k, threads)
        registry = self._lib.registry
        if registry is not None and registry.contains(
            self._lib.chip.name, m, n, k, threads
        ):
            return False
        with self._lock:
            if key in self._pending:
                return False
            thread = threading.Thread(
                target=self._run,
                args=(key, budget, seed),
                daemon=True,
                name=f"family-upgrade-{m}x{n}x{k}t{threads}",
            )
            self._pending[key] = thread
        telemetry.count("family.upgrades_enqueued")
        thread.start()
        return True

    def _run(self, key: tuple, budget: int | None, seed: int) -> None:
        m, n, k, threads = key
        try:
            self._lib.tune_result(
                m, n, k,
                budget=budget if budget is not None else self._lib.tune_budget,
                seed=seed,
                threads=threads,
                jobs=self._lib.tune_jobs,
            )
            telemetry.count("family.upgrades_completed")
        except Exception as exc:
            # A failed upgrade only costs the *next* caller a projection
            # instead of an exact hit; the served result was already out.
            self.last_error = f"{type(exc).__name__}: {exc}"
            telemetry.count("family.upgrade_failed")
        finally:
            with self._lock:
                self._pending.pop(key, None)

    def pending(self) -> list[tuple]:
        with self._lock:
            return sorted(self._pending)

    def drain(self, timeout: float | None = None) -> bool:
        """Wait for in-flight upgrades; True when none remain."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                threads = list(self._pending.values())
            if not threads:
                return True
            for thread in threads:
                remaining = (
                    None if deadline is None
                    else max(deadline - time.monotonic(), 0.0)
                )
                thread.join(remaining)
                if deadline is not None and time.monotonic() >= deadline:
                    with self._lock:
                        return not self._pending
