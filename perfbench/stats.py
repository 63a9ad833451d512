"""Summary statistics the benchmark reports."""

from __future__ import annotations

import statistics

import numpy as np

#: Candidate tail percentiles, in per-mille so the "samples beyond" test
#: is exact integer arithmetic.
TAIL_LADDER_PERMILLE = (500, 750, 900, 950, 990, 999)

#: A tail percentile must leave at least this many samples above it.
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least :data:`MIN_BEYOND` of
    ``n`` samples beyond it, or None when even the median has fewer."""
    best = None
    for permille in TAIL_LADDER_PERMILLE:
        if n * (1000 - permille) >= MIN_BEYOND * 1000:
            best = permille / 10
    return best


def latency_summary(samples_s: list[float]) -> dict:
    """Median, tail and maximum of host latencies, in milliseconds, with
    the percentile the tail was taken at and the sample count."""
    n = len(samples_s)
    pct = tail_percentile(n)
    if pct is None:
        raise ValueError(
            f"{n} latency samples: need {2 * MIN_BEYOND} for any tail percentile"
        )
    ms = np.asarray(samples_s) * 1e3
    return {
        "p50_ms": float(np.percentile(ms, 50)),
        "tail_ms": float(np.percentile(ms, pct)),
        "tail_percentile": pct,
        "samples": n,
        "max_ms": float(ms.max()),
    }


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, the spread measure the benchmark is tuned to."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
