"""Order statistics used by the benchmark.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it.  Percentiles use the nearest-rank
rule, so a reported p95 is always one of the measured values.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def nearest_rank(values, q: float) -> float:
    """The q-th percentile (0 < q <= 100) by the nearest-rank rule."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile of n."""
    return n - max(1, math.ceil(q / 100.0 * n))


def min_samples(q: float) -> int:
    """Smallest sample count whose q-th percentile has MIN_BEYOND beyond it."""
    n = 1
    while beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def median(values) -> float:
    return float(statistics.median(values))


def quartile_spread(values) -> float:
    """Distance between the first and third quartiles, as a share of the median.

    Uses statistics.quantiles(values, n=4) (the exclusive method), the
    rule the benchmark's acceptance check applies.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")
