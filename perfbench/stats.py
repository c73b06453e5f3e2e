"""Order statistics used for every reported timing."""

from __future__ import annotations

import math

# Percentiles the tail rule may report, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def beyond(n: int, p: float) -> int:
    """Samples strictly above the p-th percentile rank of n samples."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND samples beyond it."""
    for p in TAIL_CANDIDATES:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None
