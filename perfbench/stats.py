"""Order statistics used by the benchmark and its spread check."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile that still has TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond). With too few samples for
    that, the maximum is returned as the 100th percentile with none beyond.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    idx = n - TAIL_BEYOND - 1
    return xs[idx], 100.0 * (idx + 1) / n, n - idx - 1


def quartile_spread(values: list[float]) -> dict:
    """Median, quartiles and (q3 - q1) / |median|, as the spread check takes them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        spread = 0.0 if q3 == q1 else float("inf")
    else:
        spread = (q3 - q1) / abs(median)
    return {"q1": q1, "median": median, "q3": q3, "spread": spread}
