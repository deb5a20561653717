"""Order statistics and the before/after verdict rules of the benchmark.

Pure functions over lists of numbers, shared by the benchmark run
(percentiles of operation latencies) and by ``compare.py`` (medians,
quartile spreads and verdicts over sets of runs).
"""

from __future__ import annotations

import statistics

# Percentiles the benchmark may report, highest first.
PERCENTILES = (0.999, 0.99, 0.9, 0.5)


def percentile(values: list[float], p: float) -> float:
    """The p-quantile by the exclusive rule of ``statistics.quantiles``.

    The median is ``statistics.median``; other quantiles interpolate at
    rank p*(n+1), clamped to the sample range.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if p == 0.5 or len(values) == 1:
        return statistics.median(values)
    xs = sorted(values)
    rank = p * (len(xs) + 1)
    lo = min(max(int(rank), 1), len(xs))
    hi = min(lo + 1, len(xs))
    frac = min(max(rank - lo, 0.0), 1.0)
    return xs[lo - 1] + frac * (xs[hi - 1] - xs[lo - 1])


def supported_percentile(n: int) -> float | None:
    """The highest reportable percentile with at least ten samples beyond it."""
    for p in PERCENTILES:
        if n * (1 - p) >= 10 - 1e-9:
            return p
    return None


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    """One of 'better', 'unchanged', 'worse' or 'unresolved'.

    Runs are paired by position.  'better': the change wins at least nine
    tenths of the pairs (ties count for neither side) and the medians differ
    by more than the parent's quartile distance.  When the parent's spread is
    wider than the bound, the verdict is 'unresolved' unless every run of the
    change reads better than every run of the parent.  'worse': the change's
    median is worse than the parent's by more than ``bound`` times it.
    """
    if not parent or not change:
        raise ValueError("verdict needs runs on both sides")
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pairs = min(len(parent), len(change))
    if len(parent) >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
        p_iqr = q3 - q1
    else:
        p_iqr = 0.0
    if spread(parent) > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "better"
        return "unresolved"
    if wins >= 0.9 * pairs and abs(c_med - p_med) > p_iqr:
        return "better"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "worse"
    return "unchanged"
