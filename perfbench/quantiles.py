"""Order statistics shared by the runner, the suite and the comparison table."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple


def percentile(samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) with linear interpolation between
    closest ranks (numpy's default method)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be within 0..100; got {p}")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")
