"""The few statistics the benchmark reports: percentile, quartiles, spread."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation between ranks."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them —
    the same rule the acceptance check applies to ten runs."""
    if len(samples) < 2:
        only = float(samples[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return q1, median, q3


def spread(samples: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(samples)
    return (q3 - q1) / median if median else 0.0
