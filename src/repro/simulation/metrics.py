"""Throughput and latency aggregation.

The paper's data-collection process (Section V-B) computes throughput as
``T = N / (t2 - t1)`` where ``t1``/``t2`` are the earliest and latest
timestamps across all agents, and reports the producer's median and 99th
percentile latencies as the mean of per-round values.  The helpers here
implement exactly that aggregation so the benchmarking operator and the
simulation share one definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class LatencyStats:
    """Median / p99 / mean latency in milliseconds."""

    median_ms: float
    p99_ms: float
    mean_ms: float
    count: int

    @classmethod
    def from_samples(cls, samples_ms: Sequence[float]) -> "LatencyStats":
        array = np.asarray(samples_ms, dtype=float)
        if array.size == 0:
            return cls(0.0, 0.0, 0.0, 0)
        return cls(
            median_ms=float(np.percentile(array, 50)),
            p99_ms=float(np.percentile(array, 99)),
            mean_ms=float(array.mean()),
            count=int(array.size),
        )

    @classmethod
    def mean_of_rounds(cls, rounds: Iterable["LatencyStats"]) -> "LatencyStats":
        """Mean of per-round medians/p99s, as the paper reports."""
        rounds = [r for r in rounds if r.count > 0]
        if not rounds:
            return cls(0.0, 0.0, 0.0, 0)
        return cls(
            median_ms=float(np.mean([r.median_ms for r in rounds])),
            p99_ms=float(np.mean([r.p99_ms for r in rounds])),
            mean_ms=float(np.mean([r.mean_ms for r in rounds])),
            count=sum(r.count for r in rounds),
        )


@dataclass(frozen=True)
class ThroughputMeasurement:
    """Events/second over an interval, computed as N / (t2 - t1)."""

    events: int
    start_time: float
    end_time: float

    @property
    def elapsed_seconds(self) -> float:
        return max(self.end_time - self.start_time, 1e-12)

    @property
    def events_per_second(self) -> float:
        return self.events / self.elapsed_seconds

    @classmethod
    def from_agent_windows(
        cls, events: int, windows: Sequence[tuple[float, float]]
    ) -> "ThroughputMeasurement":
        """Aggregate over many agents: earliest start to latest end."""
        if not windows:
            return cls(events=events, start_time=0.0, end_time=1.0)
        starts, ends = zip(*windows)
        return cls(events=events, start_time=min(starts), end_time=max(ends))


def format_events_per_second(value: float) -> str:
    """Human formatting matching the paper's tables (e.g. ``4,289 K``)."""
    if value >= 1e6:
        return f"{value / 1e3:,.0f} K"
    if value >= 1e3:
        return f"{value / 1e3:,.0f} K"
    return f"{value:,.0f}"
