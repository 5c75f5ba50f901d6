"""CloudWatch-like log groups and metrics.

When OWS registers a trigger it also creates "the appropriate IAM policy,
IAM role, and CloudWatch log group to manage and monitor the Lambda
function" (Section IV-D).  The log service here provides per-function log
groups (invocation start/end/error lines) and simple metric aggregation
(invocations, errors, duration percentiles) that the admin consoles in
Figure 2 would display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import fmean
from typing import Dict, List, Optional, Sequence


def percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of an ascending, non-empty sequence, linearly
    interpolated between the two nearest ranks (``numpy.percentile``'s
    default definition and arithmetic)."""
    rank = q / 100.0 * (len(ordered) - 1)
    below = ordered[math.floor(rank)]
    above = ordered[math.ceil(rank)]
    weight = rank - math.floor(rank)
    if weight < 0.5:
        return below + (above - below) * weight
    return above - (above - below) * (1.0 - weight)


@dataclass(frozen=True)
class LogEvent:
    """One log line in a log group."""

    timestamp: float
    message: str
    level: str = "INFO"
    fields: dict = field(default_factory=dict)


@dataclass
class LogGroup:
    """An append-only group of log events for one function/component."""

    name: str
    events: List[LogEvent] = field(default_factory=list)
    retention_days: int = 7

    def put(self, message: str, *, timestamp: float, level: str = "INFO",
            **fields) -> LogEvent:
        event = LogEvent(
            timestamp=timestamp,
            message=message,
            level=level,
            fields=dict(fields),
        )
        self.events.append(event)
        return event

    def filter(self, *, level: Optional[str] = None, contains: Optional[str] = None) -> List[LogEvent]:
        out = self.events
        if level is not None:
            out = [e for e in out if e.level == level]
        if contains is not None:
            out = [e for e in out if contains in e.message]
        return list(out)

    def __len__(self) -> int:
        return len(self.events)


class LogService:
    """Holds log groups and per-function invocation metrics."""

    def __init__(self) -> None:
        self._groups: Dict[str, LogGroup] = {}
        self._durations: Dict[str, List[float]] = {}
        self._errors: Dict[str, int] = {}
        self._invocations: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def group(self, name: str) -> LogGroup:
        if name not in self._groups:
            self._groups[name] = LogGroup(name=name)
        return self._groups[name]

    def groups(self) -> List[str]:
        return sorted(self._groups)

    # ------------------------------------------------------------------ #
    def record_invocation(
        self, function_name: str, duration_seconds: float, *, error: bool = False
    ) -> None:
        self._invocations[function_name] = self._invocations.get(function_name, 0) + 1
        self._durations.setdefault(function_name, []).append(duration_seconds)
        if error:
            self._errors[function_name] = self._errors.get(function_name, 0) + 1

    def metrics(self, function_name: str) -> dict:
        """Aggregate invocation metrics for one function."""
        # A function never invoked reports 0.0 for all three.
        durations = sorted(self._durations.get(function_name, ())) or [0.0]
        return {
            "invocations": self._invocations.get(function_name, 0),
            "errors": self._errors.get(function_name, 0),
            "duration_mean_s": fmean(durations),
            "duration_p50_s": percentile(durations, 50),
            "duration_p99_s": percentile(durations, 99),
        }
