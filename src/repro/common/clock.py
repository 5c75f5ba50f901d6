"""Clock abstraction.

Several Octopus behaviours are defined in terms of wall-clock intervals —
Lambda re-evaluates processing pressure every minute, consumers auto-commit
every few seconds, retention is measured in days.  Tests and the
benchmark harness cannot wait real minutes, so components that care about
time read a :class:`Clock` and the benchmarks drive a
:class:`ManualClock` forward deterministically.

There is one clock per deployment, handed down rather than re-read: a
component that holds a time-aware collaborator (a cluster, an auth server,
a client) takes that collaborator's clock before it grows a ``clock=``
seam of its own, and only a component with no such collaborator accepts
``clock=None`` (defaulting to :class:`SystemClock`).
"""

from __future__ import annotations

import time
from typing import Protocol


class Clock(Protocol):
    """Minimal clock interface: current time in seconds, and sleep."""

    def now(self) -> float:  # pragma: no cover - protocol signature
        ...

    def sleep(self, seconds: float) -> None:  # pragma: no cover - protocol signature
        ...


class SystemClock:
    """Real wall-clock time."""

    def now(self) -> float:
        return time.time()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class ManualClock:
    """A clock that only moves when told to.

    ``sleep`` advances the clock instead of blocking, so simulation loops
    and tests that exercise minute-scale policies run in microseconds.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        self.advance(seconds)

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("cannot move a clock backwards")
        self._now += seconds
        return self._now

    def set(self, timestamp: float) -> None:
        if timestamp < self._now:
            raise ValueError("cannot move a clock backwards")
        self._now = float(timestamp)
