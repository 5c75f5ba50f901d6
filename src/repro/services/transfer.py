"""Globus-Transfer-like data movement service.

The data-automation trigger responds to file-creation events by submitting
a transfer request from the source filesystem to the destination
(Section VI-B).  The service is asynchronous: ``submit`` returns a task id
immediately and the transfer completes when the service is ``advance``-d
(or instantly when ``auto_complete`` is on, which keeps simple examples
simple).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.clock import Clock, SystemClock

_task_ids = itertools.count(1)


@dataclass
class TransferTask:
    """One submitted transfer."""

    task_id: str
    source_endpoint: str
    destination_endpoint: str
    source_path: str
    destination_path: str
    size_bytes: int
    submitted_at: float
    status: str = "ACTIVE"           # ACTIVE -> SUCCEEDED | FAILED
    completed_at: Optional[float] = None
    principal: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "source": f"{self.source_endpoint}:{self.source_path}",
            "destination": f"{self.destination_endpoint}:{self.destination_path}",
            "size": self.size_bytes,
            "status": self.status,
        }


class TransferService:
    """Accepts transfer requests and tracks their lifecycle."""

    def __init__(
        self,
        *,
        bandwidth_mbps: float = 10_000.0,
        auto_complete: bool = True,
        on_complete: Optional[Callable[[TransferTask], None]] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.clock: Clock = clock or SystemClock()
        self.bandwidth_mbps = bandwidth_mbps
        self.auto_complete = auto_complete
        self.on_complete = on_complete
        self._tasks: Dict[str, TransferTask] = {}
        self._failures: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    def submit(
        self,
        *,
        source_endpoint: str,
        destination_endpoint: str,
        source_path: str,
        destination_path: Optional[str] = None,
        size_bytes: int = 0,
        principal: Optional[str] = None,
    ) -> TransferTask:
        """Submit a transfer; returns the task (ACTIVE or already SUCCEEDED)."""
        task = TransferTask(
            task_id=f"transfer-{next(_task_ids):08d}",
            source_endpoint=source_endpoint,
            destination_endpoint=destination_endpoint,
            source_path=source_path,
            destination_path=destination_path or source_path,
            size_bytes=size_bytes,
            submitted_at=self.clock.now(),
            principal=principal,
        )
        self._tasks[task.task_id] = task
        if self.auto_complete:
            self._complete(task)
        return task

    def inject_failure(self, source_path: str, reason: str = "endpoint unreachable") -> None:
        """Make the next transfer of ``source_path`` fail (failure injection)."""
        self._failures[source_path] = reason

    def advance(self) -> List[TransferTask]:
        """Complete every ACTIVE transfer (one service 'tick')."""
        finished = []
        for task in self._tasks.values():
            if task.status == "ACTIVE":
                self._complete(task)
                finished.append(task)
        return finished

    def _complete(self, task: TransferTask) -> None:
        if task.source_path in self._failures:
            task.status = "FAILED"
            del self._failures[task.source_path]
        else:
            task.status = "SUCCEEDED"
        task.completed_at = self.clock.now()
        if self.on_complete is not None:
            self.on_complete(task)

    # ------------------------------------------------------------------ #
    def status(self, task_id: str) -> str:
        return self._tasks[task_id].status

    def task(self, task_id: str) -> TransferTask:
        return self._tasks[task_id]

    def tasks(self, *, status: Optional[str] = None) -> List[TransferTask]:
        out = list(self._tasks.values())
        if status is not None:
            out = [t for t in out if t.status == status]
        return out

    def transfer_time_seconds(self, size_bytes: int) -> float:
        """Estimated duration of a transfer at the configured bandwidth."""
        return (size_bytes * 8.0) / (self.bandwidth_mbps * 1e6)
