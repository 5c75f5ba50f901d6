"""funcX / Globus-Compute-like federated function execution service.

The scheduling and epidemic applications dispatch work to remote compute
endpoints (edge devices up to supercomputers).  Endpoints register with a
capacity; tasks are submitted against an endpoint and executed when the
service is ticked, reporting runtime and energy so the scheduler can learn
from them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.common.clock import Clock, SystemClock

_task_ids = itertools.count(1)


@dataclass
class ComputeEndpoint:
    """A registered execution endpoint (one managed resource)."""

    name: str
    cores: int = 32
    relative_speed: float = 1.0
    power_watts_per_core: float = 3.0
    running: int = 0

    @property
    def available_cores(self) -> int:
        return max(0, self.cores - self.running)


@dataclass
class ComputeTask:
    """One function execution request."""

    task_id: str
    endpoint: str
    function_name: str
    payload: Any
    estimated_seconds: float
    submitted_at: float
    status: str = "PENDING"          # PENDING -> RUNNING -> COMPLETED | FAILED
    result: Any = None
    runtime_seconds: float = 0.0
    energy_joules: float = 0.0


class ComputeService:
    """Registers endpoints, queues tasks and executes them on ``tick``."""

    def __init__(
        self,
        *,
        on_task_complete: Optional[Callable[[ComputeTask], None]] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.clock: Clock = clock or SystemClock()
        self._endpoints: Dict[str, ComputeEndpoint] = {}
        self._tasks: Dict[str, ComputeTask] = {}
        self._queue: List[str] = []
        self._handlers: Dict[str, Callable[[Any], Any]] = {}
        self.on_task_complete = on_task_complete

    # ------------------------------------------------------------------ #
    # Endpoints and functions
    # ------------------------------------------------------------------ #
    def register_endpoint(self, name: str, *, cores: int = 32, relative_speed: float = 1.0,
                          power_watts_per_core: float = 3.0) -> ComputeEndpoint:
        endpoint = ComputeEndpoint(
            name=name, cores=cores, relative_speed=relative_speed,
            power_watts_per_core=power_watts_per_core,
        )
        self._endpoints[name] = endpoint
        return endpoint

    def endpoints(self) -> List[ComputeEndpoint]:
        return list(self._endpoints.values())

    def endpoint(self, name: str) -> ComputeEndpoint:
        return self._endpoints[name]

    def register_function(self, name: str, handler: Callable[[Any], Any]) -> None:
        self._handlers[name] = handler

    # ------------------------------------------------------------------ #
    # Task lifecycle
    # ------------------------------------------------------------------ #
    def submit(self, endpoint: str, function_name: str, payload: Any = None,
               *, estimated_seconds: float = 1.0) -> ComputeTask:
        if endpoint not in self._endpoints:
            raise KeyError(f"endpoint {endpoint!r} is not registered")
        task = ComputeTask(
            task_id=f"task-{next(_task_ids):08d}",
            endpoint=endpoint,
            function_name=function_name,
            payload=payload,
            estimated_seconds=estimated_seconds,
            submitted_at=self.clock.now(),
        )
        self._tasks[task.task_id] = task
        self._queue.append(task.task_id)
        return task

    def tick(self) -> List[ComputeTask]:
        """Run every queued task whose endpoint has a free core."""
        completed: List[ComputeTask] = []
        remaining: List[str] = []
        for task_id in self._queue:
            task = self._tasks[task_id]
            endpoint = self._endpoints[task.endpoint]
            if endpoint.available_cores <= 0:
                remaining.append(task_id)
                continue
            endpoint.running += 1
            task.status = "RUNNING"
            handler = self._handlers.get(task.function_name)
            try:
                task.result = handler(task.payload) if handler is not None else None
                task.status = "COMPLETED"
            except Exception as exc:  # noqa: BLE001 - task failures are data
                task.result = f"{type(exc).__name__}: {exc}"
                task.status = "FAILED"
            task.runtime_seconds = task.estimated_seconds / endpoint.relative_speed
            task.energy_joules = (
                task.runtime_seconds * endpoint.power_watts_per_core
            )
            endpoint.running -= 1
            completed.append(task)
            if self.on_task_complete is not None:
                self.on_task_complete(task)
        self._queue = remaining
        return completed

    def drain(self, max_ticks: int = 1000) -> List[ComputeTask]:
        """Tick until the queue is empty."""
        completed: List[ComputeTask] = []
        for _ in range(max_ticks):
            if not self._queue:
                break
            completed.extend(self.tick())
        return completed

    # ------------------------------------------------------------------ #
    def task(self, task_id: str) -> ComputeTask:
        return self._tasks[task_id]

    def tasks(self, *, status: Optional[str] = None) -> List[ComputeTask]:
        out = list(self._tasks.values())
        if status is not None:
            out = [t for t in out if t.status == status]
        return out

    def queued(self) -> int:
        return len(self._queue)
