"""Invocation engine for deployed functions.

Octopus triggers must be *robust* (failures detected, actions retried) and
*scalable* (many triggers at once) — Section IV-D.  The executor invokes a
registered function synchronously, records duration and errors in the log
service, retries failed invocations up to a configurable limit, and tracks
concurrency so the autoscaler can reason about in-flight work.
"""

from __future__ import annotations

import itertools
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.common.clock import Clock, SystemClock
from repro.faas.function import FunctionDefinition, FunctionRegistry, InvocationContext
from repro.faas.logs import LogService


@dataclass(frozen=True)
class InvocationResult:
    """Outcome of one function invocation (after retries)."""

    function_name: str
    invocation_id: str
    success: bool
    response: Any
    error: Optional[str]
    duration_seconds: float
    attempts: int
    billed_duration_seconds: float


@dataclass
class ExecutorStats:
    """Aggregate executor counters."""

    invocations: int = 0
    errors: int = 0
    retries: int = 0
    throttles: int = 0
    total_billed_seconds: float = 0.0


class LambdaExecutor:
    """Invokes functions with retry, concurrency accounting and logging."""

    def __init__(
        self,
        registry: Optional[FunctionRegistry] = None,
        logs: Optional[LogService] = None,
        *,
        max_retries: int = 2,
        reserved_concurrency: Optional[int] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.registry = registry or FunctionRegistry()
        self.logs = logs or LogService()
        self.max_retries = max_retries
        self.reserved_concurrency = reserved_concurrency
        self.clock = clock or SystemClock()
        self.stats = ExecutorStats()
        self._invocation_ids = itertools.count(1)
        self._in_flight = 0
        self._in_flight_by_function: Dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def in_flight_for(self, function_name: str) -> int:
        """In-flight invocations of one function (per-trigger autoscaling)."""
        with self._lock:
            return self._in_flight_by_function.get(function_name, 0)

    def _acquire_slot(self, function_name: str) -> bool:
        with self._lock:
            if (
                self.reserved_concurrency is not None
                and self._in_flight >= self.reserved_concurrency
            ):
                self.stats.throttles += 1
                return False
            self._in_flight += 1
            self._in_flight_by_function[function_name] = (
                self._in_flight_by_function.get(function_name, 0) + 1
            )
            return True

    def _release_slot(self, function_name: str) -> None:
        with self._lock:
            self._in_flight -= 1
            self._in_flight_by_function[function_name] -= 1

    # ------------------------------------------------------------------ #
    def invoke(self, function_name: str, event: dict) -> InvocationResult:
        """Invoke ``function_name`` with ``event``; retry on handler errors."""
        definition = self.registry.get(function_name)
        if not self._acquire_slot(function_name):
            return InvocationResult(
                function_name=function_name,
                invocation_id="throttled",
                success=False,
                response=None,
                error="Throttled: reserved concurrency exhausted",
                duration_seconds=0.0,
                attempts=0,
                billed_duration_seconds=0.0,
            )
        try:
            return self._invoke_with_retries(definition, event)
        finally:
            self._release_slot(function_name)

    # ------------------------------------------------------------------ #
    def _invoke_with_retries(
        self, definition: FunctionDefinition, event: dict
    ) -> InvocationResult:
        invocation_id = f"inv-{next(self._invocation_ids):08d}"
        group = self.logs.group(f"/aws/lambda/{definition.name}")
        response: Any = None
        last_error: Optional[str] = None
        total_duration = 0.0
        for attempt in range(1, self.max_retries + 2):
            context = InvocationContext(
                function_name=definition.name,
                invocation_id=invocation_id,
                invoked_at=self.clock.now(),
                memory_mb=definition.memory_mb,
                timeout_seconds=definition.timeout_seconds,
                attempt=attempt,
            )
            group.put(
                f"START RequestId: {invocation_id} attempt={attempt}",
                timestamp=context.invoked_at,
            )
            started = time.perf_counter()
            try:
                response = definition.handler(event, context)
            except Exception as exc:  # noqa: BLE001 - handler errors are data here
                duration = self._measured_duration(definition, started)
                total_duration += duration
                last_error = f"{type(exc).__name__}: {exc}"
                group.put(
                    f"ERROR RequestId: {invocation_id} {last_error}",
                    level="ERROR",
                    timestamp=self.clock.now(),
                    traceback=traceback.format_exc(limit=3),
                )
                self.logs.record_invocation(definition.name, duration, error=True)
                self.stats.invocations += 1
                self.stats.errors += 1
                if attempt <= self.max_retries:
                    self.stats.retries += 1
                    continue
            else:
                duration = self._measured_duration(definition, started)
                total_duration += duration
                last_error = None
                group.put(
                    f"END RequestId: {invocation_id} duration={duration * 1000:.2f}ms",
                    timestamp=self.clock.now(),
                )
                self.logs.record_invocation(definition.name, duration, error=False)
                self.stats.invocations += 1
            break
        # Failed final attempts are billed too (Lambda semantics).
        self.stats.total_billed_seconds += total_duration
        return InvocationResult(
            function_name=definition.name,
            invocation_id=invocation_id,
            success=last_error is None,
            response=response,
            error=last_error,
            duration_seconds=total_duration,
            attempts=attempt,
            billed_duration_seconds=total_duration,
        )

    @staticmethod
    def _measured_duration(definition: FunctionDefinition, started: float) -> float:
        if definition.simulated_duration_seconds is not None:
            return definition.simulated_duration_seconds
        return time.perf_counter() - started
