"""Resource monitors for the online task-scheduling application.

Each managed resource runs a Python monitor combining the Intel RAPL
energy counters and ``psutil`` utilization metrics, publishing samples to
Octopus so the FaaS scheduler can make energy-aware placement decisions
(Section VI-C).  Neither RAPL nor real hosts are available offline, so the
monitors synthesize realistic traces: power follows utilization plus an
idle floor, and utilization follows the load the caller reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.common.clock import Clock, SystemClock


@dataclass(frozen=True)
class ResourceSample:
    """One monitoring sample for one resource."""

    resource: str
    timestamp: float
    cpu_percent: float
    memory_percent: float
    power_watts: float
    energy_joules: float
    running_tasks: int

    def to_dict(self) -> dict:
        return {
            "resource": self.resource,
            "timestamp": self.timestamp,
            "cpu_percent": self.cpu_percent,
            "memory_percent": self.memory_percent,
            "power_watts": self.power_watts,
            "energy_joules": self.energy_joules,
            "running_tasks": self.running_tasks,
        }


class EnergyMonitor:
    """RAPL-like package energy counter driven by utilization."""

    def __init__(self, *, idle_watts: float = 45.0, peak_watts: float = 280.0) -> None:
        if peak_watts <= idle_watts:
            raise ValueError("peak_watts must exceed idle_watts")
        self.idle_watts = idle_watts
        self.peak_watts = peak_watts
        self._energy_joules = 0.0

    def power_at(self, cpu_fraction: float) -> float:
        cpu_fraction = float(np.clip(cpu_fraction, 0.0, 1.0))
        return self.idle_watts + (self.peak_watts - self.idle_watts) * cpu_fraction

    def accumulate(self, cpu_fraction: float, interval_seconds: float) -> float:
        """Add ``interval`` of consumption; returns cumulative joules."""
        self._energy_joules += self.power_at(cpu_fraction) * interval_seconds
        return self._energy_joules

    @property
    def energy_joules(self) -> float:
        return self._energy_joules


class ResourceUtilizationMonitor:
    """Per-resource monitor publishing samples to a sink (the SDK producer)."""

    def __init__(
        self,
        resource_name: str,
        *,
        num_cores: int = 96,
        sink: Optional[Callable[[dict], None]] = None,
        clock: Optional[Clock] = None,
        seed: int = 3,
    ) -> None:
        self.resource_name = resource_name
        self.num_cores = num_cores
        self.energy = EnergyMonitor()
        self._sink = sink
        self._clock: Clock = clock or SystemClock()
        self._rng = np.random.default_rng(seed)
        self._running_tasks = 0
        self.samples: List[ResourceSample] = []

    # ------------------------------------------------------------------ #
    def task_started(self, count: int = 1) -> None:
        self._running_tasks += count

    def task_finished(self, count: int = 1) -> None:
        self._running_tasks = max(0, self._running_tasks - count)

    @property
    def running_tasks(self) -> int:
        return self._running_tasks

    def cpu_fraction(self) -> float:
        """Utilization implied by the running task count (with jitter)."""
        base = min(1.0, self._running_tasks / self.num_cores)
        noise = float(self._rng.normal(0.0, 0.02))
        return float(np.clip(base + noise, 0.0, 1.0))

    # ------------------------------------------------------------------ #
    def sample(self, *, interval_seconds: float = 1.0) -> ResourceSample:
        """Take one sample and publish it to the sink."""
        cpu = self.cpu_fraction()
        energy = self.energy.accumulate(cpu, interval_seconds)
        sample = ResourceSample(
            resource=self.resource_name,
            timestamp=self._clock.now(),
            cpu_percent=cpu * 100.0,
            memory_percent=float(np.clip(20.0 + 60.0 * cpu + self._rng.normal(0, 2), 0, 100)),
            power_watts=self.energy.power_at(cpu),
            energy_joules=energy,
            running_tasks=self._running_tasks,
        )
        self.samples.append(sample)
        if self._sink is not None:
            self._sink(sample.to_dict())
        return sample

    def sample_window(self, samples: int, *, interval_seconds: float = 1.0) -> List[ResourceSample]:
        return [self.sample(interval_seconds=interval_seconds) for _ in range(samples)]
