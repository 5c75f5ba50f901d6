"""Online, energy-aware FaaS task scheduling (Section VI-C).

Each managed resource runs a monitor (RAPL + psutil) publishing power and
utilization samples to Octopus; the scheduler consumes those events to
maintain a model of every resource and place incoming tasks on the
resource expected to finish them with the best energy/performance
trade-off (the GreenFaaS-style scheduler the paper cites).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.sdk import OctopusClient
from repro.fabric.consumer import ConsumerConfig
from repro.monitoring.resources import ResourceUtilizationMonitor
from repro.services.compute import ComputeService, ComputeTask


@dataclass
class ResourceModel:
    """The scheduler's current belief about one resource."""

    name: str
    cpu_percent: float = 0.0
    power_watts: float = 0.0
    running_tasks: int = 0
    samples_seen: int = 0
    completed_tasks: int = 0
    total_runtime_seconds: float = 0.0
    total_energy_joules: float = 0.0

    @property
    def mean_task_runtime(self) -> float:
        if self.completed_tasks == 0:
            return 1.0
        return self.total_runtime_seconds / self.completed_tasks

    @property
    def energy_per_task(self) -> float:
        if self.completed_tasks == 0:
            return self.power_watts or 100.0
        return self.total_energy_joules / self.completed_tasks


class EnergyAwareScheduler:
    """Consumes monitoring events and places tasks on compute endpoints."""

    def __init__(
        self,
        client: OctopusClient,
        compute: ComputeService,
        *,
        topic: str = "resource-telemetry",
        power_weight: float = 0.5,
    ) -> None:
        if not 0.0 <= power_weight <= 1.0:
            raise ValueError("power_weight must be in [0, 1]")
        self.client = client
        self.compute = compute
        self.topic = topic
        self.power_weight = power_weight
        self.models: Dict[str, ResourceModel] = {}
        self.placements: List[dict] = []
        # One consumer group per telemetry topic: schedulers watching
        # different topics must not share a group, or a scheduler that
        # stops polling would hold the other's cooperative rebalance open.
        self._consumer = client.consumer(
            [topic],
            ConsumerConfig(
                group_id=f"faas-scheduler-{topic}", auto_offset_reset="earliest"
            ),
        )

    # ------------------------------------------------------------------ #
    # Telemetry ingestion
    # ------------------------------------------------------------------ #
    def ingest_telemetry(self) -> int:
        """Consume pending monitoring events; returns how many were applied."""
        applied = 0
        while True:
            records = self._consumer.poll_flat()
            if not records:
                break
            for record in records:
                sample = record.value
                model = self.models.setdefault(
                    sample["resource"], ResourceModel(name=sample["resource"])
                )
                model.cpu_percent = sample["cpu_percent"]
                model.power_watts = sample["power_watts"]
                model.running_tasks = sample["running_tasks"]
                model.samples_seen += 1
                applied += 1
        return applied

    def record_completion(self, task: ComputeTask) -> None:
        """Feed task outcomes back into the performance/energy model."""
        model = self.models.setdefault(task.endpoint, ResourceModel(name=task.endpoint))
        model.completed_tasks += 1
        model.total_runtime_seconds += task.runtime_seconds
        model.total_energy_joules += task.energy_joules

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #
    def score(self, model: ResourceModel) -> float:
        """Lower is better: weighted blend of expected runtime and energy.

        Runtime expectation grows with current utilization; energy
        expectation follows the observed per-task energy.
        """
        load_penalty = 1.0 + model.cpu_percent / 100.0
        runtime_component = model.mean_task_runtime * load_penalty
        energy_component = model.energy_per_task * load_penalty
        return (
            (1.0 - self.power_weight) * runtime_component
            + self.power_weight * energy_component / 100.0
        )

    def choose_resource(self) -> str:
        """Pick the best resource according to the current models."""
        if not self.models:
            endpoints = self.compute.endpoints()
            if not endpoints:
                raise RuntimeError("no compute endpoints registered")
            return endpoints[0].name
        return min(self.models.values(), key=self.score).name

    def submit_task(self, function_name: str, payload=None, *,
                    estimated_seconds: float = 1.0) -> ComputeTask:
        """Place one task using fresh telemetry."""
        self.ingest_telemetry()
        resource = self.choose_resource()
        task = self.compute.submit(
            resource, function_name, payload, estimated_seconds=estimated_seconds
        )
        self.placements.append({
            "task_id": task.task_id,
            "resource": resource,
            "function": function_name,
        })
        return task

    def placement_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for placement in self.placements:
            counts[placement["resource"]] = counts.get(placement["resource"], 0) + 1
        return counts


class SchedulingApplication:
    """Wires monitors, the telemetry topic, the compute service and the scheduler."""

    def __init__(
        self,
        client: OctopusClient,
        *,
        resources: Optional[List[str]] = None,
        topic: str = "resource-telemetry",
        power_weight: float = 0.5,
    ) -> None:
        self.client = client
        self.topic = topic
        client.register_topic(topic, {"num_partitions": 4})
        self._producer = client.producer()
        clock = client.service.cluster.clock
        self.compute = ComputeService(clock=clock)
        self.monitors: Dict[str, ResourceUtilizationMonitor] = {}
        for index, name in enumerate(resources or ["edge-node", "campus-cluster", "hpc-system"]):
            cores = 8 * (4 ** index)
            self.compute.register_endpoint(
                name, cores=cores, relative_speed=0.5 + 0.75 * index,
                power_watts_per_core=5.0 - 1.5 * index,
            )
            self.monitors[name] = ResourceUtilizationMonitor(
                name, num_cores=cores,
                sink=lambda sample, name=name: self._producer.send(
                    topic, sample, key=name
                ),
                clock=clock,
                seed=17 + index,
            )
        self.scheduler = EnergyAwareScheduler(
            client, self.compute, topic=topic, power_weight=power_weight
        )
        self.compute.on_task_complete = self._on_complete

    def _on_complete(self, task: ComputeTask) -> None:
        self.scheduler.record_completion(task)
        monitor = self.monitors.get(task.endpoint)
        if monitor is not None:
            monitor.task_finished()

    # ------------------------------------------------------------------ #
    def collect_telemetry(self, samples_per_resource: int = 1) -> int:
        """Every monitor publishes ``samples_per_resource`` samples."""
        published = 0
        for monitor in self.monitors.values():
            monitor.sample_window(samples_per_resource)
            published += samples_per_resource
        return published

    def run_workload(self, num_tasks: int, *, estimated_seconds: float = 1.0) -> List[ComputeTask]:
        """Submit a stream of tasks, interleaving telemetry and execution."""
        tasks: List[ComputeTask] = []
        for index in range(num_tasks):
            if index % 5 == 0:
                self.collect_telemetry()
            task = self.scheduler.submit_task(
                "analysis", {"index": index}, estimated_seconds=estimated_seconds
            )
            self.monitors[task.endpoint].task_started()
            tasks.append(task)
            self.compute.tick()
        self.compute.drain()
        return tasks
