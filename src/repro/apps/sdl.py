"""Self-driving laboratory (SDL) event logging and provenance.

The SDL at Argonne uses Octopus as a global log of distributed actions
spanning robots, HPC resources and data services (Section VI-A).  Every
workflow step publishes an event; the log is consumed to monitor live
experiments, reconstruct provenance chains and summarise throughput for
administrators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.sdk import OctopusClient
from repro.fabric.consumer import ConsumerConfig

#: The stages an SDL experiment moves through, in order.
EXPERIMENT_STAGES = (
    "designed",
    "queued",
    "preparing_sample",
    "running_instrument",
    "collecting_results",
    "analyzing",
    "completed",
)


@dataclass(frozen=True)
class SDLEvent:
    """One step of one experiment on one instrument."""

    experiment_id: str
    instrument: str
    action: str
    timestamp: float
    metadata: Dict[str, Any]

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "instrument": self.instrument,
            "action": self.action,
            "timestamp": self.timestamp,
            "metadata": dict(self.metadata),
        }


class SelfDrivingLab:
    """Publishes SDL workflow events to Octopus and reads them back."""

    def __init__(self, client: OctopusClient, *, topic: str = "sdl-event-log",
                 num_partitions: int = 2) -> None:
        self.client = client
        self.topic = topic
        # Event times and stall ages ride the client's cluster clock.
        self._clock = client.service.cluster.clock
        client.register_topic(topic, {"num_partitions": num_partitions})
        self._producer = client.producer()

    # ------------------------------------------------------------------ #
    # Event production (instruments / robots / analysis jobs)
    # ------------------------------------------------------------------ #
    def record_action(
        self,
        experiment_id: str,
        instrument: str,
        action: str,
        *,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> SDLEvent:
        """Record one action, stamped now; events for one experiment stay ordered."""
        event = SDLEvent(
            experiment_id=experiment_id,
            instrument=instrument,
            action=action,
            timestamp=self._clock.now(),
            metadata=dict(metadata or {}),
        )
        # Keyed by experiment so per-experiment ordering is preserved.
        self._producer.send(self.topic, event.to_dict(), key=experiment_id)
        return event

    def run_experiment(
        self, experiment_id: str, instrument: str, *, results: Optional[dict] = None
    ) -> List[SDLEvent]:
        """Drive one experiment through every stage (a full campaign step)."""
        events = []
        for stage in EXPERIMENT_STAGES:
            metadata = {}
            if stage == "completed" and results:
                metadata["results"] = results
            events.append(self.record_action(experiment_id, instrument, stage,
                                             metadata=metadata))
        return events

    # ------------------------------------------------------------------ #
    # Event consumption (dashboards, provenance, error detection)
    # ------------------------------------------------------------------ #
    def event_log(self) -> List[dict]:
        """The complete global log (what the dashboard renders)."""
        return self.client.read_all(self.topic, group_id="sdl-dashboard")

    def provenance(self, experiment_id: str) -> List[dict]:
        """Ordered action history of one experiment (lineage/repro record)."""
        events = [e for e in self.event_log() if e["experiment_id"] == experiment_id]
        return sorted(events, key=lambda e: e["timestamp"])

    def experiment_status(self) -> Dict[str, str]:
        """Latest stage of every experiment (the monitoring view)."""
        status: Dict[str, tuple] = {}
        for event in self.event_log():
            current = status.get(event["experiment_id"])
            if current is None or event["timestamp"] >= current[0]:
                status[event["experiment_id"]] = (event["timestamp"], event["action"])
        return {exp: action for exp, (_, action) in status.items()}

    def detect_stalled(self, *, timeout_seconds: float = 3600.0) -> List[str]:
        """Experiments whose last event is old and not terminal (error detection)."""
        now = self._clock.now()
        latest: Dict[str, tuple] = {}
        for event in self.event_log():
            current = latest.get(event["experiment_id"])
            if current is None or event["timestamp"] >= current[0]:
                latest[event["experiment_id"]] = (event["timestamp"], event["action"])
        return sorted(
            exp
            for exp, (ts, action) in latest.items()
            if action != "completed" and now - ts > timeout_seconds
        )

    def throughput_summary(self) -> Dict[str, int]:
        """Experiments completed per instrument (the admin throughput view)."""
        summary: Dict[str, int] = {}
        for event in self.event_log():
            if event["action"] == "completed":
                summary[event["instrument"]] = summary.get(event["instrument"], 0) + 1
        return summary

    def live_monitor(self, group_id: str = "sdl-live"):
        """A consumer positioned at the end of the log (near-real-time view)."""
        return self.client.consumer(
            [self.topic],
            ConsumerConfig(group_id=group_id, auto_offset_reset="latest"),
        )
