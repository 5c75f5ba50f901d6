"""Scientific data automation: hierarchical filesystem synchronization.

Reproduces the EDA of Section VI-B / Figure 6 (left): an FSMon instance per
parallel filesystem publishes raw events to a *local* fabric topic; a local
aggregator forwards only unique file-creation events to the *global*
Octopus topic; an Octopus trigger filtered with the Listing 1 pattern
submits a Globus-Transfer request replicating each new file to the other
filesystems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.octopus import OctopusDeployment
from repro.core.sdk import OctopusClient
from repro.faas.function import FunctionDefinition
from repro.fabric.cluster import FabricCluster
from repro.fabric.producer import FabricProducer
from repro.fabric.topic import TopicConfig
from repro.monitoring.aggregator import LocalAggregator
from repro.monitoring.fsmon import FileSystemMonitor
from repro.services.transfer import TransferService

#: The EventBridge pattern from Listing 1 of the paper.
CREATED_PATTERN = {"value": {"event_type": ["created"]}}


@dataclass
class SiteState:
    """One facility: its filesystem monitor, local fabric and aggregator."""

    name: str
    monitor: FileSystemMonitor
    local_cluster: FabricCluster
    local_producer: FabricProducer
    aggregator: LocalAggregator
    raw_events: int = 0


class DataAutomationPipeline:
    """End-to-end FS synchronization pipeline over Octopus."""

    def __init__(
        self,
        deployment: OctopusDeployment,
        client: OctopusClient,
        *,
        sites: Optional[List[str]] = None,
        global_topic: str = "fsmon-global",
        transfer_service: Optional[TransferService] = None,
    ) -> None:
        self.deployment = deployment
        self.client = client
        self.global_topic = global_topic
        self.transfer = transfer_service or TransferService(
            clock=deployment.cluster.clock
        )
        self.replicated: List[dict] = []
        client.register_topic(global_topic, {"num_partitions": 4})
        self._global_producer = client.producer()
        self.sites: Dict[str, SiteState] = {}
        for site in sites or ["fs1", "fs2"]:
            self.add_site(site)
        self._deploy_trigger()

    # ------------------------------------------------------------------ #
    # Site (edge) setup
    # ------------------------------------------------------------------ #
    def add_site(self, name: str) -> SiteState:
        """Stand up the edge stack of one facility."""
        clock = self.deployment.cluster.clock
        local_cluster = FabricCluster(
            num_brokers=1, name=f"{name}-local-kafka", clock=clock
        )
        local_cluster.admin().create_topic("fsmon-raw", TopicConfig(num_partitions=1))
        local_producer = FabricProducer(local_cluster)
        aggregator = LocalAggregator(
            interesting_types=("created",),
            publish=lambda event, site=name: self._publish_global(site, event),
        )
        monitor = FileSystemMonitor(name, clock=clock)
        site = SiteState(
            name=name,
            monitor=monitor,
            local_cluster=local_cluster,
            local_producer=local_producer,
            aggregator=aggregator,
        )

        def on_fs_event(fs_event, site=site):
            site.raw_events += 1
            site.local_producer.send("fsmon-raw", fs_event.to_dict(), key=fs_event.path)
            site.aggregator.offer(fs_event.to_dict())

        monitor.set_sink(on_fs_event)
        self.sites[name] = site
        return site

    def _publish_global(self, site: str, event: dict) -> None:
        self._global_producer.send(
            self.global_topic, event, key=event.get("path"),
            headers={"site": site},
        )

    # ------------------------------------------------------------------ #
    # Cloud trigger
    # ------------------------------------------------------------------ #
    def _deploy_trigger(self) -> None:
        def replicate_handler(payload: dict, context) -> int:
            started = 0
            for record in payload["records"]:
                event = record["value"]
                source = event.get("filesystem", "unknown")
                for destination in self.sites:
                    if destination == source:
                        continue
                    task = self.transfer.submit(
                        source_endpoint=source,
                        destination_endpoint=destination,
                        source_path=event["path"],
                        size_bytes=event.get("size", 0),
                        principal=self.client.principal,
                    )
                    self.replicated.append({
                        "path": event["path"],
                        "source": source,
                        "destination": destination,
                        "task_id": task.task_id,
                        "status": task.status,
                    })
                    started += 1
            return started

        self.deployment.triggers.register_function(
            FunctionDefinition(name="replicate-new-files", handler=replicate_handler)
        )
        trigger = self.client.create_trigger(
            self.global_topic,
            "replicate-new-files",
            filter_pattern=CREATED_PATTERN,
            batch_size=100,
        )
        self.trigger_id = trigger["trigger_id"]

    # ------------------------------------------------------------------ #
    # Driving the pipeline
    # ------------------------------------------------------------------ #
    def ingest_instrument_output(self, site: str, directory: str, num_files: int,
                                 *, size_bytes: int = 1 << 20) -> None:
        """Simulate an instrument writing files at one site."""
        self.sites[site].monitor.simulate_experiment_output(
            directory, num_files, size_bytes=size_bytes
        )

    def process(self) -> Dict[str, int]:
        """Run the cloud triggers (the Lambda pollers) and complete transfers."""
        invocations = self.deployment.triggers.process_pending(self.trigger_id)
        self.transfer.advance()
        return invocations

    def apply_replications(self) -> int:
        """Materialise successful transfers on the destination filesystems.

        Returns the number of files copied.  Destination ``create`` events
        are suppressed by the aggregator's deduplication (same path), so
        replication does not echo back and forth between sites.
        """
        copied = 0
        for entry in self.replicated:
            task = self.transfer.task(entry["task_id"])
            entry["status"] = task.status
            if task.status != "SUCCEEDED":
                continue
            destination = self.sites[entry["destination"]]
            if not destination.monitor.exists(entry["path"]):
                # Suppress the create event the replication itself generates,
                # so synchronized files do not echo back to their source.
                destination.aggregator.mark_seen(
                    {"event_type": "created", "path": entry["path"]}
                )
                destination.monitor.create_file(entry["path"], task.size_bytes)
                copied += 1
        return copied

    def synchronize(self) -> Dict[str, int]:
        """One full pipeline pass: trigger, transfer, apply. Returns a summary."""
        self.process()
        copied = self.apply_replications()
        return {
            "transfers_submitted": len(self.replicated),
            "files_copied": copied,
            "pending_events": self.deployment.triggers.get_trigger(
                self.trigger_id
            ).mapping.pending_events(),
        }

    # ------------------------------------------------------------------ #
    def reduction_report(self) -> Dict[str, dict]:
        """Edge-aggregation statistics per site (the hierarchical filtering win)."""
        return {
            name: {
                "raw_events": site.raw_events,
                "forwarded": site.aggregator.stats.events_out,
                "reduction_factor": site.aggregator.stats.reduction_factor,
            }
            for name, site in self.sites.items()
        }

    def file_inventory(self) -> Dict[str, int]:
        """Number of files visible on each filesystem."""
        return {name: len(site.monitor.files()) for name, site in self.sites.items()}
