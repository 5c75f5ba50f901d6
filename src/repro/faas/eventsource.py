"""Event-source mappings: topic → filter → function.

Each Octopus trigger is implemented as an AWS Lambda fed by an MSK
event-source mapping: the mapping owns a dedicated consumer group on the
target topic (so many trigger instances can drain events without
disturbing other consumers), accumulates events into batches of up to
10,000 records or 6 MB, optionally filters them with an EventBridge
pattern, and invokes the function once per batch (Section IV-D).

The mapping runs a *fleet* of pollers — one fabric consumer per unit of
concurrency — in that consumer group.  :meth:`EventSourceMapping.set_concurrency`
grows or shrinks the fleet as the processing-pressure autoscaler directs,
and because the group coordinator rebalances cooperatively (sticky
assignment, revoke-then-assign), a scale event only moves the minimal
partition delta: surviving pollers keep fetching their retained
partitions from where they were while the fleet resizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.fabric.cluster import FabricCluster
from repro.fabric.consumer import ConsumerConfig, FabricConsumer
from repro.fabric.errors import IllegalGenerationError
from repro.fabric.record import StoredRecord
from repro.faas.executor import InvocationResult, LambdaExecutor
from repro.faas.patterns import EventPattern

#: Hard limits from the paper / AWS: batches of up to 10,000 events or 6 MB.
MAX_BATCH_SIZE = 10_000
MAX_BATCH_BYTES = 6 * 1024 * 1024

_mapping_ids = itertools.count(1)

#: Each top-level field of :meth:`EventSourceMapping._record_to_event`, read off a record.
_EVENT_FIELDS = {
    "topic": lambda record, topic, partition: topic,
    "partition": lambda record, topic, partition: partition,
    "offset": lambda record, topic, partition: record.offset,
    "timestamp": lambda record, topic, partition: record.timestamp,
    "key": lambda record, topic, partition: record.key,
    "value": lambda record, topic, partition: record.value,
    "headers": lambda record, topic, partition: dict(record.record.headers),
}


@dataclass(frozen=True)
class EventSourceConfig:
    """User-tunable event-source settings (batch size, window, filter)."""

    batch_size: int = 100
    batch_window_seconds: float = 0.0
    filter_pattern: Optional[dict] = None
    starting_position: str = "earliest"

    def validate(self) -> None:
        if not 1 <= self.batch_size <= MAX_BATCH_SIZE:
            raise ValueError(f"batch_size must be in [1, {MAX_BATCH_SIZE}]")
        if self.batch_window_seconds < 0:
            raise ValueError("batch_window_seconds must be >= 0")
        if self.starting_position not in ("earliest", "latest"):
            raise ValueError("starting_position must be 'earliest' or 'latest'")


@dataclass
class MappingStats:
    """Counters for one event-source mapping."""

    polls: int = 0
    records_read: int = 0
    records_matched: int = 0
    records_filtered_out: int = 0
    invocations: int = 0
    failed_invocations: int = 0
    scale_events: int = 0


class EventSourceMapping:
    """Polls a topic with a dedicated consumer group and invokes a function."""

    def __init__(
        self,
        cluster: FabricCluster,
        topic: str,
        function_name: str,
        executor: LambdaExecutor,
        config: Optional[EventSourceConfig] = None,
        *,
        principal: Optional[str] = None,
        mapping_id: Optional[str] = None,
    ) -> None:
        self.config = config or EventSourceConfig()
        self.config.validate()
        self.cluster = cluster
        self.topic = topic
        self.function_name = function_name
        self.executor = executor
        self.mapping_id = mapping_id or f"esm-{next(_mapping_ids):06d}"
        self.principal = principal
        self.pattern = EventPattern(self.config.filter_pattern)
        self.stats = MappingStats()
        self._poller_ids = itertools.count(1)
        self._consumers: List[FabricConsumer] = [self._new_poller()]
        self._enabled = True

    def _new_poller(self) -> FabricConsumer:
        """One unit of concurrency: a consumer joining the mapping's group."""
        consumer = FabricConsumer(
            self.cluster,
            [self.topic],
            ConsumerConfig(
                group_id=f"trigger-{self.mapping_id}",
                client_id=f"lambda-{self.function_name}-{next(self._poller_ids)}",
                auto_offset_reset=self.config.starting_position,
                enable_auto_commit=False,
                max_poll_records=self.config.batch_size,
                # Batch fetches ride the cluster's fetch-session data plane,
                # byte-capped across the whole session at the Lambda
                # event-source limit.
                receive_buffer_bytes=MAX_BATCH_BYTES,
            ),
            principal=self.principal,
        )
        # Pin the initial assignment now, then let the listener pin every
        # partition this poller gains in later cooperative rebalances.
        self._pin_positions(consumer, consumer.assignment())
        consumer.set_rebalance_listeners(
            on_partitions_assigned=lambda added: self._pin_positions(consumer, added)
        )
        return consumer

    def _pin_positions(self, consumer: FabricConsumer, partitions) -> None:
        """Commit seed positions for partitions with no committed offset.

        ``starting_position`` is evaluated once, when a partition first
        enters the mapping's group, and pinned by committing it — exactly
        how Lambda anchors an event-source mapping at creation.  Without
        the pin, a cooperative move of a never-polled partition (fleet
        scale-up, topic growth) would re-evaluate ``latest`` on the *new*
        owner at a later log end and silently skip everything in between.
        """
        to_pin = {
            tp: consumer.position(*tp)
            for tp in partitions
            if self.cluster.offsets.committed(self.consumer_group, *tp) is None
        }
        if not to_pin:
            return
        try:
            self.cluster.commit_group(
                self.consumer_group,
                to_pin,
                generation=consumer.generation,
                member_id=consumer.member_id,
            )
        except IllegalGenerationError:
            pass  # a racing rebalance: whoever owns the partition next pins it

    # ------------------------------------------------------------------ #
    @property
    def consumer_group(self) -> str:
        return f"trigger-{self.mapping_id}"

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def concurrency(self) -> int:
        """Current poller-fleet size (concurrent invocation capacity)."""
        return len(self._consumers)

    def set_concurrency(self, concurrency: int) -> int:
        """Resize the poller fleet; returns the effective concurrency.

        The requested value is clamped to ``[1, partition count]`` (Kafka
        semantics: extra group members beyond the partition count would
        sit idle).  Growth joins new consumers to the mapping's group and
        shrink closes the newest ones — either way the coordinator
        rebalances *cooperatively*, so the surviving pollers keep serving
        their retained partitions while only the minimal partition delta
        moves.
        """
        partitions = self.cluster.topic(self.topic).num_partitions
        concurrency = max(1, min(concurrency, partitions))
        if concurrency == len(self._consumers):
            return concurrency
        self.stats.scale_events += 1
        while len(self._consumers) < concurrency:
            self._consumers.append(self._new_poller())
        while len(self._consumers) > concurrency:
            self._consumers.pop().close()
        return concurrency

    def disable(self) -> None:
        self._enabled = False

    def enable(self) -> None:
        self._enabled = True

    def pending_events(self) -> int:
        """Processing pressure: events published but not yet committed.

        Walks every partition's end offset on the cluster — accurate but
        relatively expensive; the drain loop uses the cheaper
        position-based :meth:`lag` instead.
        """
        return self.cluster.total_lag(self.consumer_group, self.topic)

    def lag(self) -> int:
        """Events published but not yet *read* by this mapping's fleet.

        Position-based: O(assigned partitions) single-partition end-offset
        lookups per poller, no committed-offset reads on the steady path —
        the cheap signal the drain loop polls between batches.  Partitions
        momentarily owned by no poller (mid-rebalance, between the revoke
        and assign phases) are counted from their committed offset so a
        scale event can never make backlog invisible.
        """
        total = 0
        covered: set = set()
        for consumer in self._consumers:
            total += consumer.lag()
            covered.update(consumer.assignment())
        if not self._consumers:
            return total  # closed mapping: nothing will ever drain this
        # Reuse the consumers' own committed-offset/reset-policy fallback
        # for uncovered partitions, so the two can never drift.
        probe = self._consumers[0]
        for tp in self.cluster.partitions_for(self.topic):
            if tp not in covered:
                total += max(
                    0, self.cluster.end_offset(*tp) - probe.reset_position(*tp)
                )
        return total

    # ------------------------------------------------------------------ #
    @staticmethod
    def _record_to_event(record: StoredRecord, topic: str, partition: int) -> dict:
        """Shape one fabric record the way Lambda presents Kafka records."""
        return {
            "topic": topic,
            "partition": partition,
            "offset": record.offset,
            "timestamp": record.timestamp,
            "key": record.key,
            "value": record.value,
            "headers": dict(record.record.headers),
        }

    def poll_once(self) -> List[InvocationResult]:
        """One poll/filter/invoke cycle per poller; returns the results.

        Each poller in the fleet polls its own partition slice and, when
        records match, triggers its own invocation — concurrency N means
        up to N invocations per cycle, exactly how Lambda runs one poller
        per sub-batch.  Offsets are committed only after the invocation
        returns: a crash mid-batch redelivers it (at-least-once), while a
        *failed* invocation — the executor has already exhausted its
        internal retries by then — is committed past and discarded
        (counted in ``failed_invocations``), Lambda's no-DLQ on-failure
        policy, so one poisoned batch cannot wedge the partition.  A record
        is matched on the fields its filter names; only a match is shaped.
        """
        if not self._enabled:
            return []
        results: List[InvocationResult] = []
        readers = [(name, _EVENT_FIELDS[name])
                   for name in self.pattern.fields if name in _EVENT_FIELDS]
        for consumer in list(self._consumers):
            batches = consumer.poll(max_records=self.config.batch_size)
            self.stats.polls += 1
            matched_events: List[dict] = []
            for (topic, partition), records in batches.items():
                matched = []
                for record in records:
                    fields = {}
                    for name, read in readers:
                        fields[name] = read(record, topic, partition)
                    if self.pattern.matches(fields):
                        matched.append(self._record_to_event(record, topic, partition))
                self.stats.records_read += len(records)
                self.stats.records_matched += len(matched)
                self.stats.records_filtered_out += len(records) - len(matched)
                matched_events += matched
            if matched_events:
                payload = {
                    "eventSource": "octopus:fabric",
                    "topic": self.topic,
                    "records": matched_events,
                }
                result = self.executor.invoke(self.function_name, payload)
                self.stats.invocations += 1
                if not result.success:
                    self.stats.failed_invocations += 1
                results.append(result)
            if batches:
                consumer.commit()
        return results

    def drain(self, max_polls: int = 10_000) -> List[InvocationResult]:
        """Poll until the topic is exhausted (or ``max_polls`` is reached).

        Driven by the consumer's position-based :meth:`lag` — one
        single-partition end-offset lookup per assigned partition per
        iteration — instead of :meth:`pending_events`, which re-reads
        committed offsets across a full end-offsets walk between every
        poll.
        """
        results: List[InvocationResult] = []
        if not self._enabled:
            return results
        for _ in range(max_polls):
            if self.lag() == 0:
                break
            results.extend(self.poll_once())
        return results

    def close(self) -> None:
        for consumer in self._consumers:
            consumer.close()
        self._consumers = []

    def describe(self) -> Dict[str, Any]:
        return {
            "mapping_id": self.mapping_id,
            "topic": self.topic,
            "function": self.function_name,
            "consumer_group": self.consumer_group,
            "batch_size": self.config.batch_size,
            "batch_window_seconds": self.config.batch_window_seconds,
            "filter_pattern": self.config.filter_pattern,
            "enabled": self._enabled,
            "concurrency": len(self._consumers),
            "stats": vars(self.stats),
        }
