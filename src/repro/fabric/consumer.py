"""Consumer client for the event fabric.

Supports the consumption modes the paper describes (Section IV-F):
consume from the earliest offset, the latest offset, or after a given
timestamp; periodic automatic offset commits (at-least-once delivery) or
manual commits; and consumer groups so that several consumers — or many
instances of a trigger function — share a topic's partitions.

Polling rides the cluster's fetch-session data plane: the consumer
registers its assignment on a :class:`FetchSession` once per rebalance
and each poll is one :meth:`FetchSession.fetch_assignment` pass (one
authorization check per topic, leader resolutions cached on the session,
every partition read served by :meth:`Broker.fetch_many`).  The consumer
starts no thread: a fetch happens when, and only when, the application
calls :meth:`FabricConsumer.poll`.

Group membership follows the coordinator's incremental *cooperative*
rebalance protocol (see :mod:`repro.fabric.group`): each poll adopts any
new generation — keeping positions for retained partitions, committing
and releasing only the revoked delta — and sends a clock-paced liveness
heartbeat.  ``on_partitions_revoked`` /
``on_partitions_assigned`` listeners observe the deltas.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.common.clock import Clock
from repro.common.sync import create_rlock
from repro.fabric.cluster import FabricCluster, FetchSession
from repro.fabric.errors import CommitFailedError, IllegalGenerationError
from repro.fabric.group import TopicPartition
from repro.fabric.record import PackedView, StoredRecord

#: Rebalance listener signature: called with the affected partitions.
RebalanceListener = Callable[[List[TopicPartition]], None]

#: Latency samples retained per client; long-running consumers/producers
#: previously accumulated one float per poll forever.
METRICS_WINDOW = 2048


@dataclass(frozen=True)
class ConsumerConfig:
    """Client-side consumer configuration.

    ``receive_buffer_bytes`` defaults to the 2 MB the paper's evaluation
    uses (Section V-B) and caps each poll's fetch session as a whole;
    ``auto_offset_reset`` selects earliest/latest behaviour when the group
    has no committed offset; with ``"timestamp"``, ``start_timestamp`` is
    matched against the broker-assigned **append time** (which the log
    keeps monotone), not the client-supplied record timestamp — see
    :meth:`PartitionLog.offset_for_timestamp`.
    ``heartbeat_interval_seconds`` paces the liveness heartbeats each poll
    sends to the group coordinator (driven by the consumer's injectable
    clock); ``session_timeout_seconds`` is how long the coordinator waits
    for one before evicting this member (``None`` uses the coordinator
    default).
    """

    group_id: str = "default-group"
    client_id: str = "octopus-consumer"
    auto_offset_reset: str = "earliest"
    enable_auto_commit: bool = True
    auto_commit_interval_seconds: float = 5.0
    max_poll_records: int = 500
    receive_buffer_bytes: int = 2 * 1024 * 1024
    start_timestamp: Optional[float] = None
    heartbeat_interval_seconds: float = 3.0
    session_timeout_seconds: Optional[float] = None

    def validate(self) -> None:
        if self.auto_offset_reset not in ("earliest", "latest", "timestamp"):
            raise ValueError(
                "auto_offset_reset must be 'earliest', 'latest' or 'timestamp'"
            )
        if self.auto_offset_reset == "timestamp" and self.start_timestamp is None:
            raise ValueError("start_timestamp required when auto_offset_reset='timestamp'")
        if self.max_poll_records <= 0:
            raise ValueError("max_poll_records must be > 0")
        if self.heartbeat_interval_seconds <= 0:
            raise ValueError("heartbeat_interval_seconds must be > 0")
        if (
            self.session_timeout_seconds is not None
            and self.session_timeout_seconds <= self.heartbeat_interval_seconds
        ):
            raise ValueError(
                "session_timeout_seconds must exceed heartbeat_interval_seconds"
            )


@dataclass
class ConsumerMetrics:
    """Counters aggregated by the benchmarking operator."""

    records_consumed: int = 0
    bytes_consumed: int = 0
    polls: int = 0
    commits: int = 0
    rebalances: int = 0
    partitions_revoked: int = 0
    heartbeats: int = 0
    #: Heartbeats and commits the group coordinator rejected as stale;
    #: each is recovered by the next rebalance, so it is counted, not raised.
    coordinator_errors: int = 0
    poll_latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=METRICS_WINDOW)
    )


class FabricConsumer:
    """Reads events from the fabric as part of a consumer group."""

    def __init__(
        self,
        cluster: FabricCluster,
        topics: Sequence[str],
        config: Optional[ConsumerConfig] = None,
        *,
        principal: Optional[str] = None,
        clock: Optional[Clock] = None,
        on_partitions_revoked: Optional[RebalanceListener] = None,
        on_partitions_assigned: Optional[RebalanceListener] = None,
    ) -> None:
        self.config = config or ConsumerConfig()
        self.config.validate()
        # config.validate() can only compare against an *explicit* session
        # timeout; when deferring to the coordinator's default, the same
        # sanity check must hold or a healthy-but-slow heartbeater would
        # be evicted and rejoin forever.
        effective_timeout = (
            self.config.session_timeout_seconds
            if self.config.session_timeout_seconds is not None
            else cluster.groups.session_timeout
        )
        if self.config.heartbeat_interval_seconds >= effective_timeout:
            raise ValueError(
                f"heartbeat_interval_seconds ({self.config.heartbeat_interval_seconds}) "
                f"must be below the effective session timeout ({effective_timeout})"
            )
        self._cluster = cluster
        self._principal = principal
        # Default to the coordinator's clock, not a private SystemClock:
        # heartbeat pacing and the coordinator's session-expiry sweeps must
        # share one time base, or a cluster driven by a ManualClock would
        # evict consumers that poll diligently but heartbeat on wall time.
        self._clock: Clock = clock or cluster.groups.clock
        self._topics = list(topics)
        self._lock = create_rlock("FabricConsumer")
        self._positions: Dict[TopicPartition, int] = {}  #: guarded_by _lock
        self._poll_cursor = 0  #: guarded_by _lock
        self._closed = False
        self._last_auto_commit = self._clock.now()
        self._last_heartbeat = self._clock.now()
        # Rebalance listeners, called during cooperative rebalances:
        # ``on_partitions_revoked`` right before revoked partitions are
        # released (positions still intact, so applications can flush),
        # ``on_partitions_assigned`` right after new partitions arrive.
        self._on_partitions_revoked = on_partitions_revoked
        self._on_partitions_assigned = on_partitions_assigned
        # First listener exception of the rebalance in progress; re-raised
        # once the new assignment is fully installed.
        self._listener_error: Optional[Exception] = None
        self.metrics = ConsumerMetrics()
        self._session: FetchSession = cluster.fetch_session(principal=principal)
        self._metadata_epoch = cluster.metadata_epoch
        self._assignment: List[TopicPartition] = []  #: guarded_by _lock
        self._member_id: str = ""
        self._generation = -1
        self._join_group()
        self._maybe_rejoin()

    # ------------------------------------------------------------------ #
    # Assignment / positions
    # ------------------------------------------------------------------ #
    @property
    def member_id(self) -> str:
        return self._member_id

    @property
    def generation(self) -> int:
        return self._generation

    def assignment(self) -> List[TopicPartition]:
        with self._lock:
            return list(self._assignment)

    def _all_partitions(self) -> List[TopicPartition]:
        partitions: List[TopicPartition] = []
        for topic in self._topics:
            partitions.extend(self._cluster.partitions_for(topic))
        return partitions

    def reset_position(self, topic: str, partition: int) -> int:
        """Initial fetch position: the committed offset or the reset policy.

        Public because lag accounting (e.g. an event-source mapping sizing
        backlog on partitions no poller currently owns) needs the same
        answer the consumer itself would seed from.
        """
        committed = self._cluster.offsets.committed(self.config.group_id, topic, partition)
        if committed is not None:
            return committed
        if self.config.auto_offset_reset == "latest":
            return self._cluster.end_offset(topic, partition)
        if self.config.auto_offset_reset == "timestamp":
            # end_offset resolves the serving leader (electing if the
            # registered one is down), so the lookup below hits the log
            # this consumer will be fetching from.
            end = self._cluster.end_offset(topic, partition)
            leader = self._cluster.replication.assignment(topic, partition).leader
            offset = self._cluster.brokers[leader].replica(
                topic, partition
            ).offset_for_timestamp(self.config.start_timestamp or 0.0)
            return offset if offset is not None else end
        return self._cluster.beginning_offset(topic, partition)  # earliest

    def position(self, topic: str, partition: int) -> int:
        with self._lock:
            return self._positions.get((topic, partition), 0)

    def seek(self, topic: str, partition: int, offset: int) -> None:
        """Explicitly reposition the consumer on a partition it owns."""
        with self._lock:
            if (topic, partition) not in self._assignment:
                raise ValueError(f"{topic}-{partition} is not assigned to this consumer")
            self._positions[(topic, partition)] = max(0, offset)

    def seek_to_beginning(self) -> None:
        with self._lock:
            for topic, partition in self._assignment:
                self._positions[(topic, partition)] = self._cluster.beginning_offset(
                    topic, partition
                )

    def seek_to_end(self) -> None:
        with self._lock:
            for topic, partition in self._assignment:
                self._positions[(topic, partition)] = self._cluster.end_offset(
                    topic, partition
                )

    # ------------------------------------------------------------------ #
    # Poll / commit
    # ------------------------------------------------------------------ #
    def poll(
        self, max_records: Optional[int] = None
    ) -> Dict[TopicPartition, PackedView]:
        """Fetch available records from assigned partitions, round-robin.

        Each poll starts from a different partition of the assignment (the
        cursor advances by one per poll), so a hot early partition cannot
        starve later ones when ``max_poll_records`` is reached.  The whole
        rotated assignment is served by one fetch-session pass, with
        ``max_poll_records``/``receive_buffer_bytes`` charged across the
        session.  Every returned view has had its batches' CRC32s verified
        (Kafka's ``check.crcs``, one crc32 pass per *batch*, memoized per
        chunk object): the last line of defence in front of the
        application.  In-memory positions advance only once the fetch has
        returned, so a poll whose fetch raises leaves every position where
        it was; offsets become durable only when committed (automatically
        or via :meth:`commit`).
        """
        self._ensure_open()
        self._maybe_rejoin()
        self._maybe_heartbeat()
        limit = max_records if max_records is not None else self.config.max_poll_records
        budget = self.config.receive_buffer_bytes
        start = time.perf_counter()
        out: Dict[TopicPartition, PackedView] = {}
        # Snapshot under the lock: ``seek`` on another thread mutates
        # ``_positions``, and the session reads the mapping for the whole
        # (lock-free) fetch.
        with self._lock:
            assigned = len(self._assignment)
            pivot = self._poll_cursor % assigned if assigned else 0
            self._poll_cursor = pivot + 1
            positions = dict(self._positions)
        if limit > 0 and budget > 0 and assigned:
            out = self._session.fetch_assignment(
                positions, start=pivot, max_records=limit, max_bytes=budget
            )
            with self._lock:
                for tp, records in out.items():
                    self._positions[tp] = records[-1].offset + 1
        for records in out.values():
            records.verify_crcs()
            self.metrics.records_consumed += len(records)
            # The view knows its byte total from the batch size column —
            # no per-record decode just for metrics.
            self.metrics.bytes_consumed += records.size_bytes()
        self.metrics.polls += 1
        self.metrics.poll_latencies.append(time.perf_counter() - start)
        if self.config.enable_auto_commit:
            now = self._clock.now()
            if now - self._last_auto_commit >= self.config.auto_commit_interval_seconds:
                self.commit()
                self._last_auto_commit = now
        return out

    def poll_flat(self, max_records: Optional[int] = None) -> List[StoredRecord]:
        """Like :meth:`poll` but flattened into a single offset-ordered list."""
        batches = self.poll(max_records=max_records)
        out: List[StoredRecord] = []
        for records in batches.values():
            out.extend(records)
        return out

    def commit(self, offsets: Optional[Dict[TopicPartition, int]] = None) -> None:
        """Commit current positions (or explicit ``offsets``) for the group.

        The whole assignment travels through
        :meth:`FabricCluster.commit_group`: one generation validation and
        one offset-store lock acquisition per commit, not per partition.
        """
        self._ensure_open()
        with self._lock:
            to_commit = dict(offsets) if offsets is not None else dict(self._positions)
        try:
            self._cluster.commit_group(
                self.config.group_id,
                to_commit,
                generation=self._generation,
                member_id=self._member_id,
            )
        except IllegalGenerationError as exc:
            raise CommitFailedError(str(exc)) from exc
        self.metrics.commits += 1

    def committed(self, topic: str, partition: int) -> Optional[int]:
        return self._cluster.offsets.committed(self.config.group_id, topic, partition)

    def lag(self) -> int:
        """Total lag of this consumer's assignment (for monitoring)."""
        total = 0
        for topic, partition in self.assignment():
            end = self._cluster.end_offset(topic, partition)
            total += max(0, end - self.position(topic, partition))
        return total

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _join_group(self) -> tuple[int, List[TopicPartition]]:
        """Join (or rejoin after eviction) the group and adopt + ack.

        One definition of the join protocol — member registration, adoption
        of the returned assignment, and the acknowledging ``sync`` (a new
        member has nothing to revoke, and the ack may settle a cooperative
        rebalance already in flight) — shared by construction and the
        eviction-recovery path.  Returns the post-ack snapshot.
        """
        groups = self._cluster.groups
        self._member_id, generation, assignment = groups.join(
            self.config.group_id,
            self.config.client_id,
            self._topics,
            self._all_partitions(),
            session_timeout=self.config.session_timeout_seconds,
        )
        self._adopt(generation, assignment)
        return groups.sync(self.config.group_id, self._member_id, generation)

    def set_rebalance_listeners(
        self,
        *,
        on_partitions_revoked: Optional[RebalanceListener] = None,
        on_partitions_assigned: Optional[RebalanceListener] = None,
    ) -> None:
        """Install or replace the rebalance listeners after construction.

        Listeners are read at call time, so this affects every subsequent
        adoption; it does not replay the initial assignment — callers
        attaching late should handle :meth:`assignment` themselves.
        """
        self._on_partitions_revoked = on_partitions_revoked
        self._on_partitions_assigned = on_partitions_assigned

    def _maybe_heartbeat(self) -> None:
        """Send a liveness heartbeat when the clock-paced interval elapses.

        Driven by the injectable clock, so tests advance a ``ManualClock``
        instead of sleeping.  A stale-generation response is counted, not
        raised: the rebalance it signals is adopted by ``_maybe_rejoin`` on
        this or the next poll.
        """
        now = self._clock.now()
        if now - self._last_heartbeat < self.config.heartbeat_interval_seconds:
            return
        self._last_heartbeat = now
        try:
            self._cluster.groups.heartbeat(
                self.config.group_id, self._member_id, self._generation
            )
            self.metrics.heartbeats += 1
        except IllegalGenerationError:
            self.metrics.coordinator_errors += 1

    def _maybe_rejoin(self) -> None:
        """Follow the group through a cooperative rebalance, if one is on.

        Each iteration adopts the coordinator's current generation — keeping
        retained partitions' positions, releasing only the revoked delta —
        then acknowledges it via ``sync``.  The ack can itself promote the
        pending target assignment (if we were the last member the
        coordinator was waiting on), in which case the loop picks up the
        assign-phase generation immediately instead of on the next poll.
        An evicted member (missed heartbeats while the application was
        busy) rejoins as a fresh member.  Kafka's listener contract: an
        exception raised by a rebalance listener does not stop the
        rebalance; the first one is re-raised after it completes.
        """
        groups = self._cluster.groups
        group_id = self.config.group_id
        # Metadata moved (partition growth, failover)? Refresh the group's
        # partition set so new partitions get assigned — the in-process
        # mirror of Kafka's metadata-refresh-triggered rebalance.
        epoch = self._cluster.metadata_epoch
        if epoch != self._metadata_epoch:
            self._metadata_epoch = epoch
            groups.update_partitions(group_id, self._all_partitions())
        # Generation and assignment must come from one atomic snapshot
        # (and sync returns the next one the same way): mixing generation
        # G with G+1's assignment would void the commit-on-revoke.
        current, assignment = groups.current_assignment(group_id, self._member_id)
        while current != self._generation:
            self._adopt(current, assignment)
            try:
                current, assignment = groups.sync(group_id, self._member_id, current)
            except IllegalGenerationError:
                # Evicted: everything was already released by the adopt
                # above (our assignment read back empty), so rejoin.
                current, assignment = self._join_group()
        if self._listener_error is not None:
            error, self._listener_error = self._listener_error, None
            raise error

    def _adopt(self, generation: int, assignment: Sequence[TopicPartition]) -> None:
        """Install one generation's assignment, cooperatively.

        Retained partitions keep their fetch positions untouched — they
        never stop being fetchable.  Revoked partitions are committed
        first (when auto-commit is on; manual committers keep
        at-least-once by letting the new owner re-read), then handed to
        the revocation listener, then released.  Added
        partitions start from the committed offset or the reset policy.
        """
        with self._lock:
            old = self._assignment
            new = list(assignment)
            old_set, new_set = set(old), set(new)
            revoked = [tp for tp in old if tp not in new_set]
            added = [tp for tp in new if tp not in old_set]
            self._generation = generation
            if revoked:
                if self.config.enable_auto_commit:
                    to_commit = {
                        tp: self._positions[tp] for tp in revoked if tp in self._positions
                    }
                    if to_commit:
                        try:
                            # commit-on-revoke rides the batched
                            # commit_many path under the generation we
                            # just adopted (we own these partitions until
                            # this very moment).
                            self._cluster.commit_group(
                                self.config.group_id,
                                to_commit,
                                generation=generation,
                                member_id=self._member_id,
                            )
                            self.metrics.commits += 1
                        except (CommitFailedError, IllegalGenerationError):
                            # Best effort; the new owner re-reads.
                            self.metrics.coordinator_errors += 1
                self._call_listener(self._on_partitions_revoked, revoked)
                for tp in revoked:
                    self._positions.pop(tp, None)
                self.metrics.partitions_revoked += len(revoked)
            for tp in added:
                if tp not in self._positions:
                    self._positions[tp] = self.reset_position(tp[0], tp[1])
            self._assignment = new
            self._session.set_assignment(new)
            if revoked or added:
                self.metrics.rebalances += 1
            if added:
                self._call_listener(self._on_partitions_assigned, added)

    def _call_listener(
        self, listener: Optional[RebalanceListener], partitions: List[TopicPartition]
    ) -> None:
        """Run a rebalance listener; keep its exception for ``_maybe_rejoin``
        so a buggy listener cannot leave the assignment half installed."""
        if listener is None:
            return
        try:
            listener(list(partitions))
        except Exception as exc:  # noqa: BLE001 - re-raised after the rebalance
            if self._listener_error is None:
                self._listener_error = exc

    def close(self) -> None:
        """Commit (if auto-commit) and leave the group."""
        if self._closed:
            return
        if self.config.enable_auto_commit:
            try:
                self.commit()
            except CommitFailedError:
                # Fenced by a newer generation: leave the group regardless.
                self.metrics.coordinator_errors += 1
        # No partition list: a topic lookup could raise for a topic deleted
        # while this consumer was open, leaking the membership — the
        # coordinator falls back to its stored partition snapshot.
        self._cluster.groups.leave(self.config.group_id, self._member_id)
        self._closed = True

    def __enter__(self) -> "FabricConsumer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("consumer is closed")
