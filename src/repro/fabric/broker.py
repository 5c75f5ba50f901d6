"""Broker nodes.

A broker hosts replicas of topic partitions.  One replica of each
partition is the *leader* (all produces and fetches go through it); the
others are *followers* that the replication machinery keeps in sync.  The
cluster controller (:mod:`repro.fabric.cluster`) decides placement and
leadership; the broker itself only stores data and serves requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.common.clock import Clock
from repro.common.sync import create_rlock
from repro.fabric.errors import BrokerUnavailableError, UnknownPartitionError
from repro.fabric.partition import PartitionLog
from repro.fabric.record import PackedRecordBatch, StoredRecord


@dataclass(frozen=True)
class BrokerSpec:
    """Static description of a broker instance.

    ``instance_type``/``vcpus``/``memory_gb`` mirror the MSK instance
    classes in Table II (``kafka.m5.large`` = 2 vCPU / 8 GB,
    ``kafka.m5.xlarge`` = 4 vCPU / 16 GB) and feed the performance model
    in :mod:`repro.simulation.cluster_model`.
    """

    broker_id: int
    instance_type: str = "kafka.m5.large"
    vcpus: int = 2
    memory_gb: int = 8
    availability_zone: str = "us-east-1a"


class Broker:
    """A single broker process hosting partition replicas."""

    def __init__(self, spec: BrokerSpec, *, clock: Optional[Clock] = None) -> None:
        self.spec = spec
        self.broker_id = spec.broker_id
        self._clock = clock
        self._replicas: Dict[Tuple[str, int], PartitionLog] = {}  #: guarded_by _lock
        self._lock = create_rlock(f"Broker[{spec.broker_id}]")
        self._online = True
        #: Chaos seam: called as ``hook(op, topic, partition)`` once per
        #: partition append, replicate or read.  A hook may sleep (slow disk)
        #: or raise (injected I/O failure).  ``None`` costs one attribute
        #: read on the hot path.
        self._fault_hook: Optional[Callable[[str, str, int], None]] = None
        #: Observation seam: called after every successful leader append
        #: with ``(broker_id, topic, partition, leader_epoch, base_offset,
        #: count)`` — the chaos harness derives its "one leader per epoch"
        #: invariant from this stream.
        self._append_listener: Optional[
            Callable[[int, str, int, int, int, int], None]
        ] = None

    # ------------------------------------------------------------------ #
    # Liveness (failure injection)
    # ------------------------------------------------------------------ #
    @property
    def online(self) -> bool:
        return self._online

    def shutdown(self) -> None:
        """Take the broker offline (simulated crash/maintenance)."""
        with self._lock:
            self._online = False

    def restart(self) -> None:
        """Bring the broker back online.  Replica data is retained."""
        with self._lock:
            self._online = True

    def _check_online(self) -> None:
        if not self._online:
            raise BrokerUnavailableError(f"broker {self.broker_id} is offline")

    # ------------------------------------------------------------------ #
    # Chaos / observation seams
    # ------------------------------------------------------------------ #
    def set_fault_hook(
        self, hook: Optional[Callable[[str, str, int], None]]
    ) -> None:
        """Install (or clear) the fault-injection hook.

        The hook runs at the top of ``append_packed``/``replicate`` and
        before each partition read of ``fetch_many`` with ``(op, topic,
        partition)``; it may sleep to model a slow disk or raise a
        :class:`FabricError` to model an I/O fault.
        """
        self._fault_hook = hook

    def set_append_listener(
        self, listener: Optional[Callable[[int, str, int, int, int, int], None]]
    ) -> None:
        """Install (or clear) the post-append observation listener."""
        self._append_listener = listener

    def _faults(self, op: str, topic: str, partition: int) -> None:
        hook = self._fault_hook
        if hook is not None:
            hook(op, topic, partition)

    # ------------------------------------------------------------------ #
    # Replica management
    # ------------------------------------------------------------------ #
    def create_replica(
        self,
        topic: str,
        partition: int,
        *,
        max_message_bytes: int = 8 * 1024 * 1024,
        segment_records: Optional[int] = None,
        segment_bytes: Optional[int] = None,
    ) -> PartitionLog:
        """Create (or return the existing) local replica for a partition.

        ``segment_records``/``segment_bytes`` set the replica log's
        storage-segment roll thresholds (``None`` = log defaults); they are
        applied only when the replica is first created.
        """
        with self._lock:
            key = (topic, partition)
            if key not in self._replicas:
                self._replicas[key] = PartitionLog(
                    topic,
                    partition,
                    max_message_bytes=max_message_bytes,
                    segment_records=segment_records,
                    segment_bytes=segment_bytes,
                    clock=self._clock,
                )
            return self._replicas[key]

    def drop_replica(self, topic: str, partition: int) -> None:
        with self._lock:
            self._replicas.pop((topic, partition), None)

    def reset_replica(
        self,
        topic: str,
        partition: int,
        *,
        max_message_bytes: int = 8 * 1024 * 1024,
        segment_records: Optional[int] = None,
        segment_bytes: Optional[int] = None,
        log_start_offset: int = 0,
    ) -> PartitionLog:
        """Discard the local replica and open an empty one in its place.

        The corruption-recovery primitive (see
        :meth:`ReplicationManager.recover_replica`): a log whose chunks
        fail CRC verification cannot be repaired in place, so it is
        replaced wholesale and re-populated from the leader.  The fresh
        log starts at ``log_start_offset`` (the leader's log start) so
        adopted leader chunks keep their offsets.
        """
        self._check_online()
        with self._lock:
            fresh = PartitionLog(
                topic,
                partition,
                max_message_bytes=max_message_bytes,
                segment_records=segment_records,
                segment_bytes=segment_bytes,
                clock=self._clock,
            )
            if log_start_offset:
                fresh._log_start_offset = log_start_offset
                fresh._next_offset = log_start_offset
            self._replicas[(topic, partition)] = fresh
            return fresh

    def replica(self, topic: str, partition: int) -> PartitionLog:
        self._check_online()
        with self._lock:
            try:
                return self._replicas[(topic, partition)]
            except KeyError:
                raise UnknownPartitionError(
                    f"broker {self.broker_id} hosts no replica of {topic}-{partition}"
                ) from None

    def has_replica(self, topic: str, partition: int) -> bool:
        with self._lock:
            return (topic, partition) in self._replicas

    def hosted_partitions(self) -> Iterable[Tuple[str, int]]:
        with self._lock:
            return tuple(self._replicas.keys())

    # ------------------------------------------------------------------ #
    # Data plane
    # ------------------------------------------------------------------ #
    def append_packed(
        self,
        topic: str,
        partition: int,
        packed: PackedRecordBatch,
        *,
        leader_epoch: Optional[int] = None,
    ) -> PackedRecordBatch:
        """Adopt a producer-sealed packed batch on the local replica.

        This is the one-encode leader path: the batch object the producer
        sealed becomes the log's storage chunk directly, and the returned
        offset-stamped form (sharing its records and payload) is what the
        cluster forwards to persistence sinks and producer metadata.

        ``leader_epoch`` fences the write: an epoch older than the log
        has seen raises :class:`FencedLeaderError` before any record is
        admitted (a deposed leader cannot fork history).
        """
        self._check_online()
        self._faults("append", topic, partition)
        log = self.replica(topic, partition)
        log.note_leader_epoch(leader_epoch)
        stamped = log.append_packed(packed)
        listener = self._append_listener
        if listener is not None:
            listener(
                self.broker_id, topic, partition, log.leader_epoch,
                stamped.base_offset, len(stamped),
            )
        return stamped

    def replicate(
        self,
        topic: str,
        partition: int,
        records: Iterable[StoredRecord],
        *,
        leader_epoch: Optional[int] = None,
    ) -> int:
        """Follower path: copy records appended on the leader.

        Offsets are preserved; the whole batch is adopted under a single
        log lock.  ``leader_epoch`` fences the push exactly like
        :meth:`append_packed` — a deposed leader's replication traffic is
        rejected, and a newer epoch is adopted into the follower's epoch
        history.  Returns the follower's new log end offset.
        """
        self._check_online()
        self._faults("replicate", topic, partition)
        log = self.replica(topic, partition)
        log.note_leader_epoch(leader_epoch)
        return log.append_stored(records)

    def fetch(
        self,
        topic: str,
        partition: int,
        offset: int,
        max_records: int = 500,
        max_bytes: Optional[int] = None,
        isolation: str = "committed",
    ) -> list[StoredRecord]:
        """One-partition :meth:`fetch_many`."""
        served, _, _ = self.fetch_many(
            [(topic, partition, offset, None)],
            max_records=max_records, max_bytes=max_bytes, isolation=isolation,
        )
        return served.get((topic, partition), [])

    def fetch_many(
        self,
        requests: Iterable[Tuple[str, int, int, Optional[int]]],
        *,
        max_records: int = 500,
        max_bytes: Optional[int] = None,
        logs: Optional[list[PartitionLog]] = None,
        isolation: str = "committed",
    ) -> Tuple[Dict[Tuple[str, int], list[StoredRecord]], int, int]:
        """The broker read: every fetch of this broker's replicas enters here.

        ``requests`` is an ordered iterable of ``(topic, partition, offset,
        per_partition_max_records)`` tuples.  ``max_records``/``max_bytes``
        are *session-wide* caps charged across every request in order — a
        hot partition early in the request list shrinks what later
        partitions may return (each partition read still grants its first
        record: the make-progress rule).  One online check covers the whole
        call; the ``"fetch"`` fault hook runs before each partition read and
        every served view is CRC-verified (memoized per chunk, so free for
        already-verified batches — but a sealed chunk that slipped in
        without an ingress check surfaces its :class:`CorruptBatchError`
        here).  ``logs`` may carry the replica logs a fetch session already
        resolved (position-matched with ``requests``), skipping the
        replica-table lock.  Returns ``(records_by_partition,
        records_served, bytes_served)`` so the caller can keep charging the
        same budget across further brokers in the session.
        """
        self._check_online()
        if logs is None:
            requests = list(requests)
            logs = [self.replica(request[0], request[1]) for request in requests]
        out: Dict[Tuple[str, int], list[StoredRecord]] = {}
        remaining = max_records
        served_bytes = 0
        for request, log in zip(requests, logs):
            budget = None if max_bytes is None else max_bytes - served_bytes
            if remaining <= 0 or (budget is not None and budget <= 0):
                break
            self._faults("fetch", request[0], request[1])
            cap = request[3]
            records, used = log.fetch_with_usage(
                request[2],
                max_records=remaining if cap is None or cap > remaining else cap,
                max_bytes=budget,
                isolation=isolation,
            )
            if records:
                records.verify_crcs()
                out[(request[0], request[1])] = records
                remaining -= len(records)
                served_bytes += used
        return out, max_records - remaining, served_bytes

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        with self._lock:
            return {
                "broker_id": self.broker_id,
                "instance_type": self.spec.instance_type,
                "vcpus": self.spec.vcpus,
                "memory_gb": self.spec.memory_gb,
                "availability_zone": self.spec.availability_zone,
                "online": self._online,
                "replicas": sorted(f"{t}-{p}" for t, p in self._replicas),
            }
