"""Partition replication and in-sync replica (ISR) tracking.

Each topic partition is assigned to ``replication_factor`` brokers; one of
them is the leader.  After every leader append the replication manager
pushes the new records to the online followers and recomputes the ISR.
``acks=all`` produces succeed only when the ISR (leader included) is at
least ``min.insync.replicas``.

Replication is zero-copy: the leader fetch returns a packed batch view
over the log's storage chunks, and the follower adopts those very chunks
by reference (``PartitionLog.append_stored``) — no record is decoded or
re-encoded on the leader → follower path, and every batch keeps its
codec and CRC on the follower whatever its size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.clock import Clock
from repro.common.retry import RetryPolicy
from repro.common.sync import create_rlock
from repro.fabric.broker import Broker
from repro.fabric.errors import (
    BrokerUnavailableError,
    CorruptBatchError,
    FencedLeaderError,
    NotEnoughReplicasError,
    UnknownPartitionError,
)
from repro.fabric.partition import PartitionLog
from repro.fabric.record import PackedView

#: Verdicts a replication link filter may return for one leader->follower
#: push: ``"ok"`` delivers, ``"drop"`` loses the round (the follower
#: falls out of the ISR until the link heals), ``"duplicate"`` delivers
#: twice (the follower's offset-dedup adoption must make this harmless).
LINK_VERDICTS = ("ok", "drop", "duplicate")

#: Default budget for :meth:`ReplicationManager.recover_replica` when the
#: leader is transiently offline: three attempts, 50 ms doubling backoff.
DEFAULT_RECOVERY_POLICY = RetryPolicy(
    max_attempts=3, base_backoff=0.05, multiplier=2.0, max_backoff=1.0
)


def _transient(exc: BaseException) -> bool:
    """Recovery retries only transient unavailability.

    ``CorruptBatchError`` is retriable for *fetch* clients (re-fetch from
    an intact replica) but not here: a rotten leader copy will be rotten
    on every attempt — leadership must move first.
    """
    return isinstance(exc, BrokerUnavailableError)


@dataclass(frozen=True)
class ReplicaRecovery:
    """Structured outcome of a :meth:`ReplicationManager.recover_replica`.

    ``recovered`` is False when every attempt found the leader offline —
    the caller schedules another pass instead of unwinding on the first
    miss.  ``log_end_offset`` is the follower's end offset either way.
    """

    topic: str
    partition: int
    broker_id: int
    recovered: bool
    log_end_offset: int
    attempts: int
    error: Optional[str] = None


@dataclass
class PartitionAssignment:
    """Replica placement and leadership for one topic partition."""

    topic: str
    partition: int
    replicas: List[int]
    leader: int
    isr: List[int] = field(default_factory=list)
    leader_epoch: int = 0

    def __post_init__(self) -> None:
        if self.leader not in self.replicas:
            raise ValueError("leader must be one of the assigned replicas")
        if not self.isr:
            self.isr = list(self.replicas)

    def describe(self) -> dict:
        return {
            "topic": self.topic,
            "partition": self.partition,
            "replicas": list(self.replicas),
            "leader": self.leader,
            "isr": list(self.isr),
            "leader_epoch": self.leader_epoch,
        }


class ReplicationManager:
    """Propagates leader appends to followers and maintains ISRs."""

    def __init__(
        self, brokers: Dict[int, Broker], *, clock: Optional[Clock] = None
    ) -> None:
        self._brokers = brokers
        self._assignments: Dict[tuple[str, int], PartitionAssignment] = {}  #: guarded_by _lock
        self._lock = create_rlock("ReplicationManager")
        self._clock = clock
        #: Chaos seam: ``filter(leader_id, follower_id, topic, partition)``
        #: -> one of :data:`LINK_VERDICTS`, consulted before each
        #: leader->follower push.  ``None`` = every link healthy.
        self._link_filter: Optional[Callable[[int, int, str, int], str]] = None

    def set_link_filter(
        self, link_filter: Optional[Callable[[int, int, str, int], str]]
    ) -> None:
        """Install (or clear) the replication link filter (chaos seam)."""
        self._link_filter = link_filter

    # ------------------------------------------------------------------ #
    # Assignment bookkeeping
    # ------------------------------------------------------------------ #
    def register(self, assignment: PartitionAssignment) -> None:
        with self._lock:
            self._assignments[(assignment.topic, assignment.partition)] = assignment

    def unregister_topic(self, topic: str) -> None:
        with self._lock:
            for key in [k for k in self._assignments if k[0] == topic]:
                del self._assignments[key]

    def assignment(self, topic: str, partition: int) -> PartitionAssignment:
        with self._lock:
            try:
                return self._assignments[(topic, partition)]
            except KeyError:
                raise UnknownPartitionError(
                    f"no replica assignment for {topic}-{partition}"
                ) from None

    def assignments_for_topic(self, topic: str) -> List[PartitionAssignment]:
        with self._lock:
            return [a for (t, _), a in self._assignments.items() if t == topic]

    def all_assignments(self) -> Sequence[PartitionAssignment]:
        with self._lock:
            return tuple(self._assignments.values())

    # ------------------------------------------------------------------ #
    # Replication data path
    # ------------------------------------------------------------------ #
    def replicate_from_leader(self, topic: str, partition: int) -> List[int]:
        """Push any records missing on followers; return the new ISR.

        Pushes carry the assignment's leader epoch snapshot: a follower
        that has already adopted a newer epoch (concurrent election)
        fences this round, which is then abandoned without touching the
        ISR — the *new* leader's replication supersedes it.  A completed
        round advances the high watermark on the leader and every ISR
        member to the round's leader end offset (everything the full ISR
        now holds is committed).
        """
        with self._lock:
            assignment = self._assignments[(topic, partition)]
            leader_id = assignment.leader
            epoch = assignment.leader_epoch
        leader_broker = self._brokers[leader_id]
        if not leader_broker.online:
            return assignment.isr
        leader_log = leader_broker.replica(topic, partition)
        leader_end = leader_log.log_end_offset
        new_isr = [leader_id]
        link = self._link_filter
        for broker_id in assignment.replicas:
            if broker_id == leader_id:
                continue
            follower = self._brokers[broker_id]
            if not follower.online:
                continue
            verdict = (
                "ok" if link is None
                else link(leader_id, broker_id, topic, partition)
            )
            if verdict == "drop":
                # Link down: the round is lost, the follower lags and
                # leaves the ISR until the link heals and it catches up.
                continue
            # Create-if-missing inherits the leader log's storage config so
            # a replica first materialized here rolls segments exactly like
            # one placed by FabricAdmin (which passes TopicConfig.log_kwargs).
            follower_log = follower.create_replica(
                topic,
                partition,
                max_message_bytes=leader_log.max_message_bytes,
                segment_records=leader_log.segment_records,
                segment_bytes=leader_log.segment_bytes,
            )
            leader_start = leader_log.log_start_offset
            if follower_log.log_end_offset < leader_start or (
                follower_log.leader_epoch < epoch
                and follower_log.log_end_offset
                > self._fork_point(leader_log, follower_log.leader_epoch)
            ):
                # Two logs that cannot be extended and are rebuilt
                # wholesale from the leader's copy.  (1) Retention on the
                # leader has moved past everything this follower holds.
                # (2) The follower missed at least one election and its
                # log runs past the point where the first epoch it never
                # saw began: that suffix was written by a deposed leader
                # and conflicts with this leader's history offset for
                # offset, even though end-offset catch-up alone would line
                # the logs up (a silent fork); suffixes live inside sealed
                # packed chunks, which cannot be split.
                follower_log = follower.reset_replica(
                    topic,
                    partition,
                    max_message_bytes=leader_log.max_message_bytes,
                    segment_records=leader_log.segment_records,
                    segment_bytes=leader_log.segment_bytes,
                    log_start_offset=leader_start,
                )
                follower_log.note_leader_epoch(epoch)
            elif follower_log.log_start_offset < leader_start:
                # Retention ran on the leader while this follower was
                # offline: drop the deleted prefix here too, or electing
                # this follower would bring those records back.
                follower_log.truncate_before(leader_start)
            start = follower_log.log_end_offset
            if start < leader_end:
                # ``missing`` is a packed view sharing the leader's sealed
                # chunks; the follower adopts them by reference.  Followers
                # catch up on exactly the records that are not yet fully
                # replicated, so the leader read is uncommitted.
                missing = leader_log.fetch(
                    start, max_records=leader_end - start, max_bytes=None,
                    isolation="uncommitted",
                )
                try:
                    follower.replicate(
                        topic, partition, missing, leader_epoch=epoch
                    )
                    if verdict == "duplicate":
                        # Duplicated delivery: the follower's offset-dedup
                        # adoption must absorb the replay byte-for-byte.
                        follower.replicate(
                            topic, partition, missing, leader_epoch=epoch
                        )
                except CorruptBatchError:  # lint: ignore[SWALLOWED-ERROR]
                    # The follower's ingress CRC rejected a leader chunk.
                    # Leave this follower out of the round's ISR (it did
                    # not advance) rather than adopting damaged bytes; an
                    # operator heals the partition via recover_replica
                    # (after leader re-election if the leader is at fault).
                    continue
                except FencedLeaderError:
                    # The follower has seen a newer epoch: this whole
                    # round is stale.  Abandon it without touching the ISR.
                    return list(assignment.isr)
            if follower_log.log_end_offset >= leader_end:
                new_isr.append(broker_id)
        with self._lock:
            if assignment.leader != leader_id or assignment.leader_epoch != epoch:
                # A concurrent election moved leadership mid-round; the
                # new leader's rounds own the ISR now.
                return list(assignment.isr)
            assignment.isr = new_isr
        # Commit point: every ISR member holds [.., leader_end) — advance
        # the high watermark so committed readers may see those records.
        leader_log.advance_high_watermark(leader_end)
        for broker_id in new_isr:
            if broker_id == leader_id:
                continue
            follower = self._brokers[broker_id]
            if follower.online and follower.has_replica(topic, partition):
                follower.replica(topic, partition).advance_high_watermark(
                    leader_end
                )
        return new_isr

    @staticmethod
    def _fork_point(leader_log: PartitionLog, follower_epoch: int) -> int:
        """First offset a follower last synced at ``follower_epoch`` may not share.

        The leader's ``(epoch, start_offset)`` checkpoint history records
        where each new leadership began writing.  Everything the leader
        holds *below* the start of the first epoch newer than the
        follower's is single-writer history the follower replicated from
        the same source; everything at or above it was written by a
        leadership the follower never heard from, so a follower log
        reaching past it has forked.  A leader history with no newer
        epoch means no election was missed — nothing can have forked, so
        the leader's log end (an unreachable bound) is returned.
        """
        for epoch, start in leader_log.leader_epoch_history():
            if epoch > follower_epoch:
                return start
        return leader_log.log_end_offset

    def recover_replica(
        self,
        topic: str,
        partition: int,
        broker_id: int,
        *,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> ReplicaRecovery:
        """Rebuild one follower replica from the leader's intact copy.

        The corruption recovery path: when a replica's stored chunks fail
        CRC verification (at fetch-decode or while serving), the damaged
        log is discarded wholesale and re-fetched from the current leader —
        the CRC travels with the bytes, so the rebuilt replica re-verifies
        everything it adopts.

        A transiently offline leader (or follower) is retried under
        ``retry_policy`` (default :data:`DEFAULT_RECOVERY_POLICY`) and —
        when every attempt misses — reported as a structured
        :class:`ReplicaRecovery` with ``recovered=False`` rather than an
        exception, so a heal loop schedules another pass instead of
        unwinding.  Raises :class:`CorruptBatchError` if the leader's own
        copy is damaged (then leadership must move first, see
        :meth:`elect_leader`) and ``ValueError`` when asked to recover
        the leader itself — neither gets better by retrying.
        """
        with self._lock:
            assignment = self._assignments[(topic, partition)]
        if broker_id == assignment.leader:
            raise ValueError(
                f"cannot recover {topic}-{partition} on broker {broker_id}: "
                "it is the leader (elect a new leader first)"
            )
        policy = retry_policy if retry_policy is not None else DEFAULT_RECOVERY_POLICY
        attempts = 0

        def attempt() -> int:
            nonlocal attempts
            attempts += 1
            return self._recover_once(topic, partition, broker_id, assignment)

        try:
            end = policy.call(attempt, clock=self._clock, retriable=_transient)
        except BrokerUnavailableError as exc:
            follower = self._brokers[broker_id]
            current_end = (
                follower.replica(topic, partition).log_end_offset
                if follower.online and follower.has_replica(topic, partition)
                else 0
            )
            return ReplicaRecovery(
                topic=topic,
                partition=partition,
                broker_id=broker_id,
                recovered=False,
                log_end_offset=current_end,
                attempts=attempts,
                error=str(exc),
            )
        return ReplicaRecovery(
            topic=topic,
            partition=partition,
            broker_id=broker_id,
            recovered=True,
            log_end_offset=end,
            attempts=attempts,
        )

    def _recover_once(
        self,
        topic: str,
        partition: int,
        broker_id: int,
        assignment: PartitionAssignment,
    ) -> int:
        """One recovery attempt; raises on an offline leader/follower."""
        leader_broker = self._brokers[assignment.leader]
        leader_log = leader_broker.replica(topic, partition)
        follower = self._brokers[broker_id]
        leader_end = leader_log.log_end_offset
        start = leader_log.log_start_offset
        missing = PackedView.wrap(
            leader_log.fetch(
                start, max_records=leader_end - start, max_bytes=None,
                isolation="uncommitted",
            )
        )
        # Force-verify the leader's chunks *before* discarding the
        # follower's log: a memoized ingress pass must not mask leader-side
        # damage that happened after its own ingress.
        for chunk, _, _ in missing.runs():
            chunk.verify_crc(force=True)
        fresh = follower.reset_replica(
            topic,
            partition,
            max_message_bytes=leader_log.max_message_bytes,
            segment_records=leader_log.segment_records,
            segment_bytes=leader_log.segment_bytes,
            log_start_offset=start,
        )
        if missing:
            fresh.append_stored(missing)
        # The rebuilt log adopts the leader's epoch and (committed) high
        # watermark so its committed reads match the leader's.
        fresh.note_leader_epoch(leader_log.leader_epoch)
        fresh.advance_high_watermark(
            min(leader_log.high_watermark, fresh.log_end_offset)
        )
        with self._lock:
            if follower.online and fresh.log_end_offset >= leader_end:
                if broker_id not in assignment.isr:
                    assignment.isr.append(broker_id)
        return fresh.log_end_offset

    def check_min_isr(self, topic: str, partition: int, min_insync: int) -> None:
        """Raise :class:`NotEnoughReplicasError` if the ISR is too small."""
        isr = self.replicate_from_leader(topic, partition)
        if len(isr) < min_insync:
            raise NotEnoughReplicasError(
                f"{topic}-{partition}: ISR={isr} below min.insync.replicas={min_insync}"
            )

    # ------------------------------------------------------------------ #
    # Leader election
    # ------------------------------------------------------------------ #
    def elect_leader(self, topic: str, partition: int) -> Optional[int]:
        """Elect a new leader from the ISR when the current leader is offline.

        Prefers in-sync replicas; falls back to any online replica (unclean
        election) so the partition stays available, mirroring the paper's
        emphasis on availability for scientific workloads.  Returns the new
        leader id, or ``None`` if every replica is offline.
        """
        with self._lock:
            assignment = self._assignments[(topic, partition)]
            current = self._brokers[assignment.leader]
            if current.online:
                return assignment.leader
            candidates = [b for b in assignment.isr if self._brokers[b].online]
            if not candidates:
                candidates = [b for b in assignment.replicas if self._brokers[b].online]
            if not candidates:
                return None
            assignment.leader = candidates[0]
            assignment.leader_epoch += 1
            assignment.isr = [b for b in assignment.replicas if self._brokers[b].online]
            # Fence immediately: stamp the new epoch onto every online
            # replica's log so a deposed leader that comes back (or kept
            # a stale view) is rejected on its first write, not on the
            # next replication round.
            new_leader = self._brokers[assignment.leader]
            leader_log = (
                new_leader.replica(topic, partition)
                if new_leader.has_replica(topic, partition)
                else None
            )
            for b in assignment.replicas:
                broker = self._brokers[b]
                if not broker.online or not broker.has_replica(topic, partition):
                    continue
                log = broker.replica(topic, partition)
                log.note_leader_epoch(assignment.leader_epoch)
                if (
                    b != assignment.leader
                    and leader_log is not None
                    and log.log_end_offset > leader_log.log_end_offset
                ):
                    # This replica outran the elected leader: its extra
                    # records are a deposed leader's uncommitted suffix
                    # that the new leadership will overwrite offset for
                    # offset.  The suffix sits inside sealed chunks (no
                    # mid-chunk truncation), so rebuild from scratch; the
                    # next replication round repopulates it.
                    fresh = broker.reset_replica(
                        topic,
                        partition,
                        max_message_bytes=leader_log.max_message_bytes,
                        segment_records=leader_log.segment_records,
                        segment_bytes=leader_log.segment_bytes,
                        log_start_offset=leader_log.log_start_offset,
                    )
                    fresh.note_leader_epoch(assignment.leader_epoch)
            return assignment.leader

    def handle_broker_failure(self, broker_id: int) -> List[PartitionAssignment]:
        """Re-elect leaders for every partition led by a failed broker."""
        affected: List[PartitionAssignment] = []
        with self._lock:
            assignments = list(self._assignments.values())
        for assignment in assignments:
            if assignment.leader == broker_id:
                self.elect_leader(assignment.topic, assignment.partition)
                affected.append(assignment)
        return affected
