"""The fabric cluster: brokers, topic metadata and the data path.

:class:`FabricCluster` is the stand-in for an MSK deployment (Table II of
the paper): a set of brokers serving the client *data plane* — batched
produces routed to partition leaders, multi-partition fetch sessions,
offset lookups and batched group commits.  Control-plane operations
(topic/broker administration, retention, authorizer wiring) live on
:class:`~repro.fabric.admin.FabricAdmin` (``cluster.admin()``); the old
delegating shims on ``FabricCluster`` have been removed.

Produce is *one-encode*: :meth:`FabricCluster.append_batch` packs the
records once (or accepts a producer-sealed
:class:`~repro.fabric.record.PackedRecordBatch`), the leader log adopts
the packed batch by reference, and the offset-stamped result — still
sharing the same record tuple and payload — is forwarded to persistence
sinks and producer metadata without re-materialising a single record.
The leader replica *is* the partition: retention, compaction and every
``describe_*`` call operate on the log that is served, and followers
receive the leader's chunks (and its log start) through replication.

Per-topic authorization is delegated to an optional
:class:`~repro.auth.acl.AclStore`-compatible authorizer, matching how MSK
enforces IAM ACLs maintained through the Octopus Web Service.  Fetch
sessions cache the outcome per topic, scoped to the cluster's *auth
epoch*: installing a new authorizer (or mutating the backing ACL store)
bumps the epoch, so a session authorizes each topic once per epoch rather
than once per fetch and still sees revocations on its next call.
"""

from __future__ import annotations

import itertools
import threading
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.common.clock import Clock, SystemClock
from repro.common.sync import create_rlock
from repro.fabric.broker import Broker, BrokerSpec
from repro.fabric.errors import (
    AuthorizationError,
    BrokerUnavailableError,
    InvalidRequestError,
    RecordTooLargeError,
    UnknownTopicError,
)
from repro.fabric.group import ConsumerGroupCoordinator, TopicPartition
from repro.fabric.offsets import CommittedOffset, GroupOffsets, OffsetStore
from repro.fabric.record import (
    EventRecord,
    PackedRecordBatch,
    RecordMetadata,
    StoredRecord,
)
from repro.fabric.replication import PartitionAssignment, ReplicationManager
from repro.fabric.retention import RetentionEnforcer
from repro.fabric.topic import Topic

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle otherwise)
    from repro.fabric.admin import AdminAuthorizer, FabricAdmin

#: Authorizer callback signature: (principal, operation, topic) -> bool.
Authorizer = Callable[[Optional[str], str, str], bool]


def _allow_all(principal: Optional[str], operation: str, topic: str) -> bool:
    return True


class FetchRequest(NamedTuple):
    """One partition's slice of a multi-partition fetch.

    ``max_records`` is an optional per-partition cap layered *under* the
    session-wide record cap — ``None`` means the partition may use whatever
    remains of the session budget.
    """

    topic: str
    partition: int
    offset: int
    max_records: Optional[int] = None


#: Shapes accepted by :meth:`FabricCluster.fetch_many` / :meth:`FetchSession.fetch`:
#: a mapping of ``(topic, partition) -> offset`` or an ordered iterable of
#: :class:`FetchRequest`-compatible tuples.
FetchRequests = Union[
    Mapping[TopicPartition, int],
    Iterable[Union[FetchRequest, Tuple[str, int, int]]],
]


class FetchSession:
    """A reader's standing context for multi-partition fetches.

    Mirrors Kafka's incremental fetch sessions: the expensive parts of a
    fetch — leader resolution per partition — are cached on the session and
    reused across calls, while authorization is still checked once per
    topic per call.  The cache is invalidated when the cluster's metadata
    epoch moves (broker failure/restore, leader election, topic deletion)
    or when a cached leader is observed offline, so a session held across a
    broker crash transparently fails over to the new leader on its next
    fetch.  :meth:`fetch` (a request list) and :meth:`fetch_assignment` (a
    standing partition set) only gather the leader/log arrays differently;
    both are served by the cluster's one serve loop over
    :meth:`Broker.fetch_many`.
    """

    def __init__(self, cluster: "FabricCluster", *, principal: Optional[str] = None) -> None:
        self._cluster = cluster
        self.principal = principal
        #: (topic, partition) -> (leader broker, its replica log).  Caching
        #: the log alongside the broker lets repeat fetches skip the broker's
        #: replica-table lock entirely.
        self._leaders: Dict[TopicPartition, Tuple[Broker, "object"]] = {}
        self._epoch = cluster.metadata_epoch
        # Per-topic authorization outcomes, valid for one auth epoch: the
        # session re-checks a topic only when the cluster's authorizer (or
        # its backing ACL store) changes.
        self._auth_epoch = cluster.auth_epoch
        self._authorized_topics: Set[str] = set()
        # Assignment mode: a standing partition list whose (leader, log)
        # arrays are resolved once and reused verbatim every fetch.
        self._assignment: List[TopicPartition] = []
        self._assignment_topics: Tuple[str, ...] = ()
        self._assignment_brokers: Optional[List[Broker]] = None
        self._assignment_logs: Optional[list] = None

    def invalidate(self) -> None:
        """Drop every cached leader; the next fetch re-resolves from metadata.

        Cached topic authorizations are dropped too: metadata moves (topic
        deletion in particular) must force the next fetch back through the
        full authorize-and-resolve path.
        """
        self._leaders.clear()
        self._assignment_brokers = None
        self._assignment_logs = None
        self._authorized_topics.clear()

    def cached_leaders(self) -> Dict[TopicPartition, int]:
        """Snapshot of the cached leader broker id per partition (introspection)."""
        return {tp: broker.broker_id for tp, (broker, _) in self._leaders.items()}

    def fetch(
        self,
        requests: FetchRequests,
        *,
        max_records: int = 500,
        max_bytes: Optional[int] = None,
        isolation: str = "committed",
    ) -> Dict[TopicPartition, List[StoredRecord]]:
        """Fetch every requested partition in one pass under shared caps.

        ``isolation="committed"`` (the default) serves only offsets below
        each partition's high watermark; ``"uncommitted"`` opts back into
        reading to the log end.
        """
        requests = _normalize_fetch_requests(requests)
        if not requests:
            return {}
        self._begin({request[0] for request in requests})
        brokers, logs = self._resolve_all(request[:2] for request in requests)
        return self._cluster._serve(
            self, requests, brokers, logs, max_records, max_bytes, isolation
        )

    def set_assignment(self, partitions: Sequence[TopicPartition]) -> None:
        """Declare the standing partition set served by :meth:`fetch_assignment`.

        Mirrors Kafka's incremental fetch sessions: the member's assignment
        is registered once (per rebalance), so per-fetch requests carry only
        offsets, and leader/log resolution happens once per metadata epoch
        instead of once per fetch.
        """
        self._assignment = [(topic, partition) for topic, partition in partitions]
        seen: List[str] = []
        for topic, _ in self._assignment:
            if topic not in seen:
                seen.append(topic)
        self._assignment_topics = tuple(seen)
        self._assignment_brokers = None
        self._assignment_logs = None

    def fetch_assignment(
        self,
        positions: Mapping[TopicPartition, int],
        *,
        start: int = 0,
        max_records: int = 500,
        max_bytes: Optional[int] = None,
        isolation: str = "committed",
    ) -> Dict[TopicPartition, List[StoredRecord]]:
        """Fetch the standing assignment from ``positions`` in one pass.

        ``start`` rotates which partition the session-wide
        ``max_records``/``max_bytes`` budget is charged to first, so a
        caller polling in a loop can keep the budget fair across the
        assignment.  ``positions`` is read during the call only.

        The same serve as :meth:`fetch`; what the standing assignment saves
        is the per-call cache lookups — its (leader, log) arrays are
        resolved once per metadata epoch and reused verbatim.
        """
        order = self._assignment
        if not order:
            return {}
        self._begin(self._assignment_topics)
        if self._assignment_brokers is None:
            self._assignment_brokers, self._assignment_logs = self._resolve_all(order)
        brokers = self._assignment_brokers
        logs = self._assignment_logs
        if start:
            start %= len(order)
            order = order[start:] + order[:start]
            brokers = brokers[start:] + brokers[:start]
            logs = logs[start:] + logs[:start]
        requests = [(tp[0], tp[1], positions[tp], None) for tp in order]
        return self._cluster._serve(
            self, requests, brokers, logs, max_records, max_bytes, isolation
        )

    def _begin(self, topics: Iterable[str]) -> None:
        """Per-call preamble.  Metadata first: a moved epoch (topic deletion,
        failover) must clear the cached authorizations before they are
        consulted."""
        epoch = self._cluster.metadata_epoch
        if self._epoch != epoch:
            self.invalidate()
            self._epoch = epoch
        self._cluster._session_authorize(self, topics)

    def _resolve(self, topic: str, partition: int) -> Tuple[Broker, "object"]:
        """Cached (leader, log) lookup, re-resolving offline/unknown entries."""
        tp = (topic, partition)
        entry = self._leaders.get(tp)
        if entry is None or not entry[0].online:
            broker = self._cluster._leader_for(topic, partition)
            entry = (broker, broker.replica(topic, partition))
            self._leaders[tp] = entry
        return entry

    def _resolve_all(
        self, partitions: Iterable[TopicPartition]
    ) -> Tuple[List[Broker], list]:
        """Position-matched (leaders, logs) arrays for ``partitions``."""
        entries = [self._resolve(topic, partition) for topic, partition in partitions]
        return [broker for broker, _ in entries], [log for _, log in entries]


def _normalize_fetch_requests(requests: FetchRequests) -> List[FetchRequest]:
    # Fast path for the common caller (gateway/mirror build uniform
    # FetchRequest lists every cycle): no re-wrapping, one type check per
    # element — mixed FetchRequest/tuple lists fall through to the general
    # normalization below.
    if type(requests) is list and all(type(req) is FetchRequest for req in requests):
        return requests
    if isinstance(requests, Mapping):
        return [
            FetchRequest(topic, partition, offset)
            for (topic, partition), offset in requests.items()
        ]
    return [
        req if isinstance(req, FetchRequest) else FetchRequest(*req)
        for req in requests
    ]


class FabricCluster:
    """An in-process cluster of brokers exposing a Kafka-like API."""

    def __init__(
        self,
        num_brokers: int = 2,
        *,
        instance_type: str = "kafka.m5.large",
        vcpus_per_broker: int = 2,
        memory_gb_per_broker: int = 8,
        authorizer: Optional[Authorizer] = None,
        name: str = "octopus-msk",
        clock: Optional[Clock] = None,
    ) -> None:
        if num_brokers < 1:
            raise ValueError("a cluster needs at least one broker")
        self.name = name
        # One injectable clock feeds every time-aware component — offset
        # commit stamps, group liveness, log append times and retention —
        # so a ManualClock drives the whole cluster deterministically.
        self._clock: Clock = clock if clock is not None else SystemClock()
        zones = ("us-east-1a", "us-east-1b", "us-east-1c", "us-east-1d")
        self._brokers: Dict[int, Broker] = {
            broker_id: Broker(
                BrokerSpec(
                    broker_id=broker_id,
                    instance_type=instance_type,
                    vcpus=vcpus_per_broker,
                    memory_gb=memory_gb_per_broker,
                    availability_zone=zones[broker_id % len(zones)],
                ),
                clock=self._clock,
            )
            for broker_id in range(num_brokers)
        }
        self._topics: Dict[str, Topic] = {}
        self._lock = create_rlock("FabricCluster")
        self._replication = ReplicationManager(self._brokers, clock=self._clock)
        self._offsets = OffsetStore(clock=self._clock)
        self._groups = ConsumerGroupCoordinator(clock=self._clock)
        self._retention = RetentionEnforcer(now_fn=self._clock.now)
        self._authorizer: Authorizer = authorizer or _allow_all
        self._placement_cursor = 0
        self._persistence_sinks: List[Callable[[str, int, StoredRecord], None]] = []
        self._metadata_epoch = 0
        self._auth_epoch = 0
        self._default_admin: Optional["FabricAdmin"] = None
        # Data-availability signal for long-poll fetches: the version
        # counter moves (and waiters wake) after every successful append.
        # A Condition rather than an Event so many pollers can park on it;
        # both fields are touched only under the condition's own lock.
        self._data_cond = threading.Condition()
        self._append_version = 0
        self._wire_authorizer_invalidation(authorizer)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def brokers(self) -> Dict[int, Broker]:
        return dict(self._brokers)

    @property
    def clock(self) -> Clock:
        """The injectable clock every cluster component shares."""
        return self._clock

    @property
    def offsets(self) -> OffsetStore:
        return self._offsets

    @property
    def groups(self) -> ConsumerGroupCoordinator:
        return self._groups

    @property
    def replication(self) -> ReplicationManager:
        return self._replication

    @property
    def metadata_epoch(self) -> int:
        """Monotonic counter bumped whenever leadership metadata may change.

        Fetch sessions compare their snapshot against this to decide when
        cached leader resolutions must be discarded.  Read without the
        cluster lock: a torn read is impossible for a CPython int, and the
        worst case of racing a bump is one extra invalidation.
        """
        return self._metadata_epoch

    def _bump_metadata_epoch(self) -> None:
        with self._lock:
            self._metadata_epoch += 1

    @property
    def auth_epoch(self) -> int:
        """Monotonic counter bumped whenever authorization state may change.

        Fetch sessions cache per-topic authorization outcomes scoped to
        this epoch; installing a new authorizer or mutating the backing
        ACL store bumps it (see :meth:`bump_auth_epoch`), forcing every
        session to re-authorize on its next fetch.  Lock-free read, like
        :attr:`metadata_epoch`.
        """
        return self._auth_epoch

    def bump_auth_epoch(self) -> None:
        """Invalidate every session's cached per-topic authorization.

        ACL stores call this (directly or via
        :meth:`repro.auth.acl.AclStore.add_invalidation_listener`) whenever
        a grant or revocation changes what the current authorizer would
        answer.
        """
        with self._lock:
            self._auth_epoch += 1

    @property
    def append_version(self) -> int:
        """Monotonic counter bumped after every successful append.

        The long-poll primitive: a reader that finds nothing to fetch
        snapshots this version, re-checks its position, and parks in
        :meth:`wait_for_data` until the version moves (any partition
        received data) or its wait budget expires.  Reading it outside
        the condition's lock is safe for the same reason as
        :attr:`metadata_epoch` — the worst race is one spurious wakeup.
        """
        return self._append_version

    def wait_for_data(self, version: int, timeout: float) -> int:
        """Block until :attr:`append_version` moves past ``version``.

        Returns the current version (which may equal ``version`` when the
        wait timed out).  Used by the HTTP gateway's ``max_wait_ms`` fetch
        long-poll; the snapshot-then-wait protocol means an append that
        lands between the caller's empty fetch and this wait is never
        missed — the version has already moved, so the wait returns
        immediately.
        """
        with self._data_cond:
            if self._append_version == version and timeout > 0:
                self._data_cond.wait(timeout)
            return self._append_version

    def _notify_data(self) -> None:
        """Wake every parked long-poller: new records were appended."""
        with self._data_cond:
            self._append_version += 1
            self._data_cond.notify_all()

    def interrupt_waiters(self) -> None:
        """Wake every parked long-poller *without* signalling new data.

        The graceful-drain hook: :attr:`append_version` does not move, so
        a woken poller re-checks its deadline (and the gateway its drain
        flag) and returns promptly instead of parking out its full wait
        budget against a server that is shutting down.
        """
        with self._data_cond:
            self._data_cond.notify_all()

    def _set_authorizer(self, authorizer: Optional[Authorizer]) -> None:
        """Install the data-plane authorizer (control plane: FabricAdmin)."""
        self._authorizer = authorizer or _allow_all
        self._wire_authorizer_invalidation(authorizer)
        self.bump_auth_epoch()

    def _wire_authorizer_invalidation(self, authorizer: Optional[Authorizer]) -> None:
        """Auto-subscribe to an authorizer's invalidation hook, if it has one.

        Epoch-scoped ACL caching is only safe if mutations of the
        authorizer's *backing state* bump the auth epoch.  Authorizers built
        by :meth:`repro.auth.acl.AclStore.as_authorizer` expose the store's
        ``add_invalidation_listener`` on the callable; wiring it here means
        every way of installing one — constructor, ``FabricAdmin`` — keeps
        revocations enforced on standing sessions with no call-site wiring.
        """
        hook = getattr(authorizer, "add_invalidation_listener", None)
        if callable(hook):
            hook(self.bump_auth_epoch)

    # ------------------------------------------------------------------ #
    # Control-plane access
    # ------------------------------------------------------------------ #
    def admin(
        self,
        *,
        principal: Optional[str] = None,
        authorizer: Optional["AdminAuthorizer"] = None,
    ) -> "FabricAdmin":
        """An administrative (control-plane) client for this cluster.

        With no arguments the same allow-all default admin is returned on
        every call; passing ``principal``/``authorizer`` builds a dedicated
        admin whose operations all flow through that authorizer.
        """
        from repro.fabric.admin import FabricAdmin

        if principal is None and authorizer is None:
            with self._lock:
                if self._default_admin is None:
                    self._default_admin = FabricAdmin(self)
                return self._default_admin
        return FabricAdmin(self, principal=principal, authorizer=authorizer)

    # ------------------------------------------------------------------ #
    # Topic metadata (read-only; the control plane mutates via FabricAdmin)
    # ------------------------------------------------------------------ #
    def topic(self, name: str) -> Topic:
        with self._lock:
            try:
                return self._topics[name]
            except KeyError:
                raise UnknownTopicError(f"topic {name!r} does not exist") from None

    def has_topic(self, name: str) -> bool:
        with self._lock:
            return name in self._topics

    def topics(self) -> List[str]:
        with self._lock:
            return sorted(self._topics)

    # ------------------------------------------------------------------ #
    # Authorization
    # ------------------------------------------------------------------ #
    def authorize(self, principal: Optional[str], operation: str, topic: str) -> None:
        """The data-plane hook: AuthorizationError unless the authorizer allows."""
        if not self._authorizer(principal, operation, topic):
            raise AuthorizationError(
                f"principal {principal!r} is not authorized to {operation} topic {topic!r}"
            )

    def _session_authorize(self, session: "FetchSession", topics: Iterable[str]) -> None:
        """Authorize a session's topics, cached for the current auth epoch.

        A topic is checked (READ permission + existence) at most once per
        auth epoch per session; :meth:`bump_auth_epoch` — called on
        authorizer installation and ACL mutation — drops the cache, so a
        revocation is enforced on the session's very next fetch.
        """
        epoch = self._auth_epoch
        if session._auth_epoch != epoch:
            session._authorized_topics.clear()
            session._auth_epoch = epoch
        authorized = session._authorized_topics
        for topic in topics:
            if topic not in authorized:
                self.authorize(session.principal, "READ", topic)
                self.topic(topic)  # raises UnknownTopicError
                authorized.add(topic)

    # ------------------------------------------------------------------ #
    # Data path: produce
    # ------------------------------------------------------------------ #
    def _leader_for(self, topic_name: str, partition: int) -> Broker:
        """Resolve the online leader broker for a partition (shared fast path).

        Used by produce, batched produce and fetch so metadata lookup and
        leader election behave identically on every data-plane route.
        """
        assignment = self._replication.assignment(topic_name, partition)
        leader = self._brokers[assignment.leader]
        if not leader.online:
            new_leader = self._replication.elect_leader(topic_name, partition)
            if new_leader is None:
                raise BrokerUnavailableError(
                    f"no online replica for {topic_name}-{partition}"
                )
            leader = self._brokers[new_leader]
            # Leadership moved: standing fetch sessions must re-resolve.
            self._bump_metadata_epoch()
        return leader

    def append(
        self,
        topic_name: str,
        partition: int,
        record: EventRecord,
        *,
        acks: object = 1,
        principal: Optional[str] = None,
    ) -> RecordMetadata:
        """Append one record to a partition leader.

        ``acks`` follows Kafka semantics: ``0`` (fire and forget), ``1``
        (leader has written) or ``"all"`` (ISR must satisfy
        ``min.insync.replicas``).
        """
        return self.append_batch(
            topic_name, partition, [record], acks=acks, principal=principal
        )[0]

    def append_batch(
        self,
        topic_name: str,
        partition: int,
        records: Union[Sequence[EventRecord], PackedRecordBatch],
        *,
        acks: object = 1,
        principal: Optional[str] = None,
    ) -> List[RecordMetadata]:
        """Append a whole batch of records to a partition leader.

        This is the batched data plane: one authorization check, one
        metadata lookup, one leader resolution, one leader-log lock
        round-trip and one follower-replication pass for the entire batch,
        instead of one of each per record.  ``records`` may be a plain
        sequence (packed here, once) or an already-sealed
        :class:`PackedRecordBatch` from the producer — either way every
        layer below holds the same object.  ``acks`` semantics match
        :meth:`append` and apply to the batch as a unit.
        """
        if isinstance(records, PackedRecordBatch):
            packed = records
        else:
            records = list(records)
            if not records:
                return []
            packed = PackedRecordBatch.from_events(records)
        if len(packed) == 0:
            return []
        return self.append_chunks(
            topic_name, partition, (packed,), acks=acks, principal=principal
        )

    def append_chunks(
        self,
        topic_name: str,
        partition: int,
        chunks: Sequence[PackedRecordBatch],
        *,
        acks: object = 1,
        principal: Optional[str] = None,
    ) -> List[RecordMetadata]:
        """Append pre-packed batches under one authorization/leader round.

        The zero-copy forwarding entry point (packed produce, MirrorMaker):
        each chunk is adopted by the leader log *by reference* — the leader
        replica is the partition, nothing else stores the batch until
        replication hands the same chunks to the followers — and the
        offset-stamped result, still sharing the caller's record tuple and
        payload bytes, feeds persistence sinks and producer metadata
        without re-encoding anything.
        """
        self.authorize(principal, "WRITE", topic_name)
        topic = self.topic(topic_name)
        leader = self._leader_for(topic_name, partition)  # unknown partition raises
        # Snapshot the leader epoch *after* leader resolution (which may
        # have elected): the epoch fences this produce — if leadership
        # moves concurrently, the stale append raises a retriable
        # FencedLeaderError instead of forking history on a deposed leader.
        leader_epoch = self._replication.assignment(topic_name, partition).leader_epoch
        if len(chunks) > 1:
            # Validate every chunk up front so a multi-chunk forward stays
            # atomic: the single-chunk path validates inside append_packed.
            limit = leader.replica(topic_name, partition).max_message_bytes
            for chunk in chunks:
                oversize = chunk.check_max_record_size(limit)
                if oversize is not None:
                    raise RecordTooLargeError(
                        f"record of {oversize} B exceeds "
                        f"max.message.bytes={limit} for {topic_name}-{partition}"
                    )
        # Each chunk's append is atomic under the leader log's own lock.
        stamped_chunks = [
            leader.append_packed(
                topic_name, partition, chunk, leader_epoch=leader_epoch
            )
            for chunk in chunks
            if len(chunk)
        ]
        if not stamped_chunks:
            return []
        try:
            if acks == "all":
                # check_min_isr replicates as a side effect (advancing the
                # high watermark), so no second pass is needed.
                self._replication.check_min_isr(
                    topic_name, partition, topic.config.min_insync_replicas
                )
            else:
                # acks 0/1: leader write is durable; one synchronous
                # replication round keeps followers and the high watermark
                # moving with the append.
                self._replication.replicate_from_leader(topic_name, partition)
        finally:
            # Wake long-poll fetchers only after replication has advanced
            # the high watermark — committed readers woken earlier would
            # find nothing below the watermark and burn their wait budget.
            # ``finally`` keeps waiters live when acks=all raises.
            self._notify_data()
        if topic.config.persist_to_store:
            for stamped in stamped_chunks:
                for index in range(len(stamped)):
                    stored = stamped.stored_at(index)
                    for sink in self._persistence_sinks:
                        sink(topic_name, partition, stored)
        return list(itertools.chain.from_iterable(
            stamped.produce_metadata(topic_name, partition) for stamped in stamped_chunks
        ))

    # ------------------------------------------------------------------ #
    # Data path: fetch
    # ------------------------------------------------------------------ #
    def fetch(
        self,
        topic_name: str,
        partition: int,
        offset: int,
        *,
        max_records: int = 500,
        max_bytes: Optional[int] = None,
        principal: Optional[str] = None,
        isolation: str = "committed",
    ) -> List[StoredRecord]:
        """Fetch records from the partition leader starting at ``offset``.

        ``isolation="committed"`` (the default) serves only offsets below
        the high watermark — records every in-sync replica holds;
        ``"uncommitted"`` reads to the log end (the pre-watermark
        behaviour, and what replication itself uses).
        """
        return self.fetch_many(
            [FetchRequest(topic_name, partition, offset)],
            max_records=max_records, max_bytes=max_bytes,
            principal=principal, isolation=isolation,
        ).get((topic_name, partition), [])

    def fetch_session(self, *, principal: Optional[str] = None) -> FetchSession:
        """Open a standing fetch session for a reader of this cluster."""
        return FetchSession(self, principal=principal)

    def fetch_many(
        self,
        requests: FetchRequests,
        *,
        max_records: int = 500,
        max_bytes: Optional[int] = None,
        principal: Optional[str] = None,
        isolation: str = "committed",
    ) -> Dict[TopicPartition, List[StoredRecord]]:
        """Fetch several partitions (possibly several topics) in one pass.

        One authorization check per distinct topic, one leader resolution
        per partition, and the ``max_records``/``max_bytes`` caps are
        charged across the whole request set in request order — the
        multi-partition mirror of :meth:`append_batch`.  Long-lived readers
        should hold a :class:`FetchSession` (see :meth:`fetch_session`) so
        leader resolutions are also cached *across* calls.
        """
        return FetchSession(self, principal=principal).fetch(
            requests, max_records=max_records, max_bytes=max_bytes,
            isolation=isolation,
        )

    def _serve(
        self,
        session: FetchSession,
        requests: Sequence[Tuple[str, int, int, Optional[int]]],
        brokers: List[Broker],
        logs: list,
        max_records: int,
        max_bytes: Optional[int],
        isolation: str,
    ) -> Dict[TopicPartition, List[StoredRecord]]:
        """The one serve loop behind every fetch-session call.

        ``brokers``/``logs`` are the session's resolved leader and replica
        log of each request, position-matched.  The longest run of
        consecutive requests that share a leader is one
        :meth:`Broker.fetch_many` round trip — the only place records are
        read and budgets charged per partition; request order (and
        therefore budget fairness) is preserved across runs.
        """
        out: Dict[TopicPartition, List[StoredRecord]] = {}
        remaining = max_records
        budget = max_bytes
        index = 0
        n = len(requests)
        while index < n and remaining > 0 and (budget is None or budget > 0):
            leader = brokers[index]
            run_start = index
            while index < n and brokers[index] is leader:
                index += 1
            try:
                served, count, nbytes = leader.fetch_many(
                    requests[run_start:index],
                    max_records=remaining,
                    max_bytes=budget,
                    logs=logs[run_start:index],
                    isolation=isolation,
                )
            except BrokerUnavailableError:
                if leader.online:
                    raise  # not a crash (an injected fault): retrying would spin
                # The cached leader crashed since resolution; its online
                # check failed before anything of this run was served.  Drop
                # every cached resolution (the session's standing arrays with
                # them, so patching this call's copies is private), fail the
                # run over per partition — electing where needed — and serve
                # it again under the same budget.
                session.invalidate()
                brokers[run_start:index], logs[run_start:index] = session._resolve_all(
                    request[:2] for request in requests[run_start:index]
                )
                index = run_start
                continue
            if out:
                out.update(served)
            else:
                out = served  # single-run fast path: adopt, don't re-insert
            remaining -= count
            if budget is not None:
                budget -= nbytes
        return out

    def _online_leader_log(self, assignment: PartitionAssignment):
        """The live leader's log for an assignment, electing if the registered
        leader is offline; ``None`` when no replica is online at all."""
        leader = self._brokers[assignment.leader]
        if not leader.online:
            elected = self._replication.elect_leader(
                assignment.topic, assignment.partition
            )
            if elected is None:
                return None
            leader = self._brokers[elected]
        return leader.replica(assignment.topic, assignment.partition)

    def end_offsets(self, topic_name: str) -> Dict[int, int]:
        """Log-end offsets per partition, read from the current leaders."""
        self.topic(topic_name)
        out: Dict[int, int] = {}
        for assignment in self._replication.assignments_for_topic(topic_name):
            log = self._online_leader_log(assignment)
            out[assignment.partition] = log.log_end_offset if log is not None else 0
        return out

    def beginning_offsets(self, topic_name: str) -> Dict[int, int]:
        self.topic(topic_name)
        out: Dict[int, int] = {}
        for assignment in self._replication.assignments_for_topic(topic_name):
            leader = self._brokers[assignment.leader]
            out[assignment.partition] = leader.replica(
                topic_name, assignment.partition
            ).log_start_offset
        return out

    def end_offset(self, topic_name: str, partition: int) -> int:
        """Log-end offset of a single partition.

        O(1) in the topic's partition count, unlike :meth:`end_offsets`
        which walks every assignment — consumers seeking or lag-checking
        one partition at a time should use this.
        """
        self.topic(topic_name)
        try:
            leader = self._leader_for(topic_name, partition)
        except BrokerUnavailableError:
            return 0  # matches end_offsets() when no replica is online
        return leader.replica(topic_name, partition).log_end_offset

    def high_watermark(self, topic_name: str, partition: int) -> int:
        """Committed offset bound of one partition, from the leader log.

        Consumers catching up on lag should measure against this, not
        :meth:`end_offset`: offsets in ``[high_watermark, log_end)`` are
        not yet fully ISR-replicated and are invisible to committed reads.
        """
        self.topic(topic_name)
        try:
            leader = self._leader_for(topic_name, partition)
        except BrokerUnavailableError:
            return 0  # matches end_offset() when no replica is online
        return leader.replica(topic_name, partition).high_watermark

    def beginning_offset(self, topic_name: str, partition: int) -> int:
        """Log-start offset of a single partition (see :meth:`end_offset`)."""
        self.topic(topic_name)
        assignment = self._replication.assignment(topic_name, partition)
        return self._brokers[assignment.leader].replica(
            topic_name, partition
        ).log_start_offset

    def partitions_for(self, topic_name: str) -> List[TopicPartition]:
        topic = self.topic(topic_name)
        return [(topic_name, index) for index in range(topic.num_partitions)]

    def total_lag(self, group_id: str, topic_name: str) -> int:
        """Aggregate consumer lag of a group over a topic (processing pressure).

        One walk over the topic's assignments reads each partition's end
        *and* beginning offset from the same leader log, and lag is clamped
        against the beginning offset so retention-truncated records are not
        reported as phantom backlog.
        """
        self.topic(topic_name)
        lag = 0
        for assignment in self._replication.assignments_for_topic(topic_name):
            log = self._online_leader_log(assignment)
            if log is None:
                continue  # no online replica: nothing fetchable to lag on
            lag += self._offsets.lag(
                group_id,
                topic_name,
                assignment.partition,
                log.log_end_offset,
                beginning_offset=log.log_start_offset,
            )
        return lag

    # ------------------------------------------------------------------ #
    # Offset commits
    # ------------------------------------------------------------------ #
    def commit_group(
        self,
        group_id: str,
        offsets: GroupOffsets,
        *,
        generation: Optional[int] = None,
        member_id: Optional[str] = None,
        metadata: str = "",
    ) -> Dict[TopicPartition, CommittedOffset]:
        """Commit a whole group's offsets in one batched round.

        The group generation is validated once for the batch (when
        ``generation`` is given — ``member_id`` must identify the
        committing member) and the offsets are installed under a single
        :class:`~repro.fabric.offsets.OffsetStore` lock acquisition — the
        group-commit mirror of :meth:`append_batch`/:meth:`fetch_many`.
        The batch is atomic: a stale generation or an invalid offset
        anywhere in it commits nothing.

        Raises :class:`~repro.fabric.errors.IllegalGenerationError` on a
        stale generation or unknown member.
        """
        if generation is not None:
            if member_id is None:
                raise InvalidRequestError(
                    "member_id is required when generation is given"
                )
            self._groups.validate_generation(group_id, member_id, generation)
        return self._offsets.commit_many(group_id, offsets, metadata=metadata)

