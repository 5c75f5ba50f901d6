"""Administrative (control-plane) client for the event fabric.

The paper's system splits a managed control plane — topic, ACL and broker
administration through the Octopus Web Service — from the client data
plane that serves event traffic (Sections IV-B/IV-F).
:class:`FabricAdmin` is the control-plane half of that split for the
in-process fabric: every operation that changes cluster *metadata* (topic
creation/deletion, config and partition updates, broker failure
injection/restoration, retention runs, authorizer wiring) lives here,
behind one authorization path, while :class:`~repro.fabric.cluster.FabricCluster`
keeps only the hot data plane (produce, fetch, offsets).

Like Kafka's ``AdminClient``, a :class:`FabricAdmin` is a *view* onto a
cluster rather than a separate server: it is cheap to construct, several
may exist per cluster (e.g. one per principal), and all of them mutate
the same underlying metadata under the cluster's lock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.fabric.errors import (
    AuthorizationError,
    TopicAlreadyExistsError,
    UnknownBrokerError,
    UnknownTopicError,
)
from repro.fabric.record import StoredRecord
from repro.fabric.replication import PartitionAssignment
from repro.fabric.topic import Topic, TopicConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.fabric.broker import Broker
    from repro.fabric.cluster import Authorizer, FabricCluster

#: Admin authorizer callback signature: (principal, operation, resource) -> bool.
#: Operations are control-plane verbs (``CREATE_TOPIC``, ``FAIL_BROKER``, ...),
#: resources are ``topic:<name>``, ``broker:<id>`` or ``cluster``.
AdminAuthorizer = Callable[[Optional[str], str, str], bool]


class FabricAdmin:
    """Control-plane operations on a :class:`FabricCluster`.

    Parameters
    ----------
    cluster:
        The cluster whose metadata this admin manages.
    principal:
        Identity performing the administrative operations; checked by
        ``authorizer`` on every call.
    authorizer:
        Optional ``(principal, operation, resource) -> bool`` hook — the
        single authorization path every control operation goes through.
        ``None`` allows everything (in-process trusted controller).
    """

    def __init__(
        self,
        cluster: "FabricCluster",
        *,
        principal: Optional[str] = None,
        authorizer: Optional[AdminAuthorizer] = None,
    ) -> None:
        self._cluster = cluster
        self.principal = principal
        self._authorizer = authorizer

    # ------------------------------------------------------------------ #
    # The one authorization path
    # ------------------------------------------------------------------ #
    def _authorize(self, operation: str, resource: str) -> None:
        if self._authorizer is not None and not self._authorizer(
            self.principal, operation, resource
        ):
            raise AuthorizationError(
                f"principal {self.principal!r} is not authorized to "
                f"{operation} on {resource}"
            )

    # ------------------------------------------------------------------ #
    # Topic administration
    # ------------------------------------------------------------------ #
    def create_topic(self, name: str, config: Optional[TopicConfig] = None) -> Topic:
        """Create a topic and place its partition replicas on brokers."""
        self._authorize("CREATE_TOPIC", f"topic:{name}")
        c = self._cluster
        config = config or TopicConfig()
        config.validate()
        with c._lock:
            if name in c._topics:
                raise TopicAlreadyExistsError(f"topic {name!r} already exists")
            if config.replication_factor > len(c._brokers):
                config = config.with_updates(replication_factor=len(c._brokers))
            topic = Topic(name=name, config=config)
            c._topics[name] = topic
            for partition in range(config.num_partitions):
                self._place_partition(topic, partition)
            return topic

    def delete_topic(self, name: str) -> None:
        """Remove a topic, its broker replicas and its replication state."""
        self._authorize("DELETE_TOPIC", f"topic:{name}")
        c = self._cluster
        with c._lock:
            topic = c._topics.pop(name, None)
            if topic is None:
                raise UnknownTopicError(f"topic {name!r} does not exist")
            for broker in c._brokers.values():
                for partition in range(topic.num_partitions):
                    broker.drop_replica(name, partition)
            c._replication.unregister_topic(name)
        c._bump_metadata_epoch()

    def update_topic_config(self, name: str, **updates) -> TopicConfig:
        """Apply config updates; new partitions get replica placements."""
        self._authorize("ALTER_TOPIC", f"topic:{name}")
        c = self._cluster
        with c._lock:
            topic = c.topic(name)
            before = topic.num_partitions
            config = topic.update_config(**updates)
            for partition in range(before, topic.num_partitions):
                self._place_partition(topic, partition)
            grew = topic.num_partitions > before
        if grew:
            # Producers cache per-topic partition counts keyed on the
            # metadata epoch; bumping it makes them route to the new
            # partitions immediately instead of after metadata max-age.
            c._bump_metadata_epoch()
        return config

    def set_partitions(self, name: str, num_partitions: int) -> TopicConfig:
        """``POST /topic/<topic>/partitions`` — grow the partition count."""
        return self.update_topic_config(name, num_partitions=num_partitions)

    def _place_partition(self, topic: Topic, partition: int) -> PartitionAssignment:
        """Round-robin replica placement across brokers, leader = first replica."""
        c = self._cluster
        broker_ids = sorted(c._brokers)
        rf = min(topic.config.replication_factor, len(broker_ids))
        start = c._placement_cursor
        c._placement_cursor += 1
        replicas = [broker_ids[(start + i) % len(broker_ids)] for i in range(rf)]
        for broker_id in replicas:
            c._brokers[broker_id].create_replica(
                topic.name, partition, **topic.config.log_kwargs()
            )
        assignment = PartitionAssignment(
            topic=topic.name, partition=partition, replicas=replicas, leader=replicas[0]
        )
        c._replication.register(assignment)
        return assignment

    # ------------------------------------------------------------------ #
    # Broker administration / failure injection
    # ------------------------------------------------------------------ #
    def _broker(self, broker_id: int) -> "Broker":
        try:
            return self._cluster._brokers[broker_id]
        except KeyError:
            raise UnknownBrokerError(
                f"broker {broker_id} is not part of cluster {self._cluster.name!r}"
            ) from None

    def fail_broker(self, broker_id: int) -> List[PartitionAssignment]:
        """Crash a broker and re-elect leaders for its partitions."""
        self._authorize("FAIL_BROKER", f"broker:{broker_id}")
        c = self._cluster
        self._broker(broker_id).shutdown()
        c._bump_metadata_epoch()
        return c._replication.handle_broker_failure(broker_id)

    def restore_broker(self, broker_id: int) -> None:
        """Bring a broker back; followers re-sync on the next replication pass."""
        self._authorize("RESTORE_BROKER", f"broker:{broker_id}")
        c = self._cluster
        self._broker(broker_id).restart()
        c._bump_metadata_epoch()
        for assignment in c._replication.all_assignments():
            if broker_id in assignment.replicas:
                c._replication.replicate_from_leader(
                    assignment.topic, assignment.partition
                )

    # ------------------------------------------------------------------ #
    # Retention
    # ------------------------------------------------------------------ #
    def run_retention(self, topic_name: Optional[str] = None) -> Dict[str, Dict[int, int]]:
        """Run retention/compaction on one topic or every topic.

        The cleanup policy is applied to each partition's *leader* log —
        the log consumers are served from — and the removed counts are
        the leader's.  The other online replicas follow: they truncate to
        the leader's new log start, and under ``compact`` each runs its
        own compaction pass (as Kafka's cleaner does per replica).  An
        offline replica is aligned when it next replicates.
        """
        self._authorize("RUN_RETENTION", f"topic:{topic_name}" if topic_name else "cluster")
        c = self._cluster
        with c._lock:
            names = [topic_name] if topic_name else list(c._topics)
        removed: Dict[str, Dict[int, int]] = {}
        for name in names:
            config = c.topic(name).config
            removed[name] = {}
            for assignment in c._replication.assignments_for_topic(name):
                partition = assignment.partition
                leader_log = c._online_leader_log(assignment)
                if leader_log is None:
                    removed[name][partition] = 0  # no online replica to clean
                    continue
                removed[name][partition] = c._retention.enforce(config, leader_log)
                for broker_id in assignment.replicas:
                    broker = c._brokers[broker_id]
                    if (
                        broker_id != assignment.leader
                        and broker.online
                        and broker.has_replica(name, partition)
                    ):
                        follower_log = broker.replica(name, partition)
                        if config.cleanup_policy == "compact":
                            follower_log.compact()
                        else:
                            follower_log.truncate_before(leader_log.log_start_offset)
        return removed

    # ------------------------------------------------------------------ #
    # Authorization wiring and persistence
    # ------------------------------------------------------------------ #
    def set_authorizer(self, authorizer: Optional["Authorizer"]) -> None:
        """Install (or clear) the data-plane per-topic authorizer.

        Bumps the cluster's auth epoch, so standing fetch sessions discard
        their cached per-topic authorization and re-check on their next
        fetch.  ACL stores whose *internal* state changes without the
        authorizer callable being replaced should call
        :meth:`FabricCluster.bump_auth_epoch` on every mutation (see
        :meth:`repro.auth.acl.AclStore.add_invalidation_listener`).
        """
        self._authorize("SET_AUTHORIZER", "cluster")
        self._cluster._set_authorizer(authorizer)

    def add_persistence_sink(
        self, sink: Callable[[str, int, StoredRecord], None]
    ) -> None:
        """Register a callback invoked for every record on persistent topics.

        This models the red "persistence to reliable cloud storage" arrow in
        Figure 2 of the paper; :mod:`repro.services.storage` provides an
        S3-like sink.
        """
        self._authorize("ADD_PERSISTENCE_SINK", "cluster")
        self._cluster._persistence_sinks.append(sink)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def describe_cluster(self) -> dict:
        self._authorize("DESCRIBE", "cluster")
        c = self._cluster
        with c._lock:
            return {
                "name": c.name,
                "brokers": [b.describe() for b in c._brokers.values()],
                "topics": sorted(c._topics),
            }

    def describe_topic(self, name: str) -> dict:
        """Topic description as returned by ``GET /topic/<topic>``.

        ``end_offsets`` and ``total_records`` are read from each
        partition's leader log; a partition with no online replica
        reports end offset ``0``, like :meth:`FabricCluster.end_offsets`.
        """
        self._authorize("DESCRIBE", f"topic:{name}")
        c = self._cluster
        description = c.topic(name).describe()
        logs = {
            assignment.partition: c._online_leader_log(assignment)
            for assignment in c._replication.assignments_for_topic(name)
        }
        description["end_offsets"] = {
            index: log.log_end_offset if log is not None else 0
            for index, log in logs.items()
        }
        description["total_records"] = sum(
            len(log) for log in logs.values() if log is not None
        )
        return description

    def describe_segments(self, name: str, partition: Optional[int] = None) -> dict:
        """Per-partition storage-segment layout of a topic's leader logs.

        Returns, per partition, the log start/end offsets, retained byte
        counts — ``size_bytes`` is *physical* (compressed chunks at their
        stored size, what retention charges), ``logical_size_bytes`` the
        uncompressed record bytes consumers receive — and every segment's
        ``{base_offset, end_offset, records, size_bytes,
        logical_size_bytes, min_append_time, max_append_time, sealed,
        contiguous}`` — the operator's view of what a retention run would
        drop whole, where the active segment sits, and how much batch
        compression is actually saving on disk.  Each partition also
        carries its replication placement — ``leader``, ``leader_epoch``,
        ``isr`` and the leader log's ``high_watermark`` — so the failover
        state (who leads, under which fencing epoch, how far committed
        reads go) is inspectable from the same call.  Pass ``partition``
        to restrict the answer to one partition.  The layout is that of
        the serving log, so a partition with no online replica raises
        :class:`~repro.fabric.errors.BrokerUnavailableError`.
        """
        self._authorize("DESCRIBE", f"topic:{name}")
        c = self._cluster
        topic = c.topic(name)
        indices = [partition] if partition is not None else range(topic.num_partitions)
        partitions = {}
        for index in indices:
            log = c._leader_for(name, index).replica(name, index)
            assignment = c._replication.assignment(name, index)
            partitions[index] = {
                "log_start_offset": log.log_start_offset,
                "log_end_offset": log.log_end_offset,
                "size_bytes": log.size_bytes,
                "logical_size_bytes": log.logical_size_bytes,
                "num_segments": log.num_segments,
                "segments": log.describe_segments(),
                "leader": assignment.leader,
                "leader_epoch": assignment.leader_epoch,
                "isr": list(assignment.isr),
                "high_watermark": log.high_watermark,
            }
        return {"topic": name, "partitions": partitions}

    def list_topics(self) -> List[str]:
        self._authorize("DESCRIBE", "cluster")
        return self._cluster.topics()

    def list_groups(self) -> List[str]:
        self._authorize("DESCRIBE", "cluster")
        return self._cluster.groups.group_ids()

    def describe_group(self, group_id: str) -> dict:
        self._authorize("DESCRIBE", f"group:{group_id}")
        return self._cluster.groups.describe(group_id)
