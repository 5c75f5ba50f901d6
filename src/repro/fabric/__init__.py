"""Kafka-like event fabric.

This package is the substrate the paper builds Octopus on top of (Apache
Kafka hosted on AWS MSK).  It provides an in-process, thread-safe
implementation of the parts of Kafka the paper's evaluation and
applications exercise:

* append-only partition logs with strictly increasing offsets, stored as
  Kafka-style segments (an active segment plus sealed, immutable ones) so
  retention drops whole segments and reads skip the append lock; segment
  storage holds :class:`~repro.fabric.record.PackedRecordBatch` chunks —
  a record is encoded once at produce and forwarded by reference through
  storage, fetch, replication and mirroring,
* topics composed of one or more partitions with a replication factor,
* a cluster of brokers with leader election and in-sync replica (ISR)
  tracking, plus an explicit admin (control-plane) client —
  :class:`~repro.fabric.admin.FabricAdmin` — that owns topic/broker
  administration, retention runs and authorizer wiring,
* producers with configurable acknowledgements (``acks`` of ``0``, ``1``
  or ``"all"``), retries and batching,
* consumers and consumer groups with partition assignment, rebalancing
  and committed offsets (at-least-once delivery),
* retention and compaction policies, and
* a MirrorMaker-like cross-cluster replicator.

Public API boundary
-------------------
``repro.fabric.__all__`` below *is* the supported surface: the classes,
codec-registry functions and the complete error taxonomy the HTTP gateway
(:mod:`repro.gateway`) exposes over the wire.  Anything not listed is
internal and may change or disappear without a deprecation cycle.
"""

from repro.fabric.record import (
    EventRecord,
    PackedRecordBatch,
    PackedView,
    RecordBatch,
    RecordMetadata,
    get_codec,
    register_codec,
    registered_codecs,
)
from repro.fabric.partition import LogSegment, PartitionLog
from repro.fabric.topic import Topic, TopicConfig
from repro.fabric.broker import Broker
from repro.fabric.admin import FabricAdmin
from repro.fabric.cluster import FabricCluster, FetchRequest, FetchSession
from repro.fabric.producer import FabricProducer, ProducerConfig
from repro.fabric.consumer import FabricConsumer, ConsumerConfig
from repro.fabric.group import ConsumerGroupCoordinator
from repro.fabric.offsets import OffsetStore
from repro.fabric.errors import (
    FabricError,
    UnknownTopicError,
    UnknownPartitionError,
    UnknownBrokerError,
    UnknownGroupError,
    TopicAlreadyExistsError,
    FencedLeaderError,
    NotEnoughReplicasError,
    NotLeaderError,
    AuthorizationError,
    OffsetOutOfRangeError,
    BrokerUnavailableError,
    RecordTooLargeError,
    CorruptBatchError,
    UnknownCodecError,
    InvalidConfigError,
    InvalidRequestError,
    RebalanceInProgressError,
    IllegalGenerationError,
    CommitFailedError,
)

__all__ = [
    # Records and batches
    "EventRecord",
    "PackedRecordBatch",
    "PackedView",
    "RecordBatch",
    "RecordMetadata",
    # Codec registry
    "get_codec",
    "register_codec",
    "registered_codecs",
    # Storage
    "LogSegment",
    "PartitionLog",
    "Topic",
    "TopicConfig",
    # Cluster, control plane and data plane
    "Broker",
    "FabricAdmin",
    "FabricCluster",
    "FetchRequest",
    "FetchSession",
    "FabricProducer",
    "ProducerConfig",
    "FabricConsumer",
    "ConsumerConfig",
    "ConsumerGroupCoordinator",
    "OffsetStore",
    # Error taxonomy (complete: every FabricError subclass is public, so
    # the gateway's error mapper is total over this list)
    "FabricError",
    "UnknownTopicError",
    "UnknownPartitionError",
    "UnknownBrokerError",
    "UnknownGroupError",
    "TopicAlreadyExistsError",
    "FencedLeaderError",
    "NotEnoughReplicasError",
    "NotLeaderError",
    "AuthorizationError",
    "OffsetOutOfRangeError",
    "BrokerUnavailableError",
    "RecordTooLargeError",
    "CorruptBatchError",
    "UnknownCodecError",
    "InvalidConfigError",
    "InvalidRequestError",
    "RebalanceInProgressError",
    "IllegalGenerationError",
    "CommitFailedError",
]
