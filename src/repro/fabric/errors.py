"""Exception hierarchy for the event fabric.

Mirrors the error classes a Kafka client distinguishes between: retriable
transport/leadership errors versus fatal configuration or authorization
errors.  The Octopus SDK producer (Section IV-F of the paper) retries a
configurable number of times on retriable errors before surfacing the
failure to the caller.

Every error in the taxonomy derives from :class:`FabricError` and carries
two machine-readable attributes the HTTP gateway maps onto the wire
(:mod:`repro.gateway.errors`):

``code``
    A stable ``UPPER_SNAKE`` identifier, unique per class.  Clients
    dispatch on the code, never on the human-readable message.
``retriable``
    Whether a client may transparently retry the failed operation.

Raising anything that is *not* a :class:`FabricError` from the produce,
fetch or commit paths is a bug: the gateway would have to answer 500
INTERNAL for it.  :class:`InvalidRequestError` doubles as ``ValueError``
so call sites that historically raised ``ValueError`` stay
backward-compatible.
"""

from __future__ import annotations


class FabricError(Exception):
    """Base class for all event-fabric errors."""

    #: Stable machine-readable identifier for this error class.
    code: str = "FABRIC_ERROR"

    #: Whether a client may transparently retry the failed operation.
    retriable: bool = False


class UnknownTopicError(FabricError):
    """The requested topic does not exist on the cluster."""

    code = "UNKNOWN_TOPIC"


class UnknownPartitionError(FabricError):
    """The requested partition index does not exist for the topic."""

    code = "UNKNOWN_PARTITION"


class UnknownBrokerError(FabricError):
    """The requested broker id is not part of the cluster."""

    code = "UNKNOWN_BROKER"


class UnknownGroupError(FabricError):
    """The requested consumer group is not known to the coordinator."""

    code = "UNKNOWN_GROUP"


class TopicAlreadyExistsError(FabricError):
    """Attempted to create a topic whose name is already registered."""

    code = "TOPIC_ALREADY_EXISTS"


class NotLeaderError(FabricError):
    """The broker contacted is not the leader for the partition.

    Retriable: clients refresh metadata and retry against the new leader.
    """

    code = "NOT_LEADER"
    retriable = True


class FencedLeaderError(FabricError):
    """A writer presented a leader epoch older than the log has seen.

    Elections stamp a monotonically increasing epoch on the partition
    assignment; a deposed leader that keeps writing (network partition,
    paused process) is *fenced* — its appends and replication pushes are
    rejected rather than silently forked into a second history.
    Retriable: the stale writer refreshes metadata, discovers the new
    leader and epoch, and routes there.
    """

    code = "FENCED_LEADER"
    retriable = True


class NotEnoughReplicasError(FabricError):
    """``acks="all"`` was requested but the ISR is below ``min.insync.replicas``."""

    code = "NOT_ENOUGH_REPLICAS"
    retriable = True


class BrokerUnavailableError(FabricError):
    """The broker is offline (failure injection or administrative stop)."""

    code = "BROKER_UNAVAILABLE"
    retriable = True


class AuthorizationError(FabricError):
    """The principal is not authorized for the operation on the resource."""

    code = "AUTHORIZATION_FAILED"


class OffsetOutOfRangeError(FabricError):
    """A fetch requested an offset below the log start or above the end."""

    code = "OFFSET_OUT_OF_RANGE"


class RecordTooLargeError(FabricError):
    """A record exceeds the topic's ``max.message.bytes`` limit."""

    code = "RECORD_TOO_LARGE"


class CorruptBatchError(FabricError):
    """A packed batch failed CRC32 verification (or its header is invalid).

    Raised on broker ingress (``append_packed``/``append_stored`` of a
    CRC-stamped chunk) and on the first decode of a stored chunk.  A log
    stores every batch, one record or thousands, as the chunk it arrived
    as — CRC included — so a corrupted batch of any size can never reach
    a consumer as silently-wrong records.
    Retriable: a reader can re-fetch (the replica recovery path rebuilds a
    follower from its leader's intact copy).
    """

    code = "CORRUPT_BATCH"
    retriable = True


class UnknownCodecError(FabricError):
    """A batch names a compression codec this process has not registered."""

    code = "UNKNOWN_CODEC"


class InvalidConfigError(FabricError):
    """A topic, producer or consumer configuration value is invalid."""

    code = "INVALID_CONFIG"


class InvalidRequestError(FabricError, ValueError):
    """A data-plane request is malformed (bad offset, missing member id...).

    Subclasses ``ValueError`` for backward compatibility: the offset and
    commit paths raised bare ``ValueError`` before the error taxonomy was
    frozen, and callers catching that keep working.
    """

    code = "INVALID_REQUEST"


class RebalanceInProgressError(FabricError):
    """The consumer group is rebalancing; the member must rejoin."""

    code = "REBALANCE_IN_PROGRESS"
    retriable = True


class IllegalGenerationError(FabricError):
    """A consumer presented a stale group generation id."""

    code = "ILLEGAL_GENERATION"
    retriable = True


class CommitFailedError(FabricError):
    """An offset commit was rejected (stale member or generation)."""

    code = "COMMIT_FAILED"


__all__ = [
    "FabricError",
    "UnknownTopicError",
    "UnknownPartitionError",
    "UnknownBrokerError",
    "UnknownGroupError",
    "TopicAlreadyExistsError",
    "NotLeaderError",
    "FencedLeaderError",
    "NotEnoughReplicasError",
    "BrokerUnavailableError",
    "AuthorizationError",
    "OffsetOutOfRangeError",
    "RecordTooLargeError",
    "CorruptBatchError",
    "UnknownCodecError",
    "InvalidConfigError",
    "InvalidRequestError",
    "RebalanceInProgressError",
    "IllegalGenerationError",
    "CommitFailedError",
]
