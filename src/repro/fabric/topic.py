"""Topics: named groups of partitions with configuration.

The Octopus Web Service provisions topics on behalf of users and lets them
set the replication factor, retention policy and partition count
(Section IV-B).  A :class:`Topic` here is the metadata object holding
those settings; the records live in the brokers' partition replicas
(:mod:`repro.fabric.broker`), and access control lives in
:mod:`repro.auth.acl` and is enforced by the cluster front end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.common.sync import create_rlock
from repro.fabric.errors import InvalidConfigError

#: Default retention period (seconds) — the paper states messages are kept
#: for seven days by default (Section IV-F).
DEFAULT_RETENTION_SECONDS = 7 * 24 * 3600.0


@dataclass(frozen=True)
class TopicConfig:
    """User-settable topic configuration.

    Attributes
    ----------
    num_partitions:
        Number of partitions; unit of consumer parallelism.
    replication_factor:
        Number of brokers holding a copy of each partition.
    retention_seconds:
        Time-based retention; records older than this are eligible for
        deletion.  ``None`` disables time retention.
    retention_bytes:
        Size-based retention per partition. ``None`` disables it.
    cleanup_policy:
        ``"delete"`` (default) or ``"compact"``.
    min_insync_replicas:
        Minimum ISR size for ``acks="all"`` produces to succeed.
    max_message_bytes:
        Per-record size cap.
    persist_to_store:
        Whether events are mirrored to the cloud object store (the red
        "persistence" arrow in Figure 2).
    segment_records / segment_bytes:
        Storage-segment roll thresholds for this topic's partition logs
        (``None`` selects the :mod:`repro.fabric.partition` defaults).
        Smaller segments make retention finer-grained; larger ones lower
        the per-segment overhead.  Applied when a partition log is
        created — existing logs keep the thresholds they were built with.
    """

    num_partitions: int = 1
    replication_factor: int = 2
    retention_seconds: Optional[float] = DEFAULT_RETENTION_SECONDS
    retention_bytes: Optional[int] = None
    cleanup_policy: str = "delete"
    min_insync_replicas: int = 1
    max_message_bytes: int = 8 * 1024 * 1024
    persist_to_store: bool = False
    segment_records: Optional[int] = None
    segment_bytes: Optional[int] = None

    def validate(self) -> None:
        if self.num_partitions < 1:
            raise InvalidConfigError("num_partitions must be >= 1")
        if self.replication_factor < 1:
            raise InvalidConfigError("replication_factor must be >= 1")
        if self.cleanup_policy not in ("delete", "compact"):
            raise InvalidConfigError(
                f"cleanup_policy must be 'delete' or 'compact', got {self.cleanup_policy!r}"
            )
        if self.min_insync_replicas < 1:
            raise InvalidConfigError("min_insync_replicas must be >= 1")
        if self.min_insync_replicas > self.replication_factor:
            raise InvalidConfigError(
                "min_insync_replicas cannot exceed replication_factor"
            )
        if self.retention_seconds is not None and self.retention_seconds < 0:
            raise InvalidConfigError("retention_seconds must be >= 0")
        if self.retention_bytes is not None and self.retention_bytes < 0:
            raise InvalidConfigError("retention_bytes must be >= 0")
        if self.max_message_bytes <= 0:
            raise InvalidConfigError("max_message_bytes must be > 0")
        if self.segment_records is not None and self.segment_records < 1:
            raise InvalidConfigError("segment_records must be >= 1")
        if self.segment_bytes is not None and self.segment_bytes < 1:
            raise InvalidConfigError("segment_bytes must be >= 1")

    def with_updates(self, **updates) -> "TopicConfig":
        """Return a new config with ``updates`` applied and validated."""
        cfg = replace(self, **updates)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return {
            "num_partitions": self.num_partitions,
            "replication_factor": self.replication_factor,
            "retention_seconds": self.retention_seconds,
            "retention_bytes": self.retention_bytes,
            "cleanup_policy": self.cleanup_policy,
            "min_insync_replicas": self.min_insync_replicas,
            "max_message_bytes": self.max_message_bytes,
            "persist_to_store": self.persist_to_store,
            "segment_records": self.segment_records,
            "segment_bytes": self.segment_bytes,
        }

    def log_kwargs(self) -> dict:
        """Constructor kwargs for a :class:`PartitionLog` under this config."""
        return {
            "max_message_bytes": self.max_message_bytes,
            "segment_records": self.segment_records,
            "segment_bytes": self.segment_bytes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TopicConfig":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        cfg = cls(**{k: v for k, v in data.items() if k in known})
        cfg.validate()
        return cfg


@dataclass
class Topic:
    """A named topic: its configuration and partition count.

    The records live in the partition replicas on the brokers (the leader
    replica *is* the partition); a topic owns no log of its own.
    """

    name: str
    config: TopicConfig = field(default_factory=TopicConfig)

    def __post_init__(self) -> None:
        self.config.validate()
        self._lock = create_rlock(f"Topic[{self.name}]")

    # ------------------------------------------------------------------ #
    @property
    def num_partitions(self) -> int:
        return self.config.num_partitions

    def add_partitions(self, new_total: int) -> None:
        """Grow the topic to ``new_total`` partitions (shrinking is illegal)."""
        with self._lock:
            current = self.config.num_partitions
            if new_total < current:
                raise InvalidConfigError(
                    f"cannot reduce partitions from {current} to {new_total}"
                )
            self.config = self.config.with_updates(num_partitions=new_total)

    def update_config(self, **updates) -> TopicConfig:
        """Apply configuration updates (partition growth handled separately)."""
        with self._lock:
            new_partitions = updates.pop("num_partitions", None)
            self.config = self.config.with_updates(**updates)
            if new_partitions is not None:
                self.add_partitions(new_partitions)
            return self.config

    def describe(self) -> dict:
        """Name and configuration; :meth:`FabricAdmin.describe_topic` adds
        the offsets and record counts read from the leader replicas."""
        return {"name": self.name, "config": self.config.to_dict()}
