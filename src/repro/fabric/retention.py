"""Retention and compaction policies.

The paper's default is seven-day time-based retention (Section IV-F);
users can adjust retention and enable compaction through the Octopus Web
Service.  The :class:`RetentionEnforcer` applies whichever policy the
topic is configured with to a partition log; ``FabricAdmin.run_retention``
points it at each partition's leader replica.

Every policy here rides the segmented storage layer
(:mod:`repro.fabric.partition`): cutoffs are found from per-segment
bounds — cached byte sizes, min/max append times — and
``truncate_before`` drops whole sealed segments by pointer, so a
retention run is O(segments + one boundary-segment scan) instead of the
old O(retained records) walk over a full ``read_all()`` copy.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.clock import SystemClock
from repro.fabric.partition import PartitionLog
from repro.fabric.topic import TopicConfig


def enforce_time_retention(
    log: PartitionLog, retention_seconds: float, now: Optional[float] = None
) -> int:
    """Delete records older than ``retention_seconds``; return count removed.

    The cutoff offset comes from :meth:`PartitionLog.offset_for_timestamp`,
    which binary-searches per-segment append-time bounds and scans only the
    boundary segment — no full-log copy is taken.
    """
    now = now if now is not None else SystemClock().now()
    keep_from = log.offset_for_timestamp(now - retention_seconds)
    if keep_from is None:
        # Everything is older than the cutoff.
        return log.truncate_before(log.log_end_offset)
    return log.truncate_before(keep_from)


def enforce_size_retention(log: PartitionLog, retention_bytes: int) -> int:
    """Delete oldest records until the partition is within ``retention_bytes``.

    The cutoff comes from cached per-segment byte counters
    (:meth:`PartitionLog.size_retention_cutoff`); only the boundary segment
    is scanned record by record, keeping the record-granular semantics.
    """
    cutoff = log.size_retention_cutoff(retention_bytes)
    if cutoff <= log.log_start_offset:
        return 0
    return log.truncate_before(cutoff)


def compact(log: PartitionLog) -> int:
    """Log compaction: keep only the latest record for each key.

    Records without a key are always retained (they carry no compaction
    identity).  Delegates to :meth:`PartitionLog.compact`, which rewrites
    segment-by-segment *under the log's write lock*, so records appended
    concurrently with a compaction pass are never dropped.  Returns the
    number of records removed.
    """
    return log.compact()


class RetentionEnforcer:
    """Applies a topic's cleanup policy to one partition log."""

    def __init__(self, now_fn: Optional[Callable[[], float]] = None) -> None:
        self._now_fn = now_fn if now_fn is not None else SystemClock().now

    def enforce(self, config: TopicConfig, log: PartitionLog) -> int:
        """Run ``config``'s retention/compaction on ``log``; return records removed."""
        if config.cleanup_policy == "compact":
            return compact(log)
        removed = 0
        if config.retention_seconds is not None:
            removed += enforce_time_retention(
                log, config.retention_seconds, now=self._now_fn()
            )
        if config.retention_bytes is not None:
            removed += enforce_size_retention(log, config.retention_bytes)
        return removed
