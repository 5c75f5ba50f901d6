"""Reference flat-list partition log (pre-segmentation semantics).

This is the storage layer as it existed before :class:`PartitionLog` was
rebuilt on segments: one flat Python list behind a single lock, O(n)
retention and O(n) size accounting.  It is kept for two jobs only:

* **Differential testing** — the property suite drives the segmented log
  and this model with the same operation sequence and asserts the
  observable behavior (offsets, fetch results, retention outcomes) is
  identical (``tests/fabric/test_storage_properties.py``).
* **Benchmark baseline** — the storage micro-bench measures retention-run
  latency against this implementation to prove the segmented log's
  whole-segment drops are ≥ 5× faster
  (``benchmarks/test_storage_microbench.py``).

It is not part of the data plane; nothing in the fabric imports it.  It
used to live at ``repro.fabric.flatlog``; that name is retired from the
public surface, and both the old and this ``_compat`` location are
``DEPRECATED-API`` lint entries so no new production import can appear.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.fabric.errors import OffsetOutOfRangeError, RecordTooLargeError
from repro.fabric.record import EventRecord, StoredRecord


class FlatPartitionLog:
    """The pre-segment ``PartitionLog``: a flat record list, one lock."""

    def __init__(
        self,
        topic: str,
        partition: int,
        *,
        max_message_bytes: int = 8 * 1024 * 1024,
    ) -> None:
        self.topic = topic
        self.partition = partition
        self.max_message_bytes = int(max_message_bytes)
        self._records: list[StoredRecord] = []
        self._log_start_offset = 0
        self._next_offset = 0
        self._lock = threading.RLock()
        self._total_appended = 0
        self._total_bytes = 0

    # ------------------------------------------------------------------ #
    @property
    def log_start_offset(self) -> int:
        with self._lock:
            return self._log_start_offset

    @property
    def log_end_offset(self) -> int:
        with self._lock:
            return self._next_offset

    @property
    def high_watermark(self) -> int:
        return self.log_end_offset

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def size_bytes(self) -> int:
        with self._lock:
            return sum(r.size_bytes() for r in self._records)

    @property
    def total_appended(self) -> int:
        with self._lock:
            return self._total_appended

    @property
    def total_bytes_appended(self) -> int:
        with self._lock:
            return self._total_bytes

    # ------------------------------------------------------------------ #
    def append(self, record: EventRecord, append_time: Optional[float] = None) -> int:
        size = record.size_bytes()
        if size > self.max_message_bytes:
            raise RecordTooLargeError(
                f"record of {size} B exceeds max.message.bytes="
                f"{self.max_message_bytes} for {self.topic}-{self.partition}"
            )
        with self._lock:
            offset = self._next_offset
            stored = StoredRecord(
                offset=offset,
                record=record,
                # Deprecated differential-test baseline: mirrors the
                # pre-clock behaviour on purpose.
                append_time=(append_time if append_time is not None
                             else time.time()),  # lint: ignore[RAW-CLOCK]
            )
            self._records.append(stored)
            self._next_offset += 1
            self._total_appended += 1
            self._total_bytes += size
            return offset

    def append_batch(
        self, records: Iterable[EventRecord], append_time: Optional[float] = None
    ) -> list[int]:
        records = list(records)
        if not records:
            return []
        sizes = [record.size_bytes() for record in records]
        for size in sizes:
            if size > self.max_message_bytes:
                raise RecordTooLargeError(
                    f"record of {size} B exceeds max.message.bytes="
                    f"{self.max_message_bytes} for {self.topic}-{self.partition}"
                )
        with self._lock:
            # Deprecated baseline keeps wall-clock stamps.
            when = append_time if append_time is not None else time.time()  # lint: ignore[RAW-CLOCK]
            base = self._next_offset
            offsets = list(range(base, base + len(records)))
            self._records.extend(
                StoredRecord(offset=offset, record=record, append_time=when)
                for offset, record in zip(offsets, records)
            )
            self._next_offset = base + len(records)
            self._total_appended += len(records)
            self._total_bytes += sum(sizes)
            return offsets

    def append_stored(self, records: Iterable[StoredRecord]) -> int:
        with self._lock:
            fresh = [s for s in records if s.offset >= self._next_offset]
            if not fresh:
                return self._next_offset
            self._records.extend(fresh)
            self._next_offset = fresh[-1].offset + 1
            self._total_appended += len(fresh)
            self._total_bytes += sum(s.size_bytes() for s in fresh)
            return self._next_offset

    def fetch(
        self,
        offset: int,
        max_records: int = 500,
        max_bytes: Optional[int] = None,
        isolation: str = "committed",
    ) -> list[StoredRecord]:
        return self.fetch_with_usage(
            offset, max_records=max_records, max_bytes=max_bytes,
            isolation=isolation,
        )[0]

    def fetch_with_usage(
        self,
        offset: int,
        max_records: int = 500,
        max_bytes: Optional[int] = None,
        isolation: str = "committed",
    ) -> tuple[list[StoredRecord], int]:
        # API parity with PartitionLog so the differential property
        # suite (and the fetch bench) drive both implementations through
        # the same signature.  A flat log is never replication-managed,
        # so both isolation levels serve to the log end — mirroring the
        # segmented log's unmanaged (``None`` high watermark) behaviour.
        if isolation != "committed" and isolation != "uncommitted":
            raise ValueError(
                f"isolation must be 'committed' or 'uncommitted', "
                f"got {isolation!r}"
            )
        with self._lock:
            if offset == self._next_offset:
                return [], 0
            if offset < self._log_start_offset or offset > self._next_offset:
                raise OffsetOutOfRangeError(
                    f"offset {offset} out of range "
                    f"[{self._log_start_offset}, {self._next_offset}] "
                    f"for {self.topic}-{self.partition}"
                )
            index = self._index_of(offset)
            if max_bytes is None:
                return self._records[index : index + max_records], 0
            out = []
            budget = max_bytes
            for stored in self._records[index:]:
                if len(out) >= max_records:
                    break
                size = stored.size_bytes()
                if out and size > budget:
                    break
                out.append(stored)
                budget -= size
            return out, max_bytes - budget

    def read_all(self) -> Sequence[StoredRecord]:
        with self._lock:
            return tuple(self._records)

    def __iter__(self) -> Iterator[StoredRecord]:
        return iter(self.read_all())

    def offset_for_timestamp(self, timestamp: float) -> Optional[int]:
        """Earliest offset whose *append time* is >= ``timestamp``.

        Matches the segmented log's (fixed) semantics so the differential
        suite can compare outcomes; the O(n) timestamp-list rebuild per
        lookup is the cost the segmented implementation removed.
        """
        with self._lock:
            timestamps = [r.append_time for r in self._records]
            index = bisect.bisect_left(timestamps, timestamp)
            if index >= len(self._records):
                return None
            return self._records[index].offset

    # ------------------------------------------------------------------ #
    def truncate_before(self, offset: int) -> int:
        with self._lock:
            offset = max(offset, self._log_start_offset)
            offset = min(offset, self._next_offset)
            index = self._index_of(offset) if offset < self._next_offset else len(self._records)
            removed = index
            if removed > 0:
                self._records = self._records[index:]
            self._log_start_offset = offset
            return removed

    def replace_records(self, records: Sequence[StoredRecord]) -> None:
        with self._lock:
            offsets = [r.offset for r in records]
            if offsets != sorted(offsets):
                raise ValueError("compacted records must stay offset-ordered")
            if records:
                if records[0].offset < self._log_start_offset:
                    raise ValueError("compaction may not resurrect truncated offsets")
                if records[-1].offset >= self._next_offset:
                    raise ValueError("compaction may not invent future offsets")
            self._records = list(records)

    def _index_of(self, offset: int) -> int:
        lo = offset - self._log_start_offset
        if 0 <= lo < len(self._records) and self._records[lo].offset == offset:
            return lo
        offsets = [r.offset for r in self._records]
        return bisect.bisect_left(offsets, offset)


# ---------------------------------------------------------------------- #
# The pre-segment retention walks (benchmark baseline)
# ---------------------------------------------------------------------- #
def flat_enforce_time_retention(
    log: FlatPartitionLog, retention_seconds: float, now: Optional[float] = None
) -> int:
    """The old O(retained records) time-retention walk over ``read_all()``."""
    now = now if now is not None else time.time()  # baseline path; lint: ignore[RAW-CLOCK]
    cutoff = now - retention_seconds
    keep_from: Optional[int] = None
    for stored in log.read_all():
        if stored.append_time >= cutoff:
            keep_from = stored.offset
            break
    if keep_from is None:
        return log.truncate_before(log.log_end_offset)
    return log.truncate_before(keep_from)


def flat_enforce_size_retention(log: FlatPartitionLog, retention_bytes: int) -> int:
    """The old full-copy, full-re-sum size-retention pass."""
    removed = 0
    records = list(log.read_all())
    total = sum(r.size_bytes() for r in records)
    index = 0
    while total > retention_bytes and index < len(records):
        total -= records[index].size_bytes()
        index += 1
    if index > 0:
        removed = log.truncate_before(records[index - 1].offset + 1)
    return removed


def flat_compact(log: FlatPartitionLog) -> int:
    """The old snapshot-filter-replace compaction (with its lost-append race)."""
    records = list(log.read_all())
    latest_for_key: Dict[str, int] = {}
    for stored in records:
        if stored.key is not None:
            latest_for_key[str(stored.key)] = stored.offset
    kept: List[StoredRecord] = [
        stored
        for stored in records
        if stored.key is None or latest_for_key[str(stored.key)] == stored.offset
    ]
    removed = len(records) - len(kept)
    if removed:
        # The race this API carries is exactly what the flat-log
        # retention baseline must preserve.
        log.replace_records(kept)
    return removed
