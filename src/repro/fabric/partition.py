"""Append-only partition logs on segmented, packed-batch storage.

A partition is the unit of ordering, parallelism and replication in the
fabric.  Each partition is a strictly ordered, append-only log of
records; offsets are assigned contiguously starting from the log start
offset.  Retention and compaction may advance the log start offset, but
never reorder or renumber records.

Storage is Kafka-style **segmented**: one mutable *active* segment takes
appends, behind it sits a list of *sealed*, immutable segments.  A
segment holds exactly one thing: the immutable
:class:`~repro.fabric.record.PackedRecordBatch` *chunks* it adopted, one
per produce request however small — as a Kafka log is a sequence of
record batches.  One stored representation means a batch's codec and
CRC survive every hop (leader, follower, rebuild, mirror) whatever its
size, and no record is ever decoded under the write lock.  It also buys
the hot paths their complexity budget:

* **Appends adopt batches by reference** — a producer-sealed packed
  batch becomes a segment chunk without materialising per-record
  tuples; only the roll-threshold boundaries ever split one.
* **Fetches return views, not copies** — ``fetch``/``fetch_with_usage``
  answer with a :class:`~repro.fabric.record.PackedView` of
  ``(chunk, start, stop)`` runs: O(runs) to build regardless of the
  record count, decoded lazily only when a consumer touches a record.
  Byte budgets bisect each chunk's size prefix sums instead of walking
  records.
* **Retention is O(segments), not O(records)** — ``truncate_before``
  drops whole sealed segments by pointer and rebuilds at most the one
  boundary segment; time/size cutoffs are found from per-segment bounds
  with only the boundary segment's chunk columns consulted.
* **Reads are lock-split** — chunks are immutable, a segment's chunk
  list only ever grows (readers bound it by one length snapshot) and
  the segment tuple is swapped atomically, so fetches snapshot and
  serve without the write lock.
* **Timestamp lookup binary-searches** per-segment time covers, then
  one segment's chunks, then one chunk's time column.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.common.clock import Clock, SystemClock
from repro.common.sync import create_rlock
from repro.fabric.errors import (
    FencedLeaderError,
    OffsetOutOfRangeError,
    RecordTooLargeError,
)
from repro.fabric.record import (
    EventRecord,
    PackedRecordBatch,
    PackedView,
    StoredRecord,
)

#: Default roll thresholds: the active segment is sealed once it holds
#: this many records or bytes.  Small enough that seven-day retention
#: over a busy partition drops *whole* segments, large enough that the
#: per-segment overhead is negligible next to the records themselves.
DEFAULT_SEGMENT_RECORDS = 4096
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


# Bisect keys: segments and chunks both carry these attributes.
def _base_offset(item) -> int:
    return item.base_offset


def _end_offset(item) -> int:
    return item.end_offset


def _max_append_time(item) -> float:
    return item.max_append_time


class LogSegment:
    """One run of a partition's records: the packed chunks it adopted.

    The storage is ``_state = (chunks, cum)``, two append-only lists —
    ``chunks`` the :class:`PackedRecordBatch` objects in offset order and
    ``cum`` the prefix sums of their record counts (``cum[i]`` = records
    held by ``chunks[:i]``), so position lookups bisect straight to the
    owning chunk.  Adoption appends the chunk *then* its prefix sum and
    never copies either list, so a segment of thousands of one-record
    chunks costs what as many records cost.  Readers take one length
    snapshot of ``cum`` and touch nothing past it: whatever the snapshot
    covers is already in ``chunks``, and chunks are immutable.

    ``min_append_time``/``max_append_time`` bound the records' append
    times; the time searches use them to skip whole segments.
    """

    __slots__ = (
        "base_offset",
        "end_offset",
        "size_bytes",
        "logical_size_bytes",
        "min_append_time",
        "max_append_time",
        "sealed",
        "contiguous",
        "count",
        "_state",
    )

    def __init__(self, base_offset: int) -> None:
        self.base_offset = base_offset
        #: Offset the next record after this segment would take
        #: (last record's offset + 1 once non-empty).
        self.end_offset = base_offset
        #: Physical bytes: compressed chunks count at their stored (wire)
        #: size.  Roll thresholds and size retention charge this — what
        #: the segment actually occupies.
        self.size_bytes = 0
        #: Logical bytes: the per-record serialized sizes, what consumers
        #: receive.  Equal to ``size_bytes`` for uncompressed storage.
        self.logical_size_bytes = 0
        self.min_append_time: float = 0.0
        self.max_append_time: float = 0.0
        #: Sealed segments take no more chunks (the log enforces it).
        self.sealed = False
        self.contiguous = True
        self.count = 0
        self._state: Tuple[List[PackedRecordBatch], List[int]] = ([], [0])

    @classmethod
    def sealed_from(cls, records: Sequence[StoredRecord]) -> "LogSegment":
        """Build an immutable segment from a non-empty, offset-ordered run."""
        segment = cls(records[0].offset)
        segment.append_chunk(PackedRecordBatch.from_stored(records))
        segment.sealed = True
        return segment

    @property
    def records(self) -> PackedView:
        """The segment's records as a lazy, list-like view."""
        return PackedView(tuple(self.runs_from(0)))

    # -- mutation (caller holds the owning log's write lock) ----------- #
    def append_chunk(self, chunk: PackedRecordBatch) -> None:
        """Adopt a packed batch by reference as the segment's next chunk
        — the only way records enter a segment."""
        if self.count == 0:
            self.base_offset = chunk.base_offset
            self.min_append_time = chunk.min_append_time
            self.max_append_time = chunk.max_append_time
            self.contiguous = chunk.contiguous
        else:
            if chunk.min_append_time < self.min_append_time:
                self.min_append_time = chunk.min_append_time
            if chunk.max_append_time > self.max_append_time:
                self.max_append_time = chunk.max_append_time
            if chunk.base_offset != self.end_offset or not chunk.contiguous:
                self.contiguous = False
        self.end_offset = chunk.end_offset
        self.count += len(chunk)
        self.size_bytes += chunk.physical_size_bytes
        self.logical_size_bytes += chunk.size_bytes
        # Publish last, chunk before prefix sum: a reader's length
        # snapshot of ``cum`` never covers a chunk that is not there yet.
        chunks, cum = self._state
        chunks.append(chunk)
        cum.append(cum[-1] + len(chunk))

    # -- lookup (safe without the write lock) -------------------------- #
    def locate(self, offset: int) -> int:
        """Index of the first record with offset >= ``offset``.

        O(1) for contiguous segments; gapped (compacted) segments bisect
        the chunks on their end offsets, then one chunk's offset table.
        """
        if self.contiguous:
            position = offset - self.base_offset
            return 0 if position < 0 else position
        chunks, cum = self._state
        count = len(cum) - 1
        index = bisect.bisect_right(chunks, offset, 0, count, key=_end_offset)
        if index == count:
            return cum[count]
        return cum[index] + chunks[index].index_of_offset(offset)

    def runs_from(self, position: int, needed: Optional[int] = None) -> List[tuple]:
        """The ``(chunk, start, stop)`` runs covering records from
        logical ``position`` on — the currency of the fetch path.

        The prefix-sum column bisects straight to the chunk owning
        ``position``; with ``needed`` the walk stops as soon as that many
        records are covered (the last run may overshoot — the caller
        truncates), so a bounded fetch pays O(log chunks + runs used).
        """
        chunks, cum = self._state
        count = len(cum) - 1
        runs: List[tuple] = []
        if position >= cum[count]:
            return runs
        index = bisect.bisect_right(cum, position, 0, count + 1) - 1
        start = position - cum[index]
        for j in range(index, count):
            length = cum[j + 1] - cum[j]
            runs.append((chunks[j], start, length))
            if needed is not None:
                needed -= length - start
                if needed <= 0:
                    break
            start = 0
        return runs

    def first_offset_at_or_after_time(self, timestamp: float) -> Optional[int]:
        """Offset of the first record with append time >= ``timestamp``.

        Append times are non-decreasing (the log guarantees it), so the
        chunks bisect on ``max_append_time`` and the owning chunk on its
        time column."""
        chunks, cum = self._state
        count = len(cum) - 1
        index = bisect.bisect_left(chunks, timestamp, 0, count, key=_max_append_time)
        if index == count:
            return None
        chunk = chunks[index]
        return chunk.offset_at(chunk.first_index_at_or_after_time(timestamp))

    def slice_from(self, position: int) -> "LogSegment":
        """New segment holding the records from ``position`` on
        (truncation boundary).

        Chunks wholly past the boundary are kept by reference; at most
        one chunk is sliced (itself sharing the parent's payload and
        record tuple), so the rebuild is O(chunks), not O(records).
        """
        fresh = LogSegment(self.base_offset)
        for chunk, start, stop in self.runs_from(position):
            fresh.append_chunk(chunk.slice(start, stop))
        fresh.sealed = self.sealed
        return fresh

    def describe(self) -> dict:
        count = self.count
        return {
            "base_offset": self.base_offset,
            "end_offset": self.end_offset,
            "records": count,
            "size_bytes": self.size_bytes,
            "logical_size_bytes": self.logical_size_bytes,
            "min_append_time": self.min_append_time if count else None,
            "max_append_time": self.max_append_time if count else None,
            "sealed": self.sealed,
            "contiguous": self.contiguous,
        }


class PartitionLog:
    """A single partition's segmented log: thread-safe append and fetch.

    Parameters
    ----------
    topic:
        Topic name (used only for error messages and metrics labels).
    partition:
        Partition index within the topic.
    max_message_bytes:
        Per-record size limit; appends of larger records raise
        :class:`~repro.fabric.errors.RecordTooLargeError`.
    segment_records / segment_bytes:
        Active-segment roll thresholds; ``None`` selects the module
        defaults.  Smaller segments make retention finer-grained, larger
        ones reduce per-segment overhead.

    Concurrency model (the lock split): one write lock serializes every
    mutation — appends to the active segment, sealing, truncation,
    compaction and the atomic swap of the segment tuple.  Read paths
    (``fetch``/``fetch_with_usage``, ``offset_for_timestamp``,
    ``size_bytes``, ``read_all``) never take it: they snapshot
    ``_next_offset`` *then* the segment tuple (appends publish records
    before advancing ``_next_offset``, so every offset below the snapshot
    is reachable) and serve from immutable packed chunks.
    """

    def __init__(
        self,
        topic: str,
        partition: int,
        *,
        max_message_bytes: int = 8 * 1024 * 1024,
        segment_records: Optional[int] = None,
        segment_bytes: Optional[int] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.topic = topic
        self.partition = partition
        self.max_message_bytes = int(max_message_bytes)
        self.segment_records = (
            int(segment_records) if segment_records is not None else DEFAULT_SEGMENT_RECORDS
        )
        self.segment_bytes = (
            int(segment_bytes) if segment_bytes is not None else DEFAULT_SEGMENT_BYTES
        )
        if self.segment_records < 1:
            raise ValueError("segment_records must be >= 1")
        if self.segment_bytes < 1:
            raise ValueError("segment_bytes must be >= 1")
        self._segments: Tuple[LogSegment, ...] = (LogSegment(0),)
        self._log_start_offset = 0
        self._next_offset = 0
        self._clock: Clock = clock if clock is not None else SystemClock()
        self._lock = create_rlock(f"PartitionLog[{topic}-{partition}]")
        self._total_appended = 0  #: guarded_by _lock
        self._total_bytes = 0  #: guarded_by _lock
        self._last_append_time = 0.0  #: guarded_by _lock
        #: Min fully-ISR-replicated offset.  ``None`` marks an *unmanaged*
        #: log (no replication manager advancing it): the high watermark
        #: then equals the log end, preserving standalone-log semantics.
        #: Mutated under ``_lock``; read lock-free like ``_next_offset``
        #: (a torn read is impossible for a CPython int, and monotonicity
        #: makes a stale read merely conservative).
        self._high_watermark: Optional[int] = None
        #: Highest leader epoch seen; same locking discipline as above.
        self._leader_epoch = 0
        #: ``(epoch, start_offset)`` pairs, one per epoch this log has
        #: written or adopted under — Kafka's leader-epoch checkpoint.
        self._epoch_starts: List[Tuple[int, int]] = [(0, 0)]  #: guarded_by _lock

    # ------------------------------------------------------------------ #
    # Offsets
    # ------------------------------------------------------------------ #
    @property
    def log_start_offset(self) -> int:
        """First offset still retained in the log (lock-free read)."""
        return self._log_start_offset

    @property
    def log_end_offset(self) -> int:
        """Offset that the *next* appended record will receive (lock-free)."""
        return self._next_offset

    @property
    def high_watermark(self) -> int:
        """First offset *not* safe to serve to committed readers.

        Replication advances it to the min fully-ISR-replicated offset;
        a log nothing replicates (``None`` sentinel — standalone use)
        reports its log end, the pre-HW behaviour.  Clamped to the log
        end so truncation can never leave it dangling.
        """
        hw = self._high_watermark
        end = self._next_offset
        return end if hw is None else min(hw, end)

    def advance_high_watermark(self, offset: int) -> int:
        """Monotonically raise the high watermark (never past the log end).

        First call switches the log into *managed* mode: committed
        readers are bounded by the watermark from then on.  Returns the
        effective watermark.
        """
        with self._lock:
            bounded = min(int(offset), self._next_offset)
            current = self._high_watermark
            if current is None or bounded > current:
                self._high_watermark = bounded
            return self.high_watermark

    # ------------------------------------------------------------------ #
    # Leader-epoch fencing
    # ------------------------------------------------------------------ #
    @property
    def leader_epoch(self) -> int:
        """Highest leader epoch this log has written or adopted under."""
        return self._leader_epoch

    def leader_epoch_history(self) -> List[Tuple[int, int]]:
        """``(epoch, start_offset)`` checkpoint pairs, oldest first."""
        with self._lock:
            return list(self._epoch_starts)

    def note_leader_epoch(self, epoch: Optional[int]) -> None:
        """Fence a writer's epoch against the log's history.

        ``None`` (an unfenced legacy writer) is accepted unchanged.  An
        epoch older than the highest seen raises
        :class:`FencedLeaderError` — the writer was deposed and must
        refresh metadata.  A newer epoch is adopted and checkpointed at
        the current log end.
        """
        if epoch is None:
            return
        with self._lock:
            if epoch < self._leader_epoch:
                raise FencedLeaderError(
                    f"epoch {epoch} for {self.topic}-{self.partition} is "
                    f"fenced: log has seen epoch {self._leader_epoch}"
                )
            if epoch > self._leader_epoch:
                self._leader_epoch = epoch
                self._epoch_starts.append((epoch, self._next_offset))

    def __len__(self) -> int:
        with self._lock:
            return sum(segment.count for segment in self._segments)

    @property
    def size_bytes(self) -> int:
        """Total *physical* bytes currently retained (compressed chunks at
        their stored size): a sum of cached per-segment counters,
        O(segments) instead of a walk over every record."""
        return sum(segment.size_bytes for segment in self._segments)

    @property
    def logical_size_bytes(self) -> int:
        """Total logical (uncompressed, per-record) bytes retained."""
        return sum(segment.logical_size_bytes for segment in self._segments)

    @property
    def total_appended(self) -> int:
        """Number of records appended over the log's lifetime."""
        with self._lock:
            return self._total_appended

    @property
    def total_bytes_appended(self) -> int:
        with self._lock:
            return self._total_bytes

    # ------------------------------------------------------------------ #
    # Segment lifecycle (callers hold the write lock)
    # ------------------------------------------------------------------ #
    def _should_roll(self, active: LogSegment) -> bool:
        return active.count > 0 and (
            active.count >= self.segment_records
            or active.size_bytes >= self.segment_bytes
        )

    def _roll_active(self, base_offset: int) -> LogSegment:
        """Seal the active segment and open a fresh one at ``base_offset``."""
        self._segments[-1].sealed = True
        fresh = LogSegment(base_offset)
        self._segments = self._segments + (fresh,)
        return fresh

    def _assign_time_locked(self, append_time: Optional[float]) -> float:
        """Log append time: monotone non-decreasing when log-assigned.

        Caller holds ``_lock``.  Callers supplying an explicit
        ``append_time`` (retention tests, follower adoption) are trusted
        to keep it non-decreasing — the time-bound searches assume it.
        """
        if append_time is None:
            when = self._clock.now()
            if when < self._last_append_time:
                when = self._last_append_time
        else:
            when = append_time
        if when > self._last_append_time:
            self._last_append_time = when
        return when

    def describe_segments(self) -> List[dict]:
        """Per-segment introspection (base/end offset, size, time bounds)."""
        return [segment.describe() for segment in self._segments]

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    # ------------------------------------------------------------------ #
    # Append / fetch
    # ------------------------------------------------------------------ #
    def append(self, record: EventRecord, append_time: Optional[float] = None) -> int:
        """Append ``record`` and return the offset it was assigned."""
        packed = PackedRecordBatch.from_events([record])
        return self.append_packed(packed, append_time).base_offset

    def append_batch(
        self,
        records: Union[Iterable[EventRecord], PackedRecordBatch],
        append_time: Optional[float] = None,
    ) -> list[int]:
        """Append every record atomically; return their offsets.

        Plain records are packed here, once; an already-packed batch goes
        to :meth:`append_packed` as it is.
        """
        if not isinstance(records, PackedRecordBatch):
            records = PackedRecordBatch.from_events(list(records))
        stamped = self.append_packed(records, append_time)
        return list(range(stamped.base_offset, stamped.end_offset))

    def append_packed(
        self,
        packed: PackedRecordBatch,
        append_time: Optional[float] = None,
    ) -> "PackedRecordBatch":
        """Leader path: stamp a packed batch with the next offsets and adopt it.

        The batch is atomic: CRC and record sizes are validated up front,
        so either every record receives a contiguous offset or none does.
        Storage placement is :meth:`append_stored`'s — the same adoption
        followers run on the stamped result.  Returns the restamped batch
        (sharing the caller's records and payload) so the produce path can
        forward the *same* object to persistence sinks and producer
        metadata without re-reading the log.
        """
        # Ingress integrity: a CRC-stamped batch is verified before any of
        # it is admitted (memoized — cheap for batches this process sealed).
        packed.verify_crc()
        oversize = packed.check_max_record_size(self.max_message_bytes)
        if oversize is not None:
            raise RecordTooLargeError(
                f"record of {oversize} B exceeds max.message.bytes="
                f"{self.max_message_bytes} for {self.topic}-{self.partition}"
            )
        with self._lock:
            if len(packed) == 0:
                return packed.with_offsets(self._next_offset, self._last_append_time)
            stamped = packed.with_offsets(
                self._next_offset, self._assign_time_locked(append_time)
            )
            self.append_stored(stamped)
            return stamped

    def _chunk_take(
        self, active: LogSegment, chunk: PackedRecordBatch, index: int, remaining: int
    ) -> int:
        """How many records of ``chunk[index:]`` the active segment takes
        before it reaches a roll threshold (>= 1: the caller rolls first
        whenever the segment is already due)."""
        if active.count:
            by_count = self.segment_records - active.count
        else:
            by_count = self.segment_records
        cum = chunk._cum
        if cum is None:
            # Wire-decoded chunk whose size column is still lazy: splitting
            # it exactly would force a decompression on the ingress path,
            # so the roll boundary is estimated from the average record
            # size instead (the header's uncompressed size / count).
            average = max(1, chunk.size_bytes // max(1, len(chunk)))
            by_bytes = max(1, (self.segment_bytes - active.size_bytes) // average)
        else:
            target = cum[index] + (self.segment_bytes - active.size_bytes)
            by_bytes = bisect.bisect_left(cum, target, index, index + remaining) - index
        take = min(remaining, by_count, by_bytes)
        return take if take > 0 else 1

    def _place_chunk(self, chunk: PackedRecordBatch) -> None:
        """Distribute one stamped chunk over the active segment, slicing
        only at roll boundaries."""
        active = self._segments[-1]
        index = 0
        length = len(chunk)
        while index < length:
            first_offset = chunk.offset_at(index)
            if self._should_roll(active) or (
                active.count and first_offset != active.end_offset
            ):
                active = self._roll_active(first_offset)
            take = self._chunk_take(active, chunk, index, length - index)
            active.append_chunk(chunk.slice(index, index + take))
            index += take

    def append_stored(
        self,
        records: Union[Iterable[StoredRecord], PackedRecordBatch, PackedView],
    ) -> int:
        """Adopt offset-stamped records: the one body that places records
        into segments — followers call it with the leader's chunks, the
        leader path (:meth:`append_packed`) with the batch it just stamped.

        Whatever the argument, it is normalised to packed chunks once
        (:meth:`PackedView.wrap`), outside the lock.  Records at offsets
        the log already holds are skipped; the rest are adopted *by
        reference* under one lock acquisition — sliced only at a dedup or
        roll boundary, never decoded or re-encoded — so a chunk of any
        size keeps the codec and CRC it arrived with and replication
        forwards the leader's bytes verbatim.  Offset gaps (leader-side
        compaction) live in a chunk's offset table or between segments:
        a chunk that does not start at the active segment's end rolls it.
        Returns the new log end offset.
        """
        runs = PackedView.wrap(records).runs()
        # Ingress integrity (outside the lock): CRC-stamped chunks are
        # verified before any offsets are adopted.
        for chunk, _, _ in runs:
            chunk.verify_crc()
        with self._lock:
            for chunk, start, stop in runs:
                self._adopt_chunk_locked(chunk, start, stop)
            return self._next_offset

    def _adopt_chunk_locked(
        self, chunk: PackedRecordBatch, start: int, stop: int
    ) -> None:
        next_offset = self._next_offset
        if chunk.end_offset <= next_offset:
            return  # the replica already holds this whole run
        skip = chunk.index_of_offset(next_offset)
        if skip > start:
            start = skip
        if start >= stop:
            return
        sub = chunk.slice(start, stop)
        self._place_chunk(sub)
        self._next_offset = sub.end_offset
        self._total_appended += stop - start
        self._total_bytes += sub.size_bytes
        if sub.max_append_time > self._last_append_time:
            self._last_append_time = sub.max_append_time

    @staticmethod
    def _count_before(segments: Sequence[LogSegment], bound: int) -> int:
        """Records in the snapshot whose offset is below ``bound``."""
        total = 0
        for segment in segments:
            if segment.count and segment.end_offset <= bound:
                total += segment.count
                continue
            if segment.base_offset < bound:
                total += segment.locate(bound)
            break
        return total

    def fetch(
        self,
        offset: int,
        max_records: int = 500,
        max_bytes: Optional[int] = None,
        isolation: str = "committed",
    ) -> Sequence[StoredRecord]:
        """Return up to ``max_records`` records starting at ``offset``.

        Fetching exactly at the log end returns an empty list (the consumer
        is caught up).  Fetching below the log start or beyond the end
        raises :class:`OffsetOutOfRangeError`, matching Kafka semantics.
        The result is a lazy :class:`PackedView` over the log's packed
        chunks — list-compatible, decoded only on access.

        ``isolation="committed"`` (the default) serves only offsets below
        the :attr:`high_watermark`; ``"uncommitted"`` serves up to the
        log end — the replication path reads uncommitted (followers catch
        up on exactly the records that are not yet fully replicated).
        """
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
    ) -> tuple[Sequence[StoredRecord], int]:
        """Like :meth:`fetch` but also returns the bytes consumed.

        The byte count lets a caller serving several partitions (a fetch
        session) charge this partition's records against a budget shared
        across the whole session instead of granting ``max_bytes`` to each
        partition independently.  With ``max_bytes=None`` no budget exists
        and the reported usage is ``0`` (the replication fast path pays
        nothing for accounting).

        Runs entirely without the write lock: the segment tuple is
        snapshotted and chunks are immutable, so fetches of old data
        never contend with appends.  The byte-budget walk bisects each
        chunk's size prefix sums — O(runs · log chunk) — instead of
        sizing records one by one.
        """
        # Committed readers stop at the high watermark; ``hw`` stays
        # ``None`` (no bound) for uncommitted readers and for unmanaged
        # logs (nothing replicates them — standalone use).
        if isolation == "committed":
            hw = self._high_watermark
        elif isolation == "uncommitted":
            hw = None
        else:
            raise ValueError(
                f"isolation must be 'committed' or 'uncommitted', "
                f"got {isolation!r}"
            )
        end = self._next_offset
        if offset == end:
            return [], 0
        # Snapshot the segment tuple *before* reading the start offset: a
        # truncation that lands in between raises out-of-range, while one
        # that lands after is served consistently from this snapshot — its
        # dropped segments are still referenced here.  Reading the start
        # first instead
        # would pass the range check and then silently serve from the
        # post-truncation segments at a far later offset.
        segments = self._segments
        start = self._log_start_offset
        if offset < start or offset > end:
            raise OffsetOutOfRangeError(
                f"offset {offset} out of range "
                f"[{start}, {end}] "
                f"for {self.topic}-{self.partition}"
            )
        first = bisect.bisect_right(segments, offset, key=_base_offset) - 1
        if first < 0:
            first = 0
        position = segments[first].locate(offset)
        if hw is not None and hw < end:
            bound = hw
            if offset >= bound:
                return [], 0
            # With offset gaps (compaction) the cap must count *records*,
            # not offsets: the record-count positions of `bound` and
            # `offset` in this snapshot bound how many records are safe
            # to serve.
            before_offset = position
            for segment in segments[:first]:
                before_offset += segment.count
            allowed = self._count_before(segments, bound) - before_offset
            if allowed <= 0:
                return [], 0
            if allowed < max_records:
                max_records = allowed
        if max_records <= 0:
            return [], 0
        # One walk over the runs from ``position``: the record cap bounds
        # every run, and a byte budget (``None`` = unbounded, nothing is
        # sized) may stop the walk inside one.
        runs: List[tuple] = []
        taken = 0
        used = 0
        for segment in segments[first:]:
            for chunk, run_start, run_stop in segment.runs_from(
                position, max_records - taken
            ):
                whole = min(run_stop - run_start, max_records - taken)
                grant = whole
                if max_bytes is not None:
                    grant = chunk.take_within(
                        run_start, run_start + whole, max_bytes - used
                    )
                    if not grant and not taken:
                        grant = 1  # make progress: the first record always goes
                    used += chunk.size_range(run_start, run_start + grant)
                if grant:
                    runs.append((chunk, run_start, run_start + grant))
                    taken += grant
                if grant < whole or taken >= max_records:
                    break  # the byte budget or the record cap is spent
            else:
                position = 0
                continue
            break
        if not runs:
            return [], 0
        return PackedView(tuple(runs), taken), used

    def read_all(self) -> Sequence[StoredRecord]:
        """Snapshot of every retained record (testing/persistence helper)."""
        return tuple(
            itertools.chain.from_iterable(
                segment.records for segment in self._segments
            )
        )

    def __iter__(self) -> Iterator[StoredRecord]:
        return iter(self.read_all())

    def offset_for_timestamp(self, timestamp: float) -> Optional[int]:
        """Earliest offset whose **append time** is >= ``timestamp``.

        Supports the "consume after a certain timestamp" mode described in
        Section IV-F.  The search runs on the log-assigned append time —
        which this log keeps monotonically non-decreasing — *not* on the
        client-supplied ``record.timestamp``, which carries no ordering
        guarantee (producers may ship arbitrary or out-of-order
        timestamps).  Binary-searches per-segment time covers, then one
        segment's per-chunk time columns.  Returns ``None`` when every
        retained record is older than ``timestamp``.
        """
        segments = self._segments
        if not segments[-1].count:
            segments = segments[:-1]  # only the active segment may be empty
        if not segments:
            return None
        first = bisect.bisect_left(segments, timestamp, key=_max_append_time)
        for segment in segments[first:]:
            if not segment.count:
                continue
            if segment.min_append_time >= timestamp:
                # The whole segment is at/after the timestamp: its first
                # record answers without scanning — only the one segment
                # that straddles the timestamp is ever searched.
                return segment.base_offset
            found = segment.first_offset_at_or_after_time(timestamp)
            if found is not None:
                return found
        return None

    # ------------------------------------------------------------------ #
    # Retention / compaction
    # ------------------------------------------------------------------ #
    def truncate_before(self, offset: int) -> int:
        """Drop records with offsets strictly below ``offset``.

        Whole sealed segments below the cutoff are dropped by pointer; at
        most one boundary segment is rebuilt (and inside it at most one
        chunk is sliced), so a retention run costs O(segments + one
        segment's runs), not O(retained records).  Returns the number of
        records removed.  Used by time/size retention.
        """
        with self._lock:
            offset = max(offset, self._log_start_offset)
            offset = min(offset, self._next_offset)
            segments = self._segments
            removed = 0
            kept: List[LogSegment] = []
            for index, segment in enumerate(segments):
                if segment.end_offset <= offset:
                    removed += segment.count
                    continue  # whole-segment drop: no record is touched
                if segment.base_offset < offset:
                    position = segment.locate(offset)
                    removed += position
                    if position:
                        segment = segment.slice_from(position)
                kept.append(segment)
                kept.extend(segments[index + 1 :])
                break
            if not kept or kept[-1].sealed:
                kept.append(LogSegment(self._next_offset))
            # Publish the new start *before* the new segment tuple: readers
            # snapshot segments first, then the start offset, so whoever
            # sees the truncated tuple is guaranteed to also see the new
            # start and raise out-of-range instead of silently serving
            # from the wrong offset.
            self._log_start_offset = offset
            self._segments = tuple(kept)
            return removed

    def size_retention_cutoff(self, retention_bytes: int) -> int:
        """Earliest offset to keep so retained *physical* bytes fit
        ``retention_bytes``.

        Sums cached per-segment sizes (O(segments)); only the boundary
        segment — where dropping the whole thing would over-shoot — is
        walked, so uncompressed storage is trimmed record by record: the
        cutoff is the first offset after which the rest fits.  A compressed
        chunk that must be dropped wholesale is skipped in one step (its
        physical size is exact at chunk extent); inside one, records are
        charged their proportional share of the compressed body.
        """
        segments = self._segments
        total = sum(segment.size_bytes for segment in segments)
        cutoff = self._log_start_offset
        if total <= retention_bytes:
            return cutoff
        for segment in segments:
            if total - segment.size_bytes > retention_bytes:
                total -= segment.size_bytes
                cutoff = segment.end_offset
                continue  # dropping all of it still leaves us over: drop whole
            for chunk, start, stop in segment.runs_from(0):
                chunk_bytes = chunk.physical_size_range(start, stop)
                if total - chunk_bytes > retention_bytes:
                    # Whole-chunk drop: identical cutoff to the per-record
                    # walk (the budget check cannot fire mid-chunk when
                    # even dropping all of it leaves the log over budget),
                    # without materialising a lazy chunk's size column
                    # record by record.
                    total -= chunk_bytes
                    cutoff = chunk.end_offset
                    continue
                for index in range(start, stop):
                    if total <= retention_bytes:
                        return cutoff
                    total -= chunk.physical_size_range(index, index + 1)
                    cutoff = chunk.offset_at(index) + 1
            break
        return cutoff

    def compact(self) -> int:
        """Log compaction: keep only the latest record for each key.

        Records without a key are always retained (they carry no compaction
        identity).  Runs segment-by-segment entirely under the write lock,
        so records appended concurrently are never lost — the lost-append
        race of the old snapshot/filter/replace dance is structurally
        impossible.  Untouched segments keep their objects; filtered ones
        are rebuilt sealed (fresh packed chunks, so views handed out before
        the compaction keep serving the old bytes).  A fresh active segment
        reopens at the log end.  Returns the number of records removed.
        """
        with self._lock:
            latest_for_key: dict[str, int] = {}
            for segment in self._segments:
                for stored in segment.records:
                    if stored.key is not None:
                        latest_for_key[str(stored.key)] = stored.offset
            removed = 0
            rebuilt: List[LogSegment] = []
            for segment in self._segments:
                records = segment.records
                kept = [
                    stored
                    for stored in records
                    if stored.key is None
                    or latest_for_key[str(stored.key)] == stored.offset
                ]
                dropped = len(records) - len(kept)
                removed += dropped
                if not dropped:
                    rebuilt.append(segment)  # untouched: keep the object
                elif kept:
                    rebuilt.append(LogSegment.sealed_from(kept))
            if not rebuilt or rebuilt[-1].sealed:
                rebuilt.append(LogSegment(self._next_offset))
            self._segments = tuple(rebuilt)
            return removed
