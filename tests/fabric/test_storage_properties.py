"""Property tests for the segmented partition log.

Two complementary suites, both soak-profile aware (no pinned
``max_examples`` — the nightly ``HYPOTHESIS_PROFILE=soak`` run hammers
them with a much larger budget, see ``tests/conftest.py``):

* **Differential**: the segmented :class:`PartitionLog` (driven with tiny
  segments so every sequence crosses many seal/roll boundaries) and
  :class:`ReferenceLog`, a plain-list model defined below, execute the
  same operation sequence; every externally observable answer — offsets,
  fetch slices, byte usage, retention outcomes, timestamp lookups — must
  be identical.
* **Invariants**: contiguous offsets across segment boundaries, retention
  never resurrecting or reordering offsets, segment metadata consistent
  with the records it covers.
"""

import math

import hypothesis.strategies as st
from hypothesis import given

from repro.fabric import retention
from repro.fabric.errors import OffsetOutOfRangeError
from repro.fabric.partition import PartitionLog
from repro.fabric.record import EventRecord, PackedRecordBatch, StoredRecord


class ReferenceLog:
    """The differential oracle: a partition log as one list of records.

    Every operation is the obvious walk over that list, and nothing here
    comes from :mod:`repro.fabric.partition` or
    :mod:`repro.fabric.retention`.  The retention policies are methods
    named and shaped like the module functions in ``retention``, so
    :func:`_run` drives either log through the same calls.
    """

    def __init__(self):
        self.records = []
        self.log_start_offset = 0
        self.log_end_offset = 0
        self.total_appended = 0

    def __len__(self):
        return len(self.records)

    @property
    def size_bytes(self):
        return sum(stored.size_bytes() for stored in self.records)

    def read_all(self):
        return list(self.records)

    def append(self, record, append_time):
        self.append_batch([record], append_time)

    def append_batch(self, records, append_time):
        for record in records:
            self.records.append(StoredRecord(self.log_end_offset, record, append_time))
            self.log_end_offset += 1
            self.total_appended += 1

    def truncate_before(self, offset):
        offset = min(max(offset, self.log_start_offset), self.log_end_offset)
        kept = [stored for stored in self.records if stored.offset >= offset]
        removed = len(self.records) - len(kept)
        self.records = kept
        self.log_start_offset = offset
        return removed

    def enforce_time_retention(self, retention_seconds, now):
        keep_from = self.offset_for_timestamp(now - retention_seconds)
        return self.truncate_before(
            self.log_end_offset if keep_from is None else keep_from
        )

    def enforce_size_retention(self, retention_bytes):
        total = self.size_bytes
        dropped = 0
        for stored in self.records:
            if total <= retention_bytes:
                break
            total -= stored.size_bytes()
            dropped += 1
        if not dropped:
            return 0
        return self.truncate_before(self.records[dropped - 1].offset + 1)

    def compact(self):
        latest = {str(s.key): s.offset for s in self.records if s.key is not None}
        kept = [s for s in self.records if s.key is None or latest[str(s.key)] == s.offset]
        removed = len(self.records) - len(kept)
        self.records = kept
        return removed

    def fetch_with_usage(self, offset, max_records, max_bytes):
        if offset == self.log_end_offset:
            return [], 0
        if not self.log_start_offset <= offset < self.log_end_offset:
            raise OffsetOutOfRangeError(offset)
        tail = [stored for stored in self.records if stored.offset >= offset]
        served, used = [], 0
        for stored in tail[:max_records]:
            size = stored.size_bytes()
            if max_bytes is not None and served and used + size > max_bytes:
                break  # the first record always goes; the budget binds after it
            served.append(stored)
            used += size
        return served, (0 if max_bytes is None else used)

    def offset_for_timestamp(self, timestamp):
        for stored in self.records:
            if stored.append_time >= timestamp:
                return stored.offset
        return None


# Operations carry small integer parameters that the interpreter below
# scales into offsets/cutoffs relative to the log's current state, so a
# shrunk failing example stays meaningful.
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(min_value=-1, max_value=4)),
        st.tuples(st.just("batch"), st.integers(min_value=1, max_value=9)),
        st.tuples(st.just("truncate"), st.integers(min_value=0, max_value=12)),
        st.tuples(st.just("time_retention"), st.integers(min_value=0, max_value=50)),
        st.tuples(st.just("size_retention"), st.integers(min_value=0, max_value=1500)),
        st.tuples(st.just("compact"), st.just(0)),
    ),
    min_size=1,
    max_size=40,
)


def _run(log, operations, policies=retention):
    """Drive one log through ``operations`` with a deterministic clock.

    ``policies`` supplies the retention calls: the :mod:`retention`
    module for a :class:`PartitionLog`, :class:`ReferenceLog` for the
    model."""
    step = 0
    for name, arg in operations:
        step += 1
        when = float(step)
        if name == "append":
            key = None if arg < 0 else f"k{arg}"
            log.append(EventRecord(value=step, key=key), append_time=when)
        elif name == "batch":
            log.append_batch(
                [EventRecord(value=(step, i)) for i in range(arg)], append_time=when
            )
        elif name == "truncate":
            log.truncate_before(log.log_start_offset + arg)
        elif name == "time_retention":
            policies.enforce_time_retention(log, retention_seconds=arg, now=when)
        elif name == "size_retention":
            policies.enforce_size_retention(log, retention_bytes=arg)
        elif name == "compact":
            policies.compact(log)
    return log


def _segmented(operations):
    """A log with tiny segments, so every sequence crosses many rolls."""
    return _run(PartitionLog("t", 0, segment_records=3, segment_bytes=220), operations)


def _run_both(operations):
    """The segmented log and the model after the same ``operations``."""
    return _segmented(operations), _run(ReferenceLog(), operations, ReferenceLog)


def _observe_fetch(log, offset, max_records, max_bytes):
    try:
        records, used = log.fetch_with_usage(
            offset, max_records=max_records, max_bytes=max_bytes
        )
        if records and isinstance(log, PartitionLog):
            # One stored representation: single appends, batches, sliced
            # and compacted segments all serve packed chunks.
            assert all(
                isinstance(chunk, PackedRecordBatch) for chunk, _, _ in records.runs()
            )
        return ([(r.offset, r.value) for r in records], used)
    except OffsetOutOfRangeError:
        return "out-of-range"


class TestDifferentialEquivalence:
    @given(operations=OPERATIONS)
    def test_segmented_log_matches_flat_reference(self, operations):
        segmented, model = _run_both(operations)

        assert segmented.log_start_offset == model.log_start_offset
        assert segmented.log_end_offset == model.log_end_offset
        assert len(segmented) == len(model)
        assert segmented.size_bytes == model.size_bytes
        assert segmented.total_appended == model.total_appended
        assert [(r.offset, r.value, r.append_time) for r in segmented.read_all()] == [
            (r.offset, r.value, r.append_time) for r in model.read_all()
        ]

    @given(operations=OPERATIONS, max_records=st.integers(1, 7))
    def test_fetch_equivalence_at_every_offset(self, operations, max_records):
        segmented, model = _run_both(operations)
        # Probe one offset beyond both ends too: error behavior must match.
        for offset in range(
            max(0, segmented.log_start_offset - 1), segmented.log_end_offset + 2
        ):
            for max_bytes in (None, 1, 150, 10_000):
                assert _observe_fetch(segmented, offset, max_records, max_bytes) == (
                    _observe_fetch(model, offset, max_records, max_bytes)
                ), f"fetch({offset}, {max_records}, {max_bytes}) diverged"

    @given(operations=OPERATIONS)
    def test_timestamp_lookup_equivalence(self, operations):
        segmented, model = _run_both(operations)
        for probe in range(0, len(operations) + 2):
            timestamp = float(probe) - 0.5
            assert segmented.offset_for_timestamp(timestamp) == (
                model.offset_for_timestamp(timestamp)
            ), f"offset_for_timestamp({timestamp}) diverged"

    def test_timestamp_lookup_over_thousands_of_one_record_chunks(self):
        """One produce request = one chunk, so a segment of single appends
        holds thousands of them: the lookup bisects chunks, and must still
        land on the first record of each time step."""
        segmented = PartitionLog("t", 0)
        model = ReferenceLog()
        for i in range(2000):
            for log in (segmented, model):
                log.append(EventRecord(value=i), append_time=float(i // 7))
        assert segmented.num_segments == 1
        last = 1999 // 7
        for step in range(last + 1):
            for probe in (step - 0.5, float(step), step + 0.5):
                expected = model.offset_for_timestamp(probe)
                assert expected == (None if probe > last else 7 * math.ceil(probe))
                assert segmented.offset_for_timestamp(probe) == expected, probe


class TestSegmentInvariants:
    @given(operations=OPERATIONS)
    def test_offsets_contiguous_across_segments_without_compaction(self, operations):
        operations = [op for op in operations if op[0] != "compact"]
        if not operations:
            operations = [("append", -1)]
        log = _segmented(operations)
        offsets = [r.offset for r in log.read_all()]
        # Delete-retention only ever trims a prefix: what remains is one
        # contiguous run ending exactly at the log end, regardless of how
        # many segment boundaries it crosses.
        assert offsets == list(range(log.log_end_offset - len(offsets), log.log_end_offset))

    @given(operations=OPERATIONS)
    def test_retention_never_resurrects_or_reorders(self, operations):
        log = PartitionLog("t", 0, segment_records=3, segment_bytes=220)
        step = 0
        previous_start = 0
        previous_end = 0
        seen_offsets = set()
        for name, arg in operations:
            step += 1
            if name == "append":
                log.append(EventRecord(value=step), append_time=float(step))
            elif name == "batch":
                log.append_batch(
                    [EventRecord(value=(step, i)) for i in range(arg)],
                    append_time=float(step),
                )
            elif name == "truncate":
                log.truncate_before(log.log_start_offset + arg)
            elif name == "time_retention":
                retention.enforce_time_retention(log, retention_seconds=arg, now=float(step))
            elif name == "size_retention":
                retention.enforce_size_retention(log, retention_bytes=arg)
            elif name == "compact":
                retention.compact(log)
            offsets = [r.offset for r in log.read_all()]
            assert offsets == sorted(set(offsets)), "offsets reordered or duplicated"
            assert log.log_start_offset >= previous_start, "log start moved backwards"
            assert log.log_end_offset >= previous_end, "log end moved backwards"
            resurrected = {o for o in offsets if o < log.log_start_offset}
            assert not resurrected, f"offsets below log start resurfaced: {resurrected}"
            never_seen = [o for o in offsets if o not in seen_offsets]
            assert all(o >= previous_end for o in never_seen), (
                f"offsets materialized out of nowhere: {never_seen}"
            )
            previous_start = log.log_start_offset
            previous_end = log.log_end_offset
            seen_offsets.update(offsets)

    @given(operations=OPERATIONS)
    def test_segment_metadata_consistent_with_records(self, operations):
        log = _segmented(operations)
        described = log.describe_segments()
        assert described, "a log always has at least its active segment"
        assert described[-1]["sealed"] is False
        for info, segment in zip(described, log._segments):
            records = list(segment.records)
            assert info["records"] == len(records)
            assert info["size_bytes"] == sum(r.size_bytes() for r in records)
            if records:
                assert info["base_offset"] == records[0].offset
                assert info["end_offset"] == records[-1].offset + 1
                assert info["min_append_time"] == min(r.append_time for r in records)
                assert info["max_append_time"] == max(r.append_time for r in records)
        bases = [s["base_offset"] for s in described]
        assert bases == sorted(bases)


# --------------------------------------------------------------------- #
# Packed wire round trip
# --------------------------------------------------------------------- #

_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)

_EVENTS = st.lists(
    st.builds(
        EventRecord,
        value=_JSON_VALUES | st.binary(max_size=32),
        key=st.none() | st.text(max_size=16) | st.binary(max_size=16),
        headers=st.dictionaries(st.text(max_size=10), st.text(max_size=10), max_size=4),
        timestamp=st.floats(min_value=0.0, max_value=1e12),
    ),
    max_size=12,
)


class TestPackedWireRoundTrip:
    """``EventRecord`` → packed → wire bytes → decode == original."""

    @given(events=_EVENTS)
    def test_round_trip_preserves_every_field(self, events):
        from repro.fabric.record import PackedRecordBatch

        packed = PackedRecordBatch.from_events(
            tuple(events), base_offset=7, append_time=3.0
        )
        decoded = PackedRecordBatch.from_bytes(packed.to_bytes(), base_offset=7)
        assert len(decoded) == len(events)
        for index, original in enumerate(events):
            record = decoded.record_at(index)
            assert record.value == original.value
            assert record.key == original.key
            assert dict(record.headers) == dict(original.headers)
            assert record.timestamp == original.timestamp
            assert decoded.offset_at(index) == packed.offset_at(index)

    @given(events=_EVENTS)
    def test_wire_image_is_deterministic_and_slice_consistent(self, events):
        from repro.fabric.record import PackedRecordBatch

        packed = PackedRecordBatch.from_events(tuple(events), base_offset=0)
        wire = packed.to_bytes()
        assert packed.to_bytes() == wire  # cached encode is stable
        if events:
            part = packed.slice(0, len(events))
            assert part.to_bytes() == wire
