"""Tests for the append-only partition log."""

import pytest

from repro.fabric.errors import OffsetOutOfRangeError, RecordTooLargeError
from repro.fabric.partition import PartitionLog
from repro.fabric.record import EventRecord


def make_log(**kwargs) -> PartitionLog:
    return PartitionLog("topic", 0, **kwargs)


class TestAppend:
    def test_offsets_are_contiguous_from_zero(self):
        log = make_log()
        offsets = [log.append(EventRecord(value=i)) for i in range(10)]
        assert offsets == list(range(10))
        assert log.log_end_offset == 10
        assert log.log_start_offset == 0

    def test_append_batch_returns_offsets_in_order(self):
        log = make_log()
        offsets = log.append_batch([EventRecord(value=i) for i in range(5)])
        assert offsets == [0, 1, 2, 3, 4]

    def test_oversize_record_rejected(self):
        log = make_log(max_message_bytes=64)
        with pytest.raises(RecordTooLargeError):
            log.append(EventRecord(value=b"x" * 100))
        assert log.log_end_offset == 0

    def test_counters_track_lifetime_appends(self):
        log = make_log()
        for i in range(5):
            log.append(EventRecord(value=b"x" * 10))
        log.truncate_before(3)
        assert log.total_appended == 5
        assert len(log) == 2


class TestFetch:
    def test_fetch_from_offset_returns_following_records(self):
        log = make_log()
        for i in range(10):
            log.append(EventRecord(value=i))
        records = log.fetch(4, max_records=3)
        assert [r.offset for r in records] == [4, 5, 6]
        assert [r.value for r in records] == [4, 5, 6]

    def test_fetch_at_log_end_returns_empty(self):
        log = make_log()
        log.append(EventRecord(value=1))
        assert log.fetch(1) == []

    def test_fetch_beyond_end_raises(self):
        log = make_log()
        log.append(EventRecord(value=1))
        with pytest.raises(OffsetOutOfRangeError):
            log.fetch(5)

    def test_fetch_below_log_start_raises(self):
        log = make_log()
        for i in range(10):
            log.append(EventRecord(value=i))
        log.truncate_before(5)
        with pytest.raises(OffsetOutOfRangeError):
            log.fetch(2)

    def test_fetch_respects_max_bytes(self):
        log = make_log()
        for i in range(10):
            log.append(EventRecord(value=b"x" * 76))  # 100 B each
        records = log.fetch(0, max_records=10, max_bytes=250)
        assert len(records) == 2  # 100 B each; a third would exceed the budget

    def test_fetch_max_bytes_always_returns_at_least_one(self):
        log = make_log()
        log.append(EventRecord(value=b"x" * 1000))
        assert len(log.fetch(0, max_bytes=10)) == 1


class TestTimestampLookup:
    def test_offset_for_timestamp_finds_first_at_or_after(self):
        log = make_log()
        for ts in (100.0, 200.0, 300.0):
            log.append(EventRecord(value=ts), append_time=ts)
        assert log.offset_for_timestamp(150.0) == 1
        assert log.offset_for_timestamp(200.0) == 1
        assert log.offset_for_timestamp(50.0) == 0

    def test_offset_for_timestamp_none_when_all_older(self):
        log = make_log()
        log.append(EventRecord(value=1), append_time=100.0)
        assert log.offset_for_timestamp(500.0) is None

    def test_offset_for_timestamp_searches_append_time_not_record_timestamp(self):
        """The lookup runs on the log-assigned append time: client-supplied
        record timestamps carry no ordering guarantee, so a producer
        shipping out-of-order timestamps must not corrupt the search."""
        log = make_log()
        for when, ts in enumerate((500.0, 100.0, 900.0), start=1):
            # Client timestamps zig-zag; log append times advance 1.0, 2.0, 3.0.
            log.append(EventRecord(value=ts, timestamp=ts), append_time=float(when))
        assert log.offset_for_timestamp(1.0) == 0
        assert log.offset_for_timestamp(2.0) == 1
        assert log.offset_for_timestamp(3.0) == 2
        assert log.offset_for_timestamp(4.0) is None

    def test_log_assigned_append_times_are_monotone(self):
        """With no explicit append_time the log assigns a non-decreasing
        clock, even after a caller pinned a future explicit time."""
        log = make_log()
        log.append(EventRecord(value=0), append_time=10e12)  # far future
        log.append(EventRecord(value=1))  # wall clock is behind: clamped
        times = [r.append_time for r in log.read_all()]
        assert times == sorted(times)


class TestTruncation:
    def test_truncate_before_advances_log_start(self):
        log = make_log()
        for i in range(10):
            log.append(EventRecord(value=i))
        removed = log.truncate_before(6)
        assert removed == 6
        assert log.log_start_offset == 6
        assert [r.offset for r in log.fetch(6)] == [6, 7, 8, 9]

    def test_truncate_is_idempotent(self):
        log = make_log()
        for i in range(5):
            log.append(EventRecord(value=i))
        log.truncate_before(3)
        assert log.truncate_before(3) == 0

    def test_truncate_never_renumbers_offsets(self):
        log = make_log()
        for i in range(5):
            log.append(EventRecord(value=i))
        log.truncate_before(2)
        log.append(EventRecord(value="new"))
        assert log.log_end_offset == 6
        assert log.fetch(5)[0].value == "new"
