"""Tests for the segmented partition-log storage layer.

Covers the segment lifecycle (roll, seal, sparse index), whole-segment
retention drops, lock-split reads, the compaction lost-append regression,
segment configuration plumbing (topic → broker replicas) and the admin
introspection surface.
"""

import threading

import pytest

from repro.fabric import FabricCluster, TopicConfig
from repro.fabric.errors import AuthorizationError, InvalidConfigError
from repro.fabric.partition import PartitionLog
from repro.fabric.record import EventRecord, StoredRecord
from repro.fabric.retention import (
    compact,
    enforce_size_retention,
    enforce_time_retention,
)


def make_log(**kwargs) -> PartitionLog:
    kwargs.setdefault("segment_records", 4)
    return PartitionLog("topic", 0, **kwargs)


class TestSegmentLifecycle:
    def test_active_segment_rolls_at_record_threshold(self):
        log = make_log(segment_records=4)
        for i in range(10):
            log.append(EventRecord(value=i))
        described = log.describe_segments()
        assert [s["records"] for s in described] == [4, 4, 2]
        assert [s["sealed"] for s in described] == [True, True, False]
        assert [s["base_offset"] for s in described] == [0, 4, 8]

    def test_active_segment_rolls_at_byte_threshold(self):
        log = PartitionLog("topic", 0, segment_bytes=250)
        for _ in range(6):
            log.append(EventRecord(value=b"x" * 76))  # 100 B each
        # Each segment seals once >= 250 B, i.e. after its third record.
        assert [s["records"] for s in log.describe_segments()] == [3, 3]

    def test_offsets_contiguous_across_segment_boundaries(self):
        log = make_log(segment_records=3)
        for i in range(11):
            log.append(EventRecord(value=i))
        assert [r.offset for r in log.read_all()] == list(range(11))
        boundaries = [s["base_offset"] for s in log.describe_segments()]
        ends = [s["end_offset"] for s in log.describe_segments()]
        assert boundaries[1:] == ends[:-1]  # no gaps between segments

    def test_append_batch_larger_than_segment_rolls_as_it_goes(self):
        log = make_log(segment_records=4)
        offsets = log.append_batch([EventRecord(value=i) for i in range(10)])
        assert offsets == list(range(10))
        assert [s["records"] for s in log.describe_segments()] == [4, 4, 2]
        assert [r.value for r in log.fetch(0, max_records=100)] == list(range(10))

    def test_segment_time_bounds_track_append_times(self):
        log = make_log(segment_records=2)
        for i in range(5):
            log.append(EventRecord(value=i), append_time=10.0 * (i + 1))
        described = log.describe_segments()
        assert (described[0]["min_append_time"], described[0]["max_append_time"]) == (10.0, 20.0)
        assert (described[1]["min_append_time"], described[1]["max_append_time"]) == (30.0, 40.0)
        assert (described[2]["min_append_time"], described[2]["max_append_time"]) == (50.0, 50.0)

    def test_fetch_spans_segments(self):
        log = make_log(segment_records=3)
        for i in range(10):
            log.append(EventRecord(value=i))
        records = log.fetch(2, max_records=6)
        assert [r.offset for r in records] == [2, 3, 4, 5, 6, 7]

    def test_fetch_byte_budget_charged_across_segments(self):
        log = make_log(segment_records=2)
        for _ in range(8):
            log.append(EventRecord(value=b"x" * 76))  # 100 B each
        records, used = log.fetch_with_usage(0, max_records=10, max_bytes=350)
        assert len(records) == 3
        assert used == 300


class TestWholeSegmentRetention:
    def test_truncate_at_boundary_drops_whole_segments_by_pointer(self):
        log = make_log(segment_records=4)
        for i in range(12):
            log.append(EventRecord(value=i))
        survivor = log._segments[1]  # sealed [4, 8)
        removed = log.truncate_before(4)
        assert removed == 4
        # The surviving sealed segment is the *same object*: no record was
        # copied to drop the first segment.
        assert log._segments[0] is survivor
        assert log.log_start_offset == 4

    def test_truncate_mid_segment_rebuilds_only_the_boundary(self):
        log = make_log(segment_records=4)
        for i in range(12):
            log.append(EventRecord(value=i))
        untouched = log._segments[2]
        removed = log.truncate_before(6)  # inside the second segment
        assert removed == 6
        assert [r.offset for r in log.read_all()] == list(range(6, 12))
        assert log._segments[-2] is untouched or log._segments[-1] is untouched

    def test_truncate_everything_leaves_fresh_active_segment(self):
        log = make_log(segment_records=4)
        for i in range(9):
            log.append(EventRecord(value=i))
        assert log.truncate_before(log.log_end_offset) == 9
        assert len(log) == 0
        assert log.log_end_offset == 9
        assert log.append(EventRecord(value="next")) == 9

    def test_size_bytes_sums_cached_segment_counters(self):
        log = make_log(segment_records=3)
        for _ in range(10):
            log.append(EventRecord(value=b"x" * 76))  # 100 B each
        assert log.size_bytes == 1000
        log.truncate_before(4)
        assert log.size_bytes == 600

    def test_time_retention_drops_whole_segments(self):
        log = make_log(segment_records=100)
        for i in range(1000):
            log.append(EventRecord(value=i), append_time=float(i))
        removed = enforce_time_retention(log, retention_seconds=499.0, now=999.0)
        assert removed == 500
        assert log.log_start_offset == 500
        assert [r.offset for r in log.read_all()] == list(range(500, 1000))

    def test_size_retention_record_granular_semantics_preserved(self):
        log = make_log(segment_records=3)
        for _ in range(10):
            log.append(EventRecord(value=b"x" * 76))  # 100 B each
        removed = enforce_size_retention(log, retention_bytes=350)
        assert removed == 7
        assert len(log) == 3


class TestCompactionSegments:
    def test_compaction_preserves_per_key_latest_across_segments(self):
        log = make_log(segment_records=4)
        for i in range(12):
            log.append(EventRecord(value=i, key=f"k{i % 3}"))
        removed = log.compact()
        assert removed == 9
        assert {r.key: r.value for r in log.read_all()} == {
            "k0": 9, "k1": 10, "k2": 11,
        }

    def test_fetch_over_compaction_gaps_uses_sparse_index(self):
        log = make_log(segment_records=200)
        for i in range(400):
            log.append(EventRecord(value=i, key="hot" if i % 2 else f"cold{i}"))
        log.compact()  # every odd record except the last collapses into one
        sealed = log.describe_segments()[0]
        assert not sealed["contiguous"]
        # Fetching at a compacted-away offset returns the next surviving one.
        records = log.fetch(101, max_records=3)
        assert [r.offset for r in records] == [102, 104, 106]

    def test_compaction_then_append_keeps_offsets_monotone(self):
        log = make_log(segment_records=4)
        for i in range(6):
            log.append(EventRecord(value=i, key="same"))
        log.compact()
        assert log.append(EventRecord(value="fresh")) == 6
        assert [r.offset for r in log.read_all()] == [5, 6]

    def test_compaction_never_drops_concurrent_appends(self):
        """Regression for the lost-append race: the old snapshot →
        filter → ``replace_records`` dance held no lock across its steps,
        so records appended in between were silently dropped.  Segment-wise
        compaction runs under the log's write path, so every record
        appended concurrently with a compaction storm must survive it."""
        log = PartitionLog("t", 0, segment_records=64)
        for i in range(2000):
            log.append(EventRecord(value=i, key=f"k{i % 10}"))
        stop = threading.Event()
        survivors_expected = []

        def appender():
            i = 0
            while not stop.is_set() or i < 200:
                # Unkeyed records carry no compaction identity: every one
                # must still be present after any number of compactions.
                survivors_expected.append(log.append(EventRecord(value=f"live-{i}")))
                i += 1

        thread = threading.Thread(target=appender)
        thread.start()
        try:
            for _ in range(30):
                compact(log)
        finally:
            stop.set()
            thread.join()
        compact(log)
        retained = {r.offset for r in log.read_all()}
        lost = [offset for offset in survivors_expected if offset not in retained]
        assert lost == []


class TestLockSplitReads:
    def test_reads_race_appends_without_corruption(self):
        """Fetches snapshot the segment list and never take the write
        lock, so concurrent appends must never produce torn or reordered
        reads."""
        log = PartitionLog("t", 0, segment_records=32)
        errors = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                end = log.log_end_offset
                if end == 0:
                    continue
                records = log.fetch(0, max_records=end)
                offsets = [r.offset for r in records]
                if offsets != list(range(len(offsets))):
                    errors.append(offsets)
                    return

        def budgeted_reader():
            # A segment's chunk list grows under the readers: the byte
            # budget walk must charge exactly the records it hands out.
            while not done.is_set():
                end = log.log_end_offset
                if end == 0:
                    continue
                records, used = log.fetch_with_usage(
                    max(0, end - 40), max_records=end, max_bytes=600
                )
                offsets = [r.offset for r in records]
                if offsets != list(range(offsets[0], offsets[0] + len(offsets))):
                    errors.append(offsets)
                    return
                if used != sum(r.size_bytes() for r in records):
                    errors.append((used, offsets))
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=budgeted_reader))
        for thread in threads:
            thread.start()
        try:
            for i in range(3000):
                log.append(EventRecord(value=i))
        finally:
            done.set()
            for thread in threads:
                thread.join()
        assert errors == []

    def test_append_stored_gap_rolls_active_segment(self):
        """A follower adopting a compacted leader's records serves them
        at the leader's offsets, gap included."""
        log = make_log(segment_records=100)
        log.append_stored(
            [
                StoredRecord(offset=0, record=EventRecord(value="a"), append_time=1.0),
                StoredRecord(offset=1, record=EventRecord(value="b"), append_time=2.0),
                StoredRecord(offset=5, record=EventRecord(value="c"), append_time=3.0),
            ]
        )
        assert log.log_end_offset == 6
        assert [r.offset for r in log.fetch(0, max_records=10)] == [0, 1, 5]
        assert [r.offset for r in log.fetch(3, max_records=10)] == [5]


class TestSegmentConfigPlumbing:
    def test_invalid_segment_config_rejected(self):
        with pytest.raises(InvalidConfigError):
            TopicConfig(segment_records=0).validate()
        with pytest.raises(InvalidConfigError):
            TopicConfig(segment_bytes=-1).validate()
        with pytest.raises(ValueError):
            PartitionLog("t", 0, segment_records=0)

    def test_topic_segment_config_reaches_every_replica_log(self):
        cluster = FabricCluster(num_brokers=2)
        cluster.admin().create_topic(
            "seg", TopicConfig(num_partitions=1, segment_records=5, segment_bytes=1 << 16)
        )
        replicas = [
            cluster.brokers[broker_id].replica("seg", 0)
            for broker_id in cluster.replication.assignment("seg", 0).replicas
        ]
        assert len(replicas) == 2
        for replica in replicas:
            assert replica.segment_records == 5
            assert replica.segment_bytes == 1 << 16
        for i in range(12):
            cluster.append("seg", 0, EventRecord(value=i))
        for replica in replicas:
            assert replica.num_segments == 3
        described = cluster.admin().describe_segments("seg")["partitions"][0]
        assert described["num_segments"] == 3

    def test_replication_created_replica_inherits_segment_config(self):
        """A replica first materialized by the replication path (not admin
        placement) must inherit the leader log's segment thresholds."""
        cluster = FabricCluster(num_brokers=2)
        cluster.admin().create_topic(
            "seg2", TopicConfig(num_partitions=1, replication_factor=2, segment_records=9)
        )
        assignment = cluster.replication.assignment("seg2", 0)
        follower_id = next(b for b in assignment.replicas if b != assignment.leader)
        cluster.brokers[follower_id].drop_replica("seg2", 0)
        cluster.append("seg2", 0, EventRecord(value=1))  # re-creates via replication
        replica = cluster.brokers[follower_id].replica("seg2", 0)
        assert replica.segment_records == 9

    def test_config_roundtrips_through_dict(self):
        config = TopicConfig(segment_records=7, segment_bytes=123456)
        clone = TopicConfig.from_dict(config.to_dict())
        assert clone.segment_records == 7
        assert clone.segment_bytes == 123456


class TestAdminSegmentIntrospection:
    def test_describe_segments_reports_layout(self):
        cluster = FabricCluster(num_brokers=1)
        cluster.admin().create_topic(
            "obs", TopicConfig(num_partitions=2, replication_factor=1, segment_records=4)
        )
        for i in range(10):
            cluster.append("obs", 0, EventRecord(value=i))
        description = cluster.admin().describe_segments("obs")
        assert set(description["partitions"]) == {0, 1}
        p0 = description["partitions"][0]
        assert p0["log_end_offset"] == 10
        assert p0["num_segments"] == 3
        assert [s["records"] for s in p0["segments"]] == [4, 4, 2]
        only_p1 = cluster.admin().describe_segments("obs", partition=1)
        assert set(only_p1["partitions"]) == {1}

    def test_describe_segments_goes_through_authorization(self):
        cluster = FabricCluster(num_brokers=1)
        cluster.admin().create_topic("obs", TopicConfig(num_partitions=1))
        denied = cluster.admin(
            principal="mallory", authorizer=lambda p, op, res: False
        )
        with pytest.raises(AuthorizationError):
            denied.describe_segments("obs")

    def test_retention_run_still_propagates_to_replicas(self):
        cluster = FabricCluster(num_brokers=2)
        cluster.admin().create_topic(
            "ret",
            TopicConfig(
                num_partitions=1,
                replication_factor=2,
                retention_bytes=350,
                retention_seconds=None,
                segment_records=3,
            ),
        )
        for _ in range(10):
            cluster.append("ret", 0, EventRecord(value=b"x" * 76))  # 100 B each
        removed = cluster.admin().run_retention("ret")
        assert removed["ret"][0] == 7
        for broker in cluster.brokers.values():
            if broker.has_replica("ret", 0):
                assert broker.replica("ret", 0).log_start_offset == 7
