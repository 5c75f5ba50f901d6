"""Tests for retention/compaction policies and MirrorMaker replication."""

import pytest

from repro.fabric.broker import Broker, BrokerSpec
from repro.fabric.cluster import FabricCluster
from repro.fabric.errors import UnknownTopicError
from repro.fabric.mirrormaker import MirrorMaker
from repro.fabric.partition import PartitionLog
from repro.fabric.record import EventRecord
from repro.fabric.retention import (
    RetentionEnforcer,
    compact,
    enforce_size_retention,
    enforce_time_retention,
)
from repro.fabric.topic import TopicConfig


class TestTimeRetention:
    def test_old_records_removed_new_records_kept(self):
        log = PartitionLog("t", 0)
        for i in range(5):
            log.append(EventRecord(value=i), append_time=100.0 + i)
        removed = enforce_time_retention(log, retention_seconds=2.5, now=105.0)
        assert removed == 3
        assert [r.value for r in log.read_all()] == [3, 4]

    def test_everything_expired(self):
        log = PartitionLog("t", 0)
        for i in range(3):
            log.append(EventRecord(value=i), append_time=0.0)
        assert enforce_time_retention(log, retention_seconds=1.0, now=1000.0) == 3
        assert len(log) == 0
        assert log.log_end_offset == 3  # offsets never reset

    def test_nothing_expired(self):
        log = PartitionLog("t", 0)
        log.append(EventRecord(value=1), append_time=99.0)
        assert enforce_time_retention(log, retention_seconds=10.0, now=100.0) == 0


class TestSizeRetention:
    def test_oldest_records_removed_until_under_limit(self):
        log = PartitionLog("t", 0)
        for i in range(10):
            log.append(EventRecord(value=b"x" * 76))  # 100 B each
        removed = enforce_size_retention(log, retention_bytes=350)
        assert removed == 7
        assert len(log) == 3

    def test_under_limit_untouched(self):
        log = PartitionLog("t", 0)
        log.append(EventRecord(value=b"x" * 10))
        assert enforce_size_retention(log, retention_bytes=10_000) == 0


class TestCompaction:
    def test_keeps_only_latest_record_per_key(self):
        log = PartitionLog("t", 0)
        for i in range(6):
            log.append(EventRecord(value=i, key=f"k{i % 2}"))
        removed = compact(log)
        assert removed == 4
        remaining = {r.key: r.value for r in log.read_all()}
        assert remaining == {"k0": 4, "k1": 5}

    def test_unkeyed_records_survive_compaction(self):
        log = PartitionLog("t", 0)
        log.append(EventRecord(value="a"))
        log.append(EventRecord(value="b", key="k"))
        log.append(EventRecord(value="c", key="k"))
        compact(log)
        assert [r.value for r in log.read_all()] == ["a", "c"]

    def test_enforcer_dispatches_on_cleanup_policy(self):
        log = Broker(BrokerSpec(broker_id=0)).create_replica("t", 0)
        for i in range(4):
            log.append(EventRecord(value=i, key="same"))
        removed = RetentionEnforcer().enforce(
            TopicConfig(cleanup_policy="compact"), log
        )
        assert removed == 3

    def test_enforcer_applies_time_and_size_policies(self):
        log = Broker(BrokerSpec(broker_id=0)).create_replica("t", 0)
        for i in range(5):
            log.append(EventRecord(value=b"x" * 76), append_time=0.0)
        enforcer = RetentionEnforcer(now_fn=lambda: 1000.0)
        config = TopicConfig(retention_seconds=1.0, retention_bytes=150)
        assert enforcer.enforce(config, log) == 5


class TestMirrorMaker:
    def make_clusters(self):
        source = FabricCluster(num_brokers=2, name="us-east-1")
        destination = FabricCluster(num_brokers=2, name="us-west-2")
        source.admin().create_topic("telemetry", TopicConfig(num_partitions=2))
        return source, destination

    def test_sync_copies_records_and_creates_topic(self):
        source, destination = self.make_clusters()
        for i in range(10):
            source.append("telemetry", i % 2, EventRecord(value=i))
        mirror = MirrorMaker(source, destination, topic_prefix="east.")
        stats = mirror.sync_topic("telemetry")
        assert stats.records_mirrored == 10
        assert destination.has_topic("east.telemetry")
        assert sum(destination.end_offsets("east.telemetry").values()) == 10

    def test_sync_is_incremental(self):
        source, destination = self.make_clusters()
        mirror = MirrorMaker(source, destination)
        source.append("telemetry", 0, EventRecord(value="a"))
        assert mirror.sync_topic("telemetry").records_mirrored == 1
        assert mirror.sync_topic("telemetry").records_mirrored == 0
        source.append("telemetry", 0, EventRecord(value="b"))
        assert mirror.sync_topic("telemetry").records_mirrored == 1

    def test_mirrored_records_carry_provenance_headers(self):
        source, destination = self.make_clusters()
        source.append("telemetry", 0, EventRecord(value="x"))
        MirrorMaker(source, destination).sync_topic("telemetry")
        record = destination.fetch("telemetry", 0, 0)[0]
        assert record.record.headers["mirror.source.cluster"] == "us-east-1"
        assert record.record.headers["mirror.source.offset"] == "0"

    def test_replication_lag_reports_pending_records(self):
        source, destination = self.make_clusters()
        mirror = MirrorMaker(source, destination)
        for i in range(4):
            source.append("telemetry", 0, EventRecord(value=i))
        assert mirror.replication_lag("telemetry") == 4
        mirror.sync_topic("telemetry")
        assert mirror.replication_lag("telemetry") == 0

    def test_unknown_source_topic_raises(self):
        source, destination = self.make_clusters()
        with pytest.raises(UnknownTopicError):
            MirrorMaker(source, destination).sync_topic("missing")

    def test_sync_all_topics(self):
        source, destination = self.make_clusters()
        source.admin().create_topic("health")
        source.append("health", 0, EventRecord(value="ok"))
        stats = MirrorMaker(source, destination).sync()
        assert set(stats) == {"telemetry", "health"}
