"""Tests for the batched produce/consume data plane.

Covers the cluster-level ``append_batch`` path (equivalence with
sequential ``append`` under every acks mode), the producer's sealed-batch
buffering (no displaced batch is ever dropped), linger-driven auto-flush,
and round-robin poll fairness on the consumer side.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.clock import ManualClock
from repro.fabric import (
    ConsumerConfig,
    FabricCluster,
    FabricConsumer,
    FabricProducer,
    ProducerConfig,
    TopicConfig,
)
from repro.fabric.errors import NotLeaderError, RecordTooLargeError
from repro.fabric.record import EventRecord


@pytest.fixture
def cluster():
    cluster = FabricCluster(num_brokers=2)
    cluster.admin().create_topic("events", TopicConfig(num_partitions=4, replication_factor=2))
    return cluster


# --------------------------------------------------------------------------- #
# Cluster append_batch
# --------------------------------------------------------------------------- #
class TestClusterAppendBatch:
    def test_batch_returns_contiguous_offsets(self, cluster):
        records = [EventRecord(value=i) for i in range(10)]
        metadata = cluster.append_batch("events", 0, records)
        assert [md.offset for md in metadata] == list(range(10))
        assert all(md.partition == 0 for md in metadata)

    def test_empty_batch_is_a_noop(self, cluster):
        assert cluster.append_batch("events", 0, []) == []
        assert cluster.end_offsets("events")[0] == 0

    def test_oversize_record_rejects_whole_batch(self):
        cluster = FabricCluster(num_brokers=1)
        cluster.admin().create_topic(
            "small", TopicConfig(num_partitions=1, replication_factor=1,
                                 max_message_bytes=128)
        )
        records = [EventRecord(value="ok"), EventRecord(value=b"x" * 500)]
        with pytest.raises(RecordTooLargeError):
            cluster.append_batch("small", 0, records)
        assert cluster.end_offsets("small")[0] == 0

    def test_batch_replicates_to_followers(self, cluster):
        records = [EventRecord(value=i) for i in range(7)]
        cluster.append_batch("events", 1, records, acks="all")
        assignment = cluster.replication.assignment("events", 1)
        for broker_id in assignment.replicas:
            log = cluster.brokers[broker_id].replica("events", 1)
            assert log.log_end_offset == 7
            assert [s.value for s in log.read_all()] == list(range(7))

    def test_batch_lands_on_the_leader_replica_that_describe_reads(self, cluster):
        cluster.append_batch("events", 2, [EventRecord(value=i) for i in range(5)])
        leader = cluster.replication.assignment("events", 2).leader
        assert cluster.brokers[leader].replica("events", 2).log_end_offset == 5
        described = cluster.admin().describe_topic("events")
        assert described["end_offsets"][2] == 5
        assert described["total_records"] == 5

    def test_persistence_sink_sees_every_record_once(self):
        cluster = FabricCluster(num_brokers=1)
        cluster.admin().create_topic(
            "durable", TopicConfig(num_partitions=1, replication_factor=1,
                                   persist_to_store=True)
        )
        seen = []
        cluster.admin().add_persistence_sink(lambda t, p, stored: seen.append(stored.offset))
        cluster.append_batch("durable", 0, [EventRecord(value=i) for i in range(6)])
        assert seen == list(range(6))

    def test_persistence_sink_sees_the_log_append_time(self):
        """A sink is handed the record the log stored: its append time is
        the broker's clock, not the client-supplied record timestamp."""
        cluster = FabricCluster(num_brokers=1, clock=ManualClock(start=1_000.0))
        cluster.admin().create_topic(
            "durable", TopicConfig(num_partitions=1, replication_factor=1,
                                   persist_to_store=True)
        )
        seen = []
        cluster.admin().add_persistence_sink(lambda t, p, stored: seen.append(stored))
        cluster.append("durable", 0, EventRecord(value="v", timestamp=5.0))
        fetched = cluster.fetch("durable", 0, 0)[0]
        assert fetched.append_time == 1_000.0
        assert [(s.offset, s.value, s.append_time) for s in seen] == [(0, "v", 1_000.0)]
        assert seen[0].record.timestamp == 5.0


values = st.one_of(st.integers(), st.text(max_size=20), st.binary(max_size=64))


@given(
    payloads=st.lists(values, min_size=1, max_size=30),
    acks=st.sampled_from([0, 1, "all"]),
)
@settings(max_examples=25, deadline=None)
def test_append_batch_equivalent_to_sequential_append(payloads, acks):
    """One batched append and N sequential appends must leave identical
    offsets and replica state on every broker, under every acks mode."""
    def build():
        cluster = FabricCluster(num_brokers=3)
        cluster.admin().create_topic(
            "t", TopicConfig(num_partitions=1, replication_factor=3)
        )
        return cluster

    sequential, batched = build(), build()
    records = [EventRecord(value=v) for v in payloads]
    md_seq = [sequential.append("t", 0, r, acks=acks) for r in records]
    md_batch = batched.append_batch("t", 0, records, acks=acks)
    assert [m.offset for m in md_seq] == [m.offset for m in md_batch]
    assert [m.serialized_size for m in md_seq] == [m.serialized_size for m in md_batch]
    for broker_id in range(3):
        log_seq = sequential.brokers[broker_id].replica("t", 0)
        log_batch = batched.brokers[broker_id].replica("t", 0)
        assert log_seq.log_end_offset == log_batch.log_end_offset
        assert [(s.offset, s.value) for s in log_seq.read_all()] == [
            (s.offset, s.value) for s in log_batch.read_all()
        ]


# --------------------------------------------------------------------------- #
# Producer buffering: exactly-once from buffer()/flush()
# --------------------------------------------------------------------------- #
class TestProducerBatching:
    def test_displaced_full_batches_are_not_dropped(self, cluster):
        """Regression: buffering more than batch_max_bytes used to silently
        drop each full batch displaced by its successor."""
        producer = FabricProducer(
            cluster,
            ProducerConfig(batch_max_bytes=256, buffer_memory_bytes=1 << 20),
        )
        n = 200
        for i in range(n):
            producer.buffer("events", {"i": i}, partition=0)
        metadata = producer.flush()
        assert len(metadata) == n
        delivered = cluster.fetch("events", 0, 0, max_records=10 * n)
        values = sorted(r.value["i"] for r in delivered)
        assert values == list(range(n))  # every event exactly once

    def test_flush_sends_whole_batches(self, cluster):
        producer = FabricProducer(cluster)
        for i in range(50):
            producer.buffer("events", {"i": i}, partition=3)
        producer.flush()
        assert producer.metrics.records_sent == 50
        assert producer.metrics.batches_sent == 1

    def test_flush_failure_rebuffers_undelivered_batches(self, cluster):
        producer = FabricProducer(
            cluster, ProducerConfig(retries=0), sleep_fn=lambda s: None
        )
        for i in range(10):
            producer.buffer("events", {"i": i}, partition=0)
        real_append_batch = cluster.append_batch
        cluster.append_batch = lambda *a, **k: (_ for _ in ()).throw(
            NotLeaderError("transient")
        )
        with pytest.raises(NotLeaderError):
            producer.flush()
        assert producer.buffered_bytes > 0  # nothing was lost
        # Re-buffered records are still pending, not failed.
        assert producer.metrics.records_failed == 0
        cluster.append_batch = real_append_batch
        metadata = producer.flush()
        assert len(metadata) == 10
        assert producer.metrics.records_sent == 10

    def test_batch_retry_then_success(self, cluster):
        attempts = {"n": 0}
        real_append_batch = cluster.append_batch

        def flaky(*args, **kwargs):
            attempts["n"] += 1
            if attempts["n"] <= 2:
                raise NotLeaderError("transient leadership change")
            return real_append_batch(*args, **kwargs)

        cluster.append_batch = flaky  # type: ignore[assignment]
        producer = FabricProducer(
            cluster, ProducerConfig(retries=3, retry_backoff_seconds=0),
            sleep_fn=lambda s: None,
        )
        metadata = producer.send_batch("events", list(range(5)), partition=0)
        assert [m.offset for m in metadata] == list(range(5))
        assert producer.metrics.retries == 2

    def test_send_batch_preserves_input_order_across_partitions(self, cluster):
        producer = FabricProducer(cluster)
        metadata = producer.send_batch("events", list(range(12)))
        assert len(metadata) == 12
        # Unkeyed events round-robin over all four partitions.
        assert {m.partition for m in metadata} == {0, 1, 2, 3}
        consumer = FabricConsumer(cluster, ["events"], ConsumerConfig(group_id="rr"))
        assert sorted(r.value for r in consumer.poll_flat()) == list(range(12))

    def test_linger_triggers_auto_flush(self, cluster):
        producer = FabricProducer(cluster, ProducerConfig(linger_seconds=1e-9))
        producer.buffer("events", "lingered", partition=0)
        # The oldest batch is already older than the (tiny) linger, so the
        # buffer call itself flushed it.
        assert producer.buffered_bytes == 0
        assert [r.value for r in cluster.fetch("events", 0, 0)] == ["lingered"]

    def test_zero_linger_keeps_manual_flush_semantics(self, cluster):
        producer = FabricProducer(cluster)
        producer.buffer("events", "held", partition=0)
        assert producer.buffered_bytes > 0
        assert cluster.end_offsets("events")[0] == 0


# --------------------------------------------------------------------------- #
# Concurrency and metadata refresh
# --------------------------------------------------------------------------- #
class TestConcurrentProducers:
    def test_concurrent_batches_leave_the_leader_log_contiguous_and_complete(
        self, cluster
    ):
        """More producers than cores appending batches to one partition:
        the leader log's own lock must hand out contiguous offsets with no
        batch lost, interleaved or reordered within a producer."""
        import sys
        import threading

        def produce(worker):
            producer = FabricProducer(cluster)
            for i in range(20):
                producer.buffer("events", {"w": worker, "i": i}, partition=0)
                if i % 5 == 4:
                    producer.flush()
            producer.flush()

        threads = [threading.Thread(target=produce, args=(w,)) for w in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assignment = cluster.replication.assignment("events", 0)
        leader_log = cluster.brokers[assignment.leader].replica("events", 0)
        stored = leader_log.read_all()
        assert cluster.end_offsets("events")[0] == 8 * 20
        assert [s.offset for s in stored] == list(range(8 * 20))
        for worker in range(8):
            assert [
                s.value["i"] for s in stored if s.value["w"] == worker
            ] == list(range(20))
        for broker_id in assignment.replicas:
            follower_log = cluster.brokers[broker_id].replica("events", 0)
            assert [s.value for s in follower_log.read_all()] == [
                s.value for s in stored
            ]

    def test_keyed_records_see_partition_growth_after_metadata_age(self, cluster):
        producer = FabricProducer(
            cluster, ProducerConfig(metadata_max_age_seconds=0.0)
        )
        producer.send("events", "warm")
        cluster.admin().set_partitions("events", 8)
        # With an expired metadata cache, unkeyed round-robin covers the
        # grown partition set.
        partitions = {producer.send("events", i).partition for i in range(16)}
        assert partitions == set(range(8))


# --------------------------------------------------------------------------- #
# Consumer round-robin fairness
# --------------------------------------------------------------------------- #
class TestPollFairness:
    def test_hot_partition_cannot_starve_others(self, cluster):
        producer = FabricProducer(cluster)
        producer.send_batch("events", list(range(200)), partition=0)
        for partition in (1, 2, 3):
            producer.send_batch("events", list(range(5)), partition=partition)
        consumer = FabricConsumer(
            cluster, ["events"],
            ConsumerConfig(group_id="fair", enable_auto_commit=False,
                           max_poll_records=10),
        )
        seen_partitions = set()
        for _ in range(len(consumer.assignment())):
            for (topic, partition), records in consumer.poll().items():
                if records:
                    seen_partitions.add(partition)
        # Within one cursor revolution every partition has been served,
        # despite partition 0 holding 20 polls' worth of backlog.
        assert seen_partitions == {0, 1, 2, 3}

    def test_drains_within_bounded_polls(self, cluster):
        producer = FabricProducer(cluster)
        for partition in range(4):
            producer.send_batch("events", list(range(30)), partition=partition)
        consumer = FabricConsumer(
            cluster, ["events"],
            ConsumerConfig(group_id="drain", enable_auto_commit=False,
                           max_poll_records=10),
        )
        total, polls = 0, 0
        while consumer.lag() > 0:
            total += len(consumer.poll_flat())
            polls += 1
            assert polls <= 4 * 30  # hard bound: no livelock, no starvation
        assert total == 120
        assert polls <= 12 + 4  # 120 records / 10 per poll, plus slack
