"""Tests for producer and consumer clients against the fabric."""

import time

import pytest

from repro.fabric import (
    ConsumerConfig,
    FabricCluster,
    FabricConsumer,
    FabricProducer,
    ProducerConfig,
    TopicConfig,
)
from repro.common.clock import ManualClock
from repro.fabric.errors import CommitFailedError, NotLeaderError
from repro.fabric.partitioner import Partitioner, hash_key


@pytest.fixture
def cluster():
    cluster = FabricCluster(num_brokers=2)
    cluster.admin().create_topic("events", TopicConfig(num_partitions=4, replication_factor=2))
    return cluster


class TestPartitioner:
    def test_keyed_records_are_stable(self):
        partitioner = Partitioner()
        first = partitioner.partition("experiment-42", 8)
        assert all(partitioner.partition("experiment-42", 8) == first for _ in range(20))

    def test_unkeyed_records_round_robin_over_all_partitions(self):
        partitioner = Partitioner()
        chosen = {partitioner.partition(None, 4) for _ in range(8)}
        assert chosen == {0, 1, 2, 3}

    def test_explicit_partition_wins(self):
        partitioner = Partitioner()
        assert partitioner.partition("key", 4, explicit=2) == 2

    def test_explicit_partition_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Partitioner().partition(None, 4, explicit=9)

    def test_hash_key_is_deterministic_across_instances(self):
        assert hash_key("abc") == hash_key("abc")
        assert hash_key(b"abc") == hash_key("abc")

    # md5 prefixes of the hashed text; a change here moves keys to other
    # partitions, breaking per-key order across an upgrade.
    GOLDEN_HASHES = (
        ("p0-k01", 14432130226363298215),
        (b"p0-k01", 14432130226363298215),
        (1, 14180219187711517570),
        (True, 17881488745847489677),
        (1.0, 16483993693623560906),
    )

    def test_partition_mapping_is_pinned_cold_and_warm(self):
        from repro.fabric import partitioner

        partitioner._digest.cache_clear()
        cold = [hash_key(key) for key, _ in self.GOLDEN_HASHES]
        warm = [hash_key(key) for key, _ in self.GOLDEN_HASHES]
        assert cold == warm == [value for _, value in self.GOLDEN_HASHES]
        assert hash_key(1) != hash_key(True) != hash_key(1.0)


class TestProducer:
    def test_send_returns_metadata(self, cluster):
        producer = FabricProducer(cluster)
        md = producer.send("events", {"step": 1}, key="exp-1")
        assert md.topic == "events"
        assert md.offset == 0
        assert producer.metrics.records_sent == 1

    def test_same_key_goes_to_same_partition(self, cluster):
        producer = FabricProducer(cluster)
        partitions = {producer.send("events", i, key="robot-3").partition for i in range(10)}
        assert len(partitions) == 1

    def test_invalid_acks_rejected(self):
        with pytest.raises(ValueError):
            ProducerConfig(acks="two").validate()

    def test_retries_on_retriable_error_then_succeeds(self, cluster):
        attempts = {"n": 0}
        real_append = cluster.append

        def flaky_append(*args, **kwargs):
            attempts["n"] += 1
            if attempts["n"] <= 2:
                raise NotLeaderError("transient leadership change")
            return real_append(*args, **kwargs)

        cluster.append = flaky_append  # type: ignore[assignment]
        producer = FabricProducer(
            cluster, ProducerConfig(retries=3, retry_backoff_seconds=0), sleep_fn=lambda s: None
        )
        md = producer.send("events", "v")
        assert md.offset == 0
        assert producer.metrics.retries == 2

    def test_retries_exhausted_raises(self, cluster):
        def always_fail(*args, **kwargs):
            raise NotLeaderError("still not leader")

        cluster.append = always_fail  # type: ignore[assignment]
        producer = FabricProducer(
            cluster, ProducerConfig(retries=2, retry_backoff_seconds=0), sleep_fn=lambda s: None
        )
        with pytest.raises(NotLeaderError):
            producer.send("events", "v")
        assert producer.metrics.records_failed == 1

    def test_buffer_and_flush_delivers_everything(self, cluster):
        producer = FabricProducer(cluster)
        for i in range(20):
            producer.buffer("events", {"i": i}, key=str(i % 2))
        assert producer.buffered_bytes > 0
        metadata = producer.flush()
        assert len(metadata) == 20
        assert producer.buffered_bytes == 0

    def test_buffer_full_raises(self, cluster):
        producer = FabricProducer(cluster, ProducerConfig(buffer_memory_bytes=200))
        with pytest.raises(BufferError):
            for _ in range(100):
                producer.buffer("events", "x" * 50)

    def test_close_flushes_and_blocks_further_sends(self, cluster):
        producer = FabricProducer(cluster)
        producer.buffer("events", "pending")
        producer.close()
        assert cluster.end_offsets("events") != {0: 0, 1: 0, 2: 0, 3: 0}
        with pytest.raises(RuntimeError):
            producer.send("events", "nope")

    def test_context_manager_closes(self, cluster):
        with FabricProducer(cluster) as producer:
            producer.buffer("events", "v")
        total = sum(cluster.end_offsets("events").values())
        assert total == 1


class TestConsumer:
    def test_earliest_consumer_reads_backlog(self, cluster):
        producer = FabricProducer(cluster)
        producer.send_batch("events", list(range(10)))
        consumer = FabricConsumer(cluster, ["events"], ConsumerConfig(group_id="g1"))
        assert sorted(r.value for r in consumer.poll_flat()) == list(range(10))

    def test_latest_consumer_skips_backlog(self, cluster):
        producer = FabricProducer(cluster)
        producer.send_batch("events", list(range(10)))
        consumer = FabricConsumer(
            cluster, ["events"],
            ConsumerConfig(group_id="g2", auto_offset_reset="latest"),
        )
        assert consumer.poll_flat() == []
        producer.send("events", "new")
        assert [r.value for r in consumer.poll_flat()] == ["new"]

    def test_timestamp_reset_starts_mid_stream(self, cluster):
        """``start_timestamp`` matches the broker-assigned append time —
        the client-supplied record timestamps (0.0..4.0 here, far in the
        past) no longer drive the reset point."""
        producer = FabricProducer(cluster)
        for i in range(3):
            producer.send("events", i, partition=0, timestamp=float(i))
        time.sleep(0.005)
        cut = time.time()
        time.sleep(0.005)
        for i in (3, 4):
            producer.send("events", i, partition=0, timestamp=float(i))
        consumer = FabricConsumer(
            cluster, ["events"],
            ConsumerConfig(group_id="g3", auto_offset_reset="timestamp", start_timestamp=cut),
        )
        assert sorted(r.value for r in consumer.poll_flat()) == [3, 4]

    def test_commit_and_resume_from_committed_offset(self, cluster):
        producer = FabricProducer(cluster)
        producer.send_batch("events", list(range(10)), partition=0)
        consumer = FabricConsumer(
            cluster, ["events"], ConsumerConfig(group_id="resume", enable_auto_commit=False)
        )
        first = consumer.poll_flat(max_records=4)
        consumer.commit()
        consumer.close()
        # A new consumer in the same group resumes where the commit left off.
        consumer2 = FabricConsumer(
            cluster, ["events"], ConsumerConfig(group_id="resume", enable_auto_commit=False)
        )
        rest = consumer2.poll_flat(max_records=100)
        assert len(first) + len(rest) == 10
        assert {r.value for r in first}.isdisjoint({r.value for r in rest})

    def test_uncommitted_records_are_redelivered(self, cluster):
        """At-least-once: a crash before commit re-reads the records."""
        producer = FabricProducer(cluster)
        producer.send_batch("events", list(range(6)), partition=1)
        config = ConsumerConfig(group_id="alo", enable_auto_commit=False)
        consumer = FabricConsumer(cluster, ["events"], config)
        seen_first = [r.value for r in consumer.poll_flat()]
        assert len(seen_first) == 6
        # Simulated crash: no commit, no clean close.
        consumer2 = FabricConsumer(cluster, ["events"], config)
        # consumer2 only gets partitions after a rebalance kicks out the dead
        # member; simulate by having the first consumer leave ungracefully.
        cluster.groups.leave("alo", consumer.member_id, cluster.partitions_for("events"))
        seen_again = [r.value for r in consumer2.poll_flat()]
        assert sorted(seen_again) == sorted(seen_first)

    def test_group_splits_partitions_between_members(self, cluster):
        c1 = FabricConsumer(cluster, ["events"], ConsumerConfig(group_id="team"))
        c2 = FabricConsumer(cluster, ["events"], ConsumerConfig(group_id="team"))
        # Cooperative rebalance: c1's poll revokes its excess and promotes
        # the pending assignment; c2's poll then picks up the freed half.
        c1.poll()
        c2.poll()
        a1, a2 = set(c1.assignment()), set(c2.assignment())
        assert a1.isdisjoint(a2)
        assert a1 | a2 == set(cluster.partitions_for("events"))

    def test_rebalance_is_cooperative_and_sticky(self, cluster):
        """A new member must not disturb the partitions the incumbent
        retains: only the minimal delta is revoked, and the incumbent
        keeps fetching its retained partitions mid-rebalance."""
        producer = FabricProducer(cluster)
        for partition in range(4):
            producer.send_batch("events", list(range(4)), partition=partition)
        revoked, assigned = [], []
        c1 = FabricConsumer(
            cluster, ["events"],
            ConsumerConfig(group_id="coop", enable_auto_commit=False),
            on_partitions_revoked=revoked.extend,
            on_partitions_assigned=assigned.extend,
        )
        before = set(c1.assignment())
        assert len(before) == 4 and assigned == sorted(before)
        c2 = FabricConsumer(
            cluster, ["events"],
            ConsumerConfig(group_id="coop", enable_auto_commit=False),
        )
        # Mid-rebalance (revoke phase adopted on this poll) c1 still
        # serves its retained partitions — they never stall.
        batches = c1.poll()
        retained = set(c1.assignment())
        assert retained < before and len(retained) == 2
        assert set(batches) == retained
        assert sorted(revoked) == sorted(before - retained)
        # Once both members have polled the group settles: c1 keeps its
        # retained set untouched, c2 owns exactly the revoked delta.
        c2.poll()
        c1.poll()
        assert set(c1.assignment()) == retained
        assert set(c2.assignment()) == before - retained
        assert c1.metrics.partitions_revoked == 2

    def test_laggard_commit_on_revoke_cannot_rewind_new_owner(self, cluster):
        """Regression: partitions a slow consumer has not yet released must
        not be granted to newer members — the laggard's commit-on-revoke
        would otherwise land after (and rewind) the new owner's commits."""
        producer = FabricProducer(cluster)
        for partition in range(4):
            producer.send_batch("events", list(range(8)), partition=partition)
        c1 = FabricConsumer(cluster, ["events"], ConsumerConfig(group_id="lag2"))
        while c1.poll_flat():
            pass  # positions at 8 everywhere, nothing committed yet
        c2 = FabricConsumer(cluster, ["events"], ConsumerConfig(group_id="lag2"))
        c3 = FabricConsumer(cluster, ["events"], ConsumerConfig(group_id="lag2"))
        # c1 has not acknowledged: newer members poll but receive nothing.
        c2.poll()
        c3.poll()
        assert c2.assignment() == [] and c3.assignment() == []
        # c1 acks on its poll; its commit-on-revoke lands *before* any
        # grant, so the new owners resume from 8 — never behind.
        c1.poll()
        c2.poll()
        c3.poll()
        owned = set(c1.assignment()) | set(c2.assignment()) | set(c3.assignment())
        assert owned == set(cluster.partitions_for("events"))
        for consumer in (c2, c3):
            for topic, partition in consumer.assignment():
                assert cluster.offsets.committed("lag2", topic, partition) == 8
            assert consumer.lag() == 0  # resumed, not rewound

    def test_consumer_close_survives_topic_deletion(self, cluster):
        """Regression: close() used to look the topic's partitions up and
        crash with UnknownTopicError, leaking the group membership."""
        consumer = FabricConsumer(cluster, ["events"], ConsumerConfig(group_id="bye"))
        cluster.admin().delete_topic("events")
        consumer.close()
        assert cluster.groups.members("bye") == []

    def test_commit_on_revoke_preserves_progress(self, cluster):
        """An auto-committing consumer commits revoked partitions as it
        gives them up, so the new owner resumes instead of re-reading."""
        producer = FabricProducer(cluster)
        for partition in range(4):
            producer.send_batch("events", list(range(6)), partition=partition)
        c1 = FabricConsumer(cluster, ["events"], ConsumerConfig(group_id="hand"))
        while c1.poll_flat():
            pass  # positions now at the end of every partition
        c2 = FabricConsumer(cluster, ["events"], ConsumerConfig(group_id="hand"))
        c1.poll()  # adopt the revoke phase: commits the revoked half
        c2.poll()
        c2.poll()  # assign phase: c2 owns the revoked partitions
        assert set(c2.assignment())
        for topic, partition in c2.assignment():
            assert cluster.offsets.committed("hand", topic, partition) == 6
        assert c2.lag() == 0  # nothing is re-read: progress survived the move

    def test_two_groups_both_receive_all_events(self, cluster):
        producer = FabricProducer(cluster)
        producer.send_batch("events", list(range(8)))
        g1 = FabricConsumer(cluster, ["events"], ConsumerConfig(group_id="a"))
        g2 = FabricConsumer(cluster, ["events"], ConsumerConfig(group_id="b"))
        assert sorted(r.value for r in g1.poll_flat()) == list(range(8))
        assert sorted(r.value for r in g2.poll_flat()) == list(range(8))

    def test_commit_with_stale_generation_fails(self, cluster):
        consumer = FabricConsumer(
            cluster, ["events"], ConsumerConfig(group_id="stale", enable_auto_commit=False)
        )
        # A second member joining bumps the generation.
        FabricConsumer(cluster, ["events"], ConsumerConfig(group_id="stale"))
        with pytest.raises(CommitFailedError):
            consumer.commit()

    def test_seek_and_lag(self, cluster):
        producer = FabricProducer(cluster)
        producer.send_batch("events", list(range(10)), partition=2)
        consumer = FabricConsumer(cluster, ["events"], ConsumerConfig(group_id="lag"))
        assert consumer.lag() == 10
        consumer.poll_flat()
        assert consumer.lag() == 0
        consumer.seek("events", 2, 5)
        assert consumer.lag() == 5

    def test_rebalance_prunes_revoked_positions(self, cluster):
        """Regression: after a rebalance the old owner's commit() used to
        clobber the new owner's committed offsets for revoked partitions."""
        producer = FabricProducer(cluster)
        for partition in range(4):
            producer.send_batch("events", list(range(8)), partition=partition)
        c1 = FabricConsumer(
            cluster, ["events"],
            ConsumerConfig(group_id="reb", enable_auto_commit=False),
        )
        # c1 owns everything and consumes only part of the backlog, so its
        # in-memory positions sit mid-stream on every partition.
        c1.poll_flat(max_records=8)
        c2 = FabricConsumer(
            cluster, ["events"],
            ConsumerConfig(group_id="reb", enable_auto_commit=False),
        )
        # c1 acknowledges the revocation, which completes the cooperative
        # rebalance and hands c2 its half of the partitions.
        c1.poll_flat(max_records=1)
        # c2 drains its half of the partitions and commits the end offsets.
        while c2.poll_flat():
            pass
        c2.commit()
        committed_by_c2 = {
            tp: c2.committed(*tp) for tp in c2.assignment()
        }
        assert all(offset == 8 for offset in committed_by_c2.values())
        # c1 rejoins on its next poll (pruning revoked positions) and commits.
        c1.poll_flat(max_records=1)
        c1.commit()
        for (topic, partition), offset in committed_by_c2.items():
            assert cluster.offsets.committed("reb", topic, partition) == offset

    def test_closed_consumer_rejects_poll(self, cluster):
        consumer = FabricConsumer(cluster, ["events"], ConsumerConfig(group_id="x"))
        consumer.close()
        with pytest.raises(RuntimeError):
            consumer.poll()


class TestConsumerLiveness:
    """Clock-driven heartbeats, session expiry and zombie fencing."""

    def make_pair(self, clock):
        cluster = FabricCluster(num_brokers=2, clock=clock)
        cluster.admin().create_topic(
            "events", TopicConfig(num_partitions=4, replication_factor=2)
        )
        config = ConsumerConfig(
            group_id="live",
            enable_auto_commit=False,
            heartbeat_interval_seconds=3.0,
            session_timeout_seconds=10.0,
        )
        c1 = FabricConsumer(cluster, ["events"], config, clock=clock)
        c2 = FabricConsumer(cluster, ["events"], config, clock=clock)
        c1.poll()
        c2.poll()
        assert len(c1.assignment()) == 2 and len(c2.assignment()) == 2
        return cluster, c1, c2

    def test_heartbeat_interval_must_beat_effective_session_timeout(self):
        """Regression: with session_timeout_seconds unset, the coordinator
        default (30s) applies — a longer heartbeat interval would have the
        member evicted and rejoining forever despite being healthy."""
        cluster = FabricCluster(num_brokers=1)
        cluster.admin().create_topic("events", TopicConfig(num_partitions=1))
        with pytest.raises(ValueError):
            FabricConsumer(
                cluster, ["events"],
                ConsumerConfig(heartbeat_interval_seconds=45.0),
            )

    def test_consumers_inherit_the_cluster_clock_by_default(self):
        """Regression: heartbeat pacing must share the coordinator's time
        base — a consumer on wall time against a ManualClock coordinator
        would be evicted despite polling diligently."""
        clock = ManualClock()
        cluster = FabricCluster(num_brokers=1, clock=clock)
        cluster.admin().create_topic("events", TopicConfig(num_partitions=2))
        consumer = FabricConsumer(cluster, ["events"], ConsumerConfig(group_id="tick"))
        for _ in range(4):
            clock.advance(20.0)  # far beyond the 30s default session timeout
            consumer.poll()
        assert consumer.metrics.heartbeats == 4
        assert cluster.groups.members("tick") == [consumer.member_id]
        consumer.close()

    def test_polling_consumers_heartbeat_on_the_injected_clock(self):
        clock = ManualClock()
        cluster, c1, c2 = self.make_pair(clock)
        for _ in range(4):
            clock.advance(4.0)
            c1.poll()
            c2.poll()
        assert c1.metrics.heartbeats == 4 and c2.metrics.heartbeats == 4
        assert cluster.groups.members("live") == sorted(
            [c1.member_id, c2.member_id]
        )

    def test_silent_member_is_evicted_and_its_partitions_restick(self):
        clock = ManualClock()
        cluster, c1, c2 = self.make_pair(clock)
        survivor_before = set(c2.assignment())
        # c1 goes silent; c2 keeps polling past c1's session timeout.
        for _ in range(4):
            clock.advance(4.0)
            c2.poll()
        assert cluster.groups.members("live") == [c2.member_id]
        c2.poll()
        # Sticky re-assignment: the survivor kept everything it had and
        # absorbed the dead member's partitions.
        assert survivor_before <= set(c2.assignment())
        assert sorted(c2.assignment()) == cluster.partitions_for("events")
        # The zombie's stale-generation commit is fenced...
        with pytest.raises(CommitFailedError):
            c1.commit()
        # ...but its next poll rejoins it as a fresh member.
        c1.poll()
        c2.poll()
        c1.poll()
        assert len(cluster.groups.members("live")) == 2
        a1, a2 = set(c1.assignment()), set(c2.assignment())
        assert a1.isdisjoint(a2)
        assert a1 | a2 == set(cluster.partitions_for("events"))
