"""The leader replica is the partition: one source of truth.

Retention, compaction, ``describe_topic``/``describe_segments`` and the
timestamp offset reset must all operate on the log consumers are served
from — on the leader, and on whichever follower is elected next.
"""

from repro.common.clock import ManualClock
from repro.fabric import (
    ConsumerConfig,
    FabricCluster,
    FabricConsumer,
    TopicConfig,
)
from repro.fabric.record import EventRecord

TOPIC = "t"


def make_cluster(*, brokers=2, clock=None, **config):
    cluster = FabricCluster(num_brokers=brokers, clock=clock)
    cluster.admin().create_topic(
        TOPIC, TopicConfig(num_partitions=1, replication_factor=brokers, **config)
    )
    return cluster


def leader_of(cluster):
    return cluster.replication.assignment(TOPIC, 0).leader


def fill(cluster, values, **kwargs):
    cluster.append_batch(TOPIC, 0, [EventRecord(value=v) for v in values], **kwargs)


def read_everything(cluster, group):
    consumer = FabricConsumer(
        cluster, [TOPIC], ConsumerConfig(group_id=group, auto_offset_reset="earliest")
    )
    records = []
    while True:
        polled = [r for view in consumer.poll().values() for r in view]
        if not polled:
            break
        records.extend(polled)
    consumer.close()
    return records


def unclean_failover(cluster):
    """5 replicated records, 5 more the follower never got, leader crashes,
    the new leader writes 3 of its own.  Returns the deposed leader's id."""
    fill(cluster, range(5), acks="all")
    cluster.replication.set_link_filter(lambda *link: "drop")
    fill(cluster, range(100, 105), acks=1)
    deposed = leader_of(cluster)
    cluster.admin().fail_broker(deposed)
    cluster.replication.set_link_filter(None)
    fill(cluster, range(200, 203), acks=1)
    return deposed


class TestCompactionReachesTheServedLog:
    def test_consumers_and_describe_agree_after_compaction(self):
        cluster = make_cluster(brokers=3, cleanup_policy="compact")
        cluster.append_batch(
            TOPIC,
            0,
            [EventRecord(value=i, key=f"k{i % 2}") for i in range(20)],
            acks="all",
        )
        admin = cluster.admin()
        assert admin.run_retention(TOPIC) == {TOPIC: {0: 18}}

        latest = {"k0": 18, "k1": 19}
        assert {r.key: r.value for r in read_everything(cluster, "g1")} == latest
        assert len(read_everything(cluster, "g2")) == 2
        assert admin.describe_topic(TOPIC)["total_records"] == 2
        described = admin.describe_segments(TOPIC)["partitions"][0]
        assert sum(segment["records"] for segment in described["segments"]) == 2
        assert described["log_end_offset"] == 20

        # Every follower compacted too: whoever is elected serves the same.
        for broker in cluster.brokers.values():
            assert len(broker.replica(TOPIC, 0)) == 2
        admin.fail_broker(leader_of(cluster))
        assert {r.key: r.value for r in read_everything(cluster, "g3")} == latest
        assert admin.describe_topic(TOPIC)["total_records"] == 2


class TestDescribeFollowsTheServingLogAcrossFailover:
    def test_describe_end_offsets_match_what_is_fetchable(self):
        cluster = make_cluster()
        unclean_failover(cluster)
        admin = cluster.admin()

        served = read_everything(cluster, "g")
        assert [r.value for r in served] == [0, 1, 2, 3, 4, 200, 201, 202]
        assert cluster.end_offset(TOPIC, 0) == 8
        assert admin.describe_topic(TOPIC)["end_offsets"] == {0: 8}
        assert admin.describe_topic(TOPIC)["total_records"] == 8
        described = admin.describe_segments(TOPIC)["partitions"][0]
        assert described["log_end_offset"] == 8
        assert described["leader"] == leader_of(cluster)
        assert described["high_watermark"] == 8

    def test_timestamp_reset_resolves_against_the_serving_log(self):
        clock = ManualClock(100.0)
        cluster = make_cluster(clock=clock)
        fill(cluster, range(5), acks="all")
        cluster.replication.set_link_filter(lambda *link: "drop")
        clock.advance(100.0)
        fill(cluster, range(100, 105), acks=1)  # t=200, deposed leader only
        cluster.admin().fail_broker(leader_of(cluster))
        cluster.replication.set_link_filter(None)
        clock.advance(100.0)
        fill(cluster, range(200, 203), acks=1)  # t=300, offsets 5..7

        consumer = FabricConsumer(
            cluster,
            [TOPIC],
            ConsumerConfig(
                group_id="g", auto_offset_reset="timestamp", start_timestamp=250.0
            ),
        )
        assert consumer.reset_position(TOPIC, 0) == 5
        polled = [r for view in consumer.poll().values() for r in view]
        assert [r.value for r in polled] == [200, 201, 202]
        consumer.close()


class TestRetentionSurvivesFailover:
    def test_offline_follower_is_aligned_to_the_leader_log_start(self):
        """A follower that was offline during a retention run must not
        bring the deleted prefix back once it is elected."""
        cluster = make_cluster(retention_bytes=400, retention_seconds=None)
        admin = cluster.admin()
        fill(cluster, [b"x" * 70] * 50, acks="all")
        leader = leader_of(cluster)
        follower = 1 - leader
        admin.fail_broker(follower)
        removed = admin.run_retention(TOPIC)[TOPIC][0]
        start = cluster.beginning_offset(TOPIC, 0)
        assert 0 < removed == start < 50

        admin.restore_broker(follower)
        assert cluster.brokers[follower].replica(TOPIC, 0).log_start_offset == start
        admin.fail_broker(leader)
        assert leader_of(cluster) == follower
        assert cluster.beginning_offset(TOPIC, 0) == start
        assert [r.offset for r in read_everything(cluster, "g")] == list(
            range(start, 50)
        )

    def test_follower_wholly_behind_the_leader_log_start_is_rebuilt(self):
        """Retention moved past everything the offline follower held:
        restoring it must rebuild from the leader's log start (the parent
        raised OffsetOutOfRangeError out of ``restore_broker``)."""
        cluster = make_cluster(retention_bytes=400, retention_seconds=None)
        admin = cluster.admin()
        fill(cluster, [b"x" * 70] * 10, acks="all")
        leader = leader_of(cluster)
        follower = 1 - leader
        admin.fail_broker(follower)
        fill(cluster, [b"x" * 70] * 50, acks=1)
        admin.run_retention(TOPIC)
        start = cluster.beginning_offset(TOPIC, 0)
        assert start > 10

        admin.restore_broker(follower)
        follower_log = cluster.brokers[follower].replica(TOPIC, 0)
        assert (follower_log.log_start_offset, follower_log.log_end_offset) == (
            start,
            60,
        )
        assert sorted(cluster.replication.assignment(TOPIC, 0).isr) == [0, 1]
