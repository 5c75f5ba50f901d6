"""Tests for topics and topic configuration."""

import pytest

from repro.fabric.cluster import FabricCluster
from repro.fabric.errors import InvalidConfigError, UnknownPartitionError
from repro.fabric.record import EventRecord
from repro.fabric.topic import DEFAULT_RETENTION_SECONDS, Topic, TopicConfig


class TestTopicConfig:
    def test_defaults_match_paper(self):
        config = TopicConfig()
        assert config.retention_seconds == DEFAULT_RETENTION_SECONDS == 7 * 24 * 3600
        assert config.replication_factor == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_partitions": 0},
            {"replication_factor": 0},
            {"cleanup_policy": "vacuum"},
            {"min_insync_replicas": 0},
            {"min_insync_replicas": 3, "replication_factor": 2},
            {"retention_seconds": -1},
            {"retention_bytes": -5},
            {"max_message_bytes": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidConfigError):
            TopicConfig(**kwargs).validate()

    def test_with_updates_returns_new_validated_config(self):
        config = TopicConfig(num_partitions=2)
        updated = config.with_updates(num_partitions=4)
        assert updated.num_partitions == 4
        assert config.num_partitions == 2
        with pytest.raises(InvalidConfigError):
            config.with_updates(num_partitions=-1)

    def test_dict_round_trip(self):
        config = TopicConfig(num_partitions=3, cleanup_policy="compact",
                             retention_bytes=1024)
        assert TopicConfig.from_dict(config.to_dict()) == config

    def test_from_dict_ignores_unknown_keys(self):
        config = TopicConfig.from_dict({"num_partitions": 2, "bogus": True})
        assert config.num_partitions == 2


def make_cluster(**config):
    cluster = FabricCluster(num_brokers=2)
    cluster.admin().create_topic("t", TopicConfig(**config))
    return cluster


def leader_log(cluster, partition):
    leader = cluster.replication.assignment("t", partition).leader
    return cluster.brokers[leader].replica("t", partition)


class TestTopic:
    def test_creates_configured_partition_count(self):
        topic = Topic("instrument-data", TopicConfig(num_partitions=4))
        assert topic.num_partitions == 4

    def test_every_partition_is_a_broker_replica(self):
        cluster = make_cluster(num_partitions=4)
        assert cluster.topic("t").num_partitions == 4
        assert [leader_log(cluster, p).partition for p in range(4)] == [0, 1, 2, 3]

    def test_unknown_partition_raises(self):
        cluster = make_cluster(num_partitions=1)
        with pytest.raises(UnknownPartitionError):
            cluster.append("t", 5, EventRecord(value=1))
        with pytest.raises(UnknownPartitionError):
            cluster.admin().describe_segments("t", 5)

    def test_add_partitions_grows_but_never_shrinks(self):
        topic = Topic("t", TopicConfig(num_partitions=2))
        topic.add_partitions(4)
        assert topic.num_partitions == 4
        with pytest.raises(InvalidConfigError):
            topic.add_partitions(1)

    def test_update_config_handles_partition_growth(self):
        topic = Topic("t", TopicConfig(num_partitions=2))
        topic.update_config(num_partitions=6, retention_seconds=60.0)
        assert topic.num_partitions == 6
        assert topic.config.retention_seconds == 60.0

    def test_describe_reports_offsets_and_counts(self):
        cluster = make_cluster(num_partitions=2)
        cluster.append("t", 0, EventRecord(value=1))
        cluster.append("t", 0, EventRecord(value=2))
        cluster.append("t", 1, EventRecord(value=3))
        info = cluster.admin().describe_topic("t")
        assert info["name"] == "t"
        assert info["config"]["num_partitions"] == 2
        assert info["end_offsets"] == {0: 2, 1: 1}
        assert info["total_records"] == 3
        assert [leader_log(cluster, p).total_appended for p in range(2)] == [2, 1]
