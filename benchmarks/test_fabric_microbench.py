"""Functional micro-benchmarks of the in-process fabric itself.

These complement the calibrated model benches: they run the actual
Python implementation's produce/consume rounds through the benchmarking
operator (Section V-B) and the trigger path end to end, printing the
rates they reach.  What they assert is counts: how many broker appends,
replication rounds, generation checks, authorizations and broker reads
each batched path makes, against the per-record or per-partition path
it replaces.
"""

import pytest

from repro.bench.operator import BenchmarkOperator
from repro.core import OctopusDeployment
from repro.faas.function import FunctionDefinition
from repro.fabric import (
    Broker,
    ConsumerGroupCoordinator,
    EventRecord,
    FabricCluster,
    FabricProducer,
    OffsetStore,
    ProducerConfig,
    TopicConfig,
)
from repro.fabric.mirrormaker import MirrorMaker
from repro.fabric.replication import ReplicationManager

NUM_EVENTS = 2000


@pytest.fixture(scope="module")
def operator():
    op = BenchmarkOperator(num_brokers=2)
    op.provision_topic("bench-acks0", partitions=2)
    op.provision_topic("bench-acks1", partitions=2)
    op.provision_topic("bench-acksall", partitions=2)
    return op


def test_fabric_produce_consume_acks0(benchmark, operator):
    result = benchmark.pedantic(
        operator.run_round,
        kwargs=dict(topic="bench-acks0", num_events=NUM_EVENTS, acks=0),
        rounds=1, iterations=1,
    )
    print(f"\nFunctional fabric, acks=0: produce {result.produce_throughput:,.0f} ev/s, "
          f"consume {result.consume_throughput:,.0f} ev/s, "
          f"median latency {result.produce_latency.median_ms:.3f} ms")
    assert result.events == NUM_EVENTS
    assert sum(operator.cluster.end_offsets("bench-acks0").values()) == NUM_EVENTS


def test_fabric_produce_consume_acks_all(benchmark, operator):
    result = benchmark.pedantic(
        operator.run_round,
        kwargs=dict(topic="bench-acksall", num_events=NUM_EVENTS, acks="all"),
        rounds=1, iterations=1,
    )
    print(f"\nFunctional fabric, acks=all: produce {result.produce_throughput:,.0f} ev/s")
    assert result.events == NUM_EVENTS
    assert result.produce_throughput > 0


# A 40-char string value serializes to 40 B; +24 B framing = 64 B on the wire.
EVENT_64B = "x" * 40


def _produce_per_record(cluster, topic, n):
    producer = FabricProducer(cluster, ProducerConfig(acks=1))
    for _ in range(n):
        producer.send(topic, EVENT_64B)


def _produce_batched(cluster, topic, n):
    producer = FabricProducer(cluster, ProducerConfig(acks=1))
    for _ in range(n):
        try:
            producer.buffer(topic, EVENT_64B)
        except BufferError:
            producer.flush()
            producer.buffer(topic, EVENT_64B)
    producer.flush()


def test_batched_produce_beats_per_record_3x(calls):
    """The batched data plane makes one leader append and one replication
    round per partition batch, where per-record ``send`` makes one of
    each per event."""
    calls.watch(Broker, "append_packed")
    calls.watch(ReplicationManager, "replicate_from_leader")
    for produce, rounds in ((_produce_per_record, NUM_EVENTS), (_produce_batched, 2)):
        cluster = FabricCluster(num_brokers=2)
        cluster.admin().create_topic(
            "bench-batching", TopicConfig(num_partitions=2, replication_factor=2)
        )
        calls.clear()
        produce(cluster, "bench-batching", NUM_EVENTS)
        assert sum(cluster.end_offsets("bench-batching").values()) == NUM_EVENTS
        assert calls == {
            "Broker.append_packed": rounds,
            "ReplicationManager.replicate_from_leader": rounds,
        }, produce.__name__


def test_commit_group_beats_per_partition_commits_2x(calls):
    """A group commit validates the generation once and takes the offset
    store's lock once per round, however many partitions it covers."""
    cluster = FabricCluster(num_brokers=2)
    cluster.admin().create_topic("bench-commit", TopicConfig(num_partitions=16))
    partitions = cluster.partitions_for("bench-commit")
    member, generation, _ = cluster.groups.join(
        "bench-commits", "bench", ["bench-commit"], partitions
    )
    calls.watch(ConsumerGroupCoordinator, "validate_generation")
    calls.watch(OffsetStore, "commit", "commit_many")
    rounds = 100
    for i in range(rounds):
        cluster.commit_group(
            "bench-commits",
            [(tp, i + 1) for tp in partitions],
            generation=generation,
            member_id=member,
        )
    assert cluster.offsets.group_offsets("bench-commits") == {tp: rounds for tp in partitions}
    assert calls == {
        "ConsumerGroupCoordinator.validate_generation": rounds,
        "OffsetStore.commit_many": rounds,
    }


def test_fetch_many_consume_beats_per_partition_2x(calls):
    """A fetch session authorizes once and reads its whole assignment in
    one ``Broker.fetch_many`` per pass; per-partition ``cluster.fetch``
    pays one authorization and one broker read per partition per pass."""
    num_partitions, records_per_partition, rounds = 64, 4, 100
    cluster = FabricCluster(num_brokers=1)
    cluster.admin().create_topic(
        "bench-fetch",
        TopicConfig(num_partitions=num_partitions, replication_factor=1),
    )
    for p in range(num_partitions):
        cluster.append_batch(
            "bench-fetch",
            p,
            [EventRecord(value=EVENT_64B) for _ in range(records_per_partition)],
        )
    total = num_partitions * records_per_partition * rounds
    calls.watch(FabricCluster, "authorize")
    calls.watch(Broker, "fetch_many")

    served = 0
    for _ in range(rounds):
        for p in range(num_partitions):
            served += len(cluster.fetch("bench-fetch", p, 0, max_records=500))
    assert served == total
    per_partition = num_partitions * rounds
    assert calls == {"FabricCluster.authorize": per_partition, "Broker.fetch_many": per_partition}

    calls.clear()
    session = cluster.fetch_session()
    session.set_assignment([("bench-fetch", p) for p in range(num_partitions)])
    positions = {("bench-fetch", p): 0 for p in range(num_partitions)}
    served = 0
    for _ in range(rounds):
        batches = session.fetch_assignment(positions, max_records=total)
        served += sum(len(r) for r in batches.values())
    assert served == total
    assert calls == {"FabricCluster.authorize": 1, "Broker.fetch_many": rounds}


def test_batched_mirror_sync_beats_per_record_2x(calls):
    """MirrorMaker reads through one fetch session and appends each
    partition's records in one ``append_chunks`` call."""
    num_partitions, records_per_partition = 4, 500
    source = FabricCluster(num_brokers=1, name="bench-src")
    destination = FabricCluster(num_brokers=1, name="bench-dst")
    for cluster in (source, destination):
        cluster.admin().create_topic(
            "mirror-bench",
            TopicConfig(num_partitions=num_partitions, replication_factor=1),
        )
    for p in range(num_partitions):
        source.append_batch(
            "mirror-bench",
            p,
            [EventRecord(value=EVENT_64B) for _ in range(records_per_partition)],
        )
    calls.watch(FabricCluster, "append_chunks")
    stats = MirrorMaker(source, destination).sync_topic("mirror-bench")
    assert stats.records_mirrored == num_partitions * records_per_partition
    assert calls == {"FabricCluster.append_chunks": num_partitions}


def run_trigger_path(deployment, client, n_events):
    processed = []
    deployment.triggers.register_function(
        FunctionDefinition(name="count", handler=lambda e, c: processed.extend(e["records"]))
    )
    client.create_trigger("trigger-bench", "count", batch_size=500)
    producer = client.producer()
    for i in range(n_events):
        producer.send("trigger-bench", {"event_type": "created", "i": i})
    deployment.run_triggers()
    return len(processed)


def test_trigger_path_end_to_end(benchmark):
    deployment = OctopusDeployment.create()
    client = deployment.client("bench", "anl.gov")
    client.register_topic("trigger-bench", {"num_partitions": 4})
    count = benchmark.pedantic(
        run_trigger_path, args=(deployment, client, 1000), rounds=1, iterations=1
    )
    print(f"\nTrigger path processed {count} events end to end")
    assert count == 1000
