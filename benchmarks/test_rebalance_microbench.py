"""Micro-benchmarks of incremental cooperative rebalancing.

Eager range assignment is stop-the-world: every membership change revokes
the whole partition set (all members discard positions and reacquire
from scratch).  The cooperative sticky protocol must move
only the minimal delta — for a single join in an N-member group over P
partitions, at most ``ceil(P/N)`` partitions — while every retained
partition keeps serving records mid-rebalance.  The timings land in the
benchmark-results artifact next to the throughput benches.
"""

import math

from repro.fabric import (
    ConsumerConfig,
    EventRecord,
    FabricCluster,
    FabricConsumer,
    TopicConfig,
)

PARTITIONS = 16
MEMBERS = 4
RECORDS_PER_PARTITION = 50
TOPIC = "coop-bench"


def make_cluster():
    cluster = FabricCluster(num_brokers=2)
    cluster.admin().create_topic(
        TOPIC, TopicConfig(num_partitions=PARTITIONS, replication_factor=2)
    )
    return cluster


def make_member(cluster):
    return FabricConsumer(
        cluster,
        [TOPIC],
        ConsumerConfig(group_id="coop-group", enable_auto_commit=False),
    )


def pump(consumers, rounds=4):
    """Stand-in for the members' poll loops: everyone adopts and acks."""
    for _ in range(rounds):
        for consumer in consumers:
            consumer.poll()


def fill(cluster):
    for partition in range(PARTITIONS):
        cluster.append_batch(
            TOPIC,
            partition,
            [EventRecord(value=f"p{partition}-r{i}") for i in range(RECORDS_PER_PARTITION)],
        )


def assert_exact_cover(cluster, consumers):
    assignments = [set(c.assignment()) for c in consumers]
    union = set().union(*assignments)
    assert union == set(cluster.partitions_for(TOPIC))
    assert sum(len(a) for a in assignments) == len(union)  # disjoint


def test_cooperative_join_revokes_at_most_quota(benchmark):
    """A single join in a 16-partition, 4-member group revokes <= 4
    partitions (vs all 16 under an eager stop-the-world reshuffle), and
    the survivors keep consuming every retained partition mid-rebalance."""
    cluster = make_cluster()
    survivors = [make_member(cluster) for _ in range(MEMBERS)]
    pump(survivors)
    for consumer in survivors:
        assert len(consumer.assignment()) == PARTITIONS // MEMBERS
    fill(cluster)
    revoked_before = sum(c.metrics.partitions_revoked for c in survivors)

    def join_and_settle():
        joiner = make_member(cluster)
        # While the revoke phase is in flight, every survivor's poll must
        # still deliver records from each partition it retains: retained
        # partitions never stall.
        for consumer in survivors:
            retained_before_poll = set(consumer.assignment())
            batches = consumer.poll()
            retained = set(consumer.assignment())
            assert retained <= retained_before_poll  # sticky: only sheds
            assert retained <= set(batches)  # every retained partition served
        pump(survivors + [joiner])
        return joiner

    joiner = benchmark.pedantic(join_and_settle, rounds=1, iterations=1)
    revoked = sum(c.metrics.partitions_revoked for c in survivors) - revoked_before
    quota = math.ceil(PARTITIONS / MEMBERS)
    print(
        f"\nCooperative join over {PARTITIONS} partitions, {MEMBERS} members: "
        f"{revoked} partitions revoked (eager range reshuffle revokes {PARTITIONS})"
    )
    assert 0 < revoked <= quota
    assert len(joiner.assignment()) >= PARTITIONS // (MEMBERS + 1)
    assert_exact_cover(cluster, survivors + [joiner])


def test_cooperative_leave_moves_only_the_leavers_partitions(benchmark):
    """A graceful leave frees only the leaver's partitions: the rebalance
    completes in a single phase and no survivor revokes anything."""
    cluster = make_cluster()
    members = [make_member(cluster) for _ in range(MEMBERS)]
    pump(members)
    fill(cluster)
    leaver, survivors = members[0], members[1:]
    freed = set(leaver.assignment())
    before = {id(c): set(c.assignment()) for c in survivors}
    revoked_before = sum(c.metrics.partitions_revoked for c in survivors)

    def leave_and_settle():
        leaver.close()
        pump(survivors)

    benchmark.pedantic(leave_and_settle, rounds=1, iterations=1)
    revoked = sum(c.metrics.partitions_revoked for c in survivors) - revoked_before
    moved = {
        tp
        for c in survivors
        for tp in set(c.assignment()) - before[id(c)]
    }
    print(
        f"\nCooperative leave: {len(moved)} partitions moved "
        f"(the leaver's {len(freed)}), {revoked} revoked from survivors"
    )
    assert revoked == 0
    assert moved == freed  # exactly the leaver's partitions re-stick
    assert len(moved) <= math.ceil(PARTITIONS / MEMBERS)
    for c in survivors:
        assert before[id(c)] <= set(c.assignment())
    assert_exact_cover(cluster, survivors)
