"""Chaos harness: deterministic fault plans, fencing, HW and convergence.

PR 10's determinism contract: a :class:`FaultPlan` is a pure function of
its seed, a :class:`FaultInjector` applies it through the chaos seams as
the manual clock advances, and :func:`run_chaos_scenario` must produce a
byte-identical report when re-run with the same seed.  The safety
invariants the scenario checks — committed fetches never cross the high
watermark, one accepting leader per epoch, stale epochs stay fenced,
replicas converge after heal — are also pinned here as unit tests on
hand-built clusters, and as Hypothesis properties over the seed space
(budget-scaled by the nightly soak profile).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.clock import ManualClock
from repro.fabric.cluster import FabricCluster
from repro.fabric.consumer import ConsumerConfig, FabricConsumer
from repro.fabric.errors import CorruptBatchError, FencedLeaderError
from repro.fabric.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    _record_hashes,
    main,
    run_chaos_scenario,
)
from repro.fabric.record import EventRecord, PackedRecordBatch
from repro.fabric.topic import TopicConfig


def _cluster(num_brokers=3, partitions=2, **config):
    clock = ManualClock()
    cluster = FabricCluster(num_brokers=num_brokers, name="chaos-test", clock=clock)
    cluster.admin().create_topic(
        "chaos",
        TopicConfig(
            num_partitions=partitions,
            replication_factor=min(3, num_brokers),
            min_insync_replicas=1,
            **config,
        ),
    )
    return cluster, clock


def _produce(cluster, partition, count, *, start=0):
    for i in range(start, start + count):
        cluster.append(
            "chaos", partition, EventRecord(value={"n": i}, key=f"k{i}"), acks=1
        )


READ_ROUTES = (
    "Broker.fetch",
    "FabricCluster.fetch",
    "FetchSession.fetch",
    "FetchSession.fetch_assignment",
    "FabricConsumer.poll",
)


def _reader(cluster, route):
    """A callable that reads both partitions of ``chaos`` through ``route``
    (one partition read each) and returns how many records it got."""
    partitions = [("chaos", 0), ("chaos", 1)]
    offsets = {tp: 0 for tp in partitions}
    session = cluster.fetch_session()
    session.set_assignment(partitions)
    if route == "FabricConsumer.poll":
        consumer = FabricConsumer(
            cluster, ["chaos"], ConsumerConfig(enable_auto_commit=False)
        )
        return lambda: len(consumer.poll_flat())
    if route == "FetchSession.fetch":
        return lambda: sum(map(len, session.fetch(offsets).values()))
    if route == "FetchSession.fetch_assignment":
        return lambda: sum(map(len, session.fetch_assignment(offsets).values()))
    if route == "FabricCluster.fetch":
        return lambda: sum(len(cluster.fetch(*tp, 0)) for tp in partitions)
    leader = lambda tp: cluster._brokers[cluster._replication.assignment(*tp).leader]
    return lambda: sum(len(leader(tp).fetch(*tp, 0)) for tp in partitions)


# --------------------------------------------------------------------- #
# Plan generation
# --------------------------------------------------------------------- #
class TestFaultPlan:
    def test_same_seed_same_plan(self):
        kwargs = dict(brokers=[0, 1, 2], topic="chaos", partitions=2)
        a = FaultPlan.generate(7, **kwargs)
        b = FaultPlan.generate(7, **kwargs)
        assert a == b
        assert a.digest() == b.digest()

    def test_different_seeds_differ(self):
        kwargs = dict(brokers=[0, 1, 2], topic="chaos", partitions=2)
        assert (
            FaultPlan.generate(1, **kwargs).digest()
            != FaultPlan.generate(2, **kwargs).digest()
        )

    def test_events_are_time_ordered_and_valid(self):
        plan = FaultPlan.generate(
            3, brokers=[0, 1, 2], topic="chaos", partitions=2, events=30
        )
        times = [event.at for event in plan.events]
        assert times == sorted(times)
        assert len(plan.events) == 30
        for event in plan.events:
            assert event.kind in FAULT_KINDS

    def test_describe_round_trips_through_json(self):
        plan = FaultPlan.generate(5, brokers=[0, 1], topic="chaos", partitions=1)
        assert json.loads(json.dumps(plan.describe())) == plan.describe()

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(at=1.0, kind="meteor_strike", broker_id=0)
        with pytest.raises(ValueError):
            FaultEvent(at=1.0, kind="link_drop", broker_id=0)  # no peer
        with pytest.raises(ValueError):
            FaultEvent(at=-1.0, kind="broker_crash", broker_id=0)


# --------------------------------------------------------------------- #
# Injector mechanics against a live cluster
# --------------------------------------------------------------------- #
class TestFaultInjector:
    def _injector(self, cluster, events):
        injector = FaultInjector(cluster, FaultPlan(seed=0, events=tuple(events)))
        injector.install()
        return injector

    def test_events_fire_only_when_due(self):
        cluster, clock = _cluster()
        injector = self._injector(
            cluster,
            [
                FaultEvent(at=1.0, kind="slow_disk", broker_id=0, delay_seconds=0.1),
                FaultEvent(at=5.0, kind="slow_disk_clear", broker_id=0),
            ],
        )
        assert injector.step() == []
        clock.advance(1.0)
        fired = injector.step()
        assert [e.kind for e, _ in fired] == ["slow_disk"]
        clock.advance(10.0)
        assert [e.kind for e, _ in injector.step()] == ["slow_disk_clear"]
        assert [outcome for _, outcome in injector.applied] == ["applied", "applied"]

    def test_link_drop_excludes_follower_from_isr(self):
        cluster, clock = _cluster()
        assignment = cluster._replication.assignment("chaos", 0)
        follower = next(b for b in assignment.replicas if b != assignment.leader)
        injector = self._injector(
            cluster,
            [
                FaultEvent(
                    at=0.5,
                    kind="link_drop",
                    broker_id=assignment.leader,
                    peer_id=follower,
                )
            ],
        )
        clock.advance(1.0)
        injector.step()
        _produce(cluster, 0, 4)
        assert follower not in assignment.isr
        follower_log = cluster._brokers[follower].replica("chaos", 0)
        leader_log = cluster._brokers[assignment.leader].replica("chaos", 0)
        assert follower_log.log_end_offset < leader_log.log_end_offset
        # Heal the link: the next pass catches the follower up.
        injector.heal()
        cluster._replication.replicate_from_leader("chaos", 0)
        assert follower in assignment.isr
        assert follower_log.log_end_offset == leader_log.log_end_offset

    def test_link_duplicate_is_absorbed_by_offset_dedup(self):
        cluster, clock = _cluster()
        assignment = cluster._replication.assignment("chaos", 0)
        follower = next(b for b in assignment.replicas if b != assignment.leader)
        injector = self._injector(
            cluster,
            [
                FaultEvent(
                    at=0.5,
                    kind="link_duplicate",
                    broker_id=assignment.leader,
                    peer_id=follower,
                )
            ],
        )
        clock.advance(1.0)
        injector.step()
        _produce(cluster, 0, 6)
        leader_log = cluster._brokers[assignment.leader].replica("chaos", 0)
        follower_log = cluster._brokers[follower].replica("chaos", 0)
        assert follower_log.log_end_offset == leader_log.log_end_offset
        values = [
            s.record.value["n"]
            for s in follower_log.fetch(0, max_records=100, max_bytes=None)
        ]
        assert values == list(range(6))  # no doubled records

    def test_chunk_corruption_fails_one_replication_then_heals(self):
        cluster, clock = _cluster()
        assignment = cluster._replication.assignment("chaos", 0)
        follower = next(b for b in assignment.replicas if b != assignment.leader)
        injector = self._injector(
            cluster,
            [FaultEvent(at=0.5, kind="chunk_corruption", broker_id=follower)],
        )
        clock.advance(1.0)
        injector.step()
        _produce(cluster, 0, 1)
        # The injected CRC failure dropped the follower from the ISR for
        # that round; the corruption budget is spent, so the next
        # replication pass re-syncs it.
        assert follower not in assignment.isr
        cluster._replication.replicate_from_leader("chaos", 0)
        assert follower in assignment.isr

    def test_corruption_hook_raises_at_replicate_ingress(self):
        cluster, clock = _cluster()
        assignment = cluster._replication.assignment("chaos", 0)
        follower_id = next(b for b in assignment.replicas if b != assignment.leader)
        injector = self._injector(
            cluster,
            [FaultEvent(at=0.5, kind="chunk_corruption", broker_id=follower_id)],
        )
        clock.advance(1.0)
        injector.step()
        packed = PackedRecordBatch.from_events(
            (EventRecord(value={"x": 1}),), append_time=clock.now()
        )
        with pytest.raises(CorruptBatchError):
            cluster._brokers[follower_id].replicate("chaos", 0, packed)

    @pytest.mark.parametrize("route", READ_ROUTES)
    def test_slow_disk_stalls_every_read_route_once_per_partition_read(self, route):
        """Every client route enters ``Broker.fetch_many``, so a stalled
        leader is felt by consumers, sessions and the gateway's reads — not
        only by a direct ``Broker.fetch`` — and ``uninstall()`` lifts it."""
        cluster, clock = _cluster()
        for partition in range(2):
            _produce(cluster, partition, 3)
        leaders = [
            cluster._replication.assignment("chaos", p).leader for p in range(2)
        ]
        injector = self._injector(
            cluster,
            [
                FaultEvent(
                    at=0.5, kind="slow_disk", broker_id=leaders[0], delay_seconds=0.25
                )
            ],
        )
        read = _reader(cluster, route)
        clock.advance(1.0)
        injector.step()
        before = clock.now()
        assert read() == 6
        stalled_reads = leaders.count(leaders[0])
        assert clock.now() == pytest.approx(before + 0.25 * stalled_reads)
        injector.uninstall()
        before = clock.now()
        read()
        assert clock.now() == before  # no stall: hook is gone

    def test_crash_is_skipped_for_last_online_broker(self):
        cluster, clock = _cluster(num_brokers=1, partitions=1)
        injector = self._injector(
            cluster, [FaultEvent(at=0.5, kind="broker_crash", broker_id=0)]
        )
        clock.advance(1.0)
        injector.step()
        assert injector.applied[0][1] == "skipped"
        assert cluster._brokers[0].online

    def test_crash_elects_new_fenced_leader(self):
        cluster, clock = _cluster()
        assignment = cluster._replication.assignment("chaos", 0)
        old_leader = assignment.leader
        _produce(cluster, 0, 4)
        injector = self._injector(
            cluster, [FaultEvent(at=0.5, kind="broker_crash", broker_id=old_leader)]
        )
        clock.advance(1.0)
        injector.step()
        assert assignment.leader != old_leader
        assert assignment.leader_epoch == 1
        # The deposed epoch is fenced on the new leader's log.
        packed = PackedRecordBatch.from_events(
            (EventRecord(value={"stale": True}),), append_time=clock.now()
        )
        with pytest.raises(FencedLeaderError):
            cluster._brokers[assignment.leader].append_packed(
                "chaos", 0, packed, leader_epoch=0
            )

    def test_append_listener_records_leader_epochs(self):
        cluster, clock = _cluster()
        injector = self._injector(cluster, [])
        _produce(cluster, 0, 3)
        partition_appends = [
            entry for entry in injector.appends if entry[1:3] == ("chaos", 0)
        ]
        assert partition_appends
        leaders = {entry[0] for entry in partition_appends}
        epochs = {entry[3] for entry in partition_appends}
        assert len(leaders) == 1 and epochs == {0}


# --------------------------------------------------------------------- #
# Fork truncation on epoch handoff
# --------------------------------------------------------------------- #
class TestForkTruncation:
    """A deposed leader's uncommitted suffix must not survive failover.

    End-offset catch-up alone lines the logs up while leaving a silent
    content fork in the middle; the fabric must rebuild the forked
    replica (it cannot split sealed chunks) when it rejoins past the new
    leader's epoch-start offset.
    """

    def test_restored_deposed_leader_discards_forked_suffix(self):
        cluster, clock = _cluster(partitions=1)
        replication = cluster._replication
        admin = cluster.admin()
        assignment = replication.assignment("chaos", 0)
        old_leader = assignment.leader

        _produce(cluster, 0, 3)  # committed on all three replicas

        # Partition the old leader from both followers, then keep
        # producing: these records land only on the old leader.
        replication.set_link_filter(lambda l, f, t, p: "drop")
        _produce(cluster, 0, 4, start=3)
        replication.set_link_filter(None)

        admin.fail_broker(old_leader)
        new_leader = replication.assignment("chaos", 0).leader
        assert new_leader != old_leader
        # The new leadership writes different history at those offsets.
        for i in range(5):
            cluster.append(
                "chaos", 0,
                EventRecord(value={"fork": i}, key=f"f{i}"), acks=1,
            )

        admin.restore_broker(old_leader)
        replication.replicate_from_leader("chaos", 0)

        hashes = _record_hashes(cluster, "chaos", 1)["0"]
        assert len(set(hashes.values())) == 1, hashes
        leader_log = cluster._brokers[new_leader].replica("chaos", 0)
        old_log = cluster._brokers[old_leader].replica("chaos", 0)
        assert old_log.log_end_offset == leader_log.log_end_offset

    def test_follower_ahead_of_new_leader_is_rebuilt_at_election(self):
        cluster, clock = _cluster(partitions=1)
        replication = cluster._replication
        admin = cluster.admin()
        assignment = replication.assignment("chaos", 0)
        leader = assignment.leader
        ahead, behind = [b for b in assignment.replicas if b != leader]

        _produce(cluster, 0, 2)  # shared committed prefix

        # One follower misses a round: it falls behind its peer.
        replication.set_link_filter(
            lambda l, f, t, p: "drop" if f == behind else "ok"
        )
        _produce(cluster, 0, 3, start=2)
        replication.set_link_filter(None)
        assert (
            cluster._brokers[ahead].replica("chaos", 0).log_end_offset
            > cluster._brokers[behind].replica("chaos", 0).log_end_offset
        )

        # Force the *behind* replica to win the election: with the whole
        # ISR offline the fallback picks the first online replica.
        admin.fail_broker(ahead)
        admin.fail_broker(leader)
        new_assignment = replication.assignment("chaos", 0)
        assert new_assignment.leader == behind
        new_leader_log = cluster._brokers[behind].replica("chaos", 0)

        # The ahead replica restores mid-epoch: its extra records were a
        # deposed leadership's suffix and must be discarded, not kept.
        admin.restore_broker(ahead)
        for i in range(4):
            cluster.append(
                "chaos", 0,
                EventRecord(value={"fork": i}, key=f"f{i}"), acks=1,
            )
        admin.restore_broker(leader)
        replication.replicate_from_leader("chaos", 0)

        hashes = _record_hashes(cluster, "chaos", 1)["0"]
        assert len(set(hashes.values())) == 1, hashes
        assert (
            cluster._brokers[ahead].replica("chaos", 0).log_end_offset
            == new_leader_log.log_end_offset
        )

    def test_lagging_follower_without_fork_keeps_its_prefix(self):
        """A follower merely *behind* (no fork) must catch up in place."""
        cluster, clock = _cluster(partitions=1)
        replication = cluster._replication
        admin = cluster.admin()
        assignment = replication.assignment("chaos", 0)
        leader = assignment.leader
        follower = next(b for b in assignment.replicas if b != leader)

        _produce(cluster, 0, 3)
        admin.fail_broker(follower)
        _produce(cluster, 0, 4, start=3)  # follower misses these
        admin.fail_broker(leader)  # election: follower offline, epoch bumps
        admin.restore_broker(leader)
        admin.restore_broker(follower)
        replication.replicate_from_leader("chaos", 0)

        hashes = _record_hashes(cluster, "chaos", 1)["0"]
        assert len(set(hashes.values())) == 1, hashes


# --------------------------------------------------------------------- #
# End-to-end scenario determinism (the CI chaos gate runs this twice)
# --------------------------------------------------------------------- #
class TestScenarioDeterminism:
    def test_same_seed_identical_report(self):
        a = run_chaos_scenario(11, ticks=20, events=10)
        b = run_chaos_scenario(11, ticks=20, events=10)
        assert a == b
        assert a["state_digest"] == b["state_digest"]

    def test_different_seeds_diverge(self):
        a = run_chaos_scenario(1, ticks=20, events=10)
        b = run_chaos_scenario(2, ticks=20, events=10)
        assert a["plan_digest"] != b["plan_digest"]
        assert a["state_digest"] != b["state_digest"]

    def test_report_is_json_serializable_and_clean(self):
        report = run_chaos_scenario(42, ticks=20, events=10)
        json.dumps(report)
        assert report["invariant_violations"] == []
        assert report["produced"] > 0

    def test_cli_exit_codes_and_json(self, capsys):
        assert main(["--seed", "5", "--ticks", "12", "--events", "6"]) == 0
        out = capsys.readouterr().out
        assert "seed=5" in out and "violations=0" in out
        assert (
            main(["--seed", "5", "--ticks", "12", "--events", "6", "--json"]) == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 5


# --------------------------------------------------------------------- #
# Chaos properties over the seed space (nightly soak scales the budget)
# --------------------------------------------------------------------- #
class TestChaosProperties:
    """Each property runs a full scenario and asserts one invariant class.

    ``run_chaos_scenario`` tags every violation with identifying text, so
    filtering the violation list per property keeps the failure message
    specific while sharing one scenario engine.  ``max_examples`` is left
    unpinned on purpose: the nightly soak profile (see tests/conftest.py)
    scales these to a much larger seed sweep.
    """

    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_no_committed_fetch_above_high_watermark(self, seed):
        report = run_chaos_scenario(seed, ticks=16, events=8)
        hw_violations = [
            v for v in report["invariant_violations"] if "high watermark" in v
        ]
        assert hw_violations == []

    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_single_accepting_leader_per_epoch_and_fencing(self, seed):
        report = run_chaos_scenario(seed, ticks=16, events=8)
        fencing_violations = [
            v
            for v in report["invariant_violations"]
            if "epoch" in v  # covers both two-leaders and stale-accept
        ]
        assert fencing_violations == []

    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_replicas_converge_after_heal(self, seed):
        report = run_chaos_scenario(seed, ticks=16, events=8)
        divergence = [
            v for v in report["invariant_violations"] if "diverged" in v
        ]
        assert divergence == []
        for per_replica in report["record_hashes"].values():
            assert len(set(per_replica.values())) <= 1
