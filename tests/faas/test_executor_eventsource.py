"""Tests for the function registry, executor and event-source mappings."""

import pytest

from repro.fabric import FabricCluster, FabricProducer, TopicConfig
from repro.faas.eventsource import EventSourceConfig, EventSourceMapping
from repro.faas.executor import LambdaExecutor
from repro.faas.function import FunctionDefinition, FunctionRegistry
from repro.faas.logs import LogService


def make_executor(handler, name="fn", **kwargs):
    registry = FunctionRegistry()
    registry.register(FunctionDefinition(name=name, handler=handler, **kwargs))
    return LambdaExecutor(registry, LogService(), max_retries=1)


class TestFunctionRegistry:
    def test_register_and_get(self):
        registry = FunctionRegistry()
        registry.register(FunctionDefinition(name="f", handler=lambda e, c: e))
        assert "f" in registry
        assert registry.list() == ["f"]
        assert registry.get("f").name == "f"

    def test_unknown_function_raises(self):
        with pytest.raises(KeyError):
            FunctionRegistry().get("nope")

    def test_invalid_definitions_rejected(self):
        with pytest.raises(TypeError):
            FunctionRegistry().register(FunctionDefinition(name="f", handler="not callable"))
        with pytest.raises(ValueError):
            FunctionRegistry().register(
                FunctionDefinition(name="f", handler=lambda e, c: e, memory_mb=64)
            )
        with pytest.raises(ValueError):
            FunctionRegistry().register(
                FunctionDefinition(name="f", handler=lambda e, c: e, timeout_seconds=0)
            )

    def test_unregister_is_idempotent(self):
        registry = FunctionRegistry()
        registry.register(FunctionDefinition(name="f", handler=lambda e, c: e))
        registry.unregister("f")
        registry.unregister("f")
        assert registry.list() == []


class TestExecutor:
    def test_successful_invocation_returns_response(self):
        executor = make_executor(lambda event, ctx: {"echo": event["x"]})
        result = executor.invoke("fn", {"x": 41})
        assert result.success
        assert result.response == {"echo": 41}
        assert result.attempts == 1
        assert executor.stats.invocations == 1

    def test_context_carries_function_metadata(self):
        seen = {}

        def handler(event, context):
            seen["name"] = context.function_name
            seen["memory"] = context.memory_mb
            return None

        executor = make_executor(handler, memory_mb=256)
        executor.invoke("fn", {})
        assert seen == {"name": "fn", "memory": 256}

    def test_failing_handler_is_retried_then_reported(self):
        calls = {"n": 0}

        def handler(event, context):
            calls["n"] += 1
            raise RuntimeError("boom")

        executor = make_executor(handler)
        result = executor.invoke("fn", {})
        assert not result.success
        assert "boom" in result.error
        assert calls["n"] == 2  # initial + 1 retry
        assert executor.stats.retries == 1
        assert executor.stats.errors == 2

    def test_transient_failure_recovers_on_retry(self):
        calls = {"n": 0}

        def handler(event, context):
            calls["n"] += 1
            if calls["n"] == 1:
                raise TimeoutError("transient")
            return "ok"

        executor = make_executor(handler)
        result = executor.invoke("fn", {})
        assert result.success
        assert result.attempts == 2

    def test_logs_record_start_end_and_errors(self):
        executor = make_executor(lambda e, c: 1 / 0)
        executor.invoke("fn", {})
        group = executor.logs.group("/aws/lambda/fn")
        assert group.filter(level="ERROR")
        assert any("START" in e.message for e in group.events)
        metrics = executor.logs.metrics("fn")
        assert metrics["errors"] == 2
        assert metrics["invocations"] == 2

    def test_metrics_empty_function(self):
        executor = make_executor(lambda e, c: None)
        assert executor.logs.metrics("fn")["invocations"] == 0

    def test_simulated_duration_used_for_billing(self):
        executor = make_executor(lambda e, c: None, simulated_duration_seconds=30.0)
        result = executor.invoke("fn", {})
        assert result.duration_seconds == 30.0
        assert executor.logs.metrics("fn")["duration_p50_s"] == 30.0

    def test_failed_final_attempt_is_billed(self):
        """Regression: billed time of a permanently failing invocation was
        never added to ExecutorStats.total_billed_seconds."""
        def boom(event, ctx):
            raise RuntimeError("kaput")

        executor = make_executor(boom, simulated_duration_seconds=0.5)
        result = executor.invoke("fn", {})
        assert not result.success
        # max_retries=1 in make_executor → 2 attempts × 0.5 s each.
        assert result.billed_duration_seconds == pytest.approx(1.0)
        assert executor.stats.total_billed_seconds == pytest.approx(
            result.billed_duration_seconds
        )

    def test_billing_accumulates_across_mixed_outcomes(self):
        calls = {"n": 0}

        def flaky(event, ctx):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise RuntimeError("first invocation fails both attempts")
            return "ok"

        executor = make_executor(flaky, simulated_duration_seconds=0.25)
        first = executor.invoke("fn", {})   # fails twice: 0.5 s billed
        second = executor.invoke("fn", {})  # succeeds first try: 0.25 s billed
        assert not first.success and second.success
        assert executor.stats.total_billed_seconds == pytest.approx(0.75)

    def test_reserved_concurrency_throttles(self):
        registry = FunctionRegistry()
        registry.register(FunctionDefinition(name="fn", handler=lambda e, c: None))
        executor = LambdaExecutor(registry, reserved_concurrency=0)
        result = executor.invoke("fn", {})
        assert not result.success
        assert "Throttled" in result.error
        assert executor.stats.throttles == 1


@pytest.fixture
def cluster():
    cluster = FabricCluster(num_brokers=2)
    cluster.admin().create_topic("fs-events", TopicConfig(num_partitions=4))
    return cluster


class TestEventSourceMapping:
    def make_mapping(self, cluster, handler, config=None):
        registry = FunctionRegistry()
        registry.register(FunctionDefinition(name="action", handler=handler))
        executor = LambdaExecutor(registry)
        mapping = EventSourceMapping(cluster, "fs-events", "action", executor, config)
        return mapping, executor

    def test_poll_invokes_function_with_batch(self, cluster):
        received = []
        mapping, _ = self.make_mapping(
            cluster, lambda event, ctx: received.append(event)
        )
        producer = FabricProducer(cluster)
        for i in range(5):
            producer.send("fs-events", {"event_type": "created", "i": i})
        results = mapping.poll_once()
        assert len(results) == 1 and results[0].success
        assert len(received) == 1
        assert len(received[0]["records"]) == 5
        assert received[0]["records"][0]["topic"] == "fs-events"

    def test_filter_pattern_drops_non_matching_events(self, cluster):
        received = []
        config = EventSourceConfig(
            filter_pattern={"value": {"event_type": ["created"]}}
        )
        mapping, _ = self.make_mapping(
            cluster, lambda event, ctx: received.append(event), config
        )
        producer = FabricProducer(cluster)
        producer.send("fs-events", {"event_type": "created", "path": "/a"})
        producer.send("fs-events", {"event_type": "modified", "path": "/b"})
        producer.send("fs-events", {"event_type": "created", "path": "/c"})
        mapping.poll_once()
        paths = [r["value"]["path"] for r in received[0]["records"]]
        assert sorted(paths) == ["/a", "/c"]
        assert mapping.stats.records_filtered_out == 1

    def test_all_filtered_out_means_no_invocation(self, cluster):
        mapping, executor = self.make_mapping(
            cluster,
            lambda e, c: None,
            EventSourceConfig(filter_pattern={"value": {"event_type": ["created"]}}),
        )
        FabricProducer(cluster).send("fs-events", {"event_type": "modified"})
        assert mapping.poll_once() == []
        assert executor.stats.invocations == 0
        # Offsets still committed so pressure drains.
        assert mapping.pending_events() == 0

    def test_pending_events_reflects_lag(self, cluster):
        mapping, _ = self.make_mapping(cluster, lambda e, c: None)
        producer = FabricProducer(cluster)
        for i in range(7):
            producer.send("fs-events", {"i": i})
        assert mapping.pending_events() == 7
        mapping.poll_once()
        assert mapping.pending_events() == 0

    def test_drain_consumes_entire_backlog(self, cluster):
        seen = []
        mapping, _ = self.make_mapping(
            cluster,
            lambda event, ctx: seen.extend(event["records"]),
            EventSourceConfig(batch_size=10),
        )
        producer = FabricProducer(cluster)
        for i in range(55):
            producer.send("fs-events", {"i": i})
        mapping.drain()
        assert len(seen) == 55

    def test_drain_is_driven_by_consumer_lag_not_pending_events(self, cluster, monkeypatch):
        """The drain loop must use the cheap position-based lag() signal,
        never the full committed-offset pending_events() walk."""
        seen = []
        mapping, _ = self.make_mapping(
            cluster,
            lambda event, ctx: seen.extend(event["records"]),
            EventSourceConfig(batch_size=10),
        )
        producer = FabricProducer(cluster)
        for i in range(25):
            producer.send("fs-events", {"i": i})

        def boom():  # pragma: no cover - should never run
            raise AssertionError("drain called pending_events()")

        monkeypatch.setattr(mapping, "pending_events", boom)
        mapping.drain()
        assert len(seen) == 25
        assert mapping.lag() == 0

    def test_drain_on_disabled_mapping_returns_immediately(self, cluster):
        mapping, executor = self.make_mapping(cluster, lambda e, c: None)
        FabricProducer(cluster).send("fs-events", {"x": 1})
        mapping.disable()
        assert mapping.drain() == []
        assert executor.stats.invocations == 0

    def test_prefetching_mapping_drains_backlog_exactly_once(self, cluster):
        # One poller, every event exactly once (the fleet case is
        # test_scaled_fleet_drains_backlog_exactly_once).  The name dates
        # from the deleted consumer prefetch; kept so the id stays stable.
        seen = []
        mapping, _ = self.make_mapping(
            cluster,
            lambda event, ctx: seen.extend(event["records"]),
            EventSourceConfig(batch_size=10),
        )
        producer = FabricProducer(cluster)
        for i in range(40):
            producer.send("fs-events", {"i": i})
        mapping.drain()
        mapping.close()
        assert sorted(r["value"]["i"] for r in seen) == list(range(40))

    def test_disabled_mapping_does_not_poll(self, cluster):
        mapping, executor = self.make_mapping(cluster, lambda e, c: None)
        FabricProducer(cluster).send("fs-events", {"x": 1})
        mapping.disable()
        assert mapping.poll_once() == []
        assert executor.stats.invocations == 0
        mapping.enable()
        mapping.poll_once()
        assert executor.stats.invocations == 1

    def test_each_mapping_gets_its_own_consumer_group(self, cluster):
        m1, _ = self.make_mapping(cluster, lambda e, c: None)
        m2, _ = self.make_mapping(cluster, lambda e, c: None)
        assert m1.consumer_group != m2.consumer_group
        producer = FabricProducer(cluster)
        producer.send("fs-events", {"x": 1})
        # Both mappings see the same event independently.
        assert m1.poll_once() and m2.poll_once()

    def test_set_concurrency_clamps_and_counts_scale_events(self, cluster):
        mapping, _ = self.make_mapping(cluster, lambda e, c: None)
        assert mapping.concurrency == 1
        assert mapping.set_concurrency(3) == 3
        assert mapping.set_concurrency(99) == 4  # clamped to the partition count
        assert mapping.set_concurrency(0) == 1  # always one poller alive
        assert mapping.set_concurrency(1) == 1  # no-op, not a scale event
        assert mapping.stats.scale_events == 3

    def test_scaled_fleet_drains_backlog_exactly_once(self, cluster):
        seen = []
        mapping, _ = self.make_mapping(
            cluster,
            lambda event, ctx: seen.extend(event["records"]),
            EventSourceConfig(batch_size=10),
        )
        producer = FabricProducer(cluster)
        for i in range(40):
            producer.send("fs-events", {"i": i})
        mapping.set_concurrency(4)
        mapping.drain()
        assert sorted(r["value"]["i"] for r in seen) == list(range(40))
        assert mapping.lag() == 0

    def test_scale_event_rides_a_cooperative_rebalance(self, cluster):
        """Growing the fleet must not reshuffle the incumbent poller's
        whole assignment: it keeps a sticky subset and only the minimal
        delta moves to the new pollers."""
        mapping, _ = self.make_mapping(cluster, lambda e, c: None)
        incumbent = mapping._consumers[0]
        before = set(incumbent.assignment())
        assert len(before) == 4
        mapping.set_concurrency(2)
        mapping.poll_once()  # both pollers adopt; the rebalance settles
        mapping.poll_once()
        fleet_assignments = [set(c.assignment()) for c in mapping._consumers]
        assert fleet_assignments[0] <= before  # sticky: retained, not swapped
        assert incumbent.metrics.partitions_revoked == 2
        union = set().union(*fleet_assignments)
        assert union == set(cluster.partitions_for("fs-events"))
        assert sum(len(a) for a in fleet_assignments) == len(union)

    def test_latest_mapping_never_skips_events_across_a_scale_up(self, cluster):
        """Regression: 'latest' is pinned when a partition first enters the
        mapping's group.  Without the pin, scaling up moved never-polled
        partitions to new pollers that re-evaluated 'latest' at a later
        log end — silently skipping every event in between."""
        seen = []
        mapping, _ = self.make_mapping(
            cluster,
            lambda event, ctx: seen.extend(event["records"]),
            EventSourceConfig(starting_position="latest"),
        )
        # Events arriving after mapping creation but before any poll...
        producer = FabricProducer(cluster)
        for i in range(12):
            producer.send("fs-events", {"i": i})
        # ...must survive the partitions changing owners on a scale-up.
        mapping.set_concurrency(4)
        assert mapping.lag() == 12
        mapping.drain()
        assert sorted(r["value"]["i"] for r in seen) == list(range(12))

    def test_partition_growth_reaches_the_fleet_and_drains(self, cluster):
        """Regression: growing the topic after the mapping exists must
        trigger a rebalance onto the new partitions — lag() counted them
        but drain() could never assign them, busy-spinning max_polls."""
        seen = []
        mapping, _ = self.make_mapping(
            cluster, lambda event, ctx: seen.extend(event["records"])
        )
        mapping.poll_once()  # fleet settled on the original 4 partitions
        cluster.admin().set_partitions("fs-events", 6)
        producer = FabricProducer(cluster)
        producer.send("fs-events", {"i": 1}, partition=5)
        assert mapping.lag() == 1
        results = mapping.drain(max_polls=20)
        assert [r["value"]["i"] for r in seen] == [1]
        assert results and mapping.lag() == 0

    def test_scale_down_returns_partitions_to_survivors(self, cluster):
        seen = []
        mapping, _ = self.make_mapping(
            cluster, lambda event, ctx: seen.extend(event["records"])
        )
        mapping.set_concurrency(4)
        mapping.poll_once()
        mapping.set_concurrency(1)
        mapping.poll_once()
        survivor = mapping._consumers[0]
        assert set(survivor.assignment()) == set(
            cluster.partitions_for("fs-events")
        )
        producer = FabricProducer(cluster)
        for i in range(8):
            producer.send("fs-events", {"i": i})
        mapping.drain()
        assert sorted(r["value"]["i"] for r in seen) == list(range(8))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            EventSourceConfig(batch_size=0).validate()
        with pytest.raises(ValueError):
            EventSourceConfig(batch_size=20_000).validate()
        with pytest.raises(ValueError):
            EventSourceConfig(batch_window_seconds=-1).validate()
        with pytest.raises(ValueError):
            EventSourceConfig(starting_position="middle").validate()

    def test_describe_reports_stats(self, cluster):
        mapping, _ = self.make_mapping(cluster, lambda e, c: None)
        FabricProducer(cluster).send("fs-events", {"x": 1})
        mapping.poll_once()
        info = mapping.describe()
        assert info["topic"] == "fs-events"
        assert info["stats"]["records_read"] == 1

    def test_failed_invocation_counted(self, cluster):
        mapping, executor = self.make_mapping(cluster, lambda e, c: 1 / 0)
        FabricProducer(cluster).send("fs-events", {"x": 1})
        results = mapping.poll_once()
        assert not results[0].success
        assert mapping.stats.failed_invocations == 1
