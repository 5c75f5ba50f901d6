"""Regression tests for trigger updates and autoscaler accounting."""

import pytest

from repro.auth.iam import IamService
from repro.coordination.metadata import ClusterMetadataRegistry
from repro.coordination.zookeeper import ZooKeeperEnsemble
from repro.core.errors import ValidationError
from repro.core.triggers import TriggerManager, TriggerSpec
from repro.faas.function import FunctionDefinition
from repro.faas.patterns import EventPattern, PatternError
from repro.fabric import FabricCluster, FabricProducer, TopicConfig


@pytest.fixture
def manager():
    cluster = FabricCluster(num_brokers=1)
    cluster.admin().create_topic("t", TopicConfig(num_partitions=2, replication_factor=1))
    manager = TriggerManager(
        cluster, ClusterMetadataRegistry(ZooKeeperEnsemble()), IamService()
    )
    manager.register_function(
        FunctionDefinition(name="fn", handler=lambda event, ctx: len(event["records"]))
    )
    return manager


class TestUpdateTrigger:
    def test_invalid_update_leaves_spec_untouched(self, manager):
        """Regression: the spec used to be mutated field-by-field *before*
        validation, so a rejected update corrupted the deployed trigger."""
        trigger = manager.create_trigger(
            "alice", TriggerSpec(topic="t", function_name="fn", batch_size=50)
        )
        with pytest.raises(ValidationError):
            manager.update_trigger(
                "alice", trigger.trigger_id,
                {"batch_size": 0, "batch_window_seconds": 9.0},
            )
        assert trigger.spec.batch_size == 50
        assert trigger.spec.batch_window_seconds == 0.0
        assert trigger.mapping.config.batch_size == 50

    def test_valid_update_applies_atomically(self, manager):
        trigger = manager.create_trigger(
            "alice", TriggerSpec(topic="t", function_name="fn")
        )
        described = manager.update_trigger(
            "alice", trigger.trigger_id, {"batch_size": 7, "enabled": False}
        )
        assert described["batch_size"] == 7
        assert trigger.spec.batch_size == 7
        assert trigger.mapping.config.batch_size == 7
        assert not trigger.mapping.enabled


#: Filters whose malformed part hid behind a missing value or a
#: short-circuiting alternative, so they once passed registration.
MALFORMED_FILTERS = {
    "unknown-numeric-operator": {"value": {"n": [{"numeric": ["~", 5]}]}},
    "unknown-filter-behind-exists": {"a": [{"exists": False}, {"regex": ".*"}]},
    "odd-numeric-operands": {"n": [{"numeric": [">", 0, "<"]}]},
}


@pytest.mark.parametrize("pattern", MALFORMED_FILTERS.values(), ids=MALFORMED_FILTERS)
class TestMalformedFilterRefused:
    def test_pattern_raises(self, pattern):
        with pytest.raises(PatternError):
            EventPattern(pattern)

    def test_spec_validation_raises(self, pattern):
        spec = TriggerSpec(topic="t", function_name="fn", filter_pattern=pattern)
        with pytest.raises(ValidationError):
            spec.validate()

    def test_update_raises_and_keeps_the_old_filter(self, manager, pattern):
        trigger = manager.create_trigger("alice", TriggerSpec(topic="t", function_name="fn"))
        with pytest.raises(ValidationError):
            manager.update_trigger("alice", trigger.trigger_id, {"filter_pattern": pattern})
        assert trigger.spec.filter_pattern is None
        assert trigger.mapping.pattern.pattern is None


class TestScalingAccountsInFlight:
    def test_evaluate_scaling_reads_per_function_in_flight(self, manager):
        """Regression: evaluate_scaling hardcoded in_flight=0; it must read
        the in-flight count of *this trigger's* function, not the whole
        executor, so a busy neighbour cannot pin an idle trigger's scale."""
        manager.register_function(
            FunctionDefinition(name="other", handler=lambda event, ctx: None)
        )
        trigger = manager.create_trigger(
            "alice", TriggerSpec(topic="t", function_name="fn")
        )
        observed = {}

        class RecordingScaler:
            def next_concurrency(self, backlog, in_flight, current):
                observed["in_flight"] = in_flight
                return current

        trigger.scaler = RecordingScaler()
        with manager.executor._lock:
            # Simulate concurrent invocations: 3 of this trigger's function,
            # 5 of an unrelated one.
            manager.executor._in_flight_by_function = {"fn": 3, "other": 5}
        try:
            manager.evaluate_scaling()
        finally:
            with manager.executor._lock:
                manager.executor._in_flight_by_function = {}
        assert observed["in_flight"] == 3

    def test_scaling_decisions_are_applied_to_the_poller_fleet(self, manager):
        trigger = manager.create_trigger(
            "alice", TriggerSpec(topic="t", function_name="fn")
        )
        FabricProducer(manager.cluster).send_batch("t", list(range(50)))
        decisions = manager.evaluate_scaling()
        assert trigger.mapping.concurrency == max(
            1, min(decisions[trigger.trigger_id], 2)
        )
        assert trigger.mapping.concurrency == 2  # backlog over 2 partitions

    def test_disabled_mapping_is_not_scaled(self, manager):
        """Regression: spawning pollers for a disabled mapping wedges the
        cooperative rebalance — the new members never poll, so they can
        never acknowledge their join."""
        trigger = manager.create_trigger(
            "alice", TriggerSpec(topic="t", function_name="fn", enabled=False)
        )
        FabricProducer(manager.cluster).send_batch("t", list(range(50)))
        decisions = manager.evaluate_scaling()
        assert decisions[trigger.trigger_id] == trigger.concurrency
        assert trigger.mapping.concurrency == 1
        # Re-enabling resumes scaling on the next tick.
        manager.update_trigger("alice", trigger.trigger_id, {"enabled": True})
        manager.evaluate_scaling()
        assert trigger.mapping.concurrency == 2

    def test_trigger_drains_produced_events(self, manager):
        producer = FabricProducer(manager.cluster)
        trigger = manager.create_trigger(
            "alice", TriggerSpec(topic="t", function_name="fn", batch_size=500)
        )
        producer.send_batch("t", list(range(40)))
        invocations = manager.process_pending(trigger.trigger_id)
        assert invocations[trigger.trigger_id] >= 1
        assert trigger.mapping.stats.records_read == 40
        assert trigger.mapping.pending_events() == 0
