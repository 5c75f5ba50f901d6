"""Tests for the monitoring substrates and simulated science services."""

import pytest

from repro.common.clock import ManualClock
from repro.monitoring.aggregator import LocalAggregator
from repro.monitoring.fsmon import FileSystemMonitor
from repro.monitoring.resources import EnergyMonitor, ResourceUtilizationMonitor
from repro.services.compute import ComputeService
from repro.services.storage import ObjectStore
from repro.services.transfer import TransferService


class TestFileSystemMonitor:
    def test_create_modify_delete_events(self):
        monitor = FileSystemMonitor("lustre")
        monitor.create_file("/data/a.h5", 100)
        monitor.modify_file("/data/a.h5", 200)
        monitor.delete_file("/data/a.h5")
        assert [e.event_type for e in monitor.events] == ["created", "modified", "deleted"]
        assert not monitor.exists("/data/a.h5")

    def test_create_existing_becomes_modify(self):
        monitor = FileSystemMonitor("fs")
        monitor.create_file("/x", 1)
        event = monitor.create_file("/x", 2)
        assert event.event_type == "modified"

    def test_modify_missing_becomes_create(self):
        monitor = FileSystemMonitor("fs")
        assert monitor.modify_file("/new", 5).event_type == "created"

    def test_sink_receives_events(self):
        seen = []
        monitor = FileSystemMonitor("fs", sink=seen.append)
        monitor.create_file("/a", 1)
        assert len(seen) == 1 and seen[0].path == "/a"

    def test_simulated_experiment_output(self):
        monitor = FileSystemMonitor("fs")
        events = monitor.simulate_experiment_output("/run42", 5)
        assert len(events) == 10  # created + closed per file
        assert monitor.event_counts() == {"created": 5, "closed": 5}
        assert len(monitor.files()) == 5

    def test_event_dict_matches_trigger_pattern(self):
        from repro.faas.patterns import matches_pattern

        monitor = FileSystemMonitor("fs")
        event = monitor.create_file("/data/new.h5", 10)
        assert matches_pattern({"event_type": ["created"]}, event.to_dict())


class TestLocalAggregator:
    def test_filters_uninteresting_and_duplicates(self):
        aggregator = LocalAggregator()
        events = [
            {"event_type": "created", "path": "/a"},
            {"event_type": "modified", "path": "/a"},
            {"event_type": "created", "path": "/a"},
            {"event_type": "created", "path": "/b"},
        ]
        assert aggregator.offer_many(events) == 2
        assert aggregator.stats.suppressed_uninteresting == 1
        assert aggregator.stats.suppressed_duplicates == 1
        assert aggregator.stats.reduction_factor == pytest.approx(2.0)

    def test_publish_callback_invoked_for_survivors(self):
        published = []
        aggregator = LocalAggregator(publish=published.append)
        aggregator.offer({"event_type": "created", "path": "/a"})
        aggregator.offer({"event_type": "deleted", "path": "/a"})
        assert published == [{"event_type": "created", "path": "/a"}]

    def test_window_eviction_keeps_memory_bounded(self):
        aggregator = LocalAggregator(window_size=10)
        for i in range(50):
            aggregator.offer({"event_type": "created", "path": f"/f{i}"})
        assert len(aggregator._seen) <= 10
        assert aggregator.stats.events_out == 50

    def test_custom_interesting_types(self):
        aggregator = LocalAggregator(interesting_types=("created", "deleted"))
        assert aggregator.offer({"event_type": "deleted", "path": "/x"})
        assert not aggregator.offer({"event_type": "closed", "path": "/x"})


class TestResourceMonitors:
    def test_energy_monitor_power_scales_with_utilisation(self):
        energy = EnergyMonitor(idle_watts=50, peak_watts=250)
        assert energy.power_at(0.0) == 50
        assert energy.power_at(1.0) == 250
        energy.accumulate(0.5, 10.0)
        assert energy.energy_joules == pytest.approx(1500.0)

    def test_energy_monitor_validation(self):
        with pytest.raises(ValueError):
            EnergyMonitor(idle_watts=100, peak_watts=50)

    def test_utilization_monitor_samples_follow_load(self):
        samples_published = []
        monitor = ResourceUtilizationMonitor(
            "hpc", num_cores=10, sink=samples_published.append
        )
        idle = monitor.sample()
        monitor.task_started(10)
        busy = monitor.sample()
        assert busy.cpu_percent > idle.cpu_percent
        assert busy.power_watts > idle.power_watts
        assert busy.running_tasks == 10
        monitor.task_finished(20)
        assert monitor.running_tasks == 0
        assert len(samples_published) == 2
        assert samples_published[0]["resource"] == "hpc"

    def test_sample_window(self):
        monitor = ResourceUtilizationMonitor("edge", num_cores=4)
        samples = monitor.sample_window(5)
        assert len(samples) == 5
        assert samples[-1].energy_joules > samples[0].energy_joules


class TestTransferService:
    def test_submit_auto_completes(self):
        service = TransferService()
        task = service.submit(source_endpoint="fs1", destination_endpoint="fs2",
                              source_path="/data/a.h5", size_bytes=100)
        assert task.status == "SUCCEEDED"
        assert service.status(task.task_id) == "SUCCEEDED"

    def test_manual_completion_and_listing(self):
        service = TransferService(auto_complete=False)
        service.submit(source_endpoint="a", destination_endpoint="b", source_path="/x")
        assert service.tasks(status="ACTIVE")
        finished = service.advance()
        assert len(finished) == 1
        assert not service.tasks(status="ACTIVE")

    def test_injected_failure(self):
        service = TransferService()
        service.inject_failure("/bad", "permission denied")
        task = service.submit(source_endpoint="a", destination_endpoint="b",
                              source_path="/bad")
        assert task.status == "FAILED"
        # Subsequent transfers of the same path succeed (failure consumed).
        assert service.submit(source_endpoint="a", destination_endpoint="b",
                              source_path="/bad").status == "SUCCEEDED"

    def test_completion_callback(self):
        seen = []
        service = TransferService(on_complete=seen.append)
        service.submit(source_endpoint="a", destination_endpoint="b", source_path="/x")
        assert len(seen) == 1

    def test_transfer_time_estimate(self):
        service = TransferService(bandwidth_mbps=8000)
        assert service.transfer_time_seconds(10**9) == pytest.approx(1.0)

    def test_times_come_from_the_injected_clock(self):
        clock = ManualClock(100.0)
        service = TransferService(auto_complete=False, clock=clock)
        task = service.submit(source_endpoint="a", destination_endpoint="b",
                              source_path="/x")
        clock.advance(5.0)
        service.advance()
        assert (task.submitted_at, task.completed_at) == (100.0, 105.0)


class TestComputeService:
    def test_submit_and_drain(self):
        compute = ComputeService()
        compute.register_endpoint("hpc", cores=2)
        compute.register_function("double", lambda x: x * 2)
        tasks = [compute.submit("hpc", "double", i) for i in range(5)]
        compute.drain()
        assert all(t.status == "COMPLETED" for t in tasks)
        assert [t.result for t in tasks] == [0, 2, 4, 6, 8]

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(KeyError):
            ComputeService().submit("ghost", "f")

    def test_failed_handler_marks_task_failed(self):
        compute = ComputeService()
        compute.register_endpoint("e")
        compute.register_function("boom", lambda x: 1 / 0)
        task = compute.submit("e", "boom")
        compute.drain()
        assert task.status == "FAILED"
        assert "ZeroDivisionError" in task.result

    def test_relative_speed_changes_runtime_and_energy(self):
        compute = ComputeService()
        compute.register_endpoint("slow", relative_speed=0.5, power_watts_per_core=2.0)
        compute.register_endpoint("fast", relative_speed=2.0, power_watts_per_core=6.0)
        slow = compute.submit("slow", "f", estimated_seconds=10.0)
        fast = compute.submit("fast", "f", estimated_seconds=10.0)
        compute.drain()
        assert slow.runtime_seconds > fast.runtime_seconds
        assert slow.energy_joules != fast.energy_joules

    def test_completion_callback(self):
        seen = []
        compute = ComputeService(on_task_complete=seen.append)
        compute.register_endpoint("e")
        compute.submit("e", "f")
        compute.drain()
        assert len(seen) == 1

    def test_submitted_at_comes_from_the_injected_clock(self):
        clock = ManualClock(100.0)
        compute = ComputeService(clock=clock)
        compute.register_endpoint("e")
        first = compute.submit("e", "f")
        clock.advance(2.5)
        second = compute.submit("e", "f")
        assert (first.submitted_at, second.submitted_at) == (100.0, 102.5)


class TestObjectStore:
    def test_put_get_json_and_versions(self):
        store = ObjectStore()
        store.put("bucket", "key", {"a": 1})
        store.put("bucket", "key", {"a": 2})
        assert store.get_json("bucket", "key") == {"a": 2}
        assert store.versions("bucket", "key") == 2

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            ObjectStore().get("b", "k")

    def test_stored_at_comes_from_the_injected_clock(self):
        clock = ManualClock(100.0)
        store = ObjectStore(clock=clock)
        store.put("b", "k", "v1")
        clock.advance(7.0)
        store.put("b", "k", "v2")
        assert store.get("b", "k").stored_at == 107.0

    def test_list_with_prefix_and_delete(self):
        store = ObjectStore()
        store.put("b", "runs/1.json", "x")
        store.put("b", "runs/2.json", "y")
        store.put("b", "other.txt", "z")
        assert store.list("b", prefix="runs/") == ["runs/1.json", "runs/2.json"]
        assert store.delete("b", "other.txt")
        assert not store.delete("b", "other.txt")

    def test_persistence_sink_stores_fabric_events(self):
        from repro.fabric import FabricCluster, TopicConfig
        from repro.fabric.record import EventRecord

        store = ObjectStore()
        cluster = FabricCluster(num_brokers=1)
        cluster.admin().add_persistence_sink(store.persistence_sink("events"))
        cluster.admin().create_topic("t", TopicConfig(persist_to_store=True))
        cluster.append("t", 0, EventRecord(value={"x": 1}))
        keys = store.list("events")
        assert len(keys) == 1
        assert store.get_json("events", keys[0])["value"] == {"x": 1}
        assert store.total_bytes("events") > 0
