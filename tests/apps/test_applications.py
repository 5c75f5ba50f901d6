"""Integration tests for the five Section VI applications."""

import pytest

from repro.apps.data_automation import DataAutomationPipeline
from repro.apps.epidemic import DataSource, EpidemicPlatform, clean_series, estimate_r
from repro.apps.scheduling import SchedulingApplication
from repro.apps.sdl import EXPERIMENT_STAGES, SelfDrivingLab
from repro.apps.workflow import (
    HTEXDatabaseMonitor,
    OctopusWorkflowMonitor,
    WorkflowEngine,
    run_monitoring_overhead_experiment,
)
from repro.common.clock import ManualClock
from repro.core import OctopusDeployment


@pytest.fixture
def deployment():
    return OctopusDeployment.create()


@pytest.fixture
def client(deployment):
    return deployment.client("app-owner", "anl.gov")


class TestSelfDrivingLab:
    def test_full_experiment_produces_all_stages(self, client):
        lab = SelfDrivingLab(client)
        lab.run_experiment("exp-1", "robot-arm-1", results={"yield": 0.82})
        provenance = lab.provenance("exp-1")
        assert [e["action"] for e in provenance] == list(EXPERIMENT_STAGES)
        assert provenance[-1]["metadata"]["results"] == {"yield": 0.82}

    def test_status_and_throughput_views(self, client):
        lab = SelfDrivingLab(client)
        lab.run_experiment("exp-1", "robot-arm-1")
        lab.record_action("exp-2", "xrd", "designed")
        lab.record_action("exp-2", "xrd", "queued")
        status = lab.experiment_status()
        assert status["exp-1"] == "completed"
        assert status["exp-2"] == "queued"
        assert lab.throughput_summary() == {"robot-arm-1": 1}

    def test_stalled_experiment_detection(self):
        clock = ManualClock(1000.0)
        deployment = OctopusDeployment.create(clock=clock)
        lab = SelfDrivingLab(deployment.client("app-owner", "anl.gov"))
        lab.record_action("stuck", "robot", "running_instrument")
        clock.advance(7200.0)
        lab.run_experiment("fine", "robot")
        stalled = lab.detect_stalled(timeout_seconds=3600.0)
        assert stalled == ["stuck"]

    def test_live_monitor_sees_only_new_events(self, client):
        lab = SelfDrivingLab(client)
        lab.record_action("old", "robot", "designed")
        monitor = lab.live_monitor()
        assert monitor.poll_flat() == []
        lab.record_action("new", "robot", "designed")
        values = [r.value["experiment_id"] for r in monitor.poll_flat()]
        assert values == ["new"]


class TestDataAutomation:
    def test_new_files_are_replicated_to_other_sites(self, deployment, client):
        pipeline = DataAutomationPipeline(deployment, client, sites=["fs1", "fs2"])
        pipeline.ingest_instrument_output("fs1", "/experiment-7", 5)
        summary = pipeline.synchronize()
        assert summary["files_copied"] == 5
        inventory = pipeline.file_inventory()
        assert inventory["fs1"] == 5 and inventory["fs2"] == 5

    def test_aggregation_reduces_event_volume(self, deployment, client):
        pipeline = DataAutomationPipeline(deployment, client)
        pipeline.ingest_instrument_output("fs1", "/run", 10)
        report = pipeline.reduction_report()["fs1"]
        # created + closed raw events per file, only unique created forwarded.
        assert report["raw_events"] == 20
        assert report["forwarded"] == 10
        assert report["reduction_factor"] == pytest.approx(2.0)

    def test_replication_does_not_echo_back(self, deployment, client):
        pipeline = DataAutomationPipeline(deployment, client, sites=["fs1", "fs2"])
        pipeline.ingest_instrument_output("fs1", "/d", 3)
        pipeline.synchronize()
        first_transfers = len(pipeline.replicated)
        pipeline.synchronize()
        assert len(pipeline.replicated) == first_transfers

    def test_three_sites_all_converge(self, deployment, client):
        pipeline = DataAutomationPipeline(deployment, client, sites=["fs1", "fs2", "fs3"])
        pipeline.ingest_instrument_output("fs2", "/d", 2)
        pipeline.synchronize()
        assert set(pipeline.file_inventory().values()) == {2}

    def test_failed_transfer_leaves_destination_unchanged(self, deployment, client):
        pipeline = DataAutomationPipeline(deployment, client, sites=["fs1", "fs2"])
        pipeline.transfer.inject_failure("/d/run_00000.h5")
        pipeline.ingest_instrument_output("fs1", "/d", 1)
        summary = pipeline.synchronize()
        assert summary["files_copied"] == 0
        statuses = {entry["status"] for entry in pipeline.replicated}
        assert "FAILED" in statuses


class TestScheduling:
    def test_tasks_are_placed_and_executed(self, client):
        app = SchedulingApplication(client)
        tasks = app.run_workload(20)
        assert len(tasks) == 20
        assert all(t.status == "COMPLETED" for t in tasks)
        assert sum(app.scheduler.placement_counts().values()) == 20

    def test_scheduler_uses_telemetry(self, client):
        app = SchedulingApplication(client)
        app.collect_telemetry()
        applied = app.scheduler.ingest_telemetry()
        assert applied >= len(app.monitors)
        assert set(app.scheduler.models) == set(app.monitors)

    def test_power_weight_changes_placement(self, client):
        perf_app = SchedulingApplication(client, topic="telemetry-perf", power_weight=0.0)
        perf_tasks = perf_app.run_workload(30)
        energy_app = SchedulingApplication(client, topic="telemetry-energy", power_weight=1.0)
        energy_tasks = energy_app.run_workload(30)
        perf_energy = sum(t.energy_joules for t in perf_tasks)
        green_energy = sum(t.energy_joules for t in energy_tasks)
        assert green_energy <= perf_energy * 1.5  # energy-aware placement not worse

    def test_invalid_power_weight(self, client):
        with pytest.raises(ValueError):
            SchedulingApplication(client, topic="t-bad", power_weight=2.0)


class TestEpidemic:
    @staticmethod
    def growing(poll):
        return [10 * (1.6 ** i) for i in range(poll + 6)]

    @staticmethod
    def flat(poll):
        return [50.0] * (poll + 6)

    def test_data_updates_drive_models_and_results(self, deployment, client):
        platform = EpidemicPlatform(deployment, client)
        platform.register_source(DataSource("health-dept", "illinois", self.flat))
        platform.poll_sources()
        summary = platform.run_pipeline()
        assert summary["model_results"] == 1
        assert platform.latest_r("illinois") == pytest.approx(1.0, abs=0.2)
        dashboard = platform.decision_dashboard()
        assert "illinois" in dashboard

    def test_growing_outbreak_triggers_notification(self, deployment, client):
        platform = EpidemicPlatform(deployment, client, anomaly_threshold_r=1.3)
        platform.register_source(DataSource("hospital-feed", "cook-county", self.growing))
        platform.register_source(DataSource("health-dept", "illinois", self.flat))
        platform.poll_sources()
        platform.run_pipeline()
        regions = {n["region"] for n in platform.notifications}
        assert regions == {"cook-county"}
        assert platform.latest_r("cook-county") > 1.3

    def test_model_results_persisted_to_store(self, deployment, client):
        platform = EpidemicPlatform(deployment, client)
        platform.register_source(DataSource("s", "region-x", self.flat))
        platform.poll_sources()
        platform.run_pipeline()
        assert platform.store.list("epidemic-models", prefix="region-x/")

    def test_clean_series_and_estimate_r(self):
        assert clean_series([1.0, -5.0, float("nan"), 3.0]) == [1.0, 1.0, 1.0, 3.0]
        assert estimate_r([10, 10, 10, 10, 10, 10, 10, 10]) == pytest.approx(1.0)
        assert estimate_r([1, 2, 4, 8, 16, 32, 64, 128]) > 1.5
        assert estimate_r([5.0]) == 1.0


class TestWorkflow:
    def test_engine_runs_all_tasks(self):
        result = WorkflowEngine(num_tasks=16, num_nodes=2, workers_per_node=2,
                                task_duration_seconds=0.01).run()
        assert result.events >= 16 * 3
        assert result.makespan_seconds >= result.ideal_seconds
        assert result.workers == 4

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            WorkflowEngine(num_tasks=0)

    def test_octopus_monitor_has_lower_overhead_than_htex(self):
        htex = WorkflowEngine(num_tasks=64, workers_per_node=4,
                              monitor=HTEXDatabaseMonitor()).run()
        octopus = WorkflowEngine(num_tasks=64, workers_per_node=4,
                                 monitor=OctopusWorkflowMonitor()).run()
        assert octopus.overhead_per_event_ms < htex.overhead_per_event_ms

    def test_overhead_per_event_decreases_with_workers(self):
        results = run_monitoring_overhead_experiment(
            worker_counts=(1, 8, 64), task_durations_seconds=(0.01,)
        )
        for system in ("HTEX", "Octopus"):
            series = results[system][0.01]
            overheads = [point["overhead_per_event_ms"] for point in series]
            assert overheads[0] > overheads[-1]

    def test_more_workers_more_events(self):
        results = run_monitoring_overhead_experiment(
            worker_counts=(1, 64), task_durations_seconds=(0.0,)
        )
        series = results["Octopus"][0.0]
        assert series[-1]["events"] > series[0]["events"]

    def test_octopus_monitor_batches_flushes(self):
        monitor = OctopusWorkflowMonitor(batch_size=10)
        WorkflowEngine(num_tasks=40, workers_per_node=2, monitor=monitor).run()
        assert monitor.flushes >= 40 * 3 // 10
