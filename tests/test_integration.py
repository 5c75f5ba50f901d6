"""Cross-subsystem integration tests: SDK → OWS → fabric → triggers → services,
plus failure-injection scenarios spanning several components."""

import pytest

from repro.auth.oauth import InvalidTokenError
from repro.common.clock import ManualClock
from repro.core import OctopusDeployment
from repro.faas.function import FunctionDefinition
from repro.fabric.consumer import ConsumerConfig
from repro.fabric.errors import AuthorizationError
from repro.fabric.mirrormaker import MirrorMaker
from repro.fabric.cluster import FabricCluster
from repro.services.storage import ObjectStore
from repro.services.transfer import TransferService


@pytest.fixture
def deployment():
    return OctopusDeployment.create()


class TestEndToEndEventFlow:
    def test_chained_triggers_transfer_then_analyze_then_notify(self, deployment):
        """The three-rule chain from the paper's introduction: data acquisition
        triggers a transfer, transfer completion triggers analysis, analysis
        completion triggers a notification."""
        user = deployment.client("pi", "uchicago.edu")
        for topic in ("acquisition", "transfers", "analyses"):
            user.register_topic(topic)
        transfer_service = TransferService()
        notifications = []
        producer = user.producer()

        def transfer_handler(event, ctx):
            for record in event["records"]:
                task = transfer_service.submit(
                    source_endpoint="instrument",
                    destination_endpoint="hpc",
                    source_path=record["value"]["path"],
                )
                producer.send("transfers", {"status": task.status,
                                            "path": record["value"]["path"]})
            return len(event["records"])

        def analysis_handler(event, ctx):
            for record in event["records"]:
                producer.send("analyses", {"result": "peaks-found",
                                           "path": record["value"]["path"]})
            return len(event["records"])

        def notify_handler(event, ctx):
            notifications.extend(r["value"]["path"] for r in event["records"])

        triggers = deployment.triggers
        triggers.register_function(FunctionDefinition(name="start-transfer",
                                                      handler=transfer_handler))
        triggers.register_function(FunctionDefinition(name="run-analysis",
                                                      handler=analysis_handler))
        triggers.register_function(FunctionDefinition(name="email-pi",
                                                      handler=notify_handler))
        user.create_trigger("acquisition", "start-transfer")
        user.create_trigger("transfers", "run-analysis",
                            filter_pattern={"value": {"status": ["SUCCEEDED"]}})
        user.create_trigger("analyses", "email-pi")

        for index in range(3):
            producer.send("acquisition", {"path": f"/raw/scan_{index}.h5"})
        # Each pass drains every trigger; three passes propagate the chain.
        for _ in range(3):
            deployment.run_triggers()
        assert sorted(notifications) == [f"/raw/scan_{i}.h5" for i in range(3)]
        assert len(transfer_service.tasks(status="SUCCEEDED")) == 3

    def test_persistence_sink_archives_topic_events(self, deployment):
        store = ObjectStore()
        deployment.cluster.admin().add_persistence_sink(store.persistence_sink("archive"))
        user = deployment.client("archivist", "anl.gov")
        user.register_topic("persisted", {"persist_to_store": True})
        producer = user.producer()
        for index in range(4):
            producer.send("persisted", {"index": index})
        assert len(store.list("archive", prefix="persisted/")) == 4

    def test_cross_region_mirroring_of_an_octopus_topic(self, deployment):
        user = deployment.client("ops", "anl.gov")
        user.register_topic("telemetry", {"num_partitions": 2})
        producer = user.producer()
        for index in range(10):
            producer.send("telemetry", {"index": index})
        west = FabricCluster(num_brokers=2, name="us-west-2")
        mirror = MirrorMaker(deployment.cluster, west, topic_prefix="east.",
                             source_principal="ops@anl.gov")
        stats = mirror.sync_topic("telemetry")
        assert stats.records_mirrored == 10
        assert sum(west.end_offsets("east.telemetry").values()) == 10


class TestFailureInjection:
    def test_broker_failure_is_transparent_to_sdk_clients(self, deployment):
        user = deployment.client("resilient", "anl.gov")
        user.register_topic("durable", {"num_partitions": 2, "replication_factor": 2})
        producer = user.producer()
        for index in range(10):
            producer.send("durable", {"index": index})
        deployment.cluster.admin().fail_broker(0)
        for index in range(10, 20):
            producer.send("durable", {"index": index})
        values = [v["index"] for v in user.read_all("durable")]
        assert sorted(values) == list(range(20))

    def test_consumer_crash_redelivers_uncommitted_events(self, deployment):
        user = deployment.client("worker", "anl.gov")
        user.register_topic("tasks")
        producer = user.producer()
        for index in range(6):
            producer.send("tasks", {"index": index})
        config = ConsumerConfig(group_id="workers", enable_auto_commit=False)
        first = user.consumer(["tasks"], config)
        assert len(first.poll_flat()) == 6
        # Crash before commit: kick the dead member so the group rebalances.
        deployment.cluster.groups.leave(
            "workers", first.member_id, deployment.cluster.partitions_for("tasks")
        )
        second = user.consumer(["tasks"], ConsumerConfig(group_id="workers",
                                                         enable_auto_commit=False))
        assert len(second.poll_flat()) == 6  # at-least-once redelivery

    def test_trigger_action_failure_is_retried_and_logged(self, deployment):
        user = deployment.client("fragile", "anl.gov")
        user.register_topic("flaky")
        attempts = {"n": 0}

        def flaky_handler(event, ctx):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise ConnectionError("transfer service unavailable")
            return "ok"

        deployment.triggers.register_function(
            FunctionDefinition(name="flaky-action", handler=flaky_handler)
        )
        user.create_trigger("flaky", "flaky-action")
        user.producer().send("flaky", {"x": 1})
        results = deployment.run_triggers()
        assert sum(results.values()) == 1
        assert attempts["n"] == 2  # failed once, retried successfully
        assert deployment.logs.metrics("flaky-action")["errors"] == 1

    def test_revoked_user_loses_data_plane_access(self, deployment):
        owner = deployment.client("owner", "anl.gov")
        guest = deployment.client("guest", "uchicago.edu")
        owner.register_topic("shared")
        owner.grant_user("shared", "guest@uchicago.edu", ["READ", "DESCRIBE"])
        owner.publish("shared", {"x": 1})
        assert guest.read_all("shared") == [{"x": 1}]
        owner.revoke_user("shared", "guest@uchicago.edu")
        with pytest.raises(AuthorizationError):
            guest.read_all("shared", group_id="second-attempt")

    def test_zookeeper_remains_source_of_truth_after_broker_failure(self, deployment):
        user = deployment.client("owner", "anl.gov")
        user.register_topic("metadata-check")
        deployment.cluster.admin().fail_broker(1)
        assert deployment.metadata.topic_owner("metadata-check") == "owner@anl.gov"
        assert "metadata-check" in user.list_topics()


class TestOneClock:
    """A deployment built on one ``ManualClock`` stamps everything with it."""

    @staticmethod
    def run_steps():
        """Login, create a key, register a topic and a trigger, produce 50
        events, run the triggers; return the clock, the deployment, the
        user client and every timestamp the stack recorded."""
        clock = ManualClock(1_000.0)
        deployment = OctopusDeployment.create(clock=clock)
        invoked_at = []
        user = deployment.client("pi", "uchicago.edu")
        clock.advance(1.0)
        user.create_key()
        user.register_topic("readings", {"num_partitions": 2})
        deployment.triggers.register_function(FunctionDefinition(
            name="record-invocation",
            handler=lambda event, context: invoked_at.append(context.invoked_at),
        ))
        user.create_trigger("readings", "record-invocation", batch_size=10)
        producer = user.producer()
        for index in range(50):
            clock.advance(0.25)
            producer.send("readings", {"index": index}, key=str(index))
        clock.advance(1.0)
        deployment.run_triggers()

        token = deployment.auth.introspect(user.login_manager.get_token())
        lifetime = deployment.auth.default_token_lifetime
        stamps = {
            "token": [token["iat"], token["exp"] - lifetime],
            "iam": [
                key.created_at
                for principal in deployment.iam.list_identities()
                for key in deployment.iam.keys_for(principal)
            ],
            "znode": [],
            "append": [],
            "record": [],
            "log": [
                event.timestamp
                for name in deployment.logs.groups()
                for event in deployment.logs.group(name).events
            ],
            "invoked": invoked_at,
        }
        zookeeper = deployment.zookeeper
        pending = ["/"]
        while pending:
            path = pending.pop()
            stat = zookeeper.stat(path)
            stamps["znode"] += [stat.created_at, stat.modified_at]
            prefix = path.rstrip("/")
            pending += [f"{prefix}/{child}" for child in zookeeper.children(path)]
        for partition in range(2):
            for record in deployment.cluster.fetch(
                "readings", partition, 0, principal=user.principal
            ):
                stamps["append"].append(record.append_time)
                stamps["record"].append(record.timestamp)
        return clock, deployment, user, stamps

    def test_every_recorded_time_comes_from_the_deployment_clock(self):
        clock, deployment, user, stamps = self.run_steps()
        assert len(stamps["append"]) == len(stamps["record"]) == 50
        assert stamps["iam"] and stamps["log"] and stamps["invoked"]
        assert len(stamps["znode"]) > 2
        for kind, values in stamps.items():
            for value in values:
                assert 1_000.0 <= value <= clock.now(), (kind, value)

        # (b) Expiry follows the same clock: the old token is refused and
        # the login manager refreshes it.
        old = user.login_manager.get_token()
        clock.advance(deployment.auth.default_token_lifetime + 1)
        with pytest.raises(InvalidTokenError):
            deployment.auth.validate(old)
        status, _ = deployment.service.handle("GET", "/topics", token=old)
        assert status == 401
        fresh = user.login_manager.get_token()
        assert fresh != old
        assert deployment.auth.validate(fresh).principal == "pi@uchicago.edu"
        assert "readings" in user.list_topics()

    def test_two_runs_record_the_same_times(self):
        first = self.run_steps()[3]
        second = self.run_steps()[3]
        assert first == second
