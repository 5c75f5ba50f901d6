"""Tests for the SDK: login manager, token store and the high-level client."""

import time

import pytest

from repro.core import OctopusDeployment
from repro.core.errors import NotAuthorizedError, NotFoundError
from repro.core.login import LoginManager
from repro.core.tokenstore import TokenStore
from repro.faas.function import FunctionDefinition
from repro.fabric.consumer import ConsumerConfig
from repro.fabric.errors import AuthorizationError


@pytest.fixture
def deployment():
    return OctopusDeployment.create()


class TestTokenStore:
    def test_store_and_fetch_token(self):
        store = TokenStore()
        store.store_token("alice", "octopus", "tok", refresh_token="ref",
                          expires_at=time.time() + 100, scopes=["octopus:all"])
        entry = store.get_token("alice", "octopus")
        assert entry["access_token"] == "tok"
        assert entry["refresh_token"] == "ref"
        assert entry["scopes"] == ["octopus:all"]

    def test_missing_token_returns_none(self):
        assert TokenStore().get_token("nobody", "octopus") is None

    def test_token_freshness(self):
        store = TokenStore()
        store.store_token("a", "octopus", "t", expires_at=1000.0 + 1000)
        assert store.token_is_fresh("a", "octopus", now=1000.0)
        store.store_token("a", "octopus", "t", expires_at=1000.0 + 10)
        assert not store.token_is_fresh("a", "octopus", now=1000.0, margin_seconds=60)
        assert not store.token_is_fresh("ghost", "octopus", now=1000.0)

    def test_replace_and_delete_token(self):
        store = TokenStore()
        store.store_token("a", "octopus", "t1", expires_at=1.0)
        store.store_token("a", "octopus", "t2", expires_at=2.0)
        assert store.get_token("a", "octopus")["access_token"] == "t2"
        store.delete_token("a", "octopus")
        assert store.get_token("a", "octopus") is None

    def test_credentials_round_trip(self):
        store = TokenStore()
        store.store_credentials(
            "alice", {"access_key": "AK", "secret_key": "SK"}, created_at=1000.0
        )
        assert store.get_credentials("alice")["access_key"] == "AK"
        store.delete_credentials("alice")
        assert store.get_credentials("alice") is None

    def test_principals_listing(self):
        store = TokenStore()
        store.store_token("b", "octopus", "t", expires_at=1.0)
        store.store_token("a", "octopus", "t", expires_at=1.0)
        assert store.principals() == ["a", "b"]

    def test_on_disk_store_persists(self, tmp_path):
        path = str(tmp_path / "storage.db")
        store = TokenStore(path)
        store.store_token("a", "octopus", "tok", expires_at=time.time() + 50)
        store.close()
        reopened = TokenStore(path)
        assert reopened.get_token("a", "octopus")["access_token"] == "tok"


class TestLoginManager:
    def test_login_caches_token(self, deployment):
        manager = LoginManager(deployment.auth)
        token = manager.login("alice", "uchicago.edu")
        assert manager.principal == "alice@uchicago.edu"
        assert manager.get_token() == token
        # A second login reuses the cached token rather than re-authenticating.
        assert manager.login("alice", "uchicago.edu") == token

    def test_expired_token_is_refreshed(self, deployment):
        manager = LoginManager(deployment.auth, refresh_margin_seconds=0.0)
        token = manager.login("alice", "uchicago.edu")
        # Force the cached entry to look expired.
        cached = manager.store.get_token("alice@uchicago.edu", "octopus")
        manager.store.store_token(
            "alice@uchicago.edu", "octopus", cached["access_token"],
            refresh_token=cached["refresh_token"], expires_at=time.time() - 10,
        )
        refreshed = manager.get_token()
        assert refreshed != token
        assert deployment.auth.validate(refreshed).principal == "alice@uchicago.edu"

    def test_get_token_requires_login(self, deployment):
        with pytest.raises(RuntimeError):
            LoginManager(deployment.auth).get_token()

    def test_logout_revokes_and_clears(self, deployment):
        manager = LoginManager(deployment.auth)
        token = manager.login("alice", "uchicago.edu")
        manager.logout()
        assert manager.store.get_token("alice@uchicago.edu", "octopus") is None
        from repro.auth.oauth import InvalidTokenError
        with pytest.raises(InvalidTokenError):
            deployment.auth.validate(token)


class TestOctopusClient:
    def test_end_to_end_topic_lifecycle(self, deployment):
        alice = deployment.client("alice", "uchicago.edu")
        assert alice.list_topics() == []
        info = alice.register_topic("instrument-data", {"num_partitions": 2})
        assert info["owner"] == "alice@uchicago.edu"
        assert alice.list_topics() == ["instrument-data"]
        alice.configure_topic("instrument-data", retention_seconds=60.0)
        alice.set_partitions("instrument-data", 4)
        assert alice.get_topic("instrument-data")["config"]["num_partitions"] == 4
        alice.release_topic("instrument-data")
        assert alice.list_topics() == []

    def test_publish_and_read_all(self, deployment):
        alice = deployment.client("alice")
        alice.register_topic("t")
        for i in range(5):
            alice.publish("t", {"i": i})
        assert [v["i"] for v in alice.read_all("t")] == [0, 1, 2, 3, 4]

    def test_create_key_is_cached(self, deployment):
        alice = deployment.client("alice")
        first = alice.create_key()
        second = alice.create_key()
        assert first == second
        third = alice.create_key(refresh=True)
        assert third["access_key"] != first["access_key"]

    def test_producer_consumer_respect_acls(self, deployment):
        alice = deployment.client("alice")
        bob = deployment.client("bob", "anl.gov")
        alice.register_topic("private")
        alice.publish("private", {"secret": 1})
        bob_producer = bob.producer()
        with pytest.raises(AuthorizationError):
            bob_producer.send("private", {"intrusion": True})
        alice.grant_user("private", "bob@anl.gov", ["READ", "DESCRIBE"])
        values = bob.read_all("private")
        assert values == [{"secret": 1}]
        # READ does not imply WRITE.
        with pytest.raises(AuthorizationError):
            bob_producer.send("private", {"intrusion": True})

    def test_shared_consumer_group_across_clients(self, deployment):
        alice = deployment.client("alice")
        alice.register_topic("stream", {"num_partitions": 2})
        producer = alice.producer()
        for i in range(10):
            producer.send("stream", i)
        c1 = alice.consumer(["stream"], ConsumerConfig(group_id="g", enable_auto_commit=False))
        values = [r.value for r in c1.poll_flat(max_records=100)]
        assert sorted(values) == list(range(10))

    def test_trigger_lifecycle_via_sdk(self, deployment):
        alice = deployment.client("alice")
        alice.register_topic("events")
        processed = []
        deployment.triggers.register_function(
            FunctionDefinition(
                name="collect", handler=lambda e, c: processed.extend(e["records"])
            )
        )
        trigger = alice.create_trigger(
            "events", "collect",
            filter_pattern={"value": {"event_type": ["created"]}},
            batch_size=50,
        )
        assert trigger["topic"] == "events"
        alice.publish("events", {"event_type": "created", "n": 1})
        alice.publish("events", {"event_type": "deleted", "n": 2})
        deployment.run_triggers()
        assert len(processed) == 1 and processed[0]["value"]["n"] == 1
        listed = alice.list_triggers()
        assert len(listed) == 1
        alice.update_trigger(trigger["trigger_id"], enabled=False)
        alice.publish("events", {"event_type": "created", "n": 3})
        deployment.run_triggers()
        assert len(processed) == 1  # disabled trigger did not fire
        alice.delete_trigger(trigger["trigger_id"])
        assert alice.list_triggers() == []

    def test_errors_are_mapped_to_sdk_exceptions(self, deployment):
        alice = deployment.client("alice")
        with pytest.raises(NotFoundError):
            alice.get_topic("missing")
        bob = deployment.client("bob", "anl.gov")
        alice.register_topic("owned")
        with pytest.raises(NotAuthorizedError):
            bob.release_topic("owned")

    def test_users_only_see_their_triggers(self, deployment):
        alice = deployment.client("alice")
        bob = deployment.client("bob", "anl.gov")
        alice.register_topic("a-topic")
        bob.register_topic("b-topic")
        deployment.triggers.register_function(
            FunctionDefinition(name="noop", handler=lambda e, c: None)
        )
        alice.create_trigger("a-topic", "noop")
        assert len(alice.list_triggers()) == 1
        assert bob.list_triggers() == []

    def test_logout_invalidates_client(self, deployment):
        alice = deployment.client("alice")
        alice.register_topic("t")
        alice.logout()
        with pytest.raises(Exception):
            alice.list_topics()
