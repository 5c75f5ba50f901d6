"""The Octopus Python SDK.

The SDK (Section IV-E, published as ``diaspora-event-sdk``) is how
applications and services integrate with Octopus: it logs the user in,
caches tokens and MSK credentials locally, talks to the OWS REST routes,
and hands out Kafka-style producers and consumers bound to the user's
identity.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.errors import OctopusError, NotAuthorizedError, NotFoundError, ValidationError
from repro.core.login import LoginManager
from repro.core.service import OctopusWebService
from repro.core.tokenstore import TokenStore
from repro.fabric.consumer import ConsumerConfig, FabricConsumer
from repro.fabric.producer import FabricProducer, ProducerConfig

_STATUS_TO_ERROR = {
    400: ValidationError,
    401: NotAuthorizedError,
    403: NotAuthorizedError,
    404: NotFoundError,
    409: OctopusError,
}


class OctopusClient:
    """High-level client: one authenticated user's view of Octopus."""

    def __init__(
        self,
        service: OctopusWebService,
        login_manager: LoginManager,
        *,
        token_store: Optional[TokenStore] = None,
    ) -> None:
        self.service = service
        self.login_manager = login_manager
        self.store = token_store or login_manager.store
        self._credentials: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # Authentication
    # ------------------------------------------------------------------ #
    @classmethod
    def login(
        cls,
        service: OctopusWebService,
        username: str,
        domain: str,
        *,
        token_store: Optional[TokenStore] = None,
    ) -> "OctopusClient":
        """Authenticate ``username@domain`` and return a ready client."""
        manager = LoginManager(service.auth, token_store or TokenStore())
        manager.login(username, domain)
        return cls(service, manager)

    @property
    def principal(self) -> str:
        principal = self.login_manager.principal
        if principal is None:
            raise RuntimeError("client is not logged in")
        return principal

    def logout(self) -> None:
        self.login_manager.logout()
        self._credentials = None

    # ------------------------------------------------------------------ #
    # REST plumbing
    # ------------------------------------------------------------------ #
    def _request(self, method: str, path: str, body: Optional[dict] = None) -> dict:
        token = self.login_manager.get_token()
        status, payload = self.service.handle(method, path, token=token, body=body)
        if status >= 400:
            error_cls = _STATUS_TO_ERROR.get(status, OctopusError)
            raise error_cls(payload.get("detail", f"request failed with status {status}"))
        return payload

    # ------------------------------------------------------------------ #
    # Topic management (Section IV-B routes)
    # ------------------------------------------------------------------ #
    def register_topic(self, topic: str, config: Optional[dict] = None) -> dict:
        return self._request("PUT", f"/topic/{topic}", {"config": config or {}})

    def list_topics(self) -> List[str]:
        return self._request("GET", "/topics")["topics"]

    def get_topic(self, topic: str) -> dict:
        return self._request("GET", f"/topic/{topic}")

    def configure_topic(self, topic: str, **updates) -> dict:
        return self._request("POST", f"/topic/{topic}", updates)

    def set_partitions(self, topic: str, num_partitions: int) -> dict:
        return self._request(
            "POST", f"/topic/{topic}/partitions", {"num_partitions": num_partitions}
        )

    def grant_user(self, topic: str, user: str, operations: Optional[List[str]] = None) -> dict:
        return self._request(
            "POST", f"/topic/{topic}/user",
            {"action": "grant", "user": user, "operations": operations},
        )

    def revoke_user(self, topic: str, user: str, operations: Optional[List[str]] = None) -> dict:
        return self._request(
            "POST", f"/topic/{topic}/user",
            {"action": "revoke", "user": user, "operations": operations},
        )

    def release_topic(self, topic: str) -> dict:
        return self._request("DELETE", f"/topic/{topic}")

    # ------------------------------------------------------------------ #
    # Credentials (Section IV-C)
    # ------------------------------------------------------------------ #
    def create_key(self, *, refresh: bool = False) -> Dict[str, Any]:
        """Fetch (and cache) MSK credentials for the fabric."""
        if not refresh:
            if self._credentials is not None:
                return self._credentials
            cached = self.store.get_credentials(self.principal)
            if cached is not None:
                self._credentials = cached
                return cached
        credentials = self._request("GET", "/create_key")
        self.store.store_credentials(
            self.principal, credentials, created_at=self.login_manager.auth.clock.now()
        )
        self._credentials = credentials
        return credentials

    # ------------------------------------------------------------------ #
    # Triggers (Section IV-D)
    # ------------------------------------------------------------------ #
    def create_trigger(
        self,
        topic: str,
        function: str,
        *,
        filter_pattern: Optional[dict] = None,
        batch_size: int = 100,
        batch_window_seconds: float = 0.0,
        enabled: bool = True,
    ) -> dict:
        return self._request("PUT", "/trigger", {
            "topic": topic,
            "function": function,
            "filter_pattern": filter_pattern,
            "batch_size": batch_size,
            "batch_window_seconds": batch_window_seconds,
            "enabled": enabled,
        })

    def list_triggers(self) -> List[dict]:
        return self._request("GET", "/triggers")["triggers"]

    def update_trigger(self, trigger_id: str, **updates) -> dict:
        return self._request("POST", f"/trigger/{trigger_id}", updates)

    def delete_trigger(self, trigger_id: str) -> dict:
        return self._request("DELETE", f"/trigger/{trigger_id}")

    # ------------------------------------------------------------------ #
    # Data plane: producers and consumers bound to this identity
    # ------------------------------------------------------------------ #
    def producer(self, config: Optional[ProducerConfig] = None) -> FabricProducer:
        """A producer authenticated as this user (kafka-python equivalent)."""
        self.create_key()
        return FabricProducer(self.service.cluster, config, principal=self.principal)

    def consumer(
        self, topics: Sequence[str], config: Optional[ConsumerConfig] = None
    ) -> FabricConsumer:
        """A consumer authenticated as this user."""
        self.create_key()
        config = config or ConsumerConfig(group_id=f"{self.principal}-group")
        return FabricConsumer(self.service.cluster, topics, config, principal=self.principal)

    # ------------------------------------------------------------------ #
    # Convenience helpers used throughout the examples
    # ------------------------------------------------------------------ #
    def publish(self, topic: str, value: Any, *, key: Any = None,
                headers: Optional[Dict[str, str]] = None) -> dict:
        """One-shot publish without holding a producer open."""
        producer = self.producer()
        metadata = producer.send(topic, value, key=key, headers=headers)
        return {
            "topic": metadata.topic,
            "partition": metadata.partition,
            "offset": metadata.offset,
        }

    def read_all(self, topic: str, *, group_id: Optional[str] = None) -> List[Any]:
        """Read every retained event value of a topic from the beginning."""
        consumer = self.consumer(
            [topic],
            ConsumerConfig(
                group_id=group_id or f"{self.principal}-readall",
                auto_offset_reset="earliest",
                enable_auto_commit=False,
            ),
        )
        values: List[Any] = []
        while True:
            batch = consumer.poll_flat()
            if not batch:
                break
            values.extend(record.value for record in batch)
        consumer.close()
        return values
