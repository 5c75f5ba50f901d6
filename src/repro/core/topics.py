"""Topic provisioning and sharing.

Implements the topic half of the OWS API (Section IV-B): registering a
topic creates it on the fabric cluster, records its ownership in the
ZooKeeper-backed metadata registry, and grants the owner READ, WRITE and
DESCRIBE; owners can then re-configure, grow, share or release the topic.

Ownership is enforced *inside* the fabric control plane: every mutation
travels through a per-principal :class:`~repro.fabric.admin.FabricAdmin`
whose ``(principal, operation, resource)`` authorization hook consults
the metadata registry's ownership records.  The service layer no longer
pre-checks ownership itself, so SDK-less callers holding a
``FabricAdmin`` built by :meth:`TopicService.admin_for` are governed by
exactly the same rules as the REST routes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.auth.acl import AclStore, Operation
from repro.coordination.metadata import ClusterMetadataRegistry
from repro.core.errors import NotAuthorizedError, NotFoundError, ValidationError
from repro.fabric.admin import FabricAdmin
from repro.fabric.cluster import FabricCluster
from repro.fabric.errors import (
    AuthorizationError,
    InvalidConfigError,
    TopicAlreadyExistsError,
    UnknownTopicError,
)
from repro.fabric.topic import TopicConfig


class TopicService:
    """Provision, configure, share and release topics on behalf of users."""

    def __init__(
        self,
        cluster: FabricCluster,
        metadata: ClusterMetadataRegistry,
        acls: AclStore,
    ) -> None:
        self.cluster = cluster
        self.metadata = metadata
        self.acls = acls

    # ------------------------------------------------------------------ #
    # Control-plane authorization
    # ------------------------------------------------------------------ #
    def admin_for(self, principal: Optional[str]) -> FabricAdmin:
        """A control-plane client for ``principal``, governed by ownership.

        Admins are cheap per-principal views (see :class:`FabricAdmin`),
        so one is built per call; every operation it performs flows
        through :meth:`authorize_admin`.
        """
        return self.cluster.admin(principal=principal, authorizer=self.authorize_admin)

    def authorize_admin(
        self, principal: Optional[str], operation: str, resource: str
    ) -> bool:
        """The ``FabricAdmin`` hook: owners may manage their own topics.

        ``CREATE_TOPIC`` is allowed for unregistered names (registration
        claims ownership); every other topic operation requires the
        caller to be the registered owner.  Non-topic resources (brokers,
        cluster-wide operations) stay off-limits to user principals.
        """
        if principal is None or not resource.startswith("topic:"):
            return False
        topic = resource[len("topic:"):]
        if not self.metadata.topic_exists(topic):
            return operation == "CREATE_TOPIC"
        return self.metadata.topic_owner(topic) == principal

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register_topic(
        self, principal: str, topic: str, config: Optional[dict] = None
    ) -> dict:
        """``PUT /topic/<topic>``: create the topic and grant owner access.

        Idempotent for the owner: re-registering an owned topic returns its
        description; attempting to register someone else's topic fails.
        """
        self._validate_topic_name(topic)
        if self.metadata.topic_exists(topic):
            if self.metadata.topic_owner(topic) != principal:
                raise NotAuthorizedError(
                    f"topic {topic!r} is already owned by another identity"
                )
            return self.describe_topic(principal, topic)
        topic_config = self._parse_config(config)
        try:
            self.admin_for(principal).create_topic(topic, topic_config)
        except TopicAlreadyExistsError:
            # The fabric already has it (e.g. re-registration after metadata
            # loss); ownership is what matters, fall through.
            pass
        except AuthorizationError as exc:
            raise NotAuthorizedError(str(exc)) from exc
        self.metadata.register_topic(topic, owner=principal, config=topic_config.to_dict())
        self.metadata.grant(topic, principal, ["READ", "WRITE", "DESCRIBE"])
        self.acls.grant_owner(principal, topic)
        return self.describe_topic(principal, topic)

    def release_topic(self, principal: str, topic: str) -> dict:
        """``DELETE /topic/<topic>``: remove the topic and all grants.

        Ownership is enforced by the admin authorization hook (which runs
        before the fabric even looks the topic up), not by this layer.
        """
        if not self.metadata.topic_exists(topic):
            raise NotFoundError(f"topic {topic!r} is not registered")
        try:
            self.admin_for(principal).delete_topic(topic)
        except AuthorizationError as exc:
            raise NotAuthorizedError(f"only the owner may manage topic {topic!r}") from exc
        except UnknownTopicError:
            # Registered but absent from the fabric (metadata recovered
            # from a loss): nothing to delete there, ownership was still
            # checked by the hook above.
            pass
        self.metadata.unregister_topic(topic)
        self.acls.revoke_topic(topic)
        return {"topic": topic, "status": "deleted"}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def list_topics(self, principal: str) -> List[str]:
        """``GET /topics``: topics the caller may DESCRIBE."""
        return self.acls.topics_for(principal, Operation.DESCRIBE)

    def describe_topic(self, principal: str, topic: str) -> dict:
        """``GET /topic/<topic>``: configuration and status of one topic."""
        self._require_access(principal, topic, Operation.DESCRIBE)
        description = self.cluster.admin().describe_topic(topic)
        description["owner"] = self.metadata.topic_owner(topic)
        description["acl"] = self.metadata.acl(topic)
        return description

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    def configure_topic(self, principal: str, topic: str, updates: dict) -> dict:
        """``POST /topic/<topic>``: update replication/retention/etc."""
        if not self.metadata.topic_exists(topic):
            raise NotFoundError(f"topic {topic!r} is not registered")
        if not updates:
            raise ValidationError("no configuration updates supplied")
        try:
            config = self.admin_for(principal).update_topic_config(topic, **updates)
        except AuthorizationError as exc:
            raise NotAuthorizedError(f"only the owner may manage topic {topic!r}") from exc
        except UnknownTopicError as exc:
            # Registered in metadata but missing from the fabric (metadata
            # recovered from a loss): surface as the API's own 404.
            raise NotFoundError(str(exc)) from exc
        except (TypeError, InvalidConfigError) as exc:
            raise ValidationError(str(exc)) from exc
        self.metadata.set_topic_config(topic, config.to_dict())
        return {"topic": topic, "config": config.to_dict()}

    def set_partitions(self, principal: str, topic: str, num_partitions: int) -> dict:
        """``POST /topic/<topic>/partitions``."""
        if not self.metadata.topic_exists(topic):
            raise NotFoundError(f"topic {topic!r} is not registered")
        try:
            config = self.admin_for(principal).set_partitions(topic, int(num_partitions))
        except AuthorizationError as exc:
            raise NotAuthorizedError(f"only the owner may manage topic {topic!r}") from exc
        except UnknownTopicError as exc:
            raise NotFoundError(str(exc)) from exc
        except (ValueError, InvalidConfigError) as exc:
            raise ValidationError(str(exc)) from exc
        self.metadata.set_topic_config(topic, config.to_dict())
        return {"topic": topic, "num_partitions": config.num_partitions}

    # ------------------------------------------------------------------ #
    # Sharing
    # ------------------------------------------------------------------ #
    def grant_user(
        self, principal: str, topic: str, user: str,
        operations: Optional[List[str]] = None,
    ) -> Dict[str, List[str]]:
        """``POST /topic/<topic>/user`` with ``action=grant``.

        Sharing mutates the ACL/metadata stores, not fabric metadata, so
        it is the one management path that does not travel through a
        :class:`FabricAdmin`; ownership is checked directly.
        """
        self._require_owner(principal, topic)
        operations = operations or ["READ", "DESCRIBE"]
        acl = self.metadata.grant(topic, user, operations)
        self.acls.grant(user, topic, operations)
        return acl

    def revoke_user(
        self, principal: str, topic: str, user: str,
        operations: Optional[List[str]] = None,
    ) -> Dict[str, List[str]]:
        """``POST /topic/<topic>/user`` with ``action=revoke``."""
        self._require_owner(principal, topic)
        if user == self.metadata.topic_owner(topic):
            raise ValidationError("the topic owner's access cannot be revoked")
        acl = self.metadata.revoke(topic, user, operations)
        self.acls.revoke(user, topic, operations)
        return acl

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate_topic_name(topic: str) -> None:
        if not topic or len(topic) > 249:
            raise ValidationError("topic name must be 1-249 characters")
        allowed = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")
        if not set(topic) <= allowed:
            raise ValidationError(
                f"topic name {topic!r} may only contain alphanumerics, '.', '_' and '-'"
            )

    def _parse_config(self, config: Optional[dict]) -> TopicConfig:
        try:
            return TopicConfig.from_dict(config or {})
        except (TypeError, InvalidConfigError) as exc:
            raise ValidationError(str(exc)) from exc

    def _require_owner(self, principal: str, topic: str) -> None:
        if not self.metadata.topic_exists(topic):
            raise NotFoundError(f"topic {topic!r} is not registered")
        if self.metadata.topic_owner(topic) != principal:
            raise NotAuthorizedError(f"only the owner may manage topic {topic!r}")

    def _require_access(self, principal: str, topic: str, operation: Operation) -> None:
        if not self.metadata.topic_exists(topic):
            raise NotFoundError(f"topic {topic!r} is not registered")
        if self.metadata.topic_owner(topic) == principal:
            return
        if not self.acls.is_authorized(principal, operation, topic):
            raise NotAuthorizedError(
                f"{principal!r} may not {operation.value} topic {topic!r}"
            )
