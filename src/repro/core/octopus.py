"""One-call assembly of a complete Octopus deployment.

The paper's Figure 2 shows the full architecture: users authenticate
against Globus Auth, the web service brokers credentials and topics, the
MSK cluster moves events, triggers act on them, and events can be
persisted to cloud storage.  :class:`OctopusDeployment` builds that whole
stack in-process with a single call so that examples, applications, tests
and benchmarks all start from the same wiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.auth.acl import AclStore
from repro.auth.iam import IamService
from repro.auth.identity import IdentityStore
from repro.auth.oauth import AuthorizationServer
from repro.common.clock import Clock, SystemClock
from repro.coordination.metadata import ClusterMetadataRegistry
from repro.coordination.zookeeper import ZooKeeperEnsemble
from repro.core.sdk import OctopusClient
from repro.core.service import OctopusWebService
from repro.core.tokenstore import TokenStore
from repro.core.triggers import TriggerManager
from repro.faas.executor import LambdaExecutor
from repro.faas.function import FunctionRegistry
from repro.faas.logs import LogService
from repro.fabric.cluster import FabricCluster


@dataclass
class OctopusDeployment:
    """Every component of a running Octopus instance, wired together."""

    cluster: FabricCluster
    zookeeper: ZooKeeperEnsemble
    metadata: ClusterMetadataRegistry
    identities: IdentityStore
    auth: AuthorizationServer
    iam: IamService
    acls: AclStore
    functions: FunctionRegistry
    logs: LogService
    executor: LambdaExecutor
    triggers: TriggerManager
    service: OctopusWebService

    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        *,
        num_brokers: int = 2,
        instance_type: str = "kafka.m5.large",
        vcpus_per_broker: int = 2,
        memory_gb_per_broker: int = 8,
        cluster_name: str = "octopus-msk",
        enforce_acls: bool = True,
        clock: Optional[Clock] = None,
    ) -> "OctopusDeployment":
        """Stand up a full deployment (the Table II *baseline* by default).

        Every component reads the one ``clock`` (default: wall time), so a
        :class:`~repro.common.clock.ManualClock` drives token expiry,
        znode stamps, record append times and invocation logs together.
        """
        clock = clock or SystemClock()
        identities = IdentityStore()
        auth = AuthorizationServer(identities, clock=clock)
        iam = IamService(clock=clock)
        zookeeper = ZooKeeperEnsemble(clock=clock)
        metadata = ClusterMetadataRegistry(zookeeper)
        acls = AclStore(group_resolver=identities.groups_for)
        cluster = FabricCluster(
            num_brokers=num_brokers,
            instance_type=instance_type,
            vcpus_per_broker=vcpus_per_broker,
            memory_gb_per_broker=memory_gb_per_broker,
            name=cluster_name,
            clock=clock,
        )
        functions = FunctionRegistry()
        logs = LogService()
        executor = LambdaExecutor(functions, logs, clock=clock)
        triggers = TriggerManager(
            cluster,
            metadata,
            iam,
            functions=functions,
            executor=executor,
            logs=logs,
            authorize=lambda principal, topic: acls.is_authorized(principal, "READ", topic)
            or (metadata.topic_exists(topic) and metadata.topic_owner(topic) == principal),
        )
        service = OctopusWebService(cluster, auth, iam, metadata, acls, triggers)
        if enforce_acls:
            cluster.admin().set_authorizer(service.authorize_data_access)
            # Grants/revocations through the ACL store must invalidate the
            # fetch sessions' epoch-scoped authorization caches.
            acls.add_invalidation_listener(cluster.bump_auth_epoch)
        return cls(
            cluster=cluster,
            zookeeper=zookeeper,
            metadata=metadata,
            identities=identities,
            auth=auth,
            iam=iam,
            acls=acls,
            functions=functions,
            logs=logs,
            executor=executor,
            triggers=triggers,
            service=service,
        )

    # ------------------------------------------------------------------ #
    def client(self, username: str, domain: str = "example.edu",
               *, token_store: Optional[TokenStore] = None) -> OctopusClient:
        """Log a user in and return their SDK client."""
        return OctopusClient.login(self.service, username, domain, token_store=token_store)

    def run_triggers(self) -> dict:
        """Drain every trigger's backlog once (the Lambda pollers' job)."""
        return self.triggers.process_pending()
