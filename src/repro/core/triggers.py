"""Trigger management.

A trigger couples a topic, an optional EventBridge filter pattern and a
function; Octopus deploys the function, wires an event-source mapping with
its own consumer group, creates the IAM role/policy and log group, and
auto-scales invocations with processing pressure (Section IV-D).  The
manager here implements the ``PUT /trigger/``, ``GET /triggers/`` and
``POST /trigger/<trigger_id>`` routes and drives the mappings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.auth.iam import IamService, PolicyStatement
from repro.coordination.metadata import ClusterMetadataRegistry
from repro.core.errors import NotAuthorizedError, NotFoundError, ValidationError
from repro.fabric.cluster import FabricCluster
from repro.faas.eventsource import EventSourceConfig, EventSourceMapping, MAX_BATCH_SIZE
from repro.faas.executor import InvocationResult, LambdaExecutor
from repro.faas.function import FunctionDefinition, FunctionRegistry
from repro.faas.logs import LogService
from repro.faas.patterns import EventPattern, PatternError
from repro.faas.scaling import ProcessingPressureScaler, ScalingPolicy

_trigger_ids = itertools.count(1)


@dataclass
class TriggerSpec:
    """User-supplied trigger definition."""

    topic: str
    function_name: str
    filter_pattern: Optional[dict] = None
    batch_size: int = 100
    batch_window_seconds: float = 0.0
    enabled: bool = True

    def validate(self) -> None:
        if not self.topic:
            raise ValidationError("trigger must name a topic")
        if not self.function_name:
            raise ValidationError("trigger must name a function")
        if not 1 <= self.batch_size <= MAX_BATCH_SIZE:
            raise ValidationError(f"batch_size must be in [1, {MAX_BATCH_SIZE}]")
        if self.batch_window_seconds < 0:
            raise ValidationError("batch_window_seconds must be >= 0")
        if self.filter_pattern is not None:
            try:
                EventPattern(self.filter_pattern)
            except PatternError as exc:
                raise ValidationError(f"invalid filter pattern: {exc}") from exc


@dataclass
class DeployedTrigger:
    """A registered trigger and its runtime resources."""

    trigger_id: str
    owner: str
    spec: TriggerSpec
    mapping: EventSourceMapping
    scaler: ProcessingPressureScaler
    iam_role: str
    log_group: str
    concurrency: int = 1
    invocations: List[InvocationResult] = field(default_factory=list)

    def describe(self) -> dict:
        return {
            "trigger_id": self.trigger_id,
            "owner": self.owner,
            "topic": self.spec.topic,
            "function": self.spec.function_name,
            "filter_pattern": self.spec.filter_pattern,
            "batch_size": self.spec.batch_size,
            "batch_window_seconds": self.spec.batch_window_seconds,
            "enabled": self.mapping.enabled,
            "iam_role": self.iam_role,
            "log_group": self.log_group,
            "concurrency": self.concurrency,
            "pending_events": self.mapping.pending_events(),
            "stats": vars(self.mapping.stats),
        }


class TriggerManager:
    """Registers triggers and drives their event-source mappings."""

    def __init__(
        self,
        cluster: FabricCluster,
        metadata: ClusterMetadataRegistry,
        iam: IamService,
        *,
        functions: Optional[FunctionRegistry] = None,
        executor: Optional[LambdaExecutor] = None,
        logs: Optional[LogService] = None,
        authorize: Optional[Callable[[str, str], bool]] = None,
        scaling_policy: Optional[ScalingPolicy] = None,
    ) -> None:
        self.cluster = cluster
        self.metadata = metadata
        self.iam = iam
        self.functions = functions or FunctionRegistry()
        self.logs = logs or LogService()
        self.executor = executor or LambdaExecutor(
            self.functions, self.logs, clock=cluster.clock
        )
        self._authorize = authorize or (lambda principal, topic: True)
        self.scaling_policy = scaling_policy or ScalingPolicy()
        self._triggers: Dict[str, DeployedTrigger] = {}

    # ------------------------------------------------------------------ #
    # Function deployment
    # ------------------------------------------------------------------ #
    def register_function(self, definition: FunctionDefinition) -> FunctionDefinition:
        """Deploy a function so triggers may reference it by name."""
        return self.functions.register(definition)

    # ------------------------------------------------------------------ #
    # Trigger lifecycle (OWS routes)
    # ------------------------------------------------------------------ #
    def create_trigger(self, principal: str, spec: TriggerSpec) -> DeployedTrigger:
        """``PUT /trigger/``: deploy a trigger for the caller."""
        spec.validate()
        if spec.function_name not in self.functions:
            raise NotFoundError(f"function {spec.function_name!r} is not deployed")
        if not self.cluster.has_topic(spec.topic):
            raise NotFoundError(f"topic {spec.topic!r} does not exist")
        if not self._authorize(principal, spec.topic):
            raise NotAuthorizedError(
                f"{principal!r} may not attach triggers to topic {spec.topic!r}"
            )
        trigger_id = f"trigger-{next(_trigger_ids):06d}"
        iam_role = f"octopus-trigger-role-{trigger_id}"
        self.iam.create_identity(iam_role, kind="role")
        self.iam.attach_policy(
            iam_role,
            PolicyStatement.allow(
                ["kafka-cluster:ReadData", "kafka-cluster:DescribeTopic"],
                [f"topic/{spec.topic}"],
            ),
        )
        self.iam.attach_policy(
            iam_role,
            PolicyStatement.allow(["logs:PutLogEvents"], [f"log-group/{trigger_id}"]),
        )
        log_group = f"/aws/lambda/{spec.function_name}"
        self.logs.group(log_group)
        mapping = EventSourceMapping(
            self.cluster,
            spec.topic,
            spec.function_name,
            self.executor,
            EventSourceConfig(
                batch_size=spec.batch_size,
                batch_window_seconds=spec.batch_window_seconds,
                filter_pattern=spec.filter_pattern,
            ),
            principal=principal,
            mapping_id=trigger_id,
        )
        if not spec.enabled:
            mapping.disable()
        num_partitions = self.cluster.topic(spec.topic).num_partitions
        deployed = DeployedTrigger(
            trigger_id=trigger_id,
            owner=principal,
            spec=spec,
            mapping=mapping,
            scaler=ProcessingPressureScaler(self.scaling_policy, partitions=num_partitions),
            iam_role=iam_role,
            log_group=log_group,
            concurrency=min(self.scaling_policy.initial_concurrency, num_partitions),
        )
        self._triggers[trigger_id] = deployed
        self.metadata.register_trigger(trigger_id, {
            "owner": principal,
            "topic": spec.topic,
            "function": spec.function_name,
            "batch_size": spec.batch_size,
            "filter_pattern": spec.filter_pattern,
        })
        return deployed

    def list_triggers(self, principal: Optional[str] = None) -> List[dict]:
        """``GET /triggers/``: describe the caller's triggers."""
        out = []
        for trigger in self._triggers.values():
            if principal is None or trigger.owner == principal:
                out.append(trigger.describe())
        return out

    def get_trigger(self, trigger_id: str) -> DeployedTrigger:
        try:
            return self._triggers[trigger_id]
        except KeyError:
            raise NotFoundError(f"trigger {trigger_id!r} does not exist") from None

    def update_trigger(self, principal: str, trigger_id: str, updates: dict) -> dict:
        """``POST /trigger/<trigger_id>``: change batch size/window/filter/enabled."""
        trigger = self.get_trigger(trigger_id)
        if trigger.owner != principal:
            raise NotAuthorizedError("only the trigger owner may update it")
        allowed = {"batch_size", "batch_window_seconds", "filter_pattern", "enabled"}
        unknown = set(updates) - allowed
        if unknown:
            raise ValidationError(f"unknown trigger settings: {sorted(unknown)}")
        # Validate a copy first: a rejected update must leave the deployed
        # trigger's spec untouched.
        spec = replace(trigger.spec, **updates)
        spec.validate()
        trigger.spec = spec
        mapping = trigger.mapping
        mapping.config = EventSourceConfig(
            batch_size=spec.batch_size,
            batch_window_seconds=spec.batch_window_seconds,
            filter_pattern=spec.filter_pattern,
        )
        mapping.pattern = EventPattern(spec.filter_pattern)
        mapping.config.validate()
        if spec.enabled:
            mapping.enable()
        else:
            mapping.disable()
        self.metadata.register_trigger(trigger_id, {
            "owner": trigger.owner,
            "topic": spec.topic,
            "function": spec.function_name,
            "batch_size": spec.batch_size,
            "filter_pattern": spec.filter_pattern,
        })
        return trigger.describe()

    def delete_trigger(self, principal: str, trigger_id: str) -> dict:
        trigger = self.get_trigger(trigger_id)
        if trigger.owner != principal:
            raise NotAuthorizedError("only the trigger owner may delete it")
        trigger.mapping.close()
        del self._triggers[trigger_id]
        self.metadata.unregister_trigger(trigger_id)
        return {"trigger_id": trigger_id, "status": "deleted"}

    # ------------------------------------------------------------------ #
    # Runtime
    # ------------------------------------------------------------------ #
    def process_pending(self, trigger_id: Optional[str] = None,
                        max_polls_per_trigger: int = 100) -> Dict[str, int]:
        """Drive event-source mappings until their backlogs drain.

        In the real system Lambda pollers run continuously; in this
        in-process reproduction the caller (application, test or benchmark)
        pumps them explicitly.  Returns the number of successful
        invocations per trigger.
        """
        targets = (
            [self.get_trigger(trigger_id)] if trigger_id else list(self._triggers.values())
        )
        invocations: Dict[str, int] = {}
        for trigger in targets:
            results = trigger.mapping.drain(max_polls=max_polls_per_trigger)
            trigger.invocations.extend(results)
            invocations[trigger.trigger_id] = sum(1 for r in results if r.success)
        return invocations

    def evaluate_scaling(self) -> Dict[str, int]:
        """Re-evaluate processing pressure for every trigger (the 1-minute tick).

        Decisions are applied to each mapping's poller fleet, not just
        recorded: scaling up joins consumers to the trigger's group and
        scaling down retires them, and the cooperative group coordinator
        moves only the minimal partition delta per event, so the pollers
        that stay keep draining their retained partitions throughout.
        A decision of 0 (no pending work) keeps one idle poller alive so
        the mapping notices new events without a cold join.
        """
        decisions: Dict[str, int] = {}
        for trigger in self._triggers.values():
            if not trigger.mapping.enabled:
                # A disabled mapping never polls, so spawned pollers could
                # not even acknowledge the rebalance — hold the fleet as
                # is until the trigger is re-enabled.
                decisions[trigger.trigger_id] = trigger.concurrency
                continue
            backlog = trigger.mapping.pending_events()
            decision = trigger.scaler.next_concurrency(
                backlog,
                in_flight=self.executor.in_flight_for(trigger.spec.function_name),
                current=max(trigger.concurrency, 1),
            )
            applied = trigger.mapping.set_concurrency(max(1, decision))
            # Record what actually runs (the mapping clamps to the live
            # partition count); 0 is preserved as the idle signal even
            # though one poller stays alive to notice new events.
            trigger.concurrency = applied if decision > 0 else 0
            decisions[trigger.trigger_id] = trigger.concurrency
        return decisions
