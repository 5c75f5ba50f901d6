"""The gateway application: control-plane and data-plane routers.

:class:`Gateway` is transport-agnostic — :meth:`Gateway.handle` takes
``(method, path, query, headers, body)`` and returns a
:class:`GatewayResponse`, so contract tests drive the full routing,
schema-validation, authorization and error-mapping stack in-process,
while :mod:`repro.gateway.server` mounts the same object behind a real
threaded HTTP socket.

Two routers share the one application:

* the **control plane** wraps :class:`~repro.fabric.admin.FabricAdmin` —
  every request builds a per-principal admin view, so the existing
  ``(principal, operation, resource)`` authorization hook guards each
  wire operation exactly as it guards in-process callers;
* the **data plane** serves batched produce (JSON or packed wire-format
  passthrough), long-poll fetch riding pooled
  :class:`~repro.fabric.cluster.FetchSession` objects, batched group
  offset commits via ``commit_group`` and the cooperative consumer-group
  protocol (join / heartbeat / sync / leave).

The principal is extracted from ``Authorization: Bearer <principal>``
(or ``X-Repro-Principal``); no header means the anonymous principal,
exactly like passing ``principal=None`` in-process.
"""

from __future__ import annotations

import base64
import contextlib
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.common.retry import RetryPolicy
from repro.common.sync import create_lock
from repro.fabric.admin import AdminAuthorizer, FabricAdmin
from repro.fabric.cluster import FabricCluster, FetchRequest, FetchSession
from repro.fabric.errors import FabricError, UnknownGroupError
from repro.fabric.record import EventRecord, PackedRecordBatch, StoredRecord
from repro.gateway import models
from repro.gateway.errors import (
    DrainingError,
    MalformedBodyError,
    MethodNotAllowedError,
    RouteNotFoundError,
    SchemaError,
    ServiceUnavailableError,
    TooManyRequestsError,
    UnsupportedMediaTypeError,
    error_body,
)

#: Content type of the packed-batch wire image (PR 7 v1 format).  Bodies
#: of this type cross the gateway into storage without re-encoding.
BATCH_CONTENT_TYPE = "application/vnd.repro.batch.v1"

JSON_CONTENT_TYPE = "application/json"


@dataclass
class GatewayRequest:
    """Everything a handler needs, already parsed."""

    method: str
    path: str
    params: Dict[str, str]
    query: Mapping[str, str]
    headers: Mapping[str, str]
    body: bytes
    principal: Optional[str]

    def json(self) -> Any:
        """Parse the request body as JSON (400 MALFORMED_BODY on failure)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise MalformedBodyError(f"request body is not valid JSON: {exc}") from None

    def int_param(self, name: str) -> int:
        try:
            return int(self.params[name])
        except ValueError:
            raise SchemaError({name: "expected integer path segment"}) from None

    def int_query(self, name: str, default: Optional[int]) -> Optional[int]:
        raw = self.query.get(name)
        if raw is None or raw == "":
            return default
        try:
            return int(raw)
        except ValueError:
            raise SchemaError({name: "expected integer query parameter"}) from None


@dataclass
class GatewayResponse:
    """What a handler returns; :meth:`Gateway.handle` encodes it."""

    status: int = 200
    payload: Any = None
    content_type: str = JSON_CONTENT_TYPE
    #: The encoded body: ``None`` as handlers build it, filled in on every
    #: response :meth:`Gateway.handle` returns, so a transport writes bytes.
    raw: Optional[bytes] = None
    #: Extra response headers (e.g. ``Retry-After`` on 429/503).
    headers: Dict[str, str] = field(default_factory=dict)

    def body_bytes(self) -> bytes:
        if self.raw is not None:
            return self.raw
        if self.payload is None:
            return b""
        return json.dumps(self.payload).encode("utf-8")

    def encoded(self) -> "GatewayResponse":
        """This response with ``raw`` filled in; raises what the encode raises."""
        self.raw = self.body_bytes()
        return self


def error_response(exc: BaseException) -> GatewayResponse:
    """Any exception as an encoded JSON error response."""
    status, payload = error_body(exc)
    extra = getattr(exc, "headers", None) or {}
    return GatewayResponse(status, payload, headers=dict(extra)).encoded()


Handler = Callable[[GatewayRequest], GatewayResponse]


@dataclass(frozen=True)
class Route:
    method: str
    pattern: str
    handler: Handler
    segments: Tuple[str, ...] = field(init=False)
    #: Per segment, the name of a ``{name}`` one and "" for a fixed one,
    #: so that matching a request parses no braces.
    names: Tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        segments = tuple(s for s in self.pattern.split("/") if s)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "names", tuple(
            s[1:-1] if s.startswith("{") and s.endswith("}") else "" for s in segments
        ))

    def match(self, segments: Tuple[str, ...]) -> Optional[Dict[str, str]]:
        if len(segments) != len(self.segments):
            return None
        params: Dict[str, str] = {}
        for want, name, got in zip(self.segments, self.names, segments):
            if name:
                params[name] = got
            elif want != got:
                return None
        return params


def _record_payload(stored: StoredRecord) -> Dict[str, Any]:
    record = stored.record
    payload: Dict[str, Any] = {
        "offset": stored.offset,
        "value": record.value,
        "key": record.key,
        "headers": dict(record.headers),
        "timestamp": record.timestamp,
    }
    # Binary payloads (typical for wire-format produce) can't ride JSON
    # directly; they go out base64'd with an explicit encoding marker.
    for fname in ("value", "key"):
        raw = payload[fname]
        if isinstance(raw, (bytes, bytearray, memoryview)):
            payload[fname] = base64.b64encode(bytes(raw)).decode("ascii")
            payload[f"{fname}_encoding"] = "base64"
    return payload


class ControlPlaneRouter:
    """Wire front for :class:`FabricAdmin` — metadata, never records."""

    def __init__(self, gateway: "Gateway") -> None:
        self._gateway = gateway

    def routes(self) -> List[Route]:
        return [
            Route("GET", "/v1/cluster", self.describe_cluster),
            Route("GET", "/v1/topics", self.list_topics),
            Route("POST", "/v1/topics", self.create_topic),
            Route("GET", "/v1/topics/{topic}", self.describe_topic),
            Route("DELETE", "/v1/topics/{topic}", self.delete_topic),
            Route("PUT", "/v1/topics/{topic}/config", self.update_config),
            Route("POST", "/v1/topics/{topic}/partitions", self.grow_partitions),
            Route("GET", "/v1/topics/{topic}/segments", self.describe_segments),
            Route("POST", "/v1/brokers/{broker}/fail", self.fail_broker),
            Route("POST", "/v1/brokers/{broker}/restore", self.restore_broker),
            Route("POST", "/v1/retention", self.run_retention),
            Route("GET", "/v1/groups", self.list_groups),
            Route("GET", "/v1/groups/{group}", self.describe_group),
        ]

    def _admin(self, request: GatewayRequest) -> FabricAdmin:
        return self._gateway.admin_for(request.principal)

    # -- topics -------------------------------------------------------- #
    def create_topic(self, request: GatewayRequest) -> GatewayResponse:
        req = models.TopicCreateRequest.parse(request.json())
        from repro.fabric.topic import TopicConfig

        config = TopicConfig.from_dict(req.config) if req.config else None
        topic = self._admin(request).create_topic(req.name, config)
        return GatewayResponse(201, topic.describe())

    def list_topics(self, request: GatewayRequest) -> GatewayResponse:
        return GatewayResponse(200, {"topics": self._admin(request).list_topics()})

    def describe_topic(self, request: GatewayRequest) -> GatewayResponse:
        return GatewayResponse(
            200, self._admin(request).describe_topic(request.params["topic"])
        )

    def delete_topic(self, request: GatewayRequest) -> GatewayResponse:
        name = request.params["topic"]
        self._admin(request).delete_topic(name)
        return GatewayResponse(200, {"deleted": name})

    def update_config(self, request: GatewayRequest) -> GatewayResponse:
        req = models.TopicConfigUpdateRequest.parse(request.json())
        config = self._admin(request).update_topic_config(
            request.params["topic"], **req.updates
        )
        return GatewayResponse(200, {"config": config.to_dict()})

    def grow_partitions(self, request: GatewayRequest) -> GatewayResponse:
        req = models.PartitionGrowRequest.parse(request.json())
        config = self._admin(request).set_partitions(
            request.params["topic"], req.num_partitions
        )
        return GatewayResponse(200, {"config": config.to_dict()})

    def describe_segments(self, request: GatewayRequest) -> GatewayResponse:
        partition = request.int_query("partition", None)
        return GatewayResponse(
            200,
            self._admin(request).describe_segments(
                request.params["topic"], partition
            ),
        )

    # -- brokers ------------------------------------------------------- #
    def fail_broker(self, request: GatewayRequest) -> GatewayResponse:
        broker_id = request.int_param("broker")
        moved = self._admin(request).fail_broker(broker_id)
        return GatewayResponse(
            200,
            {"broker": broker_id, "reassigned": [a.describe() for a in moved]},
        )

    def restore_broker(self, request: GatewayRequest) -> GatewayResponse:
        broker_id = request.int_param("broker")
        self._admin(request).restore_broker(broker_id)
        return GatewayResponse(200, {"broker": broker_id, "online": True})

    # -- cluster ------------------------------------------------------- #
    def describe_cluster(self, request: GatewayRequest) -> GatewayResponse:
        return GatewayResponse(200, self._admin(request).describe_cluster())

    def run_retention(self, request: GatewayRequest) -> GatewayResponse:
        topic = request.query.get("topic")
        removed = self._admin(request).run_retention(topic)
        return GatewayResponse(200, {"removed": removed})

    # -- groups -------------------------------------------------------- #
    def list_groups(self, request: GatewayRequest) -> GatewayResponse:
        return GatewayResponse(200, {"groups": self._admin(request).list_groups()})

    def describe_group(self, request: GatewayRequest) -> GatewayResponse:
        admin = self._admin(request)
        group_id = request.params["group"]
        if group_id not in admin.list_groups():
            raise UnknownGroupError(f"consumer group {group_id!r} is not known")
        return GatewayResponse(200, admin.describe_group(group_id))


class DataPlaneRouter:
    """Wire front for the produce / fetch / commit / group hot paths."""

    def __init__(self, gateway: "Gateway") -> None:
        self._gateway = gateway

    def routes(self) -> List[Route]:
        return [
            Route(
                "POST",
                "/v1/topics/{topic}/partitions/{partition}/records",
                self.produce,
            ),
            Route(
                "GET",
                "/v1/topics/{topic}/partitions/{partition}/records",
                self.fetch,
            ),
            Route("GET", "/v1/topics/{topic}/offsets", self.topic_offsets),
            Route("POST", "/v1/fetch", self.batch_fetch),
            Route("POST", "/v1/groups/{group}/offsets", self.commit_offsets),
            Route("GET", "/v1/groups/{group}/offsets", self.committed_offsets),
            Route("POST", "/v1/groups/{group}/members", self.join_group),
            Route(
                "DELETE", "/v1/groups/{group}/members/{member}", self.leave_group
            ),
            Route(
                "POST",
                "/v1/groups/{group}/members/{member}/heartbeat",
                self.heartbeat,
            ),
            Route("POST", "/v1/groups/{group}/members/{member}/sync", self.sync),
        ]

    # -- produce ------------------------------------------------------- #
    def produce(self, request: GatewayRequest) -> GatewayResponse:
        cluster = self._gateway.cluster()
        topic = request.params["topic"]
        partition = request.int_param("partition")
        content_type = request.headers.get("content-type", JSON_CONTENT_TYPE)
        content_type = content_type.split(";", 1)[0].strip().lower()
        if content_type in (BATCH_CONTENT_TYPE, "application/octet-stream"):
            # Wire-format passthrough: the body is a sealed (possibly
            # compressed) packed-batch image.  from_bytes keeps a
            # zero-copy view over it and append ingress verifies the
            # CRC — the records are never decoded or re-encoded here.
            if not request.body:
                raise MalformedBodyError("empty packed-batch body")
            packed = PackedRecordBatch.from_bytes(request.body)
            acks = self._acks_from_query(request)
            metadata = cluster.append_batch(
                topic, partition, packed, acks=acks, principal=request.principal
            )
        elif content_type == JSON_CONTENT_TYPE:
            req = models.ProduceRequest.parse(request.json())
            now = cluster.clock.now()
            records = [
                EventRecord(
                    value=entry["value"],
                    key=entry.get("key"),
                    headers=entry.get("headers") or {},
                    timestamp=entry.get("timestamp", now),
                )
                for entry in req.records
            ]
            metadata = cluster.append_batch(
                topic, partition, records, acks=req.acks, principal=request.principal
            )
        else:
            raise UnsupportedMediaTypeError(
                f"produce accepts {JSON_CONTENT_TYPE} or {BATCH_CONTENT_TYPE}, "
                f"got {content_type!r}"
            )
        return GatewayResponse(
            201,
            {
                "topic": topic,
                "partition": partition,
                "count": len(metadata),
                "base_offset": metadata[0].offset if metadata else None,
                "last_offset": metadata[-1].offset if metadata else None,
            },
        )

    @staticmethod
    def _acks_from_query(request: GatewayRequest) -> object:
        raw = request.query.get("acks", "1")
        if raw in ("0", "1"):
            return int(raw)
        if raw == "all":
            return "all"
        raise SchemaError({"acks": "must be 0, 1 or 'all'"})

    # -- fetch --------------------------------------------------------- #
    @staticmethod
    def _isolation_from_query(request: GatewayRequest) -> str:
        isolation = request.query.get("isolation", "committed")
        if isolation not in ("committed", "uncommitted"):
            raise SchemaError({"isolation": "must be 'committed' or 'uncommitted'"})
        return isolation

    def fetch(self, request: GatewayRequest) -> GatewayResponse:
        cluster = self._gateway.cluster()
        topic = request.params["topic"]
        partition = request.int_param("partition")
        offset = request.int_query("offset", 0)
        max_records = request.int_query("max_records", 500)
        max_bytes = request.int_query("max_bytes", None)
        max_wait_ms = request.int_query("max_wait_ms", 0)
        min_bytes = request.int_query("min_bytes", 1)
        isolation = self._isolation_from_query(request)
        requests = [FetchRequest(topic, partition, offset)]

        def fetch_once(session: FetchSession):
            served = session.fetch(
                requests,
                max_records=max_records,
                max_bytes=max_bytes,
                isolation=isolation,
            )
            records = served.get((topic, partition))
            if records is None:
                return [], 0
            return records, records.size_bytes()

        with self._gateway.session(request.principal) as session:
            records = self._long_poll(
                cluster, lambda: fetch_once(session), max_wait_ms, min_bytes
            )
        payload = [_record_payload(r) for r in records]
        return GatewayResponse(
            200,
            {
                "topic": topic,
                "partition": partition,
                "records": payload,
                "next_offset": (
                    payload[-1]["offset"] + 1 if payload else offset
                ),
                "high_watermark": cluster.high_watermark(topic, partition),
                "log_end_offset": cluster.end_offset(topic, partition),
            },
        )

    def batch_fetch(self, request: GatewayRequest) -> GatewayResponse:
        cluster = self._gateway.cluster()
        req = models.BatchFetchRequest.parse(request.json())
        requests = [
            FetchRequest(e.topic, e.partition, e.offset, e.max_records)
            for e in req.entries
        ]

        def fetch_once(session: FetchSession):
            served = session.fetch(
                requests,
                max_records=req.max_records,
                max_bytes=req.max_bytes,
                isolation=req.isolation,
            )
            return served, sum(records.size_bytes() for records in served.values())

        with self._gateway.session(request.principal) as session:
            served = self._long_poll(
                cluster, lambda: fetch_once(session), req.max_wait_ms, req.min_bytes
            )
        partitions = [
            {
                "topic": topic,
                "partition": partition,
                "records": [_record_payload(r) for r in records],
            }
            for (topic, partition), records in served.items()
        ]
        return GatewayResponse(200, {"partitions": partitions})

    def _long_poll(
        self,
        cluster: FabricCluster,
        fetch_once: Callable[[], Tuple[Any, int]],
        max_wait_ms: int,
        min_bytes: int,
    ):
        """Fetch, and park on the cluster's append signal until satisfied.

        The snapshot-then-wait protocol (read ``append_version`` *before*
        fetching) closes the classic long-poll race: a produce landing
        between an empty fetch and the wait has already moved the
        version, so :meth:`FabricCluster.wait_for_data` returns without
        blocking and the loop re-fetches immediately.  Deadlines ride the
        cluster clock, so the gateway stays free of raw ``time`` calls.

        Two PR-10 additions: transient fabric errors (a leader mid
        failover, a broker flapping) go through the gateway's shared
        :class:`~repro.common.retry.RetryPolicy` instead of failing the
        request on first touch, and a draining gateway returns whatever
        the poll has so far — :meth:`Gateway.begin_drain` wakes parked
        waiters via :meth:`FabricCluster.interrupt_waiters`, and the
        drain check here turns that wake-up into a prompt return.
        """
        retried = self._gateway.retried_fetch(cluster, fetch_once)
        if max_wait_ms <= 0:
            result, _ = retried()
            return result
        clock = cluster.clock
        deadline = clock.now() + max_wait_ms / 1000.0
        while True:
            version = cluster.append_version
            result, nbytes = retried()
            if nbytes >= min_bytes:
                return result
            if self._gateway.draining:
                return result
            remaining = deadline - clock.now()
            if remaining <= 0:
                return result
            cluster.wait_for_data(version, remaining)

    def topic_offsets(self, request: GatewayRequest) -> GatewayResponse:
        cluster = self._gateway.cluster()
        topic = request.params["topic"]
        end = cluster.end_offsets(topic)
        beginning = cluster.beginning_offsets(topic)
        return GatewayResponse(
            200,
            {
                "topic": topic,
                "partitions": {
                    str(p): {"beginning": beginning.get(p, 0), "end": end[p]}
                    for p in sorted(end)
                },
            },
        )

    # -- offsets ------------------------------------------------------- #
    def commit_offsets(self, request: GatewayRequest) -> GatewayResponse:
        cluster = self._gateway.cluster()
        req = models.CommitRequest.parse(request.json())
        offsets = {(e.topic, e.partition): e.offset for e in req.entries}
        committed = cluster.commit_group(
            request.params["group"],
            offsets,
            generation=req.generation,
            member_id=req.member_id,
            metadata=req.metadata,
        )
        return GatewayResponse(
            200,
            {
                "group": request.params["group"],
                "committed": [
                    {"topic": t, "partition": p, "offset": entry.offset}
                    for (t, p), entry in sorted(committed.items())
                ],
            },
        )

    def committed_offsets(self, request: GatewayRequest) -> GatewayResponse:
        cluster = self._gateway.cluster()
        group_id = request.params["group"]
        offsets = cluster.offsets.group_offsets(group_id)
        return GatewayResponse(
            200,
            {
                "group": group_id,
                "offsets": [
                    {"topic": t, "partition": p, "offset": offset}
                    for (t, p), offset in sorted(offsets.items())
                ],
            },
        )

    # -- consumer groups ----------------------------------------------- #
    def join_group(self, request: GatewayRequest) -> GatewayResponse:
        cluster = self._gateway.cluster()
        req = models.JoinGroupRequest.parse(request.json())
        partitions: List[Tuple[str, int]] = []
        for topic in req.topics:
            partitions.extend(cluster.partitions_for(topic))
        member_id, generation, assignment = cluster.groups.join(
            request.params["group"],
            req.client_id,
            req.topics,
            partitions,
            session_timeout=req.session_timeout_seconds,
        )
        return GatewayResponse(
            201,
            {
                "group": request.params["group"],
                "member_id": member_id,
                "generation": generation,
                "assignment": [list(tp) for tp in assignment],
                "phase": cluster.groups.rebalance_phase(request.params["group"]),
            },
        )

    def leave_group(self, request: GatewayRequest) -> GatewayResponse:
        cluster = self._gateway.cluster()
        generation = cluster.groups.leave(
            request.params["group"], request.params["member"]
        )
        return GatewayResponse(
            200, {"group": request.params["group"], "generation": generation}
        )

    def heartbeat(self, request: GatewayRequest) -> GatewayResponse:
        cluster = self._gateway.cluster()
        req = models.GenerationRequest.parse(request.json())
        cluster.groups.heartbeat(
            request.params["group"], request.params["member"], req.generation
        )
        return GatewayResponse(200, {"generation": req.generation})

    def sync(self, request: GatewayRequest) -> GatewayResponse:
        cluster = self._gateway.cluster()
        req = models.GenerationRequest.parse(request.json())
        generation, assignment = cluster.groups.sync(
            request.params["group"], request.params["member"], req.generation
        )
        return GatewayResponse(
            200,
            {
                "generation": generation,
                "assignment": [list(tp) for tp in assignment],
                "phase": cluster.groups.rebalance_phase(request.params["group"]),
            },
        )


class Gateway:
    """The HTTP front door as a transport-agnostic application object.

    Parameters
    ----------
    cluster:
        The fabric cluster to serve.  ``None`` boots the gateway
        uninitialized: every request answers 503 ``UNINITIALIZED`` until
        :meth:`attach` wires a cluster in (matching the
        dependency-injection contract of the reference control-plane
        API this router is modeled on).
    admin_authorizer:
        Optional ``(principal, operation, resource) -> bool`` hook for
        the control plane; every request's admin view routes through it.
    max_inflight_per_principal:
        Graceful-degradation cap: at most this many requests per
        principal may be in flight at once; excess requests answer 429
        with a ``Retry-After`` header instead of queueing behind parked
        long-polls.  ``None`` (the default) means uncapped.
    retry_after_seconds:
        The back-off hint sent on 429/503 (drain) responses.
    """

    #: Routes exempt from drain gating and in-flight caps: a load
    #: balancer must be able to probe a saturated or draining gateway.
    _HEALTH_PATHS = frozenset({("v1", "healthz"), ("v1", "readyz")})

    #: Transient fabric errors on the fetch path (a leader mid failover,
    #: a flapping broker) retry briefly instead of failing the request.
    FETCH_RETRY_POLICY = RetryPolicy(
        max_attempts=3, base_backoff=0.025, multiplier=2.0, max_backoff=0.1
    )

    def __init__(
        self,
        cluster: Optional[FabricCluster] = None,
        *,
        admin_authorizer: Optional[AdminAuthorizer] = None,
        max_inflight_per_principal: Optional[int] = None,
        retry_after_seconds: float = 1.0,
    ) -> None:
        if max_inflight_per_principal is not None and max_inflight_per_principal < 1:
            raise ValueError("max_inflight_per_principal must be >= 1")
        self._cluster = cluster
        self._admin_authorizer = admin_authorizer
        self.control = ControlPlaneRouter(self)
        self.data = DataPlaneRouter(self)
        #: By segment count: a request is compared only with routes it can match.
        self._routes: Dict[int, List[Route]] = {}
        for route in (
            [
                Route("GET", "/v1/healthz", self.healthz),
                Route("GET", "/v1/readyz", self.readyz),
            ]
            + self.control.routes()
            + self.data.routes()
        ):
            self._routes.setdefault(len(route.segments), []).append(route)
        self._pool_lock = create_lock("GatewaySessionPool")
        self._session_pool: Dict[Optional[str], List[FetchSession]] = {}
        self._max_inflight = max_inflight_per_principal
        self._retry_after = retry_after_seconds
        # In-flight accounting and the drain flag share one condition: a
        # drain waiter parks on it until the last in-flight request exits.
        self._inflight_cond = threading.Condition()
        self._inflight: Dict[Optional[str], int] = {}
        self._inflight_total = 0
        self._draining = False

    # -- dependencies --------------------------------------------------- #
    def attach(self, cluster: FabricCluster) -> None:
        """Wire (or replace) the cluster dependency; drops pooled sessions."""
        with self._pool_lock:
            self._cluster = cluster
            self._session_pool.clear()

    def cluster(self) -> FabricCluster:
        """The cluster dependency, or 503 ``UNINITIALIZED`` if unset."""
        cluster = self._cluster
        if cluster is None:
            raise ServiceUnavailableError(
                "gateway has no cluster attached yet; retry after initialization"
            )
        return cluster

    # -- degradation / lifecycle ---------------------------------------- #
    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting requests; wake every parked long-poll.

        Idempotent.  In-flight requests are left to finish — pair with
        :meth:`await_drained` for the full graceful-shutdown sequence.
        """
        with self._inflight_cond:
            self._draining = True
        cluster = self._cluster
        if cluster is not None:
            # Parked wait_for_data calls wake without a version bump; the
            # long-poll loop sees ``draining`` and returns what it has.
            cluster.interrupt_waiters()

    def await_drained(self, timeout: float = 5.0) -> bool:
        """Block until no request is in flight (or ``timeout``); True if drained."""
        with self._inflight_cond:
            return self._inflight_cond.wait_for(
                lambda: self._inflight_total == 0, timeout
            )

    def inflight(self, principal: Optional[str] = None) -> int:
        """Current in-flight count for one principal (observability)."""
        with self._inflight_cond:
            return self._inflight.get(principal, 0)

    def _admit(self, principal: Optional[str]) -> None:
        with self._inflight_cond:
            if self._draining:
                raise DrainingError(
                    "gateway is draining; retry against another instance",
                    retry_after=self._retry_after,
                )
            count = self._inflight.get(principal, 0)
            if self._max_inflight is not None and count >= self._max_inflight:
                raise TooManyRequestsError(
                    f"principal {principal!r} has {count} requests in flight "
                    f"(cap {self._max_inflight})",
                    retry_after=self._retry_after,
                    details={"in_flight": count, "cap": self._max_inflight},
                )
            self._inflight[principal] = count + 1
            self._inflight_total += 1

    def _release(self, principal: Optional[str]) -> None:
        with self._inflight_cond:
            remaining = self._inflight.get(principal, 1) - 1
            if remaining:
                self._inflight[principal] = remaining
            else:
                self._inflight.pop(principal, None)
            self._inflight_total -= 1
            if self._inflight_total == 0:
                self._inflight_cond.notify_all()

    def retried_fetch(
        self, cluster: FabricCluster, fetch_once: Callable[[], Tuple[Any, int]]
    ) -> Callable[[], Tuple[Any, int]]:
        """Wrap a fetch closure in the gateway's transient-error policy."""

        def attempt() -> Tuple[Any, int]:
            return self.FETCH_RETRY_POLICY.call(
                fetch_once,
                clock=cluster.clock,
                retriable=lambda exc: (
                    isinstance(exc, FabricError) and exc.retriable
                ),
            )

        return attempt

    # -- health probes --------------------------------------------------- #
    def healthz(self, request: GatewayRequest) -> GatewayResponse:
        """Liveness: the process answers — even while draining."""
        return GatewayResponse(200, {"status": "ok"})

    def readyz(self, request: GatewayRequest) -> GatewayResponse:
        """Readiness: may this instance take traffic right now?"""
        if self._draining:
            return GatewayResponse(503, {"status": "draining", "ready": False})
        if self._cluster is None:
            return GatewayResponse(
                503, {"status": "uninitialized", "ready": False}
            )
        return GatewayResponse(200, {"status": "ready", "ready": True})

    def admin_for(self, principal: Optional[str]) -> FabricAdmin:
        """A control-plane view for ``principal`` over the one authz hook."""
        cluster = self.cluster()
        if self._admin_authorizer is None and principal is None:
            return cluster.admin()
        return FabricAdmin(
            cluster, principal=principal, authorizer=self._admin_authorizer
        )

    @contextlib.contextmanager
    def session(self, principal: Optional[str]):
        """Check a pooled fetch session out (and back in) for one request.

        Long-lived leader/log caches are what make fetch sessions fast;
        pooling them per principal keeps that amortization across wire
        requests while never sharing one session between two concurrent
        handlers.
        """
        cluster = self.cluster()
        with self._pool_lock:
            pool = self._session_pool.setdefault(principal, [])
            session = pool.pop() if pool else None
        if session is None:
            session = cluster.fetch_session(principal=principal)
        try:
            yield session
        finally:
            with self._pool_lock:
                # attach() may have swapped the cluster mid-request; a
                # session for the old cluster must not be pooled again.
                if self._cluster is cluster:
                    self._session_pool.setdefault(principal, []).append(session)

    # -- request handling ----------------------------------------------- #
    @staticmethod
    def principal_from_headers(headers: Mapping[str, str]) -> Optional[str]:
        auth = headers.get("authorization")
        if auth:
            scheme, _, credential = auth.partition(" ")
            if scheme.lower() == "bearer" and credential.strip():
                return credential.strip()
        principal = headers.get("x-repro-principal")
        return principal.strip() if principal and principal.strip() else None

    def handle(
        self,
        method: str,
        path: str,
        *,
        query: Optional[Mapping[str, str]] = None,
        headers: Optional[Mapping[str, str]] = None,
        body: bytes = b"",
    ) -> GatewayResponse:
        """Route one request; never raises — errors become JSON bodies.

        Health probes bypass the degradation gates; every other route is
        admitted against the drain flag and the per-principal in-flight
        cap first, so a saturated or draining gateway answers 429/503
        (with ``Retry-After``) instead of queueing unboundedly.
        """
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        segments = tuple(s for s in path.split("/") if s)
        try:
            route, params = self._match(method.upper(), segments)
            request = GatewayRequest(
                method=method.upper(),
                path=path,
                params=params,
                query=dict(query or {}),
                headers=headers,
                body=body,
                principal=self.principal_from_headers(headers),
            )
            # Encoded in here, so that a payload JSON cannot carry is a 500
            # body like any other failure and not a traceback in the transport.
            if segments in self._HEALTH_PATHS:
                return route.handler(request).encoded()
            self._admit(request.principal)
            try:
                return route.handler(request).encoded()
            finally:
                self._release(request.principal)
        except Exception as exc:  # total: every failure maps to a body
            return error_response(exc)

    def _match(
        self, method: str, segments: Tuple[str, ...]
    ) -> Tuple[Route, Dict[str, str]]:
        allowed: List[str] = []
        for route in self._routes.get(len(segments), ()):
            params = route.match(segments)
            if params is None:
                continue
            if route.method == method:
                return route, params
            allowed.append(route.method)
        if allowed:
            raise MethodNotAllowedError(
                f"{method} not allowed here (try {', '.join(sorted(set(allowed)))})"
            )
        raise RouteNotFoundError(f"no route matches {'/' + '/'.join(segments)}")


__all__ = [
    "BATCH_CONTENT_TYPE",
    "JSON_CONTENT_TYPE",
    "Gateway",
    "GatewayRequest",
    "GatewayResponse",
    "ControlPlaneRouter",
    "DataPlaneRouter",
    "Route",
    "error_response",
]
