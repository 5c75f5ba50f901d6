"""The gateway application: one route table and one dispatcher.

:class:`Gateway` is transport-agnostic — :meth:`Gateway.handle` takes
``(method, path, query, headers, body)`` and returns a
:class:`GatewayResponse`, so contract tests drive the full routing,
schema-validation, authorization and error-mapping stack in-process,
while :mod:`repro.gateway.server` mounts the same object behind a real
threaded HTTP socket.

Every endpoint is one row of :data:`ROUTES`: method, path pattern,
handler, request model and success status.  A handler is a plain
function ``(gateway, request, body) -> payload`` where ``body`` is the
parsed model (or ``None``); matching, admission, the cluster dependency,
parsing, the status and the JSON encode happen once, in
:meth:`Gateway.handle`.  Administrative rows act through a per-principal
:class:`~repro.fabric.admin.FabricAdmin`, so the admin ``(principal,
operation, resource)`` hook guards each wire operation exactly as it
guards in-process callers; every other row that names a topic is checked
by the cluster's data-plane hook,
:meth:`~repro.fabric.cluster.FabricCluster.authorize`.

The principal is extracted from ``Authorization: Bearer <principal>``
(or ``X-Repro-Principal``); no header means the anonymous principal,
exactly like passing ``principal=None`` in-process.
"""

from __future__ import annotations

import base64
import contextlib
import functools
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Type

from repro.common.retry import RetryPolicy
from repro.common.sync import create_lock
from repro.fabric.admin import AdminAuthorizer, FabricAdmin
from repro.fabric.cluster import FabricCluster, FetchRequest, FetchSession
from repro.fabric.errors import UnknownGroupError
from repro.fabric.record import NO_HEADERS, EventRecord, PackedRecordBatch, PackedView, StoredRecord
from repro.fabric.topic import TopicConfig
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

#: Content type of the packed-batch wire image (the v1 format).  Bodies
#: of this type cross the gateway into storage without re-encoding.
BATCH_CONTENT_TYPE = "application/vnd.repro.batch.v1"

JSON_CONTENT_TYPE = "application/json"


@dataclass
class GatewayRequest:
    """Everything a handler needs, already parsed."""

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
    """What :meth:`Gateway.handle` returns; a handler returns one only to
    answer with a status other than its route's."""

    status: int = 200
    payload: Any = None
    #: The encoded JSON body: ``None`` until :meth:`encoded`, filled in on
    #: every response :meth:`Gateway.handle` returns, so a transport writes bytes.
    raw: Optional[bytes] = None
    #: Extra response headers (e.g. ``Retry-After`` on 429/503).
    headers: Dict[str, str] = field(default_factory=dict)

    def body_bytes(self) -> bytes:
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


#: ``(gateway, request, parsed body or None) -> payload``.
Handler = Callable[["Gateway", GatewayRequest, Any], Any]


@dataclass(frozen=True)
class Route:
    """One row of the route table."""

    method: str
    pattern: str
    handler: Handler
    #: Parses the JSON body before the handler runs; ``None`` for a row
    #: without a body or one that reads its body itself.
    model: Optional[Type[models.Model]] = None
    #: The status of a successful answer.
    status: int = 200
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


def _authorize_read(
    cluster: FabricCluster, principal: Optional[str], topics: Iterable[str]
) -> None:
    """READ on every topic a data-plane row names, before it touches the fabric."""
    for topic in dict.fromkeys(topics):
        cluster.authorize(principal, "READ", topic)


# ----------------------------------------------------------------------- #
# Health probes
# ----------------------------------------------------------------------- #
def healthz(gateway: "Gateway", request: GatewayRequest, body: None) -> Any:
    """Liveness: the process answers — even while draining."""
    return {"status": "ok"}


def readyz(gateway: "Gateway", request: GatewayRequest, body: None) -> Any:
    """Readiness: may this instance take traffic right now?"""
    if gateway.draining or gateway._cluster is None:
        status = "draining" if gateway.draining else "uninitialized"
        return GatewayResponse(503, {"status": status, "ready": False})
    return {"status": "ready", "ready": True}


# ----------------------------------------------------------------------- #
# Administration: metadata, never records
# ----------------------------------------------------------------------- #
def describe_cluster(gateway: "Gateway", request: GatewayRequest, body: None) -> Any:
    return gateway.admin_for(request.principal).describe_cluster()


def list_topics(gateway: "Gateway", request: GatewayRequest, body: None) -> Any:
    return {"topics": gateway.admin_for(request.principal).list_topics()}


def create_topic(gateway: "Gateway", request: GatewayRequest,
                 body: models.TopicCreateRequest) -> Any:
    config = TopicConfig.from_dict(body.config) if body.config else None
    return gateway.admin_for(request.principal).create_topic(body.name, config).describe()


def describe_topic(gateway: "Gateway", request: GatewayRequest, body: None) -> Any:
    return gateway.admin_for(request.principal).describe_topic(request.params["topic"])


def delete_topic(gateway: "Gateway", request: GatewayRequest, body: None) -> Any:
    name = request.params["topic"]
    gateway.admin_for(request.principal).delete_topic(name)
    return {"deleted": name}


def update_config(gateway: "Gateway", request: GatewayRequest,
                  body: models.TopicConfigUpdateRequest) -> Any:
    admin = gateway.admin_for(request.principal)
    return {"config": admin.update_topic_config(request.params["topic"], **body.updates).to_dict()}


def grow_partitions(gateway: "Gateway", request: GatewayRequest,
                    body: models.PartitionGrowRequest) -> Any:
    admin = gateway.admin_for(request.principal)
    return {"config": admin.set_partitions(request.params["topic"], body.num_partitions).to_dict()}


def describe_segments(gateway: "Gateway", request: GatewayRequest, body: None) -> Any:
    partition = request.int_query("partition", None)
    return gateway.admin_for(request.principal).describe_segments(
        request.params["topic"], partition
    )


def fail_broker(gateway: "Gateway", request: GatewayRequest, body: None) -> Any:
    broker_id = request.int_param("broker")
    moved = gateway.admin_for(request.principal).fail_broker(broker_id)
    return {"broker": broker_id, "reassigned": [a.describe() for a in moved]}


def restore_broker(gateway: "Gateway", request: GatewayRequest, body: None) -> Any:
    broker_id = request.int_param("broker")
    gateway.admin_for(request.principal).restore_broker(broker_id)
    return {"broker": broker_id, "online": True}


def run_retention(gateway: "Gateway", request: GatewayRequest, body: None) -> Any:
    topic = request.query.get("topic")
    return {"removed": gateway.admin_for(request.principal).run_retention(topic)}


def list_groups(gateway: "Gateway", request: GatewayRequest, body: None) -> Any:
    return {"groups": gateway.admin_for(request.principal).list_groups()}


def describe_group(gateway: "Gateway", request: GatewayRequest, body: None) -> Any:
    admin = gateway.admin_for(request.principal)
    group_id = request.params["group"]
    if group_id not in admin.list_groups():
        raise UnknownGroupError(f"consumer group {group_id!r} is not known")
    return admin.describe_group(group_id)


# ----------------------------------------------------------------------- #
# Produce, fetch, commit and the consumer-group protocol
# ----------------------------------------------------------------------- #
def produce(gateway: "Gateway", request: GatewayRequest, body: None) -> Any:
    """JSON or wire-format produce; the row has no model because a
    wire-format body is not JSON."""
    cluster = gateway.cluster()
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
        metadata = cluster.append_batch(
            topic, partition, packed, acks=_acks_from_query(request),
            principal=request.principal,
        )
    elif content_type == JSON_CONTENT_TYPE:
        req = models.ProduceRequest.parse(request.json())
        now = cluster.clock.now()
        records = [
            EventRecord(
                value=entry["value"],
                key=entry.get("key"),
                headers=entry.get("headers") or NO_HEADERS,
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
    return {
        "topic": topic,
        "partition": partition,
        "count": len(metadata),
        "base_offset": metadata[0].offset if metadata else None,
        "last_offset": metadata[-1].offset if metadata else None,
    }


def _acks_from_query(request: GatewayRequest) -> object:
    raw = request.query.get("acks", "1")
    if raw in ("0", "1"):
        return int(raw)
    if raw == "all":
        return "all"
    raise SchemaError({"acks": "must be 0, 1 or 'all'"})


def _isolation_from_query(request: GatewayRequest) -> str:
    isolation = request.query.get("isolation", "committed")
    if isolation not in ("committed", "uncommitted"):
        raise SchemaError({"isolation": "must be 'committed' or 'uncommitted'"})
    return isolation


#: Transient fabric errors on the fetch path (a leader mid failover, a
#: flapping broker) retry briefly instead of failing the request.
FETCH_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_backoff=0.025, multiplier=2.0, max_backoff=0.1
)


def _long_poll(
    gateway: "Gateway",
    request: GatewayRequest,
    requests: List[FetchRequest],
    *,
    max_wait_ms: int,
    min_bytes: int,
    **fetch_options: Any,
) -> Dict[Tuple[str, int], PackedView]:
    """Fetch on a pooled session (``fetch_options`` go to
    :meth:`FetchSession.fetch`), and park on the cluster's append signal
    until ``min_bytes`` are served or ``max_wait_ms`` has passed.

    The snapshot-then-wait protocol (read ``append_version`` *before*
    fetching) closes the classic long-poll race: a produce landing
    between an empty fetch and the wait has already moved the version,
    so :meth:`FabricCluster.wait_for_data` returns without blocking and
    the loop re-fetches immediately.  Deadlines ride the cluster clock,
    so the gateway stays free of raw ``time`` calls.

    Transient fabric errors (a leader mid failover, a broker flapping)
    go through :data:`FETCH_RETRY_POLICY` instead of failing the request
    on first touch, and a draining gateway returns whatever the poll has
    so far — :meth:`Gateway.begin_drain` wakes parked waiters via
    :meth:`FabricCluster.interrupt_waiters`, and the drain check here
    turns that wake-up into a prompt return.
    """
    cluster = gateway.cluster()
    clock = cluster.clock
    deadline = clock.now() + max_wait_ms / 1000.0
    with gateway.session(request.principal) as session:
        fetch_once = functools.partial(session.fetch, requests, **fetch_options)
        while True:
            version = cluster.append_version
            served = FETCH_RETRY_POLICY.call(fetch_once, clock=clock)
            if max_wait_ms <= 0 or gateway.draining:
                return served
            if sum(records.size_bytes() for records in served.values()) >= min_bytes:
                return served
            remaining = deadline - clock.now()
            if remaining <= 0:
                return served
            cluster.wait_for_data(version, remaining)


def fetch(gateway: "Gateway", request: GatewayRequest, body: None) -> Any:
    topic = request.params["topic"]
    partition = request.int_param("partition")
    offset = request.int_query("offset", 0)
    served = _long_poll(
        gateway,
        request,
        [FetchRequest(topic, partition, offset)],
        max_records=request.int_query("max_records", 500),
        max_bytes=request.int_query("max_bytes", None),
        max_wait_ms=request.int_query("max_wait_ms", 0),
        min_bytes=request.int_query("min_bytes", 1),
        isolation=_isolation_from_query(request),
    )
    records = [_record_payload(r) for r in served.get((topic, partition), ())]
    cluster = gateway.cluster()
    return {
        "topic": topic,
        "partition": partition,
        "records": records,
        "next_offset": records[-1]["offset"] + 1 if records else offset,
        "high_watermark": cluster.high_watermark(topic, partition),
        "log_end_offset": cluster.end_offset(topic, partition),
    }


def batch_fetch(gateway: "Gateway", request: GatewayRequest,
                body: models.BatchFetchRequest) -> Any:
    served = _long_poll(
        gateway,
        request,
        [FetchRequest(e.topic, e.partition, e.offset, e.max_records) for e in body.requests],
        max_records=body.max_records,
        max_bytes=body.max_bytes,
        max_wait_ms=body.max_wait_ms,
        min_bytes=body.min_bytes,
        isolation=body.isolation,
    )
    return {
        "partitions": [
            {
                "topic": topic,
                "partition": partition,
                "records": [_record_payload(r) for r in records],
            }
            for (topic, partition), records in served.items()
        ]
    }


def topic_offsets(gateway: "Gateway", request: GatewayRequest, body: None) -> Any:
    cluster = gateway.cluster()
    topic = request.params["topic"]
    _authorize_read(cluster, request.principal, [topic])
    end = cluster.end_offsets(topic)
    beginning = cluster.beginning_offsets(topic)
    return {
        "topic": topic,
        "partitions": {
            str(p): {"beginning": beginning.get(p, 0), "end": end[p]} for p in sorted(end)
        },
    }


def commit_offsets(gateway: "Gateway", request: GatewayRequest,
                   body: models.CommitRequest) -> Any:
    cluster = gateway.cluster()
    group_id = request.params["group"]
    offsets = {(e.topic, e.partition): e.offset for e in body.offsets}
    _authorize_read(cluster, request.principal, (topic for topic, _ in offsets))
    committed = cluster.commit_group(
        group_id,
        offsets,
        generation=body.generation,
        member_id=body.member_id,
        metadata=body.metadata,
    )
    return {
        "group": group_id,
        "committed": [
            {"topic": t, "partition": p, "offset": entry.offset}
            for (t, p), entry in sorted(committed.items())
        ],
    }


def committed_offsets(gateway: "Gateway", request: GatewayRequest, body: None) -> Any:
    group_id = request.params["group"]
    offsets = gateway.cluster().offsets.group_offsets(group_id)
    return {
        "group": group_id,
        "offsets": [
            {"topic": t, "partition": p, "offset": offset}
            for (t, p), offset in sorted(offsets.items())
        ],
    }


def join_group(gateway: "Gateway", request: GatewayRequest,
               body: models.JoinGroupRequest) -> Any:
    cluster = gateway.cluster()
    group_id = request.params["group"]
    _authorize_read(cluster, request.principal, body.topics)
    partitions = [tp for topic in body.topics for tp in cluster.partitions_for(topic)]
    member_id, generation, assignment = cluster.groups.join(
        group_id,
        body.client_id,
        body.topics,
        partitions,
        session_timeout=body.session_timeout_seconds,
    )
    return {
        "group": group_id,
        "member_id": member_id,
        "generation": generation,
        "assignment": [list(tp) for tp in assignment],
        "phase": cluster.groups.rebalance_phase(group_id),
    }


def leave_group(gateway: "Gateway", request: GatewayRequest, body: None) -> Any:
    group_id = request.params["group"]
    generation = gateway.cluster().groups.leave(group_id, request.params["member"])
    return {"group": group_id, "generation": generation}


def heartbeat(gateway: "Gateway", request: GatewayRequest,
              body: models.GenerationRequest) -> Any:
    gateway.cluster().groups.heartbeat(
        request.params["group"], request.params["member"], body.generation
    )
    return {"generation": body.generation}


def sync(gateway: "Gateway", request: GatewayRequest,
         body: models.GenerationRequest) -> Any:
    groups = gateway.cluster().groups
    generation, assignment = groups.sync(
        request.params["group"], request.params["member"], body.generation
    )
    return {
        "generation": generation,
        "assignment": [list(tp) for tp in assignment],
        "phase": groups.rebalance_phase(request.params["group"]),
    }


#: The HTTP API, one row per endpoint.
ROUTES: Tuple[Route, ...] = (
    Route("GET", "/v1/healthz", healthz),
    Route("GET", "/v1/readyz", readyz),
    Route("GET", "/v1/cluster", describe_cluster),
    Route("GET", "/v1/topics", list_topics),
    Route("POST", "/v1/topics", create_topic, models.TopicCreateRequest, 201),
    Route("GET", "/v1/topics/{topic}", describe_topic),
    Route("DELETE", "/v1/topics/{topic}", delete_topic),
    Route("PUT", "/v1/topics/{topic}/config", update_config, models.TopicConfigUpdateRequest),
    Route("POST", "/v1/topics/{topic}/partitions", grow_partitions, models.PartitionGrowRequest),
    Route("GET", "/v1/topics/{topic}/segments", describe_segments),
    Route("POST", "/v1/brokers/{broker}/fail", fail_broker),
    Route("POST", "/v1/brokers/{broker}/restore", restore_broker),
    Route("POST", "/v1/retention", run_retention),
    Route("GET", "/v1/groups", list_groups),
    Route("GET", "/v1/groups/{group}", describe_group),
    Route("POST", "/v1/topics/{topic}/partitions/{partition}/records", produce, status=201),
    Route("GET", "/v1/topics/{topic}/partitions/{partition}/records", fetch),
    Route("GET", "/v1/topics/{topic}/offsets", topic_offsets),
    Route("POST", "/v1/fetch", batch_fetch, models.BatchFetchRequest),
    Route("POST", "/v1/groups/{group}/offsets", commit_offsets, models.CommitRequest),
    Route("GET", "/v1/groups/{group}/offsets", committed_offsets),
    Route("POST", "/v1/groups/{group}/members", join_group, models.JoinGroupRequest, 201),
    Route("DELETE", "/v1/groups/{group}/members/{member}", leave_group),
    Route("POST", "/v1/groups/{group}/members/{member}/heartbeat", heartbeat,
          models.GenerationRequest),
    Route("POST", "/v1/groups/{group}/members/{member}/sync", sync, models.GenerationRequest),
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

    #: Routes exempt from admission and the cluster dependency: a load
    #: balancer must be able to probe a saturated, draining or
    #: uninitialized gateway.
    _HEALTH_PATHS = frozenset({("v1", "healthz"), ("v1", "readyz")})

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
        #: By segment count: a request is compared only with routes it can match.
        self._routes: Dict[int, List[Route]] = {}
        for route in ROUTES:
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

    def admin_for(self, principal: Optional[str]) -> FabricAdmin:
        """A control-plane view for ``principal`` over the one authz hook."""
        return self.cluster().admin(principal=principal, authorizer=self._admin_authorizer)

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
        """Run one request through :data:`ROUTES`; never raises — errors
        become JSON bodies.

        Every route takes the same steps in the same order: match the
        route (404/405); admit the request against the drain flag and the
        per-principal in-flight cap (503 ``DRAINING`` / 429, both with
        ``Retry-After``, instead of queueing unboundedly); resolve the
        cluster (503 ``UNINITIALIZED``); parse the body with the row's
        model (400); call the handler; answer its payload with the row's
        status; encode.  Health probes skip admission and the cluster.
        """
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        segments = tuple(s for s in path.split("/") if s)
        try:
            route, params = self._match(method.upper(), segments)
            request = GatewayRequest(
                params=params,
                query=dict(query or {}),
                headers=headers,
                body=body,
                principal=self.principal_from_headers(headers),
            )
            gated = segments not in self._HEALTH_PATHS
            if gated:
                self._admit(request.principal)
            try:
                if gated:
                    self.cluster()
                model = route.model
                payload = route.handler(
                    self, request, None if model is None else model.parse(request.json())
                )
                if not isinstance(payload, GatewayResponse):
                    payload = GatewayResponse(route.status, payload)
                # Encoded in here, so that a payload JSON cannot carry is a 500
                # body like any other failure and not a traceback in the transport.
                return payload.encoded()
            finally:
                if gated:
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
    "ROUTES",
    "Gateway",
    "GatewayRequest",
    "GatewayResponse",
    "Route",
    "error_response",
]
