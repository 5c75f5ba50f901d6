"""One error-mapping layer: fabric taxonomy -> stable HTTP error bodies.

Every failure the gateway can produce — schema validation, routing,
authorization, any :class:`~repro.fabric.errors.FabricError` raised by
the control or data plane — is rendered by :func:`error_body` into the
same machine-readable JSON shape::

    {"code": "UNKNOWN_TOPIC", "message": "...", "retriable": false,
     "details": {...}}           # details only when there is any

``code`` and ``retriable`` come straight from the fabric error classes
(:mod:`repro.fabric.errors` gives every class both attributes), so the
mapping below only has to supply the HTTP *status*.  The mapper is total:
an unlisted ``FabricError`` subclass falls back to its nearest listed
ancestor, and a non-fabric exception maps to 500 ``INTERNAL`` without
leaking its message.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping, Optional, Tuple, Type

from repro.fabric import errors as fabric_errors


class GatewayError(Exception):
    """Base for errors raised by the gateway itself (not the fabric)."""

    status = 500
    code = "INTERNAL"
    retriable = False
    #: Seconds a client should back off; errors that set one answer with a
    #: ``Retry-After`` header.
    retry_after: Optional[float] = None

    def __init__(
        self,
        message: str,
        *,
        details: Optional[Mapping[str, Any]] = None,
        retry_after: Optional[float] = None,
    ):
        super().__init__(message)
        self.details = dict(details) if details else None
        if retry_after is not None:
            self.retry_after = retry_after
        self.headers: Dict[str, str] = {}
        if self.retry_after is not None:
            # ``Retry-After`` wants whole seconds; round up, floor at 1.
            self.headers["Retry-After"] = str(max(1, math.ceil(self.retry_after)))


class SchemaError(GatewayError):
    """Request body failed schema validation; ``details`` names the fields.

    ``details`` maps field name -> human-readable reason, so a client can
    highlight exactly which inputs to fix.
    """

    status = 400
    code = "SCHEMA_VIOLATION"

    def __init__(self, field_errors: Mapping[str, str]):
        fields = ", ".join(sorted(field_errors))
        super().__init__(
            f"request failed schema validation: {fields}",
            details={"fields": dict(field_errors)},
        )


class MalformedBodyError(GatewayError):
    """Request body is not parseable (bad JSON, bad wire image framing)."""

    status = 400
    code = "MALFORMED_BODY"


class UnsupportedMediaTypeError(GatewayError):
    """Content-Type the endpoint does not accept."""

    status = 415
    code = "UNSUPPORTED_MEDIA_TYPE"


class RouteNotFoundError(GatewayError):
    """No route matches the request path."""

    status = 404
    code = "UNKNOWN_ROUTE"


class MethodNotAllowedError(GatewayError):
    """The path exists but not under this HTTP method."""

    status = 405
    code = "METHOD_NOT_ALLOWED"


class ServiceUnavailableError(GatewayError):
    """A gateway dependency (the cluster) is not initialized yet.

    The 503-on-uninitialized-dependency contract: requests arriving
    before :meth:`repro.gateway.routers.Gateway.attach` wires a cluster
    are answered with a retriable 503, never a traceback.
    """

    status = 503
    code = "UNINITIALIZED"
    retriable = True


class LengthRequiredError(GatewayError):
    """A request body framed by anything but ``Content-Length``."""

    status = 411
    code = "LENGTH_REQUIRED"


class TooManyRequestsError(GatewayError):
    """Per-principal in-flight cap exceeded (graceful degradation).

    Carries a ``Retry-After`` header (whole seconds, rounded up) so
    well-behaved clients back off instead of hammering a saturated
    gateway; ``retriable`` is true because the condition is transient by
    construction — in-flight requests drain.
    """

    status = 429
    code = "TOO_MANY_REQUESTS"
    retriable = True
    retry_after = 1.0


class DrainingError(GatewayError):
    """The gateway is shutting down and no longer admits new requests.

    Raised for every non-health route once
    :meth:`repro.gateway.routers.Gateway.begin_drain` runs; in-flight
    requests finish, parked long-polls wake and return what they have.
    A load balancer should retry against another instance — hence
    retriable plus ``Retry-After``.
    """

    status = 503
    code = "DRAINING"
    retriable = True
    retry_after = 1.0


#: FabricError class -> HTTP status.  ``code``/``retriable`` ride on the
#: exception classes themselves; see module docstring for the fallback
#: rules that make the mapping total.
FABRIC_STATUS: Dict[Type[fabric_errors.FabricError], int] = {
    fabric_errors.UnknownTopicError: 404,
    fabric_errors.UnknownPartitionError: 404,
    fabric_errors.UnknownBrokerError: 404,
    fabric_errors.UnknownGroupError: 404,
    fabric_errors.TopicAlreadyExistsError: 409,
    fabric_errors.NotLeaderError: 503,
    fabric_errors.FencedLeaderError: 503,
    fabric_errors.NotEnoughReplicasError: 503,
    fabric_errors.BrokerUnavailableError: 503,
    fabric_errors.AuthorizationError: 403,
    fabric_errors.OffsetOutOfRangeError: 416,
    fabric_errors.RecordTooLargeError: 413,
    fabric_errors.CorruptBatchError: 422,
    fabric_errors.UnknownCodecError: 415,
    fabric_errors.InvalidConfigError: 400,
    fabric_errors.InvalidRequestError: 400,
    fabric_errors.RebalanceInProgressError: 409,
    fabric_errors.IllegalGenerationError: 409,
    fabric_errors.CommitFailedError: 409,
    fabric_errors.FabricError: 500,
}


def error_body(exc: BaseException) -> Tuple[int, Dict[str, Any]]:
    """Map any exception to ``(http_status, json_body)``.

    Resolution order: gateway errors carry their own status; fabric
    errors look up :data:`FABRIC_STATUS` along their MRO (so a subclass
    introduced later inherits its parent's status rather than crashing
    the mapper); everything else is an internal error whose message is
    deliberately not echoed to the client.
    """
    if isinstance(exc, GatewayError):
        status = exc.status
    elif isinstance(exc, fabric_errors.FabricError):
        status = next(FABRIC_STATUS[k] for k in type(exc).__mro__ if k in FABRIC_STATUS)
    else:
        return 500, {
            "code": "INTERNAL",
            "message": "internal gateway error",
            "retriable": False,
        }
    body: Dict[str, Any] = {"code": exc.code, "message": str(exc), "retriable": exc.retriable}
    if isinstance(exc, GatewayError) and exc.details:
        body["details"] = exc.details
    return status, body


__all__ = [
    "GatewayError",
    "SchemaError",
    "MalformedBodyError",
    "UnsupportedMediaTypeError",
    "RouteNotFoundError",
    "MethodNotAllowedError",
    "ServiceUnavailableError",
    "LengthRequiredError",
    "TooManyRequestsError",
    "DrainingError",
    "FABRIC_STATUS",
    "error_body",
]
