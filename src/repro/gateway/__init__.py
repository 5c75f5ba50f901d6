"""HTTP front door for the event fabric.

Public API boundary
-------------------
``repro.gateway`` is the supported network surface over the in-process
fabric: a stdlib-only HTTP gateway with a schema'd control plane
(wrapping :class:`~repro.fabric.admin.FabricAdmin`) and a data plane
(produce / long-poll fetch / offset commit / consumer groups).  The
names re-exported here — and nothing else under this package — are the
supported surface:

* :class:`Gateway` — the transport-agnostic application object; drive
  :meth:`~repro.gateway.routers.Gateway.handle` directly in tests.
* :class:`GatewayServer` — mounts a :class:`Gateway` behind a real
  threaded HTTP socket (ephemeral port by default).
* ``error_body`` / the ``GatewayError`` hierarchy — the one mapping from
  the fabric error taxonomy to stable ``{code, message, retriable}``
  JSON bodies.

Run ``python -m repro.gateway`` for a self-contained demo server.
"""

from repro.gateway.errors import (
    FABRIC_STATUS,
    DrainingError,
    GatewayError,
    LengthRequiredError,
    MalformedBodyError,
    MethodNotAllowedError,
    RouteNotFoundError,
    SchemaError,
    ServiceUnavailableError,
    TooManyRequestsError,
    UnsupportedMediaTypeError,
    error_body,
)
from repro.gateway.routers import (
    BATCH_CONTENT_TYPE,
    JSON_CONTENT_TYPE,
    Gateway,
    GatewayRequest,
    GatewayResponse,
)
from repro.gateway.server import GatewayServer

__all__ = [
    "BATCH_CONTENT_TYPE",
    "JSON_CONTENT_TYPE",
    "DrainingError",
    "FABRIC_STATUS",
    "Gateway",
    "GatewayError",
    "GatewayRequest",
    "GatewayResponse",
    "GatewayServer",
    "LengthRequiredError",
    "MalformedBodyError",
    "MethodNotAllowedError",
    "RouteNotFoundError",
    "SchemaError",
    "ServiceUnavailableError",
    "TooManyRequestsError",
    "UnsupportedMediaTypeError",
    "error_body",
]
