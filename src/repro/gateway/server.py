"""Threaded stdlib HTTP server mounting a :class:`Gateway` application.

One :class:`~http.server.ThreadingHTTPServer` (a thread per connection —
matching the fabric's thread-safe, lock-instrumented internals) whose
request handler does nothing but framing: path/query split, body read,
header passthrough, and one socket write per response.  All routing,
validation, error mapping and body encoding live in
:meth:`repro.gateway.routers.Gateway.handle`, so the contract tests that
drive the application object in-process cover exactly what the socket
serves.  A body that cannot be framed never reaches it and closes the
connection: 400 for a ``Content-Length`` that is no number, 411 for
``Transfer-Encoding``, nothing for a peer that hangs up mid-body.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.gateway.errors import LengthRequiredError, MalformedBodyError
from repro.gateway.routers import JSON_CONTENT_TYPE, Gateway, GatewayResponse, error_response


class _GatewayHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    gateway: Gateway


class _GatewayHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: _GatewayHTTPServer

    # The stdlib handler logs every request to stderr by default; a
    # gateway embedded in tests and benchmarks must stay quiet.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    def _dispatch(self) -> None:
        # A body of unknown extent leaves the rest of the connection
        # unreadable as requests, so every answer to one closes it.
        length = (self.headers.get("Content-Length") or "0").strip()
        if self.headers.get("Transfer-Encoding"):
            return self._send(error_response(LengthRequiredError(
                "Transfer-Encoding is not supported; send a Content-Length"
            )), close=True)
        if not length.isdecimal():
            return self._send(error_response(MalformedBodyError(
                f"Content-Length is not a byte count: {length!r}"
            )), close=True)
        body = self.rfile.read(int(length))
        if len(body) < int(length):  # the peer hung up mid-body
            self.close_connection = True
            return
        parsed = urlsplit(self.path)
        self._send(self.server.gateway.handle(
            self.command,
            parsed.path,
            query=dict(parse_qsl(parsed.query)),
            headers=self.headers,
            body=body,
        ))

    def _send(self, response: GatewayResponse, *, close: bool = False) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", JSON_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(response.raw)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        if close:
            self.send_header("Connection", "close")
        # The body joins the buffered head and both leave in one write: a
        # second small send on the unbuffered ``wfile`` would wait out
        # Nagle's algorithm against the client's delayed ACK (~44 ms).
        self._headers_buffer += (b"\r\n", response.raw)
        self.flush_headers()

    do_GET = _dispatch
    do_POST = _dispatch
    do_PUT = _dispatch
    do_DELETE = _dispatch


class GatewayServer:
    """Serve a :class:`Gateway` on a background thread.

    ``port=0`` binds an ephemeral port (the default, so parallel test
    runs never collide); read the bound address back from
    :attr:`address` / :attr:`url`.
    """

    def __init__(
        self, gateway: Gateway, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.gateway = gateway
        self._http = _GatewayHTTPServer((host, port), _GatewayHandler)
        self._http.gateway = gateway
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._http.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "GatewayServer":
        if self._thread is not None:
            raise RuntimeError("gateway server already started")
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            name="repro-gateway-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, *, drain_timeout: float = 5.0) -> None:
        """Gracefully stop: drain the application, then close the socket.

        :meth:`Gateway.begin_drain` flips new requests to 503 ``DRAINING``
        and wakes every parked long-poll, :meth:`Gateway.await_drained`
        waits for in-flight handlers to finish, and only then does the
        listener shut down — so a stop never strands a client mid-poll
        or cuts a response off mid-write.
        """
        if self._thread is None:
            return
        self.gateway.begin_drain()
        self.gateway.await_drained(timeout=drain_timeout)
        self._http.shutdown()
        self._thread.join(timeout=5.0)
        self._http.server_close()
        self._thread = None

    def close(self, *, drain_timeout: float = 5.0) -> None:
        """Alias for :meth:`stop` — the graceful-shutdown entry point."""
        self.stop(drain_timeout=drain_timeout)

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


__all__ = ["GatewayServer"]
