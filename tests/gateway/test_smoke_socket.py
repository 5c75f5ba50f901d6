"""End-to-end smoke over a real HTTP socket.

The contract suites drive the :class:`Gateway` application object
in-process; this file proves the same object behind
:class:`GatewayServer` speaks actual HTTP — framing, content types,
status codes, wire-format passthrough bodies — using nothing but
``urllib`` from the stdlib.  CI runs this as the gateway smoke job.

Two groups go below HTTP libraries.  The framing regressions speak raw
bytes on a socket, because no client library will send a request that
lies about its body.  The write counts wrap the one method every byte
of a response passes through (``socketserver._SocketWriter.write``): a
response is one message, and a second small write is a ~44 ms stall
(Nagle's algorithm against the client's delayed ACK), so they count
writes and time nothing.
"""

import dataclasses
import http.client
import json
import socket
import socketserver
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.fabric.cluster import FabricCluster
from repro.fabric.record import EventRecord, PackedRecordBatch
from repro.gateway import BATCH_CONTENT_TYPE, Gateway, GatewayResponse, GatewayServer, routers


@pytest.fixture
def server():
    cluster = FabricCluster(num_brokers=3, name="socket-smoke")
    with GatewayServer(Gateway(cluster)) as srv:
        yield srv


def _call(server, method, path, *, json_body=None, body=b"", headers=None):
    headers = dict(headers or {})
    if json_body is not None:
        body = json.dumps(json_body).encode()
        headers.setdefault("Content-Type", "application/json")
    request = urllib.request.Request(
        server.url + path, data=body or None, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read() or b"null")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"null")


def test_produce_fetch_commit_round_trip_over_the_socket(server):
    status, _ = _call(
        server, "POST", "/v1/topics", json_body={"name": "events"}
    )
    assert status == 201

    status, produced = _call(
        server,
        "POST",
        "/v1/topics/events/partitions/0/records",
        json_body={"records": [{"value": "one"}, {"value": "two", "key": "k"}]},
    )
    assert status == 201
    assert produced["count"] == 2

    status, fetched = _call(
        server, "GET", "/v1/topics/events/partitions/0/records?offset=0"
    )
    assert status == 200
    assert [r["value"] for r in fetched["records"]] == ["one", "two"]

    status, committed = _call(
        server,
        "POST",
        "/v1/groups/readers/offsets",
        json_body={"offsets": [{"topic": "events", "partition": 0, "offset": 2}]},
    )
    assert status == 200
    assert committed["committed"][0]["offset"] == 2

    status, read_back = _call(server, "GET", "/v1/groups/readers/offsets")
    assert status == 200
    assert read_back["offsets"] == [
        {"topic": "events", "partition": 0, "offset": 2}
    ]


def test_wire_format_batch_over_the_socket(server):
    _call(server, "POST", "/v1/topics", json_body={"name": "bin"})
    wire = (
        PackedRecordBatch.from_events(
            [EventRecord(value="wire-" + "x" * 100)]
        )
        .seal_wire("gzip")
        .to_bytes()
    )
    status, produced = _call(
        server,
        "POST",
        "/v1/topics/bin/partitions/0/records",
        body=wire,
        headers={"Content-Type": BATCH_CONTENT_TYPE},
    )
    assert status == 201
    assert produced["count"] == 1

    status, fetched = _call(
        server, "GET", "/v1/topics/bin/partitions/0/records"
    )
    assert status == 200
    assert fetched["records"][0]["value"] == "wire-" + "x" * 100


def test_error_statuses_cross_the_socket(server):
    status, body = _call(server, "GET", "/v1/topics/ghost")
    assert status == 404
    assert body["code"] == "UNKNOWN_TOPIC"

    status, body = _call(server, "POST", "/v1/topics", json_body={"bad": 1})
    assert status == 400
    assert body["code"] == "SCHEMA_VIOLATION"

    status, body = _call(server, "PUT", "/v1/topics")
    assert status == 405


def test_uninitialized_gateway_503s_over_the_socket():
    with GatewayServer(Gateway()) as server:
        status, body = _call(server, "GET", "/v1/topics")
        assert status == 503
        assert body["code"] == "UNINITIALIZED"
        assert body["retriable"] is True


def test_concurrent_requests_share_the_session_pool(server):
    import threading

    _call(server, "POST", "/v1/topics", json_body={"name": "t"})
    _call(
        server,
        "POST",
        "/v1/topics/t/partitions/0/records",
        json_body={"records": [{"value": "x"}]},
    )
    results = []
    lock = threading.Lock()

    def fetch():
        status, body = _call(
            server, "GET", "/v1/topics/t/partitions/0/records"
        )
        with lock:
            results.append((status, [r["value"] for r in body["records"]]))

    threads = [threading.Thread(target=fetch) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert results == [(200, ["x"])] * 8


# ---------------------------------------------------------------------- #
# Request framing errors (raw socket)
# ---------------------------------------------------------------------- #
RECORDS = "/v1/topics/events/partitions/0/records"
ONE_RECORD = b'{"records": [{"value": "a"}]}'


def _raw_exchange(server, request: bytes) -> bytes:
    """Send ``request``, half-close, and return everything the server says
    until it closes the connection."""
    received = []
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        try:
            while chunk := sock.recv(65536):
                received.append(chunk)
        except ConnectionResetError:
            # The server closed with request bytes still unread.
            pass
    return b"".join(received)


def _split_response(raw: bytes):
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    assert len(body) == int(headers["Content-Length"]), "more than one response"
    return int(status_line.split()[1]), headers, json.loads(body)


@pytest.fixture
def events_server(server):
    assert _call(server, "POST", "/v1/topics", json_body={"name": "events"})[0] == 201
    return server


def _end_offset(server) -> int:
    return server.gateway.cluster().end_offset("events", 0)


def test_content_length_that_is_not_a_number_is_a_400(events_server, capfd):
    raw = _raw_exchange(
        events_server,
        b"POST " + RECORDS.encode() + b" HTTP/1.1\r\nHost: x\r\n"
        b"Content-Type: application/json\r\nContent-Length: abc\r\n\r\n" + ONE_RECORD,
    )
    status, headers, body = _split_response(raw)
    assert (status, body["code"]) == (400, "MALFORMED_BODY")
    assert headers["Connection"] == "close"
    assert _end_offset(events_server) == 0
    assert capfd.readouterr().err == ""


def test_chunked_request_is_a_411_and_its_chunks_are_not_a_next_request(
    events_server, capfd
):
    chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(ONE_RECORD), ONE_RECORD)
    raw = _raw_exchange(
        events_server,
        b"POST " + RECORDS.encode() + b" HTTP/1.1\r\nHost: x\r\n"
        b"Content-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n" + chunked,
    )
    status, headers, body = _split_response(raw)
    assert (status, body["code"]) == (411, "LENGTH_REQUIRED")
    assert headers["Connection"] == "close"
    assert _end_offset(events_server) == 0
    assert capfd.readouterr().err == ""


def test_body_shorter_than_content_length_is_never_dispatched(events_server, capfd):
    # The part that arrives is a valid produce on its own; it must not count.
    raw = _raw_exchange(
        events_server,
        b"POST " + RECORDS.encode() + b" HTTP/1.1\r\nHost: x\r\n"
        b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
        % (len(ONE_RECORD) + 40) + ONE_RECORD,
    )
    assert raw == b""
    assert _end_offset(events_server) == 0
    assert capfd.readouterr().err == ""


# ---------------------------------------------------------------------- #
# One socket write per response
# ---------------------------------------------------------------------- #
@pytest.fixture
def socket_writes(monkeypatch):
    """Sizes of the writes the server's handlers made, in order."""
    writes = []
    write = socketserver._SocketWriter.write

    def counting_write(self, data):
        writes.append(len(data))
        return write(self, data)

    monkeypatch.setattr(socketserver._SocketWriter, "write", counting_write)
    return writes


class _KeepAlive:
    """One ``http.client`` connection; ``call`` returns (status, headers, body)."""

    def __init__(self, server):
        self.connection = http.client.HTTPConnection(*server.address, timeout=10)

    def call(self, method, path, json_body=None, headers=None):
        body = None if json_body is None else json.dumps(json_body).encode()
        self.connection.request(method, path, body=body, headers=headers or {})
        response = self.connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()

    def close(self):
        self.connection.close()


def _serve_healthz_with(monkeypatch, handler):
    """Route ``/v1/healthz`` to ``handler`` in every Gateway built afterwards."""
    monkeypatch.setattr(routers, "ROUTES", tuple(
        dataclasses.replace(route, handler=handler) if route.pattern == "/v1/healthz" else route
        for route in routers.ROUTES
    ))


def test_every_response_is_one_socket_write(monkeypatch, socket_writes):
    _serve_healthz_with(monkeypatch, lambda gateway, request, body: GatewayResponse(204))
    cluster = FabricCluster(num_brokers=3, name="one-write")
    with GatewayServer(Gateway(cluster)) as server:
        client = _KeepAlive(server)
        try:
            status, _, body = client.call("GET", "/v1/healthz")
            assert (status, body) == (204, b"")  # no body at all
            assert client.call("GET", "/v1/readyz")[0] == 200  # a small one
            assert client.call("POST", "/v1/topics", {"name": "events"})[0] == 201
            records = [{"value": "x" * 1024} for _ in range(100)]
            assert client.call("POST", RECORDS, {"records": records})[0] == 201
            status, _, body = client.call("GET", RECORDS + "?offset=0")
            assert status == 200 and len(body) > 64 * 1024
            assert len(json.loads(body)["records"]) == 100
            assert client.call("GET", "/v1/topics/ghost")[0] == 404
            assert client.call("PUT", "/v1/topics")[0] == 405
        finally:
            client.close()
    assert len(socket_writes) == 7
    assert max(socket_writes) > 64 * 1024


def test_retry_after_responses_are_one_socket_write(socket_writes):
    cluster = FabricCluster(num_brokers=1, name="one-write-degraded")
    cluster.admin().create_topic("events")
    gateway = Gateway(cluster, max_inflight_per_principal=1)
    with GatewayServer(gateway) as server:
        parked, client = _KeepAlive(server), _KeepAlive(server)
        polled = []
        poll = threading.Thread(
            target=lambda: polled.append(
                parked.call("GET", RECORDS + "?offset=0&max_wait_ms=10000")
            )
        )
        poll.start()
        try:
            deadline = time.monotonic() + 5
            while gateway.inflight() == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            status, headers, _ = client.call("GET", "/v1/topics")
            assert (status, headers["Retry-After"]) == (429, "1")
            assert len(socket_writes) == 1
            gateway.begin_drain()
            poll.join(timeout=5)
            assert not poll.is_alive() and polled[0][0] == 200
            status, headers, _ = client.call("GET", "/v1/topics")
            assert (status, headers["Retry-After"]) == (503, "1")
            assert len(socket_writes) == 3
        finally:
            gateway.begin_drain()
            poll.join(timeout=5)
            parked.close()
            client.close()


def test_unencodable_payload_is_a_json_500_and_the_connection_lives(
    monkeypatch, socket_writes, capfd
):
    _serve_healthz_with(monkeypatch, lambda gateway, request, body: {"oops": object()})
    with GatewayServer(Gateway(FabricCluster(num_brokers=1))) as server:
        client = _KeepAlive(server)
        try:
            status, headers, body = client.call("GET", "/v1/healthz")
            assert status == 500
            assert headers["Content-Type"] == "application/json"
            assert json.loads(body) == {
                "code": "INTERNAL",
                "message": "internal gateway error",
                "retriable": False,
            }
            assert client.call("GET", "/v1/readyz")[0] == 200
        finally:
            client.close()
    assert len(socket_writes) == 2
    assert capfd.readouterr().err == ""
