"""What a request may not pay for twice: schema reflection and route parsing.

Counts, no timers.  A model's annotations are resolved once per class
(``typing.get_type_hints`` compiles every string annotation it reads), a
route's ``{name}`` segments are found once at construction, and a request
is compared only with the routes of its own segment count.  The routing
answers themselves are held to the linear scan this replaced.
"""

import builtins
import dataclasses
import typing

import pytest

from repro.gateway import Gateway, SchemaError
from repro.gateway.models import CommitRequest, ProduceRequest
from repro.gateway import routers
from repro.gateway.routers import ROUTES, Route

PRODUCE = {"records": [{"value": "a", "key": "k"}], "acks": "all"}
COMMIT = {"offsets": [{"topic": "t", "partition": 0, "offset": 3}], "generation": 2}


@pytest.fixture
def reflection_calls(monkeypatch):
    """Calls of ``typing.get_type_hints`` and ``compile`` while it is active."""
    calls = []
    for owner, name in ((typing, "get_type_hints"), (builtins, "compile")):
        original = getattr(owner, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("model, payload", [(ProduceRequest, PRODUCE), (CommitRequest, COMMIT)])
def test_a_warm_model_parses_without_reflection(model, payload, reflection_calls):
    model.parse(payload)
    del reflection_calls[:]
    for _ in range(3):
        parsed = model.parse(payload)
    assert reflection_calls == []
    assert type(parsed) is model


def test_a_warm_model_still_reports_every_offending_field(reflection_calls):
    ProduceRequest.parse(PRODUCE)
    CommitRequest.parse(COMMIT)
    del reflection_calls[:]
    with pytest.raises(SchemaError) as produce:
        ProduceRequest.parse({"records": "nope", "acks": [1], "bogus": 1, "extra": 2})
    with pytest.raises(SchemaError) as commit:
        CommitRequest.parse(
            {"offsets": [{"topic": 1, "partition": "0"}, {"nope": 1}], "metadata": ""}
        )
    assert reflection_calls == []
    assert produce.value.details["fields"] == {
        "bogus": "unknown field",
        "extra": "unknown field",
        "records": "expected array of object, got string",
        "acks": "expected integer or string, got array",
    }
    assert set(commit.value.details["fields"]) == {
        "offsets[0].topic", "offsets[0].partition", "offsets[0].offset",
        "offsets[1].nope", "offsets[1].topic", "offsets[1].partition", "offsets[1].offset",
    }


# ---------------------------------------------------------------------- #
# Routing
# ---------------------------------------------------------------------- #
METHODS = ("GET", "POST", "PUT", "DELETE", "PATCH")


def _concrete_path(route: Route) -> str:
    return "/" + "/".join(
        f"some-{s[1:-1]}" if s.startswith("{") else s for s in route.segments
    )


def _linear_scan(routes, method, segments):
    """The matcher this replaced: every route, braces parsed per request."""
    allowed = []
    for route in routes:
        if len(route.segments) != len(segments):
            continue
        params = {}
        for want, got in zip(route.segments, segments):
            if want.startswith("{") and want.endswith("}"):
                params[want[1:-1]] = got
            elif want != got:
                break
        else:
            if route.method == method:
                return route, params
            allowed.append(route.method)
    if allowed:
        return 405, f"{method} not allowed here (try {', '.join(sorted(set(allowed)))})"
    return 404, f"no route matches {'/' + '/'.join(segments)}"


def _answer(gateway, method, path):
    response = gateway.handle(method, path)
    if response.status in (404, 405) and response.payload["code"] in (
        "UNKNOWN_ROUTE", "METHOD_NOT_ALLOWED"
    ):
        return response.status, response.payload["message"]
    return None


def test_every_route_and_every_refusal_answers_as_the_linear_scan_did():
    gateway = Gateway()  # no cluster: a routed request answers 503, not 404/405
    routes = ROUTES
    assert len(routes) == 25
    paths = [_concrete_path(route) for route in routes]
    paths += ["/", "/v1", "/v1/nope", "/v1/topics/a/b", "/v2/topics", "/v1/a/b/c/d/e/f/g"]
    for path in paths:
        segments = tuple(s for s in path.split("/") if s)
        for method in METHODS:
            expected = _linear_scan(routes, method, segments)
            if isinstance(expected[0], Route):
                route, params = gateway._match(method, segments)
                assert (route, params) == expected
                assert _answer(gateway, method, path) is None
            else:
                assert _answer(gateway, method, path) == expected, (method, path)


def test_a_request_is_compared_only_with_routes_of_its_segment_count(monkeypatch):
    gateway = Gateway()
    examined = []
    match = Route.match
    monkeypatch.setattr(
        Route, "match", lambda self, segments: examined.append(self) or match(self, segments)
    )
    for route in ROUTES:
        for path in (_concrete_path(route), _concrete_path(route).replace("/v1", "/v9")):
            del examined[:]
            gateway.handle(route.method, path)
            assert 1 <= len(examined) <= 9
            assert {len(r.segments) for r in examined} == {len(route.segments)}
    del examined[:]
    assert gateway.handle("GET", "/v1/a/b/c/d/e/f/g").status == 404
    assert examined == []


class _NeverParsed(str):
    """A pattern segment that fails the test if a request makes anyone look
    for its braces."""

    def startswith(self, *args):
        raise AssertionError("route pattern parsed while matching a request")

    endswith = __getitem__ = startswith


def test_matching_a_request_parses_no_braces(monkeypatch):
    # Copies of the rows, because the test rewrites their segments.
    monkeypatch.setattr(routers, "ROUTES", tuple(dataclasses.replace(r) for r in ROUTES))
    gateway = Gateway()
    routes = [route for routes in gateway._routes.values() for route in routes]
    assert len(routes) == 25
    paths = {route: _concrete_path(route) for route in routes}
    for route in routes:
        assert route.names == tuple(
            s[1:-1] if s.startswith("{") else "" for s in route.segments
        )
        object.__setattr__(route, "segments", tuple(map(_NeverParsed, route.segments)))
    for route, path in paths.items():
        matched, params = gateway._match(route.method, tuple(path.split("/")[1:]))
        assert matched is route
        assert params == {name: f"some-{name}" for name in route.names if name}
    # What a client puts between the slashes is a value, whatever it looks like.
    _, params = gateway._match("GET", ("v1", "topics", "{topic}"))
    assert params == {"topic": "{topic}"}
