"""The HTTP contract of every route, generated from the route table.

Every row of :data:`repro.gateway.routers.ROUTES` needs a sample request
in :data:`SAMPLES`, so a route cannot ship without its contract:

* on an uninitialized gateway every non-health row answers 503
  ``UNINITIALIZED``, even when its body also breaks the schema — the
  dependency is checked before the body is parsed;
* every row with a model answers 400 ``SCHEMA_VIOLATION`` naming an
  unknown key and every required field;
* every row answers 403 when both authorization hooks deny, except the
  rows in :data:`UNAUTHORIZED`, each exempt for the reason given there.

The README's endpoint table lists exactly the rows of the route table.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.gateway import Gateway
from repro.gateway.routers import ROUTES

RECORDS = "/v1/topics/{topic}/partitions/{partition}/records"
MEMBER = "/v1/groups/{group}/members/{member}"
OFFSET = {"topic": "t", "partition": 0, "offset": 0}

#: ``(method, pattern) -> (path, well-formed JSON body or None)``.
SAMPLES = {
    ("GET", "/v1/healthz"): ("/v1/healthz", None),
    ("GET", "/v1/readyz"): ("/v1/readyz", None),
    ("GET", "/v1/cluster"): ("/v1/cluster", None),
    ("GET", "/v1/topics"): ("/v1/topics", None),
    ("POST", "/v1/topics"): ("/v1/topics", {"name": "t"}),
    ("GET", "/v1/topics/{topic}"): ("/v1/topics/t", None),
    ("DELETE", "/v1/topics/{topic}"): ("/v1/topics/t", None),
    ("PUT", "/v1/topics/{topic}/config"): (
        "/v1/topics/t/config", {"updates": {"retention_seconds": 60.0}}
    ),
    ("POST", "/v1/topics/{topic}/partitions"): (
        "/v1/topics/t/partitions", {"num_partitions": 2}
    ),
    ("GET", "/v1/topics/{topic}/segments"): ("/v1/topics/t/segments", None),
    ("POST", "/v1/brokers/{broker}/fail"): ("/v1/brokers/0/fail", None),
    ("POST", "/v1/brokers/{broker}/restore"): ("/v1/brokers/0/restore", None),
    ("POST", "/v1/retention"): ("/v1/retention", None),
    ("GET", "/v1/groups"): ("/v1/groups", None),
    ("GET", "/v1/groups/{group}"): ("/v1/groups/g", None),
    ("POST", RECORDS): ("/v1/topics/t/partitions/0/records", {"records": [{"value": "x"}]}),
    ("GET", RECORDS): ("/v1/topics/t/partitions/0/records", None),
    ("GET", "/v1/topics/{topic}/offsets"): ("/v1/topics/t/offsets", None),
    ("POST", "/v1/fetch"): ("/v1/fetch", {"requests": [OFFSET]}),
    ("POST", "/v1/groups/{group}/offsets"): ("/v1/groups/g/offsets", {"offsets": [OFFSET]}),
    ("GET", "/v1/groups/{group}/offsets"): ("/v1/groups/g/offsets", None),
    ("POST", "/v1/groups/{group}/members"): (
        "/v1/groups/g/members", {"client_id": "c", "topics": ["t"]}
    ),
    ("DELETE", MEMBER): ("/v1/groups/g/members/m", None),
    ("POST", MEMBER + "/heartbeat"): ("/v1/groups/g/members/m/heartbeat", {"generation": 0}),
    ("POST", MEMBER + "/sync"): ("/v1/groups/g/members/m/sync", {"generation": 0}),
}

HEALTH = {("GET", "/v1/healthz"), ("GET", "/v1/readyz")}

#: Rows that consult neither authorization hook, and why.
UNAUTHORIZED = {
    ("GET", "/v1/healthz"): "a load balancer probes it without credentials",
    ("GET", "/v1/readyz"): "a load balancer probes it without credentials",
    ("GET", "/v1/groups/{group}/offsets"): "names a group, no topic",
    ("DELETE", MEMBER): "names a group member, no topic",
    ("POST", MEMBER + "/heartbeat"): "names a group member, no topic",
    ("POST", MEMBER + "/sync"): "names a group member, no topic",
}


def _key(route):
    return route.method, route.pattern


def _call(client, route, body):
    path, _ = SAMPLES[_key(route)]
    return client.request(route.method, path, json_body=body, principal="mallory")


def _rows(predicate):
    rows = [route for route in ROUTES if predicate(route)]
    return pytest.mark.parametrize("route", rows, ids=["".join(_key(r)) for r in rows])


def test_every_row_has_a_sample_and_every_exemption_a_row():
    assert set(SAMPLES) == {_key(route) for route in ROUTES}
    assert len(ROUTES) == 25
    assert HEALTH <= set(UNAUTHORIZED) <= set(SAMPLES)


@_rows(lambda route: _key(route) not in HEALTH)
def test_an_uninitialized_gateway_answers_503_before_reading_the_body(route, make_client):
    response = _call(make_client(Gateway()), route, {"bogus": 1})
    assert response.status == 503, response.payload
    assert response.payload["code"] == "UNINITIALIZED"


@_rows(lambda route: route.model is not None)
def test_a_schema_violation_names_the_unknown_key_and_every_required_field(route, client):
    response = _call(client, route, {"bogus": 1})
    assert response.status == 400, response.payload
    assert response.payload["code"] == "SCHEMA_VIOLATION"
    required = {
        f.name for f in dataclasses.fields(route.model)
        if f.default is f.default_factory is dataclasses.MISSING
    }
    assert required
    assert set(response.payload["details"]["fields"]) == required | {"bogus"}


@pytest.fixture
def denied(cluster, make_client):
    """A cluster with topic ``t`` behind two hooks that deny everyone."""
    cluster.admin().create_topic("t")
    cluster.admin().set_authorizer(lambda principal, operation, topic: False)
    return make_client(Gateway(cluster, admin_authorizer=lambda *args: False))


@_rows(lambda route: True)
def test_every_row_but_the_exempt_ones_answers_403_when_denied(route, denied):
    response = _call(denied, route, SAMPLES[_key(route)][1])
    if _key(route) in UNAUTHORIZED:
        assert response.status != 403, UNAUTHORIZED[_key(route)]
    else:
        assert response.status == 403, response.payload
        assert response.payload["code"] == "AUTHORIZATION_FAILED"


def test_the_readme_lists_exactly_the_routes():
    readme = (Path(__file__).resolve().parents[2] / "README.md").read_text()
    api = readme.split("## HTTP API", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| (GET|POST|PUT|DELETE) \| `([^`]+)` \|", api, re.MULTILINE))
    assert rows == {_key(route) for route in ROUTES}
