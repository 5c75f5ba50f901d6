"""Contract tests for the gateway data plane.

Produce (JSON and wire-format passthrough), long-poll fetch (early wake
on appends and deadline timeout), batched fetch over one session, group
offset commits and the cooperative consumer-group protocol — plus the
fabric error taxonomy surfacing with correct statuses and stable codes.
"""

import base64
import json
import threading
import time

import pytest

from repro.fabric.record import EventRecord, PackedRecordBatch
from repro.gateway import BATCH_CONTENT_TYPE


@pytest.fixture
def topic(client):
    client.post("/v1/topics", json_body={"name": "t", "config": {"num_partitions": 2}})
    return "t"


class TestProduceJSON:
    def test_produce_and_fetch_round_trip(self, client, topic):
        produced = client.post(
            "/v1/topics/t/partitions/0/records",
            json_body={
                "records": [
                    {"value": "a"},
                    {"value": "b", "key": "k", "headers": {"h": "1"}},
                ]
            },
        )
        assert produced.status == 201
        assert produced.payload["base_offset"] == 0
        assert produced.payload["last_offset"] == 1
        assert produced.payload["count"] == 2

        fetched = client.get("/v1/topics/t/partitions/0/records")
        assert fetched.status == 200
        records = fetched.payload["records"]
        assert [r["value"] for r in records] == ["a", "b"]
        assert records[1]["key"] == "k"
        assert records[1]["headers"] == {"h": "1"}
        assert fetched.payload["next_offset"] == 2
        assert fetched.payload["high_watermark"] == 2

    def test_produce_schema_violations_are_field_detailed(self, client, topic):
        response = client.post(
            "/v1/topics/t/partitions/0/records",
            json_body={
                "records": [{"key": "no-value"}, {"value": "ok", "extra": 1}],
                "acks": 2,
            },
        )
        assert response.status == 400
        fields = response.payload["details"]["fields"]
        assert "records[0].value" in fields
        assert "records[1].extra" in fields
        assert "acks" in fields

    def test_produce_to_unknown_topic_is_404(self, client):
        response = client.post(
            "/v1/topics/ghost/partitions/0/records",
            json_body={"records": [{"value": "x"}]},
        )
        assert response.status == 404
        assert response.payload["code"] == "UNKNOWN_TOPIC"

    def test_produce_to_unknown_partition_is_404(self, client, topic):
        response = client.post(
            "/v1/topics/t/partitions/9/records",
            json_body={"records": [{"value": "x"}]},
        )
        assert response.status == 404
        assert response.payload["code"] == "UNKNOWN_PARTITION"

    def test_acks_all_is_accepted(self, client, topic):
        response = client.post(
            "/v1/topics/t/partitions/0/records",
            json_body={"records": [{"value": "x"}], "acks": "all"},
        )
        assert response.status == 201


class TestProduceWireFormat:
    def test_sealed_compressed_batch_crosses_untouched(self, client, cluster, topic):
        wire = (
            PackedRecordBatch.from_events(
                [EventRecord(value="v" * 200), EventRecord(value=b"\x00\x01raw")]
            )
            .seal_wire("gzip")
            .to_bytes()
        )
        produced = client.post(
            "/v1/topics/t/partitions/0/records",
            body=wire,
            headers={"Content-Type": BATCH_CONTENT_TYPE},
        )
        assert produced.status == 201
        assert produced.payload["count"] == 2

        fetched = client.get("/v1/topics/t/partitions/0/records")
        records = fetched.payload["records"]
        assert records[0]["value"] == "v" * 200
        # Binary values ride JSON base64'd with an explicit marker.
        assert records[1]["value_encoding"] == "base64"
        assert base64.b64decode(records[1]["value"]) == b"\x00\x01raw"

    def test_corrupt_wire_body_is_422(self, client, topic):
        response = client.post(
            "/v1/topics/t/partitions/0/records",
            body=b"\xb4\x01garbage-bytes",
            headers={"Content-Type": BATCH_CONTENT_TYPE},
        )
        assert response.status == 422
        assert response.payload["code"] == "CORRUPT_BATCH"

    def test_body_without_v1_magic_is_rejected_before_adoption(self, client, topic):
        """Regression: a body not starting 0xB4 0x01 used to parse as a
        "v0" image (count u32 + raw payload, no CRC), so the leader adopted
        and replicated two offsets *before* the 422 — and every later read
        of the partition from offset 0 raised forever."""
        response = client.post(
            "/v1/topics/t/partitions/0/records",
            body=b"\x00\x00\x00\x02garbage!",
            headers={"Content-Type": BATCH_CONTENT_TYPE},
        )
        assert response.status == 422
        assert response.payload["code"] == "CORRUPT_BATCH"
        offsets = client.get("/v1/topics/t/offsets").payload["partitions"]["0"]
        assert offsets == {"beginning": 0, "end": 0}  # nothing was adopted

        produced = client.post(
            "/v1/topics/t/partitions/0/records",
            json_body={"records": [{"value": "good"}]},
        )
        assert produced.status == 201
        assert produced.payload["base_offset"] == 0
        fetched = client.get("/v1/topics/t/partitions/0/records", query={"offset": "0"})
        assert fetched.status == 200
        assert [r["value"] for r in fetched.payload["records"]] == ["good"]

    def test_empty_wire_body_is_400(self, client, topic):
        response = client.post(
            "/v1/topics/t/partitions/0/records",
            body=b"",
            headers={"Content-Type": BATCH_CONTENT_TYPE},
        )
        assert response.status == 400
        assert response.payload["code"] == "MALFORMED_BODY"

    def test_unsupported_content_type_is_415(self, client, topic):
        response = client.post(
            "/v1/topics/t/partitions/0/records",
            body=b"<xml/>",
            headers={"Content-Type": "application/xml"},
        )
        assert response.status == 415
        assert response.payload["code"] == "UNSUPPORTED_MEDIA_TYPE"


class TestLongPollFetch:
    def test_fetch_without_wait_returns_immediately(self, client, topic):
        response = client.get("/v1/topics/t/partitions/0/records")
        assert response.status == 200
        assert response.payload["records"] == []

    def test_long_poll_wakes_early_on_append(self, client, cluster, topic):
        responses = {}

        def poll():
            responses["r"] = client.get(
                "/v1/topics/t/partitions/0/records",
                query={"max_wait_ms": "5000"},
            )

        start = time.monotonic()
        poller = threading.Thread(target=poll)
        poller.start()
        time.sleep(0.1)
        cluster.append("t", 0, EventRecord(value="wake"))
        poller.join(timeout=5.0)
        elapsed = time.monotonic() - start

        assert not poller.is_alive()
        response = responses["r"]
        assert response.status == 200
        assert [r["value"] for r in response.payload["records"]] == ["wake"]
        # Early wake: nowhere near the 5 s deadline.
        assert elapsed < 2.0

    def test_long_poll_times_out_empty(self, client, topic):
        start = time.monotonic()
        response = client.get(
            "/v1/topics/t/partitions/0/records", query={"max_wait_ms": "200"}
        )
        elapsed = time.monotonic() - start
        assert response.status == 200
        assert response.payload["records"] == []
        assert elapsed >= 0.15

    def test_min_bytes_holds_until_enough_data(self, client, cluster, topic):
        cluster.append("t", 0, EventRecord(value="small"))
        responses = {}

        def poll():
            responses["r"] = client.get(
                "/v1/topics/t/partitions/0/records",
                query={"max_wait_ms": "5000", "min_bytes": "200"},
            )

        poller = threading.Thread(target=poll)
        poller.start()
        time.sleep(0.1)
        cluster.append("t", 0, EventRecord(value="x" * 400))
        poller.join(timeout=5.0)
        assert not poller.is_alive()
        assert len(responses["r"].payload["records"]) == 2

    def test_batch_fetch_serves_multiple_partitions(self, client, cluster, topic):
        cluster.append("t", 0, EventRecord(value="p0"))
        cluster.append("t", 1, EventRecord(value="p1"))
        response = client.post(
            "/v1/fetch",
            json_body={
                "requests": [
                    {"topic": "t", "partition": 0, "offset": 0},
                    {"topic": "t", "partition": 1, "offset": 0},
                ]
            },
        )
        assert response.status == 200
        by_partition = {
            p["partition"]: [r["value"] for r in p["records"]]
            for p in response.payload["partitions"]
        }
        assert by_partition == {0: ["p0"], 1: ["p1"]}

    def test_batch_fetch_nested_schema_errors(self, client, topic):
        response = client.post(
            "/v1/fetch",
            json_body={
                "requests": [
                    {"topic": "t", "partition": -1, "offset": -2},
                    {"topic": "t", "partition": 0, "offset": "x"},
                ]
            },
        )
        assert response.status == 400
        fields = response.payload["details"]["fields"]
        assert "requests[0].partition" in fields
        assert "requests[0].offset" in fields
        assert "expected integer" in fields["requests[1].offset"]

    def test_fetch_out_of_range_offset_is_416(self, client, cluster, topic):
        response = client.get(
            "/v1/topics/t/partitions/0/records", query={"offset": "99"}
        )
        assert response.status == 416
        assert response.payload["code"] == "OFFSET_OUT_OF_RANGE"

    def test_topic_offsets_endpoint(self, client, cluster, topic):
        cluster.append("t", 0, EventRecord(value="x"))
        response = client.get("/v1/topics/t/offsets")
        assert response.status == 200
        assert response.payload["partitions"]["0"] == {"beginning": 0, "end": 1}
        assert response.payload["partitions"]["1"] == {"beginning": 0, "end": 0}


class TestOffsetCommit:
    def test_commit_and_read_back(self, client, cluster, topic):
        cluster.append("t", 0, EventRecord(value="x"))
        committed = client.post(
            "/v1/groups/g/offsets",
            json_body={"offsets": [{"topic": "t", "partition": 0, "offset": 1}]},
        )
        assert committed.status == 200
        assert committed.payload["committed"] == [
            {"topic": "t", "partition": 0, "offset": 1}
        ]
        read = client.get("/v1/groups/g/offsets")
        assert read.payload["offsets"] == [
            {"topic": "t", "partition": 0, "offset": 1}
        ]

    def test_negative_offset_is_400_invalid_request(self, client, topic):
        response = client.post(
            "/v1/groups/g/offsets",
            json_body={"offsets": [{"topic": "t", "partition": 0, "offset": -1}]},
        )
        assert response.status == 400
        assert response.payload["code"] == "SCHEMA_VIOLATION" or (
            response.payload["code"] == "INVALID_REQUEST"
        )

    def test_generation_without_member_is_400(self, client, topic):
        response = client.post(
            "/v1/groups/g/offsets",
            json_body={
                "offsets": [{"topic": "t", "partition": 0, "offset": 0}],
                "generation": 1,
            },
        )
        assert response.status == 400
        assert response.payload["code"] == "INVALID_REQUEST"

    def test_stale_generation_commit_is_409(self, client, cluster, topic):
        joined = client.post(
            "/v1/groups/g/members", json_body={"client_id": "c", "topics": ["t"]}
        )
        member = joined.payload["member_id"]
        response = client.post(
            "/v1/groups/g/offsets",
            json_body={
                "offsets": [{"topic": "t", "partition": 0, "offset": 0}],
                "generation": 999,
                "member_id": member,
            },
        )
        assert response.status == 409
        assert response.payload["code"] == "ILLEGAL_GENERATION"


class TestConsumerGroups:
    def test_join_heartbeat_sync_leave_cycle(self, client, topic):
        joined = client.post(
            "/v1/groups/g/members",
            json_body={"client_id": "c1", "topics": ["t"]},
        )
        assert joined.status == 201
        member = joined.payload["member_id"]
        generation = joined.payload["generation"]
        assert sorted(tuple(tp) for tp in joined.payload["assignment"]) == [
            ("t", 0),
            ("t", 1),
        ]

        heartbeat = client.post(
            f"/v1/groups/g/members/{member}/heartbeat",
            json_body={"generation": generation},
        )
        assert heartbeat.status == 200

        synced = client.post(
            f"/v1/groups/g/members/{member}/sync",
            json_body={"generation": generation},
        )
        assert synced.status == 200
        assert synced.payload["generation"] == generation

        left = client.delete(f"/v1/groups/g/members/{member}")
        assert left.status == 200
        assert left.payload["generation"] == generation + 1

    def test_second_join_triggers_cooperative_handoff(self, client, topic):
        first = client.post(
            "/v1/groups/g/members", json_body={"client_id": "c1", "topics": ["t"]}
        ).payload
        second = client.post(
            "/v1/groups/g/members", json_body={"client_id": "c2", "topics": ["t"]}
        ).payload
        # Cooperative protocol: the newcomer only gets partitions that
        # were already free; the rest arrive after the survivor syncs.
        assert second["phase"] == "revoking"

        sync1 = client.post(
            f"/v1/groups/g/members/{first['member_id']}/sync",
            json_body={"generation": second["generation"]},
        ).payload
        sync2 = client.post(
            f"/v1/groups/g/members/{second['member_id']}/sync",
            json_body={"generation": sync1["generation"]},
        ).payload
        owned = sorted(
            tuple(tp) for tp in sync1["assignment"] + sync2["assignment"]
        )
        assert owned == [("t", 0), ("t", 1)]

    def test_heartbeat_with_stale_generation_is_409(self, client, topic):
        joined = client.post(
            "/v1/groups/g/members", json_body={"client_id": "c1", "topics": ["t"]}
        ).payload
        response = client.post(
            f"/v1/groups/g/members/{joined['member_id']}/heartbeat",
            json_body={"generation": 999},
        )
        assert response.status == 409
        assert response.payload["code"] in (
            "ILLEGAL_GENERATION",
            "REBALANCE_IN_PROGRESS",
        )
        assert response.payload["retriable"] is True

    def test_join_unknown_topic_is_404(self, client):
        response = client.post(
            "/v1/groups/g/members",
            json_body={"client_id": "c1", "topics": ["ghost"]},
        )
        assert response.status == 404
        assert response.payload["code"] == "UNKNOWN_TOPIC"


class TestDataPlaneAuthorization:
    """Every data-plane route that names a topic asks the cluster's hook."""

    def test_offsets_commit_and_join_deny_an_unauthorized_principal(
        self, client, cluster, topic
    ):
        cluster.admin().set_authorizer(lambda principal, operation, name: principal == "alice")
        offset = {"topic": "t", "partition": 0, "offset": 0}
        for method, path, body in [
            ("GET", "/v1/topics/t/offsets", None),
            ("POST", "/v1/groups/g/offsets", {"offsets": [offset]}),
            ("POST", "/v1/groups/g/members", {"client_id": "c", "topics": ["t"]}),
        ]:
            denied = client.request(method, path, json_body=body, principal="mallory")
            assert denied.status == 403, (path, denied.payload)
            assert denied.payload["code"] == "AUTHORIZATION_FAILED"
            assert "mallory" in denied.payload["message"]
            allowed = client.request(method, path, json_body=body, principal="alice")
            assert allowed.status in (200, 201), (path, allowed.payload)
        # Only alice's commit and join reached the fabric.
        assert cluster.offsets.group_offsets("g") == {("t", 0): 0}
        assert len(cluster.groups.describe("g")["members"]) == 1


class TestResponseShape:
    def test_error_bodies_always_have_the_three_keys(self, client, topic):
        responses = [
            client.get("/v1/topics/ghost"),
            client.post("/v1/topics", json_body={}),
            client.request("PUT", "/v1/fetch"),
            client.get("/v1/no/such/route"),
        ]
        for response in responses:
            assert set(response.payload) >= {"code", "message", "retriable"}
            assert response.payload["code"].isupper()

    def test_responses_are_json_serializable(self, client, cluster, topic):
        cluster.append("t", 0, EventRecord(value="x", headers={"a": "b"}))
        for response in [
            client.get("/v1/cluster"),
            client.get("/v1/topics/t"),
            client.get("/v1/topics/t/segments"),
            client.get("/v1/topics/t/partitions/0/records"),
        ]:
            assert response.status == 200
            json.dumps(response.payload)
