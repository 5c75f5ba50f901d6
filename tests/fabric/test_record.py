"""Tests for event records, batches and serde."""

import copy
import datetime
import decimal
import enum
import json
import pickle
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.fabric import serde
from repro.fabric.record import EventRecord, PackedRecordBatch, RecordBatch, StoredRecord
from repro.fabric.serde import SerdeError, deserialize, serialize, serialized_size

_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


class TestEventRecord:
    def test_size_includes_framing_overhead(self):
        record = EventRecord(value=b"x" * 100)
        assert record.size_bytes() == 100 + 24

    def test_size_includes_key_and_headers(self):
        bare = EventRecord(value=b"x" * 10)
        keyed = EventRecord(value=b"x" * 10, key="instrument-7")
        with_headers = EventRecord(value=b"x" * 10, headers={"source": "sdl"})
        assert keyed.size_bytes() > bare.size_bytes()
        assert with_headers.size_bytes() > bare.size_bytes()

    def test_record_ids_are_unique_and_increasing(self):
        a = EventRecord(value=1)
        b = EventRecord(value=2)
        assert b.record_id > a.record_id

    def test_with_headers_merges_without_mutating_original(self):
        record = EventRecord(value="v", headers={"a": "1"})
        updated = record.with_headers(b="2")
        assert updated.headers == {"a": "1", "b": "2"}
        assert record.headers == {"a": "1"}
        assert updated.record_id == record.record_id

    def test_dict_round_trip(self):
        record = EventRecord(value={"event_type": "created"}, key="file-1",
                             headers={"fs": "lustre"})
        restored = EventRecord.from_dict(record.to_dict())
        assert restored.value == record.value
        assert restored.key == record.key
        assert dict(restored.headers) == dict(record.headers)
        assert restored.timestamp == pytest.approx(record.timestamp)

    def test_to_json_is_valid_json(self):
        record = EventRecord(value={"a": 1}, key="k")
        parsed = json.loads(record.to_json())
        assert parsed["value"] == {"a": 1}

    def test_record_keeps_only_its_fields_and_size(self):
        record = EventRecord(value={"payload": "x" * 1000, "seq": 1})
        record.size_bytes()
        assert not hasattr(record, "__dict__")

    def test_records_without_headers_share_one_read_only_mapping(self):
        a, b = EventRecord(value=1), EventRecord(value=2)
        assert a.headers is b.headers
        assert a.headers == {}
        with pytest.raises(TypeError):
            a.headers["x"] = "y"
        assert EventRecord(value=3).with_headers(x="y").headers == {"x": "y"}
        assert b.headers == {}

    def test_size_is_not_compared(self):
        sized = EventRecord(value={"a": 1}, timestamp=1.0, record_id=7)
        sized.size_bytes()
        assert sized == EventRecord(value={"a": 1}, timestamp=1.0, record_id=7)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda r: pickle.loads(pickle.dumps(r))])
    def test_copies_keep_fields_and_size(self, clone):
        for headers in ({}, {"h": "v"}):
            record = EventRecord(value={"a": [1]}, key="k", headers=headers)
            twin = clone(record)
            assert twin == record and twin.record_id == record.record_id
            assert twin.size_bytes() == record.size_bytes()


class _IntSub(int):
    """An int subclass: the encoder writes ``int.__repr__``."""


class _FloatSub(float):
    """A float subclass: the encoder writes ``float.__repr__``."""


class _Level(enum.IntEnum):
    HIGH = 7


class _Opaque:
    """Not JSON-encodable: the encoder falls back to ``str``."""

    def __init__(self, text):
        self.text = text

    def __str__(self):
        return f"opaque<{self.text}>"


_DICT_KEYS = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
_JSON_LIKE = st.recursive(
    _SCALARS
    | st.builds(_Opaque, st.text())
    | st.datetimes()
    | st.decimals(allow_nan=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_DICT_KEYS, children, max_size=4),
    max_leaves=20,
)


def _outcome(encode, value):
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


#: Strings the sizer must escape exactly: controls, DEL, quote, backslash,
#: non-ASCII, astral and lone surrogates.
_TRICKY_TEXT = st.text(st.sampled_from('a "\\\x00\x1f\x7f\n\té𝄞\ud800\udfff'))
_ANY_JSON = st.recursive(
    _SCALARS
    | _TRICKY_TEXT
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.builds(_IntSub, st.integers())
    | st.builds(_FloatSub, st.floats())
    | st.sampled_from(_Level)
    | st.builds(_Opaque, st.text()),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text() | _TRICKY_TEXT, children, max_size=4)
    | st.dictionaries(_DICT_KEYS, children, max_size=3),
    max_leaves=20,
)


class TestSizeAcrossTheWire:
    """A record's accounted size is the same in process and after a wire
    round trip, so ``serialized_size``, ``max.message.bytes`` admission and
    byte budgets do not depend on the path the record took."""

    @given(
        value=_SCALARS | st.binary() | st.dictionaries(st.text(), _SCALARS, max_size=4),
        key=_SCALARS | st.binary(),
        headers=st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=3),
    )
    @example(value=True, key=None, headers={})
    @example(value=1.5, key="k", headers={})
    @example(value=float("inf"), key=False, headers={})
    @example(value=7, key=None, headers={"nämé": "v"})
    @example(value=re.IGNORECASE, key=None, headers={})  # str() is not its JSON
    def test_in_process_size_equals_wire_size(self, value, key, headers):
        record = EventRecord(value=value, key=key, headers=headers)
        image = PackedRecordBatch.from_events([record]).seal_wire("none").to_bytes()
        assert record.size_bytes() == PackedRecordBatch.from_bytes(image).size_at(0)

    @given(_ANY_JSON)
    @example({"\x00\x1f\x7f": "\"\\\n", "é": "𝄞", "": ""})
    @example([float("nan"), float("inf"), -float("inf"), 0.1, -0.0])
    @example({"t": 1e16, "u": [1e-7, 5e-324, 1.7976931348623157e308, 123.0]})
    @example([_FloatSub(2.5), {"f": _FloatSub(float("nan"))}])
    @example([10**300, -(10**300), 10**5000])  # the last exceeds int's str limit
    @example([True, 1, False, 0, None])
    @example([_IntSub(5), _Level.HIGH, {"n": _IntSub(-3)}])
    @example({1: "int key", True: "bool key", None: "none key", 0.5: "float key"})
    @example({"a": 1, 2: "mixed key types"})
    @example([{}, [], {"": []}, [[{}]], ()])
    @example({"\ud800": ["\udc00"]})  # lone surrogates escape one by one
    @example(_Opaque('"quoted"'))
    def test_serialized_size_equals_serialized_length(self, value):
        assert _outcome(serialized_size, value) == _outcome(lambda v: len(serialize(v)), value)


class TestStoredRecord:
    def test_delegates_to_wrapped_record(self):
        record = EventRecord(value={"x": 1}, key="k")
        stored = StoredRecord(offset=5, record=record, append_time=record.timestamp)
        assert stored.value == {"x": 1}
        assert stored.key == "k"
        assert stored.offset == 5
        assert stored.size_bytes() == record.size_bytes()


class TestRecordBatch:
    def test_batch_accumulates_until_max_bytes(self):
        batch = RecordBatch("t", 0, max_bytes=300)
        added = 0
        while batch.try_append(EventRecord(value=b"x" * 76)):  # 100 B each
            added += 1
            if added > 10:
                break
        assert added == 3
        assert len(batch) == 3

    def test_empty_batch_accepts_oversize_record(self):
        batch = RecordBatch("t", 0, max_bytes=10)
        assert batch.try_append(EventRecord(value=b"x" * 1000))
        assert not batch.try_append(EventRecord(value=b"y"))

    def test_of_builds_batch_from_iterable(self):
        records = [EventRecord(value=i) for i in range(5)]
        batch = RecordBatch.of("t", 1, records)
        assert len(batch) == 5
        assert list(batch) == records
        assert batch.partition == 1


class TestSerde:
    @pytest.mark.parametrize(
        "value",
        [None, b"raw-bytes", "text", {"a": 1, "b": [1, 2]}, [1, 2, 3], 42, 3.14, True],
    )
    def test_round_trip_preserves_json_values(self, value):
        restored = deserialize(serialize(value))
        if isinstance(value, bytes):
            assert restored in (value, value.decode("utf-8"))
        elif isinstance(value, tuple):
            assert restored == list(value)
        else:
            assert restored == value

    def test_serialized_size_matches_serialize_length_for_objects(self):
        value = {"payload": "x" * 100, "n": 7}
        assert serialized_size(value) == len(serialize(value))

    def test_serialized_size_fast_paths(self):
        assert serialized_size(None) == 0
        assert serialized_size(b"abcd") == 4
        assert serialized_size("abcd") == 4
        assert serialized_size(12345) == 5


class TestPrebuiltEncoder:
    @given(_JSON_LIKE)
    @example(float("nan"))
    @example({"ü": [float("inf"), -float("inf")], 2: None})
    @example({1: "int key", 0.5: "float key", True: "bool key"})
    @example({"a": 1, 2: "mixed key types"})
    @example([_Opaque("x"), datetime.date(2024, 1, 2), decimal.Decimal("1.10")])
    def test_bytes_equal_json_dumps(self, value):
        expected = _outcome(
            lambda v: json.dumps(v, sort_keys=True, default=str).encode("utf-8"), value
        )
        assert _outcome(serde._json_encode, value) == expected

    def test_circular_value_is_a_serde_error(self):
        looped = {"a": []}
        looped["a"].append(looped)
        with pytest.raises(SerdeError):
            serialize(looped)


class TestSingleEncodePass:
    """At most one JSON encode per record end to end: ``size_bytes`` sizes
    a JSON value by arithmetic and keeps no bytes, and only sealing a
    batch for the wire encodes, once per record."""

    @pytest.fixture
    def encode_counter(self, monkeypatch):
        import repro.fabric.serde as serde

        counts = {"encodes": 0}
        real = serde._json_encode

        def counting(value):
            counts["encodes"] += 1
            return real(value)

        monkeypatch.setattr(serde, "_json_encode", counting)
        return counts

    def test_serialized_size_is_one_encode(self, encode_counter):
        serialized_size({"a": 1, "t": True, "nested": {"b": [1, 2.5, None, "é"], "e": []}})
        assert encode_counter["encodes"] == 0
        serialized_size({"a": 1, "nested": {"b": [1, _IntSub(2), 3]}})
        assert encode_counter["encodes"] == 1

    def test_size_then_seal_is_one_encode_per_record(self, encode_counter):
        from repro.fabric.record import PackedRecordBatch

        records = tuple(
            EventRecord(value={"n": i, "payload": "z" * 30}, key=f"k{i}")
            for i in range(6)
        )
        for record in records:
            record.size_bytes()  # producer accounting encodes nothing...
        assert encode_counter["encodes"] == 0
        packed = PackedRecordBatch.from_events(records, append_time=1.0)
        packed.seal_wire("gzip").to_bytes()  # ...and sealing encodes each once
        assert encode_counter["encodes"] == len(records)

    def test_text_and_bytes_values_never_json_encode(self, encode_counter):
        from repro.fabric.record import PackedRecordBatch

        records = tuple(
            EventRecord(value=v) for v in ("text", b"raw", None)
        )
        for record in records:
            record.size_bytes()
        PackedRecordBatch.from_events(records, append_time=1.0).seal_wire(
            "none"
        ).to_bytes()
        assert encode_counter["encodes"] == 0
