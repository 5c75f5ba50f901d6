"""Schema'd request/response models for the gateway, validated at the boundary.

Stdlib-only stand-in for the pydantic models a FastAPI service would use:
each request body is a frozen dataclass whose fields carry ordinary type
annotations, and :meth:`Model.parse` validates an incoming JSON payload
against them — unknown keys, missing required fields and type mismatches
are all collected (not first-error-only) and raised as one
:class:`~repro.gateway.errors.SchemaError` whose ``details.fields`` maps
every offending field to its reason.  Models that need more than type
shape (non-empty lists, enum-ish values) override :meth:`Model._validate`
and report through the same channel.  A ``List[<Model subclass>]`` field
parses each element with that model and reports its errors as
``field[i].name``.

Responses are the plain dicts route handlers return; only requests need
parsing.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.fabric.topic import TopicConfig
from repro.gateway.errors import SchemaError

_MISSING = object()

#: JSON type names used in validation messages.
_TYPE_NAMES = {
    str: "string",
    int: "integer",
    float: "number",
    bool: "boolean",
    dict: "object",
    list: "array",
}


def _describe(expected: Any) -> str:
    origin = typing.get_origin(expected)
    if origin is Union:
        return " or ".join(_describe(arg) for arg in typing.get_args(expected)
                           if arg is not type(None))
    if origin in (list, List):
        (inner,) = typing.get_args(expected) or (Any,)
        return f"array of {_describe(inner)}"
    if origin in (dict, Dict):
        return "object"
    return _TYPE_NAMES.get(expected, getattr(expected, "__name__", str(expected)))


def _conforms(value: Any, expected: Any) -> bool:
    """Structural check of a JSON value against a (simple) annotation.

    Supports the annotation vocabulary the models actually use: scalars,
    ``Optional``/``Union``, ``List[X]``, ``Dict[str, X]`` and ``Any``.
    ``bool`` is not accepted where ``int``/``float`` is expected — JSON
    ``true`` silently becoming offset ``1`` is exactly the class of bug a
    schema boundary exists to stop.
    """
    if expected is Any:
        return True
    origin = typing.get_origin(expected)
    if origin is Union:
        return any(_conforms(value, arg) for arg in typing.get_args(expected))
    if expected is type(None):
        return value is None
    if origin in (list, List):
        if not isinstance(value, list):
            return False
        args = typing.get_args(expected)
        inner = args[0] if args else Any
        return all(_conforms(item, inner) for item in value)
    if origin in (dict, Dict):
        if not isinstance(value, dict):
            return False
        args = typing.get_args(expected)
        if not args:
            return True
        key_t, val_t = args
        return all(
            _conforms(k, key_t) and _conforms(v, val_t) for k, v in value.items()
        )
    if expected is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, expected)


@functools.cache
def _schema(cls: type) -> Dict[str, Tuple[Any, bool, Optional[type]]]:
    """``field name -> (annotation, required, item model)`` of a model class,
    resolved once: ``get_type_hints`` compiles every (string) annotation it
    reads.  A ``List[<Model subclass>]`` field is checked as an array of
    objects, and its item model parses each element."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        expected = hints[f.name]
        item = typing.get_args(expected)[0] if typing.get_origin(expected) is list else None
        if isinstance(item, type) and issubclass(item, Model):
            expected = List[dict]
        else:
            item = None
        required = f.default is f.default_factory is dataclasses.MISSING
        schema[f.name] = (expected, required, item)
    return schema


@dataclass(frozen=True)
class Model:
    """Base request model: ``parse`` is the schema boundary."""

    @classmethod
    def parse(cls, payload: Any) -> "Model":
        if not isinstance(payload, dict):
            raise SchemaError({"body": "request body must be a JSON object"})
        errors: Dict[str, str] = {}
        instance = cls._build(payload, errors, "")
        if errors:
            raise SchemaError(errors)
        return instance

    @classmethod
    def _build(cls, payload: Dict[str, Any], errors: Dict[str, str], prefix: str) -> Any:
        """An instance of ``payload``, or ``None`` once anything is reported
        into ``errors`` (each field name under ``prefix``)."""
        schema = _schema(cls)
        own = {key: "unknown field" for key in payload if key not in schema}
        values: Dict[str, Any] = {}
        for name, (expected, required, item) in schema.items():
            raw = payload.get(name, _MISSING)
            if raw is _MISSING:
                if required:
                    own[name] = f"required field (expected {_describe(expected)})"
                continue
            if not _conforms(raw, expected):
                own[name] = (
                    f"expected {_describe(expected)}, "
                    f"got {_TYPE_NAMES.get(type(raw), type(raw).__name__)}"
                )
                continue
            if item is not None:
                raw = [item._build(entry, own, f"{name}[{i}].") for i, entry in enumerate(raw)]
            values[name] = raw
        if not own:
            instance = cls(**values)
            instance._validate(own)
            if not own:
                return instance
        errors.update((prefix + key, reason) for key, reason in own.items())
        return None

    def _validate(self, errors: Dict[str, str]) -> None:
        """Override to add semantic checks; report into ``errors``."""


#: Keys a topic ``config`` object may carry — the TopicConfig fields,
#: minus server-managed ones nothing on the wire may set directly.
TOPIC_CONFIG_KEYS = frozenset(TopicConfig.__dataclass_fields__)


def _check_topic_config(config: Dict[str, Any], errors: Dict[str, str],
                        prefix: str = "config") -> None:
    for key in config:
        if key not in TOPIC_CONFIG_KEYS:
            errors[f"{prefix}.{key}"] = "unknown topic config key"


# ----------------------------------------------------------------------- #
# Control plane
# ----------------------------------------------------------------------- #
@dataclass(frozen=True)
class TopicCreateRequest(Model):
    """``POST /v1/topics``"""

    name: str
    config: Dict[str, Any] = field(default_factory=dict)

    def _validate(self, errors: Dict[str, str]) -> None:
        if not self.name:
            errors["name"] = "must be a non-empty string"
        _check_topic_config(self.config, errors)


@dataclass(frozen=True)
class TopicConfigUpdateRequest(Model):
    """``PUT /v1/topics/{topic}/config``"""

    updates: Dict[str, Any]

    def _validate(self, errors: Dict[str, str]) -> None:
        if not self.updates:
            errors["updates"] = "must name at least one config key"
        _check_topic_config(self.updates, errors, prefix="updates")


@dataclass(frozen=True)
class PartitionGrowRequest(Model):
    """``POST /v1/topics/{topic}/partitions``"""

    num_partitions: int

    def _validate(self, errors: Dict[str, str]) -> None:
        if self.num_partitions < 1:
            errors["num_partitions"] = "must be >= 1"


# ----------------------------------------------------------------------- #
# Data plane
# ----------------------------------------------------------------------- #
_RECORD_KEYS = frozenset({"value", "key", "headers", "timestamp"})


@dataclass(frozen=True)
class ProduceRequest(Model):
    """``POST /v1/topics/{topic}/partitions/{partition}/records`` (JSON form).

    The wire-format form (``Content-Type:
    application/vnd.repro.batch.v1``) bypasses this model entirely — the
    body *is* the packed batch image and crosses into storage without
    re-encoding.
    """

    records: List[Dict[str, Any]]
    acks: Union[int, str] = 1

    def _validate(self, errors: Dict[str, str]) -> None:
        if self.acks not in (0, 1, "all"):
            errors["acks"] = "must be 0, 1 or 'all'"
        if not self.records:
            errors["records"] = "must contain at least one record"
        for index, record in enumerate(self.records):
            if "value" not in record:
                errors[f"records[{index}].value"] = "required field"
            for key in record:
                if key not in _RECORD_KEYS:
                    errors[f"records[{index}].{key}"] = "unknown field"
            headers = record.get("headers")
            if headers is not None and not _conforms(headers, Dict[str, str]):
                errors[f"records[{index}].headers"] = (
                    "expected object of string to string"
                )
            timestamp = record.get("timestamp")
            if timestamp is not None and not _conforms(timestamp, float):
                errors[f"records[{index}].timestamp"] = "expected number"


@dataclass(frozen=True)
class FetchRequestEntry(Model):
    """One partition slice of a batched ``POST /v1/fetch``."""

    topic: str
    partition: int
    offset: int
    max_records: Optional[int] = None

    def _validate(self, errors: Dict[str, str]) -> None:
        if self.partition < 0:
            errors["partition"] = "must be >= 0"
        if self.offset < 0:
            errors["offset"] = "must be >= 0"


@dataclass(frozen=True)
class BatchFetchRequest(Model):
    """``POST /v1/fetch`` — multi-partition fetch riding one fetch session."""

    requests: List[FetchRequestEntry]
    max_records: int = 500
    max_bytes: Optional[int] = None
    max_wait_ms: int = 0
    min_bytes: int = 1
    isolation: str = "committed"

    def _validate(self, errors: Dict[str, str]) -> None:
        if not self.requests:
            errors["requests"] = "must contain at least one partition request"
        if self.max_records < 1:
            errors["max_records"] = "must be >= 1"
        if self.max_wait_ms < 0:
            errors["max_wait_ms"] = "must be >= 0"
        if self.min_bytes < 1:
            errors["min_bytes"] = "must be >= 1"
        if self.isolation not in ("committed", "uncommitted"):
            errors["isolation"] = "must be 'committed' or 'uncommitted'"


@dataclass(frozen=True)
class OffsetCommitEntry(Model):
    topic: str
    partition: int
    offset: int


@dataclass(frozen=True)
class CommitRequest(Model):
    """``POST /v1/groups/{group}/offsets`` — batched atomic group commit."""

    offsets: List[OffsetCommitEntry]
    generation: Optional[int] = None
    member_id: Optional[str] = None
    metadata: str = ""

    def _validate(self, errors: Dict[str, str]) -> None:
        if not self.offsets:
            errors["offsets"] = "must contain at least one offset"


@dataclass(frozen=True)
class JoinGroupRequest(Model):
    """``POST /v1/groups/{group}/members`` — join the cooperative protocol."""

    client_id: str
    topics: List[str]
    session_timeout_seconds: Optional[float] = None

    def _validate(self, errors: Dict[str, str]) -> None:
        if not self.client_id:
            errors["client_id"] = "must be a non-empty string"
        if not self.topics:
            errors["topics"] = "must subscribe at least one topic"
        if self.session_timeout_seconds is not None and (
            self.session_timeout_seconds <= 0
        ):
            errors["session_timeout_seconds"] = "must be > 0"


@dataclass(frozen=True)
class GenerationRequest(Model):
    """``POST .../heartbeat`` and ``POST .../sync`` bodies."""

    generation: int

    def _validate(self, errors: Dict[str, str]) -> None:
        if self.generation < 0:
            errors["generation"] = "must be >= 0"


__all__ = [
    "Model",
    "TOPIC_CONFIG_KEYS",
    "TopicCreateRequest",
    "TopicConfigUpdateRequest",
    "PartitionGrowRequest",
    "ProduceRequest",
    "FetchRequestEntry",
    "BatchFetchRequest",
    "OffsetCommitEntry",
    "CommitRequest",
    "JoinGroupRequest",
    "GenerationRequest",
]
