"""Serialization helpers shared by the fabric and the SDK.

Octopus imposes no event schema ("diversity of event schemata" is an
explicit requirement in Section III-B), so values are arbitrary
JSON-serializable objects, ``bytes`` or ``str``.  The helpers here give a
consistent size accounting and a canonical wire form.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "serialize",
    "deserialize",
    "serialized_size",
    "serialize_with_size",
    "SerdeError",
]


class SerdeError(ValueError):
    """Raised when a value cannot be serialized for the fabric."""


#: Built once: ``json.dumps`` with any option set constructs a fresh
#: ``JSONEncoder`` per call, which cost more than the encode of a small event.
_ENCODER = json.JSONEncoder(sort_keys=True, default=str)


def _json_encode(value: Any) -> bytes:
    """The one JSON encode seam: every fabric JSON encode funnels through
    here (looked up at call time), so tests can count encode passes and
    alternative encoders can be swapped in process-wide.  It encodes with
    the prebuilt :data:`_ENCODER`: the bytes equal ``json.dumps(value,
    sort_keys=True, default=str)``'s."""
    return _ENCODER.encode(value).encode("utf-8")


def serialize(value: Any) -> bytes:
    """Encode ``value`` into bytes for transport.

    ``bytes`` pass through untouched, ``str`` is UTF-8 encoded and any
    other object is JSON-encoded (sorted keys, so the encoding is
    deterministic and usable as a compaction identity).
    """
    if value is None:
        return b""
    if isinstance(value, bytes):
        return value
    if isinstance(value, bytearray):
        return bytes(value)
    if isinstance(value, str):
        return value.encode("utf-8")
    try:
        return _json_encode(value)
    except (TypeError, ValueError) as exc:  # pragma: no cover - defensive
        raise SerdeError(f"value of type {type(value)!r} is not serializable") from exc


def serialize_with_size(value: Any) -> tuple:
    """One encode pass returning ``(encoded_or_None, size)``.

    The producer hot path needs a record's size (batch accounting, broker
    quota) *and* — when the batch is sealed to wire form — its encoded
    bytes.  Computing the size via :func:`serialized_size` and then
    encoding again in the wire packer serialized JSON values twice; this
    helper encodes once and hands both answers back so the caller
    (:meth:`EventRecord.size_bytes`) can cache the bytes for the packer.

    For the cheap scalar cases where the size is derivable without an
    encode (``bytes``/``str``/``bool``/``int``/``None``) the first element
    is ``None`` and no encode happens — those types re-encode in O(len)
    anyway, so caching would only burn memory.  Every other value, floats
    included, is sized by its encode, so the size is the length of the
    body the wire carries.
    """
    if value is None:
        return None, 0
    if isinstance(value, (bytes, bytearray)):
        return None, len(value)
    if isinstance(value, str):
        return None, len(value.encode("utf-8"))
    if isinstance(value, bool):
        return None, 4 if value else 5
    if type(value) is int:
        return None, len(str(value))
    encoded = serialize(value)
    return encoded, len(encoded)


def deserialize(payload: bytes) -> Any:
    """Best-effort inverse of :func:`serialize`.

    Attempts JSON first and falls back to UTF-8 text, then raw bytes.
    """
    if not payload:
        return None
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        try:
            return payload.decode("utf-8")
        except UnicodeDecodeError:
            return payload


def serialized_size(value: Any) -> int:
    """Size in bytes of ``value`` once serialized.

    Cheap paths for bytes, str, bool, int and None avoid a JSON encode;
    any other value is encoded to be sized.  Callers that may later need
    the encoded bytes as well (the wire packer) should prefer
    :func:`serialize_with_size`, which shares one encode pass between the
    size computation and the encode instead of serializing twice.
    """
    return serialize_with_size(value)[1]
