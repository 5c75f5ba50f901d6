"""Serialization helpers shared by the fabric and the SDK.

Octopus imposes no event schema ("diversity of event schemata" is an
explicit requirement in Section III-B), so values are arbitrary
JSON-serializable objects, ``bytes`` or ``str``.  The helpers here give a
consistent size accounting and a canonical wire form.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
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


#: What ``ensure_ascii`` JSON escapes in an ASCII string: the C0 controls,
#: DEL, ``"`` and ``\``.
_ESCAPED = bytes(range(0x20)) + b'"\\\x7f'


def _text_size(text: str) -> int:
    """Length of ``text`` as a JSON string literal, quotes included."""
    if text.isascii() and len(text.encode("ascii").translate(None, _ESCAPED)) == len(text):
        return len(text) + 2
    return len(encode_basestring_ascii(text))


def _json_len(value: Any) -> int:
    """``len(_json_encode(value))`` by arithmetic, for ``dict`` (``str``
    keys), ``list``, ``tuple``, ``str``, ``int``, ``float``, ``bool`` and
    ``None`` of exactly those types; any other value raises ``TypeError``."""
    kind = type(value)
    if kind is dict:
        if not value:
            return 2
        # Braces, ", " between items, ": " and the key's quotes per item,
        # less the quotes of the one text all keys and str values are sized
        # as (escaping is per code point; a non-str key fails the join).
        size = 6 * len(value) - 2
        texts = [*value]
        for item in value.values():
            kind = type(item)
            if kind is str:
                texts.append(item)
                size += 2
            elif kind is int:
                size += len(int.__repr__(item))
            else:
                size += _json_len(item)
        return size + _text_size("".join(texts))
    if kind is list or kind is tuple:
        return 2 * len(value) + sum(map(_json_len, value)) if value else 2
    if kind is str:
        return _text_size(value)
    if kind is int:
        return len(int.__repr__(value))
    if kind is float:
        if math.isfinite(value):
            return len(float.__repr__(value))
        return 3 if value != value else 8 if value > 0 else 9  # NaN, Infinity, -Infinity
    if value is None:
        return 4
    if kind is bool:
        return 4 if value else 5
    raise TypeError(f"{kind!r} is not sized by arithmetic")


def serialize_with_size(value: Any) -> tuple:
    """``(None, len(serialize(value)))``, exact: the producer's sizing seam.
    A value :func:`_json_len` knows is sized by arithmetic; any other (an
    ``int`` subclass, a non-``str`` key, an object the encoder turns into
    ``str``) is encoded once and the bytes are dropped.  No bytes come back:
    a record sealed for the wire is encoded by the packer."""
    if value is None:
        return None, 0
    if isinstance(value, (bytes, bytearray)):
        return None, len(value)
    if isinstance(value, str):
        return None, len(value) if value.isascii() else len(value.encode("utf-8"))
    try:
        return None, _json_len(value)
    except (TypeError, ValueError, RecursionError):
        return None, len(serialize(value))


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
    """``len(serialize(value))``, mostly without an encode (see
    :func:`serialize_with_size`)."""
    return serialize_with_size(value)[1]
