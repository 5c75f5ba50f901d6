"""Event records, record batches and produce metadata.

Events in Octopus are Kafka records: an optional key, a value payload,
optional headers and a timestamp.  Scientific events (Section III of the
paper) range from 32 B telemetry samples to multi-kilobyte instrument
snapshots, so the record type tracks its serialized size explicitly — the
performance model and the broker quotas are driven by it.

Packed batch layout
-------------------
:class:`PackedRecordBatch` is the one-encode representation shared by the
whole data plane: the producer seals a wire batch into packed form once,
the partition log adopts the same object as a segment chunk — it is the
only form a log stores, whatever the batch size — fetch responses expose
slices of it (:class:`PackedView`), and replication/MirrorMaker forward
it by reference: a record is encoded at most once (and compressed at
most once) between produce and delivery.

Wire format (v1)
----------------
The sealed image :meth:`PackedRecordBatch.to_bytes` emits — and
:meth:`~PackedRecordBatch.from_bytes` parses zero-copy over a
``memoryview`` — is a 16-byte header followed by the stored body::

    magic   : u8   0xB4
    version : u8   1
    codec   : u8   codec id (see the registry below)
    pad     : u8   reserved, 0
    crc32   : u32  zlib.crc32 over the stored body (post-compression)
    count   : u32  logical record count
    usize   : u32  uncompressed payload size in bytes

The body is the concatenated record frames, passed through the named
codec.  Because the CRC covers the *stored* bytes, every hop that
forwards the batch (broker ingress, replication, mirroring) can verify
integrity without decompressing; a mismatch raises
:class:`~repro.fabric.errors.CorruptBatchError`.  Decompression happens
once, memoized, on the first consumer-side record access.  An image
that does not start with the v1 magic/version is rejected outright.
Each record frame is::

    timestamp   : f64 big-endian
    key frame   : tag u8 | length u32 | body
    value frame : tag u8 | length u32 | body
    headers     : count u16, then per header
                  name length u16 | name utf-8 | value frame

Frame tags: ``0`` None (empty body), ``1`` raw bytes, ``2`` utf-8 text,
``3`` canonical JSON (:func:`repro.fabric.serde.serialize`).

Codec registry: ``none`` (0), ``gzip`` (1, zlib), ``lzma`` (2) are
always available from the stdlib; ``lz4`` (3) and ``zstd`` (4) register
automatically when their packages are importable, and
:func:`register_codec` accepts process-local additions.

Alongside the payload a decoded batch carries the columns the storage
layer serves from without touching the body: a base offset plus
per-record offset table (elided while offsets are contiguous),
per-record append times (elided while uniform), per-record serialized
sizes with their prefix sums (byte-budget fetches bisect instead of
walking), and min/max append-time covers for retention and timestamp
lookup.  Batches parsed from wire build these columns lazily — a
forwarded batch never pays the frame scan.
"""

from __future__ import annotations

import bisect
import itertools
import json
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.fabric.errors import CorruptBatchError, UnknownCodecError
from repro.fabric.serde import serialize, serialize_with_size, serialized_size

_record_counter = itertools.count()


def _next_record_id() -> int:
    return next(_record_counter)


@dataclass(frozen=True)
class EventRecord:
    """A single event published to (or fetched from) the fabric.

    Parameters
    ----------
    value:
        The event payload.  Any JSON-serializable object, ``bytes`` or
        ``str``.
    key:
        Optional partitioning key.  Records with the same key are routed
        to the same partition and therefore totally ordered.
    headers:
        Optional string-to-string metadata (e.g. ``source``, schema id).
    timestamp:
        Producer-side timestamp in seconds since the epoch.
    """

    value: Any
    key: Any = None
    headers: Mapping[str, str] = field(default_factory=dict)
    # Record construction has no clock to inject at this API depth; the
    # producer passes Clock-derived timestamps explicitly, so this default
    # only covers hand-built records.
    timestamp: float = field(default_factory=time.time)  # lint: ignore[RAW-CLOCK]
    record_id: int = field(default_factory=_next_record_id)

    def size_bytes(self) -> int:
        """Approximate on-the-wire size of the record in bytes.

        Computed once and cached: the produce hot path consults the size
        repeatedly (batch accounting, broker quota, replication budget) and
        re-serializing the value each time dominated the batched profile.
        When sizing a JSON value forces an encode, the encoded bytes are
        cached alongside the size so the wire packer reuses them — one
        encode pass covers both (see :func:`serialize_with_size`).
        """
        cached = self.__dict__.get("_cached_size")
        if cached is not None:
            return cached
        encoded_value, size = serialize_with_size(self.value)
        if encoded_value is not None:
            object.__setattr__(self, "_cached_value_body", encoded_value)
        if self.key is not None:
            encoded_key, key_size = serialize_with_size(self.key)
            size += key_size
            if encoded_key is not None:
                object.__setattr__(self, "_cached_key_body", encoded_key)
        for name, val in self.headers.items():
            size += len(name) + serialized_size(val)
        # Fixed per-record framing overhead (offset, length, crc, attrs).
        size += 24
        object.__setattr__(self, "_cached_size", size)
        return size

    def with_headers(self, **headers: str) -> "EventRecord":
        """Return a copy of the record with additional headers merged in."""
        merged = dict(self.headers)
        merged.update(headers)
        return EventRecord(
            value=self.value,
            key=self.key,
            headers=merged,
            timestamp=self.timestamp,
            record_id=self.record_id,
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict view used by the trigger substrate and persistence."""
        return {
            "key": self.key,
            "value": self.value,
            "headers": dict(self.headers),
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EventRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            value=data.get("value"),
            key=data.get("key"),
            headers=dict(data.get("headers", {})),
            # Wire decode of a record missing its timestamp — no clock in
            # scope at serde depth.
            timestamp=float(data.get("timestamp", time.time())),  # lint: ignore[RAW-CLOCK]
        )

    def to_json(self) -> str:
        """JSON representation (used by the persistence connector)."""
        return json.dumps(self.to_dict(), sort_keys=True, default=str)


class StoredRecord(NamedTuple):
    """A record as it sits in a partition log: record plus assigned offset.

    A NamedTuple rather than a dataclass: the produce/replicate hot path
    creates one per appended record, and tuple construction is several
    times cheaper than frozen-dataclass ``__init__``.
    """

    offset: int
    record: EventRecord
    append_time: float

    @property
    def value(self) -> Any:
        return self.record.value

    @property
    def key(self) -> Any:
        return self.record.key

    @property
    def timestamp(self) -> float:
        return self.record.timestamp

    def size_bytes(self) -> int:
        return self.record.size_bytes()


class RecordMetadata(NamedTuple):
    """Metadata returned to a producer after a successful append."""

    topic: str
    partition: int
    offset: int
    timestamp: float
    serialized_size: int


_TS = struct.Struct(">d")
_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")

_TAG_NONE = 0
_TAG_BYTES = 1
_TAG_STR = 2
_TAG_JSON = 3


# --------------------------------------------------------------------- #
# Compression codecs
# --------------------------------------------------------------------- #
class Codec(NamedTuple):
    """A batch compression codec: a stable wire id plus the two passes."""

    name: str
    codec_id: int
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]


_codec_lock = threading.Lock()
_CODECS_BY_NAME: dict = {}
_CODECS_BY_ID: dict = {}


def register_codec(
    name: str,
    codec_id: int,
    compress: Callable[[bytes], bytes],
    decompress: Callable[[bytes], bytes],
) -> Codec:
    """Register a batch compression codec under a stable wire id.

    The stdlib codecs (``none``/``gzip``/``lzma``) are registered at
    import; deployments with ``lz4``/``zstd`` installed plug them in here
    (ids ``3``/``4`` are reserved for them below).  Re-registering a name
    with the same id is idempotent; claiming a taken id for a different
    name raises.
    """
    codec = Codec(name, int(codec_id), compress, decompress)
    with _codec_lock:
        existing = _CODECS_BY_ID.get(codec.codec_id)
        if existing is not None and existing.name != name:
            raise ValueError(
                f"codec id {codec.codec_id} is already registered as {existing.name!r}"
            )
        _CODECS_BY_NAME[name] = codec
        _CODECS_BY_ID[codec.codec_id] = codec
    return codec


def get_codec(name: str) -> Codec:
    try:
        return _CODECS_BY_NAME[name]
    except KeyError:
        raise UnknownCodecError(
            f"codec {name!r} is not registered (known: {sorted(_CODECS_BY_NAME)})"
        ) from None


def codec_for_id(codec_id: int) -> Codec:
    try:
        return _CODECS_BY_ID[codec_id]
    except KeyError:
        raise UnknownCodecError(
            f"codec id {codec_id} is not registered (known: {sorted(_CODECS_BY_ID)})"
        ) from None


def registered_codecs() -> Tuple[str, ...]:
    """Names of every codec this process can decode (sorted by wire id)."""
    with _codec_lock:
        return tuple(c.name for _, c in sorted(_CODECS_BY_ID.items()))


def _identity(data: bytes) -> bytes:
    return data


register_codec("none", 0, _identity, _identity)
register_codec("gzip", 1, zlib.compress, zlib.decompress)


def _lzma_compress(data: bytes) -> bytes:
    import lzma

    return lzma.compress(data, preset=1)


def _lzma_decompress(data: bytes) -> bytes:
    import lzma

    return lzma.decompress(data)


register_codec("lzma", 2, _lzma_compress, _lzma_decompress)

# Optional codecs: wire ids 3/4 are reserved; registered only when the
# (non-baked-in) packages are importable, so compressed batches stay
# decodable exactly where they are encodable.
try:  # pragma: no cover - depends on the environment
    import lz4.frame as _lz4frame

    register_codec("lz4", 3, _lz4frame.compress, _lz4frame.decompress)
except ImportError:  # pragma: no cover, lint: ignore[SWALLOWED-ERROR]
    pass
try:  # pragma: no cover - depends on the environment
    import zstandard as _zstd

    register_codec(
        "zstd",
        4,
        lambda data: _zstd.ZstdCompressor().compress(data),
        lambda data: _zstd.ZstdDecompressor().decompress(data),
    )
except ImportError:  # pragma: no cover, lint: ignore[SWALLOWED-ERROR]
    pass


# --------------------------------------------------------------------- #
# Versioned batch wire header (v1)
#
#   magic   u8   0xB4 ("batch")
#   version u8   1
#   codec   u8   wire id from the codec registry
#   (pad)   u8   reserved, 0
#   crc32   u32  zlib.crc32 over the body (the possibly-compressed bytes)
#   count   u32  logical record count
#   usize   u32  uncompressed payload size in bytes
#
# followed by the body.
# --------------------------------------------------------------------- #
_WIRE_MAGIC = 0xB4
_WIRE_VERSION = 1
_HEADER = struct.Struct(">BBBxIII")
WIRE_HEADER_BYTES = _HEADER.size


def _pack_frame(value: Any, pieces: list, cached_body: Optional[bytes] = None) -> None:
    if value is None:
        pieces.append(b"\x00\x00\x00\x00\x00")
        return
    if isinstance(value, (bytes, bytearray)):
        tag, body = _TAG_BYTES, bytes(value)
    else:
        # ``cached_body`` is the encode the sizing pass already paid for
        # (see EventRecord.size_bytes): JSON values are serialized exactly
        # once between produce and wire.
        body = cached_body if cached_body is not None else serialize(value)
        tag = _TAG_STR if isinstance(value, str) else _TAG_JSON
    pieces.append(_U8.pack(tag))
    pieces.append(_U32.pack(len(body)))
    pieces.append(body)


def _unpack_frame(buffer, position: int) -> tuple:
    """Decode one tagged frame from ``buffer`` (bytes or memoryview).

    Zero-copy on the scan: the body is taken as a slice, which for a
    memoryview references the underlying batch payload without copying;
    bytes are only materialised for the value itself (``bytes``/``str``/
    JSON objects all need owned storage anyway).
    """
    tag = buffer[position]
    (length,) = _U32.unpack_from(buffer, position + 1)
    position += 5
    body = buffer[position : position + length]
    position += length
    if tag == _TAG_NONE:
        return None, position
    if tag == _TAG_BYTES:
        return bytes(body), position
    if tag == _TAG_STR:
        return str(body, "utf-8"), position
    return json.loads(bytes(body)), position


def _skip_frame(buffer, position: int) -> tuple:
    """Advance past one frame without materialising it; returns
    ``(next_position, body_length)``."""
    (length,) = _U32.unpack_from(buffer, position + 1)
    return position + 5 + length, length


#: A header overlay: ``(fn, source_base, source_offsets)``.  ``fn`` maps a
#: record's *source* offset (captured when the overlay was attached, so
#: restamping under new offsets keeps the provenance intact) to extra
#: headers merged in at decode time.
_Overlay = Tuple[Callable[[int], Mapping[str, str]], int, Optional[Tuple[int, ...]]]


class PackedRecordBatch:
    """An immutable, offset-stamped run of records packed as one unit.

    See the module docstring for the wire layout.  Instances are created
    once (producer seal, wire parse, compaction rebuild) and then shared
    by reference across the leader log, every follower replica and any
    fetch view — nothing downstream re-encodes or copies the records.
    All derived forms (:meth:`slice`, :meth:`with_offsets`,
    :meth:`with_header_overlay`) share the decoded record tuple, the
    size columns and the payload bytes of the parent.

    The decoded-record cache means an in-process round trip returns the
    *same* :class:`EventRecord` objects that were produced; the byte
    payload (:meth:`to_bytes`/:meth:`from_bytes`) is only materialised
    when something actually needs wire bytes, and at most once.
    """

    __slots__ = (
        "base_offset",
        "end_offset",
        "contiguous",
        "min_append_time",
        "max_append_time",
        "codec",
        "crc32",
        "_offsets",
        "_append_times",
        "_records",
        "_sizes",
        "_cum",
        "_max_size",
        "_payload",
        "_frames",
        "_overlay",
        "_decoded",
        "_wire",
        "_usize",
        "_count",
        "_crc_verified",
    )

    def __init__(
        self,
        *,
        base_offset: int,
        end_offset: int,
        contiguous: bool,
        min_append_time: float,
        max_append_time: float,
        offsets: Optional[Tuple[int, ...]],
        append_times: Optional[Tuple[float, ...]],
        records: Optional[Tuple[EventRecord, ...]],
        sizes: Optional[Tuple[int, ...]],
        payload: Optional[bytes] = None,
        frames: Optional[Tuple[int, ...]] = None,
        overlay: Optional[_Overlay] = None,
        codec: str = "none",
        crc32: Optional[int] = None,
        wire=None,
        count: Optional[int] = None,
        uncompressed_size: Optional[int] = None,
    ) -> None:
        self.base_offset = base_offset
        self.end_offset = end_offset
        self.contiguous = contiguous
        self.min_append_time = min_append_time
        self.max_append_time = max_append_time
        self.codec = codec
        self.crc32 = crc32
        self._offsets = offsets
        self._append_times = append_times
        self._records = records
        if sizes is not None:
            self._sizes = sizes
            cum = [0] * (len(sizes) + 1)
            total = 0
            for i, size in enumerate(sizes):
                total += size
                cum[i + 1] = total
            self._cum = tuple(cum)
            self._max_size = max(sizes) if sizes else 0
            self._count = len(sizes)
        else:
            # Wire-decoded batch: the size column is built lazily from a
            # frame scan, so forwarding a (possibly compressed) batch never
            # pays a decode or decompression.
            if count is None:
                raise ValueError("count is required when sizes are lazy")
            self._sizes = None
            self._cum = None
            self._max_size = 0
            self._count = count
        self._payload = payload
        self._frames = frames
        self._overlay = overlay
        self._decoded: Optional[list] = None
        self._wire = wire
        self._usize = uncompressed_size
        self._crc_verified = False

    # -- logical / physical size accounting ----------------------------- #
    @property
    def size_bytes(self) -> int:
        """Total *logical* (uncompressed, per-record accounted) bytes.

        For a wire-decoded batch whose size column has not been
        materialised yet this answers from the header's uncompressed size
        (close — it differs from the per-record sum only by framing
        constants) so byte metrics never force a decompression.
        """
        cum = self._cum
        if cum is not None:
            return cum[-1]
        return self._usize if self._usize is not None else 0

    @property
    def physical_size_bytes(self) -> int:
        """Bytes this batch actually occupies: the sealed (possibly
        compressed) wire body when one exists, the logical size otherwise.
        Segment byte accounting and size retention charge this."""
        wire = self._wire
        if wire is not None:
            return len(wire)
        return self.size_bytes

    def physical_size_range(self, start: int, stop: int) -> int:
        """Physical bytes attributed to records ``[start:stop)``.

        Inside a compressed batch individual records have no exact
        physical size; the range is charged its proportional share of the
        compressed body (exact at the whole-batch extent)."""
        wire = self._wire
        if wire is None:
            return self.size_range(start, stop)
        if start == 0 and stop == self._count:
            return len(wire)
        logical = self.size_range(start, stop)
        total = self._cum[-1]
        if total <= 0:
            return 0
        return (logical * len(wire)) // total

    # -- lazy wire decode ------------------------------------------------ #
    def verify_crc(self, *, force: bool = False) -> None:
        """Check the sealed body against the stamped CRC32.

        No-op for batches without a sealed wire body or CRC (in-process
        batches).  The result is memoized — leader ingress and every
        follower adoption together verify once — unless ``force``
        is given, which the first-decode path uses so corruption that
        happened *after* ingress is still caught before any record is
        served.  Raises :class:`CorruptBatchError` on mismatch.
        """
        wire = self._wire
        if wire is None or self.crc32 is None:
            return
        if self._crc_verified and not force:
            return
        actual = zlib.crc32(wire) & 0xFFFFFFFF
        if actual != self.crc32:
            # A seen mismatch must not hide behind an earlier pass: later
            # unforced checks (broker fetch, follower ingress) reject too.
            self._crc_verified = False
            raise CorruptBatchError(
                f"batch crc mismatch: stored {self.crc32:#010x}, "
                f"computed {actual:#010x} over {len(wire)} {self.codec} bytes "
                f"(base_offset={self.base_offset}, records={self._count})"
            )
        self._crc_verified = True

    def check_max_record_size(self, limit: int) -> Optional[int]:
        """Largest record size if any record exceeds ``limit``, else None.

        Proves the cheap case without touching the payload: when the whole
        batch's uncompressed size fits under ``limit`` no single record can
        exceed it, so a compressed wire batch is not inflated just to be
        admitted by ``max.message.bytes``.
        """
        if self._sizes is None and self._usize is not None and self._usize <= limit:
            return None
        self._ensure_sizes()
        if self._max_size <= limit:
            return None
        return self._max_size

    def _ensure_sizes(self) -> None:
        if self._sizes is None:
            self._scan_frames()

    def _scan_frames(self) -> None:
        """Build the frame table and per-record size column from the
        payload in one pass — no record objects are materialised.  The
        first structural touch of a wire-decoded batch, so the CRC is
        (re-)checked here even if ingress already verified it."""
        if self._payload is None:
            payload = self.ensure_payload()  # verifies CRC, decompresses once
        else:
            self.verify_crc(force=True)
            payload = self._payload
        count = self._count
        frames = [0]
        sizes = []
        position = 0
        try:
            for _ in range(count):
                cursor = position + 8
                cursor, key_length = _skip_frame(payload, cursor)
                cursor, value_length = _skip_frame(payload, cursor)
                (header_count,) = _U16.unpack_from(payload, cursor)
                cursor += 2
                size = key_length + value_length + 24
                for _ in range(header_count):
                    (name_length,) = _U16.unpack_from(payload, cursor)
                    cursor += 2 + name_length
                    cursor, header_value_length = _skip_frame(payload, cursor)
                    size += name_length + header_value_length
                sizes.append(size)
                frames.append(cursor)
                position = cursor
        except (struct.error, IndexError) as exc:
            raise CorruptBatchError(
                f"batch payload is structurally invalid at byte {position} "
                f"(base_offset={self.base_offset}, records={count})"
            ) from exc
        if position > len(payload):
            raise CorruptBatchError(
                f"batch payload truncated: frames need {position} bytes, "
                f"got {len(payload)} (base_offset={self.base_offset})"
            )
        self._frames = tuple(frames)
        self._sizes = tuple(sizes)
        cum = [0] * (count + 1)
        total = 0
        for i, size in enumerate(sizes):
            total += size
            cum[i + 1] = total
        self._cum = tuple(cum)
        self._max_size = max(sizes) if sizes else 0

    # -- constructors -------------------------------------------------- #
    @classmethod
    def from_events(
        cls,
        records: Sequence[EventRecord],
        *,
        base_offset: int = 0,
        append_time: float = 0.0,
    ) -> "PackedRecordBatch":
        """Seal a producer wire batch: contiguous offsets, uniform time."""
        records = tuple(records)
        return cls(
            base_offset=base_offset,
            end_offset=base_offset + len(records),
            contiguous=True,
            min_append_time=append_time,
            max_append_time=append_time,
            offsets=None,
            append_times=None,
            records=records,
            sizes=tuple(record.size_bytes() for record in records),
        )

    @classmethod
    def from_stored(cls, stored: Sequence[StoredRecord]) -> "PackedRecordBatch":
        """Pack an offset-ordered run of already-stored records
        (compaction rebuild, adoption of a bare record list)."""
        stored = tuple(stored)
        if not stored:
            return cls.from_events(())
        base = stored[0].offset
        last = stored[-1].offset
        contiguous = last - base == len(stored) - 1
        offsets = None if contiguous else tuple(s.offset for s in stored)
        times = tuple(s.append_time for s in stored)
        low = min(times)
        high = max(times)
        uniform = low == high
        return cls(
            base_offset=base,
            end_offset=last + 1,
            contiguous=contiguous,
            min_append_time=low,
            max_append_time=high,
            offsets=offsets,
            append_times=None if uniform else times,
            records=tuple(s.record for s in stored),
            sizes=tuple(s.size_bytes() for s in stored),
        )

    @classmethod
    def from_bytes(
        cls,
        data,
        *,
        base_offset: int = 0,
        append_time: float = 0.0,
    ) -> "PackedRecordBatch":
        """Parse the wire image produced by :meth:`to_bytes` — zero-copy.

        ``data`` may be ``bytes``, ``bytearray`` or a ``memoryview``; the
        batch keeps a memoryview slice over it and decodes nothing here:
        no record objects, no size column, no decompression.  Forwarding
        the batch (:meth:`to_bytes` again, replication, mirroring) reuses
        the stored body verbatim; only a consumer-side record access pays
        the frame scan — and, for compressed batches, one decompression.
        Record ids are process-local and not part of the wire format, so
        decoded records carry fresh ones.
        """
        view = data if isinstance(data, memoryview) else memoryview(data)
        if len(view) < 2 or view[0] != _WIRE_MAGIC or view[1] != _WIRE_VERSION:
            raise CorruptBatchError(
                f"batch wire image does not start with the v1 magic/version: "
                f"{len(view)} bytes starting {bytes(view[:2]).hex()!r}"
            )
        if len(view) < WIRE_HEADER_BYTES:
            raise CorruptBatchError(
                f"batch wire image truncated inside the v1 header: "
                f"{len(view)} of {WIRE_HEADER_BYTES} bytes"
            )
        _, _, codec_id, crc, count, usize = _HEADER.unpack_from(view, 0)
        codec = codec_for_id(codec_id).name
        body = view[WIRE_HEADER_BYTES:]
        return cls(
            base_offset=base_offset,
            end_offset=base_offset + count,
            contiguous=True,
            min_append_time=append_time,
            max_append_time=append_time,
            offsets=None,
            append_times=None,
            records=None,
            sizes=None,
            payload=body if codec == "none" else None,
            codec=codec,
            crc32=crc,
            wire=body,
            count=count,
            uncompressed_size=usize,
        )

    # -- derived forms (all share records/sizes/payload by reference) -- #
    def with_offsets(self, base_offset: int, append_time: float) -> "PackedRecordBatch":
        """Restamp under fresh contiguous offsets and one append time —
        the leader assigning offsets at append, or a mirror destination
        re-homing a source batch.  Shares every column with the parent."""
        stamped = PackedRecordBatch.__new__(PackedRecordBatch)
        stamped.base_offset = base_offset
        stamped.end_offset = base_offset + self._count
        stamped.contiguous = True
        stamped.min_append_time = append_time
        stamped.max_append_time = append_time
        stamped.codec = self.codec
        stamped.crc32 = self.crc32
        stamped._offsets = None
        stamped._append_times = None
        stamped._records = self._records
        stamped._sizes = self._sizes
        stamped._cum = self._cum
        stamped._max_size = self._max_size
        stamped._payload = self._payload
        stamped._frames = self._frames
        stamped._overlay = self._overlay
        stamped._decoded = self._decoded
        stamped._wire = self._wire
        stamped._usize = self._usize
        stamped._count = self._count
        stamped._crc_verified = self._crc_verified
        return stamped

    def with_header_overlay(
        self, fn: Callable[[int], Mapping[str, str]]
    ) -> "PackedRecordBatch":
        """Attach per-record extra headers computed from the record's
        *current* offset, merged lazily at decode time.  This is how
        MirrorMaker forwards provenance without touching the payload:
        the packed bytes stay byte-identical, the overlay rides alongside
        and survives restamping on the destination."""
        shadowed = PackedRecordBatch.__new__(PackedRecordBatch)
        shadowed.base_offset = self.base_offset
        shadowed.end_offset = self.end_offset
        shadowed.contiguous = self.contiguous
        shadowed.min_append_time = self.min_append_time
        shadowed.max_append_time = self.max_append_time
        shadowed.codec = self.codec
        shadowed.crc32 = self.crc32
        shadowed._offsets = self._offsets
        shadowed._append_times = self._append_times
        shadowed._records = self._records
        shadowed._sizes = self._sizes
        shadowed._cum = self._cum
        shadowed._max_size = self._max_size
        shadowed._payload = self._payload
        shadowed._frames = self._frames
        shadowed._overlay = (fn, self.base_offset, self._offsets)
        shadowed._decoded = None
        shadowed._wire = self._wire
        shadowed._usize = self._usize
        shadowed._count = self._count
        shadowed._crc_verified = self._crc_verified
        return shadowed

    def slice(self, start: int, stop: int) -> "PackedRecordBatch":
        """Sub-run ``[start:stop)`` sharing the parent's payload bytes
        (the frame table is sliced, not re-encoded) and record tuple.

        A full-range slice returns the batch itself, keeping compressed
        wire batches fully lazy; a partial slice of one materialises the
        size/frame columns (decompressing if needed) because a sub-range
        of a compressed body cannot be carved without inflating it —
        the piece drops the wire body and its CRC and re-seals on demand.
        """
        if start == 0 and stop == self._count:
            return self
        self._ensure_sizes()
        piece = PackedRecordBatch.__new__(PackedRecordBatch)
        offsets = self._offsets
        if offsets is None:
            piece.base_offset = self.base_offset + start
            piece.end_offset = self.base_offset + stop
            piece._offsets = None
            piece.contiguous = True
        else:
            sub = offsets[start:stop]
            piece.base_offset = sub[0]
            piece.end_offset = sub[-1] + 1
            piece.contiguous = sub[-1] - sub[0] == len(sub) - 1
            piece._offsets = None if piece.contiguous else sub
        times = self._append_times
        if times is None:
            piece.min_append_time = self.min_append_time
            piece.max_append_time = self.max_append_time
            piece._append_times = None
        else:
            sub_times = times[start:stop]
            piece.min_append_time = min(sub_times)
            piece.max_append_time = max(sub_times)
            piece._append_times = (
                None if piece.min_append_time == piece.max_append_time else sub_times
            )
        records = self._records
        piece._records = None if records is None else records[start:stop]
        sizes = self._sizes[start:stop]
        piece._sizes = sizes
        cum = self._cum
        shift = cum[start]
        piece._cum = tuple(c - shift for c in cum[start : stop + 1])
        piece._max_size = max(sizes) if sizes else 0
        frames = self._frames
        piece._payload = self._payload
        piece._frames = None if frames is None else frames[start : stop + 1]
        piece.codec = "none"
        piece.crc32 = None
        piece._wire = None
        piece._usize = None
        piece._count = stop - start
        piece._crc_verified = False
        overlay = self._overlay
        if overlay is None:
            piece._overlay = None
        else:
            fn, src_base, src_offsets = overlay
            piece._overlay = (
                fn,
                src_base + start,
                None if src_offsets is None else src_offsets[start:stop],
            )
        decoded = self._decoded
        piece._decoded = None if decoded is None else decoded[start:stop]
        return piece

    # -- columnar accessors (no decoding) ------------------------------ #
    def __len__(self) -> int:
        return self._count

    @property
    def sizes(self) -> Tuple[int, ...]:
        self._ensure_sizes()
        return self._sizes

    @property
    def max_record_size(self) -> int:
        self._ensure_sizes()
        return self._max_size

    def offset_at(self, index: int) -> int:
        offsets = self._offsets
        return self.base_offset + index if offsets is None else offsets[index]

    def append_time_at(self, index: int) -> float:
        times = self._append_times
        return self.min_append_time if times is None else times[index]

    def size_at(self, index: int) -> int:
        self._ensure_sizes()
        return self._sizes[index]

    def size_range(self, start: int, stop: int) -> int:
        self._ensure_sizes()
        cum = self._cum
        return cum[stop] - cum[start]

    def index_of_offset(self, offset: int) -> int:
        """Index of the first record with offset >= ``offset``."""
        offsets = self._offsets
        if offsets is None:
            position = offset - self.base_offset
            n = self._count
            return 0 if position < 0 else (position if position < n else n)
        return bisect.bisect_left(offsets, offset)

    def first_index_at_or_after_time(self, timestamp: float) -> int:
        times = self._append_times
        if times is None:
            return 0 if self.min_append_time >= timestamp else self._count
        return bisect.bisect_left(times, timestamp)

    def take_within(self, start: int, stop: int, budget: int) -> int:
        """Greedy prefix of ``[start:stop)`` whose bytes fit ``budget``
        (one bisection of the prefix sums, zero record decodes)."""
        self._ensure_sizes()
        cum = self._cum
        taken = bisect.bisect_right(cum, cum[start] + budget, start, stop + 1) - 1 - start
        return taken if taken > 0 else 0

    # -- decode (lazy, cached) ----------------------------------------- #
    def timestamp_at(self, index: int) -> float:
        records = self._records
        if records is not None:
            return records[index].timestamp
        return self.record_at(index).timestamp

    def record_at(self, index: int) -> EventRecord:
        records = self._records
        overlay = self._overlay
        if overlay is None and records is not None:
            return records[index]
        decoded = self._decoded
        if decoded is None:
            decoded = [None] * self._count
            self._decoded = decoded
        record = decoded[index]
        if record is None:
            record = records[index] if records is not None else self._decode_one(index)
            if overlay is not None:
                fn, src_base, src_offsets = overlay
                source_offset = (
                    src_base + index if src_offsets is None else src_offsets[index]
                )
                record = record.with_headers(**fn(source_offset))
            decoded[index] = record
        return record

    def stored_at(self, index: int) -> StoredRecord:
        return StoredRecord(
            offset=self.offset_at(index),
            record=self.record_at(index),
            append_time=self.append_time_at(index),
        )

    def __getitem__(self, index: int) -> StoredRecord:
        if index < 0:
            index += self._count
        return self.stored_at(index)

    def __iter__(self) -> Iterator[StoredRecord]:
        for index in range(self._count):
            yield self.stored_at(index)

    def _decode_one(self, index: int) -> EventRecord:
        if self._frames is None:
            self._ensure_sizes()
        payload = self._payload
        frames = self._frames
        position = frames[index]
        timestamp = _TS.unpack_from(payload, position)[0]
        cursor = position + 8
        key, cursor = _unpack_frame(payload, cursor)
        value, cursor = _unpack_frame(payload, cursor)
        (header_count,) = _U16.unpack_from(payload, cursor)
        cursor += 2
        headers = {}
        for _ in range(header_count):
            (name_length,) = _U16.unpack_from(payload, cursor)
            cursor += 2
            name = str(payload[cursor : cursor + name_length], "utf-8")
            cursor += name_length
            headers[name], cursor = _unpack_frame(payload, cursor)
        return EventRecord(value=value, key=key, headers=headers, timestamp=timestamp)

    # -- wire image ----------------------------------------------------- #
    def ensure_payload(self):
        """Materialise (once) and return the packed *uncompressed* payload.

        Three sources, all memoized: already present (in-process batches
        after a previous encode, ``codec=none`` wire batches); the sealed
        wire body, decompressed after a forced CRC check (the one place a
        compressed batch inflates, so replication/mirroring that only
        forward bytes never reach it); or an encode of the record tuple —
        deliberately lazy, reusing the encoded bodies the sizing pass
        cached so a JSON value is serialized exactly once end to end."""
        payload = self._payload
        if payload is not None:
            return payload
        wire = self._wire
        if wire is not None:
            self.verify_crc(force=True)
            payload = get_codec(self.codec).decompress(bytes(wire))
            self._payload = payload
            return payload
        records = self._records
        pieces: list = []
        frames = [0]
        total = 0
        for record in records:
            at = len(pieces)
            cached = record.__dict__
            pieces.append(_TS.pack(record.timestamp))
            _pack_frame(record.key, pieces, cached.get("_cached_key_body"))
            _pack_frame(record.value, pieces, cached.get("_cached_value_body"))
            headers = record.headers
            pieces.append(_U16.pack(len(headers)))
            for name, value in headers.items():
                encoded = name.encode("utf-8")
                pieces.append(_U16.pack(len(encoded)))
                pieces.append(encoded)
                _pack_frame(value, pieces)
            total += sum(len(piece) for piece in pieces[at:])
            frames.append(total)
        payload = b"".join(pieces)
        self._frames = tuple(frames)
        self._payload = payload
        return payload

    def seal_wire(
        self, codec: str = "none", *, min_size: int = 0
    ) -> "PackedRecordBatch":
        """Seal the batch for the wire: compress (optionally) and stamp the
        CRC32 the store/forward path verifies on ingress and first decode.

        Returns a batch sharing every column with this one but carrying a
        sealed body; when the batch already wears the requested codec it
        is returned as-is.  Payloads below ``min_size`` uncompressed bytes
        stay raw (``codec`` falls back to ``none``) — tiny batches cost
        more in codec overhead than they save."""
        if self._wire is not None and self.codec == codec:
            return self
        spec = get_codec(codec)
        payload = self.ensure_payload()
        raw = payload if isinstance(payload, bytes) else bytes(payload)
        if spec.codec_id != 0 and len(raw) >= min_size:
            body: bytes = spec.compress(raw)
            chosen = spec.name
        else:
            body = raw
            chosen = "none"
        sealed = self.with_offsets(self.base_offset, self.min_append_time)
        sealed.end_offset = self.end_offset
        sealed.contiguous = self.contiguous
        sealed.min_append_time = self.min_append_time
        sealed.max_append_time = self.max_append_time
        sealed._offsets = self._offsets
        sealed._append_times = self._append_times
        sealed._sizes = self._sizes
        sealed._cum = self._cum
        sealed._max_size = self._max_size
        sealed._payload = raw
        sealed.codec = chosen
        sealed.crc32 = zlib.crc32(body) & 0xFFFFFFFF
        sealed._wire = body
        sealed._usize = len(raw)
        sealed._crc_verified = True
        return sealed

    def to_bytes(self) -> bytes:
        """Self-contained versioned wire image: 16-byte header + body.

        A batch already carrying a sealed body (wire-decoded, or sealed by
        :meth:`seal_wire`) re-emits it verbatim — forwarding a compressed
        batch never decompresses, re-encodes or re-CRCs anything."""
        wire = self._wire
        if wire is None:
            return self.seal_wire("none").to_bytes()
        return (
            _HEADER.pack(
                _WIRE_MAGIC,
                _WIRE_VERSION,
                get_codec(self.codec).codec_id,
                self.crc32,
                self._count,
                self._usize,
            )
            + bytes(wire)
        )


class PackedView(Sequence):
    """A zero-copy fetch response: a few ``(chunk, start, stop)`` runs.

    Every run references an immutable :class:`PackedRecordBatch` — the
    one form records take in a log — so nothing is copied or decoded
    until a record is actually touched, fetching a window is O(runs)
    regardless of how many records it spans, and each run still carries
    the codec and CRC it was produced with.  The view behaves like the
    list of :class:`StoredRecord` the fetch APIs have always returned
    (indexing, iteration, equality, ``+`` with lists).
    """

    __slots__ = ("_runs", "_length")

    def __init__(self, runs: Tuple[tuple, ...], length: Optional[int] = None) -> None:
        self._runs = runs
        if length is None:
            length = sum(stop - start for _, start, stop in runs)
        self._length = length

    @staticmethod
    def wrap(records) -> "PackedView":
        """The single door from "some records" to runs: a view is
        returned as is, a packed batch becomes one run, and a bare
        iterable of :class:`StoredRecord` is packed once."""
        if isinstance(records, PackedView):
            return records
        if not isinstance(records, PackedRecordBatch):
            records = PackedRecordBatch.from_stored(records)
        length = len(records)
        return PackedView(((records, 0, length),) if length else (), length)

    def runs(self) -> Tuple[tuple, ...]:
        return self._runs

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._length))]
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(index)
        for chunk, start, stop in self._runs:
            span = stop - start
            if index < span:
                return chunk.stored_at(start + index)
            index -= span
        raise IndexError(index)  # unreachable

    def __iter__(self) -> Iterator[StoredRecord]:
        for chunk, start, stop in self._runs:
            for index in range(start, stop):
                yield chunk.stored_at(index)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (PackedView, list, tuple)):
            if len(other) != self._length:
                return False
            return all(mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __add__(self, other) -> list:
        return list(self) + list(other)

    def __radd__(self, other) -> list:
        return list(other) + list(self)

    def __repr__(self) -> str:
        return f"PackedView({list(self)!r})"

    def size_bytes(self) -> int:
        """Total serialized (logical) bytes across the view, O(runs).
        Fetch budgets charge logical bytes — a compressed batch still
        delivers its full uncompressed records to the consumer."""
        total = 0
        for chunk, start, stop in self._runs:
            total += chunk.size_range(start, stop)
        return total

    def physical_size_bytes(self) -> int:
        """Bytes a forwarder would actually put on the wire for this view:
        compressed batch bodies count at their compressed size."""
        total = 0
        for chunk, start, stop in self._runs:
            total += chunk.physical_size_range(start, stop)
        return total

    def verify_crcs(self) -> None:
        """CRC-check every sealed batch the view references (memoized per
        batch).  Consumers run this on every poll before records are
        handed out; raises :class:`CorruptBatchError` on the first bad run."""
        for chunk, _, _ in self._runs:
            chunk.verify_crc()

    def with_overlay(
        self, fn: Callable[[int], Mapping[str, str]]
    ) -> list:
        """Per-run packed chunks with ``fn``'s headers overlaid — the
        MirrorMaker forwarding form: runs are sliced (sharing payload and
        records), never re-packed."""
        return [
            chunk.slice(start, stop).with_header_overlay(fn)
            for chunk, start, stop in self._runs
        ]


class RecordBatch:
    """A producer-side batch of records destined for one topic partition.

    The SDK producer accumulates records per partition and ships them as a
    batch; batching is what lets remote (high-RTT) clients approach the
    throughput of local clients in the paper's evaluation.
    """

    def __init__(
        self,
        topic: str,
        partition: int,
        max_bytes: int = 1 << 20,
        created_at: float | None = None,
    ) -> None:
        self.topic = topic
        self.partition = partition
        self.max_bytes = int(max_bytes)
        self._records: list[EventRecord] = []
        self._size = 0
        self._packed: Optional[PackedRecordBatch] = None
        self._wire_sealed: Optional[Tuple[str, PackedRecordBatch]] = None
        # Injectable so linger timing can run on a test-controlled clock.
        # Batch creation stamp at serde depth; producers pass a
        # Clock-derived value.
        self.created_at = (created_at if created_at is not None
                           else time.time())  # lint: ignore[RAW-CLOCK]

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[EventRecord]:
        return iter(self._records)

    @property
    def size_bytes(self) -> int:
        return self._size

    def try_append(self, record: EventRecord) -> bool:
        """Append ``record`` if it fits; return ``False`` when the batch is full.

        An empty batch always accepts one record even if it exceeds
        ``max_bytes`` — oversize rejection is the broker's job.
        """
        record_size = record.size_bytes()
        if self._records and self._size + record_size > self.max_bytes:
            return False
        self._records.append(record)
        self._size += record_size
        self._packed = None
        self._wire_sealed = None
        return True

    def records(self) -> Sequence[EventRecord]:
        return tuple(self._records)

    def sealed_packed(self) -> PackedRecordBatch:
        """Seal the batch into its packed wire form (cached).

        This is the single encode of the one-encode produce path: the
        same object travels to the broker, into the leader log, to every
        replica and out through fetch — retries reuse the cached seal."""
        packed = self._packed
        if packed is None:
            packed = PackedRecordBatch.from_events(tuple(self._records))
            self._packed = packed
        return packed

    def sealed_wire(self, codec: str, min_bytes: int = 0) -> PackedRecordBatch:
        """Seal into compressed wire form (cached per codec).

        The compressing analogue of :meth:`sealed_packed`: one compress +
        CRC stamp per batch, reused across producer retries.  Batches whose
        payload is under ``min_bytes`` stay raw (see
        :meth:`PackedRecordBatch.seal_wire`)."""
        cached = self._wire_sealed
        if cached is not None and cached[0] == codec:
            return cached[1]
        sealed = self.sealed_packed().seal_wire(codec, min_size=min_bytes)
        self._wire_sealed = (codec, sealed)
        return sealed

    @classmethod
    def of(cls, topic: str, partition: int, records: Iterable[EventRecord]) -> "RecordBatch":
        batch = cls(topic, partition, max_bytes=1 << 62)
        for record in records:
            batch.try_append(record)
        return batch
