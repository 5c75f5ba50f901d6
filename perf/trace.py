"""Span recorders the benchmark installs around the fabric's public callables.

Nothing in ``src/`` knows about tracing.  :func:`install` replaces class
attributes (and two module-level bindings, and the ``gzip`` codec through
``register_codec``) with timing wrappers at run time and returns a handle
that puts the originals back, so one process can alternate traced and
untraced rounds and report the tracing overhead it measured itself.

A span has a name, start, end, parent and the id of the produce/consume
unit it ran under.  Per-record callables (``buffer``, ``size_bytes``,
``record_at``, ``matches`` ...) would make one span per event; they are
*aggregated* instead: call count, total and self time are added to the
statistics, no span is kept.  A layer's self time is its span minus the
part its child spans cover; the root span of a phase belongs to the
benchmark's own loop (``driver``), so the self times of one thread sum to
the phase's wall time by construction — ``driver.coverage_ratio`` checks it.
"""

from __future__ import annotations

import bisect
import importlib
import json
import threading
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: Spans kept for the trace file; statistics cover every call regardless.
MAX_SPANS_KEPT = 20_000

ROOT = "driver"
#: Span the gateway workloads record around one HTTP round trip, measured
#: on the client; its children run on the server's handler thread.
HTTP_SPAN = "gateway.server.request"
#: Request header carrying the client's unit id to the server-side spans.
UNIT_HEADER = "X-Perf-Unit"

#: Span names whose individual durations are kept (for a p50).
KEEP_DURATIONS = frozenset({"cluster.wait_for_data"})

_now = time.perf_counter


class Stat:
    """Calls, total seconds and self seconds of one span name in one phase."""

    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: List[float] = []


class Tracer:
    """In-memory span store with per-thread span stacks.

    A wrapper adds to its own three counters and nothing else on the way
    out (a per-record callable is wrapped, too, so every step costs the
    traced run); :meth:`settle` moves the counters into :attr:`stats`
    under the phase that just ended.  Two gateway handler threads leaving
    the same callable at once can lose one update; the paced workload, the
    only one with two, parks them most of the time.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.dropped = 0
        self.stats: Dict[Tuple[str, str], Stat] = defaultdict(Stat)
        self.counters: Dict[Tuple[str, str], int] = defaultdict(int)
        self.phase = "setup"
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._open: List[Tuple[str, list]] = []

    def set_unit(self, unit: Any) -> None:
        self._local.unit = unit

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[(self.phase, name)] += amount

    def settle(self) -> None:
        """Book what the wrappers counted since the last call under the
        current phase."""
        for name, counted in self._open:
            if counted[0]:
                stat = self.stats[(self.phase, name)]
                stat.calls += counted[0]
                stat.total += counted[1]
                stat.self_time += counted[2]
                stat.durations += counted[3]
                counted[:] = [0, 0.0, 0.0, []]

    # -- spans ---------------------------------------------------------- #
    def wrap(self, name: str, fn: Callable, *, aggregate: bool = False) -> Callable:
        """``fn`` timed as a span called ``name`` (or aggregated under it)."""
        counted = [0, 0.0, 0.0, []]
        self._open.append((name, counted))
        local = self._local
        ids = self._ids
        keep = name in KEEP_DURATIONS
        spans = self.spans

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            # [seconds spent in child spans, id of the enclosing kept span]
            frame = [0.0, (parent[1] if parent else 0) if aggregate else next(ids)]
            stack.append(frame)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                counted[0] += 1
                counted[1] += duration
                counted[2] += duration - frame[0]
                if keep:
                    counted[3].append(duration)
                if not aggregate:
                    if len(spans) < MAX_SPANS_KEPT:
                        spans.append(
                            (frame[1], parent[1] if parent else 0, name, self.phase,
                             start, end, getattr(local, "unit", None),
                             threading.current_thread().name)
                        )
                    else:
                        self.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def run_phase(self, phase: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as the root (``driver``) span of ``phase``."""
        self.settle()
        self.phase = phase
        try:
            return self.wrap(ROOT, fn)()
        finally:
            self.settle()
            self.phase = "setup"

    # -- queries -------------------------------------------------------- #
    def stat(self, name: str, phases: Tuple[str, ...]) -> Stat:
        out = Stat()
        for phase in phases:
            found = self.stats.get((phase, name))
            if found is not None:
                out.calls += found.calls
                out.total += found.total
                out.self_time += found.self_time
                out.durations += found.durations
        return out

    def counter(self, name: str, phases: Tuple[str, ...]) -> int:
        return sum(self.counters.get((phase, name), 0) for phase in phases)

    def dump(self, path, extra: dict, units: List[Tuple[float, float, str]]) -> None:
        """Write spans and statistics.  ``units`` are the ``(start, end,
        id)`` of the benchmark's produce/consume units; a client-side span
        takes the id of the unit it started in (server-side spans already
        carry the id the request brought)."""
        units = sorted(units)
        starts = [unit[0] for unit in units]
        spans = []
        for span in self.spans:
            if span[6] is None and units:
                at = bisect.bisect_right(starts, span[4]) - 1
                if at >= 0 and span[4] <= units[at][1]:
                    span = span[:6] + (units[at][2],) + span[7:]
            spans.append(span)
        document = dict(extra)
        document["span_fields"] = [
            "id", "parent", "name", "phase", "start_s", "end_s", "unit", "thread"
        ]
        document["spans"] = spans
        document["spans_dropped"] = self.dropped
        document["stats"] = {
            f"{phase}/{name}": {
                "calls": stat.calls,
                "total_s": stat.total,
                "self_s": stat.self_time,
            }
            for (phase, name), stat in sorted(self.stats.items())
        }
        document["counters"] = {
            f"{phase}/{name}": value for (phase, name), value in sorted(self.counters.items())
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


# ---------------------------------------------------------------------- #
# Installation
# ---------------------------------------------------------------------- #
#: ``(span name, import path of the owner, attribute, aggregated?)``.
#: Span names are ``<layer>.<callable>``; the layer is the module's name.
WRAPPED: Tuple[Tuple[str, str, str, bool], ...] = (
    ("serde.deserialize", "repro.fabric.serde", "deserialize", True),
    ("record.size_bytes", "repro.fabric.record:EventRecord", "size_bytes", True),
    ("record.try_append", "repro.fabric.record:RecordBatch", "try_append", True),
    ("record.sealed_packed", "repro.fabric.record:RecordBatch", "sealed_packed", False),
    ("record.sealed_wire", "repro.fabric.record:RecordBatch", "sealed_wire", False),
    ("record.seal_wire", "repro.fabric.record:PackedRecordBatch", "seal_wire", False),
    ("record.to_bytes", "repro.fabric.record:PackedRecordBatch", "to_bytes", False),
    ("record.from_bytes", "repro.fabric.record:PackedRecordBatch", "from_bytes", False),
    ("record.ensure_payload", "repro.fabric.record:PackedRecordBatch", "ensure_payload", False),
    ("record.verify_crc", "repro.fabric.record:PackedRecordBatch", "verify_crc", True),
    ("record.record_at", "repro.fabric.record:PackedRecordBatch", "record_at", True),
    ("producer.buffer", "repro.fabric.producer:FabricProducer", "buffer", True),
    ("producer.flush", "repro.fabric.producer:FabricProducer", "flush", False),
    ("cluster.append_batch", "repro.fabric.cluster:FabricCluster", "append_batch", False),
    ("cluster.append_chunks", "repro.fabric.cluster:FabricCluster", "append_chunks", False),
    ("cluster.commit_group", "repro.fabric.cluster:FabricCluster", "commit_group", False),
    ("cluster.wait_for_data", "repro.fabric.cluster:FabricCluster", "wait_for_data", False),
    ("cluster.session_fetch", "repro.fabric.cluster:FetchSession", "fetch", False),
    ("cluster.fetch_assignment", "repro.fabric.cluster:FetchSession", "fetch_assignment", False),
    ("broker.append_packed", "repro.fabric.broker:Broker", "append_packed", False),
    ("broker.replicate", "repro.fabric.broker:Broker", "replicate", False),
    ("broker.fetch", "repro.fabric.broker:Broker", "fetch", False),
    ("broker.fetch_many", "repro.fabric.broker:Broker", "fetch_many", False),
    ("partition.append_packed", "repro.fabric.partition:PartitionLog", "append_packed", False),
    ("partition.append_stored", "repro.fabric.partition:PartitionLog", "append_stored", False),
    ("partition.fetch_with_usage", "repro.fabric.partition:PartitionLog", "fetch_with_usage", False),
    ("partition.advance_high_watermark", "repro.fabric.partition:PartitionLog",
     "advance_high_watermark", False),
    ("replication.replicate_from_leader", "repro.fabric.replication:ReplicationManager",
     "replicate_from_leader", False),
    ("replication.check_min_isr", "repro.fabric.replication:ReplicationManager",
     "check_min_isr", False),
    ("consumer.poll", "repro.fabric.consumer:FabricConsumer", "poll", False),
    ("consumer.commit", "repro.fabric.consumer:FabricConsumer", "commit", False),
    ("offsets.commit_many", "repro.fabric.offsets:OffsetStore", "commit_many", False),
    ("gateway.routers.handle", "repro.gateway.routers:Gateway", "handle", False),
    ("gateway.routers.request_json", "repro.gateway.routers:GatewayRequest", "json", False),
    ("gateway.routers.response_encode", "repro.gateway.routers:GatewayResponse",
     "body_bytes", False),
    ("gateway.models.parse", "repro.gateway.models:ProduceRequest", "parse", False),
    ("gateway.models.parse", "repro.gateway.models:CommitRequest", "parse", False),
    ("eventsource.poll_once", "repro.faas.eventsource:EventSourceMapping", "poll_once", False),
    ("eventsource.lag", "repro.faas.eventsource:EventSourceMapping", "lag", False),
    ("patterns.matches", "repro.faas.patterns:EventPattern", "matches", True),
    ("executor.invoke", "repro.faas.executor:LambdaExecutor", "invoke", False),
    ("logs.put", "repro.faas.logs:LogGroup", "put", True),
    ("logs.record_invocation", "repro.faas.logs:LogService", "record_invocation", True),
)


def _owner(path: str):
    module_name, _, attribute = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attribute) if attribute else module


class Installed:
    """What :func:`install` changed; :meth:`remove` puts it all back."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []
        #: Span names whose callable the program no longer has.  They read
        #: 0; the trace file and ``driver.unwrapped_callables`` say so,
        #: instead of a refactor of ``src/`` breaking the benchmark.
        self.missing: List[str] = []

    def set(self, owner, attribute: str, value) -> None:
        inherited = attribute not in vars(owner)
        original = None if inherited else vars(owner)[attribute]
        setattr(owner, attribute, value)
        if inherited:
            self.undo(lambda: delattr(owner, attribute))
        else:
            self.undo(lambda: setattr(owner, attribute, original))

    def undo(self, step: Callable[[], None]) -> None:
        self._undo.append(step)

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(tracer: Tracer) -> Installed:
    """Wrap every callable of :data:`WRAPPED`, the serde bindings and gzip."""
    installed = Installed()
    for name, path, attribute, aggregate in WRAPPED:
        # ``vars`` misses inherited attributes (``Model.parse``), ``getattr``
        # would bind classmethods; look the raw descriptor up along the MRO.
        try:
            owner = _owner(path)
            raw = next(
                vars(klass)[attribute]
                for klass in getattr(owner, "__mro__", (owner,))
                if attribute in vars(klass)
            )
        except (ImportError, AttributeError, StopIteration):
            installed.missing.append(name)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = tracer.wrap(name, raw.__func__, aggregate=aggregate)
            installed.set(owner, attribute, type(raw)(wrapped))
        else:
            installed.set(owner, attribute, tracer.wrap(name, raw, aggregate=aggregate))
    for step in (_install_serde, _install_json_decode, _install_gzip, _install_unit_header):
        try:
            step(tracer, installed)
        except (ImportError, AttributeError, KeyError):
            installed.missing.extend(step.spans)
    return installed


def _install_serde(tracer: Tracer, installed: Installed) -> None:
    """``record.py`` binds serde's functions by name at import, so the
    wrappers go into the *importing* module as well as into serde itself
    (whose own ``serialized_size``/``serialize_with_size`` look them up as
    globals).  JSON encodes are counted where they happen: in ``serialize``
    of a value that is not already bytes or text."""
    serde = _owner("repro.fabric.serde")
    record = _owner("repro.fabric.record")
    with_size = tracer.wrap(
        "serde.serialize_with_size", serde.serialize_with_size, aggregate=True
    )
    plain = serde.serialize

    def counting_serialize(value):
        if value is not None and not isinstance(value, (bytes, bytearray, str)):
            tracer.count("serde.json_encodes")
        return plain(value)

    serialize = tracer.wrap("serde.serialize", counting_serialize, aggregate=True)
    for module in (serde, record):
        installed.set(module, "serialize_with_size", with_size)
        installed.set(module, "serialize", serialize)


def _install_json_decode(tracer: Tracer, installed: Installed) -> None:
    """A record decoded from wire bytes pays one ``json.loads`` for its
    value; an in-process batch hands back the producer's own object and
    pays none.  ``record.py`` reaches it as ``json.loads``, so its ``json``
    binding is replaced by a stand-in with a timed ``loads``."""
    record = _owner("repro.fabric.record")
    stand_in = types.SimpleNamespace(**vars(record.json))
    stand_in.loads = tracer.wrap("record.json_decode", record.json.loads, aggregate=True)
    installed.set(record, "json", stand_in)


def _install_gzip(tracer: Tracer, installed: Installed) -> None:
    record = _owner("repro.fabric.record")
    original = record.get_codec("gzip")
    record.register_codec(
        "gzip",
        original.codec_id,
        tracer.wrap("record.compress", original.compress),
        tracer.wrap("record.decompress", original.decompress),
    )
    installed.undo(
        lambda: record.register_codec(
            "gzip", original.codec_id, original.compress, original.decompress
        )
    )


_install_serde.spans = ("serde.serialize_with_size", "serde.serialize")
_install_json_decode.spans = ("record.json_decode",)
_install_gzip.spans = ("record.compress", "record.decompress")


def _install_unit_header(tracer: Tracer, installed: Installed) -> None:
    """Server-side spans take the unit id the client sent with the request."""
    gateway = _owner("repro.gateway.routers:Gateway")
    handle = vars(gateway)["handle"]

    def handle_with_unit(self, method, path, *, query=None, headers=None, body=b""):
        tracer.set_unit((headers or {}).get(UNIT_HEADER))
        return handle(self, method, path, query=query, headers=headers, body=body)

    installed.set(gateway, "handle", handle_with_unit)


_install_unit_header.spans = ()
