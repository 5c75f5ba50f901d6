"""Per-layer metrics: what a traced run reports, and what it must have seen.

Layers are the module names of ``src/repro``.  ``*_self_us_per_event`` is
the layer's spans minus their child spans, over the timed phases of the
traced rounds, divided by the events those rounds produced; ``*_us_per_<x>``
without ``self`` is span time including children, per call.  Counts come
from the program's own public counters or from the benchmark's loop.

:data:`PER_LAYER` is the one list of names and units; ``BENCHMARK.json``
repeats it and the smoke test holds the two equal.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .stats import percentile
from .trace import HTTP_SPAN, ROOT, Tracer

#: ``name -> unit`` of every per-layer metric, in report order.
PER_LAYER: Dict[str, str] = {
    "serde.self_us_per_event": "us",
    "serde.encodes_per_event": "count",
    "record.size_self_us_per_event": "us",
    "record.pack_self_us_per_event": "us",
    "record.compress_us_per_event": "us",
    "record.decompress_us_per_event": "us",
    "record.crc_us_per_event": "us",
    "record.access_self_us_per_event": "us",
    "record.decode_self_us_per_event": "us",
    "record.decodes_per_event_produce": "count",
    "record.decodes_per_event_consume": "count",
    "record.wire_bytes_per_logical_byte": "ratio",
    "producer.buffer_self_us_per_event": "us",
    "producer.flush_self_us_per_event": "us",
    "producer.events_per_batch": "count",
    "producer.buffer_full_flushes": "count",
    "producer.retries": "count",
    "cluster.append_self_us_per_event": "us",
    "cluster.fetch_self_us_per_event": "us",
    "cluster.commit_us_per_commit": "us",
    "cluster.wait_ms_p50": "ms",
    "cluster.wakeups_per_fetch": "count",
    "broker.append_self_us_per_event": "us",
    "broker.fetch_self_us_per_event": "us",
    "partition.append_self_us_per_event": "us",
    "partition.fetch_self_us_per_event": "us",
    "partition.segments_rolled": "count",
    "partition.stored_bytes_per_event": "B",
    "replication.self_us_per_event": "us",
    "replication.rounds_per_batch": "count",
    "replication.isr_shrinks": "count",
    "consumer.poll_self_us_per_event": "us",
    "consumer.events_per_poll": "count",
    "consumer.empty_polls_ratio": "ratio",
    "consumer.commit_us_per_commit": "us",
    "gateway.server.self_ms_per_request": "ms",
    "gateway.server.http_errors": "count",
    "gateway.routers.handle_self_us_per_request": "us",
    "gateway.routers.request_json_us_per_request": "us",
    "gateway.routers.response_encode_us_per_request": "us",
    "gateway.models.parse_us_per_request": "us",
    "eventsource.poll_once_self_us_per_event": "us",
    "eventsource.lag_us_per_poll": "us",
    "eventsource.events_per_invocation": "count",
    "eventsource.matched_ratio": "ratio",
    "patterns.match_us_per_event": "us",
    "executor.invoke_self_us_per_invocation": "us",
    "executor.retries": "count",
    "logs.put_us_per_invocation": "us",
    "driver.self_us_per_event": "us",
    "driver.pipeline_us_per_event": "us",
    "driver.trace_overhead_ratio": "ratio",
    "driver.coverage_ratio": "ratio",
    "driver.unwrapped_callables": "count",
    "driver.produce_ms_p50": "ms",
    "driver.produce_ms_p95": "ms",
    "driver.produce_ms_p99": "ms",
    "driver.consume_ms_p50": "ms",
    "driver.consume_ms_p95": "ms",
    "driver.consume_ms_p99": "ms",
    "driver.delivery_ms_p95": "ms",
    "driver.schedule_lag_ms_p50": "ms",
    "driver.schedule_lag_ms_max": "ms",
    "driver.paced_backlog_events": "count",
    "driver.import_s": "s",
}

#: Per-layer metrics where a larger value is the better one; for the rest
#: smaller is.  They carry no bound: they explain, they do not gate.
HIGHER_IS_BETTER = frozenset({
    "producer.events_per_batch", "consumer.events_per_poll",
    "eventsource.events_per_invocation", "eventsource.matched_ratio",
    "driver.coverage_ratio",
})

_SDK_PRODUCE = (
    "serde.serialize_with_size", "record.size_bytes", "record.try_append",
    "record.sealed_packed", "producer.buffer", "producer.flush",
    "cluster.append_batch", "cluster.append_chunks", "broker.append_packed",
    "partition.append_packed", "partition.append_stored",
    "partition.advance_high_watermark", "replication.replicate_from_leader",
)
_SDK_CONSUME = (
    "consumer.poll", "consumer.commit", "cluster.fetch_assignment",
    "cluster.commit_group", "offsets.commit_many", "partition.fetch_with_usage",
    "record.record_at",
)
_REPLICATED = ("replication.check_min_isr", "broker.replicate")
_GATEWAY = (
    HTTP_SPAN, "gateway.routers.handle", "gateway.routers.request_json",
    "gateway.routers.response_encode", "gateway.models.parse", "cluster.session_fetch",
    "broker.fetch_many", "cluster.append_batch", "replication.check_min_isr",
)

#: Spans that must have recorded a call on each workload: the callables its
#: "why" says do the work.  A wrapper that was installed but never fires (a
#: binding patched in the wrong module, a method looked up past the class)
#: fails the traced run here instead of reporting 0 us.
EXPECTED_SPANS: Dict[str, Tuple[str, ...]] = {
    "sdk_1k_all": _SDK_PRODUCE + _SDK_CONSUME + _REPLICATED,
    "sdk_32b_acks1": _SDK_PRODUCE + _SDK_CONSUME,
    "wire_4k_gzip": _SDK_CONSUME + _REPLICATED + (
        "record.sealed_wire", "record.seal_wire", "record.to_bytes", "record.from_bytes",
        "record.ensure_payload", "record.verify_crc", "record.compress",
        "record.decompress", "record.json_decode", "serde.serialize",
        "cluster.append_batch", "broker.append_packed", "partition.append_packed",
    ),
    "gateway_json_1k": _GATEWAY + ("cluster.commit_group",),
    "gateway_paced_1k": _GATEWAY + ("cluster.wait_for_data",),
    "trigger_1k_filter": _SDK_PRODUCE + _SDK_CONSUME + _REPLICATED + (
        "eventsource.poll_once", "eventsource.lag", "patterns.matches",
        "executor.invoke", "logs.put", "logs.record_invocation",
    ),
}

#: Span-name prefixes that must *not* appear on a workload (its bypasses).
FORBIDDEN_PREFIXES: Dict[str, Tuple[str, ...]] = {
    "sdk_1k_all": ("gateway.", "eventsource.", "record.json_decode", "record.compress"),
    "sdk_32b_acks1": ("gateway.", "eventsource.", "record.json_decode", "record.compress"),
    "wire_4k_gzip": ("gateway.", "eventsource.", "producer."),
    "gateway_json_1k": ("eventsource.", "producer.", "consumer.poll"),
    "gateway_paced_1k": ("eventsource.", "producer.", "consumer.poll"),
    "trigger_1k_filter": ("gateway.",),
}


def span_problems(workload: str, tracer: Tracer, missing: Sequence[str]) -> List[str]:
    """Expected spans that never fired and forbidden ones that did."""
    seen = {
        name for (phase, name), stat in tracer.stats.items()
        if stat.calls and phase != "setup"
    }
    problems = [
        f"span {name} recorded no call"
        for name in EXPECTED_SPANS[workload]
        if name not in seen and name not in missing
    ]
    problems += [
        f"span {name} appeared but {workload} bypasses it"
        for name in sorted(seen)
        if name.startswith(FORBIDDEN_PREFIXES[workload])
    ]
    return problems


def layer_seconds(tracer: Tracer, phases: Sequence[str]) -> Dict[str, float]:
    """Self time of every layer over ``phases``, largest first.  A span's
    layer is its name up to the last dot.

    The gateway's handler spans run on a server thread *inside* the request
    the client timed (:data:`HTTP_SPAN`, layer ``gateway.server``); they are
    taken out of it, which leaves socket, framing and thread hand-off, so
    the layers still sum to the wall time of the root spans.
    """
    by_layer: Dict[str, float] = {}
    for (phase, name), stat in tracer.stats.items():
        if phase in phases:
            layer = name.rpartition(".")[0] or name
            by_layer[layer] = by_layer.get(layer, 0.0) + stat.self_time
    if "gateway.server" in by_layer:
        by_layer["gateway.server"] -= tracer.stat("gateway.routers.handle", phases).total
    return dict(sorted(by_layer.items(), key=lambda item: -item[1]))


def per_layer(workload, tracer: Tracer, traced: list, untraced: list,
              missing: Sequence[str], import_s: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value.  ``traced``/``untraced`` are the rounds
    run with and without the wrappers; layers a workload does not enter read 0."""
    phases = workload.phases
    events = sum(r.produced for r in traced) or 1
    consumed = sum(r.consumed for r in traced) or 1
    us = 1e6

    def fact(name: str) -> float:
        return sum(r.facts.get(name, 0) for r in traced)

    def per_round(name: str) -> float:
        return fact(name) / len(traced)

    def self_us(*names: str) -> float:
        return sum(tracer.stat(name, phases).self_time for name in names) * us / events

    def total_us(*names: str) -> float:
        return sum(tracer.stat(name, phases).total for name in names) * us / events

    def per_call_us(name: str, *extra: str, calls_of: str = "") -> float:
        calls = tracer.stat(calls_of or name, phases).calls
        total = sum(tracer.stat(n, phases).total for n in (name,) + extra)
        return total * us / calls if calls else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    handle = tracer.stat("gateway.routers.handle", phases)
    http = tracer.stat(HTTP_SPAN, phases)
    waits = tracer.stat("cluster.wait_for_data", phases)
    fetches = tracer.stat("cluster.session_fetch", phases).calls
    invoke = tracer.stat("executor.invoke", phases)
    poll_once = tracer.stat("eventsource.poll_once", phases)
    covered = sum(layer_seconds(tracer, phases).values())

    def pipeline(rounds: list) -> float:
        if workload.phases == ("paced",):
            # The schedule fixes the wall time of an open-loop run; what the
            # pipeline costs there is the CPU both sides burn per event.
            return ratio(sum(r.cpu_s for r in rounds) * us, sum(r.produced for r in rounds))
        return ratio(
            sum(r.produce_s + r.consume_s for r in rounds) * us,
            sum(r.produced for r in rounds),
        )

    def tail(kind: str, q: float) -> float:
        samples = [sample for r in untraced for sample in r.latencies(kind)]
        # A percentile needs ten samples beyond it to mean anything.
        if not samples or len(samples) * (1 - q) < 10:
            return 0.0
        return percentile(samples, q) * 1e3

    lag = [sample for r in untraced for sample in r.schedule_lag]
    values = {
        "serde.self_us_per_event": self_us(
            "serde.serialize_with_size", "serde.serialize", "serde.deserialize"),
        "serde.encodes_per_event": ratio(
            tracer.counter("serde.json_encodes", phases), events),
        "record.size_self_us_per_event": self_us("record.size_bytes", "record.try_append"),
        "record.pack_self_us_per_event": self_us(
            "record.sealed_packed", "record.sealed_wire", "record.seal_wire",
            "record.to_bytes", "record.from_bytes", "record.ensure_payload"),
        "record.compress_us_per_event": total_us("record.compress"),
        "record.decompress_us_per_event": total_us("record.decompress"),
        "record.crc_us_per_event": total_us("record.verify_crc"),
        "record.access_self_us_per_event": self_us("record.record_at"),
        "record.decode_self_us_per_event": total_us("record.json_decode"),
        "record.decodes_per_event_produce": ratio(
            tracer.stat("record.json_decode", phases[:1]).calls, events),
        "record.decodes_per_event_consume": ratio(
            tracer.stat("record.json_decode", phases[1:]).calls, consumed),
        "record.wire_bytes_per_logical_byte": ratio(
            fact("stored_bytes"), fact("logical_bytes")),
        "producer.buffer_self_us_per_event": self_us("producer.buffer"),
        "producer.flush_self_us_per_event": self_us("producer.flush"),
        "producer.events_per_batch": ratio(fact("records_sent"), fact("batches_sent")),
        "producer.buffer_full_flushes": per_round("buffer_full_flushes"),
        "producer.retries": per_round("producer_retries"),
        "cluster.append_self_us_per_event": self_us(
            "cluster.append_batch", "cluster.append_chunks"),
        "cluster.fetch_self_us_per_event": self_us(
            "cluster.session_fetch", "cluster.fetch_assignment"),
        "cluster.commit_us_per_commit": per_call_us("cluster.commit_group"),
        "cluster.wait_ms_p50": (
            percentile(waits.durations, 0.5) * 1e3 if waits.durations else 0.0),
        "cluster.wakeups_per_fetch": ratio(waits.calls, fetches),
        "broker.append_self_us_per_event": self_us("broker.append_packed", "broker.replicate"),
        "broker.fetch_self_us_per_event": self_us("broker.fetch", "broker.fetch_many"),
        "partition.append_self_us_per_event": self_us(
            "partition.append_packed", "partition.append_stored",
            "partition.advance_high_watermark"),
        "partition.fetch_self_us_per_event": self_us("partition.fetch_with_usage"),
        "partition.segments_rolled": per_round("segments_rolled"),
        "partition.stored_bytes_per_event": ratio(fact("stored_bytes"), fact("stored_events")),
        "replication.self_us_per_event": self_us(
            "replication.replicate_from_leader", "replication.check_min_isr"),
        "replication.rounds_per_batch": ratio(
            tracer.stat("replication.replicate_from_leader", phases).calls,
            tracer.stat("cluster.append_chunks", phases).calls),
        "replication.isr_shrinks": per_round("isr_shrinks"),
        "consumer.poll_self_us_per_event": self_us("consumer.poll"),
        "consumer.events_per_poll": ratio(consumed, fact("polls")),
        "consumer.empty_polls_ratio": ratio(fact("empty_polls"), fact("polls")),
        "consumer.commit_us_per_commit": per_call_us("consumer.commit"),
        "gateway.server.self_ms_per_request": ratio(
            (http.total - handle.total) * 1e3, http.calls),
        "gateway.server.http_errors": per_round("http_errors"),
        "gateway.routers.handle_self_us_per_request": ratio(
            handle.self_time * us, handle.calls),
        "gateway.routers.request_json_us_per_request": per_call_us(
            "gateway.routers.request_json", calls_of="gateway.routers.handle"),
        "gateway.routers.response_encode_us_per_request": per_call_us(
            "gateway.routers.response_encode", calls_of="gateway.routers.handle"),
        "gateway.models.parse_us_per_request": per_call_us("gateway.models.parse"),
        "eventsource.poll_once_self_us_per_event": ratio(
            poll_once.self_time * us, fact("records_read")),
        "eventsource.lag_us_per_poll": per_call_us("eventsource.lag"),
        "eventsource.events_per_invocation": ratio(
            fact("records_matched"), fact("invocations")),
        "eventsource.matched_ratio": ratio(fact("records_matched"), fact("records_read")),
        "patterns.match_us_per_event": per_call_us("patterns.matches"),
        "executor.invoke_self_us_per_invocation": ratio(
            invoke.self_time * us, invoke.calls),
        "executor.retries": per_round("executor_retries"),
        "logs.put_us_per_invocation": per_call_us(
            "logs.put", "logs.record_invocation", calls_of="executor.invoke"),
        "driver.self_us_per_event": self_us(ROOT),
        "driver.pipeline_us_per_event": pipeline(traced),
        "driver.trace_overhead_ratio": ratio(pipeline(traced), pipeline(untraced)),
        "driver.coverage_ratio": ratio(covered, tracer.stat(ROOT, phases).total),
        "driver.unwrapped_callables": float(len(missing)),
        "driver.produce_ms_p50": tail("produce", 0.5),
        "driver.produce_ms_p95": tail("produce", 0.95),
        "driver.produce_ms_p99": tail("produce", 0.99),
        "driver.consume_ms_p50": tail("consume", 0.5),
        "driver.consume_ms_p95": tail("consume", 0.95),
        "driver.consume_ms_p99": tail("consume", 0.99),
        "driver.delivery_ms_p95": tail("delivery", 0.95),
        "driver.schedule_lag_ms_p50": percentile(lag, 0.5) * 1e3 if lag else 0.0,
        "driver.schedule_lag_ms_max": max(lag) * 1e3 if lag else 0.0,
        "driver.paced_backlog_events": float(sum(
            r.facts.get("backlog", 0) for r in traced + untraced)),
        "driver.import_s": import_s,
    }
    if values.keys() != PER_LAYER.keys():
        raise RuntimeError(f"per-layer names drifted: {values.keys() ^ PER_LAYER.keys()}")
    return values
