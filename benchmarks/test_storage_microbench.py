"""Work counts of the segmented partition-log storage layer.

Each test drives a 100k-record log (or a mirror of one) and asserts the
exact amount of work the segmented design promises: appends and paged
fetches decode nothing and keep one chunk per produce batch, retention
drops whole segments by pointer and rebuilds at most the one boundary
segment, and mirroring forwards the source's stored chunks without
encoding, decoding or compressing anything.  A regression shows up as a
count that moved, never as a slower timer.
"""

import json

from repro.fabric.cluster import FabricCluster
from repro.fabric.partition import LogSegment, PartitionLog
from repro.fabric.record import EventRecord, PackedRecordBatch
from repro.fabric.retention import enforce_size_retention, enforce_time_retention
from repro.fabric.topic import TopicConfig

NUM_RECORDS = 100_000
BATCH = 500
# A 40-char string value serializes to 40 B; +24 B framing = 64 B on the wire.
EVENT_64B = "x" * 40
# 200 batches of 500 over 4096-record segments: 25 segments, and a batch
# is split only where a segment rolls, so 200 + 24 chunks.
SEGMENTS = 25
CHUNKS = NUM_RECORDS // BATCH + SEGMENTS - 1


def _fill(log, num_records=NUM_RECORDS):
    """Append ``num_records`` in 500-record batches; one batch per tick of
    a deterministic append-time clock so time retention has a clean cut."""
    for batch_index in range(num_records // BATCH):
        log.append_batch(
            [EventRecord(value=EVENT_64B) for _ in range(BATCH)],
            append_time=float(batch_index),
        )
    return log


def _chunks(log):
    return sum(len(segment.records.runs()) for segment in log._segments)


def _reused(before, log):
    """How many of ``log``'s segments are the very objects in ``before``."""
    kept = {id(segment) for segment in before}
    return sum(id(segment) in kept for segment in log._segments)


def test_append_throughput_not_regressed(calls):
    """Each ``append_batch`` packs its 500 records once and adopts the
    batch by reference: nothing is decoded, and a batch is split only
    where a segment rolls."""
    calls.watch(json, "loads")
    log = _fill(PartitionLog("bench", 0))
    assert calls["json.loads"] == 0
    assert log.num_segments == SEGMENTS
    assert _chunks(log) == CHUNKS


def test_fetch_throughput_not_regressed(calls):
    """Paging through 100k records in 500-record fetches assembles lazy
    views over the stored chunks: no record is decoded, and the pages
    together hold each chunk exactly once."""
    log = _fill(PartitionLog("bench", 0))
    calls.watch(json, "loads")
    offset = runs = 0
    while offset < log.log_end_offset:
        view = log.fetch(offset, max_records=BATCH)
        runs += len(view.runs())
        offset += len(view)
    assert offset == NUM_RECORDS
    assert calls["json.loads"] == 0
    assert runs == _chunks(log) == CHUNKS


def _watch_retention(calls):
    calls.watch(json, "loads")
    calls.watch(PackedRecordBatch, "stored_at")
    calls.watch(LogSegment, "slice_from")


def _assert_dropped_half(calls, removed, before, log):
    """Half the log went as whole segments plus one boundary slice."""
    assert removed == NUM_RECORDS // 2
    assert log.log_start_offset == NUM_RECORDS // 2
    assert calls["json.loads"] == calls["PackedRecordBatch.stored_at"] == 0
    assert calls["LogSegment.slice_from"] == 1
    assert _reused(before, log) == log.num_segments - 1


def test_time_retention_run_5x_faster(calls):
    """Expiring the older half of a 100k-record log drops whole segments
    by pointer and slices only the segment holding the cutoff."""
    log = _fill(PartitionLog("bench", 0))
    before = log._segments
    _watch_retention(calls)
    now = float(NUM_RECORDS // BATCH)
    removed = enforce_time_retention(log, retention_seconds=now / 2, now=now)
    _assert_dropped_half(calls, removed, before, log)


def test_steady_state_retention_noop_5x_faster(calls):
    """The common production case — nothing is old enough — answers from
    cached segment time bounds and touches no segment."""
    log = _fill(PartitionLog("bench", 0))
    before = log._segments
    _watch_retention(calls)
    now = float(NUM_RECORDS // BATCH)
    assert enforce_time_retention(log, now + 1_000.0, now=now) == 0
    assert len(log) == NUM_RECORDS
    assert calls["LogSegment.slice_from"] == calls["PackedRecordBatch.stored_at"] == 0
    assert _reused(before, log) == len(before) == log.num_segments


def test_size_retention_and_accounting_5x_faster(calls):
    """Size retention sums cached per-segment byte counters: keeping half
    the bytes drops half the records the same way time retention does."""
    log = _fill(PartitionLog("bench", 0))
    before = log._segments
    _watch_retention(calls)
    removed = enforce_size_retention(log, (NUM_RECORDS // 2) * 64)
    _assert_dropped_half(calls, removed, before, log)


def test_mirror_packed_forwarding_not_regressed(mirror_by_reference):
    """Cross-cluster mirroring forwards packed chunks by reference: a
    header overlay carries provenance and nothing is re-encoded."""
    num_partitions, per_partition = 4, 2_500
    source, destination = (
        FabricCluster(num_brokers=1, name=name) for name in ("bench-src", "bench-dst")
    )
    for cluster in (source, destination):
        cluster.admin().create_topic(
            "mirror-bench",
            TopicConfig(num_partitions=num_partitions, replication_factor=1),
        )
    for p in range(num_partitions):
        for _ in range(per_partition // BATCH):
            source.append_batch(
                "mirror-bench", p, [EventRecord(value=EVENT_64B) for _ in range(BATCH)]
            )
    stats = mirror_by_reference(source, destination, "mirror-bench")
    assert stats.records_mirrored == num_partitions * per_partition
