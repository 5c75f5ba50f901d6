"""Producer client for the event fabric.

Implements the client-side behaviours the Octopus SDK exposes
(Section IV-E/IV-F): configurable acknowledgements, bounded buffering
(``buffer.memory``), batching per partition, automatic retries on
retriable errors, and an asynchronous ``flush``.  With
``linger_seconds > 0`` a background delivery thread flushes lingered
batches on its own — the application does not need another :meth:`buffer`
call (or any call at all) for buffered events to reach the brokers.  The
producer talks to a :class:`~repro.fabric.cluster.FabricCluster`
directly; when used through the SDK the cluster handle is obtained via
the Octopus Web Service after authentication.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional

from repro.common.clock import Clock, SystemClock
from repro.common.retry import RetryPolicy
from repro.common.sync import create_lock, create_rlock
from repro.fabric.cluster import FabricCluster
from repro.fabric.errors import FabricError
from repro.fabric.partitioner import Partitioner
from repro.fabric.record import NO_HEADERS, EventRecord, RecordBatch, RecordMetadata

#: Latency samples retained (matches the consumer's bounded window).
METRICS_WINDOW = 2048

#: Batches whose payload is below this many bytes are sent raw even with
#: ``compression`` set: codec overhead beats the saving on tiny batches
#: (Kafka's analogue gate lives in the broker's down-convert).
COMPRESSION_MIN_BYTES = 512


@dataclass(frozen=True)
class ProducerConfig:
    """Client configuration, mirroring the Kafka producer options the paper tunes.

    The evaluation (Section V-B) reduces ``buffer.memory`` to 256 KB to
    optimise throughput/latency; that is the default here as well.
    """

    acks: object = 1
    retries: int = 3
    retry_backoff_seconds: float = 0.05
    buffer_memory_bytes: int = 256 * 1024
    batch_max_bytes: int = 64 * 1024
    linger_seconds: float = 0.0
    metadata_max_age_seconds: float = 5.0
    client_id: str = "octopus-producer"
    #: Batch compression codec (``compression.type``): ``None``/``"none"``
    #: sends raw; any codec registered in :mod:`repro.fabric.record`
    #: (``gzip``/``lzma`` from the stdlib, ``lz4``/``zstd`` when their
    #: packages are installed) compresses each sealed batch once — the
    #: compressed body then travels broker → log → replicas → mirror
    #: without ever being re-inflated on a forward path.
    compression: Optional[str] = None

    def validate(self) -> None:
        if self.acks not in (0, 1, "all", "0", "1"):
            raise ValueError(f"acks must be 0, 1 or 'all', got {self.acks!r}")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.buffer_memory_bytes <= 0:
            raise ValueError("buffer_memory_bytes must be > 0")
        if self.batch_max_bytes <= 0:
            raise ValueError("batch_max_bytes must be > 0")
        if self.linger_seconds < 0:
            raise ValueError("linger_seconds must be >= 0")
        if self.metadata_max_age_seconds < 0:
            raise ValueError("metadata_max_age_seconds must be >= 0")
        if self.compression is not None and self.compression != "none":
            from repro.fabric.record import get_codec

            get_codec(self.compression)  # raises UnknownCodecError if absent


@dataclass
class ProducerMetrics:
    """Counters the benchmarking operator aggregates after a run."""

    records_sent: int = 0
    bytes_sent: int = 0
    records_failed: int = 0
    retries: int = 0
    batches_sent: int = 0
    send_latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=METRICS_WINDOW)
    )

    def record_send(self, size: int, latency: float) -> None:
        self.records_sent += 1
        self.bytes_sent += size
        self.send_latencies.append(latency)

    def record_batch_send(self, count: int, size: int, latency: float) -> None:
        self.records_sent += count
        self.bytes_sent += size
        self.batches_sent += 1
        self.send_latencies.append(latency)


class FabricProducer:
    """Publishes events to the fabric with retries and batching."""

    def __init__(
        self,
        cluster: FabricCluster,
        config: Optional[ProducerConfig] = None,
        *,
        principal: Optional[str] = None,
        sleep_fn: Optional[Callable[[float], None]] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.config = config or ProducerConfig()
        self.config.validate()
        self._cluster = cluster
        self._principal = principal
        self._partitioner = Partitioner()
        # The cluster's clock by default, like FabricConsumer: record
        # timestamps, linger ages and retry backoff share its time base.
        self._clock: Clock = clock or cluster.clock
        self._sleep = sleep_fn if sleep_fn is not None else self._clock.sleep
        self._lock = create_rlock("FabricProducer")
        # Serializes whole flush passes (background vs. foreground) so
        # concurrent flushes cannot interleave batches of one partition.
        self._flush_lock = create_lock("FabricProducer.flush")
        self._pending: Dict[tuple[str, int], RecordBatch] = {}  #: guarded_by _lock
        self._sealed: List[RecordBatch] = []  #: guarded_by _lock
        self._partition_counts: Dict[str, tuple[int, float]] = {}
        self._metadata_epoch = cluster.metadata_epoch
        self._buffered_bytes = 0  #: guarded_by _lock
        self._closed = False
        self._delivery_stop = threading.Event()
        self._delivery_thread: Optional[threading.Thread] = None
        self.metrics = ProducerMetrics()
        # One shared RetryPolicy drives every delivery retry: exponential
        # backoff from the configured base (``retry.backoff.ms``), capped,
        # with a dash of deterministic jitter to de-synchronize a fleet of
        # producers hammering a recovering broker.
        self._retry_policy = RetryPolicy(
            max_attempts=self.config.retries + 1,
            base_backoff=self.config.retry_backoff_seconds,
            multiplier=2.0,
            max_backoff=max(1.0, self.config.retry_backoff_seconds),
            jitter=0.2,
        )

    # Delivery retries only fabric-retriable errors; anything else
    # (BufferError, programming errors) surfaces immediately.
    @staticmethod
    def _retriable(exc: BaseException) -> bool:
        return isinstance(exc, FabricError) and exc.retriable

    def _count_retry(self, attempt: int, exc: BaseException, delay: float) -> None:
        self.metrics.retries += 1

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def send(
        self,
        topic: str,
        value: Any,
        *,
        key: Any = None,
        headers: Optional[Mapping[str, str]] = None,
        partition: Optional[int] = None,
        timestamp: Optional[float] = None,
    ) -> RecordMetadata:
        """Publish a single event synchronously and return its metadata.

        Retries transparently on retriable fabric errors up to
        ``config.retries`` times, as the SDK producer does.
        """
        self._ensure_open()
        now = self._clock.now()
        record = EventRecord(
            value=value,
            key=key,
            headers=dict(headers) if headers else NO_HEADERS,
            timestamp=timestamp if timestamp is not None else now,
        )
        target = self._select_partition(topic, key, partition, now)
        return self._send_with_retries(topic, target, record)

    def send_batch(
        self,
        topic: str,
        values: List[Any],
        *,
        key: Any = None,
        partition: Optional[int] = None,
    ) -> List[RecordMetadata]:
        """Publish several events as per-partition batches.

        Events are grouped by target partition and each group travels
        through :meth:`FabricCluster.append_batch` — one metadata/ACL/leader
        resolution and one replication pass per partition instead of one per
        event.  Metadata is returned in input order.
        """
        self._ensure_open()
        slots: List[Optional[RecordMetadata]] = [None] * len(values)
        groups: Dict[int, List[tuple[int, EventRecord]]] = {}
        now = self._clock.now()
        for index, value in enumerate(values):
            record = EventRecord(value=value, key=key, timestamp=now)
            target = self._select_partition(topic, key, partition, now)
            groups.setdefault(target, []).append((index, record))
        for target, items in groups.items():
            batch = RecordBatch.of(topic, target, [record for _, record in items])
            metadata = self._send_batch_with_retries(batch)
            for (index, _), md in zip(items, metadata):
                slots[index] = md
        return [md for md in slots if md is not None]

    def buffer(self, topic: str, value: Any, *, key: Any = None,
               partition: Optional[int] = None) -> None:
        """Queue an event locally; delivery happens on :meth:`flush`.

        This is the asynchronous path used by the Parsl monitoring
        application (Section VI-E) to batch events and publish them off the
        task critical path.  Raises ``BufferError`` when ``buffer.memory``
        would be exceeded.
        """
        self._ensure_open()
        # One clock read stamps the record, ages the partition metadata
        # and dates a new batch; the record is sized once, here.
        now = self._clock.now()
        record = EventRecord(value=value, key=key, timestamp=now)
        size = record.size_bytes()
        with self._lock:
            if self._buffered_bytes + size > self.config.buffer_memory_bytes:
                raise BufferError(
                    f"producer buffer full ({self._buffered_bytes} B buffered, "
                    f"limit {self.config.buffer_memory_bytes} B); call flush()"
                )
            target = self._select_partition(topic, key, partition, now)
            batch_key = (topic, target)
            batch = self._pending.get(batch_key)
            if batch is None or not batch.try_append(record, size):
                if batch is not None:
                    # Seal the full batch; it is delivered on the next
                    # flush, never dropped.
                    self._sealed.append(batch)
                batch = RecordBatch(
                    topic, target, max_bytes=self.config.batch_max_bytes, created_at=now
                )
                batch.try_append(record, size)
                self._pending[batch_key] = batch
            self._buffered_bytes += size
        if self.config.linger_seconds > 0:
            self._ensure_delivery_thread()
            self._flush_if_lingered()

    def flush(self) -> List[RecordMetadata]:
        """Deliver every buffered event as whole batches; returns all metadata.

        Each sealed or open batch goes through the cluster's batched append
        path with per-batch retry/backoff.  If a batch fails permanently,
        every not-yet-delivered batch (the failing one included) is returned
        to the buffer so a later flush can retry it — buffered events are
        never silently lost.
        """
        with self._flush_lock:
            with self._lock:
                batches = self._sealed + [b for b in self._pending.values() if len(b)]
                self._sealed = []
                self._pending = {}
                self._buffered_bytes = 0
            out: List[RecordMetadata] = []
            for index, batch in enumerate(batches):
                try:
                    # Batches that fail here are re-buffered below, not lost,
                    # so they must not be counted in records_failed.
                    out.extend(
                        self._send_batch_with_retries(batch, count_failures=False)
                    )
                except FabricError:
                    with self._lock:
                        remaining = batches[index:]
                        self._sealed = remaining + self._sealed
                        self._buffered_bytes += sum(b.size_bytes for b in remaining)
                    raise
            return out

    def _flush_if_lingered(self) -> None:
        """Auto-flush when the oldest buffered batch exceeds ``linger_seconds``."""
        now = self._clock.now()
        with self._lock:
            oldest = min(
                (
                    batch.created_at
                    for batch in self._sealed + list(self._pending.values())
                    if len(batch)
                ),
                default=None,
            )
        if oldest is not None and now - oldest >= self.config.linger_seconds:
            self.flush()

    def _ensure_delivery_thread(self) -> None:
        """Start the background delivery thread (once) when lingering."""
        if self._delivery_thread is not None:
            return
        with self._lock:
            if self._delivery_thread is not None or self._closed:
                return
            self._delivery_thread = threading.Thread(
                target=self._delivery_loop,
                name=f"delivery-{self.config.client_id}",
                daemon=True,
            )
            self._delivery_thread.start()

    def _delivery_loop(self) -> None:
        """Flush lingered batches without further application calls.

        Wakes a few times per linger interval and compares batch ages on
        the injected clock.  Under a simulated clock the linger can elapse
        at any real moment, so the wait is additionally capped at 50 ms to
        stay responsive; real-clock producers sleep ``linger/4`` and don't
        busy-wake.
        """
        interval = max(self.config.linger_seconds / 4.0, 0.001)
        if not isinstance(self._clock, SystemClock):
            interval = min(interval, 0.05)
        while not self._delivery_stop.wait(interval):
            try:
                self._flush_if_lingered()
            except FabricError:  # lint: ignore[SWALLOWED-ERROR]
                # The failed batches were re-buffered; retried next tick.
                pass

    @property
    def buffered_bytes(self) -> int:
        with self._lock:
            return self._buffered_bytes

    def close(self) -> None:
        """Stop background delivery, flush outstanding events, refuse sends."""
        if self._closed:
            return
        stopped_thread = self._delivery_thread
        if stopped_thread is not None:
            self._delivery_stop.set()
            stopped_thread.join(timeout=5.0)
        try:
            self.flush()
        except FabricError:
            # The failed batches were re-buffered and the producer stays
            # open, so background delivery must be restartable — otherwise
            # lingered batches would sit in the buffer forever.
            if stopped_thread is not None:
                with self._lock:
                    self._delivery_stop = threading.Event()
                    self._delivery_thread = None
            raise
        self._closed = True

    def __enter__(self) -> "FabricProducer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("producer is closed")

    def _select_partition(
        self, topic: str, key: Any, explicit: Optional[int], now: float
    ) -> int:
        """Route a record to a partition using cached topic metadata.

        Partition counts are cached per topic (one cluster metadata lookup
        per topic instead of per record, as Kafka clients do), refreshed
        after ``metadata_max_age_seconds`` so keyed/round-robin records see
        partition growth, and refreshed eagerly when an explicit partition
        lies outside the cached range — partition counts only ever grow.
        The cache is additionally scoped to the cluster's metadata epoch:
        an admin growing the topic (``FabricAdmin.set_partitions``) bumps
        the epoch, so records route to the new partitions immediately
        rather than after the max-age window.  ``now`` is the caller's
        clock read, so a record costs one.
        """
        epoch = self._cluster.metadata_epoch
        if epoch != self._metadata_epoch:
            self._partition_counts.clear()
            self._metadata_epoch = epoch
        cached = self._partition_counts.get(topic)
        if cached is None or now - cached[1] >= self.config.metadata_max_age_seconds:
            num_partitions = self._cluster.topic(topic).num_partitions
            self._partition_counts[topic] = (num_partitions, now)
        else:
            num_partitions = cached[0]
        try:
            return self._partitioner.partition(key, num_partitions, explicit=explicit)
        except ValueError:
            fresh = self._cluster.topic(topic).num_partitions
            if fresh == num_partitions:
                raise
            self._partition_counts[topic] = (fresh, now)
            return self._partitioner.partition(key, fresh, explicit=explicit)

    def _send_with_retries(
        self, topic: str, partition: int, record: EventRecord
    ) -> RecordMetadata:
        start = time.perf_counter()

        def attempt() -> RecordMetadata:
            return self._cluster.append(
                topic,
                partition,
                record,
                acks=self.config.acks,
                principal=self._principal,
            )

        try:
            metadata = self._retry_policy.call(
                attempt,
                clock=self._clock,
                sleep=self._sleep,
                retriable=self._retriable,
                on_retry=self._count_retry,
            )
        except FabricError:
            self.metrics.records_failed += 1
            raise
        self.metrics.record_send(
            metadata.serialized_size, time.perf_counter() - start
        )
        return metadata

    def _send_batch_with_retries(
        self, batch: RecordBatch, *, count_failures: bool = True
    ) -> List[RecordMetadata]:
        """Deliver one whole batch via the batched append path, with retries."""
        start = time.perf_counter()
        codec = self.config.compression

        def attempt() -> List[RecordMetadata]:
            return self._cluster.append_batch(
                batch.topic,
                batch.partition,
                # Seal once: the same packed batch object becomes the
                # leader log's storage chunk (no per-record re-encode).
                # With compression configured the seal also compresses
                # and CRC-stamps the body — once, reused on retries.
                batch.sealed_packed()
                if codec is None or codec == "none"
                else batch.sealed_wire(codec, COMPRESSION_MIN_BYTES),
                acks=self.config.acks,
                principal=self._principal,
            )

        try:
            metadata = self._retry_policy.call(
                attempt,
                clock=self._clock,
                sleep=self._sleep,
                retriable=self._retriable,
                on_retry=self._count_retry,
            )
        except FabricError:
            if count_failures:
                self.metrics.records_failed += len(batch)
            raise
        self.metrics.record_batch_send(
            len(metadata), batch.size_bytes, time.perf_counter() - start
        )
        return metadata
