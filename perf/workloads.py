"""The six benchmark workloads.

Each workload runs *rounds*: a round sets up a fresh cluster and topic
(and gateway server, where there is one), runs its timed phases on fixed
event counts, and checks what came out.  Five workloads are closed-loop
with one client thread and separate phases — ``produce``, then
``consume``, then ``delivery`` (one event produced and consumed at a time,
for the produce-to-touch latency a user of an idle fabric sees).  One,
``gateway_paced_1k``, is open-loop with two client threads.

Consumers touch every record (``len(value["payload"])``), so a lazily
decoded record is charged for its decode.  Only public functions of
``repro.fabric``, ``repro.gateway`` and ``repro.faas`` are called.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from repro.faas import (
    EventSourceConfig,
    EventSourceMapping,
    FunctionDefinition,
    FunctionRegistry,
    LambdaExecutor,
)
from repro.fabric import (
    ConsumerConfig,
    EventRecord,
    FabricCluster,
    FabricConsumer,
    FabricProducer,
    PackedRecordBatch,
    ProducerConfig,
    RecordBatch,
    TopicConfig,
)
from repro.gateway import Gateway, GatewayServer

from .events import SEQ_BASE, Event, EventFactory
from .trace import HTTP_SPAN, ROOT, UNIT_HEADER, Tracer

TOPIC = "perf"
BROKERS = 3
POLL_RECORDS = 500
WIRE_BATCH = 64
#: A consumer that polls this many times in a row without a record gives up
#: (and the events it never saw count as failed).
MAX_EMPTY_POLLS = 3

now = time.perf_counter


class Round:
    """What one round measured, counted and checked."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.setup_s = 0.0
        self.produce_s = 0.0
        self.consume_s = 0.0
        self.cpu_s = 0.0
        self.produced = 0
        self.consumed = 0
        #: ``(start, end)`` of every produce / consume unit and delivery.
        self.produce_units: List[Tuple[float, float]] = []
        self.consume_units: List[Tuple[float, float]] = []
        self.delivery: List[float] = []
        self.schedule_lag: List[float] = []
        #: Open loop only: due-to-ack seconds, which is not the unit's length.
        self.produce_latency: Optional[List[float]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Counts the per-layer metrics are derived from.
        self.facts: Dict[str, float] = {}

    @contextmanager
    def setting_up(self):
        start = now()
        try:
            yield
        finally:
            self.setup_s += now() - start

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"round {self.index}: {problem}")

    def add(self, fact: str, amount: float = 1) -> None:
        self.facts[fact] = self.facts.get(fact, 0) + amount

    def latencies(self, kind: str) -> List[float]:
        """Seconds per ``produce`` unit, ``consume`` unit or ``delivery``."""
        if kind == "delivery":
            return self.delivery
        if kind == "produce" and self.produce_latency is not None:
            return self.produce_latency
        units = self.produce_units if kind == "produce" else self.consume_units
        return [end - start for start, end in units]

    def unit_id(self, phase: str, units: list) -> str:
        return f"r{self.index}/{phase}/{len(units)}"


class Workload:
    """Base: the round loop's contract plus what the closed-loop rounds share."""

    name = ""
    why = ""
    size = 1024
    partitions = 1
    replication = 3
    acks: object = "all"
    groups = 1
    #: Events (or, for the gateway workloads, requests) per round at scale 1.
    count = 0
    deliveries = 0
    #: Phases whose wall time is the pipeline a traced run attributes.
    phases: Tuple[str, ...] = ("produce", "consume")

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.factory = EventFactory(seed, self.size)
        self.count = max(self.minimum_count(), int(round(self.count * scale)))
        self.deliveries = max(2, int(round(self.deliveries * scale)))
        self.tracer: Optional[Tracer] = None

    def minimum_count(self) -> int:
        return 2 * POLL_RECORDS

    # -- helpers shared by the rounds ----------------------------------- #
    def timed(self, phase: str, fn: Callable[[], None]) -> float:
        """Wall time of ``fn``, run as ``phase``'s root span when traced."""
        start = now()
        if self.tracer is not None:
            self.tracer.run_phase(phase, fn)
        else:
            fn()
        return now() - start

    def new_cluster(self) -> FabricCluster:
        cluster = FabricCluster(num_brokers=BROKERS)
        cluster.admin().create_topic(
            TOPIC,
            TopicConfig(
                num_partitions=self.partitions,
                replication_factor=self.replication,
            ),
        )
        return cluster

    def round_events(self, index: int, count: int) -> Tuple[List[Event], List[Event]]:
        """The round's ``count`` events and the extra ones its deliveries send."""
        events = self.factory.events(
            index, count + self.deliveries, partitions=self.partitions
        )
        return events[:count], events[count:]

    def sdk_produce(self, producer: FabricProducer, events: List[Event], r: Round) -> None:
        """``buffer`` until the buffer is full, ``flush``, go on; one unit per flush."""
        units = r.produce_units
        buffer = producer.buffer
        acked = 0
        for key, value in events:
            try:
                buffer(TOPIC, value, key=key)
            except BufferError:
                start = now()
                acked += len(producer.flush())
                units.append((start, now()))
                r.add("buffer_full_flushes")
                buffer(TOPIC, value, key=key)
        start = now()
        acked += len(producer.flush())
        units.append((start, now()))
        r.produced += acked

    def drain(self, consumer: FabricConsumer, expected: int, r: Round) -> None:
        """Poll, touch every record, commit; one unit per poll."""
        units = r.consume_units
        got = checksum = empty = polls = 0
        while got < expected and empty < MAX_EMPTY_POLLS:
            start = now()
            batches = consumer.poll(POLL_RECORDS)
            polled = 0
            for view in batches.values():
                for record in view:
                    checksum += len(record.value["payload"])
                polled += len(view)
            if polled:
                consumer.commit()
                empty = 0
            else:
                empty += 1
                r.add("empty_polls")
            units.append((start, now()))
            got += polled
            polls += 1
        r.consumed += got
        r.add("polls", polls)
        r.add("touched", checksum)

    def consume_groups(self, cluster: FabricCluster, expected: int, r: Round) -> None:
        """The topic read in full by ``self.groups`` fresh groups in turn."""
        for group in range(self.groups):
            with r.setting_up():
                consumer = FabricConsumer(
                    cluster,
                    [TOPIC],
                    ConsumerConfig(group_id=f"group-{group}", enable_auto_commit=False),
                )
            r.consume_s += self.timed("consume", lambda: self.drain(consumer, expected, r))
            r.add("commits", consumer.metrics.commits)
            consumer.close()
        r.check(
            r.consumed == expected * self.groups,
            f"consumed {r.consumed} events, produced {expected} x {self.groups} groups",
        )
        r.check(
            r.facts.get("touched") == self.factory.checksum(r.consumed),
            "touch checksum differs from the generator's",
        )
        r.attempted += expected * self.groups
        r.failed += expected * self.groups - r.consumed

    def deliver(self, cluster: FabricCluster, events: List[Event],
                send: Callable[[Event], None], r: Round) -> None:
        """The ``delivery`` phase against a consumer that starts at the log end."""
        with r.setting_up():
            consumer = FabricConsumer(
                cluster,
                [TOPIC],
                ConsumerConfig(
                    group_id="delivery", auto_offset_reset="latest",
                    enable_auto_commit=False,
                ),
            )
        self.timed(
            "delivery", lambda: deliver_each(events, send, consumer_receive(consumer), r)
        )
        consumer.close()

    def verify_log(self, cluster: FabricCluster, events: List[Event], r: Round,
                   *, codec: Optional[str] = None) -> None:
        """Untimed: the whole topic, record by record, against what was sent.

        Offsets contiguous per partition, every key's events in ``seq``
        order, every value equal to the generator's, none missing or twice.
        """
        consumer = FabricConsumer(
            cluster,
            [TOPIC],
            ConsumerConfig(group_id="verify", enable_auto_commit=False),
        )
        next_offset: Dict[tuple, int] = {}
        last_seq: Dict[str, int] = {}
        seen = [False] * len(events)
        problems = {"offset gap": 0, "key order": 0, "wrong value": 0, "codec": 0}
        empty = 0
        while empty < MAX_EMPTY_POLLS:
            batches = consumer.poll(10 * POLL_RECORDS)
            if not batches:
                empty += 1
                continue
            for tp, view in batches.items():
                if codec is not None:
                    problems["codec"] += sum(
                        getattr(source, "codec", None) != codec
                        for source, _, _ in view.runs()
                    )
                expected_offset = next_offset.get(tp, 0)
                for stored in view:
                    if stored.offset != expected_offset:
                        problems["offset gap"] += 1
                    expected_offset = stored.offset + 1
                    record = stored.record
                    index = record.value["seq"] - SEQ_BASE
                    if last_seq.get(record.key, -1) >= index:
                        problems["key order"] += 1
                    last_seq[record.key] = index
                    if (
                        not 0 <= index < len(events)
                        or seen[index]
                        or events[index] != (record.key, record.value)
                    ):
                        problems["wrong value"] += 1
                    else:
                        seen[index] = True
                next_offset[tp] = expected_offset
        consumer.close()
        for problem, times in problems.items():
            r.check(times == 0, f"{problem} x {times} in the stored log")
        r.check(all(seen), f"{seen.count(False)} produced events are not in the log")

    def storage_facts(self, cluster: FabricCluster, r: Round) -> None:
        described = cluster.admin().describe_segments(TOPIC)["partitions"]
        r.add("stored_bytes", sum(p["size_bytes"] for p in described.values()))
        r.add("logical_bytes", sum(p["logical_size_bytes"] for p in described.values()))
        r.add("segments_rolled", sum(p["num_segments"] - 1 for p in described.values()))
        r.add(
            "isr_shrinks",
            sum(len(p["isr"]) < self.replication for p in described.values()),
        )
        r.add("stored_events", sum(p["log_end_offset"] for p in described.values()))

    def producer_facts(self, producer: FabricProducer, r: Round) -> None:
        r.add("batches_sent", producer.metrics.batches_sent)
        r.add("records_sent", producer.metrics.records_sent)
        r.add("producer_retries", producer.metrics.retries)

    def round(self, index: int) -> Round:
        raise NotImplementedError


class SdkWorkload(Workload):
    """``FabricProducer.buffer``/``flush`` then ``FabricConsumer.poll``/``commit``."""

    def round(self, index: int) -> Round:
        r = Round(index)
        with r.setting_up():
            events, extra = self.round_events(index, self.count)
            cluster = self.new_cluster()
            producer = FabricProducer(cluster, ProducerConfig(acks=self.acks))
        r.produce_s = self.timed("produce", lambda: self.sdk_produce(producer, events, r))
        r.attempted += len(events)
        r.failed += len(events) - r.produced
        self.consume_groups(cluster, len(events), r)
        self.verify_log(cluster, events, r)
        self.storage_facts(cluster, r)
        self.producer_facts(producer, r)

        def send(event: Event) -> None:
            producer.buffer(TOPIC, event[1], key=event[0])
            producer.flush()

        self.deliver(cluster, extra, send, r)
        producer.close()
        return r


def consumer_receive(consumer: FabricConsumer) -> Callable[[], Optional[int]]:
    """One poll; the ``seq`` of the record it delivered (touched), if any."""

    def receive() -> Optional[int]:
        seq = None
        for view in consumer.poll(POLL_RECORDS).values():
            for record in view:
                value = record.value
                seq = value["seq"] if len(value["payload"]) else None
        return seq

    return receive


def deliver_each(events: List[Event], send: Callable[[Event], None],
                 receive: Callable[[], Optional[int]], r: Round) -> None:
    """Closed loop of one: send an event, receive it, time send-to-touch."""
    for event in events:
        start = now()
        send(event)
        seq = receive()
        for _ in range(MAX_EMPTY_POLLS):
            if seq is not None:
                break
            seq = receive()
        r.delivery.append(now() - start)
        r.check(seq == event[1]["seq"], f"delivery of seq {event[1]['seq']} returned {seq}")


class Sdk1kAll(SdkWorkload):
    name = "sdk_1k_all"
    why = ("The paper's headline configuration (1 KB, acks=all, RF 3, 4 partitions): the one SDK "
           "workload on the replication and high-watermark path; serde sizing holds the largest share.")
    size = 1024
    partitions = 4
    replication = 3
    acks = "all"
    groups = 4
    count = 40_000
    deliveries = 400


class Sdk32bAcks1(SdkWorkload):
    name = "sdk_32b_acks1"
    why = ("Smallest event, RF 1, acks=1: per-record overhead dominates and replication does "
           "almost nothing, so a replication gain must not show here and a per-record gain "
           "shows here first.")
    size = 32
    partitions = 1
    replication = 1
    acks = 1
    groups = 3
    count = 60_000
    deliveries = 400


class Wire4kGzip(Workload):
    """A remote client across a byte boundary: gzip wire batches in, decoded out."""

    name = "wire_4k_gzip"
    why = ("The only fabric workload that crosses a byte boundary (gzip wire batch in, decode on "
           "touch out), so record codec, CRC, frame scan and decode do the work on both sides.")
    size = 4096
    partitions = 4
    replication = 3
    groups = 8
    count = 6_400
    deliveries = 200

    def minimum_count(self) -> int:
        return WIRE_BATCH * self.partitions

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.count -= self.count % (WIRE_BATCH * self.partitions)

    @staticmethod
    def send_batch(cluster: FabricCluster, partition: int, chunk: List[Event]) -> int:
        stamp = time.time()
        records = [EventRecord(value=value, key=key, timestamp=stamp) for key, value in chunk]
        wire = RecordBatch.of(TOPIC, partition, records).sealed_wire("gzip").to_bytes()
        packed = PackedRecordBatch.from_bytes(wire)
        return len(cluster.append_batch(TOPIC, partition, packed, acks="all"))

    def produce(self, cluster: FabricCluster, batches: List[Tuple[int, List[Event]]],
                r: Round) -> None:
        units = r.produce_units
        for partition, chunk in batches:
            start = now()
            r.produced += self.send_batch(cluster, partition, chunk)
            units.append((start, now()))

    def round(self, index: int) -> Round:
        r = Round(index)
        with r.setting_up():
            events, extra = self.round_events(index, self.count)
            by_partition: Dict[int, List[Event]] = {p: [] for p in range(self.partitions)}
            for event in events:
                by_partition[partition_of(event)].append(event)
            batches = [
                (partition, owned[at:at + WIRE_BATCH])
                for at in range(0, len(events) // self.partitions, WIRE_BATCH)
                for partition, owned in by_partition.items()
            ]
            cluster = self.new_cluster()
        r.produce_s = self.timed("produce", lambda: self.produce(cluster, batches, r))
        r.attempted += len(events)
        r.failed += len(events) - r.produced
        self.consume_groups(cluster, len(events), r)
        self.verify_log(cluster, events, r, codec="gzip")
        self.storage_facts(cluster, r)
        self.deliver(
            cluster, extra,
            lambda event: self.send_batch(cluster, partition_of(event), [event]), r,
        )
        return r


def partition_of(event: Event) -> int:
    """The partition an event's key names (``p2-k07`` -> 2)."""
    return int(event[0][1:event[0].index("-")])


# ---------------------------------------------------------------------- #
# Gateway workloads
# ---------------------------------------------------------------------- #
class HttpClient:
    """One keep-alive ``http.client`` connection with ``TCP_NODELAY`` set on
    the client socket, as urllib3/requests set it.  The server socket is
    left as the gateway made it, and ``TCP_QUICKACK`` is not touched."""

    def __init__(self, address: Tuple[str, int], tracer: Optional[Tracer]) -> None:
        self.connection = http.client.HTTPConnection(*address, timeout=30)
        self.connection.connect()
        self.connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if tracer is not None:
            self.call = tracer.wrap(HTTP_SPAN, self.call)

    def call(self, method: str, path: str, body: Optional[bytes], unit: str):
        self.connection.request(
            method, path, body=body,
            headers={"Content-Type": "application/json", UNIT_HEADER: unit},
        )
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.connection.close()


RECORDS_PATH = f"/v1/topics/{TOPIC}/partitions/0/records"
OFFSETS_PATH = "/v1/groups/perf-group/offsets"


def produce_body(events: List[Event]) -> bytes:
    return json.dumps(
        {"records": [{"key": key, "value": value} for key, value in events], "acks": "all"}
    ).encode("utf-8")


class GatewayWorkload(Workload):
    partitions = 1
    replication = 3

    def minimum_count(self) -> int:
        return 2

    @contextmanager
    def serving(self, r: Round):
        with r.setting_up():
            cluster = self.new_cluster()
            server = GatewayServer(Gateway(cluster)).start()
        try:
            yield cluster, server
        finally:
            server.stop()

    def expect(self, r: Round, status: int, wanted: int, what: str) -> bool:
        r.attempted += 1
        r.add("http_requests")
        if status != wanted:
            r.failed += 1
            r.add("http_errors")
            r.problems.append(f"round {r.index}: {what} answered {status}, wanted {wanted}")
        return status == wanted


class GatewayJson1k(GatewayWorkload):
    name = "gateway_json_1k"
    why = ("HTTP framing, JSON parse/encode and request validation dominate and the fabric is a "
           "small share; it is the measurement that un-parks (or not) the gateway transport items.")
    count = 16
    deliveries = 4
    per_request = 64
    commit_every = 8

    def round(self, index: int) -> Round:
        r = Round(index)
        with r.setting_up():
            total = self.count * self.per_request
            events, extra = self.round_events(index, total)
            bodies = [
                produce_body(events[at:at + self.per_request])
                for at in range(0, total, self.per_request)
            ]
            single_bodies = [produce_body([event]) for event in extra]
            commit_bodies = {
                request: json.dumps(
                    {"offsets": [{"topic": TOPIC, "partition": 0,
                                  "offset": (request + 1) * self.per_request}]}
                ).encode("utf-8")
                # Every ``commit_every``-th fetch, and the last one.
                for request in sorted(
                    {*range(self.commit_every - 1, self.count, self.commit_every),
                     self.count - 1}
                )
            }
        with self.serving(r) as (cluster, server):
            with r.setting_up():
                client = HttpClient(server.address, self.tracer)

            def produce() -> None:
                units = r.produce_units
                for body in bodies:
                    start = now()
                    status, answer = client.call(
                        "POST", RECORDS_PATH, body, r.unit_id("produce", units)
                    )
                    if self.expect(r, status, 201, "produce"):
                        r.produced += json.loads(answer)["count"]
                    units.append((start, now()))

            def consume() -> None:
                units = r.consume_units
                offset = touched = 0
                for request in range(self.count):
                    start = now()
                    unit = r.unit_id("consume", units)
                    status, answer = client.call(
                        "GET",
                        f"{RECORDS_PATH}?offset={offset}&max_records={self.per_request}"
                        "&max_wait_ms=100",
                        None, unit,
                    )
                    if self.expect(r, status, 200, "fetch"):
                        fetched = json.loads(answer)
                        for record in fetched["records"]:
                            touched += len(record["value"]["payload"])
                        r.consumed += len(fetched["records"])
                        offset = fetched["next_offset"]
                    if request in commit_bodies:
                        status, _ = client.call("POST", OFFSETS_PATH, commit_bodies[request], unit)
                        self.expect(r, status, 200, "commit")
                        r.add("commits")
                    units.append((start, now()))
                r.add("touched", touched)

            r.produce_s = self.timed("produce", produce)
            r.consume_s = self.timed("consume", consume)
            r.attempted += 2 * total
            r.failed += 2 * total - r.produced - r.consumed
            r.check(r.consumed == total, f"consumed {r.consumed} events, produced {total}")
            r.check(
                r.facts.get("touched") == self.factory.checksum(r.consumed),
                "touch checksum differs from the generator's",
            )
            self.verify_log(cluster, events, r)
            self.storage_facts(cluster, r)
            position = [total]

            def send(event: Event) -> None:
                status, _ = client.call(
                    "POST", RECORDS_PATH, single_bodies[position[0] - total],
                    r.unit_id("delivery", r.delivery),
                )
                self.expect(r, status, 201, "produce")

            def receive() -> Optional[int]:
                status, answer = client.call(
                    "GET", f"{RECORDS_PATH}?offset={position[0]}&max_records=1&max_wait_ms=100",
                    None, r.unit_id("delivery", r.delivery),
                )
                if not self.expect(r, status, 200, "fetch"):
                    return None
                records = json.loads(answer)["records"]
                if not records:
                    return None
                position[0] += 1
                value = records[0]["value"]
                return value["seq"] if len(value["payload"]) else None

            self.timed("delivery", lambda: deliver_each(extra, send, receive, r))
            client.close()
        return r


class GatewayPaced1k(GatewayWorkload):
    """Open loop: a producer thread posts one event per interval, timed from
    when each was *due*; a consumer thread sits in a long-poll fetch and
    stamps each event when it has touched it."""

    name = "gateway_paced_1k"
    why = ("The only open-loop, concurrent workload: append/fetch lock interplay, the long-poll "
           "wake-up and the response write path decide the delivery latency online users feel.")
    count = 15
    interval_s = 0.08
    #: How long after the last event was due the consumer may still catch up.
    grace_s = 1.0
    phases = ("paced",)

    def minimum_count(self) -> int:
        return 4

    def round(self, index: int) -> Round:
        r = Round(index)
        count = self.count
        with r.setting_up():
            events, _ = self.round_events(index, count)
            bodies = [produce_body([event]) for event in events]
        with self.serving(r) as (cluster, server):
            with r.setting_up():
                producer = HttpClient(server.address, self.tracer)
                consumer = HttpClient(server.address, self.tracer)
            begin = now() + 0.05
            due = [begin + i * self.interval_s for i in range(count)]
            acked: List[float] = [0.0] * count
            touched_at: List[float] = [0.0] * count

            def produce() -> None:
                units = r.produce_units
                for i, body in enumerate(bodies):
                    wait = due[i] - now()
                    if wait > 0:
                        time.sleep(wait)
                    start = now()
                    r.schedule_lag.append(start - due[i])
                    status, _ = producer.call(
                        "POST", RECORDS_PATH, body, r.unit_id("produce", units)
                    )
                    acked[i] = now()
                    if self.expect(r, status, 201, "produce"):
                        r.produced += 1
                    units.append((start, acked[i]))

            def consume() -> None:
                units = r.consume_units
                offset = 0
                deadline = due[-1] + self.grace_s
                while r.consumed < count and now() < deadline:
                    start = now()
                    status, answer = consumer.call(
                        "GET",
                        f"{RECORDS_PATH}?offset={offset}&max_records={POLL_RECORDS}"
                        "&max_wait_ms=500",
                        None, r.unit_id("consume", units),
                    )
                    if not self.expect(r, status, 200, "fetch"):
                        break
                    fetched = json.loads(answer)
                    for record in fetched["records"]:
                        value = record["value"]
                        if len(value["payload"]):
                            touched_at[value["seq"] - SEQ_BASE] = now()
                    offset = fetched["next_offset"]
                    if fetched["records"]:
                        r.consumed += len(fetched["records"])
                        units.append((start, now()))

            def both() -> None:
                tracer = self.tracer
                body = consume if tracer is None else tracer.wrap(ROOT, consume)
                thread = threading.Thread(target=body, name="perf-consumer")
                thread.start()
                produce()
                thread.join()

            cpu = time.process_time()
            self.timed("paced", both)
            r.cpu_s = time.process_time() - cpu
            producer.close()
            consumer.close()
            backlog = count - r.consumed
            r.add("backlog", backlog)
            r.attempted += 2 * count
            r.failed += 2 * count - r.produced - r.consumed
            r.check(backlog == 0, f"{backlog} events still undelivered {self.grace_s} s after the last")
            r.produce_s = max(acked) - begin
            r.consume_s = max(touched_at) - begin
            r.produce_latency = [acked[i] - due[i] for i in range(count) if acked[i]]
            r.delivery = [touched_at[i] - due[i] for i in range(count) if touched_at[i]]
            self.verify_log(cluster, events, r)
            self.storage_facts(cluster, r)
        return r


# ---------------------------------------------------------------------- #
# Trigger workload
# ---------------------------------------------------------------------- #
class Trigger1kFilter(Workload):
    name = "trigger_1k_filter"
    why = ("The tail of the paper's path (fetch, event-source mapping, filter, function): "
           "eventsource, patterns, executor and logs dominate the consume side.")
    size = 1024
    partitions = 4
    replication = 3
    count = 30_000
    deliveries = 300
    batch_size = 100
    pattern = {"value": {"event_type": ["created"]}}

    def round(self, index: int) -> Round:
        r = Round(index)
        seen = {"events": 0, "touched": 0, "last_seq": None}

        def handler(event: dict, context) -> int:
            for record in event["records"]:
                value = record["value"]
                seen["touched"] += len(value["payload"])
                seen["last_seq"] = value["seq"]
            seen["events"] += len(event["records"])
            return len(event["records"])

        with r.setting_up():
            events, extra = self.round_events(index, self.count)
            for _, value in extra:
                value["event_type"] = "created"
            cluster = self.new_cluster()
            producer = FabricProducer(cluster, ProducerConfig(acks="all"))
            registry = FunctionRegistry()
            registry.register(FunctionDefinition(name="touch", handler=handler))
            executor = LambdaExecutor(registry)
        r.produce_s = self.timed("produce", lambda: self.sdk_produce(producer, events, r))
        r.attempted += len(events)
        r.failed += len(events) - r.produced
        with r.setting_up():
            mapping = EventSourceMapping(
                cluster, TOPIC, "touch", executor,
                EventSourceConfig(batch_size=self.batch_size, filter_pattern=self.pattern),
            )
        unsuccessful = [0]

        def consume() -> None:
            units = r.consume_units
            limit = 2 * len(events) // self.batch_size + 16
            while mapping.lag() > 0 and len(units) < limit:
                start = now()
                results = mapping.poll_once()
                units.append((start, now()))
                unsuccessful[0] += sum(not result.success for result in results)

        r.consume_s = self.timed("consume", consume)
        r.attempted += len(events)
        stats = mapping.stats
        r.consumed = stats.records_read
        matching = sum(value["event_type"] == "created" for _, value in events)
        r.failed += len(events) - stats.records_read + unsuccessful[0]
        r.check(stats.records_read == len(events),
                f"mapping read {stats.records_read} of {len(events)} events")
        r.check(seen["events"] == matching,
                f"handler saw {seen['events']} events, {matching} match the filter")
        r.check(stats.records_filtered_out == len(events) - matching,
                f"mapping filtered out {stats.records_filtered_out}, "
                f"wanted {len(events) - matching}")
        r.check(seen["touched"] == self.factory.checksum(matching),
                "touch checksum differs from the generator's")
        r.check(unsuccessful[0] == 0, f"{unsuccessful[0]} invocations failed")
        r.add("records_read", stats.records_read)
        r.add("records_matched", stats.records_matched)
        r.add("invocations", stats.invocations)
        r.add("polls", stats.polls)
        self.verify_log(cluster, events, r)
        self.storage_facts(cluster, r)
        self.producer_facts(producer, r)

        def send(event: Event) -> None:
            producer.buffer(TOPIC, event[1], key=event[0])
            producer.flush()

        def receive() -> Optional[int]:
            seen["last_seq"] = None
            mapping.poll_once()
            return seen["last_seq"]

        self.timed("delivery", lambda: deliver_each(extra, send, receive, r))
        r.add("executor_retries", executor.stats.retries)
        mapping.close()
        producer.close()
        return r


WORKLOADS = {
    workload.name: workload
    for workload in (
        Sdk1kAll, Sdk32bAcks1, Wire4kGzip, GatewayJson1k, GatewayPaced1k, Trigger1kFilter
    )
}
