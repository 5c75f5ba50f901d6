"""The benchmarking operator.

Section V-B: "We implemented a benchmarking operator to orchestrate the
creation of topics with specific configurations (e.g., replication factor,
number of partitions) and spawn the specified number of producers and
consumers on remote resources."  This operator does the same against the
in-process fabric: it provisions a topic, runs produce/consume rounds,
collects per-agent windows and aggregates throughput/latency exactly as
the paper's formula does.  It powers the functional (non-simulated) side
of the benchmark suite and the examples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.fabric.cluster import FabricCluster
from repro.fabric.consumer import ConsumerConfig, FabricConsumer
from repro.fabric.producer import FabricProducer, ProducerConfig
from repro.fabric.topic import TopicConfig
from repro.simulation.metrics import LatencyStats, ThroughputMeasurement
from repro.simulation.workload import SyntheticEventGenerator


@dataclass
class FabricRunResult:
    """Aggregated outcome of one produce/consume round."""

    events: int
    produce_throughput: float
    consume_throughput: float
    produce_latency: LatencyStats
    per_producer_events: Dict[int, int] = field(default_factory=dict)


class BenchmarkOperator:
    """Orchestrates functional produce/consume rounds on a fabric cluster."""

    def __init__(self, cluster: Optional[FabricCluster] = None, *, num_brokers: int = 2) -> None:
        self.cluster = cluster or FabricCluster(num_brokers=num_brokers)

    # ------------------------------------------------------------------ #
    def provision_topic(
        self,
        name: str,
        *,
        partitions: int = 2,
        replication_factor: int = 2,
    ) -> None:
        if not self.cluster.has_topic(name):
            self.cluster.admin().create_topic(
                name,
                TopicConfig(num_partitions=partitions, replication_factor=replication_factor),
            )

    def run_round(
        self,
        topic: str,
        *,
        num_events: int,
        num_producers: int = 4,
        num_consumers: int = 4,
        event_size_bytes: int = 1024,
        acks: object = 1,
        batched: bool = False,
    ) -> FabricRunResult:
        """Produce ``num_events`` then consume them all, measuring both sides.

        With ``batched=True`` producers accumulate events with
        :meth:`FabricProducer.buffer` and deliver whole record batches
        through the cluster's batched append path; the default sends one
        record per round-trip (the paper's unbatched client baseline).
        """
        generator = SyntheticEventGenerator(event_size_bytes)
        producers = [
            FabricProducer(self.cluster, ProducerConfig(acks=acks, client_id=f"producer-{i}"))
            for i in range(num_producers)
        ]
        produce_windows: List[tuple] = []
        latencies_ms: List[float] = []
        per_producer: Dict[int, int] = {}
        for index, producer in enumerate(producers):
            share = num_events // num_producers + (1 if index < num_events % num_producers else 0)
            start = time.perf_counter()
            if batched:
                for _ in range(share):
                    event = generator.next_event()
                    try:
                        producer.buffer(topic, event)
                    except BufferError:
                        producer.flush()
                        producer.buffer(topic, event)
                producer.flush()
            else:
                for _ in range(share):
                    producer.send(topic, generator.next_event())
            end = time.perf_counter()
            produce_windows.append((start, end))
            # send_latencies is a bounded window (the most recent
            # METRICS_WINDOW sends per producer); percentiles over runs
            # larger than that window describe the steady-state tail.
            latencies_ms.extend(l * 1000.0 for l in producer.metrics.send_latencies)
            per_producer[index] = share
        produce = ThroughputMeasurement.from_agent_windows(num_events, produce_windows)

        consume_windows: List[tuple] = []
        consumed = 0
        consumers = [
            FabricConsumer(
                self.cluster,
                [topic],
                ConsumerConfig(group_id="bench-consumers", client_id=f"consumer-{i}",
                               enable_auto_commit=False, max_poll_records=5000),
            )
            for i in range(num_consumers)
        ]
        for consumer in consumers:
            consumer.poll(max_records=0)  # refresh assignment after all joined
        for consumer in consumers:
            start = time.perf_counter()
            while True:
                records = consumer.poll_flat(max_records=5000)
                if not records:
                    break
                consumed += len(records)
            end = time.perf_counter()
            consume_windows.append((start, end))
            consumer.close()
        consume = ThroughputMeasurement.from_agent_windows(consumed, consume_windows)
        return FabricRunResult(
            events=num_events,
            produce_throughput=produce.events_per_second,
            consume_throughput=consume.events_per_second,
            produce_latency=LatencyStats.from_samples(latencies_ms),
            per_producer_events=per_producer,
        )
