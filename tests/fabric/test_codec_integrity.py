"""Codec round-trip, CRC corruption detection, and replica recovery.

PR 7's integrity contract: every sealed batch carries a CRC32 over its
stored (possibly compressed) body, verified at broker ingress and again
at first decode — a byte flipped anywhere between producer seal and
consumer decode surfaces as :class:`CorruptBatchError`, never as silently
wrong records.  A damaged replica is healed by discarding its log and
re-fetching the leader's CRC-verified chunks
(:meth:`ReplicationManager.recover_replica`).
"""

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import record as record_module
from repro.fabric.cluster import FabricCluster
from repro.fabric.consumer import ConsumerConfig, FabricConsumer
from repro.fabric.errors import CorruptBatchError, UnknownCodecError
from repro.fabric.partition import PartitionLog
from repro.fabric.producer import FabricProducer, ProducerConfig
from repro.fabric.record import (
    WIRE_HEADER_BYTES,
    EventRecord,
    PackedRecordBatch,
    get_codec,
    register_codec,
    registered_codecs,
)
from repro.fabric.topic import TopicConfig


def _events(count, value=None):
    return tuple(
        EventRecord(
            value=value if value is not None else {"n": i, "payload": "x" * 40},
            key=f"k{i}",
            headers={"h": str(i)},
            timestamp=float(i),
        )
        for i in range(count)
    )


def _sealed(events, codec, *, base_offset=0):
    packed = PackedRecordBatch.from_events(
        events, base_offset=base_offset, append_time=1.0
    )
    return packed.seal_wire(codec)


# --------------------------------------------------------------------- #
# Round-trip property: codec x payload shape
# --------------------------------------------------------------------- #
_VALUES = st.one_of(
    st.text(max_size=80),  # unicode, including ""
    st.binary(max_size=80),  # bytes-heavy, including b""
    st.integers(min_value=-(2**40), max_value=2**40),
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.text(max_size=20), st.integers(-1000, 1000), st.none()),
        max_size=4,
    ),
    st.none(),
)


class TestCodecRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        codec=st.sampled_from(registered_codecs()),
        values=st.lists(_VALUES, min_size=1, max_size=8),
    )
    def test_seal_decode_round_trip(self, codec, values):
        events = tuple(
            EventRecord(value=v, key=None if i % 2 else f"k{i}")
            for i, v in enumerate(values)
        )
        sealed = _sealed(events, codec)
        received = PackedRecordBatch.from_bytes(sealed.to_bytes(), base_offset=0)
        received.verify_crc()
        assert len(received) == len(events)
        for i, original in enumerate(events):
            decoded = received.record_at(i)
            expected = (
                bytes(original.value)
                if isinstance(original.value, bytearray)
                else original.value
            )
            assert decoded.value == expected
            assert decoded.key == original.key

    @pytest.mark.parametrize("codec", registered_codecs())
    def test_single_record_and_empty_batch(self, codec):
        one = _sealed(_events(1), codec)
        rt = PackedRecordBatch.from_bytes(one.to_bytes())
        assert len(rt) == 1 and rt.record_at(0).value == {"n": 0, "payload": "x" * 40}
        empty = _sealed((), codec)
        rt = PackedRecordBatch.from_bytes(empty.to_bytes())
        assert len(rt) == 0 and rt.size_bytes == 0

    @pytest.mark.parametrize("codec", ("gzip", "lzma"))
    def test_forwarding_does_not_inflate(self, codec):
        """to_bytes on a wire-decoded compressed batch re-emits the stored
        body verbatim — the frame scan / decompression stays unpaid."""
        sealed = _sealed(_events(12), codec)
        wire = sealed.to_bytes()
        received = PackedRecordBatch.from_bytes(wire)
        assert received.to_bytes() == wire
        assert received._sizes is None  # still lazy: nothing decoded

    def test_min_size_gate_falls_back_to_none(self):
        packed = PackedRecordBatch.from_events(_events(1), append_time=1.0)
        sealed = packed.seal_wire("gzip", min_size=1 << 20)
        assert sealed.codec == "none"
        sealed.verify_crc()


# --------------------------------------------------------------------- #
# Corruption detection
# --------------------------------------------------------------------- #
class TestCorruptionDetection:
    def _flip(self, wire: bytes, position: int) -> bytearray:
        damaged = bytearray(wire)
        damaged[position] ^= 0x40
        return damaged

    @pytest.mark.parametrize("codec", ("none", "gzip"))
    def test_byte_flip_raises_at_decode(self, codec):
        wire = _sealed(_events(8), codec).to_bytes()
        damaged = self._flip(wire, WIRE_HEADER_BYTES + 5)
        batch = PackedRecordBatch.from_bytes(damaged)
        with pytest.raises(CorruptBatchError):
            batch.record_at(0)

    def test_byte_flip_rejected_at_append_packed_ingress(self):
        wire = _sealed(_events(8), "gzip").to_bytes()
        damaged = self._flip(wire, len(wire) - 3)
        log = PartitionLog("t", 0)
        with pytest.raises(CorruptBatchError):
            log.append_packed(PackedRecordBatch.from_bytes(damaged))
        assert log.log_end_offset == 0 and log.size_bytes == 0

    def test_post_ingress_flip_caught_at_fetch_decode(self):
        """Corruption that happens *after* the ingress CRC pass (the
        simulated at-rest bit rot) still cannot reach a consumer: the
        first decode re-verifies the CRC and raises."""
        wire = _sealed(_events(8), "gzip").to_bytes()
        backing = bytearray(wire)  # mutable store the chunk aliases
        log = PartitionLog("t", 0)
        log.append_packed(PackedRecordBatch.from_bytes(memoryview(backing)))
        backing[WIRE_HEADER_BYTES + 2] ^= 0x01  # rot a stored byte in place
        view = log.fetch(0, max_records=8)
        with pytest.raises(CorruptBatchError):
            view[0].record  # decode pays the forced CRC re-check
        with pytest.raises(CorruptBatchError):
            list(r.record.value for r in log.fetch(0, max_records=8))

    def test_post_ingress_flip_never_reaches_a_consumer(self):
        """The same rot, seen from :meth:`FabricConsumer.poll` (which
        CRC-checks every view, no opt-out): sizing the chunk for the
        poll's byte budget is its first decode, so the poll itself raises
        and hands out nothing — and with the ingress memo dropped by that
        mismatch every later poll raises too, from the same position."""
        backing = bytearray(_sealed(_events(8), "gzip").to_bytes())
        cluster = FabricCluster(num_brokers=1)
        cluster.admin().create_topic("t", TopicConfig(num_partitions=1))
        # Leader adoption + replication round, i.e. the cluster's append
        # minus the producer ack: building ``RecordMetadata`` timestamps
        # decodes the chunk, and a memoized decode never re-reads the wire.
        cluster.brokers[0].append_packed(
            "t", 0, PackedRecordBatch.from_bytes(memoryview(backing))
        )
        cluster.replication.replicate_from_leader("t", 0)  # advance the HW
        backing[WIRE_HEADER_BYTES + 2] ^= 0x01  # rot a stored byte in place
        consumer = FabricConsumer(
            cluster, ["t"], ConsumerConfig(enable_auto_commit=False)
        )
        assert consumer.lag() == 8
        for _ in range(2):
            with pytest.raises(CorruptBatchError):
                consumer.poll()
            assert consumer.position("t", 0) == 0
        assert consumer.metrics.records_consumed == 0
        consumer.close()

    @pytest.mark.parametrize("codec", ("none", "gzip"))
    @pytest.mark.parametrize("count", (1, 3, 4, 64))
    def test_batch_of_any_size_is_stored_as_it_arrived(self, count, codec, monkeypatch):
        """A log stores one representation: a one-record wire batch keeps
        its codec and CRC, is never inflated or JSON-decoded by the
        append, and at-rest rot is caught — exactly like a large one."""
        wire = _sealed(_events(count), codec).to_bytes()
        backing = bytearray(wire)  # mutable store the chunk aliases
        header = PackedRecordBatch.from_bytes(wire)
        calls = {"json.loads": 0, "decompress": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        stand_in = types.SimpleNamespace(**vars(record_module.json))
        stand_in.loads = counting("json.loads", record_module.json.loads)
        monkeypatch.setattr(record_module, "json", stand_in)
        original = get_codec(codec)
        register_codec(
            codec, original.codec_id, original.compress,
            counting("decompress", original.decompress),
        )
        try:
            log = PartitionLog("t", 0)
            offsets = log.append_batch(
                PackedRecordBatch.from_bytes(memoryview(backing))
            )
            assert offsets == list(range(count))
            assert calls == {"json.loads": 0, "decompress": 0}
        finally:
            register_codec(codec, *original[1:])
        assert log.size_bytes == len(wire) - WIRE_HEADER_BYTES
        view = log.fetch(0, max_records=count)
        assert len(view) == count
        for chunk, _, _ in view.runs():
            assert isinstance(chunk, PackedRecordBatch)
            assert (chunk.codec, chunk.crc32) == (header.codec, header.crc32)
        view.verify_crcs()  # intact bytes pass
        backing[WIRE_HEADER_BYTES + 2] ^= 0x01  # rot a stored byte in place
        with pytest.raises(CorruptBatchError):
            view[0].record  # the first decode re-verifies, memo or not
        with pytest.raises(CorruptBatchError):
            view.verify_crcs()  # a seen mismatch drops the ingress memo

    def test_truncated_wire_raises(self):
        wire = _sealed(_events(8), "none").to_bytes()
        batch = PackedRecordBatch.from_bytes(wire[: len(wire) - 4])
        with pytest.raises(CorruptBatchError):
            batch.record_at(7)
        # No v1 magic/version, no batch: nothing is constructed from a
        # too-short image, a bare "count + payload" body, or a v1 image
        # whose first byte rotted.
        for image in (b"\x00\x01", b"\x00\x00\x00\x02garbage!", self._flip(wire, 0)):
            with pytest.raises(CorruptBatchError):
                PackedRecordBatch.from_bytes(image)

    def test_unknown_codec_id_rejected(self):
        wire = bytearray(_sealed(_events(4), "gzip").to_bytes())
        wire[2] = 99  # codec byte in the v1 header
        with pytest.raises(UnknownCodecError):
            PackedRecordBatch.from_bytes(bytes(wire))

    def test_crc_error_reports_context(self):
        wire = self._flip(_sealed(_events(8), "gzip").to_bytes(), WIRE_HEADER_BYTES)
        with pytest.raises(CorruptBatchError) as excinfo:
            PackedRecordBatch.from_bytes(wire, base_offset=100).verify_crc()
        message = str(excinfo.value)
        assert "crc" in message.lower()
        assert "100" in message  # base offset locates the damaged batch


# --------------------------------------------------------------------- #
# Replica recovery
# --------------------------------------------------------------------- #
class TestReplicaRecovery:
    def _cluster_with_damaged_follower(self):
        """3-broker cluster, rf=3, gzip topic; one follower's replica is
        replaced with an independently-backed copy of the leader's chunks
        whose backing store then rots in place."""
        cluster = FabricCluster(num_brokers=3, name="recovery")
        cluster.admin().create_topic(
            "events", TopicConfig(num_partitions=1, replication_factor=3)
        )
        producer = FabricProducer(
            cluster, ProducerConfig(acks="all", compression="gzip")
        )
        for i in range(32):
            producer.buffer("events", {"n": i, "body": "y" * 64}, key=f"k{i % 4}")
        producer.flush()

        assignment = cluster._replication._assignments[("events", 0)]
        follower_id = next(
            b for b in assignment.replicas if b != assignment.leader
        )
        follower = cluster._brokers[follower_id]
        leader_log = cluster._brokers[assignment.leader].replica("events", 0)

        # Rebuild the follower from independent byte copies of the leader's
        # sealed chunks (replication shares chunk objects, so flipping the
        # shared chunk would damage the leader too), then rot one copy.
        fresh = follower.reset_replica(
            "events",
            0,
            max_message_bytes=leader_log.max_message_bytes,
            segment_records=leader_log.segment_records,
            segment_bytes=leader_log.segment_bytes,
        )
        backings = []
        for source, start, stop in leader_log.fetch(
            0, max_records=leader_log.log_end_offset, max_bytes=None
        ).runs():
            chunk = source.slice(start, stop) if isinstance(
                source, PackedRecordBatch
            ) else PackedRecordBatch.from_stored([source])
            sealed = chunk if chunk._wire is not None else chunk.seal_wire("gzip")
            backing = bytearray(sealed.to_bytes())
            backings.append(backing)
            copy = PackedRecordBatch.from_bytes(
                memoryview(backing), base_offset=chunk.base_offset
            )
            fresh.append_packed(copy)
        assert fresh.log_end_offset == leader_log.log_end_offset
        backings[0][WIRE_HEADER_BYTES + 1] ^= 0x08
        return cluster, assignment, follower_id, leader_log

    def test_recover_replica_rebuilds_from_leader(self):
        cluster, assignment, follower_id, leader_log = (
            self._cluster_with_damaged_follower()
        )
        follower_log = cluster._brokers[follower_id].replica("events", 0)
        damaged_view = follower_log.fetch(0, max_records=8)
        with pytest.raises(CorruptBatchError):
            damaged_view[0].record

        outcome = cluster._replication.recover_replica("events", 0, follower_id)
        assert outcome.recovered
        assert outcome.attempts == 1
        end = outcome.log_end_offset
        assert end == leader_log.log_end_offset

        recovered = cluster._brokers[follower_id].replica("events", 0)
        leader_values = [
            s.record.value
            for s in leader_log.fetch(0, max_records=end, max_bytes=None)
        ]
        recovered_values = [
            s.record.value
            for s in recovered.fetch(0, max_records=end, max_bytes=None)
        ]
        assert recovered_values == leader_values
        assert follower_id in assignment.isr

    def test_recover_replica_refuses_leader(self):
        cluster = FabricCluster(num_brokers=2, name="recovery-leader")
        cluster.admin().create_topic(
            "events", TopicConfig(num_partitions=1, replication_factor=2)
        )
        assignment = cluster._replication._assignments[("events", 0)]
        with pytest.raises(ValueError):
            cluster._replication.recover_replica(
                "events", 0, assignment.leader
            )

    def test_recovery_propagates_leader_corruption(self):
        """If the leader's own chunk is rotten, recovery must raise rather
        than copy damaged bytes onto the follower."""
        cluster = FabricCluster(num_brokers=2, name="recovery-bad-leader")
        cluster.admin().create_topic(
            "events", TopicConfig(num_partitions=1, replication_factor=2)
        )
        assignment = cluster._replication._assignments[("events", 0)]
        leader = cluster._brokers[assignment.leader]
        follower_id = next(
            b for b in assignment.replicas if b != assignment.leader
        )
        backing = bytearray(_sealed(_events(8), "gzip").to_bytes())
        leader.replica("events", 0).append_packed(
            PackedRecordBatch.from_bytes(memoryview(backing))
        )
        backing[WIRE_HEADER_BYTES + 3] ^= 0x20  # leader-side at-rest rot
        with pytest.raises(CorruptBatchError):
            cluster._replication.recover_replica("events", 0, follower_id)
