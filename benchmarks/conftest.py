"""Benchmark-suite configuration: the call counter the micro-benches share.

The micro-benches assert exact counts — decodes, encodes, segment
rebuilds, broker round trips — instead of wall-clock ratios, so they
pass on a busy runner and under ``REPRO_SANITIZE=1`` alike and fail
only when the code does more work than it should.
"""

import inspect
import json
from collections import Counter

import pytest

from repro.fabric import record, serde
from repro.fabric.cluster import FabricCluster
from repro.fabric.mirrormaker import MirrorMaker


class CallCounter(Counter):
    """Call counts keyed ``"Owner.name"``; ``clear()`` opens a fresh window."""

    def __init__(self, monkeypatch):
        super().__init__()
        self._monkeypatch = monkeypatch

    def wrap(self, key, fn):
        def counted(*args, **kwargs):
            self[key] += 1
            return fn(*args, **kwargs)

        return counted

    def watch(self, owner, *names):
        """Count calls to each ``owner.<name>`` (module or class) for the test."""
        label = owner.__name__.rpartition(".")[2]
        for name in names:
            counted = self.wrap(f"{label}.{name}", getattr(owner, name))
            if isinstance(inspect.getattr_static(owner, name), (classmethod, staticmethod)):
                counted = staticmethod(counted)  # getattr already bound it
            self._monkeypatch.setattr(owner, name, counted)

    def watch_codecs(self):
        """Count every registered codec's passes as ``codec.compress`` /
        ``codec.decompress``."""
        for name in record.registered_codecs():
            codec = record.get_codec(name)
            self._monkeypatch.setitem(
                record._CODECS_BY_NAME,
                name,
                codec._replace(
                    compress=self.wrap("codec.compress", codec.compress),
                    decompress=self.wrap("codec.decompress", codec.decompress),
                ),
            )


@pytest.fixture
def calls(monkeypatch):
    return CallCounter(monkeypatch)


def _physical_bytes(cluster, topic):
    described = cluster.admin().describe_segments(topic)
    return sum(p["size_bytes"] for p in described["partitions"].values())


@pytest.fixture
def mirror_by_reference(calls):
    """``sync(source, destination, topic, **kwargs)`` runs one MirrorMaker
    pass and asserts it forwarded the source's chunks by reference: no
    JSON encode or decode, no packing, no codec pass, one
    ``append_chunks`` per partition, and the destination stores exactly
    the bytes the source stores.  Returns the pass's stats."""

    def sync(source, destination, topic, **kwargs):
        calls.watch(json, "loads")
        calls.watch(serde, "_json_encode")
        calls.watch(record.PackedRecordBatch, "from_events")
        calls.watch(FabricCluster, "append_chunks")
        calls.watch_codecs()
        stats = MirrorMaker(source, destination).sync_topic(topic, **kwargs)
        assert calls == {"FabricCluster.append_chunks": len(source.partitions_for(topic))}
        source_bytes = _physical_bytes(source, topic)
        assert stats.physical_bytes_mirrored == source_bytes
        assert _physical_bytes(destination, topic) == source_bytes
        return stats

    return sync
