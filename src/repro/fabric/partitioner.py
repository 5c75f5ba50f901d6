"""Partition selection for produced records.

Mirrors the Kafka default partitioner: keyed records hash to a stable
partition (preserving per-key ordering across the life of the topic), and
unkeyed records are sprayed round-robin / sticky to balance load across
partitions, which is what lets multi-partition topics reach higher
aggregate throughput in the paper's evaluation (Table III, experiment #6).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import threading
from typing import Any, Optional

__all__ = ["Partitioner", "hash_key"]


def hash_key(key: Any) -> int:
    """Stable, process-independent hash of a record key: the first eight
    bytes of the md5 of ``key`` if it is bytes, else of ``str(key)``."""
    return _digest(key if isinstance(key, bytes) else str(key))


@functools.lru_cache(maxsize=4096, typed=True)
def _digest(data) -> int:
    """md5 prefix of ``data`` (bytes or text), memoised: a producer hashes
    the same few keys over and over.  The cache is keyed by what is hashed,
    not by the key, so ``1``, ``1.0`` and ``True`` keep distinct entries."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return int.from_bytes(hashlib.md5(data).digest()[:8], "big")


class Partitioner:
    """Chooses the partition for each produced record."""

    def __init__(self) -> None:
        self._round_robin = itertools.count()
        self._lock = threading.Lock()

    def partition(
        self, key: Any, num_partitions: int, explicit: Optional[int] = None
    ) -> int:
        """Return the partition index for a record.

        ``explicit`` (a partition requested by the caller) wins, then key
        hashing, then round-robin.
        """
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if explicit is not None:
            if not 0 <= explicit < num_partitions:
                raise ValueError(
                    f"explicit partition {explicit} outside [0, {num_partitions})"
                )
            return explicit
        if key is not None:
            return hash_key(key) % num_partitions
        with self._lock:
            return next(self._round_robin) % num_partitions
