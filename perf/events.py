"""Seeded event generator for the benchmark workloads.

Every workload's inputs come from here and depend on nothing but the
``--seed`` argument: the same seed gives the same keys, values and
created/deleted split.  An event's *serialized value* (what
``repro.fabric.serde.serialize`` puts on the wire) has exactly the stated
size; this is asserted at set-up, together with the gzip ratio of the
1 KB / 4 KB text, so a workload never silently measures ``"x" * n``.
"""

from __future__ import annotations

import itertools
import random
import zlib
from typing import List, Tuple

from repro.fabric.serde import serialize

#: First sequence number.  Seven digits for every count the workloads use,
#: so a value's serialized size does not depend on its position.
SEQ_BASE = 1_000_000

VOCABULARY_WORDS = 2000
#: The vocabulary is the same for every seed: how long gzip takes depends on
#: the word mix, and a per-seed vocabulary made the wire workload's produce
#: rate differ by seed more than by anything the fabric does.  The seed
#: still decides every payload, key order and event type.
VOCABULARY_SEED = 20240917
PAYLOAD_POOL = 512
#: Keys per partition; events of one key stay in produce order.
KEYS_PER_PARTITION = 16
#: Accepted gzip ratio of a 64-event batch of 1 KB / 4 KB values.
GZIP_RATIO_RANGE = (2.0, 5.0)

Event = Tuple[str, dict]


class EventFactory:
    """Builds ``(key, value)`` events whose value serializes to ``size`` bytes.

    Values of 1 KB and 4 KB are ``{"event_type", "payload", "seq"}`` with
    text drawn (Zipf-weighted) from a seeded vocabulary; 32 B values have
    no room for an event type and are ``{"payload", "seq"}``.  Payload
    texts come from a pool built once, so generating a round of events
    costs a dict per event and no string copies.
    """

    def __init__(self, seed: int, size: int) -> None:
        self.size = size
        self.typed = size >= 64
        words = random.Random(VOCABULARY_SEED)
        letters = "abcdefghijklmnopqrstuvwxyz"
        vocabulary = [
            "".join(words.choice(letters) for _ in range(words.randint(3, 10)))
            for _ in range(VOCABULARY_WORDS)
        ]
        rng = random.Random(seed)
        weights = list(
            itertools.accumulate(1.0 / rank for rank in range(1, VOCABULARY_WORDS + 1))
        )
        self.payload_chars = size - len(serialize(self._value("created", "", 0)))
        if self.payload_chars < 1:
            raise ValueError(f"{size} B leaves no room for a payload")
        self._pool: List[str] = [
            " ".join(
                rng.choices(vocabulary, cum_weights=weights, k=self.payload_chars // 4 + 2)
            )[: self.payload_chars]
            for _ in range(PAYLOAD_POOL)
        ]
        self._seed = seed
        self._check()

    def _value(self, event_type: str, payload: str, index: int) -> dict:
        value = {"payload": payload, "seq": SEQ_BASE + index}
        if self.typed:
            value["event_type"] = event_type
        return value

    def _check(self) -> None:
        sample = [serialize(value) for _, value in self.events(0, 64, partitions=1)]
        sizes = {len(body) for body in sample}
        if sizes != {self.size}:
            raise AssertionError(f"serialized sizes {sizes}, wanted {self.size}")
        if self.size >= 1024:
            blob = b"".join(sample)
            ratio = len(blob) / len(zlib.compress(blob))
            low, high = GZIP_RATIO_RANGE
            if not low <= ratio <= high:
                raise AssertionError(
                    f"gzip ratio {ratio:.2f} of {self.size} B events outside {low}-{high}"
                )

    def events(self, round_index: int, count: int, *, partitions: int) -> List[Event]:
        """``count`` events for one round, exactly half of them ``created``.

        Keys name the partition group they belong to (``p2-k07``): the SDK
        workloads let the fabric's partitioner hash them, the wire workload
        routes by the prefix itself; either way all events of a key share a
        partition and must come back in ``seq`` order.
        """
        rng = random.Random(self._seed * 1_000_003 + round_index)
        types = ["created"] * (count - count // 2) + ["deleted"] * (count // 2)
        rng.shuffle(types)
        picks = rng.choices(range(PAYLOAD_POOL), k=count)
        pool = self._pool
        keys = [
            f"p{p}-k{k:02d}"
            for p in range(partitions)
            for k in range(KEYS_PER_PARTITION)
        ]
        nkeys = len(keys)
        return [
            (keys[index % nkeys], self._value(types[index], pool[picks[index]], index))
            for index in range(count)
        ]

    def checksum(self, count: int) -> int:
        """What touching ``count`` events (``len(value["payload"])``) sums to."""
        return count * self.payload_chars
