"""Exact-count micro-benchmark of a trigger's filter path.

An event-source mapping matches every record it reads against its
filter, then builds the Lambda-shaped event dict only for the records
that match.  The counts below pin that work: one compiled match per
record, one event dict per matching record, and no ``typing``/``abc``
frame while matching — the generic-alias instance checks that once cost
the filter about a microsecond each.
"""

import os
import sys
from collections import Counter

from repro.fabric import FabricCluster, FabricProducer, TopicConfig
from repro.faas.eventsource import EventSourceConfig, EventSourceMapping
from repro.faas.executor import LambdaExecutor
from repro.faas.function import FunctionDefinition, FunctionRegistry
from repro.faas.patterns import EventPattern

#: Listing 1 of the paper: the data-automation trigger's filter.
LISTING_1 = {"value": {"event_type": ["created"]}}
RECORDS = 200


def _event_type(i):
    return "created" if i % 2 == 0 else "modified"


def test_mapping_shapes_only_what_matched(calls):
    cluster = FabricCluster(num_brokers=1)
    cluster.admin().create_topic("fs", TopicConfig(num_partitions=2, replication_factor=1))
    producer = FabricProducer(cluster)
    for i in range(RECORDS):
        producer.send("fs", {"event_type": _event_type(i), "seq": i},
                      key=f"k{i % 7}", headers={"source": "fsmon", "seq": str(i)}, partition=i // 2 % 2)
    received = []
    registry = FunctionRegistry()
    registry.register(FunctionDefinition(
        name="act", handler=lambda event, ctx: received.extend(event["records"])))
    mapping = EventSourceMapping(
        cluster, "fs", "act", LambdaExecutor(registry),
        EventSourceConfig(batch_size=RECORDS, filter_pattern=LISTING_1),
    )
    calls.watch(EventSourceMapping, "_record_to_event")
    calls.watch(EventPattern, "matches")

    mapping.poll_once()

    assert mapping.lag() == 0
    assert calls == {"EventSourceMapping._record_to_event": RECORDS // 2,
                     "EventPattern.matches": RECORDS}
    # The function sees the full Lambda event of each match, headers included.
    expected = [
        {"topic": "fs", "partition": partition, "offset": record.offset,
         "timestamp": record.timestamp, "key": record.key, "value": record.value,
         "headers": {"source": "fsmon", "seq": str(record.value["seq"])}}
        for partition in (0, 1)
        for record in cluster.fetch("fs", partition, 0, max_records=RECORDS)
        if record.value["event_type"] == "created"
    ]
    assert len(expected) == RECORDS // 2
    assert sorted(received, key=lambda e: (e["partition"], e["offset"])) == expected
    assert mapping.stats.records_read == RECORDS
    assert mapping.stats.records_matched == RECORDS // 2
    assert mapping.stats.records_filtered_out == RECORDS // 2


def test_matching_runs_no_typing_or_abc_frame():
    pattern = EventPattern(LISTING_1)
    events = [{"value": {"event_type": _event_type(i), "seq": i}} for i in range(1000)]
    frames = Counter()

    def profile(frame, event, arg):
        if event == "call":
            frames[os.path.basename(frame.f_code.co_filename)] += 1

    sys.setprofile(profile)
    try:
        verdicts = [pattern.matches(event) for event in events]
    finally:
        sys.setprofile(None)
    assert sum(verdicts) == 500
    assert frames["typing.py"] == 0
    assert frames["abc.py"] == 0
