"""FSMonitor-like filesystem event source.

The scientific data automation application (Section VI-B) starts from
FSMon, a scalable monitor that collects events (create/modify/delete) from
a parallel filesystem and publishes them to a local Kafka topic.  Here the
monitor watches an in-memory filesystem model; applications and tests
drive it by creating/modifying files, and it emits structured events
compatible with the Listing 1 trigger pattern
(``{"value": {"event_type": ["created"]}}``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.clock import Clock, SystemClock

_event_ids = itertools.count(1)


@dataclass(frozen=True)
class FileSystemEvent:
    """One filesystem event, as FSMon would report it."""

    event_type: str          # "created" | "modified" | "deleted" | "closed"
    path: str
    size_bytes: int
    filesystem: str
    timestamp: float
    event_id: int = field(default_factory=lambda: next(_event_ids))

    def to_dict(self) -> dict:
        return {
            "event_type": self.event_type,
            "path": self.path,
            "size": self.size_bytes,
            "filesystem": self.filesystem,
            "timestamp": self.timestamp,
        }


class FileSystemMonitor:
    """Watches one (simulated) parallel filesystem and emits events."""

    def __init__(
        self,
        filesystem_name: str,
        *,
        sink: Optional[Callable[[FileSystemEvent], None]] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.filesystem_name = filesystem_name
        self._files: Dict[str, int] = {}
        self._sink = sink
        self._clock: Clock = clock or SystemClock()
        self.events: List[FileSystemEvent] = []

    # ------------------------------------------------------------------ #
    def set_sink(self, sink: Callable[[FileSystemEvent], None]) -> None:
        """Attach the callback that receives every emitted event."""
        self._sink = sink

    def _emit(self, event_type: str, path: str, size: int) -> FileSystemEvent:
        event = FileSystemEvent(
            event_type=event_type,
            path=path,
            size_bytes=size,
            filesystem=self.filesystem_name,
            timestamp=self._clock.now(),
        )
        self.events.append(event)
        if self._sink is not None:
            self._sink(event)
        return event

    # ------------------------------------------------------------------ #
    # Filesystem operations (what instruments / analysis jobs do)
    # ------------------------------------------------------------------ #
    def create_file(self, path: str, size_bytes: int = 0) -> FileSystemEvent:
        if path in self._files:
            return self.modify_file(path, size_bytes)
        self._files[path] = size_bytes
        return self._emit("created", path, size_bytes)

    def modify_file(self, path: str, size_bytes: int) -> FileSystemEvent:
        if path not in self._files:
            return self.create_file(path, size_bytes)
        self._files[path] = size_bytes
        return self._emit("modified", path, size_bytes)

    def close_file(self, path: str) -> FileSystemEvent:
        size = self._files.get(path, 0)
        return self._emit("closed", path, size)

    def delete_file(self, path: str) -> FileSystemEvent:
        size = self._files.pop(path, 0)
        return self._emit("deleted", path, size)

    # ------------------------------------------------------------------ #
    def files(self) -> Dict[str, int]:
        return dict(self._files)

    def exists(self, path: str) -> bool:
        return path in self._files

    def event_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.event_type] = counts.get(event.event_type, 0) + 1
        return counts

    def simulate_experiment_output(
        self, directory: str, num_files: int, *, size_bytes: int = 1 << 20
    ) -> List[FileSystemEvent]:
        """Convenience: an instrument writing ``num_files`` into ``directory``."""
        events = []
        for index in range(num_files):
            path = f"{directory.rstrip('/')}/run_{index:05d}.h5"
            events.append(self.create_file(path, size_bytes))
            events.append(self.close_file(path))
        return events
