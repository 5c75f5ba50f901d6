"""S3-like object store used for event persistence.

Figure 2 shows events optionally persisted to reliable cloud storage (the
red arrows).  The object store here is the persistence sink the fabric
cluster calls for topics configured with ``persist_to_store=True``, and it
doubles as generic blob storage for the applications (model artefacts,
epidemic data snapshots).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.clock import Clock, SystemClock
from repro.fabric.record import StoredRecord


@dataclass(frozen=True)
class StoredObject:
    """One object version in a bucket."""

    bucket: str
    key: str
    data: bytes
    content_type: str
    stored_at: float

    @property
    def size_bytes(self) -> int:
        return len(self.data)


class ObjectStore:
    """Versioned, bucketed blob storage."""

    def __init__(self, *, clock: Optional[Clock] = None) -> None:
        self.clock: Clock = clock or SystemClock()
        self._objects: Dict[str, Dict[str, List[StoredObject]]] = {}

    # ------------------------------------------------------------------ #
    def create_bucket(self, bucket: str) -> None:
        self._objects.setdefault(bucket, {})

    def buckets(self) -> List[str]:
        return sorted(self._objects)

    def put(self, bucket: str, key: str, data: "bytes | str | dict",
            *, content_type: Optional[str] = None) -> StoredObject:
        self.create_bucket(bucket)
        if isinstance(data, dict):
            payload = json.dumps(data, sort_keys=True, default=str).encode("utf-8")
            content_type = content_type or "application/json"
        elif isinstance(data, str):
            payload = data.encode("utf-8")
            content_type = content_type or "text/plain"
        else:
            payload = bytes(data)
            content_type = content_type or "application/octet-stream"
        obj = StoredObject(
            bucket=bucket, key=key, data=payload, content_type=content_type,
            stored_at=self.clock.now(),
        )
        self._objects[bucket].setdefault(key, []).append(obj)
        return obj

    def get(self, bucket: str, key: str) -> StoredObject:
        versions = self._objects.get(bucket, {}).get(key)
        if not versions:
            raise KeyError(f"s3://{bucket}/{key} does not exist")
        return versions[-1]

    def get_json(self, bucket: str, key: str) -> dict:
        return json.loads(self.get(bucket, key).data.decode("utf-8"))

    def exists(self, bucket: str, key: str) -> bool:
        return bool(self._objects.get(bucket, {}).get(key))

    def list(self, bucket: str, prefix: str = "") -> List[str]:
        return sorted(k for k in self._objects.get(bucket, {}) if k.startswith(prefix))

    def versions(self, bucket: str, key: str) -> int:
        return len(self._objects.get(bucket, {}).get(key, ()))

    def delete(self, bucket: str, key: str) -> bool:
        bucket_objects = self._objects.get(bucket, {})
        return bucket_objects.pop(key, None) is not None

    # ------------------------------------------------------------------ #
    def persistence_sink(self, bucket: str = "octopus-events"):
        """Adapter for :meth:`repro.fabric.admin.FabricAdmin.add_persistence_sink`."""
        self.create_bucket(bucket)

        def sink(topic: str, partition: int, record: StoredRecord) -> None:
            key = f"{topic}/{partition}/{record.offset:012d}.json"
            self.put(bucket, key, record.record.to_dict())

        return sink

    def total_bytes(self, bucket: str) -> int:
        return sum(
            version.size_bytes
            for versions in self._objects.get(bucket, {}).values()
            for version in versions
        )
