"""A ZooKeeper-like hierarchical, versioned, watchable key-value store.

The real MSK deployment relies on ZooKeeper for strongly consistent
metadata: which topics exist, who owns them, and their ACLs.  The paper
notes (Section IV-F) that ownership updates are infrequent, so strong
consistency is cheap; this implementation provides the same primitives —
znodes organised in a path hierarchy, per-node versions with
compare-and-set writes, ephemeral nodes tied to a session, sequential
nodes, and watches that fire on change — within a single process, guarded
by a lock (linearizable by construction).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.common.clock import Clock, SystemClock


class CoordinationError(Exception):
    """Base class for coordination-store errors."""


class NoNodeError(CoordinationError):
    """The requested znode path does not exist."""


class NodeExistsError(CoordinationError):
    """A znode already exists at the path being created."""


class BadVersionError(CoordinationError):
    """A conditional write carried a stale version."""


class NotEmptyError(CoordinationError):
    """A znode with children cannot be deleted non-recursively."""


@dataclass(frozen=True)
class ZNodeStat:
    """Version and timestamps of a znode, as returned to callers."""

    version: int
    created_at: float
    modified_at: float
    ephemeral_owner: Optional[str]
    num_children: int


@dataclass
class ZNode:
    """Internal representation of a znode."""

    path: str
    created_at: float
    modified_at: float
    data: Any = None
    version: int = 0
    ephemeral_owner: Optional[str] = None
    sequence_counter: int = 0


WatchCallback = Callable[[str, str], None]  # (event_type, path)


class ZooKeeperEnsemble:
    """Strongly consistent znode store with watches.

    The name reflects that a production deployment would be a replicated
    ensemble; here a single in-process store with a global lock provides
    the same linearizable semantics.
    """

    def __init__(self, *, clock: Optional[Clock] = None) -> None:
        self.clock: Clock = clock or SystemClock()
        now = self.clock.now()
        self._nodes: Dict[str, ZNode] = {
            "/": ZNode(path="/", created_at=now, modified_at=now)
        }
        self._lock = threading.RLock()
        self._watches: Dict[str, List[WatchCallback]] = {}
        self._child_watches: Dict[str, List[WatchCallback]] = {}
        self._sessions: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------ #
    # Path helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate_path(path: str) -> str:
        if not path.startswith("/"):
            raise ValueError(f"znode path must be absolute, got {path!r}")
        if path != "/" and path.endswith("/"):
            raise ValueError("znode path must not end with '/'")
        return path

    @staticmethod
    def _parent(path: str) -> str:
        if path == "/":
            return "/"
        parent = path.rsplit("/", 1)[0]
        return parent or "/"

    # ------------------------------------------------------------------ #
    # CRUD
    # ------------------------------------------------------------------ #
    def create(
        self,
        path: str,
        data: Any = None,
        *,
        ephemeral_owner: Optional[str] = None,
        sequential: bool = False,
        make_parents: bool = False,
    ) -> str:
        """Create a znode; returns the actual path (suffixes for sequential nodes)."""
        path = self._validate_path(path)
        with self._lock:
            parent = self._parent(path)
            if parent not in self._nodes:
                if make_parents:
                    self.create(parent, make_parents=True)
                else:
                    raise NoNodeError(f"parent {parent!r} does not exist")
            if sequential:
                parent_node = self._nodes[parent]
                seq = parent_node.sequence_counter
                parent_node.sequence_counter += 1
                path = f"{path}{seq:010d}"
            if path in self._nodes:
                raise NodeExistsError(f"znode {path!r} already exists")
            now = self.clock.now()
            self._nodes[path] = ZNode(
                path=path, created_at=now, modified_at=now, data=data,
                ephemeral_owner=ephemeral_owner,
            )
            if ephemeral_owner is not None:
                self._sessions.setdefault(ephemeral_owner, []).append(path)
            self._fire_child_watches(parent)
            self._fire_watches("created", path)
            return path

    def exists(self, path: str) -> bool:
        with self._lock:
            return self._validate_path(path) in self._nodes

    def get(self, path: str) -> Any:
        with self._lock:
            return self._node(path).data

    def stat(self, path: str) -> ZNodeStat:
        with self._lock:
            node = self._node(path)
            return ZNodeStat(
                version=node.version,
                created_at=node.created_at,
                modified_at=node.modified_at,
                ephemeral_owner=node.ephemeral_owner,
                num_children=len(self.children(path)),
            )

    def set(self, path: str, data: Any, *, expected_version: Optional[int] = None) -> int:
        """Update a znode's data; returns the new version.

        ``expected_version`` enables compare-and-set updates — the OWS uses
        it to make its topic-ownership updates idempotent under retry.
        """
        with self._lock:
            node = self._node(path)
            if expected_version is not None and node.version != expected_version:
                raise BadVersionError(
                    f"{path}: expected version {expected_version}, found {node.version}"
                )
            node.data = data
            node.version += 1
            node.modified_at = self.clock.now()
            self._fire_watches("changed", path)
            return node.version

    def delete(self, path: str, *, recursive: bool = False) -> None:
        with self._lock:
            path = self._validate_path(path)
            self._node(path)
            children = self.children(path)
            if children and not recursive:
                raise NotEmptyError(f"znode {path!r} has children {children}")
            for child in children:
                self.delete(f"{path}/{child}" if path != "/" else f"/{child}", recursive=True)
            node = self._nodes.pop(path)
            if node.ephemeral_owner and node.ephemeral_owner in self._sessions:
                try:
                    self._sessions[node.ephemeral_owner].remove(path)
                except ValueError:
                    pass
            self._fire_watches("deleted", path)
            self._fire_child_watches(self._parent(path))

    def children(self, path: str) -> List[str]:
        """Direct child names of ``path``, sorted."""
        with self._lock:
            path = self._validate_path(path)
            if path not in self._nodes:
                raise NoNodeError(f"znode {path!r} does not exist")
            prefix = path if path != "/" else ""
            names = []
            for other in self._nodes:
                if other == path or not other.startswith(prefix + "/"):
                    continue
                remainder = other[len(prefix) + 1 :]
                if "/" not in remainder:
                    names.append(remainder)
            return sorted(names)

    def ensure_path(self, path: str) -> None:
        """Create ``path`` (and parents) if missing; no error if present."""
        try:
            self.create(path, make_parents=True)
        except NodeExistsError:
            pass

    # ------------------------------------------------------------------ #
    # Watches
    # ------------------------------------------------------------------ #
    def watch(self, path: str, callback: WatchCallback) -> None:
        """Invoke ``callback(event, path)`` whenever the node changes."""
        with self._lock:
            self._watches.setdefault(self._validate_path(path), []).append(callback)

    def watch_children(self, path: str, callback: WatchCallback) -> None:
        """Invoke ``callback`` whenever direct children are added/removed."""
        with self._lock:
            self._child_watches.setdefault(self._validate_path(path), []).append(callback)

    def _fire_watches(self, event: str, path: str) -> None:
        for callback in list(self._watches.get(path, ())):
            callback(event, path)

    def _fire_child_watches(self, parent: str) -> None:
        for callback in list(self._child_watches.get(parent, ())):
            callback("children_changed", parent)

    # ------------------------------------------------------------------ #
    # Sessions (ephemeral nodes)
    # ------------------------------------------------------------------ #
    def close_session(self, session_id: str) -> List[str]:
        """Delete every ephemeral node owned by ``session_id``."""
        with self._lock:
            paths = list(self._sessions.pop(session_id, ()))
            for path in paths:
                if path in self._nodes:
                    self.delete(path, recursive=True)
            return paths

    # ------------------------------------------------------------------ #
    def _node(self, path: str) -> ZNode:
        path = self._validate_path(path)
        try:
            return self._nodes[path]
        except KeyError:
            raise NoNodeError(f"znode {path!r} does not exist") from None

    def dump(self) -> Dict[str, Any]:
        """Snapshot of the whole tree (debugging / persistence)."""
        with self._lock:
            return {path: node.data for path, node in sorted(self._nodes.items())}
