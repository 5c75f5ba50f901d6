"""Instrumented lock wrappers: the runtime half of *fabric-san*.

The fabric is a heavily threaded system — producer delivery threads,
ESM poller fleets, replication and compaction all take locks
concurrently — and the invariants those threads depend on
(consistent lock ordering above all) are otherwise only checked by
Hypothesis soak luck.  This module provides drop-in
:class:`SanitizedLock` / :class:`SanitizedRLock` wrappers that

* record, per thread, the stack of currently held locks together with
  the acquisition stack trace of each;
* maintain a **global lock-order graph**: an edge ``A -> B`` is added
  the first time some thread acquires ``B`` while holding ``A``;
* raise :class:`LockOrderInversion` *before* blocking when an
  acquisition would close a cycle in that graph — the error carries the
  acquisition stacks of **both** conflicting orderings, so an AB/BA
  deadlock is reported deterministically on the first run that
  exercises both orders, whether or not the threads actually interleave
  into the deadlock;
* record a report (not an error) when a *blocking call* — anything
  routed through :func:`note_blocking` or :func:`blocking_region` —
  runs while sanitized locks are held.

Production code never pays for any of this: modules create their locks
through :func:`create_lock` / :func:`create_rlock`, which return the
bare :mod:`threading` primitives (no wrapper object, no extra
attributes, no indirection) unless sanitizing was switched on — via the
``REPRO_SANITIZE=1`` environment variable (how pytest and the nightly
soak enable it, see ``tests/conftest.py``) or :func:`enable_sanitizer`.
The sanitized classes themselves are always importable for targeted
tests regardless of the global switch.
"""

from __future__ import annotations

import itertools
import os
import threading
import traceback
from typing import Dict, List, Optional, Tuple

__all__ = [
    "LockOrderInversion",
    "SanitizedLock",
    "SanitizedRLock",
    "blocking_region",
    "blocking_reports",
    "create_lock",
    "create_rlock",
    "enable_sanitizer",
    "held_locks",
    "note_blocking",
    "reset_sanitizer_state",
    "sanitizer_enabled",
]

#: Environment switch consulted at import time (and by
#: :func:`sanitizer_enabled`): any value other than empty/``0`` enables
#: the instrumented wrappers for every module that creates its locks
#: through the factories below.
SANITIZE_ENV = "REPRO_SANITIZE"

_enabled = os.environ.get(SANITIZE_ENV, "") not in ("", "0")


class LockOrderInversion(RuntimeError):
    """Two locks were acquired in both orders: a potential deadlock.

    Raised *at acquisition time* on the thread that would close the
    cycle, before it blocks.  The message carries the acquisition stack
    of the current (conflicting) acquisition and the recorded stack of
    the first acquisition that established the opposite order.
    """


class BlockingWhileLocked:
    """One observation of a blocking call made while holding locks."""

    __slots__ = ("description", "held", "stack")

    def __init__(self, description: str, held: Tuple[str, ...], stack: str) -> None:
        self.description = description
        self.held = held
        self.stack = stack

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BlockingWhileLocked({self.description!r}, held={self.held!r})"


class _ThreadState(threading.local):
    """Per-thread stack of held sanitized locks with acquisition stacks."""

    def __init__(self) -> None:
        #: List of (lock, formatted acquisition stack), innermost last.
        self.held: List[Tuple[object, str]] = []


_tls = _ThreadState()

# The sanitizer's own bookkeeping lock.  Never held while user code
# runs, so it cannot participate in the cycles it is looking for.
_graph_lock = threading.Lock()
#: Lock-order edges: serial(A) -> {serial(B) -> (A.name, B.name, stack
#: that recorded the edge)}.  Identity is per lock *instance* — the cycles
#: a deadlock needs are between concrete locks, not lock classes — and by
#: creation serial, never ``id()``: the graph outlives the locks, and a
#: collected lock's address is handed to the next one created, which would
#: inherit its edges and convict an order nobody took.
_order_graph: Dict[int, Dict[int, Tuple[str, str, str]]] = {}
_serials = itertools.count()
_blocking_reports: List[BlockingWhileLocked] = []


def _capture_stack(skip: int = 2) -> str:
    """Formatted stack of the caller, trimmed of sanitizer frames."""
    frames = traceback.extract_stack()[:-skip]
    return "".join(traceback.format_list(frames[-12:]))


def _path_exists(start: int, goal: int) -> Optional[Tuple[str, str, str]]:
    """DFS the order graph for a path ``start -> ... -> goal``.

    Returns the first edge on the found path (whose recorded stack is
    the evidence shown in the error), or ``None``.  Caller holds
    ``_graph_lock``.
    """
    stack = [start]
    first_edge: Dict[int, Tuple[str, str, str]] = {}
    seen = {start}
    while stack:
        node = stack.pop()
        for succ, evidence in _order_graph.get(node, {}).items():
            if succ not in seen:
                seen.add(succ)
                first_edge[succ] = first_edge.get(node, evidence)
                if succ == goal:
                    return first_edge[succ]
                stack.append(succ)
    return None


def _check_order(lock: "_SanitizedBase") -> None:
    """Validate acquiring ``lock`` against every lock this thread holds.

    Called *before* the real acquire, so an inversion raises instead of
    deadlocking.  Edges are added here as well (held -> acquiring); a
    failed non-blocking acquire leaves behind edges describing an order
    the thread genuinely attempted, which is exactly the information the
    graph exists to keep.
    """
    held = _tls.held
    if not held:
        return
    acquiring = lock._serial
    stack = _capture_stack(skip=3)
    with _graph_lock:
        for held_lock, _held_stack in held:
            if held_lock is lock:
                continue  # reentrancy is the RLock wrapper's business
            holder = held_lock._serial
            evidence = _path_exists(acquiring, holder)
            if evidence is not None:
                first_name, second_name, recorded = evidence
                raise LockOrderInversion(
                    f"lock-order inversion: acquiring {lock.name!r} while "
                    f"holding {held_lock.name!r}, but the opposite order "
                    f"({first_name!r} before {second_name!r}) was recorded "
                    f"earlier.\n"
                    f"--- current acquisition (holds {held_lock.name!r}, "
                    f"wants {lock.name!r}):\n{stack}"
                    f"--- previously recorded acquisition "
                    f"({second_name!r} while holding {first_name!r}):\n"
                    f"{recorded}"
                )
            edges = _order_graph.setdefault(holder, {})
            if acquiring not in edges:
                edges[acquiring] = (held_lock.name, lock.name, stack)


class _SanitizedBase:
    """Shared acquire/release instrumentation for both wrappers."""

    __slots__ = ("_inner", "name", "_serial")

    def __init__(self, inner, name: Optional[str]) -> None:
        self._inner = inner
        self._serial = next(_serials)
        if name is None:
            # Default identity: the creation site, which is how a human
            # maps a report back to a `create_lock()` call.
            frame = traceback.extract_stack(limit=3)[0]
            name = f"{type(self).__name__}@{frame.filename}:{frame.lineno}"
        self.name = name

    def _push(self) -> None:
        _tls.held.append((self, _capture_stack(skip=3)))

    def _pop(self) -> None:
        held = _tls.held
        for index in range(len(held) - 1, -1, -1):
            if held[index][0] is self:
                del held[index]
                return

    def locked(self) -> bool:
        return self._inner.locked()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class SanitizedLock(_SanitizedBase):
    """A ``threading.Lock`` that feeds the lock-order sanitizer."""

    __slots__ = ()

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(threading.Lock(), name)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:  # lint: ignore[BARE-ACQUIRE]
        _check_order(self)
        ok = self._inner.acquire(blocking, timeout)  # lint: ignore[BARE-ACQUIRE]
        if ok:
            self._push()
        return ok

    def release(self) -> None:  # lint: ignore[BARE-ACQUIRE]
        self._inner.release()  # lint: ignore[BARE-ACQUIRE]
        self._pop()

    def __enter__(self) -> bool:
        return self.acquire()  # lint: ignore[BARE-ACQUIRE]

    def __exit__(self, *exc_info) -> None:
        self.release()  # lint: ignore[BARE-ACQUIRE]


class SanitizedRLock(_SanitizedBase):
    """A ``threading.RLock`` that feeds the lock-order sanitizer.

    Reentrant acquisitions by the owning thread are counted but do not
    touch the order graph — only the outermost acquire/release pair is
    an ordering event.
    """

    __slots__ = ("_owner", "_count")

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(threading.RLock(), name)
        self._owner: Optional[int] = None
        self._count = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:  # lint: ignore[BARE-ACQUIRE]
        me = threading.get_ident()
        reentrant = self._owner == me
        if not reentrant:
            _check_order(self)
        ok = self._inner.acquire(blocking, timeout)  # lint: ignore[BARE-ACQUIRE]
        if ok:
            self._owner = me
            self._count += 1
            if not reentrant:
                self._push()
        return ok

    def release(self) -> None:  # lint: ignore[BARE-ACQUIRE]
        if self._owner != threading.get_ident():
            raise RuntimeError("cannot release an un-acquired SanitizedRLock")
        self._count -= 1
        outermost = self._count == 0
        if outermost:
            self._owner = None
        self._inner.release()  # lint: ignore[BARE-ACQUIRE]
        if outermost:
            self._pop()

    def locked(self) -> bool:
        return self._count > 0

    def __enter__(self) -> bool:
        return self.acquire()  # lint: ignore[BARE-ACQUIRE]

    def __exit__(self, *exc_info) -> None:
        self.release()  # lint: ignore[BARE-ACQUIRE]


# --------------------------------------------------------------------- #
# Blocking-call observation
# --------------------------------------------------------------------- #
def note_blocking(description: str) -> None:
    """Record that a blocking call is about to run on this thread.

    When the calling thread holds sanitized locks, a
    :class:`BlockingWhileLocked` report (lock names + call stack) is
    appended to the global report list — the runtime complement of the
    BLOCKING-UNDER-LOCK lint rule, catching lock-held blocking calls
    that are only reachable dynamically.  Free when no locks are held.
    """
    held = _tls.held
    if not held:
        return
    report = BlockingWhileLocked(
        description,
        tuple(lock.name for lock, _ in held),
        _capture_stack(skip=2),
    )
    with _graph_lock:
        _blocking_reports.append(report)


class blocking_region:
    """Context manager marking a region as blocking (see :func:`note_blocking`)."""

    def __init__(self, description: str) -> None:
        self._description = description

    def __enter__(self) -> "blocking_region":
        note_blocking(self._description)
        return self

    def __exit__(self, *exc_info) -> None:
        return None


def blocking_reports() -> List[BlockingWhileLocked]:
    """Snapshot of every blocking-while-locked observation so far."""
    with _graph_lock:
        return list(_blocking_reports)


def held_locks() -> Tuple[str, ...]:
    """Names of the sanitized locks the calling thread currently holds."""
    return tuple(lock.name for lock, _ in _tls.held)


# --------------------------------------------------------------------- #
# Mode switching and factories
# --------------------------------------------------------------------- #
def sanitizer_enabled() -> bool:
    """Whether the factories hand out instrumented locks."""
    return _enabled


def enable_sanitizer(on: bool = True) -> None:
    """Programmatically flip the sanitizer (tests; prefer REPRO_SANITIZE=1).

    Only affects locks created *after* the call: existing objects keep
    whatever type their factory returned.
    """
    global _enabled
    _enabled = on


def reset_sanitizer_state() -> None:
    """Clear the order graph and blocking reports (per-test isolation)."""
    with _graph_lock:
        _order_graph.clear()
        _blocking_reports.clear()


def create_lock(name: Optional[str] = None) -> threading.Lock:
    """A mutex: plain ``threading.Lock`` unless the sanitizer is on.

    In production mode this returns the bare primitive itself — zero
    wrapper objects, zero attribute indirection, zero overhead — which
    is what keeps the storage/compression benchmark floors intact.
    """
    if _enabled:
        return SanitizedLock(name)
    return threading.Lock()


def create_rlock(name: Optional[str] = None) -> threading.RLock:
    """A reentrant mutex: plain ``threading.RLock`` unless sanitizing."""
    if _enabled:
        return SanitizedRLock(name)
    return threading.RLock()
