"""fabric-san runtime half: the instrumented-lock sanitizer.

The deliberate AB/BA fixture here is the deadlock the sanitizer exists
to catch: both orders are exercised on one thread, so detection must be
deterministic (no interleaving luck required) and the raised error must
carry the acquisition stacks of *both* conflicting orderings.
"""

import threading

import pytest

from repro.common import sync
from repro.common.sync import (
    LockOrderInversion,
    SanitizedLock,
    SanitizedRLock,
    blocking_region,
    blocking_reports,
    create_lock,
    create_rlock,
    held_locks,
    note_blocking,
)


@pytest.fixture(autouse=True)
def _clean_state():
    # The sanitized classes are used directly (regardless of the global
    # switch), and their order graph is process-global.
    sync.reset_sanitizer_state()
    yield
    sync.reset_sanitizer_state()


# --------------------------------------------------------------------- #
# Lock-order inversion detection
# --------------------------------------------------------------------- #
class TestInversionDetection:
    def test_ab_ba_inversion_detected(self):
        a = SanitizedLock("lock-A")
        b = SanitizedLock("lock-B")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderInversion):
                with a:
                    pass

    def test_error_carries_both_acquisition_stacks(self):
        a = SanitizedLock("alpha")
        b = SanitizedLock("beta")

        def establish_ab():
            with a:
                with b:
                    pass

        establish_ab()
        with b:
            with pytest.raises(LockOrderInversion) as excinfo:
                a.acquire()
        message = str(excinfo.value)
        # Both lock names, both orderings, and both stacks must appear.
        assert "alpha" in message and "beta" in message
        assert "current acquisition" in message
        assert "previously recorded acquisition" in message
        # The recorded (first) ordering's stack points at the code that
        # established A-before-B.
        assert "establish_ab" in message

    def test_detection_is_pre_block(self):
        """The inversion raises before acquire blocks: no real deadlock
        (nor second thread) is needed, and the lock stays free."""
        a = SanitizedLock("pre-A")
        b = SanitizedLock("pre-B")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderInversion):
                with a:
                    pass
        # ``a`` was never actually acquired by the failing attempt.
        assert a.acquire(blocking=False)
        a.release()

    def test_transitive_cycle_detected(self):
        a, b, c = (SanitizedLock(n) for n in ("t-A", "t-B", "t-C"))
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        # A -> B -> C is on record; C -> A closes the cycle.
        with c:
            with pytest.raises(LockOrderInversion):
                with a:
                    pass

    def test_consistent_order_never_raises(self):
        a = SanitizedLock("ok-A")
        b = SanitizedLock("ok-B")
        errors = []

        def worker():
            try:
                for _ in range(50):
                    with a:
                        with b:
                            pass
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_collected_lock_does_not_bequeath_its_edges(self):
        """The order graph outlives the locks; a new lock allocated at a
        collected lock's address must not inherit its recorded orders
        (Hypothesis builds a fresh cluster per example in one test)."""
        for _ in range(200):
            a = SanitizedLock("gone-A")
            b = SanitizedLock("gone-B")
            with a:
                with b:
                    pass
            del a, b
            c = SanitizedLock("new-C")
            d = SanitizedLock("new-D")
            with c:
                with d:
                    pass
            with SanitizedLock("new-E"):
                with c:
                    pass

    def test_reset_clears_recorded_orders(self):
        a = SanitizedLock("r-A")
        b = SanitizedLock("r-B")
        with a:
            with b:
                pass
        sync.reset_sanitizer_state()
        with b:
            with a:  # no longer an inversion: the AB edge is gone
                pass


class TestSanitizedRLock:
    def test_reentrant_acquire_is_not_an_ordering_event(self):
        lock = SanitizedRLock("re-entrant")
        with lock:
            with lock:
                with lock:
                    assert lock.locked()
        assert not lock.locked()
        assert held_locks() == ()

    def test_inversion_detected_between_rlocks(self):
        a = SanitizedRLock("rl-A")
        b = SanitizedRLock("rl-B")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(LockOrderInversion):
                with a:
                    pass

    def test_foreign_thread_release_rejected(self):
        lock = SanitizedRLock("owned")
        lock.acquire()
        caught = []

        def foreign():
            try:
                lock.release()
            except RuntimeError as exc:
                caught.append(exc)

        t = threading.Thread(target=foreign)
        t.start()
        t.join()
        lock.release()
        assert len(caught) == 1

    def test_held_locks_reports_innermost_last(self):
        a = SanitizedRLock("outer")
        b = SanitizedLock("inner")
        with a:
            with b:
                assert held_locks() == ("outer", "inner")
        assert held_locks() == ()


# --------------------------------------------------------------------- #
# Blocking-while-locked observation
# --------------------------------------------------------------------- #
class TestBlockingReports:
    def test_blocking_under_lock_is_reported(self):
        lock = SanitizedLock("io-lock")
        with lock:
            note_blocking("codec.compress")
        reports = blocking_reports()
        assert len(reports) == 1
        assert reports[0].description == "codec.compress"
        assert reports[0].held == ("io-lock",)
        assert "test_sync" in reports[0].stack

    def test_blocking_without_lock_is_free(self):
        note_blocking("fs.read")
        assert blocking_reports() == []

    def test_blocking_region_context_manager(self):
        lock = SanitizedLock("region-lock")
        with lock:
            with blocking_region("json.dumps"):
                pass
        assert [r.description for r in blocking_reports()] == ["json.dumps"]


# --------------------------------------------------------------------- #
# Production no-op mode
# --------------------------------------------------------------------- #
class TestFactories:
    def test_disabled_factories_return_bare_primitives(self):
        """Production pays nothing: no wrapper object at all.

        This is the invariant behind keeping the storage/compression
        benchmark floors intact with the fabric migrated onto the
        factories.
        """
        before = sync.sanitizer_enabled()
        sync.enable_sanitizer(False)
        try:
            assert type(create_lock("x")) is type(threading.Lock())
            assert type(create_rlock("x")) is type(threading.RLock())
        finally:
            sync.enable_sanitizer(before)

    def test_enabled_factories_return_instrumented_wrappers(self):
        before = sync.sanitizer_enabled()
        sync.enable_sanitizer(True)
        try:
            assert isinstance(create_lock("a"), SanitizedLock)
            assert isinstance(create_rlock("b"), SanitizedRLock)
        finally:
            sync.enable_sanitizer(before)

    def test_default_name_is_creation_site(self):
        lock = SanitizedLock()
        assert "test_sync.py" in lock.name

    def test_fabric_locks_are_instrumented_under_sanitize(self):
        """End to end: a cluster built with the sanitizer on uses
        instrumented locks everywhere the factories were wired in."""
        from repro.fabric.cluster import FabricCluster

        before = sync.sanitizer_enabled()
        sync.enable_sanitizer(True)
        try:
            cluster = FabricCluster(num_brokers=1)
            assert isinstance(cluster._lock, SanitizedRLock)
            broker = cluster.brokers[0]
            assert isinstance(broker._lock, SanitizedRLock)
            assert isinstance(cluster.offsets._lock, SanitizedRLock)
            assert isinstance(cluster.groups._lock, SanitizedRLock)
        finally:
            sync.enable_sanitizer(before)
