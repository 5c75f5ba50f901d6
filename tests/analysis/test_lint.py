"""fabric-san static half: the concurrency/clock lint.

Fixture snippets are linted in memory via :func:`lint_source`; the CLI
is exercised against a tmp_path tree.
"""

import textwrap

import pytest

from repro.analysis import lint
from repro.analysis.lint import lint_source


def run(source, path="src/repro/fabric/example.py"):
    return lint_source(textwrap.dedent(source), path)


def codes(violations):
    return [v.rule for v in violations]


# --------------------------------------------------------------------- #
# RAW-CLOCK
# --------------------------------------------------------------------- #
class TestRawClock:
    def test_time_time_call_flagged(self):
        out = run("""
            import time

            def stamp():
                return time.time()
        """)
        assert codes(out) == ["RAW-CLOCK"]
        assert "time.time" in out[0].message

    def test_bare_reference_default_flagged(self):
        """``sleep_fn=time.sleep`` defaults bypass the Clock without a
        call expression anywhere — references are violations too."""
        out = run("""
            import time

            def poll(sleep_fn=time.sleep):
                sleep_fn(0.1)
        """)
        assert codes(out) == ["RAW-CLOCK"]

    def test_import_alias_resolved(self):
        out = run("""
            from time import time as wall

            def stamp():
                return wall()
        """)
        assert codes(out) == ["RAW-CLOCK"]

    def test_datetime_now_flagged(self):
        out = run("""
            import datetime

            def stamp():
                return datetime.datetime.now()
        """)
        assert codes(out) == ["RAW-CLOCK"]

    def test_clock_module_exempt(self):
        out = run(
            """
            import time

            def now():
                return time.time()
            """,
            path="src/repro/common/clock.py",
        )
        assert out == []

    def test_perf_counter_allowed(self):
        out = run("""
            import time

            def measure():
                return time.perf_counter()
        """)
        assert out == []


# --------------------------------------------------------------------- #
# GUARDED-BY
# --------------------------------------------------------------------- #
GUARDED_CLASS = """
    from repro.common.sync import create_rlock


    class Store:
        def __init__(self):
            self._items = {{}}  #: guarded_by _lock
            self._lock = create_rlock("Store")

        {method}
"""


class TestGuardedBy:
    def test_unlocked_access_flagged(self):
        out = run(GUARDED_CLASS.format(method="""
        def size(self):
            return len(self._items)
        """))
        assert codes(out) == ["GUARDED-BY"]
        assert "_items" in out[0].message and "_lock" in out[0].message

    def test_locked_access_clean(self):
        out = run(GUARDED_CLASS.format(method="""
        def size(self):
            with self._lock:
                return len(self._items)
        """))
        assert out == []

    def test_locked_suffix_method_exempt(self):
        out = run(GUARDED_CLASS.format(method="""
        def size_locked(self):
            return len(self._items)
        """))
        assert out == []

    def test_access_after_with_body_flagged(self):
        """Lexical tracking: the lock is no longer held after the
        ``with`` body ends."""
        out = run(GUARDED_CLASS.format(method="""
        def drain(self):
            with self._lock:
                items = dict(self._items)
            self._items.clear()
            return items
        """))
        assert codes(out) == ["GUARDED-BY"]

    def test_wrong_lock_flagged(self):
        out = run("""
            from repro.common.sync import create_lock


            class Store:
                def __init__(self):
                    self._items = {}  #: guarded_by _lock
                    self._lock = create_lock("a")
                    self._flush_lock = create_lock("b")

                def size(self):
                    with self._flush_lock:
                        return len(self._items)
        """)
        assert codes(out) == ["GUARDED-BY"]

    def test_unannotated_attribute_ignored(self):
        out = run("""
            class Store:
                def __init__(self):
                    self._items = {}

                def size(self):
                    return len(self._items)
        """)
        assert out == []


# --------------------------------------------------------------------- #
# BLOCKING-UNDER-LOCK
# --------------------------------------------------------------------- #
class TestBlockingUnderLock:
    def test_json_dumps_under_lock_flagged(self):
        out = run("""
            import json


            class Store:
                def snapshot(self):
                    with self._lock:
                        return json.dumps(self._items)
        """)
        assert codes(out) == ["BLOCKING-UNDER-LOCK"]

    def test_compress_under_lock_flagged(self):
        out = run("""
            class Log:
                def seal(self, codec):
                    with self._lock:
                        return codec.compress(b"payload")
        """)
        assert codes(out) == ["BLOCKING-UNDER-LOCK"]

    def test_outside_lock_clean(self):
        out = run("""
            import json


            class Store:
                def snapshot(self):
                    with self._lock:
                        items = dict(self._items)
                    return json.dumps(items)
        """)
        assert out == []

    def test_nested_function_body_not_charged_to_lock(self):
        out = run("""
            import json


            class Store:
                def deferred(self):
                    with self._lock:
                        def emit(items):
                            return json.dumps(items)
                        return emit
        """)
        assert out == []

    def test_non_lock_with_not_treated_as_lock(self):
        out = run("""
            import json


            def save(path, items):
                with open(path, "w") as fh:
                    fh.write(json.dumps(items))
        """)
        assert codes(out) == []


# --------------------------------------------------------------------- #
# BARE-ACQUIRE
# --------------------------------------------------------------------- #
class TestBareAcquire:
    def test_manual_acquire_release_flagged(self):
        out = run("""
            class Store:
                def risky(self):
                    self._lock.acquire()
                    try:
                        pass
                    finally:
                        self._lock.release()
        """)
        assert codes(out) == ["BARE-ACQUIRE", "BARE-ACQUIRE"]

    def test_resource_pool_acquire_not_flagged(self):
        """Simulation-kernel resource ops (``kernel.acquire(workers)``)
        are not lock operations."""
        out = run("""
            def stage(kernel, workers):
                yield kernel.acquire(workers)
                yield kernel.release(workers)
        """)
        assert out == []


# --------------------------------------------------------------------- #
# Suppression
# --------------------------------------------------------------------- #
class TestSuppression:
    def test_same_line_ignore_suppresses(self):
        out = run("""
            import time

            def stamp():
                return time.time()  # rationale here.  lint: ignore[RAW-CLOCK]
        """)
        assert out == []

    def test_ignore_for_other_rule_does_not_suppress(self):
        out = run("""
            import time

            def stamp():
                return time.time()  # lint: ignore[BARE-ACQUIRE]
        """)
        assert codes(out) == ["RAW-CLOCK"]

    def test_multi_rule_ignore(self):
        out = run("""
            import time

            def stamp(lock):
                return lock.acquire(), time.time()  # lint: ignore[RAW-CLOCK, BARE-ACQUIRE]
        """)
        assert out == []


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
DIRTY = textwrap.dedent("""
    import time


    def stamp():
        return time.time()
""")

CLEAN = textwrap.dedent("""
    def stamp(clock):
        return clock.now()
""")


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mod.py").write_text(CLEAN)
        assert lint.main(["mod.py"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mod.py").write_text(DIRTY)
        assert lint.main(["mod.py"]) == 1
        out = capsys.readouterr().out
        assert "RAW-CLOCK" in out and "mod.py" in out

    def test_findings_cannot_be_waived_by_flag(self, tmp_path, monkeypatch):
        """Any finding fails the run; no option turns it into a pass."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mod.py").write_text(DIRTY)
        assert lint.main(["mod.py", "--update-baseline"]) == 2
        assert lint.main(["mod.py"]) == 1

    def test_missing_path_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert lint.main(["nope.txt"]) == 2

    def test_repo_tree_is_clean(self, repo_root):
        """The acceptance gate CI runs: ``python -m repro.analysis.lint
        src/`` from the repo root must report zero findings."""
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", "src"],
            cwd=repo_root,
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr


@pytest.fixture
def repo_root():
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    if not (root / "src" / "repro").is_dir():  # pragma: no cover
        pytest.skip("repo layout not available")
    return root


class TestSwallowedError:
    def test_bare_pass_handler_flagged(self):
        violations = run(
            """
            def replicate():
                try:
                    push()
                except Exception:
                    pass
            """
        )
        assert "SWALLOWED-ERROR" in codes(violations)

    def test_continue_only_handler_flagged(self):
        violations = run(
            """
            def drain(items):
                for item in items:
                    try:
                        handle(item)
                    except ValueError:
                        continue
            """
        )
        assert "SWALLOWED-ERROR" in codes(violations)

    def test_message_names_the_caught_type(self):
        violations = run(
            """
            def replicate():
                try:
                    push()
                except (OSError, ValueError):
                    pass
            """
        )
        found = [v for v in violations if v.rule == "SWALLOWED-ERROR"]
        assert len(found) == 1
        assert "(OSError, ValueError)" in found[0].message

    def test_handler_that_acts_is_clean(self):
        violations = run(
            """
            def replicate():
                try:
                    push()
                except ValueError as exc:
                    log(exc)
            """
        )
        assert "SWALLOWED-ERROR" not in codes(violations)

    def test_reraise_is_clean(self):
        violations = run(
            """
            def replicate():
                try:
                    push()
                except ValueError:
                    raise
            """
        )
        assert "SWALLOWED-ERROR" not in codes(violations)

    def test_scope_limited_to_fabric_and_gateway(self):
        snippet = """
            def helper():
                try:
                    work()
                except Exception:
                    pass
            """
        flagged = lint_source(
            textwrap.dedent(snippet), "src/repro/gateway/helper.py"
        )
        unflagged = lint_source(
            textwrap.dedent(snippet), "src/repro/analysis/helper.py"
        )
        assert "SWALLOWED-ERROR" in codes(flagged)
        assert "SWALLOWED-ERROR" not in codes(unflagged)

    def test_inline_ignore_suppresses(self):
        violations = run(
            """
            def replicate():
                try:
                    push()
                except ValueError:  # lint: ignore[SWALLOWED-ERROR]
                    pass
            """
        )
        assert "SWALLOWED-ERROR" not in codes(violations)
