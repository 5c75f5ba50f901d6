"""The lint rules: repo-specific concurrency and clock conventions.

Each rule is a small object with a ``code`` (what appears in reports and
in ``# lint: ignore[CODE]`` suppressions) and a ``check(ctx)`` method
yielding :class:`Violation` objects for one parsed file.  Rules operate
on a shared :class:`FileContext` carrying the AST, the per-line comment
map (for the ``guarded_by`` annotations) and the import-alias table.

The rules:

``RAW-CLOCK``
    No ``time.time()`` / ``time.sleep()`` / ``datetime.now()`` (calls
    *or* bare references, which catches ``sleep_fn=time.sleep``
    defaults) outside ``common/clock.py``.  Components that care about
    time accept the injectable :class:`~repro.common.clock.Clock` so
    frozen-clock tests and the simulation harness see deterministic
    time.

``GUARDED-BY``
    An attribute assigned in ``__init__``/``__post_init__`` on a line
    annotated ``#: guarded_by <lock>`` may only be touched lexically
    inside ``with self.<lock>:`` in other methods.  Methods whose name
    ends in ``_locked`` are exempt by convention — they document that
    the caller already holds the lock.

``BLOCKING-UNDER-LOCK``
    No lexically-in-lock-body calls to sleeps, waits, codec
    compress/decompress or JSON encode/decode — the classic throughput
    killers on hot paths.  A ``with`` whose context expression's name
    ends in ``lock`` is treated as a lock body.

``BARE-ACQUIRE``
    No manual ``.acquire()`` / ``.release()``: ``with`` blocks cannot
    leak a lock on an exception path, and they are what the
    :mod:`repro.common.sync` sanitizer instruments.

``SWALLOWED-ERROR``
    No ``except`` handler whose body only passes/continues in the fault
    paths (:data:`SWALLOWED_ERROR_PATHS`: the fabric and the gateway).
    A silently-dropped error in replication or request handling is how
    data loss hides; handle it, re-raise it, or annotate the swallow
    with ``# lint: ignore[SWALLOWED-ERROR]`` plus a rationale.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set

#: Dotted names whose use outside ``common/clock.py`` violates RAW-CLOCK.
RAW_CLOCK_BANNED = {
    "time.time",
    "time.sleep",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Files allowed to touch the raw clock: the Clock implementation itself.
RAW_CLOCK_EXEMPT_SUFFIXES = ("common/clock.py",)

#: Method-name suffix marking "caller holds the lock" helpers (GUARDED-BY).
LOCK_HELD_SUFFIX = "_locked"

#: Attribute names whose calls block (BLOCKING-UNDER-LOCK), any receiver.
BLOCKING_ATTRS = {"sleep", "wait", "compress", "decompress"}

#: Fully-qualified blocking calls (BLOCKING-UNDER-LOCK).
BLOCKING_QUALIFIED = {"time.sleep", "json.dumps", "json.loads"}

#: Builtin calls that block (BLOCKING-UNDER-LOCK).
BLOCKING_BUILTINS = {"open"}

_GUARDED_BY_RE = re.compile(r"#:?\s*guarded_by\s+([A-Za-z_]\w*)")


@dataclass(frozen=True)
class Violation:
    """One finding: rule code, repo-relative path, line, stable message.

    ``message`` deliberately carries no line number — the baseline keys
    on ``(path, rule, message)`` with a count, so findings survive
    unrelated line drift and the committed debt can only be paid down,
    never silently renumbered.
    """

    rule: str
    path: str
    line: int
    message: str

    @property
    def baseline_key(self) -> str:
        return f"{self.path}::{self.rule}::{self.message}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class FileContext:
    """Everything the rules need to know about one source file."""

    def __init__(self, path: str, source: str, tree: ast.AST,
                 comments: Dict[int, str]) -> None:
        self.path = path  # repo-relative, posix separators
        self.source = source
        self.tree = tree
        self.comments = comments
        self.import_aliases = _collect_import_aliases(tree)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name of an expression, with import aliases expanded."""
        dotted = _dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        origin = self.import_aliases.get(head)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin


def _dotted_name(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _collect_import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the dotted origin they were imported as."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                origin = alias.name if alias.asname else alias.name.partition(".")[0]
                aliases[local] = origin
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _with_lock_names(node: ast.With) -> List[str]:
    """Lock-ish names taken by a ``with`` statement's context managers."""
    names = []
    for item in node.items:
        dotted = _dotted_name(item.context_expr)
        if dotted is None and isinstance(item.context_expr, ast.Call):
            dotted = _dotted_name(item.context_expr.func)
        if dotted and dotted.lower().endswith("lock"):
            names.append(dotted.rsplit(".", 1)[-1])
    return names


class RawClockRule:
    code = "RAW-CLOCK"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.path.endswith(RAW_CLOCK_EXEMPT_SUFFIXES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            resolved = ctx.resolve(node)
            if resolved in RAW_CLOCK_BANNED:
                # Flag the outermost matching expression once: a Name
                # inside a flagged Attribute resolves to its module
                # prefix, never to a banned entry, so no double counting.
                yield Violation(
                    self.code, ctx.path, node.lineno,
                    f"{resolved} bypasses the injectable Clock "
                    f"(thread repro.common.clock.Clock through instead)",
                )


class GuardedByRule:
    code = "GUARDED-BY"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> Iterator[Violation]:
        init_names = ("__init__", "__post_init__")
        guarded: Dict[str, str] = {}
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                stmt.name in init_names
            ):
                for sub in ast.walk(stmt):
                    if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                        targets = (
                            sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                        )
                        marker = _GUARDED_BY_RE.search(ctx.comments.get(sub.lineno, ""))
                        if marker is None:
                            continue
                        for target in targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                guarded[target.attr] = marker.group(1)
        if not guarded:
            return
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name in init_names or stmt.name.endswith(LOCK_HELD_SUFFIX):
                continue
            yield from self._scan_method(ctx, stmt, guarded)

    def _scan_method(
        self, ctx: FileContext, method: ast.AST, guarded: Dict[str, str]
    ) -> Iterator[Violation]:
        violations: List[Violation] = []

        def visit(node: ast.AST, held: Set[str]) -> None:
            if isinstance(node, ast.With):
                inner = held | set(_with_lock_names(node))
                for item in node.items:
                    visit(item.context_expr, held)
                for child in node.body:
                    visit(child, inner)
                return
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in guarded
                and guarded[node.attr] not in held
            ):
                violations.append(
                    Violation(
                        self.code, ctx.path, node.lineno,
                        f"self.{node.attr} accessed outside "
                        f"'with self.{guarded[node.attr]}' "
                        f"(declared guarded_by {guarded[node.attr]})",
                    )
                )
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for child in ast.iter_child_nodes(method):
            visit(child, set())
        yield from violations


class BlockingUnderLockRule:
    code = "BLOCKING-UNDER-LOCK"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        violations: List[Violation] = []

        def scan_body(node: ast.AST, lock_name: str) -> None:
            # Nested function bodies run at call time, not under this
            # lock; their own call sites are checked where they appear.
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return
            if isinstance(node, ast.Call):
                label = self._blocking_label(ctx, node)
                if label is not None:
                    violations.append(
                        Violation(
                            self.code, ctx.path, node.lineno,
                            f"blocking call {label} inside 'with {lock_name}' body "
                            f"(move it outside the lock)",
                        )
                    )
            for child in ast.iter_child_nodes(node):
                scan_body(child, lock_name)

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.With):
                locks = _with_lock_names(node)
                if locks:
                    for child in node.body:
                        scan_body(child, locks[0])
        yield from violations

    @staticmethod
    def _blocking_label(ctx: FileContext, call: ast.Call) -> Optional[str]:
        func = call.func
        resolved = ctx.resolve(func)
        if resolved in BLOCKING_QUALIFIED:
            return f"{resolved}()"
        if isinstance(func, ast.Attribute) and func.attr in BLOCKING_ATTRS:
            return f".{func.attr}()"
        if isinstance(func, ast.Name) and func.id in BLOCKING_BUILTINS:
            return f"{func.id}()"
        return None


class BareAcquireRule:
    code = "BARE-ACQUIRE"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("acquire", "release")
                and self._lockish(node)
            ):
                yield Violation(
                    self.code, ctx.path, node.lineno,
                    f"manual .{node.func.attr}() — use 'with' so the lock "
                    f"cannot leak on an exception path",
                )

    @staticmethod
    def _lockish(call: ast.Call) -> bool:
        """Lock-style acquire/release, not e.g. a resource-pool acquire.

        A lock's acquire/release take no positional payload; anything
        whose receiver name says lock/mutex/semaphore is flagged
        regardless (even ``lock.acquire(timeout=...)``).
        """
        receiver = _dotted_name(call.func.value)
        if receiver is not None:
            tail = receiver.rsplit(".", 1)[-1].lower()
            if any(hint in tail for hint in ("lock", "mutex", "sem", "cond")):
                return True
        return not call.args


#: Path prefixes (repo-relative, posix) where SWALLOWED-ERROR applies:
#: the subsystems whose dropped errors can hide data loss.
SWALLOWED_ERROR_PATHS = ("src/repro/fabric/", "src/repro/gateway/")


class SwallowedErrorRule:
    code = "SWALLOWED-ERROR"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.path.startswith(SWALLOWED_ERROR_PATHS):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and self._swallows(node):
                caught = (
                    ast.unparse(node.type) if node.type is not None else "Exception"
                )
                yield Violation(
                    self.code, ctx.path, node.lineno,
                    f"except {caught} swallows the error (body is only "
                    f"pass/continue) — handle, re-raise, or annotate why",
                )

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        """True when every statement in the handler body is a no-op."""
        for stmt in handler.body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring / Ellipsis
            return False
        return True


#: The rule set the driver runs, in report order.
ALL_RULES = (
    RawClockRule(),
    GuardedByRule(),
    BlockingUnderLockRule(),
    BareAcquireRule(),
    SwallowedErrorRule(),
)

RULE_CODES = tuple(rule.code for rule in ALL_RULES)
