"""Driver and CLI for the fabric-san lint (``python -m repro.analysis.lint``).

Runs the repo-specific AST rules in :mod:`repro.analysis.rules` over a
set of files or directories, applies per-line suppressions, and reports
every remaining finding.  A run fails on any finding, so the tree
stays at zero.

**Suppression** — append ``# lint: ignore[RULE]`` (several rules:
``# lint: ignore[RULE-A,RULE-B]``) to the violating line.  Suppressions
are for deliberate, documented exceptions: pair them with a short
rationale comment.

Exit codes: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.rules import ALL_RULES, FileContext, Violation

_IGNORE_RE = re.compile(r"lint:\s*ignore\[([A-Za-z0-9_,\- ]+)\]")


def _comment_map(source: str) -> Dict[int, str]:
    """Per-line comment text (used for suppressions and guarded_by markers)."""
    comments: Dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except tokenize.TokenError:  # pragma: no cover - unparsable tail
        pass
    return comments


def _suppressed_rules(comment: str) -> Tuple[str, ...]:
    match = _IGNORE_RE.search(comment)
    if match is None:
        return ()
    return tuple(code.strip() for code in match.group(1).split(",") if code.strip())


def lint_source(source: str, path: str) -> List[Violation]:
    """Lint one file's source; ``path`` is the repo-relative posix path.

    Returns the violations that survive per-line suppression, sorted by
    line.  Public so the test suite can lint fixture snippets without
    touching the filesystem.
    """
    tree = ast.parse(source, filename=path)
    comments = _comment_map(source)
    ctx = FileContext(path, source, tree, comments)
    out: List[Violation] = []
    for rule in ALL_RULES:
        for violation in rule.check(ctx):
            if violation.rule in _suppressed_rules(comments.get(violation.line, "")):
                continue
            out.append(violation)
    out.sort(key=lambda v: (v.line, v.rule))
    return out


def _iter_python_files(paths: Sequence[str]) -> Iterable[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path
        else:
            raise FileNotFoundError(f"not a python file or directory: {raw}")


def lint_paths(paths: Sequence[str], root: Optional[Path] = None) -> List[Violation]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    root = root or Path.cwd()
    out: List[Violation] = []
    for file_path in _iter_python_files(paths):
        try:
            rel = file_path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = file_path.as_posix()
        out.extend(lint_source(file_path.read_text(encoding="utf-8"), rel))
    return out


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="fabric-san: concurrency/clock lint for this repo",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        violations = lint_paths(args.paths)
    except (FileNotFoundError, SyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for violation in violations:
        print(violation.render())
    if violations:
        print(f"\nfabric-san: {len(violations)} violation(s).")
        return 1
    print("fabric-san: clean.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
