"""EventBridge-compatible event pattern matching.

Octopus triggers accept an optional filter expressed in the Amazon
EventBridge pattern language (Listing 1 of the paper shows the pattern
``{"value": {"event_type": ["created"]}}`` used by the data-automation
application).  A pattern is a JSON object mirroring the event's structure;
leaf values are lists of alternatives, where each alternative is either a
literal or a *content filter* such as ``{"prefix": ...}``,
``{"numeric": [">", 0, "<=", 100]}``, ``{"exists": true}`` or
``{"anything-but": [...]}``.  An event matches when every key in the
pattern matches; keys absent from the pattern are unconstrained.

A pattern is compiled once: :class:`EventPattern` validates all of it and
raises every :class:`PatternError` at construction, so a malformed filter is
refused when its trigger is registered.  Matching takes JSON-shaped events
and never raises.
"""

from __future__ import annotations

import json
import operator
from typing import Any, Callable, List, Mapping, Sequence, Tuple, Union

__all__ = ["EventPattern", "PatternError", "matches_pattern"]


class PatternError(ValueError):
    """The pattern is structurally invalid."""


_NUMERIC_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
                "=": operator.eq}

#: The value a compiled test receives for a key absent from the event.
_MISSING = object()

#: A compiled test of one event value (``_MISSING`` included).
Test = Callable[[Any], bool]


def _numeric(arg: Any) -> Test:
    if not isinstance(arg, (list, tuple)) or not arg or len(arg) % 2:
        raise PatternError(f"numeric filter needs op/operand pairs: {arg!r}")
    bounds = []
    for op, operand in zip(arg[0::2], arg[1::2]):
        if not isinstance(op, str) or op not in _NUMERIC_OPS:
            raise PatternError(f"unknown numeric operator {op!r}")
        if not isinstance(operand, (int, float)):
            raise PatternError(f"numeric operand must be a number: {operand!r}")
        bounds.append((_NUMERIC_OPS[op], operand))

    def numeric(value: Any) -> bool:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return all(compare(value, operand) for compare, operand in bounds)

    return numeric


def _content_filter(spec: Mapping[str, Any]) -> Test:
    if len(spec) != 1:
        raise PatternError(f"content filter must have exactly one key: {spec!r}")
    ((kind, arg),) = spec.items()
    if kind == "prefix":
        prefix = str(arg)
        return lambda value: isinstance(value, str) and value.startswith(prefix)
    if kind == "suffix":
        suffix = str(arg)
        return lambda value: isinstance(value, str) and value.endswith(suffix)
    if kind == "equals-ignore-case":
        folded = str(arg).lower()
        return lambda value: isinstance(value, str) and value.lower() == folded
    if kind == "exists":
        wanted = bool(arg)
        return lambda value: (value is not _MISSING) == wanted
    if kind == "anything-but":
        excluded = arg if isinstance(arg, list) else [arg]
        return lambda value: value is not _MISSING and value not in excluded
    if kind == "numeric":
        return _numeric(arg)
    raise PatternError(f"unknown content filter {kind!r}")


def _leaf(alternatives: List[Any]) -> Test:
    """Literals, then content filters; an event array matches if any element does."""
    # Without literals unequal to themselves (NaN, never matched), ``in`` is
    # ``==``; no literal equals ``_MISSING``.
    literals = [alt for alt in alternatives if not isinstance(alt, Mapping) and alt == alt]
    filters = [_content_filter(alt) for alt in alternatives if isinstance(alt, Mapping)]

    def leaf(value: Any) -> bool:
        return value in literals or any(test(value) for test in filters)

    match_value = leaf if filters else literals.__contains__

    def field(value: Any) -> bool:
        if isinstance(value, list):
            return any(map(match_value, value))
        return match_value(value)

    return field


def _node(pattern: Mapping[str, Any]) -> Test:
    """An object pattern ANDs its keys; anything but a dict is matched as ``{}``."""
    tests = []
    for key, expected in pattern.items():
        if isinstance(expected, Mapping):
            tests.append((key, _node(expected)))
        elif isinstance(expected, list):
            tests.append((key, _leaf(expected)))
        else:
            raise PatternError(f"pattern values must be lists or nested objects, "
                               f"got {expected!r} for {key!r}")
    empty = all(test(_MISSING) for _, test in tests)

    def node(event: Any) -> bool:
        if not isinstance(event, dict):
            return empty
        for key, test in tests:
            if not test(event.get(key, _MISSING)):
                return False
        return True

    return node


def matches_pattern(pattern: Union[str, Mapping[str, Any], None], event: Mapping[str, Any]) -> bool:
    """One-shot :meth:`EventPattern.matches`; ``None``/empty matches everything."""
    return EventPattern(pattern).matches(event)


class EventPattern:
    """A pattern compiled once, with every error raised at construction."""

    def __init__(self, pattern: Union[str, Mapping[str, Any], None]) -> None:
        if isinstance(pattern, str):
            try:
                pattern = json.loads(pattern)
            except json.JSONDecodeError as exc:
                raise PatternError(f"pattern is not valid JSON: {exc}") from exc
        if pattern is not None and not isinstance(pattern, Mapping):
            raise PatternError("pattern must be a JSON object or None")
        self._pattern = dict(pattern) if pattern else None
        #: The top-level event fields the pattern reads.
        self.fields: Tuple[str, ...] = tuple(self._pattern or ())
        self._match = _node(self._pattern or {})

    @property
    def pattern(self) -> Union[Mapping[str, Any], None]:
        return self._pattern

    def matches(self, event: Mapping[str, Any]) -> bool:
        return self._match(event)

    def filter(self, events: Sequence[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
        return [event for event in events if self.matches(event)]

    def to_json(self) -> str:
        return json.dumps(self._pattern or {}, sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventPattern({self.to_json()})"
