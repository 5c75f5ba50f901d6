"""Tests for the EventBridge-style pattern language."""

from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas.patterns import EventPattern, PatternError, matches_pattern


class TestLiteralMatching:
    def test_paper_listing1_pattern(self):
        """The exact pattern from Listing 1 of the paper."""
        pattern = {"value": {"event_type": ["created"]}}
        assert matches_pattern(pattern, {"value": {"event_type": "created"}})
        assert not matches_pattern(pattern, {"value": {"event_type": "modified"}})
        assert not matches_pattern(pattern, {"value": {}})
        assert not matches_pattern(pattern, {})

    def test_multiple_alternatives(self):
        pattern = {"value": {"event_type": ["created", "closed"]}}
        assert matches_pattern(pattern, {"value": {"event_type": "closed"}})
        assert not matches_pattern(pattern, {"value": {"event_type": "deleted"}})

    def test_empty_or_none_pattern_matches_everything(self):
        assert matches_pattern(None, {"anything": 1})
        assert matches_pattern({}, {"anything": 1})

    def test_top_level_literal(self):
        assert matches_pattern({"topic": ["fsmon"]}, {"topic": "fsmon", "other": 2})

    def test_numbers_and_none_literals(self):
        assert matches_pattern({"n": [3]}, {"n": 3})
        assert not matches_pattern({"n": [3]}, {"n": 4})
        assert matches_pattern({"x": [None]}, {"x": None})

    def test_event_array_values_match_any_element(self):
        pattern = {"tags": ["urgent"]}
        assert matches_pattern(pattern, {"tags": ["routine", "urgent"]})
        assert not matches_pattern(pattern, {"tags": ["routine"]})

    def test_json_string_pattern(self):
        assert matches_pattern('{"value": {"event_type": ["created"]}}',
                               {"value": {"event_type": "created"}})

    def test_invalid_json_string_raises(self):
        with pytest.raises(PatternError):
            matches_pattern("{not json", {})

    def test_non_object_pattern_raises(self):
        with pytest.raises(PatternError):
            matches_pattern(["a"], {})

    def test_scalar_pattern_value_raises(self):
        with pytest.raises(PatternError):
            matches_pattern({"a": "literal-not-in-list"}, {"a": "x"})


class TestContentFilters:
    def test_prefix_and_suffix(self):
        assert matches_pattern({"path": [{"prefix": "/data/"}]}, {"path": "/data/run1.h5"})
        assert not matches_pattern({"path": [{"prefix": "/data/"}]}, {"path": "/tmp/x"})
        assert matches_pattern({"path": [{"suffix": ".h5"}]}, {"path": "/data/run1.h5"})

    def test_numeric_ranges(self):
        pattern = {"power_watts": [{"numeric": [">", 100, "<=", 200]}]}
        assert matches_pattern(pattern, {"power_watts": 150})
        assert matches_pattern(pattern, {"power_watts": 200})
        assert not matches_pattern(pattern, {"power_watts": 100})
        assert not matches_pattern(pattern, {"power_watts": 201})
        assert not matches_pattern(pattern, {"power_watts": "hot"})
        assert not matches_pattern(pattern, {})

    def test_numeric_equality(self):
        assert matches_pattern({"n": [{"numeric": ["=", 5]}]}, {"n": 5})

    def test_numeric_bad_operator(self):
        with pytest.raises(PatternError):
            matches_pattern({"n": [{"numeric": ["~", 5]}]}, {"n": 5})

    def test_numeric_malformed_pairs(self):
        with pytest.raises(PatternError):
            matches_pattern({"n": [{"numeric": [">"]}]}, {"n": 5})

    def test_exists(self):
        assert matches_pattern({"error": [{"exists": True}]}, {"error": "boom"})
        assert not matches_pattern({"error": [{"exists": True}]}, {})
        assert matches_pattern({"error": [{"exists": False}]}, {})
        assert not matches_pattern({"error": [{"exists": False}]}, {"error": None})

    def test_anything_but(self):
        pattern = {"status": [{"anything-but": ["ok", "skipped"]}]}
        assert matches_pattern(pattern, {"status": "failed"})
        assert not matches_pattern(pattern, {"status": "ok"})
        assert not matches_pattern(pattern, {})

    def test_equals_ignore_case(self):
        assert matches_pattern({"site": [{"equals-ignore-case": "ANL"}]}, {"site": "anl"})

    def test_unknown_filter_raises(self):
        with pytest.raises(PatternError):
            matches_pattern({"a": [{"regex": ".*"}]}, {"a": "x"})

    def test_filter_with_multiple_keys_raises(self):
        with pytest.raises(PatternError):
            matches_pattern({"a": [{"prefix": "x", "suffix": "y"}]}, {"a": "x"})

    def test_literal_and_filter_alternatives_combine(self):
        pattern = {"event_type": ["created", {"prefix": "mod"}]}
        assert matches_pattern(pattern, {"event_type": "created"})
        assert matches_pattern(pattern, {"event_type": "modified"})
        assert not matches_pattern(pattern, {"event_type": "deleted"})


class TestNestedPatterns:
    def test_deeply_nested(self):
        pattern = {"value": {"metadata": {"facility": ["aps", "als"]}}}
        event = {"value": {"metadata": {"facility": "aps"}, "other": 1}}
        assert matches_pattern(pattern, event)
        assert not matches_pattern(pattern, {"value": {"metadata": {"facility": "nsls"}}})

    def test_missing_subtree_fails_unless_exists_false(self):
        assert not matches_pattern({"a": {"b": ["x"]}}, {})
        assert matches_pattern({"a": {"b": [{"exists": False}]}}, {})

    def test_multiple_keys_are_anded(self):
        pattern = {"event_type": ["created"], "size": [{"numeric": [">", 0]}]}
        assert matches_pattern(pattern, {"event_type": "created", "size": 10})
        assert not matches_pattern(pattern, {"event_type": "created", "size": 0})


class TestEventPattern:
    def test_compiled_pattern_filter(self):
        pattern = EventPattern({"value": {"event_type": ["created"]}})
        events = [
            {"value": {"event_type": "created", "path": "a"}},
            {"value": {"event_type": "modified", "path": "b"}},
            {"value": {"event_type": "created", "path": "c"}},
        ]
        assert [e["value"]["path"] for e in pattern.filter(events)] == ["a", "c"]

    def test_none_pattern_passes_everything(self):
        pattern = EventPattern(None)
        assert pattern.matches({"x": 1})
        assert pattern.pattern is None

    def test_json_round_trip(self):
        pattern = EventPattern('{"a": [1]}')
        assert pattern.matches({"a": 1})
        assert pattern.to_json() == '{"a": [1]}'

    def test_invalid_pattern_rejected_at_construction(self):
        with pytest.raises(PatternError):
            EventPattern("not json")
        with pytest.raises(PatternError):
            EventPattern(42)


class TestCompileOnce:
    """Malformed filters that hid behind a missing value or a short-circuit
    are in ``tests/core/test_trigger_regressions.py``."""

    def test_numeric_operand_must_be_a_number(self):
        with pytest.raises(PatternError):
            EventPattern({"n": [{"numeric": [">", "5"]}]})

    def test_fields_name_the_top_level_keys(self):
        assert EventPattern({"value": {"a": [1]}, "key": ["k"]}).fields == ("value", "key")
        assert EventPattern(None).fields == ()

    def test_quirks_are_kept(self):
        assert matches_pattern({"n": [1]}, {"n": True})  # True == 1 for literals
        assert not matches_pattern({"n": [{"numeric": [">", 0]}]}, {"n": True})
        assert not matches_pattern({"tags": [{"exists": False}]}, {"tags": []})
        assert matches_pattern({"a": {"b": [{"exists": False}]}}, {"a": "not-an-object"})
        assert not matches_pattern({"a": [1]}, {"a": (1,)})  # a tuple is not an array
        assert matches_pattern({"a": [{"exists": False}]}, None)


# --------------------------------------------------------------------------- #
# The compiled matcher against a reference interpreter
# --------------------------------------------------------------------------- #
_ABSENT = object()


def _reference_filter(spec, value):
    kind, arg = next(iter(spec.items()))
    if kind == "prefix":
        return isinstance(value, str) and value.startswith(str(arg))
    if kind == "suffix":
        return isinstance(value, str) and value.endswith(str(arg))
    if kind == "equals-ignore-case":
        return isinstance(value, str) and value.lower() == str(arg).lower()
    if kind == "exists":
        return (value is not _ABSENT) == bool(arg)
    if kind == "anything-but":
        return value is not _ABSENT and value not in (arg if isinstance(arg, list) else [arg])
    assert kind == "numeric"
    if value is _ABSENT or not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    ops = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b, ">": lambda a, b: a > b,
           ">=": lambda a, b: a >= b, "=": lambda a, b: a == b}
    return all(ops[op](value, operand) for op, operand in zip(arg[0::2], arg[1::2]))


def _reference_leaf(alternatives, value):
    for alternative in alternatives:
        if isinstance(alternative, Mapping):
            if _reference_filter(alternative, value):
                return True
        elif value is not _ABSENT and value == alternative:
            return True
    return False


def reference(pattern, event):
    """A direct interpreter of the pattern language: the compiled matcher's oracle."""
    for key, expected in pattern.items():
        value = event.get(key, _ABSENT) if isinstance(event, Mapping) else _ABSENT
        if isinstance(expected, Mapping):
            if not reference(expected, value if isinstance(value, Mapping) else {}):
                return False
        elif isinstance(value, list):
            if not any(_reference_leaf(expected, item) for item in value):
                return False
        elif not _reference_leaf(expected, value):
            return False
    return True


_keys = st.sampled_from(["a", "b", "c"])
_texts = st.sampled_from(["", "a", "ab", "AB", "b"])
_numbers = st.sampled_from([-1, 0, 1, 2, -1.5, 0.0, 1.0, 2.5])
_scalars = st.one_of(st.none(), st.booleans(), _numbers, _texts)
_numeric_pairs = st.lists(
    st.tuples(st.sampled_from(["<", "<=", ">", ">=", "="]), _numbers), min_size=1, max_size=2
)
_content_filters = st.one_of(
    st.builds(lambda text: {"prefix": text}, _texts),
    st.builds(lambda text: {"suffix": text}, _texts),
    st.builds(lambda text: {"equals-ignore-case": text}, _texts),
    st.builds(lambda wanted: {"exists": wanted}, st.booleans()),
    st.builds(lambda but: {"anything-but": but},
              st.one_of(_scalars, st.lists(_scalars, max_size=3))),
    st.builds(lambda pairs: {"numeric": [x for pair in pairs for x in pair]}, _numeric_pairs),
)
_subpatterns = st.recursive(
    st.lists(st.one_of(_scalars, _content_filters), max_size=3),
    lambda children: st.dictionaries(_keys, children, max_size=3),
    max_leaves=6,
)
_patterns = st.dictionaries(_keys, _subpatterns, max_size=3)
_json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.dictionaries(_keys, children, max_size=3)),
    max_leaves=8,
)
_events = st.dictionaries(_keys, _json_values, max_size=3)


@given(_patterns, _events)
@settings(deadline=None)
def test_compiled_pattern_equals_reference(pattern, event):
    compiled = EventPattern(pattern)
    verdict = compiled.matches(event)
    assert verdict == reference(pattern, event)
    # The poller matches a dict of only the fields the pattern names.
    fields = {name: event[name] for name in compiled.fields if name in event}
    assert compiled.matches(fields) == verdict
