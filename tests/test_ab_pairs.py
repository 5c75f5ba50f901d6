"""Table arithmetic of ``benchmarks/ab_pairs.py`` on canned result lines.

The script itself (worktree, twenty-odd benchmark runs) is not tier-1; what
it does with the numbers is.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

METRICS = [
    {"name": "delivery_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "produce_events_per_s", "unit": "events/s", "better": "higher", "bound": 0.25},
]


def _line(delivery, produce, failed=0):
    """What ``perf/run.py --trace 0`` prints: a table, then one JSON line."""
    return (
        "# gateway_json_1k  seed=1 scale=1  rounds: 1 warm-up, 2 untraced, 0 traced\n"
        f"delivery_ms_p50            {delivery} ms  [q1 1, q3 2]  n=2 rounds\n"
        + json.dumps({
            "correct": True, "attempted": 6303, "failed": failed,
            "metrics": {
                "delivery_ms_p50": {"value": delivery, "unit": "ms"},
                "produce_events_per_s": {"value": produce, "unit": "events/s"},
            },
        })
        + "\n"
    )


def _samples(lines):
    samples = {"gateway_json_1k": {m["name"]: [] for m in METRICS}}
    for line in lines:
        for name, value in ab_pairs.parse_result(line)["metrics"].items():
            samples["gateway_json_1k"][name].append(value)
    return samples


def test_parse_result_reads_the_last_json_line():
    parsed = ab_pairs.parse_result(_line(88.05, 1505.0, failed=2))
    assert parsed == {
        "failed": 2,
        "metrics": {"delivery_ms_p50": 88.05, "produce_events_per_s": 1505.0},
    }
    with pytest.raises(ValueError):
        ab_pairs.parse_result("Traceback (most recent call last):\n")


def test_quartiles():
    assert ab_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)


def test_a_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_parents_spread():
    parent = _samples(_line(88.0 + 0.01 * i, 1500.0 + i) for i in range(10))
    change = _samples(_line(1.0 + 0.01 * i, 1499.0 + 2 * i) for i in range(10))
    delivery, produce = ab_pairs.summarize(parent, change, METRICS)
    assert (delivery["workload"], delivery["metric"]) == ("gateway_json_1k", "delivery_ms_p50")
    assert delivery["parent"]["median"] == pytest.approx(88.045)
    assert delivery["change"]["median"] == pytest.approx(1.045)
    assert delivery["delta"] == pytest.approx((88.045 - 1.045) / 88.045)  # lower is better
    assert (delivery["won"], delivery["pairs"], delivery["verdict"]) == (10, 10, "better")
    # Pair 0 lost, pair 1 tied (a tie counts for neither), 8 won: not nine tenths.
    assert (produce["won"], produce["verdict"]) == (8, "same")


def test_worse_is_judged_against_the_bound_and_noise_is_unresolved():
    parent = _samples(_line(1.0, 1000.0 + 600.0 * (i % 2)) for i in range(10))
    change = _samples(_line(1.3, 1290.0) for i in range(10))
    delivery, produce = ab_pairs.summarize(parent, change, METRICS)
    assert delivery["delta"] == pytest.approx(-0.3)
    assert (delivery["won"], delivery["verdict"]) == (0, "WORSE")
    # Parent quartiles 1000 and 1600 around a median of 1300: wider than 25 %.
    assert produce["verdict"] == "unresolved"


def test_render_and_trajectory_rows():
    parent = _samples(_line(88.0, 1500.0) for _ in range(4))
    change = _samples(_line(1.1, 30000.0) for _ in range(4))
    rows = ab_pairs.summarize(parent, change, METRICS)
    anchor = ab_pairs.trajectory_row("abc123", "parent", rows, {"anchor": True})
    assert anchor["medians"]["gateway_json_1k"]["delivery_ms_p50"] == {
        "median": 88.0, "q1": 88.0, "q3": 88.0
    }
    table = ab_pairs.render(rows, anchor).splitlines()
    assert len(table) == 3 and table[0].endswith("vs anchor")
    assert "4/4" in table[1] and "better" in table[1] and table[1].endswith("0.013x")
    assert "vs anchor" not in ab_pairs.render(rows, None)
