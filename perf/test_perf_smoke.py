"""Smoke test of the benchmark: schema, metric names and correctness checks.

Every workload runs untraced and traced at ``--scale 0.01`` for a fraction
of a second.  Nothing here looks at a time: the test may run inside the tier-1
command on a busy runner and must not care how fast anything was.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_its_metrics_and_passes_its_checks(workload, trace):
    done = run("--workload", workload, "--seed", "3", "--seconds", "0.2",
               "--trace", trace, "--scale", "0.01")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace == "1":
        spans = json.loads((HERE / "out" / f"trace_{workload}.json").read_text())
        assert spans["spans"] and spans["unwrapped"] == []


def test_benchmark_json_repeats_the_names_the_code_reports():
    sys.path.insert(0, str(HERE.parent))
    try:
        from perf.layers import HIGHER_IS_BETTER, PER_LAYER
    finally:
        sys.path.pop(0)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER.items())
    assert {m["name"] for m in BENCHMARK["per_layer"] if m["better"] == "higher"} == set(
        HIGHER_IS_BETTER
    )
    assert "setup_s" in {metric["name"] for metric in BENCHMARK["end_to_end"]}
    assert BENCHMARK["paths"] == ["perf"]


def test_compare_accepts_a_result_set_against_itself(tmp_path):
    out = tmp_path / "set.json"
    done = run("--workload", "sdk_32b_acks1", "--seconds", "0.2", "--scale", "0.01",
               "--runs", "2", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    document = json.loads(out.read_text())
    assert list(document)[-1] == "claim" and document["claim"] is None
    same = run("--compare", str(out), str(out))
    assert same.returncode == 0, same.stdout + same.stderr
    assert "0 rows out of bound" in same.stdout
