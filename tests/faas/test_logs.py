"""Invocation metrics without numpy: same numbers, no import-time cost."""

import os
import subprocess
import sys

import numpy as np
from hypothesis import given, strategies as st

import repro
from repro.faas.logs import LogService, percentile

durations = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)


@given(durations, st.floats(min_value=0.0, max_value=100.0))
def test_percentile_is_numpys_default_definition(values, q):
    expected = float(np.percentile(values, q))
    assert abs(percentile(sorted(values), q) - expected) <= 1e-12 * max(1.0, expected)


@given(durations)
def test_metrics_report_what_numpy_reported(values):
    logs = LogService()
    for index, value in enumerate(values):
        logs.record_invocation("fn", value, error=index % 3 == 0)
    metrics = logs.metrics("fn")
    assert metrics["invocations"] == len(values)
    assert metrics["errors"] == len(values[::3])
    for name, expected in (
        ("duration_mean_s", np.mean(values)),
        ("duration_p50_s", np.percentile(values, 50)),
        ("duration_p99_s", np.percentile(values, 99)),
    ):
        assert abs(metrics[name] - float(expected)) <= 1e-12 * max(1.0, float(expected))


def test_a_function_never_invoked_reports_zeros():
    assert LogService().metrics("ghost") == {
        "invocations": 0,
        "errors": 0,
        "duration_mean_s": 0.0,
        "duration_p50_s": 0.0,
        "duration_p99_s": 0.0,
    }


def test_the_fabric_gateway_and_trigger_substrate_import_without_numpy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.fabric, repro.gateway, repro.faas; "
            "sys.exit('numpy' in sys.modules)",
        ],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
