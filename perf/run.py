#!/usr/bin/env python3
"""The Octopus end-to-end benchmark: one command, six workloads.

One workload, as the benchmark contract calls it (one JSON object on the
last line of standard output)::

    python3 perf/run.py --workload sdk_1k_all --seed 7 --seconds 12 --trace 0

Everything — each workload in its own fresh subprocess, an untraced pass
for the end-to-end metrics and a traced pass for the per-layer ones,
``--runs`` times with consecutive seeds — written to ``perf/out/``::

    python3 perf/run.py [--seed N] [--runs R] [--seconds S] [--scale F] [--out FILE]

Two such result sets side by side, against the bounds of ``BENCHMARK.json``::

    python3 perf/run.py --compare A.json B.json

The benchmark claims no gain; it is the yardstick later changes cite.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

_started = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{__file__}: the program under test (src/repro) is not next to perf/")
# The script's own directory would shadow the standard library's ``trace``.
sys.path[0] = str(ROOT)
sys.path.insert(0, str(ROOT / "src"))

from perf.layers import PER_LAYER, layer_seconds, per_layer, span_problems  # noqa: E402
from perf.stats import percentile, quartiles, spread  # noqa: E402
from perf.trace import Tracer, install  # noqa: E402
from perf.workloads import WORKLOADS, Round, Workload  # noqa: E402

IMPORT_S = time.perf_counter() - _started
OUT = HERE / "out"

#: ``name -> (unit, better)`` of the end-to-end metrics; ``BENCHMARK.json``
#: repeats them with their bounds and the smoke test holds the two equal.
END_TO_END = {
    "produce_events_per_s": ("events/s", "higher"),
    "consume_events_per_s": ("events/s", "higher"),
    "delivery_ms_p50": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
#: Timed rounds a run needs before the clock may end it.
MIN_ROUNDS = 2


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------- #
# One workload, in this process
# ---------------------------------------------------------------------- #
def run_rounds(workload: Workload, seconds: float, trace: bool):
    """A warm-up round, then timed rounds until ``seconds`` are used up.

    Round sizes are fixed; only their number follows the clock.  With
    ``trace`` the rounds alternate traced / untraced in one process, so the
    tracing overhead is measured under the same conditions as the spans.
    """
    tracer = Tracer() if trace else None
    missing: List[str] = []
    began = time.perf_counter()
    warm_up = workload.round(0)
    longest = time.perf_counter() - began
    traced: List[Round] = []
    untraced: List[Round] = []
    while True:
        done = len(traced) + len(untraced)
        if done >= MIN_ROUNDS and time.perf_counter() - began + longest > seconds:
            break
        gc.collect()
        round_began = time.perf_counter()
        if trace and len(traced) <= len(untraced):
            installed = install(tracer)
            workload.tracer = tracer
            try:
                traced.append(workload.round(done + 1))
            finally:
                workload.tracer = None
                installed.remove()
            missing = installed.missing
        else:
            untraced.append(workload.round(done + 1))
        longest = max(longest, time.perf_counter() - round_began)
    return warm_up, traced, untraced, tracer, missing


def end_to_end(rounds: List[Round], once_s: float) -> Dict[str, dict]:
    """End-to-end metrics of the untraced rounds, each with its quartiles and
    sample count.  Every one is a median over rounds — of the round's rate,
    or of the round's own p50 latency — because what disturbs a shared box
    (a neighbour, a frequency step) slows a whole round, and a median over
    rounds forgets a slow round where a pool of all units would not."""

    def over_rounds(values: List[float], kind: str) -> dict:
        q1, median, q3 = quartiles(values)
        return {"value": median, "q1": q1, "q3": q3, "n": len(values), "of": kind}

    def p50_ms(kind: str) -> dict:
        samples = sum(len(r.latencies(kind)) for r in rounds)
        return over_rounds(
            [percentile(r.latencies(kind), 0.5) * 1e3 for r in rounds],
            f"rounds ({samples} {kind} units)",
        )

    metrics = {
        "produce_events_per_s": over_rounds(
            [r.produced / r.produce_s for r in rounds], "rounds"),
        "consume_events_per_s": over_rounds(
            [r.consumed / r.consume_s for r in rounds], "rounds"),
        "delivery_ms_p50": p50_ms("delivery"),
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "n": 1, "of": "process",
        },
        # Imports and the payload pool happen once (``once_s``); everything
        # else (events, cluster, topic, clients, server) every round.
        "setup_s": over_rounds([once_s + r.setup_s for r in rounds], "rounds"),
    }
    for name, (unit, _) in END_TO_END.items():
        metrics[name]["unit"] = unit
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float) -> int:
    workload = WORKLOADS[name](seed, scale)
    once_s = time.perf_counter() - _started
    warm_up, traced, untraced, tracer, missing = run_rounds(workload, seconds, trace)
    rounds = [warm_up] + traced + untraced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [problem for r in rounds for problem in r.problems]
    if trace:
        problems += span_problems(name, tracer, missing)
        layers = per_layer(workload, tracer, traced, untraced, missing, IMPORT_S)
        if workload.phases != ("paced",) and abs(layers["driver.coverage_ratio"] - 1) > 0.02:
            problems.append(
                f"layer self times cover {layers['driver.coverage_ratio']:.3f} of the pipeline"
            )
        attempted += len(PER_LAYER)
        failed += len(problems) - sum(len(r.problems) for r in rounds)
        metrics = {
            metric: {"value": value, "unit": PER_LAYER[metric]}
            for metric, value in layers.items()
        }
        OUT.mkdir(exist_ok=True)
        tracer.dump(
            OUT / f"trace_{name}.json",
            {"workload": name, "seed": seed, "scale": scale, "unwrapped": missing},
            [
                (start, end, f"r{r.index}/{phase}/{at}")
                for r in traced
                for phase, units in (("produce", r.produce_units), ("consume", r.consume_units))
                for at, (start, end) in enumerate(units)
            ],
        )
    else:
        metrics = end_to_end(untraced, once_s)

    print(f"# {name}  seed={seed} scale={scale:g}  rounds: 1 warm-up, "
          f"{len(untraced)} untraced, {len(traced)} traced")
    if name.startswith("gateway"):
        print("# traffic crosses the host loopback (127.0.0.1), not a real link; "
              "client socket: keep-alive, TCP_NODELAY")
    if trace:
        seconds = layer_seconds(tracer, workload.phases)
        print("# share of the traced pipeline by layer: " + ", ".join(
            f"{layer} {share / sum(seconds.values()):.1%}" for layer, share in seconds.items()
        ))
    for metric, entry in metrics.items():
        detail = ""
        if "q1" in entry:
            detail = f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}]"
        if "n" in entry:
            detail += f"  n={entry['n']} {entry['of']}"
        print(f"{metric:48s} {entry['value']:>14.6g} {entry['unit']}{detail}")
    for problem in problems:
        print(f"! {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": entry["value"], "unit": entry["unit"]}
            for metric, entry in metrics.items()
        },
    }))
    return 0 if correct else 1


# ---------------------------------------------------------------------- #
# Every workload, each in its own subprocess
# ---------------------------------------------------------------------- #
def fingerprint(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": args.seed,
        "runs": args.runs,
        "seconds": args.seconds,
        "scale": args.scale,
    }


def run_child(name: str, seed: int, args, trace: int) -> dict:
    """One workload run in a fresh interpreter; its last output line, parsed."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
        "--scale", str(args.scale),
    ]
    child = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = child.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(child.stdout + child.stderr)
        raise SystemExit(f"{name} (trace {trace}) printed no result, exit {child.returncode}")
    result["problems"] = [line[2:] for line in lines if line.startswith("! ")]
    return result


def run_all(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    results: Dict[str, dict] = {}
    bad = 0
    for name in names:
        entry = {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0, "problems": []}
        for run in range(args.runs):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                result = run_child(name, args.seed + run, args, trace)
                for metric, measured in result["metrics"].items():
                    slot = entry[section].setdefault(
                        metric, {"unit": measured["unit"], "values": []})
                    slot["values"].append(measured["value"])
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["problems"] += result["problems"]
                bad += not result["correct"]
        results[name] = entry
        print(f"\n== {name}: failed_ops_ratio "
              f"{entry['failed'] / entry['attempted']:.6g} "
              f"({entry['failed']} of {entry['attempted']}), {args.runs} runs")
        for section in ("end_to_end", "per_layer"):
            for metric, slot in entry[section].items():
                q1, median, q3 = quartiles(slot["values"])
                print(f"{metric:48s} {median:>14.6g} {slot['unit']:9s}"
                      f"[q1 {q1:.6g}, q3 {q3:.6g}]  n={len(slot['values'])} runs")
        for problem in entry["problems"]:
            print(f"! {problem}")
    document = {
        "fingerprint": fingerprint(args),
        "note": "gateway workloads cross the host loopback, not a real link",
        "workloads": results,
        "claim": None,
    }
    out = Path(args.out) if args.out else OUT / f"results_seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"\nresults written to {out}")
    print(json.dumps({"fingerprint": document["fingerprint"], "incorrect_runs": bad,
                      "claim": None}))
    return 1 if bad else 0


# ---------------------------------------------------------------------- #
# Two result sets against the bounds
# ---------------------------------------------------------------------- #
def compare(path_a: str, path_b: str) -> int:
    """Each (workload, end-to-end metric) row of B against A.

    ``worse`` is B's median beyond A's by more than the metric's bound in
    its bad direction.  A row whose run-to-run quartile spread, on either
    side, is wider than the bound cannot support "unchanged": it reads
    ``unresolved``.  Exit code 1 on any row that is worse.
    """
    bounds = {metric["name"]: metric for metric in benchmark_json()["end_to_end"]}
    sets = [json.loads(Path(path).read_text(encoding="utf-8")) for path in (path_a, path_b)]
    worse = 0
    print(f"{'workload':18s} {'metric':22s} {'A median':>12s} {'B median':>12s} "
          f"{'B vs A':>8s} {'bound':>6s}  verdict")
    for name, entry_a in sets[0]["workloads"].items():
        entry_b = sets[1]["workloads"].get(name)
        if entry_b is None:
            continue
        for metric, slot_a in entry_a["end_to_end"].items():
            slot_b = entry_b["end_to_end"].get(metric)
            if slot_b is None or metric not in bounds:
                continue
            bound = bounds[metric]["bound"]
            median_a = quartiles(slot_a["values"])[1]
            median_b = quartiles(slot_b["values"])[1]
            change = (median_b - median_a) / median_a
            harm = -change if bounds[metric]["better"] == "higher" else change
            widest = max(spread(slot_a["values"]), spread(slot_b["values"]))
            if harm > bound:
                verdict = "WORSE"
                worse += 1
            elif widest > bound:
                verdict = f"unresolved (spread {widest:.1%})"
            elif harm < -bound:
                verdict = "better"
            else:
                verdict = "unchanged"
            print(f"{name:18s} {metric:22s} {median_a:>12.5g} {median_b:>12.5g} "
                  f"{change:>+8.1%} {bound:>6.0%}  {verdict}")
        for side, entry in (("A", entry_a), ("B", entry_b)):
            if entry["failed"]:
                print(f"{name:18s} {side}: {entry['failed']} of {entry['attempted']} "
                      "operations failed  WORSE")
                worse += 1
    print(f"{worse} rows out of bound")
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run one workload here: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every round's event count (the smoke test uses 0.01)")
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per workload and pass, on seeds seed..seed+runs-1")
    parser.add_argument("--out", help="result file (default perf/out/results_seed<N>.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = benchmark_json()["run_seconds"]
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace 0|1 runs one workload: give --workload")
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
