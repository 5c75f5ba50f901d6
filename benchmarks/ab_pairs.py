#!/usr/bin/env python3
"""Paired A/B runs of ``perf/run.py``: this checkout against another revision.

The yardstick (``perf/``, ``BENCHMARK.json``) measures one checkout.  A
change that cites it needs the same workloads on its parent, run in turns
on the same machine, and the table every perf entry of ``CHANGES.md`` has
so far been assembled by hand from.  This script does that and nothing
else; it shells out to ``python3 perf/run.py`` and imports none of it::

    python3 benchmarks/ab_pairs.py --against HEAD~1 --pairs 10 \\
        [--workload gateway_json_1k ...] [--seconds 15] [--seed 1]

``--against`` is checked out into a temporary ``git worktree`` (removed
afterwards, also on failure).  Pair *i* runs every workload on seed
``--seed + i`` with ``--trace 0`` on both sides, the side that goes first
flipping each pair; one ``--trace 1`` pass per side follows, of which only
the exit code and failed-operation count are kept (a traced run that fails
its own checks is a rejected change, whatever the medians say).  The table
gives, per workload and end-to-end metric, each side's median and
quartiles, the change of the median, how many pairs this checkout won
(ties count for neither) and a verdict against the bound ``BENCHMARK.json``
fixes for that metric.

One row per invocation (commit, environment fingerprint, medians and
quartiles) is appended to the tracked ``BENCH_perf.json``.  The first row
of that file is the anchor: the ``--against`` side of the run that created
it.  Later runs print their medians against it as well, so that a metric
creeping "inside the bound" of every parent shows as what it adds up to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_perf.json"

#: ``{workload: {metric: [value per pair]}}`` of one side.
Samples = Dict[str, Dict[str, List[float]]]


# ---------------------------------------------------------------------- #
# Arithmetic (unit-tested on canned result lines)
# ---------------------------------------------------------------------- #
def parse_result(stdout: str) -> dict:
    """The JSON object ``perf/run.py`` prints on its last line."""
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    if not lines:
        raise ValueError("no result line in the output of perf/run.py")
    result = json.loads(lines[-1])
    return {
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: Samples, change: Samples, metrics: Sequence[dict]) -> List[dict]:
    """One row per workload and end-to-end metric.

    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``
    (``name``, ``better``, ``bound``).  ``delta`` is the change of the
    median relative to the parent's, signed so that positive is better.
    Verdicts: ``better`` when this checkout won at least nine tenths of the
    pairs and the medians differ by more than the parent's own quartile
    distance; ``WORSE`` when its median is worse than the parent's by more
    than the bound; ``unresolved`` when neither holds but the parent's runs
    spread wider than the bound, so that the bound could not have been
    seen; else ``same``.
    """
    rows = []
    for workload in parent:
        for metric in metrics:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            a, b = parent[workload][name], change[workload][name]
            a_q1, a_median, a_q3 = quartiles(a)
            b_q1, b_median, b_q3 = quartiles(b)
            won = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            delta = sign * (b_median - a_median) / abs(a_median) if a_median else 0.0
            spread = (a_q3 - a_q1) / abs(a_median) if a_median else 0.0
            if won >= 0.9 * len(a) and abs(b_median - a_median) > a_q3 - a_q1:
                verdict = "better"
            elif delta < -metric["bound"]:
                verdict = "WORSE"
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "same"
            rows.append({
                "workload": workload, "metric": name,
                "parent": {"median": a_median, "q1": a_q1, "q3": a_q3},
                "change": {"median": b_median, "q1": b_q1, "q3": b_q3},
                "delta": delta, "won": won, "pairs": len(a), "verdict": verdict,
            })
    return rows


def render(rows: Sequence[dict], anchor: Optional[dict]) -> str:
    """The table, with a ``vs anchor`` column once ``BENCH_perf.json`` has one."""
    def cell(side: dict) -> str:
        return f"{side['median']:.6g} [{side['q1']:.6g}, {side['q3']:.6g}]"

    lines = [
        f"{'workload':<18} {'metric':<21} {'parent median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'delta':>8} {'won':>6}  verdict"
        + ("  vs anchor" if anchor else "")
    ]
    for row in rows:
        line = (
            f"{row['workload']:<18} {row['metric']:<21} {cell(row['parent']):<34} "
            f"{cell(row['change']):<34} {row['delta']:>+8.1%} "
            f"{row['won']:>3}/{row['pairs']:<2}  {row['verdict']}"
        )
        if anchor:
            base = anchor["medians"].get(row["workload"], {}).get(row["metric"])
            if base and base["median"]:
                line += f"  {row['change']['median'] / base['median']:.3f}x"
        lines.append(line)
    return "\n".join(lines)


def trajectory_row(commit: str, side: str, rows: Sequence[dict], extra: dict) -> dict:
    medians: Dict[str, Dict[str, dict]] = {}
    for row in rows:
        medians.setdefault(row["workload"], {})[row["metric"]] = row[side]
    return {"commit": commit, **extra, "medians": medians}


# ---------------------------------------------------------------------- #
# Running
# ---------------------------------------------------------------------- #
def git(*args: str) -> str:
    return subprocess.run(
        ("git", *args), cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_workload(checkout: Path, workload: str, seed: int, trace: int,
                 seconds: Optional[float]) -> Tuple[int, Optional[dict]]:
    command = ["python3", "perf/run.py", "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    try:
        return done.returncode, parse_result(done.stdout)
    except ValueError:
        sys.stderr.write(done.stderr)
        return done.returncode, None


def fingerprint() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in benchmark["workloads"]],
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json run_seconds, on both sides")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    metrics = benchmark["end_to_end"]

    against = git("rev-parse", args.against)
    head = git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain") else "")
    scratch = tempfile.mkdtemp(prefix="ab_pairs_")
    other = Path(scratch) / "against"
    git("worktree", "add", "--detach", str(other), against)
    sides = {"parent": other, "change": ROOT}
    samples: Dict[str, Samples] = {
        side: {w: {m["name"]: [] for m in metrics} for w in workloads} for side in sides
    }
    failed = {side: 0 for side in sides}
    traced = {}
    try:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    code, result = run_workload(
                        sides[side], workload, args.seed + pair, 0, args.seconds)
                    if code or result is None:
                        sys.exit(f"{side} {workload} seed {args.seed + pair}: exit {code}")
                    failed[side] += result["failed"]
                    for name, values in samples[side][workload].items():
                        values.append(result["metrics"][name])
            print(f"# pair {pair + 1}/{args.pairs} done", file=sys.stderr)
        for side, checkout in sides.items():
            for workload in workloads:
                code, result = run_workload(checkout, workload, args.seed, 1, args.seconds)
                traced[f"{side}/{workload}"] = {
                    "exit": code, "failed": result["failed"] if result else None}
    finally:
        git("worktree", "remove", "--force", str(other))
        os.rmdir(scratch)

    rows = summarize(samples["parent"], samples["change"], metrics)
    history = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.exists() else []
    extra = {"environment": fingerprint(), "pairs": args.pairs, "first_seed": args.seed,
             "seconds": args.seconds or benchmark["run_seconds"]}
    if not history:
        history.append(trajectory_row(against, "parent", rows, {"anchor": True, **extra}))
    print(render(rows, history[0]))
    print(f"failed operations, untraced: parent {failed['parent']}, change {failed['change']}")
    for name, outcome in traced.items():
        print(f"traced {name}: exit {outcome['exit']}, failed {outcome['failed']}")
    history.append(trajectory_row(head, "change", rows, {
        "against": against, "traced": traced, **extra,
        "verdicts": {f"{r['workload']}/{r['metric']}": f"{r['verdict']} {r['won']}/{r['pairs']}"
                     for r in rows},
    }))
    TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
    bad = any(o["exit"] for n, o in traced.items() if n.startswith("change/"))
    return 1 if bad or any(r["verdict"] == "WORSE" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
