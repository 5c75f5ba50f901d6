"""Gate CI on the packed-path floors recorded in the bench JSON files.

The microbench pytest steps are allowed to flake on contended shared
runners (their steps use ``continue-on-error``), but the ratios they
write to ``BENCH_storage.json`` / ``BENCH_compression.json`` are the PR
acceptance numbers — a ratio below its floor must fail the job, not just
upload a bad artifact.  This script re-reads the JSON and exits non-zero
when any recorded ratio drops below the floor pinned *here* (the checker
owns the floors; a bench that writes itself a softer floor does not get
to relax the gate), when an expected key is missing, or when the file
itself is missing/empty (the bench never ran to completion).

Only figures that are exact byte counts or sit far outside runner noise
are gated.  The append and fetch timer ratios against the flat log
(~1.1x measured, +-0.15 noise) are still recorded by the bench but no
longer floors: a gate must fail on a regression, never on noise.

* Mirror forwarding measures ~5.4x against the per-record path —
  floor 3.0.
* Retention speedups measure 21-103x — floor 5.0x.
* PR 7 measured >=5x stored-byte reduction and >=5x mirror-forward
  advantage for gzip on the compressible workload — conservative initial
  floors 3.0 (ratcheted once a few CI runs land).

Usage::

    python benchmarks/check_storage_floors.py [BENCH_storage.json] [BENCH_compression.json]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: ``BENCH_storage.json`` entries that must carry a ``ratio`` at or above
#: the floor.  Listing them here (rather than only trusting the JSON)
#: means a bench that silently stops reporting is itself a failure.
REQUIRED_RATIOS = {
    "mirror_batched": 3.0,
}

#: Retention speedup floors (``speedup`` key), the PR 5 acceptance bar.
REQUIRED_SPEEDUPS = {
    "time_retention_drop_half": 5.0,
    "time_retention_noop": 5.0,
    "size_retention_drop_half": 5.0,
}

#: ``BENCH_compression.json`` entries (PR 7): stored-byte reduction of
#: gzip vs raw on the compressible workload, and compressed-chunk mirror
#: forwarding vs the per-record path.
REQUIRED_COMPRESSION_RATIOS = {
    "stored_bytes_reduction_gzip": 3.0,
    "mirror_compressed": 3.0,
}


def _check_entries(results: dict, required: dict, key: str, source: str, failures: list) -> None:
    for name, floor in required.items():
        entry = results.get(name)
        if not isinstance(entry, dict) or key not in entry:
            failures.append(
                f"{name}: expected key missing from {source} — the bench "
                f"stopped reporting it (or never ran); re-run the microbench"
            )
            continue
        value = entry[key]
        status = "ok" if value >= floor else "BELOW FLOOR"
        print(f"{name}: {key} {value:.3f} (floor {floor:g}) {status}")
        if value < floor:
            failures.append(f"{name}: {key} {value:.3f} < floor {floor:g}")


def check(storage_path: Path, compression_path: Path) -> int:
    failures: list[str] = []
    for path, blurb in (
        (storage_path, "storage"),
        (compression_path, "compression"),
    ):
        if not path.exists():
            print(f"FAIL: {path} not found — the {blurb} microbench did not run")
            return 1
    storage = json.loads(storage_path.read_text())
    _check_entries(storage, REQUIRED_RATIOS, "ratio", storage_path.name, failures)
    _check_entries(storage, REQUIRED_SPEEDUPS, "speedup", storage_path.name, failures)
    compression = json.loads(compression_path.read_text())
    _check_entries(
        compression,
        REQUIRED_COMPRESSION_RATIOS,
        "ratio",
        compression_path.name,
        failures,
    )
    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nAll storage/compression floors hold.")
    return 0


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    storage = Path(sys.argv[1]) if len(sys.argv) > 1 else root / "BENCH_storage.json"
    compression = (
        Path(sys.argv[2]) if len(sys.argv) > 2 else root / "BENCH_compression.json"
    )
    sys.exit(check(storage, compression))
