#!/usr/bin/env python3
"""Self-test of the benchmark: exact counts repeat across two runs at one seed.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

Makes two traced runs (``run.py --trace 1 --seconds 1``) of each workload
at seed 0 and fails unless both are correct and every count in
``workloads.EXACT_COUNTS`` (model evaluations, iterations, files and bytes
written, scipy modules imported ...) is the same in both.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import EXACT_COUNTS, WORKLOADS

HERE = Path(__file__).resolve().parent
SEED = 0


def traced_run(workload: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {completed.returncode}\n{completed.stderr}")
    return json.loads(completed.stdout.splitlines()[-1])


def main() -> int:
    mismatches = 0
    for workload in WORKLOADS:
        first, second = traced_run(workload), traced_run(workload)
        for name in EXACT_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            verdict = "ok" if a == b else "MISMATCH"
            mismatches += a != b
            print(f"{workload:15s} {name:28s} {a!r:>12} {b!r:>12}  {verdict}")
    print("self-test passed" if not mismatches else f"self-test FAILED: {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
