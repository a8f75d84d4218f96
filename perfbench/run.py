#!/usr/bin/env python3
"""snvsim benchmark: cold CLI calls, field-sweep fitting and the scenario suite.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <cli_cold|field_sweep|scenario_suite> \\
        --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  The lines before it give the provenance of the run
and the workload's own figures (``detail``).  The exit status is 0 only
when every output was correct.

Set-up time is measured in fresh processes: two that only set up, and the
measuring process itself; ``setup_s`` is their median.  Scratch files go to
``.perfbench_out/`` in the checkout and are removed, except the trace.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_out"
WORKLOADS = tuple(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
SETUP_SAMPLES = 3
#: A worker that has not finished by then is stopped; the first run may
#: compile the package's bytecode.
WORKER_TIMEOUT_S = 600


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def start_worker(args, setup_only: bool) -> tuple[float, list[str]]:
    """Run one measuring process; return its set-up time and its stdout lines."""
    argv = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-root", str(WORK_ROOT),
    ]
    if setup_only:
        argv.append("--setup-only")
    start = now()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = child.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise RuntimeError(f"{args.workload} worker did not finish in {WORKER_TIMEOUT_S} s")
    if child.returncode != 0:
        raise RuntimeError(f"{args.workload} worker exited with status {child.returncode}")
    lines = stdout.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("ready ")]
    if len(ready) != 1:
        raise RuntimeError(f"{args.workload} worker did not report the end of its set-up")
    return ready[0] - start, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "snvsim" / "__init__.py").is_file():
        print(f"error: no snvsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)

    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_samples.append(start_worker(args, setup_only=True)[0])
        setup_s, lines = start_worker(args, setup_only=False)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(setup_s)

    results = [json.loads(line[len("result "):]) for line in lines if line.startswith("result ")]
    if len(results) != 1:
        print("error: the worker printed no result", file=sys.stderr)
        return 1
    result = results[0]
    for line in lines:
        if line.startswith(("provenance ", "detail ")):
            print(line)

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setup_samples), "unit": "s"}, **metrics}
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
