#!/usr/bin/env python3
"""Run every registered scenario (or a subset) and print a pass/fail table.

Each scenario writes its artifacts (summary.json, report.txt, CSVs) under a
per-scenario directory; this script adds a one-line verdict per scenario and
exits 1 if any summary entry fails, so it doubles as a quick whole-stack
regression check.  Bad input (an unknown scenario, a malformed or
out-of-domain override) prints the error to stderr and exits 2.

Examples:
    python3 scripts/run_all_scenarios.py
    python3 scripts/run_all_scenarios.py fig2a fig3b --output-dir /tmp/runs
    python3 scripts/run_all_scenarios.py g2 --set seed=54 --set background=0.06
"""

from __future__ import annotations

import argparse
import sys
import time

from snvsim import available_scenarios, run_scenario
from snvsim.config import parse_overrides


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "scenarios",
        nargs="*",
        metavar="SCENARIO",
        help="scenario names to run (default: all registered scenarios)",
    )
    parser.add_argument("--list", action="store_true", help="list scenarios and exit")
    parser.add_argument(
        "--output-dir",
        default=None,
        help="root directory for per-scenario outputs (default: ./snvsim_output)",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config override; requires exactly one scenario (repeatable)",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    registered = available_scenarios()
    if args.list:
        print("\n".join(registered))
        return 0

    names = args.scenarios or registered
    unknown = [n for n in names if n not in registered]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(registered)}", file=sys.stderr)
        return 2
    if args.overrides and len(names) != 1:
        print("--set overrides require exactly one scenario", file=sys.stderr)
        return 2
    width = max(len(n) for n in names)
    failures = 0
    for name in names:
        start = time.perf_counter()
        try:
            overrides = parse_overrides(args.overrides)
            result = run_scenario(name, overrides=overrides or None, output_root=args.output_dir)
        except ValueError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - start
        verdict = "pass" if result.all_pass else "FAIL"
        n_pass = sum(row["pass"] for row in result.rows)
        print(
            f"{name:<{width}}  {verdict}  {n_pass}/{len(result.rows)} entries  "
            f"{elapsed:6.2f} s  -> {result.out_dir}"
        )
        if not result.all_pass:
            failures += 1
            for row in result.rows:
                if not row["pass"]:
                    print(
                        f"{'':<{width}}    {row['quantity']}: simulated {row['simulated']:g} "
                        f"vs {row['paper_value']} +/- {row['tolerance']}"
                    )

    print(f"\n{len(names) - failures}/{len(names)} scenarios green")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
