#!/usr/bin/env python3
"""How accurately does the field-sweep pipeline recover slope and splitting vs SNR?

For each requested signal-to-noise ratio the study runs ``scenarios.field_sweep``,
the pipeline behind the fig2a scenario: it synthesizes a full magnetic field
sweep of the optical quartet, fits every scan with a shared-width four-line
model, and regresses the outer-line span against field.  The study records the
recovered splitting slope and zero-field splitting.  Repeats with independent
seeds give the spread.  Results land in sweep_results.csv / sweep_summary.json
and a console table.  An option that restates a fig2a key is checked by that
key's domain: bad input (a zero slope, no repeats, fewer than 3 scans or more
than fig2a allows, ...) prints the error to stderr and exits 2 before any scan.

Example:
    python3 scripts/field_sweep_study.py --snr 3 5 10 15 30 --repeats 5
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

from snvsim import spin_hamiltonian
from snvsim.artifacts import write_csv
from snvsim.registry import SCENARIOS
from snvsim.scenarios import field_sweep
from snvsim.spectra import frequency_grid


def fig2a(key: str):
    """Argument type of an option that restates fig2a's ``key``: checked by that key's domain."""
    domain = SCENARIOS["fig2a"].keys[key][1]

    def convert(text: str):
        try:
            return domain.check(key, domain.kind(text))
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {domain.text}, got {text!r}") from None

    return convert


def snr_option(text: str) -> float:
    """An SNR as fig2a checks it, small enough that its stream key ``int(snr * 1000)`` exists."""
    snr = fig2a("snr")(text)
    if not math.isfinite(snr * 1000):
        raise argparse.ArgumentTypeError(
            f"must be at most {sys.float_info.max / 1000:.6g}, got {text!r}"
        )
    return snr


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--snr", type=snr_option, nargs="+", default=[3.0, 5.0, 10.0, 15.0, 30.0])
    parser.add_argument("--repeats", type=int, default=5, help="independent sweeps per SNR")
    parser.add_argument("--seed", type=fig2a("seed"), default=2026, help="base seed of all noise")
    parser.add_argument("--n-scans", type=fig2a("n_scans"), default=35)
    parser.add_argument("--field-step-mt", type=fig2a("field_step_mt"), default=4.3)
    parser.add_argument("--splitting-mhz", type=fig2a("zero_field_splitting_mhz"), default=452.0)
    parser.add_argument("--slope-ghz-per-t", type=fig2a("slope_ghz_per_t"), default=5.41)
    parser.add_argument("--linewidth-mhz", type=fig2a("linewidth_mhz"), default=70.0)
    parser.add_argument("--grid-span-ghz", type=fig2a("grid_span_ghz"), default=2.4)
    parser.add_argument("--grid-step-mhz", type=fig2a("grid_step_mhz"), default=5.0)
    parser.add_argument("--output-dir", type=Path, default=Path("field_sweep_study"))
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args


def run_sweep(args: argparse.Namespace, snr: float, repeat: int) -> tuple[float, float]:
    """One synthetic sweep; returns (fitted slope Hz/T, fitted intercept Hz)."""
    transition = spin_hamiltonian.OpticalTransitionParams.from_cyclic_hz(
        args.splitting_mhz * 1e6, args.slope_ghz_per_t * 1e9
    )
    span = args.grid_span_ghz * 1e9
    x = frequency_grid(-span / 2.0, span / 2.0, args.grid_step_mhz * 1e6)
    fields = np.arange(args.n_scans) * args.field_step_mt * 1e-3
    seeds = [
        np.random.SeedSequence([args.seed, int(snr * 1000), repeat, k])
        for k in range(args.n_scans)
    ]
    sweep = field_sweep(transition, fields, x, args.linewidth_mhz * 1e6, 1.0 / snr, seeds)
    slope, intercept = sweep.coeffs
    return float(slope), float(intercept)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    true_slope = args.slope_ghz_per_t * 1e9
    true_split = args.splitting_mhz * 1e6
    rows = []
    summary = []
    for snr in args.snr:
        slope_errs, split_errs = [], []
        for repeat in range(args.repeats):
            try:
                slope, intercept = run_sweep(args, snr, repeat)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            rows.append((snr, repeat, slope / 1e9, intercept / 1e6))
            slope_errs.append(abs(slope - true_slope) / true_slope)
            split_errs.append(abs(intercept - true_split))
        summary.append(
            {
                "snr": snr,
                "mean_abs_slope_error_percent": 100.0 * statistics.mean(slope_errs),
                "max_abs_slope_error_percent": 100.0 * max(slope_errs),
                "mean_abs_splitting_error_mhz": statistics.mean(split_errs) / 1e6,
                "max_abs_splitting_error_mhz": max(split_errs) / 1e6,
            }
        )

    args.output_dir.mkdir(parents=True, exist_ok=True)
    header = ["snr", "repeat", "slope_ghz_per_t", "intercept_mhz"]
    write_csv(args.output_dir / "sweep_results.csv", header, zip(*rows))
    payload = {
        "true_slope_ghz_per_t": args.slope_ghz_per_t,
        "true_splitting_mhz": args.splitting_mhz,
        "repeats": args.repeats,
        "seed": args.seed,
        "per_snr": summary,
    }
    (args.output_dir / "sweep_summary.json").write_text(json.dumps(payload, indent=2) + "\n")

    print(f"{'SNR':>6}  {'|slope err| mean/max %':>24}  {'|split err| mean/max MHz':>26}")
    for entry in summary:
        print(
            f"{entry['snr']:>6.1f}  "
            f"{entry['mean_abs_slope_error_percent']:>10.3f} / {entry['max_abs_slope_error_percent']:<10.3f}  "
            f"{entry['mean_abs_splitting_error_mhz']:>11.3f} / {entry['max_abs_splitting_error_mhz']:<11.3f}"
        )
    print(f"\nwrote {args.output_dir / 'sweep_results.csv'} and sweep_summary.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
