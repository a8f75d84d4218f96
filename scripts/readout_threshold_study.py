#!/usr/bin/env python3
"""Threshold scan for photon-counting state readout: Poisson limit vs spin flips.

Given measured bright/dark mean counts and a target single-shot fidelity, the
study calibrates a readout model (detection probability + bright-state flip
probability per pulse), samples photon-number histograms from the model's
exact count distribution, and scans the classification threshold.  The table
contrasts the flip-free Poisson reference with the calibrated model, showing
how spin flips cap the fidelity and where the optimal threshold sits.  In the
JSON output, ``fidelity_mc`` and ``optimal_mc`` refer to the sampled histograms.

Example:
    python3 scripts/readout_threshold_study.py --mean-bright 1.83 --mean-dark 0.13 \
        --fidelity-target 0.80 --trials 100000
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from snvsim.photon_budget import (
    calibrate_readout_model,
    optimal_threshold,
    poisson_reference_histogram,
    simulate_readout,
    threshold_fidelity,
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mean-bright", type=float, default=1.83)
    parser.add_argument("--mean-dark", type=float, default=0.13)
    parser.add_argument("--fidelity-target", type=float, default=0.80)
    parser.add_argument("--n-pulses", type=int, default=150)
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=32)
    parser.add_argument("--k-max", type=int, default=8, help="largest threshold in the table")
    parser.add_argument("--output-dir", type=Path, default=Path("readout_threshold_study"))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    args.output_dir.mkdir(parents=True, exist_ok=True)

    model = calibrate_readout_model(
        args.mean_bright, args.mean_dark, args.fidelity_target, n_pulses=args.n_pulses
    )
    print(
        f"calibrated model: p_detect {model.p_detect:.3e}/pulse, "
        f"p_flip_bright {model.p_flip_bright:.3e}/pulse, "
        f"dark rate {model.dark_rate:.3f}/window, {model.n_pulses} pulses"
    )

    poisson_bright = poisson_reference_histogram(args.mean_bright)
    poisson_dark = poisson_reference_histogram(args.mean_dark)
    sampled = simulate_readout(model, trials=args.trials, seed=args.seed)

    table = []
    for k in range(args.k_max + 1):
        table.append(
            {
                "k": k,
                "fidelity_poisson": threshold_fidelity(poisson_bright, poisson_dark, k),
                "fidelity_mc": threshold_fidelity(sampled["bright"], sampled["dark"], k),
            }
        )

    best_poisson = optimal_threshold(poisson_bright, poisson_dark)
    best_mc = optimal_threshold(sampled["bright"], sampled["dark"])

    print(f"\n{'k':>3}  {'F (Poisson, no flips)':>22}  {'F (sampled)':>16}")
    for row in table:
        marks = ""
        if row["k"] == best_poisson["k"]:
            marks += " <- poisson optimum"
        if row["k"] == best_mc["k"]:
            marks += " <- sampled optimum"
        print(f"{row['k']:>3}  {row['fidelity_poisson']:>22.4f}  {row['fidelity_mc']:>16.4f}{marks}")
    print(
        f"\nspin flips cost {best_poisson['fidelity'] - best_mc['fidelity']:.4f} "
        f"of fidelity at the optimum ({args.trials} trials, seed {args.seed})"
    )

    payload = {
        "inputs": {
            "mean_bright": args.mean_bright,
            "mean_dark": args.mean_dark,
            "fidelity_target": args.fidelity_target,
            "n_pulses": args.n_pulses,
            "trials": args.trials,
            "seed": args.seed,
        },
        "calibrated_model": {
            "p_detect": model.p_detect,
            "p_flip_bright": model.p_flip_bright,
            "dark_rate": model.dark_rate,
            "n_pulses": model.n_pulses,
        },
        "threshold_table": table,
        "optimal_poisson": best_poisson,
        "optimal_mc": best_mc,
    }
    out = args.output_dir / "threshold_study.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
