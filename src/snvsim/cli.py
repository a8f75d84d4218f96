"""Command-line interface.

Subcommands
-----------
``snvsim run <name-or-config> [key=value ...]``
    Run a named scenario (or a config file selecting one via
    ``scenario = <name>``) with optional config overrides; artifacts land
    under the output root (``--output-dir``, else the SNVSIM_OUTPUT_DIR
    environment variable, else ./snvsim_output) and the run summary is
    printed as JSON.

``snvsim list``
    List available scenarios with their descriptions.

``snvsim fit <request.json>``
    Run a registry model fit described by a JSON request with keys
    ``model``, ``data_file``, ``init``, ``bounds``, ``options`` and
    ``model_args``, and print the result as JSON.  ``model_args`` takes the
    model's layout arguments only (``n_lines``, ``shared_fwhm``,
    ``fix_f_in``); the start of the fit goes in ``init``.

``snvsim budget <config> [key=value ...]``
    Evaluate an efficiency-budget config (ordered ``stage_*`` keys) and
    print the per-stage report as JSON.

Exit status: 0 on success, 1 on a failed fit or when any ``run`` summary
entry fails its tolerance, 2 on validation errors.
Errors are emitted to stderr as one JSON object ``{"error": ...}``.

``list``, ``budget`` and a run of ``table_s1`` or ``loss_chain`` (or one
refused for bad input) load no numpy: the fitting and spectra layers are
reached as attributes of the lazily loading package, on first use.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import snvsim

from . import config as config_mod
from .efficiency import budget_from_config, budget_report
from .registry import SCENARIOS, available_scenarios, run_scenario

_EXIT_OK = 0
_EXIT_FIT_FAILED = 1
_EXIT_VALIDATION = 2


def _fail(message: str, code: int = _EXIT_VALIDATION, **extra) -> int:
    payload = {"error": message, **extra}
    print(json.dumps(payload, indent=2, sort_keys=True), file=sys.stderr)
    return code


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        overrides = config_mod.parse_overrides(args.overrides)
        result = run_scenario(args.target, overrides, output_root=args.output_dir)
    except (ValueError, KeyError) as exc:
        if args.target in SCENARIOS or Path(args.target).is_file():
            return _fail(str(exc))
        return _fail(str(exc), available_scenarios=available_scenarios())
    summary_path = result.out_dir / "summary.json"
    print(summary_path.read_text(), end="")
    return _EXIT_OK if result.all_pass else _EXIT_FIT_FAILED


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in SCENARIOS)
    for name in available_scenarios():
        print(f"{name:<{width}}  {SCENARIOS[name].description}")
    return _EXIT_OK


_FIT_REQUEST_KEYS = {"model", "data_file", "init", "bounds", "options", "model_args"}


def _parse_bounds(raw) -> tuple[tuple[float, float], ...]:
    bounds = []
    for pair in raw:
        if len(pair) != 2:
            raise ValueError(f"each bound must be a [lo, hi] pair, got {pair!r}")
        lo = -math.inf if pair[0] is None else float(pair[0])
        hi = math.inf if pair[1] is None else float(pair[1])
        bounds.append((lo, hi))
    return tuple(bounds)


def _cmd_fit(args: argparse.Namespace) -> int:
    try:
        request = json.loads(Path(args.request).read_text())
        if not isinstance(request, dict):
            raise ValueError("fit request must be a JSON object")
        unknown = sorted(set(request) - _FIT_REQUEST_KEYS)
        if unknown:
            raise ValueError(
                f"unknown fit-request keys: {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(_FIT_REQUEST_KEYS))}"
            )
        fitting = snvsim.fitting
        models = fitting.model_registry()
        model_name = request.get("model")
        if model_name not in models:
            raise ValueError(
                f"unknown model {model_name!r}; available: {', '.join(sorted(models))}"
            )
        if "data_file" not in request:
            raise ValueError("fit request must name a data_file")
        model_args = request.get("model_args") or {}
        model = models[model_name](**model_args)
        if request.get("init") is not None:
            model = model.with_init([float(v) for v in request["init"]])
        if request.get("bounds") is not None:
            model = replace(model, bounds=_parse_bounds(request["bounds"]))
        options = fitting.FitOptions(**(request.get("options") or {}))
        _, x, y, y_err = snvsim.spectra.read_xy_csv(Path(request["data_file"]))
        result = fitting.fit(model, (x, y, y_err), options)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc))
    payload = result.as_dict()
    payload["model"] = model.name
    print(json.dumps(payload, indent=2, sort_keys=True))
    if result.status == "singular":
        return _fail(f"fit failed: {result.message}", code=_EXIT_FIT_FAILED)
    return _EXIT_OK


def _cmd_budget(args: argparse.Namespace) -> int:
    try:
        cfg = config_mod.load_config(args.config)
        cfg = config_mod.merged(cfg, config_mod.parse_overrides(args.overrides))
        budget = budget_from_config(cfg)
    except (ValueError, KeyError, OSError) as exc:
        return _fail(str(exc))
    print(json.dumps(budget_report(budget), indent=2, sort_keys=True))
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snvsim",
        description="Spin-register photonics simulator: scenarios, fits, and budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario by name or config file")
    run_p.add_argument("target", help="scenario name or path to a config file")
    run_p.add_argument("overrides", nargs="*", help="config overrides as key=value")
    run_p.add_argument("--output-dir", default=None, help="artifact root directory")
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list", help="list available scenarios")
    list_p.set_defaults(func=_cmd_list)

    fit_p = sub.add_parser("fit", help="run a model fit from a JSON request")
    fit_p.add_argument("request", help="path to the fit-request JSON file")
    fit_p.set_defaults(func=_cmd_fit)

    budget_p = sub.add_parser("budget", help="evaluate an efficiency-budget config")
    budget_p.add_argument("config", help="path to a budget config file")
    budget_p.add_argument("overrides", nargs="*", help="config overrides as key=value")
    budget_p.set_defaults(func=_cmd_budget)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
