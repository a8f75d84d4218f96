"""Command-line interface.

Subcommands
-----------
``snvsim run [<name-or-config> [key=value ...]]``
    Run a named scenario (or a config file selecting one via
    ``scenario = <name>``) with optional config overrides, or with no
    target every scenario at its defaults; artifacts land under the output
    root (``--output-dir``, else the SNVSIM_OUTPUT_DIR environment
    variable, else ./snvsim_output), and the summary is printed as JSON
    (``{name: summary}`` with no target).

``snvsim ensemble <name-or-config> --seeds N [key=value ...]``
    Run a scenario at seeds s, s+1, ..., s+N-1 (s is the merged config's
    ``seed``) without writing, and print the mean, sample sd, min, max and
    pass rate of each summary row as JSON; a row whose value is not finite
    at some seed fails there, and its statistics are null.

``snvsim list``
    List available scenarios with their descriptions.

``snvsim fit <request.json>``
    Run a registry model fit described by a JSON request with keys
    ``model``, ``data_file``, ``init``, ``bounds``, ``options`` (``max_iter``
    and ``tol``) and ``model_args``, and print the result as JSON.
    ``model_args`` takes the model's layout arguments only (``n_lines`` of
    ``lorentzian_multi``, whose lines share one width, so its ``shared_fwhm``
    may only be ``true``; the required ``fix_f_in`` of ``reflection_dip``,
    in fig4b's ``input_coupling`` domain); the start of the fit goes in
    ``init``.  The data file is read first.  Each number is checked against
    a config domain, and each part's shape too (``init`` a list and
    ``bounds`` a list of pairs, one per model parameter, ``options`` and
    ``model_args`` objects of known keys); a bad one exits 2 naming its
    request key.

``snvsim budget <config> [key=value ...]``
    Evaluate an efficiency-budget config (ordered ``stage_*`` keys) and
    print the per-stage report as JSON.  An override must name a key of the
    file, and a file that selects a scenario is checked as ``run`` checks it.

Exit status: 0 on success, 1 on a failed fit or when any ``run`` or
``ensemble`` summary entry fails its tolerance (at any seed), 2 on
validation errors, a usage error among them (a missing argument, an
unknown flag or subcommand).  A stdout closed early (``snvsim fit
request.json | head -c 10``) ends the call with status 1 and no traceback.
Errors are emitted to stderr as one JSON object ``{"error": ...}``.
Options and ``key=value`` overrides may come in any order after the
subcommand.

``list``, ``budget`` and a run of ``table_s1`` or ``loss_chain`` (or one
refused for bad input) load neither numpy nor ``dataclasses``: the fitting
and spectra layers are reached as attributes of the lazily loading package,
on first use, and ``fit`` imports ``dataclasses.replace`` itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import snvsim

from . import config as config_mod
from .efficiency import budget_from_config, budget_report
from .registry import INPUT_COUPLING, SCENARIOS, available_scenarios, configured, run_scenario

_EXIT_OK = 0
_EXIT_FIT_FAILED = 1
_EXIT_VALIDATION = 2
#: How many seeds one ``ensemble`` call runs.
SEEDS = config_mod.Domain(int, 1, 10_000)


def _fail(message: str, code: int = _EXIT_VALIDATION, **extra) -> int:
    payload = {"error": message, **extra}
    print(json.dumps(payload, indent=2, sort_keys=True), file=sys.stderr)
    return code


def _target_error(target: str, exc: Exception) -> int:
    """Exit 2 for ``exc``; a target that names no scenario and no file gets the catalog."""
    if target in SCENARIOS or Path(target).is_file():
        return _fail(str(exc))
    return _fail(str(exc), available_scenarios=available_scenarios())


def _cmd_run(args: argparse.Namespace) -> int:
    if args.target is None:
        summaries = {}
        for name in available_scenarios():
            result = run_scenario(name, output_root=args.output_dir)
            summaries[name] = json.loads((result.out_dir / "summary.json").read_text())
        print(json.dumps(summaries, indent=2))
        return _EXIT_OK if all(s["all_pass"] for s in summaries.values()) else _EXIT_FIT_FAILED
    try:
        overrides = config_mod.parse_overrides(args.overrides)
        result = run_scenario(args.target, overrides, output_root=args.output_dir)
    except (ValueError, KeyError) as exc:
        return _target_error(args.target, exc)
    summary_path = result.out_dir / "summary.json"
    print(summary_path.read_text(), end="")
    return _EXIT_OK if result.all_pass else _EXIT_FIT_FAILED


def _cmd_ensemble(args: argparse.Namespace) -> int:
    import statistics  # here, not at the top: every cold call would pay its import

    try:
        overrides = config_mod.parse_overrides(args.overrides)
        scenario, cfg, values = configured(args.target, overrides)
        if "seed" not in values:
            raise ValueError(f"scenario {scenario.name!r} has no seed key")
        n_seeds = config_mod.parse_value(args.seeds)
        if n_seeds not in SEEDS:
            raise ValueError(f"--seeds must be {SEEDS.text}, got {args.seeds!r}")
        by_quantity: dict = {}
        for seed in range(values["seed"], values["seed"] + n_seeds):
            for row in scenario.run({**values, "seed": seed})[0]:
                by_quantity.setdefault(row["quantity"], []).append(row)
        entries = []
        for quantity, rows in by_quantity.items():
            simulated = [row["simulated"] for row in rows]
            # A value beyond the float range fails its row; summary.json writes it as
            # null, and so are the row's statistics here.
            finite = all(math.isfinite(value) for value in simulated)
            entries.append({
                "quantity": quantity,
                "paper_value": rows[0]["paper_value"],
                "tolerance": rows[0]["tolerance"],
                # Exact rational arithmetic: a row that restates the config gets sd 0.0.
                "mean": statistics.mean(simulated) if finite else None,
                "sd": statistics.stdev(simulated) if finite and n_seeds > 1 else None,
                "min": min(simulated) if finite else None,
                "max": max(simulated) if finite else None,
                "pass_rate": sum(row["pass"] for row in rows) / len(rows),
            })
    except (ValueError, KeyError, OverflowError) as exc:
        return _target_error(args.target, exc)
    all_pass = all(entry["pass_rate"] == 1.0 for entry in entries)
    payload = {
        "scenario": scenario.name,
        "config": cfg,
        "n_seeds": n_seeds,
        "all_pass": all_pass,
        "entries": entries,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return _EXIT_OK if all_pass else _EXIT_FIT_FAILED


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in SCENARIOS)
    for name in available_scenarios():
        print(f"{name:<{width}}  {SCENARIOS[name].description}")
    return _EXIT_OK


_FIT_REQUEST_KEYS = {"model", "data_file", "init", "bounds", "options", "model_args"}
_FINITE = config_mod.Domain(float)


def _request_number(key: str, value, domain: config_mod.Domain):
    """``value`` as ``domain.kind``, or a ``ValueError`` naming the fit-request key."""
    if value not in domain:
        raise ValueError(f"fit-request key {key!r} must be {domain.text}, got {value!r}")
    return domain.kind(value)


def _request_shape(key: str, value, kind: type, text: str, size: int | None = None):
    """``value``, or a ``ValueError`` naming the fit-request key unless it is a ``kind``
    (of ``size`` entries, if given)."""
    if not isinstance(value, kind) or size not in (None, len(value)):
        raise ValueError(f"fit-request key {key!r} must be {text}, got {value!r}")
    return value


def _one_per_parameter(key: str, value: list, text: str, param_names: tuple) -> list:
    """``value``, a list of ``text``'s shape, or a ``ValueError`` naming the fit-request key
    unless it has one entry for each of ``param_names``."""
    text = f"{text}, one for each of {', '.join(param_names)}"
    return _request_shape(key, value, list, text, size=len(param_names))


def _parse_bounds(raw, param_names: tuple) -> tuple[tuple[float, float], ...]:
    text = "a list of [lo, hi] pairs"
    bounds = []
    for i, pair in enumerate(_request_shape("bounds", raw, list, text)):
        key = f"bounds[{i}]"
        lo, hi = _request_shape(key, pair, list, "a [lo, hi] pair", size=2)
        lo = -math.inf if lo is None else _request_number(key, lo, _FINITE)
        hi = math.inf if hi is None else _request_number(key, hi, _FINITE)
        bounds.append((lo, hi))
    _one_per_parameter("bounds", raw, text, param_names)
    return tuple(bounds)


def _cmd_fit(args: argparse.Namespace) -> int:
    # Here, not at the top: dataclasses loads inspect, which every cold call would pay for.
    from dataclasses import replace

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
        # A part given as null is an absent one.
        request = {key: value for key, value in request.items() if value is not None}
        fitting = snvsim.fitting
        models = fitting.model_registry()
        model_name = request.get("model")
        if model_name not in models:
            raise ValueError(
                f"unknown model {model_name!r}; available: {', '.join(sorted(models))}"
            )
        if "data_file" not in request:
            raise ValueError("fit request must name a data_file")
        _, x, y, y_err = snvsim.spectra.read_xy_csv(Path(request["data_file"]))
        given = {group: dict(_request_shape(group, request.get(group, {}), dict, "a JSON object"))
                 for group in ("model_args", "options")}
        # lorentzian_multi has one layout, its lines sharing one width; a request may say so.
        if model_name == "lorentzian_multi" and "shared_fwhm" in given["model_args"]:
            shared = given["model_args"].pop("shared_fwhm")
            if shared is not True:
                raise ValueError(
                    f"fit-request key 'model_args.shared_fwhm' must be true, got {shared!r}"
                )
        domains = {  # the keys each group takes, with their domains
            "model_args": {
                # More lines than data points are refused before the model is built.
                "lorentzian_multi": {"n_lines": config_mod.Domain(int, 1, x.size)},
                "reflection_dip": {"fix_f_in": INPUT_COUPLING},
            }.get(model_name, {}),
            "options": {"max_iter": config_mod.Domain(int, 1), "tol": config_mod.POSITIVE},
        }
        for group, allowed in domains.items():
            unknown = sorted(set(given[group]) - set(allowed))
            if unknown:
                raise ValueError(
                    f"unknown fit-request keys: {', '.join(f'{group}.{k}' for k in unknown)}; "
                    f"allowed: {', '.join(allowed) or 'none'} (a fit's start goes in 'init')"
                )
            for name, domain in allowed.items():
                if name in given[group]:
                    given[group][name] = _request_number(
                        f"{group}.{name}", given[group][name], domain
                    )
        model = models[model_name](**given["model_args"])
        if "init" in request:
            text = "a list of numbers"
            init = _request_shape("init", request["init"], list, text)
            _one_per_parameter("init", init, text, model.param_names)
            model = model.with_init(
                [_request_number(f"init[{i}]", v, _FINITE) for i, v in enumerate(init)]
            )
        if "bounds" in request:
            model = replace(model, bounds=_parse_bounds(request["bounds"], model.param_names))
        result = fitting.fit(model, (x, y, y_err), fitting.FitOptions(**given["options"]))
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
        file_cfg = config_mod.load_config(args.config)
        overrides = config_mod.parse_overrides(args.overrides)
        unknown = sorted(set(overrides) - set(file_cfg))
        if unknown:
            raise ValueError(f"unknown config keys for {args.config}: {', '.join(unknown)}")
        if "scenario" in file_cfg:  # checked as ``snvsim run`` checks it
            configured(args.config, overrides)
        report = budget_report(budget_from_config({**file_cfg, **overrides}))
    except (ValueError, KeyError, OSError) as exc:
        return _fail(str(exc))
    print(json.dumps(report, indent=2, sort_keys=True))
    return _EXIT_OK


class _UsageError(Exception):
    """A command line that argparse refuses."""


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose usage errors keep the stderr contract.

    argparse's own ``error`` prints the usage text and exits; this one
    raises :class:`_UsageError`, which :func:`main` reports as one
    ``{"error": ...}`` object with exit 2.  ``--help`` still exits 0.
    """

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="snvsim",
        description="Spin-register photonics simulator: scenarios, fits, and budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario by name or config file, or every scenario")
    run_p.add_argument(
        "target", nargs="?", help="scenario name or path to a config file (default: all scenarios)"
    )
    run_p.add_argument("overrides", nargs="*", help="config overrides as key=value")
    run_p.add_argument("--output-dir", default=None, help="artifact root directory")
    run_p.set_defaults(func=_cmd_run)

    ensemble_p = sub.add_parser("ensemble", help="run a scenario over consecutive seeds")
    ensemble_p.add_argument("target", help="scenario name or path to a config file")
    ensemble_p.add_argument(
        "overrides", nargs="*", help="config overrides as key=value; seed is the first seed"
    )
    ensemble_p.add_argument(
        "--seeds", required=True, help=f"number of seeds, {SEEDS.lo} to {SEEDS.hi}"
    )
    ensemble_p.set_defaults(func=_cmd_ensemble)

    list_p = sub.add_parser("list", help="list available scenarios")
    list_p.set_defaults(func=_cmd_list)

    fit_p = sub.add_parser("fit", help="run a model fit from a JSON request")
    fit_p.add_argument("request", help="path to the fit-request JSON file")
    fit_p.set_defaults(func=_cmd_fit)

    budget_p = sub.add_parser("budget", help="evaluate an efficiency-budget config")
    budget_p.add_argument("config", help="path to a budget config file")
    budget_p.add_argument("overrides", nargs="*", help="config overrides as key=value")
    budget_p.set_defaults(func=_cmd_budget)

    parser.commands = sub.choices  # subcommand name -> its parser, for main
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # parse_intermixed_args refuses a parser with subparsers, so a known
    # subcommand's own parser takes the rest: an override may then follow an
    # option (``ensemble fig2a --seeds 2 snr=3``).  Anything else (no
    # subcommand, an unknown one, --help) is the top-level parser's.
    command = parser.commands.get(argv[0]) if argv else None
    try:
        args = command.parse_intermixed_args(argv[1:]) if command else parser.parse_args(argv)
    except _UsageError as exc:
        return _fail(str(exc))
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (the SIGPIPE recipe of the Python docs): point
        # stdout at devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
