"""Command-line interface: subcommands, exit codes, JSON contracts."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shlex
import statistics
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from snvsim.cli import SEEDS, build_parser, main
from snvsim.config import MAX_GRID_POINTS
from snvsim.registry import MAX_FITTED_SPECTRA, OUTPUT_DIR_ENV, SCENARIOS, available_scenarios
from snvsim.spectra import SpectralLine, frequency_grid, synthesize_spectrum, write_spectrum_csv

FIVE_FOLD_PER_DAY = 7.0631350272
REPO = Path(__file__).resolve().parents[1]
# Absolute, because the autouse fixture below changes into a temporary directory.
TABLE_S1_CFG = str(REPO / "configs" / "table_s1.cfg")


@pytest.fixture(autouse=True)
def _isolated_output(tmp_path, monkeypatch):
    """Keep accidental default-root writes out of the working tree."""
    monkeypatch.chdir(tmp_path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


# --------------------------------------------------------------------------
# list / run
# --------------------------------------------------------------------------

def test_list_shows_every_scenario(capsys):
    code, out, err = _run(capsys, ["list"])
    assert code == 0 and err == ""
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == len(available_scenarios())
    for name in available_scenarios():
        assert any(line.startswith(name) for line in lines)


def test_run_prints_summary_and_writes_artifacts(capsys, tmp_path):
    out_root = tmp_path / "artifacts"
    code, out, err = _run(capsys, ["run", "fig3c", "--output-dir", str(out_root)])
    assert code == 0 and err == ""
    summary = json.loads(out)
    assert summary["scenario"] == "fig3c"
    assert summary["all_pass"] is True
    for entry in summary["entries"]:
        assert {"quantity", "simulated", "paper_value", "tolerance", "pass"} <= set(entry)
    assert (out_root / "fig3c" / "coincidences.csv").is_file()
    assert (out_root / "fig3c" / "summary.json").is_file()
    five_fold = next(e for e in summary["entries"] if e["quantity"] == "five_fold_events_per_day")
    assert math.isclose(five_fold["simulated"], FIVE_FOLD_PER_DAY, rel_tol=1e-12)


def test_run_applies_config_overrides(capsys, tmp_path):
    code, out, _ = _run(
        capsys,
        ["run", "fig3c", "duration_s=43200", "--output-dir", str(tmp_path / "half")],
    )
    assert code == 0
    summary = json.loads(out)
    assert math.isclose(summary["config"]["duration_s"], 43200, rel_tol=0)
    # The artifact holds the expectation over the configured half day ...
    last_row = (tmp_path / "half" / "fig3c" / "coincidences.csv").read_text().splitlines()[-1]
    assert last_row.startswith("5,")
    assert math.isclose(float(last_row.split(",")[1]), FIVE_FOLD_PER_DAY / 2.0, rel_tol=1e-12)
    # ... while the summary row stays a per-day rate.
    five_fold = next(e for e in summary["entries"] if e["quantity"] == "five_fold_events_per_day")
    assert math.isclose(five_fold["simulated"], FIVE_FOLD_PER_DAY, rel_tol=1e-12)
    assert five_fold["pass"] is True


@pytest.mark.parametrize("override", ["duration_s=3600", "max_fold=3"])
def test_fig3c_reports_a_per_day_rate_for_any_duration_and_fold_range(capsys, tmp_path, override):
    code, out, err = _run(capsys, ["run", "fig3c", override, "--output-dir", str(tmp_path)])
    assert code == 0 and err == ""
    summary = json.loads(out)
    five_fold = next(e for e in summary["entries"] if e["quantity"] == "five_fold_events_per_day")
    assert math.isclose(five_fold["simulated"], FIVE_FOLD_PER_DAY, rel_tol=1e-12)
    assert five_fold["pass"] is True


def test_run_exits_1_when_a_summary_entry_fails(capsys, tmp_path):
    # A perfect detector moves the budget product off the paper's total.
    code, out, err = _run(
        capsys,
        ["run", "table_s1", "stage_detector_efficiency=1.0", "--output-dir", str(tmp_path)],
    )
    assert code == 1 and err == ""
    summary = _strict_json(out)
    assert summary["all_pass"] is False
    failed = [e["quantity"] for e in summary["entries"] if not e["pass"]]
    assert failed == ["total_efficiency_pct"]


def test_run_unknown_scenario_fails_with_catalog(capsys, tmp_path):
    code, out, err = _run(capsys, ["run", "no_such_thing", "--output-dir", str(tmp_path)])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert "no_such_thing" in payload["error"]
    assert payload["available_scenarios"] == available_scenarios()


def test_run_unknown_override_key_fails(capsys, tmp_path):
    code, _, err = _run(
        capsys, ["run", "g2", "not_a_key=1", "--output-dir", str(tmp_path)]
    )
    assert code == 2
    payload = json.loads(err)
    assert "not_a_key" in payload["error"]
    assert set(payload) == {"error"}  # the scenario resolved, so no catalog


@pytest.mark.parametrize(
    "argv, key",
    [
        (["run", "g2", "seed=1", "seed=60"], "seed"),
        (["budget", TABLE_S1_CFG, "stage_fibre_coupling=0.5", "stage_fibre_coupling=0.6"],
         "stage_fibre_coupling"),
    ],
)
def test_a_repeated_override_key_exits_2_and_names_it(capsys, tmp_path, argv, key):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert f"duplicate key '{key}'" in json.loads(err)["error"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "scenario, key", [("fig1e", "slope_ghz_per_t"), ("fig1d", "hyperfine_splitting_mhz")]
)
def test_keys_that_changed_no_artifact_are_unknown(capsys, tmp_path, scenario, key):
    code, out, err = _run(capsys, ["run", scenario, f"{key}=452", "--output-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert f"unknown config keys for scenario '{scenario}': {key}" in json.loads(err)["error"]


def test_run_malformed_override_fails(capsys, tmp_path):
    code, _, err = _run(capsys, ["run", "g2", "seed:7", "--output-dir", str(tmp_path)])
    assert code == 2
    assert "key=value" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "scenario, override",
    [("fig2a", "snr=nan"), ("fig1e", "linewidth_mhz=true"), ("fig1e", "linewidth_mhz=inf")],
)
def test_run_rejects_non_finite_and_boolean_numbers(capsys, tmp_path, scenario, override):
    key = override.partition("=")[0]
    code, out, err = _run(capsys, ["run", scenario, override, "--output-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert key in json.loads(err)["error"]


def test_fig2a_with_too_few_scans_fails_with_a_plain_error(capsys, tmp_path):
    for n_scans in (1, 2):
        code, out, err = _run(
            capsys, ["run", "fig2a", f"n_scans={n_scans}", "--output-dir", str(tmp_path)]
        )
        assert code == 2 and out == ""
        message = json.loads(err)["error"]
        assert "'n_scans' must be an integer >= 3" in message
        assert "SVD" not in message and "covariance" not in message


# Counts far above their caps; refused before anything is allocated.
HUGE_COUNTS = [
    (name, f"{key}={10**12}")
    for name in available_scenarios()
    for key in ("n_points", "n_emitters", "n_scans", "trials", "n_pulses", "max_fold")
    if key in SCENARIOS[name].defaults
]

# Overrides outside their key's domain that no edge of it reaches
# (tests/test_edge_probe.py runs those).  Before domains were checked up
# front, the first three ended in a traceback, the next in exit 0 with a
# header-only CSV, the next in numpy's SVD text plus LAPACK lines, and the
# next two in a NaN summary (exit 1) and a ZeroDivisionError.
OUT_OF_DOMAIN = [
    ("fig1e", "snr=0"),
    ("fig2a", "snr=0"),
    ("fig2b", "snr=0"),
    ("g2", "step_ns=-1"),
    ("fig2a", "field_step_mt=0"),
    ("loss_chain", "correction_splice=db nan"),
    ("loss_chain", "correction_splice=db inf"),
    # A correction outside its grammar: a db_per_km with no length transmitted
    # 1.0, a db's length was written and never used, an unknown kind named no key.
    ("loss_chain", "correction_fibre_attenuation=db_per_km 12"),
    ("loss_chain", "correction_splice=db 0.04 7"),
    ("loss_chain", "correction_splice=dB 0.04"),
    # A correction outside its range: the runner refused it by name, not by key.
    ("loss_chain", "correction_splice=db -1"),
    ("loss_chain", "correction_facet_scattering=fraction 0"),
    ("g2", "background=2"),
    # In range as written but not in base units (0.0 s and a subnormal width):
    # they ended in a ZeroDivisionError and in "spectrum values must be finite".
    ("g2", "step_ns=1e-320"),
    ("fig4b", "linewidth_mhz=1e-320"),
    ("g2", "max_delay_ns=1e-320"),  # a delay that became 0.0 s ran as a zero delay
    *HUGE_COUNTS,
]


@pytest.mark.parametrize("scenario, override", OUT_OF_DOMAIN)
def test_out_of_domain_value_exits_2_before_any_output(capsys, tmp_path, scenario, override):
    key = override.partition("=")[0]
    code, out, err = _run(capsys, ["run", scenario, override, "--output-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert f"'{key}'" in json.loads(err)["error"]
    assert not (tmp_path / scenario).exists()


# Runs that break a constraint of their scenario, one or more for each, all
# refused before any output.  The first four need an axis over the point cap.
# Grids with fewer points than their fit has parameters ended in "spectrum
# needs at least two grid points" or "4 data points cannot constrain 5
# parameters"; most of the rest, in an error from inside the run that named
# no key (fig2c "fidelity 0.5 must lie in (0.5, 0.986)", rabi and g2 "omega *
# t must be finite"), or in inf written into fig3c's coincidences.csv.  The
# last, a fig2a sweep whose outer lines left the grid, computed for 26 s and
# failed 874 of its 1000 scan fits.
BROKEN = [
    ("fig2a", ["grid_step_mhz=1e-9"]),
    ("fig1e", ["grid_step_mhz=1e-300"]),
    ("g2", ["step_ns=1e-12"]),
    ("fig1d", ["bin_width_ghz=1e-9"]),
    ("fig1e", ["grid_span_mhz=1"]),
    ("fig1e", ["grid_span_mhz=6"]),
    ("fig1e", ["grid_span_mhz=2.2250738585072014e-308"]),
    ("fig2a", ["grid_span_ghz=0.001"]),
    ("fig2a", ["grid_span_ghz=0.016"]),
    ("fig2b", ["grid_span_mhz=1"]),
    ("fig4b", ["grid_span_mhz=1"]),
    ("fig1d", ["inhomogeneous_fwhm_ghz=1e-300"]),
    ("fig2c", ["calibration_fidelity=0.5"]),
    ("fig3a", ["saturation_power_pw=1e300", "power_min_pw=1e-290"]),
    ("fig3b", ["mean_dark=5"]),
    ("fig3b", ["mean_bright=1000", "n_pulses=10"]),
    ("fig3b", ["fidelity_target=1"]),
    ("fig3c", ["repetition_rate_mhz=1e300"]),
    ("fig3c", ["duration_s=1.7976931348623157e308"]),
    ("loss_chain", ["measured_roundtrip=1"]),
    ("rabi", ["rabi_frequency_mhz=1e300", "max_time_ns=1e300"]),
    ("g2", ["rabi_frequency_mhz=1e300", "max_delay_ns=1e300", "step_ns=1e300"]),
    ("fig2a", ["n_scans=1000"]),
]


@pytest.mark.parametrize("scenario, overrides", BROKEN)
def test_a_broken_constraint_exits_2_naming_its_keys(capsys, tmp_path, scenario, overrides):
    code, out, err = _run(capsys, ["run", scenario, *overrides, "--output-dir", str(tmp_path)])
    assert code == 2 and out == "" and not (tmp_path / scenario).exists()
    error = _strict_json(err)["error"]
    (constraint,) = [c for c in SCENARIOS[scenario].constraints if error.startswith(c.describe())]
    assert {override.partition("=")[0] for override in overrides} <= set(constraint.keys)


# Spectra held at once: each count and each grid is under its cap, the
# product is not.  Refused before the first spectrum is synthesized.
POINTS_HELD = [
    ("fig2a", ["n_scans=1000", "grid_step_mhz=1"], "n_scans"),
    ("fig2b", ["n_emitters=1000", "grid_step_mhz=1"], "n_emitters"),
]


@pytest.mark.parametrize("scenario, overrides, key", POINTS_HELD)
def test_points_held_by_a_run_are_capped_before_any_synthesis(
    capsys, tmp_path, scenario, overrides, key
):
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, ["run", scenario, *overrides, "--output-dir", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert f"'{key}'" in payload["error"]
    assert f"at most {MAX_GRID_POINTS} points together" in payload["error"]
    assert set(payload) == {"error"}  # the scenario resolved, so no catalog
    assert not (tmp_path / scenario).exists()
    assert peak < 4_000_000  # one grid; 1000 spectra on it would be ~20-40 MB


@pytest.mark.parametrize(
    "scenario, override, fit_file",
    [
        ("fig1e", "linewidth_mhz=1e-9", "doublet_fit.json"),
        ("rabi", "max_time_ns=1e-20", "rabi_fit.json"),
    ],
)
def test_non_finite_fit_values_are_written_as_null(capsys, tmp_path, scenario, override, fit_file):
    code, out, _ = _run(capsys, ["run", scenario, override, "--output-dir", str(tmp_path)])
    assert code in (0, 1)
    _strict_json(out)
    payload = _strict_json((tmp_path / scenario / fit_file).read_text())
    assert None in payload["params"] + payload["uncertainties"]


def test_a_summary_value_beyond_the_float_range_is_null_and_fails(capsys, tmp_path):
    argv = ["run", "fig2a", "n_scans=3", "slope_ghz_per_t=2.2250738585072014e-308"]
    code, out, err = _run(capsys, [*argv, "--output-dir", str(tmp_path)])
    assert code == 1 and err == ""
    (row,) = [r for r in _strict_json(out)["entries"] if r["quantity"] == "inner_line_crossing_mt"]
    assert row["simulated"] is None and row["pass"] is False


# Once refused with exit 2 naming no key; the row now fails as it does in `run`.
def test_an_ensemble_row_beyond_the_float_range_is_null_and_fails(capsys):
    argv = ["fig2a", "n_scans=3", "slope_ghz_per_t=2.2250738585072014e-308", "--seeds", "2"]
    code, out, err = _run(capsys, ["ensemble", *argv])
    assert code == 1 and err == ""
    (entry,) = [e for e in _strict_json(out)["entries"] if e["quantity"] == "inner_line_crossing_mt"]
    assert [entry[key] for key in ("mean", "sd", "min", "max")] == [None] * 4
    assert entry["pass_rate"] == 0.0


# In-domain overrides whose fits once stepped out of the model's domain: a
# difference stencil or trial step reached t1 = 0 or tau = -1e-6 and the run
# ended in exit 2 ("bad input").  A fit that wanders off now fails as a fit.
FITS_THAT_LEAVE_THEIR_DOMAIN = [
    ("rabi", "rabi_frequency_mhz=1"),
    ("fig2c", "calibration_time_us=0.5"),
    ("lifetime", "lifetime_ns=0.5"),
]


@pytest.mark.parametrize("scenario, override", FITS_THAT_LEAVE_THEIR_DOMAIN)
def test_a_fit_that_leaves_its_domain_ends_in_a_summary(capsys, tmp_path, scenario, override):
    code, out, err = _run(capsys, ["run", scenario, override, "--output-dir", str(tmp_path)])
    assert code in (0, 1) and err == ""
    assert _strict_json(out)["scenario"] == scenario


@pytest.mark.parametrize("scenario, override", FITS_THAT_LEAVE_THEIR_DOMAIN)
def test_a_fit_stuck_at_a_degenerate_bound_is_not_converged(capsys, tmp_path, scenario, override):
    _run(capsys, ["run", scenario, override, "--output-dir", str(tmp_path)])
    (fit_file,) = (tmp_path / scenario).glob("*_fit.json")
    payload = json.loads(fit_file.read_text())
    assert payload["status"] == "singular"
    assert payload["uncertainties"] == [None] * len(payload["params"])
    stuck = {"rabi": "t1_ns", "fig2c": "tau", "lifetime": "tau"}[scenario]
    assert payload["message"].endswith(f"at a bound with a vanishing Jacobian column: {stuck}")


def test_a_fit_that_makes_no_progress_writes_every_uncertainty_as_null(capsys, tmp_path):
    _run(capsys, ["run", "rabi", "max_time_ns=1e-20", "--output-dir", str(tmp_path)])
    payload = _strict_json((tmp_path / "rabi" / "rabi_fit.json").read_text())
    assert payload["status"] == "singular" and "made no progress" in payload["message"]
    assert payload["uncertainties"] == [None, None]


def test_output_dir_env_var_and_flag_precedence(capsys, tmp_path, monkeypatch):
    env_root = tmp_path / "from_env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_root))
    code, _, _ = _run(capsys, ["run", "fig3c"])
    assert code == 0
    assert (env_root / "fig3c" / "summary.json").is_file()

    flag_root = tmp_path / "from_flag"
    code, _, _ = _run(capsys, ["run", "fig3c", "--output-dir", str(flag_root)])
    assert code == 0
    assert (flag_root / "fig3c" / "summary.json").is_file()
    assert not (env_root / "fig3c" / "coincidences.csv").read_text() == ""  # env run untouched


# --------------------------------------------------------------------------
# run with no target, ensemble
# --------------------------------------------------------------------------

def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_run_with_no_target_writes_the_trees_of_every_single_run(capsys, tmp_path):
    code, out, err = _run(capsys, ["run", "--output-dir", str(tmp_path / "all")])
    assert code == 0 and err == ""
    summaries = _strict_json(out)
    assert list(summaries) == available_scenarios()
    for name in available_scenarios():
        assert _run(capsys, ["run", name, "--output-dir", str(tmp_path / "one")])[0] == 0
    assert _tree(tmp_path / "all") == _tree(tmp_path / "one")
    for name, summary in summaries.items():
        assert summary == json.loads((tmp_path / "one" / name / "summary.json").read_text())


def test_run_with_overrides_and_no_target_exits_2_and_writes_nothing(capsys, tmp_path):
    code, out, err = _run(capsys, ["run", "seed=1", "--output-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert "'seed=1'" in _strict_json(err)["error"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "scenario, overrides", [("fig2a", ["n_scans=3"]), ("fig2c", [])], ids=["fig2a", "fig2c"]
)
def test_an_ensemble_aggregates_separate_runs_at_its_seeds(capsys, tmp_path, scenario, overrides):
    code, out, err = _run(capsys, ["ensemble", scenario, *overrides, "seed=7", "--seeds", "3"])
    assert err == "" and list(tmp_path.iterdir()) == []  # an ensemble writes nothing
    ensemble = _strict_json(out)
    runs = []
    for seed in (7, 8, 9):
        argv = ["run", scenario, *overrides, f"seed={seed}", "--output-dir", str(tmp_path)]
        runs.append(_strict_json(_run(capsys, argv)[1]))
    all_pass = all(run["all_pass"] for run in runs)
    assert code == (0 if all_pass else 1)
    assert {key: ensemble[key] for key in ("scenario", "config", "n_seeds", "all_pass")} == {
        "scenario": scenario, "config": runs[0]["config"], "n_seeds": 3, "all_pass": all_pass,
    }
    expected = []
    for rows in zip(*(run["entries"] for run in runs), strict=True):
        simulated = [row["simulated"] for row in rows]
        expected.append({
            "quantity": rows[0]["quantity"],
            "paper_value": rows[0]["paper_value"],
            "tolerance": rows[0]["tolerance"],
            "mean": statistics.mean(simulated),
            "sd": statistics.stdev(simulated),
            "min": min(simulated),
            "max": max(simulated),
            "pass_rate": sum(row["pass"] for row in rows) / 3,
        })
    assert ensemble["entries"] == expected


def test_an_ensemble_row_that_restates_the_config_has_sd_zero(capsys):
    code, out, _ = _run(capsys, ["ensemble", "fig2a", "n_scans=3", "--seeds", "5"])
    assert code in (0, 1)
    crossing = {e["quantity"]: e for e in _strict_json(out)["entries"]}["inner_line_crossing_mt"]
    assert crossing["sd"] == 0.0 and crossing["min"] == crossing["max"] == crossing["mean"]


def test_an_ensemble_of_one_seed_has_no_sd(capsys):
    code, out, _ = _run(capsys, ["ensemble", "fig2c", "--seeds", "1"])
    assert code == 0
    assert {entry["sd"] for entry in _strict_json(out)["entries"]} == {None}


# Bad input, each refused with one error object before any scenario runs.
ENSEMBLE_BAD_INPUT = [
    *(
        pytest.param(["fig2c", "--seeds", str(n)], "--seeds must be an integer >= 1 and <= 10000",
                     id=f"seeds={n}")
        for n in SEEDS.edges() if n not in SEEDS
    ),
    pytest.param(["fig2c", "--seeds", "1.5"], "--seeds", id="seeds=1.5"),
    pytest.param(["fig3c", "--seeds", "2"], "scenario 'fig3c' has no seed key", id="seedless"),
    pytest.param(["fig2c", "seed=1", "seed=2", "--seeds", "2"], "duplicate key 'seed'",
                 id="seed-twice"),
    pytest.param(["fig2a", "n_scans=2", "--seeds", "1"], "'n_scans' must be an integer >= 3",
                 id="n_scans=2"),
    *(
        pytest.param(["fig2a", override, "--seeds", "1"], f"'{override.partition('=')[0]}'",
                     id=override)
        for override in ("snr=0", "snr=nan", "slope_ghz_per_t=0", "field_step_mt=0",
                         "field_step_mt=-4.3", "seed=-1")
    ),
]


@pytest.mark.parametrize("argv, message", ENSEMBLE_BAD_INPUT)
def test_ensemble_refuses_bad_input_with_one_error(capfd, argv, message):
    code = main(["ensemble", *argv])
    captured = capfd.readouterr()  # file-descriptor level, so LAPACK's own prints would show
    assert code == 2 and captured.out == ""
    payload = _strict_json(captured.err)
    assert set(payload) == {"error"} and message in payload["error"]


# Command lines that argparse refuses: once its usage text, now one error object.
USAGE_ERRORS = [
    pytest.param(["ensemble", "fig2a"], "required: --seeds", id="ensemble-without-seeds"),
    pytest.param(["fit"], "required: request", id="fit-without-request"),
    pytest.param(["list", "--bogus"], "unrecognized arguments: --bogus", id="unknown-flag"),
    pytest.param(["run", "table_s1", "--bogus"], "unrecognized arguments: --bogus",
                 id="unknown-flag-after-a-target"),
    pytest.param(["--bogus", "list"], "unrecognized arguments: --bogus",
                 id="unknown-flag-before-the-subcommand"),
    pytest.param(["frobnicate"], "invalid choice: 'frobnicate'", id="unknown-subcommand"),
    pytest.param([], "required: command", id="no-subcommand"),
    pytest.param(["run", "--output-dir"], "--output-dir: expected one argument",
                 id="option-without-value"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_a_usage_error_is_one_error_object_with_exit_2(capfd, argv, message):
    code = main(argv)
    captured = capfd.readouterr()
    assert code == 2 and captured.out == ""
    payload = _strict_json(captured.err)
    assert set(payload) == {"error"} and message in payload["error"]


def test_a_usage_error_of_the_snvsim_process_is_one_error_object():
    completed = _module_run("-m", "snvsim.cli", "ensemble", "fig2a")
    assert completed.returncode == 2 and completed.stdout == ""
    assert _strict_json(completed.stderr) == {
        "error": "snvsim ensemble: the following arguments are required: --seeds"
    }


@pytest.mark.parametrize("argv", [["--help"], ["ensemble", "--help"]], ids=["top", "ensemble"])
def test_help_exits_0_with_the_usage_text(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 0 and captured.err == ""
    assert captured.out.startswith("usage: snvsim")


@pytest.mark.parametrize(
    "argv",
    [
        ["ensemble", "fig2a", "n_scans=3", "--seeds", "2", "snr=3"],
        ["ensemble", "--seeds", "2", "fig2a", "n_scans=3", "snr=3"],
    ],
    ids=["override-after-option", "option-before-target"],
)
def test_option_order_does_not_change_an_ensemble(capsys, argv):
    expected = _run(capsys, ["ensemble", "fig2a", "n_scans=3", "snr=3", "--seeds", "2"])
    assert expected[0] in (0, 1) and expected[2] == ""
    assert _run(capsys, argv) == expected


def test_an_override_may_follow_the_output_dir(capsys, tmp_path):
    first = _run(capsys, ["run", "g2", "seed=3", "--output-dir", str(tmp_path / "a")])
    second = _run(capsys, ["run", "g2", "--output-dir", str(tmp_path / "b"), "seed=3"])
    assert first == second and first[0] == 0
    assert _strict_json(first[1])["config"]["seed"] == 3


def test_ensemble_refuses_more_scans_than_fig2a_allows_before_allocating(capsys):
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, ["ensemble", "fig2a", f"n_scans={10**7}", "--seeds", "5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    expected = f"'n_scans' must be an integer >= 3 and <= {MAX_FITTED_SPECTRA}"
    assert expected in _strict_json(err)["error"]
    assert peak < 1_000_000


def test_readme_command_line_block_names_exactly_the_subcommands():
    section = (REPO / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    listed = set(re.findall(r"^snvsim (\w+)", block, re.MULTILINE))
    (subcommands,) = [
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert listed == set(subcommands)


def test_the_ci_smoke_step_runs_every_subcommand_with_exit_0(capsys, tmp_path):
    """The workflow's command lines, in order, from a fresh working directory."""
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text()
    step = workflow.split("name: Console script smoke run", 1)[1].split("- name:", 1)[0]
    assert "PYTHONWARNINGS: error" in step
    lines = [shlex.split(line) for line in re.findall(r"^ *snvsim (.+)$", step, re.MULTILINE)]
    assert {argv[0] for argv in lines} == set(build_parser().commands)
    for argv in lines:
        argv = [
            str(tmp_path / "all") if arg == "$RUNNER_TEMP/snvsim_out"
            else str(REPO / arg) if arg.startswith("configs/") else arg
            for arg in argv
        ]
        code, _, err = _run(capsys, argv)
        assert (code, err) == (0, ""), argv


# --------------------------------------------------------------------------
# fit
# --------------------------------------------------------------------------

def _doublet_csv(tmp_path):
    x = frequency_grid(-800e6, 800e6, 2e6)
    lines = [SpectralLine(-226e6, 70e6, 1.0), SpectralLine(226e6, 70e6, 1.0)]
    spectrum = synthesize_spectrum(lines, x, noise_sigma=0.05, seed=21)
    data_path = tmp_path / "doublet.csv"
    write_spectrum_csv(spectrum, data_path)
    return data_path


def test_fit_subcommand_converges_on_doublet(capsys, tmp_path):
    request = {
        "model": "lorentzian_multi",
        "model_args": {"n_lines": 2},
        "data_file": str(_doublet_csv(tmp_path)),
        "init": [80e6, -200e6, 0.9, 210e6, 1.1],
    }
    request_path = tmp_path / "request.json"
    request_path.write_text(json.dumps(request))
    code, out, err = _run(capsys, ["fit", str(request_path)])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["status"] == "converged"
    assert payload["model"] == "lorentzian_multi"
    assert payload["param_names"] == ["fwhm", "center_1", "amplitude_1", "center_2", "amplitude_2"]
    assert abs(payload["params"][1] - (-226e6)) < 2e6
    assert abs(payload["params"][3] - 226e6) < 2e6
    assert abs(payload["params"][0] - 70e6) < 0.05 * 70e6
    assert len(payload["uncertainties"]) == 5


def test_fit_shared_fwhm_true_names_the_one_lorentzian_layout(capsys, tmp_path):
    request = {"model": "lorentzian_multi", "data_file": str(_doublet_csv(tmp_path))}
    outputs = []
    for model_args in ({"n_lines": 2}, {"n_lines": 2, "shared_fwhm": True}):
        path = tmp_path / "request.json"
        path.write_text(json.dumps({**request, "model_args": model_args}))
        code, out, err = _run(capsys, ["fit", str(path)])
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_a_null_part_of_a_fit_request_is_an_absent_one(capsys, tmp_path):
    request = {"model": "lorentzian_multi", "data_file": str(_singlet_csv(tmp_path))}
    outputs = []
    for extra in ({}, dict.fromkeys(["init", "bounds", "options", "model_args"])):
        path = tmp_path / "request.json"
        path.write_text(json.dumps({**request, **extra}))
        code, out, err = _run(capsys, ["fit", str(path)])
        assert code == 0 and err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]


# Each number of a request is checked the way a config value is, and the error
# names its request key.  A bool once passed as a line count; a float count, a
# fractional max_iter, a string tol or a null init entry ended in a Python
# message that named no key; n_lines = 300000 built a 600,001-parameter model
# before fit() refused it.
BAD_DOUBLET_REQUESTS = [
    ({"model_args": {"n_lines": True}},
     "fit-request key 'model_args.n_lines' must be an integer >= 1 and <= 801, got True"),
    ({"model_args": {"n_lines": 2.0}}, "'model_args.n_lines' must be an integer"),
    ({"model_args": {"n_lines": 10**6}},
     "'model_args.n_lines' must be an integer >= 1 and <= 801, got 1000000"),
    ({"options": {"max_iter": 1.5}},
     "fit-request key 'options.max_iter' must be an integer >= 1, got 1.5"),
    ({"options": {"tol": "x"}}, "fit-request key 'options.tol' must be a finite number > 0, got 'x'"),
    ({"init": [80e6, None, 0.9, 210e6, 1.1]},
     "fit-request key 'init[1]' must be a finite number, got None"),
    ({"bounds": [[1e3, None], [None, True], [0, None], [None, None], [0, None]]},
     "fit-request key 'bounds[1]' must be a finite number, got True"),
    ({"model": "abs_cosine", "model_args": {}},
     "unknown model 'abs_cosine'; available: contrast_saturation, damped_rabi, exponential, "
     "gaussian, lorentzian_multi, reflection_dip, saturation"),
    ({"model": "reflection_dip", "model_args": {}}, "'fix_f_in'"),
    # lorentzian_multi has one layout; "false" once fitted it as if true.
    ({"model_args": {"n_lines": 2, "shared_fwhm": False}},
     "fit-request key 'model_args.shared_fwhm' must be true, got False"),
    ({"model_args": {"n_lines": 2, "shared_fwhm": "false"}},
     "fit-request key 'model_args.shared_fwhm' must be true, got 'false'"),
    ({"model_args": {"n_lines": 2, "shared_fwhm": 1}},
     "fit-request key 'model_args.shared_fwhm' must be true, got 1"),
    # A part of the wrong shape once ended in Python's own message, naming no key.
    ({"init": 5}, "fit-request key 'init' must be a list of numbers, got 5"),
    ({"bounds": [5, 6, 7]}, "fit-request key 'bounds[0]' must be a [lo, hi] pair, got 5"),
    ({"bounds": [[None, None], [None, None], 7, [None, None], [None, None]]},
     "fit-request key 'bounds[2]' must be a [lo, hi] pair, got 7"),
    ({"bounds": [[None, None], [None, None], [0, None, 1], [None, None], [0, None]]},
     "fit-request key 'bounds[2]' must be a [lo, hi] pair, got [0, None, 1]"),
    ({"bounds": {"fwhm": [0, None]}}, "fit-request key 'bounds' must be a list of [lo, hi] pairs"),
    ({"options": [1, 2]}, "fit-request key 'options' must be a JSON object, got [1, 2]"),
    ({"model_args": [1]}, "fit-request key 'model_args' must be a JSON object, got [1]"),
    # fix_f_in was checked only as finite: 0 returned the start as converged.
    *[({"model": "reflection_dip", "model_args": {"fix_f_in": f_in}},
       "fit-request key 'model_args.fix_f_in' must be a number in (0, 1] other than 0.5, "
       f"got {f_in!r}") for f_in in (0, -1.0, 2.0, 0.5)],
    # A count that did not match the model's parameters once named the model only.
    ({"init": [80e6, 1.0]},
     "fit-request key 'init' must be a list of numbers, one for each of fwhm, center_1, "
     "amplitude_1, center_2, amplitude_2, got [80000000.0, 1.0]"),
    ({"bounds": [[0, None]]},
     "fit-request key 'bounds' must be a list of [lo, hi] pairs, one for each of fwhm, "
     "center_1, amplitude_1, center_2, amplitude_2, got [[0, None]]"),
    # An unknown key once ended in Python's or FitOptions' message, naming no key.
    ({"model": "gaussian", "model_args": {"shared_fwhm": True}},
     "unknown fit-request keys: model_args.shared_fwhm; allowed: none"),
    ({"model": "exponential", "model_args": {"n_lines": 2}},
     "unknown fit-request keys: model_args.n_lines; allowed: none"),
    ({"options": {"damping_init": 1e-3}},
     "unknown fit-request keys: options.damping_init; allowed: max_iter, tol"),
]


def test_fit_request_validation_errors(capsys, tmp_path):
    data = _doublet_csv(tmp_path)

    def failing(request):
        path = tmp_path / "bad_request.json"
        path.write_text(json.dumps(request))
        code, out, err = _run(capsys, ["fit", str(path)])
        assert code == 2 and out == ""
        return _strict_json(err)["error"]

    doublet = {"model": "lorentzian_multi", "model_args": {"n_lines": 2}, "data_file": str(data)}
    for changes, message in BAD_DOUBLET_REQUESTS:
        assert message in failing({**doublet, **changes}), changes
    zero_power = tmp_path / "saturation.csv"
    zero_power.write_text("power_pw,rate_cps\n" + "".join(f"{p},{p / (1 + p)}\n" for p in range(6)))
    assert failing({"model": "saturation", "data_file": str(zero_power)}) == "power must be positive"

    assert "unknown model" in failing({"model": "nope", "data_file": str(data)})
    assert "data_file" in failing({"model": "gaussian"})
    assert "unknown fit-request keys" in failing(
        {"model": "gaussian", "data_file": str(data), "extra": 1}
    )
    assert "unknown fit-request keys" in failing(
        {"model": "gaussian", "data_file": str(data), "extra": None}
    )
    # The damping starts at a fixed 1e-3; options hold max_iter and tol only.
    assert "damping_init" in failing(
        {"model": "gaussian", "data_file": str(data), "options": {"damping_init": 1e-3}}
    )
    code, _, err = _run(capsys, ["fit", str(tmp_path / "missing.json")])
    assert code == 2
    assert "missing.json" in json.loads(err)["error"]

    not_json = tmp_path / "not.json"
    not_json.write_text("{broken")
    code, _, _ = _run(capsys, ["fit", str(not_json)])
    assert code == 2


def test_fit_start_goes_in_init_not_in_model_args(capsys, tmp_path):
    request = {
        "model": "lorentzian_multi",
        "model_args": {"n_lines": 2, "init": [80e6, -200e6, 0.9, 210e6, 1.1]},
        "data_file": str(_doublet_csv(tmp_path)),
    }
    path = tmp_path / "init_in_model_args.json"
    path.write_text(json.dumps(request))
    code, out, err = _run(capsys, ["fit", str(path)])
    assert code == 2 and out == ""
    assert "'init'" in json.loads(err)["error"]


def test_fit_respects_bounds_with_null_endpoints(capsys, tmp_path):
    request = {
        "model": "lorentzian_multi",
        "model_args": {"n_lines": 1},
        "data_file": str(_singlet_csv(tmp_path)),
        "init": [80e6, 10e6, 1.0],
        "bounds": [[1e6, None], [None, None], [0.0, None]],
    }
    path = tmp_path / "bounded.json"
    path.write_text(json.dumps(request))
    code, out, _ = _run(capsys, ["fit", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "converged"
    assert abs(payload["params"][1]) < 2e6


def test_fit_reads_any_two_column_header_and_unsorted_x(capsys, tmp_path):
    assert _run(capsys, ["run", "lifetime", "--output-dir", str(tmp_path)])[0] == 0
    decay = tmp_path / "lifetime" / "decay.csv"
    header, *rows = decay.read_text().splitlines()
    assert header == "t_ns,value"
    reversed_decay = tmp_path / "decay_reversed.csv"
    reversed_decay.write_text("\n".join([header, *rows[::-1]]) + "\n")
    for data_file in (decay, reversed_decay):
        request = {"model": "exponential", "data_file": str(data_file), "init": [0.0, 800.0, 5.0]}
        path = tmp_path / "exponential.json"
        path.write_text(json.dumps(request))
        code, out, err = _run(capsys, ["fit", str(path)])
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["status"] == "converged"
        assert payload["param_names"] == ["baseline", "amplitude", "tau"]
        assert abs(payload["params"][2] - 5.56) < 0.11  # ns


@pytest.mark.parametrize(
    "header, message",
    [("a,b,c,d", "expected 2 or 3 columns, found 4"), ("t,v", "header has 2 columns, data rows 4")],
)
def test_fit_rejects_four_data_columns(capsys, tmp_path, header, message):
    data = tmp_path / "four.csv"
    data.write_text(header + "\n" + "".join(f"{i},{i},1,0\n" for i in range(5)))
    path = tmp_path / "four.json"
    path.write_text(json.dumps({"model": "exponential", "data_file": str(data)}))
    code, out, err = _run(capsys, ["fit", str(path)])
    assert code == 2 and out == ""
    assert message in json.loads(err)["error"]


@pytest.mark.parametrize("column", [1, 2])
def test_fit_on_a_non_finite_cell_exits_2(capsys, tmp_path, column):
    rows = [[f"{i}", f"{1.0 / (1 + (i - 10) ** 2)}", "0.1"] for i in range(21)]
    rows[5][column] = "nan"
    data = tmp_path / "with_nan.csv"
    data.write_text("x,value,err\n" + "".join(",".join(row) + "\n" for row in rows))
    path = tmp_path / "with_nan.json"
    request = {"model": "lorentzian_multi", "data_file": str(data), "init": [2.0, 10.0, 1.0]}
    path.write_text(json.dumps(request))
    code, out, err = _run(capsys, ["fit", str(path)])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"{['y', 'y_err'][column - 1]} must be finite"}


def _singlet_csv(tmp_path):
    x = frequency_grid(-500e6, 500e6, 2e6)
    spectrum = synthesize_spectrum([SpectralLine(0.0, 70e6, 1.0)], x, noise_sigma=0.03, seed=5)
    path = tmp_path / "singlet.csv"
    write_spectrum_csv(spectrum, path)
    return path


# --------------------------------------------------------------------------
# budget
# --------------------------------------------------------------------------

def test_budget_subcommand_matches_frozen_total(capsys):
    code, out, err = _run(capsys, ["budget", TABLE_S1_CFG])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert abs(report["total_fraction"] - 0.017459139672) < 1e-12
    assert len(report["stages"]) == 7
    assert math.isclose(
        report["total_loss_db"], -10.0 * math.log10(report["total_fraction"]), rel_tol=1e-12
    )


def test_budget_subcommand_override_rescales_total(capsys):
    code, out, _ = _run(
        capsys, ["budget", TABLE_S1_CFG, "stage_detector_efficiency=1.0"]
    )
    assert code == 0
    report = json.loads(out)
    assert math.isclose(report["total_fraction"], 0.017459139672 / 0.68, rel_tol=1e-12)


@pytest.mark.parametrize(
    "override, message",
    [
        # A misspelt stage once added an eighth stage: total 0.01571, not 0.01746.
        ("stage_detectr_efficiency=0.9", "unknown config keys for"),
        ("foo=1", "unknown config keys for"),
        # The file selects table_s1, so its keys are checked as `snvsim run` checks them.
        ("measured_efficiency=banana", "config key 'measured_efficiency' must be a number in"),
    ],
    ids=["misspelt-stage", "no-such-key", "bad-measured-efficiency"],
)
def test_a_budget_override_must_name_a_key_of_the_file(capsys, override, message):
    code, out, err = _run(capsys, ["budget", TABLE_S1_CFG, override])
    assert code == 2 and out == ""
    error = _strict_json(err)["error"]
    assert message in error and override.split("=")[0] in error


def test_budget_subcommand_error_paths(capsys, tmp_path):
    code, _, err = _run(capsys, ["budget", str(tmp_path / "missing.cfg")])
    assert code == 2
    assert "missing.cfg" in json.loads(err)["error"]

    no_stages = tmp_path / "empty.cfg"
    no_stages.write_text("other = 1\n")
    code, _, err = _run(capsys, ["budget", str(no_stages)])
    assert code == 2
    assert "stage_" in json.loads(err)["error"]

    code, out, err = _run(capsys, ["budget", TABLE_S1_CFG, "stage_detector_efficiency=true"])
    assert code == 2 and out == ""
    assert "'stage_detector_efficiency'" in json.loads(err)["error"]

    # A file that selects no scenario still takes overrides of its own keys only.
    plain = tmp_path / "plain.cfg"
    plain.write_text("stage_a = 0.5\n")
    assert _run(capsys, ["budget", str(plain), "stage_a=0.25"])[0] == 0
    code, out, err = _run(capsys, ["budget", str(plain), "stage_b=0.5"])
    error = json.loads(err)["error"]
    assert code == 2 and out == "" and "unknown config keys" in error and "stage_b" in error


@pytest.mark.parametrize(
    "argv",
    [["budget", TABLE_S1_CFG], ["run", "table_s1", "--output-dir", "out"]],
    ids=["budget", "run-table_s1"],
)
def test_a_stage_product_that_underflows_exits_2_and_names_the_stage(capsys, argv):
    overrides = ["stage_pi_pulse_fidelity=1e-200", "stage_quantum_efficiency=1e-200"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, [*argv, *overrides])
    assert code == 2 and out == ""
    error = _strict_json(err)["error"]
    assert error.startswith("config key 'stage_quantum_efficiency'") and "underflows" in error


# --------------------------------------------------------------------------
# import cost
# --------------------------------------------------------------------------

def test_cli_import_loads_no_scipy():
    """scipy is a test-only dependency; importing the CLI must not pull it in."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        "import sys; import snvsim.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {probe}"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert completed.stdout.strip() == "[]"


SRC = str(REPO / "src")


def _module_run(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


CONFIGS = REPO / "configs"
#: What a call that computes no array must not import; ``inspect`` comes with ``dataclasses``.
COLD_PATH_FORBIDDEN = ("dataclasses", "inspect", "numpy", "scipy")
#: The package modules such a call loads: the stdlib-only layers and the CLI.
COLD_PATH_MODULES = [
    "snvsim", "snvsim.artifacts", "snvsim.cli", "snvsim.config", "snvsim.efficiency",
    "snvsim.registry", "snvsim.units",
]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["list"], 0),
        (["budget", str(CONFIGS / "table_s1.cfg")], 0),
        (["run", "table_s1"], 0),
        (["run", str(CONFIGS / "loss_chain.cfg")], 0),
        (["run", "table_s1", "no_such_key=1"], 2),
        (["ensemble", "fig2a", "n_scans=2", "--seeds", "3"], 2),
    ],
)
def test_commands_that_compute_no_array_load_no_numpy(tmp_path, argv, code):
    """Neither ``import snvsim.cli`` nor the call loads numpy, scipy or
    dataclasses (with the inspect chain it imports), and the call loads
    exactly the stdlib-only layers of the package."""
    probe = (
        "import contextlib, io, json, sys\n"
        "def loaded():\n"
        f"    return [name for name in {COLD_PATH_FORBIDDEN!r} if name in sys.modules]\n"
        "from snvsim.cli import main\n"
        "after_import = loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "package = sorted(name for name in sys.modules if name.partition('.')[0] == 'snvsim')\n"
        "print(json.dumps([code, after_import, loaded(), package]))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    completed = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert completed.stderr == ""
    assert json.loads(completed.stdout) == [code, [], [], COLD_PATH_MODULES]


def test_import_snvsim_keeps_its_public_names_and_loads_them_on_first_use():
    probe = (
        "import sys, snvsim\n"
        "before = 'numpy' in sys.modules\n"
        "values = {name: getattr(snvsim, name) for name in snvsim.__all__}\n"
        "same = snvsim.run_scenario is snvsim.scenarios.run_scenario\n"
        "print(before, 'numpy' in sys.modules, same, *sorted(values))\n"
    )
    completed = _module_run("-c", probe)
    assert completed.returncode == 0, completed.stderr
    numpy_before, numpy_after, same, *names = completed.stdout.split()
    assert (numpy_before, numpy_after, same) == ("False", "True", "True")
    assert set(names) >= {
        "config", "fitting", "optical_dynamics", "photon_budget", "scenarios", "spectra",
        "spin_hamiltonian", "units", "waveguide_qed", "available_scenarios", "run_scenario",
        "__version__",
    }
    with pytest.raises(AttributeError, match="no_such_layer"):
        getattr(__import__("snvsim"), "no_such_layer")


def test_python_m_snvsim_cli_runs_without_a_runpy_warning():
    completed = _module_run("-W", "error::RuntimeWarning", "-m", "snvsim.cli", "list")
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr == ""


def test_a_fit_through_overflowing_trial_steps_prints_no_warning(tmp_path):
    completed = _module_run(
        "-m", "snvsim.cli", "run", "fig2c", "calibration_time_us=0.5", "--output-dir", str(tmp_path)
    )
    assert completed.returncode in (0, 1) and completed.stderr == ""
    _strict_json(completed.stdout)


def test_a_stdout_closed_early_ends_in_status_1_without_a_traceback():
    # The reader closes its end before the call writes, so every write fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "snvsim.cli", "list"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (completed.returncode, completed.stderr) == (1, "")
