"""Command-line interface: subcommands, exit codes, JSON contracts."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snvsim.cli import main
from snvsim.registry import OUTPUT_DIR_ENV, SCENARIOS, available_scenarios
from snvsim.spectra import SpectralLine, frequency_grid, synthesize_spectrum, write_spectrum_csv

FIVE_FOLD_PER_DAY = 7.0631350272
# Absolute, because the autouse fixture below changes into a temporary directory.
TABLE_S1_CFG = str(Path(__file__).resolve().parents[1] / "configs" / "table_s1.cfg")


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

# Overrides outside their key's domain.  Before domains were checked up
# front, the first eight ended in a traceback, the next two in exit 0 with a
# header-only CSV, the next in numpy's SVD text plus LAPACK lines, and the
# next two in a NaN summary (exit 1) and a ZeroDivisionError.  The two after
# them are in range as written but not in base units (0.0 s and a subnormal
# width); they ended in a ZeroDivisionError and in "spectrum values must be
# finite".
OUT_OF_DOMAIN = [
    ("fig1d", "bin_width_ghz=0"),
    ("fig1e", "snr=0"),
    ("fig2a", "snr=0"),
    ("fig2a", "slope_ghz_per_t=0"),
    ("fig2b", "snr=0"),
    ("fig3b", "n_pulses=0"),
    ("table_s1", "measured_efficiency=0"),
    ("g2", "step_ns=0"),
    ("g2", "step_ns=-1"),
    ("fig3c", "max_fold=0"),
    ("fig2a", "field_step_mt=0"),
    ("loss_chain", "correction_splice=db nan"),
    ("loss_chain", "correction_splice=db inf"),
    ("g2", "step_ns=1e-320"),
    ("fig4b", "linewidth_mhz=1e-320"),
    *HUGE_COUNTS,
]


@pytest.mark.parametrize("scenario, override", OUT_OF_DOMAIN)
def test_out_of_domain_value_exits_2_before_any_output(capsys, tmp_path, scenario, override):
    key = override.partition("=")[0]
    code, out, err = _run(capsys, ["run", scenario, override, "--output-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert f"'{key}'" in json.loads(err)["error"]
    assert not (tmp_path / scenario).exists()


def test_fig2c_calibration_at_the_unpumped_fidelity_exits_2(capsys, tmp_path):
    code, out, err = _run(
        capsys, ["run", "fig2c", "calibration_fidelity=0.5", "--output-dir", str(tmp_path)]
    )
    assert code == 2 and out == ""
    assert "fidelity 0.5 must lie in (0.5, 0.986)" in json.loads(err)["error"]
    assert not (tmp_path / "fig2c").exists()


# Axes that would need more than MAX_GRID_POINTS points; refused before allocation.
OVER_THE_CAP = [
    ("fig2a", "grid_step_mhz=1e-9"),
    ("fig1e", "grid_step_mhz=1e-300"),
    ("g2", "step_ns=1e-12"),
    ("fig1d", "bin_width_ghz=1e-9"),
]


@pytest.mark.parametrize("scenario, override", OVER_THE_CAP)
def test_axes_over_the_point_cap_exit_2_before_any_output(capsys, tmp_path, scenario, override):
    code, out, err = _run(capsys, ["run", scenario, override, "--output-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert "exceeds the cap" in json.loads(err)["error"]
    assert not (tmp_path / scenario).exists()


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
    assert key in payload["error"] and "exceeds the cap" in payload["error"]
    assert set(payload) == {"error"}  # the scenario resolved, so no catalog
    assert not (tmp_path / scenario).exists()
    assert peak < 4_000_000  # one grid; 1000 spectra on it would be ~20-40 MB


@pytest.mark.parametrize(
    "scenario, override, fit_file",
    [
        ("fig1e", "linewidth_mhz=1e-9", "doublet_fit.json"),
        ("rabi", "max_time_ns=1e-9", "rabi_fit.json"),
    ],
)
def test_non_finite_fit_values_are_written_as_null(capsys, tmp_path, scenario, override, fit_file):
    code, out, _ = _run(capsys, ["run", scenario, override, "--output-dir", str(tmp_path)])
    assert code in (0, 1)
    _strict_json(out)
    payload = _strict_json((tmp_path / scenario / fit_file).read_text())
    assert None in payload["params"] + payload["uncertainties"]


NUMERIC_KEYS = {
    name: [key for key, default in SCENARIOS[name].defaults.items() if not isinstance(default, str)]
    for name in available_scenarios()
}
PROBE_VALUES = ["-1", "-0.5", "0", "0.5", "1", "2", "3"]
# Fewer scans / emitters run the same code; at the defaults one fig2a draw
# with a sub-step linewidth takes ~8 s.  A drawn value for the key wins.
SMALLER = {"fig2a": ["n_scans=3"], "fig2b": ["n_emitters=3"]}


@st.composite
def _scenario_override(draw):
    name = draw(st.sampled_from(available_scenarios()))
    key = draw(st.sampled_from(NUMERIC_KEYS[name]))
    return name, f"{key}={draw(st.sampled_from(PROBE_VALUES))}"


@settings(max_examples=60, deadline=None)
@given(case=_scenario_override())
@example(case=("fig1d", "bin_width_ghz=0"))
@example(case=("fig1e", "snr=0"))
@example(case=("fig2a", "snr=0"))
@example(case=("fig2a", "slope_ghz_per_t=0"))
@example(case=("fig2b", "snr=0"))
@example(case=("fig3b", "n_pulses=0"))
@example(case=("table_s1", "measured_efficiency=0"))
@example(case=("g2", "step_ns=0"))
@example(case=("g2", "step_ns=-1"))
@example(case=("fig3c", "max_fold=0"))
@example(case=("fig2a", "field_step_mt=0"))
@example(case=("fig2c", "calibration_fidelity=0.5"))
@example(case=("loss_chain", "correction_splice=db nan"))
@example(case=("loss_chain", "correction_splice=db inf"))
@example(case=("fig1e", "linewidth_mhz=1e-9"))
@example(case=("rabi", "max_time_ns=1e-9"))
@example(case=("fig1d", "n_emitters=1"))
@example(case=("fig2a", "grid_step_mhz=1e-9"))
@example(case=("fig1e", "grid_step_mhz=1e-300"))
@example(case=("g2", "step_ns=1e-12"))
@example(case=("fig1d", "bin_width_ghz=1e-9"))
def test_every_run_ends_in_strict_json_or_a_validation_error(case):
    """Exit 0/1 with strict JSON on stdout and in every artifact, or exit 2
    with empty stdout and ``{"error": ...}`` on stderr; never an exception."""
    scenario, override = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as root:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True):  # numeric warnings are not the contract
                argv = ["run", scenario, *SMALLER.get(scenario, []), override]
                code = main(argv + ["--output-dir", root])
        if code in (0, 1):
            _strict_json(out.getvalue())
            for path in Path(root).rglob("*.json"):
                _strict_json(path.read_text())
        else:
            assert code == 2 and out.getvalue() == ""
            assert "error" in json.loads(err.getvalue())


for _case in HUGE_COUNTS:
    test_every_run_ends_in_strict_json_or_a_validation_error = example(case=_case)(
        test_every_run_ends_in_strict_json_or_a_validation_error
    )


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


def test_fit_request_validation_errors(capsys, tmp_path):
    data = _doublet_csv(tmp_path)

    def failing(request):
        path = tmp_path / "bad_request.json"
        path.write_text(json.dumps(request))
        code, out, err = _run(capsys, ["fit", str(path)])
        assert code == 2 and out == ""
        return json.loads(err)["error"]

    assert "unknown model" in failing({"model": "nope", "data_file": str(data)})
    assert "data_file" in failing({"model": "gaussian"})
    assert "unknown fit-request keys" in failing(
        {"model": "gaussian", "data_file": str(data), "extra": 1}
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


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _module_run(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["list"], 0),
        (["budget", str(CONFIGS / "table_s1.cfg")], 0),
        (["run", "table_s1"], 0),
        (["run", str(CONFIGS / "loss_chain.cfg")], 0),
        (["run", "table_s1", "no_such_key=1"], 2),
    ],
)
def test_commands_that_compute_no_array_load_no_numpy(tmp_path, argv, code):
    probe = (
        "import contextlib, io, sys\n"
        "from snvsim.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    completed = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert completed.stderr == ""
    assert completed.stdout.split() == [str(code), "False"]


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
