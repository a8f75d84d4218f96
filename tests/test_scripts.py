"""The experiment scripts under ``scripts/``, each loaded by path and run via ``main(argv)``."""

from __future__ import annotations

import csv
import importlib.util
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from snvsim import spin_hamiltonian
from snvsim.scenarios import MAX_FITTED_SPECTRA, field_sweep
from snvsim.spectra import frequency_grid

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = REPO / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """Keep default-path writes out of the working tree."""
    monkeypatch.chdir(tmp_path)


def test_field_sweep_study_row_equals_a_direct_field_sweep(tmp_path, capsys):
    study = _load("field_sweep_study")
    out = tmp_path / "sweep"
    argv = ["--snr", "10", "--repeats", "1", "--n-scans", "6", "--output-dir", str(out)]
    assert study.main(argv) == 0
    assert "wrote" in capsys.readouterr().out
    with open(out / "sweep_results.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["snr", "repeat", "slope_ghz_per_t", "intercept_mhz"]
    assert len(rows) == 2

    # The script's defaults, converted as the script converts them: 452 MHz,
    # 5.41 GHz/T, 70 MHz lines, 2.4 GHz span in 5 MHz steps, 4.3 mT field steps,
    # seed 2026; the noise streams are keyed by (seed, snr * 1000, repeat, scan).
    transition = spin_hamiltonian.OpticalTransitionParams.from_cyclic_hz(452.0 * 1e6, 5.41 * 1e9)
    span = 2.4 * 1e9
    x = frequency_grid(-span / 2.0, span / 2.0, 5.0 * 1e6)
    seeds = [np.random.SeedSequence([2026, 10_000, 0, k]) for k in range(6)]
    sweep = field_sweep(transition, np.arange(6) * 4.3 * 1e-3, x, 70.0 * 1e6, 1.0 / 10.0, seeds)
    slope, intercept = sweep.coeffs
    assert float(rows[1][2]) == float(slope) / 1e9
    assert float(rows[1][3]) == float(intercept) / 1e6

    summary = json.loads((out / "sweep_summary.json").read_text())
    assert [entry["snr"] for entry in summary["per_snr"]] == [10.0]


def test_field_sweep_study_needs_three_scans(tmp_path, capsys):
    study = _load("field_sweep_study")
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as exit_info:
        study.main(["--n-scans", "2", "--repeats", "1", "--output-dir", str(out)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines()[-1].endswith(
        "error: argument --n-scans: must be an integer >= 3 and <= 1000, got '2'"
    )
    assert not out.exists()


def test_field_sweep_study_refuses_more_scans_than_fig2a_before_allocating(tmp_path, capsys):
    study = _load("field_sweep_study")
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as exit_info:
            study.main(["--n-scans", str(10**7), "--output-dir", str(tmp_path / "sweep")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exit_info.value.code == 2
    expected = f"--n-scans: must be an integer >= 3 and <= {MAX_FITTED_SPECTRA}"
    assert expected in capsys.readouterr().err
    assert peak < 1_000_000
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["--snr", "5", "0"], "--snr"),
        (["--snr", "nan"], "--snr"),
        (["--repeats", "0"], "--repeats"),
        (["--slope-ghz-per-t", "0"], "--slope-ghz-per-t"),
        (["--field-step-mt", "0"], "--field-step-mt"),
        (["--field-step-mt", "-4.3"], "--field-step-mt"),
        (["--seed", "-1"], "--seed"),
    ],
)
def test_field_sweep_study_rejects_bad_options(tmp_path, capfd, argv, option):
    study = _load("field_sweep_study")
    small = ["--snr", "5", "--repeats", "1", "--n-scans", "3"]  # overridden by argv
    with pytest.raises(SystemExit) as exit_info:
        study.main([*small, *argv, "--output-dir", str(tmp_path / "sweep")])
    assert exit_info.value.code == 2
    captured = capfd.readouterr()  # file-descriptor level, so LAPACK's own prints show too
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and option in errors[0]
    assert "DLASCL" not in captured.err and "Traceback" not in captured.err
    assert not (tmp_path / "sweep").exists()


def test_readme_lists_exactly_the_scripts():
    readme = (REPO / "README.md").read_text()
    section = readme.split("## Experiment scripts", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`scripts/([\w.]+\.py)`", section))
    assert listed == {path.name for path in SCRIPTS.glob("*.py")}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["g2", "isotopes"], 0),
        (["no_such_scenario"], 2),
        (["g2", "--set", "background=0.6"], 1),
        (["g2", "--set", "background=2"], 2),
    ],
)
def test_run_all_scenarios_exit_codes(tmp_path, capsys, argv, code):
    runner = _load("run_all_scenarios")
    assert runner.main([*argv, "--output-dir", str(tmp_path)]) == code
    capsys.readouterr()


def test_run_all_scenarios_refuses_a_repeated_override_key(tmp_path, capsys):
    runner = _load("run_all_scenarios")
    argv = ["g2", "--set", "seed=1", "--set", "seed=60", "--output-dir", str(tmp_path)]
    assert runner.main(argv) == 2
    assert "duplicate key 'seed'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
