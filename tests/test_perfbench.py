"""The benchmark harness under ``perfbench/`` still binds to the package.

The harness imports snvsim names and wraps layer entry points by object
identity, so a renamed or moved function breaks it; these checks make that
a test failure rather than a failed benchmark run.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from snvsim import artifacts, fitting, photon_budget, scenarios, spectra

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload", ["cli_cold", "field_sweep", "scenario_suite"])
def test_each_workload_sets_up(tmp_path, workload):
    completed = subprocess.run(
        [sys.executable, str(PERFBENCH / "workloads.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--work-root", str(tmp_path), "--setup-only"],
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith("ready ")


def test_the_tracer_wraps_the_layer_entry_points_and_puts_them_back():
    spec = importlib.util.spec_from_file_location("benchtrace", PERFBENCH / "benchtrace.py")
    benchtrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(benchtrace)
    bindings = [
        (fitting, "fit"),
        (scenarios, "fit"),
        (spectra, "synthesize_spectrum"),
        (spectra, "write_spectrum_csv"),
        (artifacts, "write_spectrum_csv"),  # the binding scenario runs write spectra through
        (photon_budget, "simulate_readout"),
        (photon_budget, "calibrate_readout_model"),
    ]
    originals = [getattr(module, name) for module, name in bindings]
    with benchtrace.Tracer().installed():
        wrapped = [getattr(module, name) for module, name in bindings]
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [getattr(module, name) for module, name in bindings] == originals
