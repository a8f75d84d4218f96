"""The scenario registry: names, descriptions, config keys, and ``run_scenario``.

Each entry names its runner as ``"<module>:<function>"`` inside the
package; :meth:`Scenario.run` imports that module when the scenario runs,
so listing the scenarios or checking a config loads no runner, and the
scalar ``table_s1`` and ``loss_chain`` runners (in
:mod:`snvsim.efficiency`) load no numpy.  The runners that synthesize and
fit data live in :mod:`snvsim.scenarios`.

Output locations
----------------
Runners compute and write nothing.  A runner returns ``(rows, artifacts,
notes)``; ``artifacts`` maps an index key to ``(name, payload)``, a payload
being a ``(header, columns)`` table, a spectrum, a JSON object or, for a
directory, ``{file name: payload}``.  ``run_scenario`` alone writes: after
the runner returns, it replaces ``<root>/<scenario-name>/`` with exactly the
artifacts plus ``summary.json`` and ``report.txt``, which index them by key.
Every CSV ends its lines with ``\n``.  The root is (in precedence order) the
``output_root`` argument, ``$SNVSIM_OUTPUT_DIR``, or ``./snvsim_output``.

Configuration
-------------
Every scenario declares its keys once, in one table: key -> (default,
domain).  Each key has one spelling; a dimensioned key carries its unit in
the suffix (``linewidth_mhz``).  A config file selects its scenario with a
``scenario = <name>`` key; command-line ``key=value`` pairs override both.
Unknown keys and values outside their domain are rejected before anything
is written; the runner gets the checked values in base units, under the
key with its unit suffix stripped (``cfg["linewidth"]`` in Hz).

This module imports only the standard library.
"""

from __future__ import annotations

import importlib
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

from . import config as config_mod
from .artifacts import write_artifact
from .config import (
    CORRECTION, FRACTION, MAX_GRID_POINTS, NON_NEGATIVE, OPEN_FRACTION, POSITIVE, REAL, SEED,
    choice, count,
)
from .units import NUCLEAR_GYROMAGNETIC_HZ_PER_T

#: Environment variable overriding the default artifact root directory.
OUTPUT_DIR_ENV = "SNVSIM_OUTPUT_DIR"

_DEFAULT_OUTPUT_ROOT = "snvsim_output"

# Upper bounds of the integer counts that size what a run allocates; a
# sampled axis (``n_points``) is capped like every grid, at MAX_GRID_POINTS.
#: fig2a scans and fig2b emitters: each is a spectrum held until written, a fit and a CSV;
#: the points of all of them together are capped at MAX_GRID_POINTS as well.
MAX_FITTED_SPECTRA = 1000
#: fig1d emitters: each is a center and a splitting in two float arrays.
_MAX_ENSEMBLE = 10**5
#: fig3b readouts per state: one multinomial draw each, so this bounds counts, not arrays.
_MAX_TRIALS = 10**6
#: fig3b pulses per readout window: the exact count distribution takes n_pulses^2 work.
_MAX_PULSES = 10**4
#: fig3c coincidence orders: each is a row of the table.
_MAX_FOLD = 10**3


@dataclass(frozen=True)
class Scenario:
    """A named, self-configured scenario and the runner that computes it."""

    name: str
    description: str
    runner: str  # "<module>:<function>" in this package
    keys: dict  # key -> (default, Domain), in config order

    @property
    def defaults(self) -> dict:
        """``{key: default}`` in config order."""
        return {key: default for key, (default, _) in self.keys.items()}

    def run(self, values: dict) -> tuple[list, dict, list]:
        """Call the runner on checked values, importing its module on first use."""
        module, _, function = self.runner.partition(":")
        return getattr(importlib.import_module(f"{__package__}.{module}"), function)(values)


@dataclass(frozen=True)
class ScenarioResult:
    """Everything a scenario run produced."""

    name: str
    out_dir: Path
    rows: list
    artifacts: dict
    notes: list

    @property
    def all_pass(self) -> bool:
        return all(row["pass"] for row in self.rows)


_SCENARIOS = [
    Scenario(
        name="fig1d",
        description="Inhomogeneous distribution of emitter optical frequencies with Gaussian fit (Fig. 1d).",
        runner="scenarios:_run_fig1d",
        keys={
            "seed": (11, SEED),
            "n_emitters": (10000, count(2, _MAX_ENSEMBLE)),
            "inhomogeneous_fwhm_ghz": (90.0, POSITIVE),
            "bin_width_ghz": (2.0, POSITIVE),
        },
    ),
    Scenario(
        name="fig1e",
        description="Zero-field resonant-excitation doublet of a single register, with the ground-manifold level table (Fig. 1e).",
        runner="scenarios:_run_fig1e",
        keys={
            "seed": (12, SEED),
            "zero_field_splitting_mhz": (452.0, POSITIVE),
            "linewidth_mhz": (70.0, POSITIVE),
            "snr": (20.0, POSITIVE),
            "grid_span_mhz": (1600.0, POSITIVE),
            "grid_step_mhz": (2.0, POSITIVE),
        },
    ),
    Scenario(
        name="fig2a",
        description="Optical line quartet versus magnetic field; slope and zero-field splitting from the outer-line span (Fig. 2a).",
        runner="scenarios:_run_fig2a",
        keys={
            "seed": (21, SEED),
            "n_scans": (35, count(3, MAX_FITTED_SPECTRA)),
            "field_start_mt": (0.0, REAL),
            "field_step_mt": (4.3, POSITIVE),
            "zero_field_splitting_mhz": (452.0, POSITIVE),
            "slope_ghz_per_t": (5.41, POSITIVE),
            "linewidth_mhz": (70.0, POSITIVE),
            "snr": (15.0, POSITIVE),
            "grid_span_ghz": (2.4, POSITIVE),
            "grid_step_mhz": (5.0, POSITIVE),
        },
    ),
    Scenario(
        name="fig2b",
        description="Hyperfine splitting across an ensemble of emitters (Fig. 2b).",
        runner="scenarios:_run_fig2b",
        keys={
            "seed": (22, SEED),
            "n_emitters": (12, count(2, MAX_FITTED_SPECTRA)),
            "splitting_mean_mhz": (452.0, NON_NEGATIVE),
            "splitting_sigma_mhz": (7.0, NON_NEGATIVE),
            "linewidth_mhz": (70.0, POSITIVE),
            "snr": (15.0, POSITIVE),
            "grid_span_mhz": (1200.0, POSITIVE),
            "grid_step_mhz": (2.0, POSITIVE),
        },
    ),
    Scenario(
        name="fig2c",
        description="Nuclear-spin initialization fidelity versus optical pumping time (Fig. 2c).",
        runner="scenarios:_run_fig2c",
        keys={
            "seed": (23, SEED),
            "steady_fidelity": (0.986, FRACTION),
            "calibration_time_us": (30.0, POSITIVE),
            "calibration_fidelity": (0.980, FRACTION),
            "n_points": (60, count(3, MAX_GRID_POINTS)),
            "max_time_us": (30.0, POSITIVE),
            "noise_sigma": (0.003, POSITIVE),
        },
    ),
    Scenario(
        name="fig2d",
        description="Nuclear polarization relaxation toward the unpolarized state (Fig. 2d).",
        runner="scenarios:_run_fig2d",
        keys={
            "seed": (24, SEED),
            "nuclear_t1_s": (1.25, POSITIVE),
            "initial_fidelity": (0.986, FRACTION),
            "max_time_s": (5.0, POSITIVE),
            "n_points": (40, count(3, MAX_GRID_POINTS)),
            "noise_sigma": (0.01, POSITIVE),
        },
    ),
    Scenario(
        name="fig3a",
        description="Detected fluorescence saturation versus resonant drive power (Fig. 3a).",
        runner="scenarios:_run_fig3a",
        keys={
            "seed": (31, SEED),
            "saturation_power_pw": (120.0, POSITIVE),
            "max_rate_mcps": (1.34, POSITIVE),
            "power_min_pw": (1.0, POSITIVE),
            "power_max_pw": (2000.0, POSITIVE),
            "n_points": (30, count(2, MAX_GRID_POINTS)),
            "noise_rel": (0.03, POSITIVE),
        },
    ),
    Scenario(
        name="fig3b",
        description="Single-shot spin-readout photon histograms and threshold fidelity (Fig. 3b).",
        runner="scenarios:_run_fig3b",
        keys={
            "seed": (32, SEED),
            "mean_bright": (1.83, POSITIVE),
            "mean_dark": (0.13, NON_NEGATIVE),
            "fidelity_target": (0.80, FRACTION),
            "n_pulses": (150, count(1, _MAX_PULSES)),
            "trials": (100000, count(1, _MAX_TRIALS)),
        },
    ),
    Scenario(
        name="fig3c",
        description="Expected N-photon coincidence events per day of acquisition (Fig. 3c).",
        runner="scenarios:_run_fig3c",
        keys={
            "repetition_rate_mhz": (0.38, POSITIVE),
            "duty_cycle": (0.40, OPEN_FRACTION),
            "efficiency": (0.014, OPEN_FRACTION),
            "duration_s": (86400.0, POSITIVE),
            "max_fold": (5, count(1, _MAX_FOLD)),
        },
    ),
    Scenario(
        name="fig4b",
        description="Waveguide reflection dip with sideband-background correction and model fit (Fig. 4b).",
        runner="scenarios:_run_fig4b",
        keys={
            "seed": (42, SEED),
            "cooperativity": (0.027, NON_NEGATIVE),
            "input_coupling": (0.95, OPEN_FRACTION),
            "linewidth_mhz": (70.0, POSITIVE),
            "grid_span_mhz": (1000.0, POSITIVE),
            "grid_step_mhz": (2.0, POSITIVE),
            "noise_sigma": (0.01, POSITIVE),
        },
    ),
    Scenario(
        name="fig4c",
        description="Reflection-dip contrast versus drive saturation (Fig. 4c).",
        runner="scenarios:_run_fig4c",
        keys={
            "seed": (43, SEED),
            "cooperativity": (0.027, NON_NEGATIVE),
            "input_coupling": (0.95, OPEN_FRACTION),
            "s_min": (0.01, POSITIVE),
            "s_max": (10.0, POSITIVE),
            "n_points": (25, count(1, MAX_GRID_POINTS)),
            "noise_sigma": (0.005, POSITIVE),
        },
    ),
    Scenario(
        name="table_s1",
        description="End-to-end detection-efficiency budget, stage by stage (Table S1).",
        runner="efficiency:_run_table_s1",
        keys={
            "stage_pi_pulse_fidelity": (0.80, OPEN_FRACTION),
            "stage_quantum_efficiency": (0.79, OPEN_FRACTION),
            "stage_phonon_sideband_fraction": (0.43, OPEN_FRACTION),
            "stage_waveguide_coupling": (0.325, OPEN_FRACTION),
            "stage_fibre_coupling": (0.57, OPEN_FRACTION),
            "stage_setup_transmission": (0.51, OPEN_FRACTION),
            "stage_detector_efficiency": (0.68, OPEN_FRACTION),
            "measured_efficiency": (0.0140, OPEN_FRACTION),
        },
    ),
    Scenario(
        name="loss_chain",
        description="Fibre-coupling efficiency from a roundtrip transmission with documented loss corrections (Table S1 supporting analysis).",
        runner="efficiency:_run_loss_chain",
        keys={
            "measured_roundtrip": (0.27, OPEN_FRACTION),
            "correction_splice": ("db 0.04", CORRECTION),
            "correction_facet_scattering": ("fraction 0.96", CORRECTION),
            "correction_fibre_attenuation": ("db_per_km 12 15", CORRECTION),
            "taper_etch_rate_um_min": (1.5, NON_NEGATIVE),
            "taper_pull_rate_um_min": (55.0, POSITIVE),
        },
    ),
    Scenario(
        name="rabi",
        description="Damped optical Rabi oscillation with pi-pulse calibration and model fit (optical pulse calibration, supporting Fig. 2).",
        runner="scenarios:_run_rabi",
        keys={
            "seed": (51, SEED),
            "rabi_frequency_mhz": (230.0, POSITIVE),
            "optical_t1_ns": (4.7, POSITIVE),
            "max_time_ns": (15.0, POSITIVE),
            "n_points": (301, count(2, MAX_GRID_POINTS)),
            "noise_sigma": (0.02, POSITIVE),
        },
    ),
    Scenario(
        name="lifetime",
        description="Excited-state lifetime decay and the Fourier-limited linewidth it implies (supporting measurement for Fig. 1e).",
        runner="scenarios:_run_lifetime",
        keys={
            "seed": (52, SEED),
            "lifetime_ns": (5.56, POSITIVE),
            "max_time_ns": (30.0, POSITIVE),
            "n_points": (120, count(3, MAX_GRID_POINTS)),
            "peak_counts": (3000.0, POSITIVE),
        },
    ),
    Scenario(
        name="g2",
        description="Second-order intensity autocorrelation with background floor (single-emitter check for Fig. 1).",
        runner="scenarios:_run_g2",
        keys={
            "seed": (53, SEED),
            "rabi_frequency_mhz": (230.0, POSITIVE),
            "optical_t1_ns": (4.7, POSITIVE),
            "background": (0.052, FRACTION),
            "max_delay_ns": (20.0, NON_NEGATIVE),
            "step_ns": (0.1, POSITIVE),
            "noise_sigma": (0.03, NON_NEGATIVE),
        },
    ),
    Scenario(
        name="isotopes",
        description="Predicted optical splittings for the sibling spin-1/2 isotopes (isotope assignment analysis, supporting Fig. 2b).",
        runner="scenarios:_run_isotopes",
        keys={
            "reference_splitting_mhz": (452.0, REAL),
            "reference_isotope": ("sn117", choice(*NUCLEAR_GYROMAGNETIC_HZ_PER_T)),
        },
    ),
]

SCENARIOS: dict[str, Scenario] = {s.name: s for s in _SCENARIOS}


def available_scenarios() -> list[str]:
    """Scenario names in registry order."""
    return [s.name for s in _SCENARIOS]


def _resolve(target: str) -> tuple[Scenario, dict]:
    """Resolve a scenario name or config-file path to (scenario, file config)."""
    if target in SCENARIOS:
        return SCENARIOS[target], {}
    path = Path(target)
    if path.is_file():
        file_cfg = config_mod.load_config(path)
        name = file_cfg.pop("scenario", None)
        if name is None:
            raise ValueError(f"config file {target} does not select a scenario (scenario = <name>)")
        if name not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {name!r} in {target}; available: "
                + ", ".join(available_scenarios())
            )
        return SCENARIOS[name], file_cfg
    raise ValueError(
        f"unknown scenario {target!r}; available: " + ", ".join(available_scenarios())
    )


def _validated_config(scenario: Scenario, file_cfg: dict, overrides: dict) -> tuple[dict, dict]:
    """The merged config, and the runner's values: each checked against its
    key's domain, unit suffix stripped and applied (``linewidth_mhz`` -> ``linewidth`` in Hz),
    then checked again in base units.
    """
    cfg = config_mod.merged(config_mod.merged(scenario.defaults, file_cfg), overrides)
    unknown = sorted(set(cfg) - set(scenario.keys))
    if unknown:
        raise ValueError(
            f"unknown config keys for scenario {scenario.name!r}: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(scenario.keys))}"
        )
    values = {}
    for key, value in cfg.items():
        domain = scenario.keys[key][1]
        name, base = config_mod.in_base_units(key, domain.check(key, value))
        # Check again in base units: step_ns=1e-320 is 0.0 s, and a subnormal
        # width such as linewidth_mhz=1e-320 overflows wherever it divides.
        if name != key and (not domain.test(base) or 0.0 < abs(base) < sys.float_info.min):
            raise ValueError(
                f"config key {key!r} must be {domain.text} and a normal float in base "
                f"units; {value!r} becomes {base!r}"
            )
        values[name] = base
    return cfg, values


def _report(scenario: Scenario, rows: list, index: dict, notes: list) -> str:
    lines = [f"scenario: {scenario.name}", scenario.description, ""]
    header = f"{'quantity':<34} {'simulated':>14} {'reference':>12} {'tolerance':>10}  pass"
    lines += [header, "-" * len(header)]
    for row in rows:
        ref = "-" if row["paper_value"] is None else f"{row['paper_value']:.6g}"
        tol = "-" if row["tolerance"] is None else f"{row['tolerance']:.3g}"
        lines.append(
            f"{row['quantity']:<34} {row['simulated']:>14.6g} {ref:>12} {tol:>10}  "
            + ("yes" if row["pass"] else "NO")
        )
    if notes:
        lines += ["", "notes:"]
        lines += [f"  - {note}" for note in notes]
    if index:
        lines += ["", "artifacts:"]
        lines += [f"  - {key}: {value}" for key, value in index.items()]
    return "\n".join(lines) + "\n"


def run_scenario(target: str, overrides: dict | None = None, output_root=None) -> ScenarioResult:
    """Run one scenario by name or config-file path, then write its artifact tree.

    ``overrides`` are already-parsed config values (the CLI passes its
    ``key=value`` pairs through :func:`snvsim.config.parse_overrides`).
    Nothing is written until the runner has returned; then
    ``<root>/<name>/`` is replaced as a whole.
    """
    scenario, file_cfg = _resolve(target)
    cfg, values = _validated_config(scenario, file_cfg, dict(overrides or {}))
    rows, artifacts, notes = scenario.run(values)
    index = {key: name for key, (name, _) in artifacts.items()}
    summary = {
        "scenario": scenario.name,
        "description": scenario.description,
        "config": cfg,
        "entries": rows,
        "artifacts": index,
        "notes": notes,
        "all_pass": all(row["pass"] for row in rows),
    }

    root = Path(output_root or os.environ.get(OUTPUT_DIR_ENV, _DEFAULT_OUTPUT_ROOT))
    out_dir = root / scenario.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        for name, payload in artifacts.values():
            path = out_dir / name
            if path.suffix:
                write_artifact(path, payload)
            else:  # a directory: {file name: payload}
                path.mkdir()
                for file_name, item in payload.items():
                    write_artifact(path / file_name, item)
        write_artifact(out_dir / "summary.json", summary)
        write_artifact(out_dir / "report.txt", _report(scenario, rows, index, notes))
    except BaseException:
        shutil.rmtree(out_dir, ignore_errors=True)  # no partial tree
        raise
    return ScenarioResult(
        name=scenario.name, out_dir=out_dir, rows=rows, artifacts=index, notes=notes
    )
