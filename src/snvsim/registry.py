"""The scenario registry: names, descriptions, config keys, ``configured`` and ``run_scenario``.

Each entry names its runner, a function or a callable record, as
``"<module>:<name>"`` inside the package; :meth:`Scenario.run` imports that
module when the scenario runs, so listing the scenarios or checking a
config loads no runner, and the scalar ``table_s1`` and ``loss_chain``
runners (in :mod:`snvsim.efficiency`) load no numpy.  The runners that
synthesize and fit data live in :mod:`snvsim.scenarios`.

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
domain), and the conditions on several keys as a tuple of
:class:`Constraint`.  Each key has one spelling; a dimensioned key carries
its unit in the suffix (``linewidth_mhz``).  A config file selects its
scenario with a ``scenario = <name>`` key; command-line ``key=value`` pairs
override both.  :func:`configured` rejects unknown keys, values outside
their domain and values that break a constraint before anything is computed
or written, naming the keys; the runner gets the checked values in base
units, under the key with its unit suffix stripped (``cfg["linewidth"]`` in
Hz).  The runners do not check these conditions again; the functions they
call keep their own checks for the Python API.

This module imports only the standard library, and not ``dataclasses``:
its record types are ``typing.NamedTuple`` classes, so a cold
``snvsim`` call does not pay for ``dataclasses`` and the ``inspect`` chain
that it loads.
"""

from __future__ import annotations

import importlib
import math
import os
import shutil
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import config as config_mod
from .artifacts import json_number, write_artifact
from .config import (
    FRACTION, INPUT_COUPLING, MAX_GRID_POINTS, NON_NEGATIVE, OPEN_FRACTION, POSITIVE, SEED,
    Domain, grid_points,
)
from .efficiency import (
    CORRECTION, bright_mean_p_detect, implied_coupling, loss_chain_from_config, readout_fidelity_k1,
)
from .units import NUCLEAR_GYROMAGNETIC_HZ_PER_T, TWO_PI

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
#: fig2a fields in mT: a start within +-100 T and steps of 10 uT to 100 T keep every
#: detuning finite and the span regression (np.polyfit on the fields in T) well posed.
_MAX_FIELD_MT = 1e5
_MIN_FIELD_STEP_MT = 1e-2
#: Linewidths in MHz that fig1e, fig2a and fig2b fit from: each fit starts at the
#: configured width and bounds the width below at 1e-300 Hz.
_FITTED_LINEWIDTH = Domain(float, 1e-306, sys.float_info.max)
#: Additive noise: its draws, of a few sigma, plus the signal must stay finite.
_NOISE = Domain(float, 0, 1e300, lo_open=True)
#: Signal-to-noise ratios: the noise 1 / snr is bounded as _NOISE is.
_SNR = Domain(float, 1e-300, sys.float_info.max)
#: fig3a's powers in pW: their axis is spaced in W and converted back, which may round up.
_POWER_PW = Domain(float, 0, 1e300, lo_open=True)


class Constraint(NamedTuple):
    """A condition on several keys of one scenario, checked after each key's domain."""

    keys: tuple  # the config keys it reads
    holds: Callable[..., bool]  # their values in base units, in ``keys`` order
    text: str  # what the keys must do

    def describe(self) -> str:
        names = [f"'{key}'" for key in self.keys]
        return f"config keys {', '.join(names[:-1])} and {names[-1]} must {self.text}"


def _grid(span_key: str, n_params: int) -> Constraint:
    """A fitted frequency grid about zero with at least as many points as its fit has
    parameters."""
    return Constraint(
        (span_key, "grid_step_mhz"),
        lambda span, step: n_params <= grid_points(-span / 2, span / 2, step) <= MAX_GRID_POINTS,
        f"give a frequency grid of {n_params} to {MAX_GRID_POINTS} points",
    )


def _held(count_key: str, span_key: str) -> Constraint:
    """Spectra on one grid about zero, all held until they are written."""
    return Constraint(
        (count_key, span_key, "grid_step_mhz"),
        lambda n, span, step: n * grid_points(-span / 2, span / 2, step) <= MAX_GRID_POINTS,
        f"give spectra of at most {MAX_GRID_POINTS} points together",
    )


def _enough_bins(fwhm: float, width: float) -> bool:
    """fig1d's histogram over +-2.5 FWHM: at most MAX_GRID_POINTS bins, and at least 3,
    counted as ``np.arange`` counts its edges."""
    return 5.0 * fwhm / width <= MAX_GRID_POINTS and math.ceil(
        (2.5 * fwhm + width + 2.5 * fwhm) / width) >= 4


def _outer_lines_on_grid(n, start, step, splitting, slope, span) -> bool:
    """Whether fig2a's outer lines, at +-(H + S |B|) / 2, stay on its grid about zero at
    every field of the sweep; |B| is largest at one of its ends."""
    return splitting + slope * max(abs(start), abs(start + (n - 1) * step)) <= span


_LOSS_CHAIN_KEYS = ("measured_roundtrip", "correction_splice", "correction_facet_scattering",
                    "correction_fibre_attenuation")


def _coupling_at_most_one(*values) -> bool:
    """Whether loss_chain's values, in ``_LOSS_CHAIN_KEYS`` order, imply a coupling <= 1."""
    return implied_coupling(loss_chain_from_config(dict(zip(_LOSS_CHAIN_KEYS, values)))) <= 1.0


class Scenario(NamedTuple):
    """A named, self-configured scenario and the runner that computes it."""

    name: str
    description: str
    runner: str  # "<module>:<name>" of a callable in this package
    keys: dict  # key -> (default, Domain), in config order
    constraints: tuple = ()  # Constraints on several keys, checked in order

    @property
    def defaults(self) -> dict:
        """``{key: default}`` in config order."""
        return {key: default for key, (default, _) in self.keys.items()}

    def run(self, values: dict) -> tuple[list, dict, list]:
        """Call the runner on checked values, importing its module on first use."""
        module, _, function = self.runner.partition(":")
        return getattr(importlib.import_module(f"{__package__}.{module}"), function)(values)


class ScenarioResult(NamedTuple):
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
            "n_emitters": (10000, Domain(int, 2, _MAX_ENSEMBLE)),
            "inhomogeneous_fwhm_ghz": (90.0, POSITIVE),
            "bin_width_ghz": (2.0, POSITIVE),
        },
        constraints=(
            Constraint(("inhomogeneous_fwhm_ghz", "bin_width_ghz"), _enough_bins,
                       f"give a histogram of 3 to {MAX_GRID_POINTS} bins over +-2.5 FWHM"),
        ),
    ),
    Scenario(
        name="fig1e",
        description="Zero-field resonant-excitation doublet of a single register, with the ground-manifold level table (Fig. 1e).",
        runner="scenarios:_run_fig1e",
        keys={
            "seed": (12, SEED),
            "zero_field_splitting_mhz": (452.0, POSITIVE),
            "linewidth_mhz": (70.0, _FITTED_LINEWIDTH),
            "snr": (20.0, _SNR),
            "grid_span_mhz": (1600.0, POSITIVE),
            "grid_step_mhz": (2.0, POSITIVE),
        },
        constraints=(_grid("grid_span_mhz", 5),),
    ),
    Scenario(
        name="fig2a",
        description="Optical line quartet versus magnetic field; slope and zero-field splitting from the outer-line span (Fig. 2a).",
        runner="scenarios:_run_fig2a",
        keys={
            "seed": (21, SEED),
            "n_scans": (35, Domain(int, 3, MAX_FITTED_SPECTRA)),
            "field_start_mt": (0.0, Domain(float, -_MAX_FIELD_MT, _MAX_FIELD_MT)),
            "field_step_mt": (4.3, Domain(float, _MIN_FIELD_STEP_MT, _MAX_FIELD_MT)),
            "zero_field_splitting_mhz": (452.0, POSITIVE),
            "slope_ghz_per_t": (5.41, POSITIVE),
            "linewidth_mhz": (70.0, _FITTED_LINEWIDTH),
            "snr": (15.0, _SNR),
            "grid_span_ghz": (2.4, POSITIVE),
            "grid_step_mhz": (5.0, POSITIVE),
        },
        constraints=(
            _grid("grid_span_ghz", 9),
            _held("n_scans", "grid_span_ghz"),
            Constraint(("n_scans", "field_start_mt", "field_step_mt", "zero_field_splitting_mhz",
                        "slope_ghz_per_t", "grid_span_ghz"), _outer_lines_on_grid,
                       "keep the outer lines on the grid at every field: zero_field_splitting "
                       "+ slope * max |field| <= grid_span"),
        ),
    ),
    Scenario(
        name="fig2b",
        description="Hyperfine splitting across an ensemble of emitters (Fig. 2b).",
        runner="scenarios:_run_fig2b",
        keys={
            "seed": (22, SEED),
            "n_emitters": (12, Domain(int, 2, MAX_FITTED_SPECTRA)),
            "splitting_mean_mhz": (452.0, NON_NEGATIVE),
            "splitting_sigma_mhz": (7.0, NON_NEGATIVE),
            "linewidth_mhz": (70.0, _FITTED_LINEWIDTH),
            "snr": (15.0, _SNR),
            "grid_span_mhz": (1200.0, POSITIVE),
            "grid_step_mhz": (2.0, POSITIVE),
        },
        constraints=(_grid("grid_span_mhz", 5), _held("n_emitters", "grid_span_mhz")),
    ),
    Scenario(
        name="fig2c",
        description="Nuclear-spin initialization fidelity versus optical pumping time (Fig. 2c).",
        runner="scenarios:FIG2C",
        keys={
            "seed": (23, SEED),
            "steady_fidelity": (0.986, FRACTION),
            "calibration_time_us": (30.0, POSITIVE),
            "calibration_fidelity": (0.980, FRACTION),
            "n_points": (60, Domain(int, 3, MAX_GRID_POINTS)),
            # pumping.csv writes the time axis in ns
            "max_time_us": (30.0, Domain(float, 0, sys.float_info.max / 1e3, lo_open=True)),
            "noise_sigma": (0.003, _NOISE),
        },
        constraints=(
            Constraint(("calibration_fidelity", "steady_fidelity"), lambda cal, f: 0.5 < cal < f,
                       "satisfy 0.5 < calibration_fidelity < steady_fidelity"),
        ),
    ),
    Scenario(
        name="fig2d",
        description="Nuclear polarization relaxation toward the unpolarized state (Fig. 2d).",
        runner="scenarios:FIG2D",
        keys={
            "seed": (24, SEED),
            "nuclear_t1_s": (1.25, POSITIVE),
            "initial_fidelity": (0.986, FRACTION),
            # depolarization.csv writes the time axis in ns
            "max_time_s": (5.0, Domain(float, 0, sys.float_info.max / 1e9, lo_open=True)),
            "n_points": (40, Domain(int, 3, MAX_GRID_POINTS)),
            "noise_sigma": (0.01, _NOISE),
        },
    ),
    Scenario(
        name="fig3a",
        description="Detected fluorescence saturation versus resonant drive power (Fig. 3a).",
        runner="scenarios:FIG3A",
        keys={
            "seed": (31, SEED),
            "saturation_power_pw": (120.0, POSITIVE),
            "max_rate_mcps": (1.34, POSITIVE),
            # the powers go back to pW, for saturation.csv and the fit
            "power_min_pw": (1.0, _POWER_PW),
            "power_max_pw": (2000.0, _POWER_PW),
            "n_points": (30, Domain(int, 2, MAX_GRID_POINTS)),
            "noise_rel": (0.03, OPEN_FRACTION),  # relative to the rate, so at most 100 %
        },
        constraints=(
            Constraint(("saturation_power_pw", "max_rate_mcps", "power_min_pw", "power_max_pw",
                        "noise_rel"),
                       lambda p_sat, rate, p_min, p_max, noise:
                       noise * (rate / (1.0 + p_sat / min(p_min, p_max))) > 0,
                       "give a rate uncertainty noise_rel * rate > 0 at the lowest power"),
        ),
    ),
    Scenario(
        name="fig3b",
        description="Single-shot spin-readout photon histograms and threshold fidelity (Fig. 3b).",
        runner="scenarios:_run_fig3b",
        keys={
            "seed": (32, SEED),
            "mean_bright": (1.83, POSITIVE),
            "mean_dark": (0.13, NON_NEGATIVE),
            # F(k=1) = (1 - P(0|bright) + P(0|dark)) / 2 >= 1/2, as P(0|bright) <= P(0|dark)
            "fidelity_target": (0.80, Domain(float, 0.5, 1, lo_open=True)),
            "n_pulses": (150, Domain(int, 1, _MAX_PULSES)),
            "trials": (100000, Domain(int, 1, _MAX_TRIALS)),
        },
        constraints=(
            Constraint(("mean_bright", "mean_dark"), lambda bright, dark: bright > dark,
                       "satisfy mean_bright > mean_dark"),
            Constraint(("mean_bright", "mean_dark", "n_pulses"),
                       lambda bright, dark, n: bright - dark <= n,
                       "satisfy mean_bright - mean_dark <= n_pulses, so that p_detect <= 1"),
            Constraint(("fidelity_target", "mean_bright", "mean_dark", "n_pulses"),
                       lambda target, bright, dark, n: target <= readout_fidelity_k1(
                           bright_mean_p_detect(bright, dark, n, 0.0), 0.0, n, dark),
                       "give a fidelity_target at most the flip-free F(k=1) = (1 + exp(-mean_dark)"
                       " (1 - (1 - p)^n_pulses)) / 2, p = (mean_bright - mean_dark) / n_pulses"),
        ),
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
            "max_fold": (5, Domain(int, 1, _MAX_FOLD)),
        },
        constraints=(
            Constraint(("duty_cycle", "repetition_rate_mhz", "duration_s"),
                       lambda duty, rate, duration: math.isfinite(duty * rate * duration),
                       "give a finite number of attempts duty_cycle * repetition_rate * duration"),
        ),
    ),
    Scenario(
        name="fig4b",
        description="Waveguide reflection dip with sideband-background correction and model fit (Fig. 4b).",
        runner="scenarios:_run_fig4b",
        keys={
            "seed": (42, SEED),
            "cooperativity": (0.027, NON_NEGATIVE),
            "input_coupling": (0.95, INPUT_COUPLING),
            "linewidth_mhz": (70.0, POSITIVE),
            "grid_span_mhz": (1000.0, POSITIVE),
            "grid_step_mhz": (2.0, POSITIVE),
            "noise_sigma": (0.01, _NOISE),
        },
        constraints=(_grid("grid_span_mhz", 2),),
    ),
    Scenario(
        name="fig4c",
        description="Reflection-dip contrast versus drive saturation (Fig. 4c).",
        runner="scenarios:FIG4C",
        keys={
            "seed": (43, SEED),
            "cooperativity": (0.027, NON_NEGATIVE),
            "input_coupling": (0.95, INPUT_COUPLING),
            # geomspace takes 10**log10(s), which overflows near the float maximum
            "s_min": (0.01, Domain(float, 0, 1e308, lo_open=True)),
            "s_max": (10.0, Domain(float, 0, 1e308, lo_open=True)),
            "n_points": (25, Domain(int, 1, MAX_GRID_POINTS)),
            "noise_sigma": (0.005, _NOISE),
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
        constraints=(
            Constraint(_LOSS_CHAIN_KEYS, _coupling_at_most_one,
                       "imply a coupling efficiency of at most 1 after the corrections"),
        ),
    ),
    Scenario(
        name="rabi",
        description="Damped optical Rabi oscillation with pi-pulse calibration and model fit (optical pulse calibration, supporting Fig. 2).",
        runner="scenarios:RABI",
        keys={
            "seed": (51, SEED),
            # the pi_time_ns row and pi_calibration.json give 1 / (2 f) in ns
            "rabi_frequency_mhz": (230.0, Domain(float, 1e-300, sys.float_info.max)),
            "optical_t1_ns": (4.7, POSITIVE),
            # the fit starts at 0.2 GHz, whose phase at max_time_ns must be finite
            "max_time_ns": (15.0, Domain(float, 0, 1e308, lo_open=True)),
            "n_points": (301, Domain(int, 2, MAX_GRID_POINTS)),
            "noise_sigma": (0.02, _NOISE),
        },
        constraints=(
            Constraint(("rabi_frequency_mhz", "max_time_ns"),
                       lambda frequency, time: math.isfinite(TWO_PI * frequency * time),
                       "give a finite drive phase 2 pi * rabi_frequency * max_time"),
        ),
    ),
    Scenario(
        name="lifetime",
        description="Excited-state lifetime decay and the Fourier-limited linewidth it implies (supporting measurement for Fig. 1e).",
        runner="scenarios:LIFETIME",
        keys={
            "seed": (52, SEED),
            "lifetime_ns": (5.56, POSITIVE),
            "max_time_ns": (30.0, POSITIVE),
            "n_points": (120, Domain(int, 3, MAX_GRID_POINTS)),
            # numpy draws Poisson counts up to a mean of about 9.2e18
            "peak_counts": (3000.0, Domain(float, 0, 1e18, lo_open=True)),
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
            "noise_sigma": (0.03, Domain(float, 0.0, 1e300)),
        },
        constraints=(
            Constraint(("max_delay_ns", "step_ns"),
                       lambda delay, step: 2.0 * delay / step + 1.0 <= MAX_GRID_POINTS,
                       f"give a delay axis of at most {MAX_GRID_POINTS} points"),
            # the axis ends at round(max_delay / step) steps
            Constraint(("rabi_frequency_mhz", "max_delay_ns", "step_ns"),
                       lambda frequency, delay, step:
                       math.isfinite(TWO_PI * frequency * (round(delay / step) * step)),
                       "give a finite drive phase 2 pi * rabi_frequency * max_delay"),
        ),
    ),
    Scenario(
        name="isotopes",
        description="Predicted optical splittings for the sibling spin-1/2 isotopes (isotope assignment analysis, supporting Fig. 2b).",
        runner="scenarios:_run_isotopes",
        keys={
            # each prediction multiplies the splitting in Hz by gamma_n (~1.6e7 Hz/T)
            "reference_splitting_mhz": (452.0, Domain(float, -1e294, 1e294)),
            "reference_isotope": (
                "sn117", Domain(str, options=tuple(NUCLEAR_GYROMAGNETIC_HZ_PER_T))
            ),
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


def configured(target: str, overrides: dict | None = None) -> tuple[Scenario, dict, dict]:
    """Resolve a scenario name or config-file path and check its config.

    Returns the scenario, its merged config (defaults, then the file, then
    ``overrides``) and the runner's values: each checked against its key's
    domain in the key's own unit, unit suffix stripped and applied
    (``linewidth_mhz`` -> ``linewidth`` in Hz), then checked to be a finite,
    normal float in base units (or zero, if it was zero).  The scenario's
    constraints are checked last, in order, on those base-unit values.
    """
    scenario, file_cfg = _resolve(target)
    cfg = {**scenario.defaults, **file_cfg, **(overrides or {})}
    unknown = sorted(set(cfg) - set(scenario.keys))
    if unknown:
        raise ValueError(
            f"unknown config keys for scenario {scenario.name!r}: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(scenario.keys))}"
        )
    values, base_values = {}, {}
    for key, value in cfg.items():
        domain = scenario.keys[key][1]
        checked = domain.check(key, value)
        name, base = config_mod.in_base_units(key, checked)
        # Check again in base units: step_ns=1e-320 is 0.0 s, and a subnormal
        # width such as linewidth_mhz=1e-320 overflows wherever it divides.
        if name != key and not (
            math.isfinite(base) and (checked == 0 or abs(base) >= sys.float_info.min)
        ):
            raise ValueError(
                f"config key {key!r} must be {domain.text} and a normal float in base "
                f"units; {value!r} becomes {base!r}"
            )
        values[name] = base_values[key] = base
    for constraint in scenario.constraints:
        if not constraint.holds(*(base_values[key] for key in constraint.keys)):
            got = ", ".join(f"{key}={cfg[key]!r}" for key in constraint.keys)
            raise ValueError(f"{constraint.describe()}; got {got}")
    return scenario, cfg, values


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


def output_dir(name: str, output_root=None) -> Path:
    """``<root>/<name>``; a ``ValueError`` naming the path if a file stands where it or
    an ancestor would be made, or it is a symbolic link (which ``shutil.rmtree`` refuses)."""
    out_dir = Path(output_root or os.environ.get(OUTPUT_DIR_ENV, _DEFAULT_OUTPUT_ROOT)) / name
    existing = next(p for p in (out_dir, *out_dir.parents) if p.is_symlink() or p.exists())
    if not existing.is_dir() or existing == out_dir and existing.is_symlink():
        raise ValueError(f"output directory {str(out_dir)!r} cannot be made: {str(existing)!r} "
                         f"is {'a symbolic link' if existing.is_symlink() else 'not a directory'}")
    return out_dir


def run_scenario(target: str, overrides: dict | None = None, output_root=None) -> ScenarioResult:
    """Run one scenario by name or config-file path, then write its artifact tree.

    ``overrides`` are already-parsed config values (the CLI passes its
    ``key=value`` pairs through :func:`snvsim.config.parse_overrides`).
    An output directory that cannot be made (:func:`output_dir`) is refused
    before the runner runs.  Nothing is written until the runner has
    returned; then ``<root>/<name>/`` is replaced as a whole.
    """
    scenario, cfg, values = configured(target, overrides)
    out_dir = output_dir(scenario.name, output_root)
    rows, artifacts, notes = scenario.run(values)
    index = {key: name for key, (name, _) in artifacts.items()}
    summary = {
        "scenario": scenario.name,
        "description": scenario.description,
        "config": cfg,
        "entries": [{**row, "simulated": json_number(row["simulated"])} for row in rows],
        "artifacts": index,
        "notes": notes,
        "all_pass": all(row["pass"] for row in rows),
    }

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
