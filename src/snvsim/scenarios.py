"""Named desk-scale experiment scenarios with reproducible artifacts.

Each scenario reproduces one published panel or table at synthetic-data
scale: it synthesizes data from the model stack, runs the same analysis an
experiment would (fits, thresholds, budgets), and reports summary entries
``{quantity, simulated, paper_value, tolerance, pass}`` together with its
data artifacts.

Reproducibility
---------------
All randomness in a scenario flows from its single integer config key
``seed``.  The k-th independent random component of a scenario (the order
is documented per runner) uses the stream
``numpy.random.SeedSequence(seed, spawn_key=(k,))``; nothing else consumes
randomness, so reruns with the same config are byte-identical, including
every artifact file.

Output locations
----------------
Runners compute and write nothing.  A runner returns ``(rows, artifacts,
notes)``; ``artifacts`` maps an index key to ``(name, payload)``, a payload
being a ``(header, columns)`` table, a ``Spectrum``, a JSON object or, for a
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
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import config as config_mod
from . import optical_dynamics, photon_budget, spin_hamiltonian, waveguide_qed
from .config import (
    CORRECTION, FRACTION, NON_NEGATIVE, OPEN_FRACTION, POSITIVE, REAL, SEED, choice, count,
)
from .fitting import (
    FitResult,
    fit,
    make_contrast_saturation,
    make_damped_rabi,
    make_exponential,
    make_gaussian,
    make_lorentzian_multi,
    make_reflection_dip,
    make_saturation,
    poisson_sigma,
)
from .spectra import (
    MAX_GRID_POINTS,
    SpectralLine,
    Spectrum,
    _check_points,
    eom_background_correction,
    eom_background_inverse,
    frequency_grid,
    sample_inhomogeneous_ensemble,
    synthesize_spectrum,
    write_csv,
    write_spectrum_csv,
)
from .units import TWO_PI, fourier_limited_fwhm_hz, sigma_to_fwhm

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


# --------------------------------------------------------------------------
# plumbing


def _stream(seed: int, index: int) -> np.random.SeedSequence:
    """The documented per-component random stream (see module docstring)."""
    return np.random.SeedSequence(seed, spawn_key=(index,))


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(_stream(seed, index))


def _write(path: Path, payload) -> None:
    """Write one file from a Spectrum, a ``(header, columns)`` table, a JSON object or text.

    JSON is strict: a NaN or infinity left in ``payload`` is an error, not output.
    """
    if isinstance(payload, Spectrum):
        write_spectrum_csv(payload, path)
    elif path.suffix == ".csv":
        write_csv(path, *payload)
    else:
        if path.suffix == ".json":
            try:
                payload = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
            except ValueError as exc:
                raise ValueError(f"{path.name}: {exc}") from None
        path.write_text(payload)


def summary_row(
    quantity: str,
    simulated: float,
    paper_value: float | None,
    tolerance: float | None,
    passed: bool | None = None,
    note: str = "",
) -> dict:
    """One summary entry; pass defaults to |simulated - paper_value| <= tolerance."""
    if passed is None:
        if paper_value is None or tolerance is None:
            raise ValueError(f"{quantity}: need explicit pass when reference is open-ended")
        passed = abs(simulated - paper_value) <= tolerance
    row = {
        "quantity": quantity,
        "simulated": float(simulated),
        "paper_value": None if paper_value is None else float(paper_value),
        "tolerance": None if tolerance is None else float(tolerance),
        "pass": bool(passed),
    }
    if note:
        row["note"] = note
    return row


@dataclass(frozen=True)
class Scenario:
    """A named, self-configured scenario runner."""

    name: str
    description: str
    keys: dict  # key -> (default, Domain), in config order
    runner: Callable[[dict], tuple[list, dict, list]]

    @property
    def defaults(self) -> dict:
        """``{key: default}`` in config order."""
        return {key: default for key, (default, _) in self.keys.items()}


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


# --------------------------------------------------------------------------
# fig1d — inhomogeneous ensemble


_FIG1D_KEYS = {
    "seed": (11, SEED),
    "n_emitters": (10000, count(2, _MAX_ENSEMBLE)),
    "inhomogeneous_fwhm_ghz": (90.0, POSITIVE),
    "bin_width_ghz": (2.0, POSITIVE),
}


def _run_fig1d(cfg: dict):
    """Streams: 0 = emitter ensemble draw."""
    n = cfg["n_emitters"]
    fwhm = cfg["inhomogeneous_fwhm"]
    bin_width = cfg["bin_width"]

    # Only the emitter centers are histogrammed, so the doublets are drawn unsplit.
    centers, _ = sample_inhomogeneous_ensemble(0.0, fwhm, n, 0.0, seed=_stream(cfg["seed"], 0))
    empirical_fwhm = sigma_to_fwhm(float(np.std(centers, ddof=1)))
    _check_points(5.0 * fwhm / bin_width, "histogram")
    edges = np.arange(-2.5 * fwhm, 2.5 * fwhm + bin_width, bin_width)
    counts, edges = np.histogram(centers, bins=edges)
    mids = 0.5 * (edges[:-1] + edges[1:])

    # Unweighted fit: weighting by observed counts would bias the width low
    # (downward-fluctuating bins get overweighted at these count levels).
    model = make_gaussian().with_init((0.0, fwhm, float(counts.max())))
    result = fit(model, (mids, counts.astype(float)))
    fitted_fwhm = abs(result.params[1])

    rows = [
        summary_row("inhomogeneous_fwhm_ghz", empirical_fwhm / 1e9, 90.0, 1.8),
    ]
    artifacts = {
        "distribution": ("distribution.csv", (["freq_hz", "intensity"], (mids, counts))),
        "gaussian_fit": ("gaussian_fit.json", result.as_dict()),
    }
    notes = [
        f"{n} emitter centers drawn from the inhomogeneous distribution and histogrammed "
        f"in {bin_width / 1e9:g} GHz bins; the summary row uses the moment estimator of "
        f"the width, the Gaussian fit ({fitted_fwhm / 1e9:.2f} GHz) is kept as an artifact."
    ]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# fig1e — zero-field doublet


_FIG1E_KEYS = {
    "seed": (12, SEED),
    "zero_field_splitting_mhz": (452.0, POSITIVE),
    "linewidth_mhz": (70.0, POSITIVE),
    "snr": (20.0, POSITIVE),
    "grid_span_mhz": (1600.0, POSITIVE),
    "grid_step_mhz": (2.0, POSITIVE),
}


def _run_fig1e(cfg: dict):
    """Streams: 0 = spectrum noise."""
    seed = cfg["seed"]
    split = cfg["zero_field_splitting"]
    fwhm = cfg["linewidth"]
    span = cfg["grid_span"]

    params = spin_hamiltonian.sn117_ground()
    hamiltonian = spin_hamiltonian.build_ground_hamiltonian(params, (0.0, 0.0, 0.0))
    energies = spin_hamiltonian.eigenenergies_hz(hamiltonian)

    # At zero field the lines do not depend on the field slope.
    transition = spin_hamiltonian.OpticalTransitionParams.from_cyclic_hz(split)
    detunings = spin_hamiltonian.optical_transition_detunings(transition, 0.0)
    lines = [SpectralLine(center_hz=c, fwhm_hz=fwhm, amplitude=0.5) for c in detunings]
    x = frequency_grid(-span / 2.0, span / 2.0, cfg["grid_step"])
    spectrum = synthesize_spectrum(lines, x, noise_sigma=1.0 / cfg["snr"], seed=_stream(seed, 0))

    model = make_lorentzian_multi(n_lines=2).with_init(
        (fwhm, -split / 2.0, 1.0, split / 2.0, 1.0)
    )
    result = fit(model, spectrum)
    fitted_split = result.params[3] - result.params[1]
    fitted_fwhm = result.params[0]

    rows = [
        summary_row("hyperfine_splitting_mhz", fitted_split / 1e6, 452.0, 7.0),
        summary_row("optical_linewidth_mhz", fitted_fwhm / 1e6, 70.0, 3.5),
    ]
    artifacts = {
        "levels": ("levels.csv", (["level", "energy_hz"], (range(len(energies)), energies))),
        "spectrum": ("spectrum.csv", spectrum),
        "doublet_fit": ("doublet_fit.json", result.as_dict()),
    }
    notes = [
        "levels.csv lists the eight zero-field eigenenergies of the full "
        "electron-nuclear ground manifold; the doublet splitting equals the "
        "ground/excited difference of longitudinal hyperfine couplings."
    ]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# fig2a — field sweep of the optical quartet


_FIG2A_KEYS = {
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
}


class FieldSweep(NamedTuple):
    """One synthesized and fitted field sweep of the optical quartet."""

    scans: list[Spectrum]
    fits: list[FitResult]
    centers: np.ndarray  # (n_scans, 4) fitted line centers per scan, ascending, Hz
    spans: np.ndarray  # outer-line span per scan, Hz
    coeffs: np.ndarray  # span regression (slope Hz/T, intercept Hz)
    std_errors: np.ndarray  # standard errors of ``coeffs``


def field_sweep(transition, fields_t, x_hz, fwhm_hz, noise_sigma, seeds) -> FieldSweep:
    """Synthesize, fit and regress a magnetic-field sweep of the optical quartet.

    Scan k is the four-line spectrum at ``fields_t[k]`` on the grid ``x_hz``,
    with Gaussian noise drawn from ``seeds[k]`` alone: one seed per scan,
    anything ``numpy.random.default_rng`` accepts, so a caller fixes the
    stream layout and a scan is reproducible on its own.  Each scan gets a
    shared-width four-line Lorentzian fit started from the true detunings,
    and the outer-line span is regressed linearly on field.  The regression
    needs at least 3 scans to estimate standard errors, and the scans, all
    kept in the result, may hold at most MAX_GRID_POINTS points together.
    """
    if len(fields_t) < 3:
        raise ValueError(f"a field sweep needs at least 3 scans, got {len(fields_t)}")
    _check_points(len(fields_t) * len(x_hz), "n_scans x frequency grid")
    scans, fits, centers = [], [], []
    for bz, seed in zip(fields_t, seeds, strict=True):
        detunings = spin_hamiltonian.optical_transition_detunings(transition, bz)
        lines = [SpectralLine(center_hz=c, fwhm_hz=fwhm_hz, amplitude=1.0) for c in detunings]
        scan = synthesize_spectrum(lines, x_hz, noise_sigma=noise_sigma, seed=seed)
        init = [fwhm_hz]
        for c in detunings:
            init += [c, 1.0]
        result = fit(make_lorentzian_multi(n_lines=4).with_init(init), scan)
        scans.append(scan)
        fits.append(result)
        centers.append(np.sort([result.params[1 + 2 * j] for j in range(4)]))
    centers = np.array(centers)
    spans = centers[:, -1] - centers[:, 0]
    coeffs, cov = np.polyfit(fields_t, spans, 1, cov=True)
    return FieldSweep(scans, fits, centers, spans, coeffs, np.sqrt(np.diag(cov)))


def _run_fig2a(cfg: dict):
    """Streams: k = noise of scan k (k = 0 .. n_scans-1)."""
    n_scans = cfg["n_scans"]
    span = cfg["grid_span"]

    transition = spin_hamiltonian.OpticalTransitionParams.from_cyclic_hz(
        cfg["zero_field_splitting"], cfg["slope"]
    )
    x = frequency_grid(-span / 2.0, span / 2.0, cfg["grid_step"])
    fields = np.array([cfg["field_start"] + k * cfg["field_step"] for k in range(n_scans)])
    seeds = [_stream(cfg["seed"], k) for k in range(n_scans)]
    sweep = field_sweep(transition, fields, x, cfg["linewidth"], 1.0 / cfg["snr"], seeds)
    slope_fit, intercept_fit = sweep.coeffs
    slope_se, intercept_se = sweep.std_errors
    crossing_mt = spin_hamiltonian.inner_line_crossing_field_t(transition) * 1e3

    names = [f"scan_{k:02d}.csv" for k in range(n_scans)]
    manifest = (range(n_scans), [f"scans/{name}" for name in names], fields * 1e3)
    statuses = [result.status for result in sweep.fits]
    line_centers = (range(n_scans), fields * 1e3, *sweep.centers.T, sweep.spans, statuses)
    regression = {
        "slope_hz_per_t": float(slope_fit),
        "slope_se_hz_per_t": float(slope_se),
        "intercept_hz": float(intercept_fit),
        "intercept_se_hz": float(intercept_se),
        "n_scans": n_scans,
    }

    rows = [
        summary_row("splitting_slope_ghz_per_t", slope_fit / 1e9, 5.41, 0.1623),
        summary_row("zero_field_splitting_mhz", intercept_fit / 1e6, 452.0, 5.0),
        summary_row("inner_line_crossing_mt", crossing_mt, 84.0, 2.0),
    ]
    artifacts = {
        "scans": ("scans", dict(zip(names, sweep.scans))),
        "scan_manifest": ("manifest.csv", (["order", "file", "field_mt"], manifest)),
        "line_centers": (
            "line_centers.csv",
            (["scan", "field_mt", "center_1_hz", "center_2_hz", "center_3_hz", "center_4_hz",
              "span_hz", "fit_status"], line_centers),
        ),
        "span_regression": ("span_regression.json", regression),
    }
    notes = [
        "The outer-line span equals splitting + slope * field at every field, on "
        "both sides of the inner-line crossing, so the linear regression needs no "
        "per-regime line assignment.",
        f"Scans within one linewidth of the crossing (~{crossing_mt:.1f} mT) have "
        "unresolved inner lines; their inner-center estimates are degenerate but "
        "unused by the regression.",
    ]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# fig2b — splitting across emitters


_FIG2B_KEYS = {
    "seed": (22, SEED),
    "n_emitters": (12, count(2, MAX_FITTED_SPECTRA)),
    "splitting_mean_mhz": (452.0, NON_NEGATIVE),
    "splitting_sigma_mhz": (7.0, NON_NEGATIVE),
    "linewidth_mhz": (70.0, POSITIVE),
    "snr": (15.0, POSITIVE),
    "grid_span_mhz": (1200.0, POSITIVE),
    "grid_step_mhz": (2.0, POSITIVE),
}


def _run_fig2b(cfg: dict):
    """Streams: 0 = ensemble draw, 1+k = spectrum noise of emitter k."""
    seed = cfg["seed"]
    n = cfg["n_emitters"]
    split_mean = cfg["splitting_mean"]
    split_sigma = cfg["splitting_sigma"]
    fwhm = cfg["linewidth"]
    snr = cfg["snr"]
    span = cfg["grid_span"]

    centers, splits = sample_inhomogeneous_ensemble(
        0.0, 0.0, n, split_mean, seed=_stream(seed, 0), split_sigma_hz=split_sigma
    )
    lows, highs = centers - splits / 2.0, centers + splits / 2.0
    x = frequency_grid(-span / 2.0, span / 2.0, cfg["grid_step"])
    _check_points(n * x.size, "n_emitters x frequency grid")

    spectra = {}
    fitted_splits = np.empty(n)
    for k in range(n):
        lines = [SpectralLine(lows[k], fwhm, 1.0), SpectralLine(highs[k], fwhm, 1.0)]
        spectrum = synthesize_spectrum(lines, x, noise_sigma=1.0 / snr, seed=_stream(seed, 1 + k))
        spectra[f"emitter_{k:02d}.csv"] = spectrum
        model = make_lorentzian_multi(n_lines=2).with_init(
            (fwhm, -split_mean / 2.0, 1.0, split_mean / 2.0, 1.0)
        )
        result = fit(model, spectrum)
        fitted_splits[k] = result.params[3] - result.params[1]

    mean_split = float(np.mean(fitted_splits))
    std_split = float(np.std(fitted_splits, ddof=1))

    tolerance = 3.0 * (split_sigma / 1e6) / math.sqrt(n)
    rows = [
        summary_row("mean_splitting_mhz", mean_split / 1e6, split_mean / 1e6, tolerance),
    ]
    emitters = (range(n), highs - lows, fitted_splits)
    artifacts = {
        "emitters": ("emitters.csv", (["emitter", "true_split_hz", "fitted_split_hz"], emitters)),
        "spectra_dir": ("spectra", spectra),
    }
    notes = [
        f"Sample standard deviation of the fitted splittings: {std_split / 1e6:.2f} MHz "
        f"(ensemble sigma {split_sigma / 1e6:g} MHz, n = {n}).",
        "The splitting is emitter-independent at the few-MHz level, identifying it "
        "as an intrinsic hyperfine coupling rather than a strain or field artifact.",
    ]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# fig2c — optical pumping initialization


_FIG2C_KEYS = {
    "seed": (23, SEED),
    "steady_fidelity": (0.986, FRACTION),
    "calibration_time_us": (30.0, POSITIVE),
    "calibration_fidelity": (0.980, FRACTION),
    "n_points": (60, count(3, MAX_GRID_POINTS)),
    "max_time_us": (30.0, POSITIVE),
    "noise_sigma": (0.003, POSITIVE),
}


def _run_fig2c(cfg: dict):
    """Streams: 0 = trace noise."""
    f_inf = cfg["steady_fidelity"]
    t_cal = cfg["calibration_time"]
    f_cal = cfg["calibration_fidelity"]
    noise = cfg["noise_sigma"]

    tau = optical_dynamics.pumping_time_constant(t_cal, f_cal, f_inf)
    pump = optical_dynamics.PumpingModel(f_infinity=f_inf, tau_pump=tau)
    t = np.linspace(0.0, cfg["max_time"], cfg["n_points"])
    y_true = optical_dynamics.pumping_fidelity(t, pump)
    y = y_true + _rng(cfg["seed"], 0).normal(0.0, noise, size=t.size)
    y_err = np.full(t.size, noise)

    t_us = t * 1e6
    model = make_exponential().with_init((0.9, -0.4, 5.0))
    result = fit(model, (t_us, y, y_err))
    fitted_f_inf = result.params[0]
    fitted_tau_us = result.params[2]

    rows = [
        summary_row("steady_state_fidelity", fitted_f_inf, f_inf, 0.005),
        summary_row(
            "pump_time_constant_us",
            fitted_tau_us,
            tau * 1e6,
            0.1 * tau * 1e6,
            note="reference derived from the calibration point, not directly reported",
        ),
    ]
    artifacts = {
        "pumping": ("pumping.csv", (["t_ns", "value"], (t * 1e9, y))),
        "exponential_fit": ("exponential_fit.json", result.as_dict()),
    }
    notes = [
        f"Pump time constant calibrated to {tau * 1e6:.2f} us from the single "
        f"({t_cal * 1e6:g} us, {f_cal:g}) endpoint measurement.",
    ]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# fig2d — nuclear depolarization


_FIG2D_KEYS = {
    "seed": (24, SEED),
    "nuclear_t1_s": (1.25, POSITIVE),
    "initial_fidelity": (0.986, FRACTION),
    "max_time_s": (5.0, POSITIVE),
    "n_points": (40, count(3, MAX_GRID_POINTS)),
    "noise_sigma": (0.01, POSITIVE),
}


def _run_fig2d(cfg: dict):
    """Streams: 0 = trace noise."""
    t1n = cfg["nuclear_t1"]
    noise = cfg["noise_sigma"]

    t = np.linspace(0.0, cfg["max_time"], cfg["n_points"])
    y_true = optical_dynamics.nuclear_polarization_decay(t, t1n, cfg["initial_fidelity"])
    y = y_true + _rng(cfg["seed"], 0).normal(0.0, noise, size=t.size)
    y_err = np.full(t.size, noise)

    model = make_exponential().with_init((0.5, 0.5, 1.0))
    result = fit(model, (t, y, y_err))

    rows = [
        summary_row("nuclear_t1_s", result.params[2], t1n, 0.1 * t1n),
        summary_row("equilibrium_fidelity", result.params[0], 0.5, 0.02),
    ]
    artifacts = {
        "depolarization": ("depolarization.csv", (["t_ns", "value"], (t * 1e9, y))),
        "exponential_fit": ("exponential_fit.json", result.as_dict()),
    }
    notes = ["The polarization relaxes to the unpolarized value 1/2, not to zero."]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# fig3a — fluorescence saturation


_FIG3A_KEYS = {
    "seed": (31, SEED),
    "saturation_power_pw": (120.0, POSITIVE),
    "max_rate_mcps": (1.34, POSITIVE),
    "power_min_pw": (1.0, POSITIVE),
    "power_max_pw": (2000.0, POSITIVE),
    "n_points": (30, count(2, MAX_GRID_POINTS)),
    "noise_rel": (0.03, POSITIVE),
}


def _run_fig3a(cfg: dict):
    """Streams: 0 = relative rate noise."""
    p_sat = cfg["saturation_power"]
    noise_rel = cfg["noise_rel"]

    sp = optical_dynamics.SaturationParams(p_sat=p_sat, i_infinity=cfg["max_rate"])
    powers = np.geomspace(cfg["power_min"], cfg["power_max"], cfg["n_points"])
    y_true = optical_dynamics.saturation_intensity(powers, sp)
    y = y_true * (1.0 + _rng(cfg["seed"], 0).normal(0.0, noise_rel, size=powers.size))
    y_err = noise_rel * y_true

    powers_pw = powers * 1e12
    model = make_saturation().with_init((8.0e5, 60.0))
    result = fit(model, (powers_pw, y, y_err))

    rows = [
        summary_row("saturation_power_pw", result.params[1], 120.0, 12.0),
        summary_row("max_rate_mcps", result.params[0] / 1e6, 1.34, 0.07),
    ]
    artifacts = {
        "saturation": ("saturation.csv", (["power_pw", "rate_cps"], (powers_pw, y))),
        "saturation_fit": ("saturation_fit.json", result.as_dict()),
    }
    notes = []
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# fig3b — single-shot readout


_FIG3B_KEYS = {
    "seed": (32, SEED),
    "mean_bright": (1.83, POSITIVE),
    "mean_dark": (0.13, NON_NEGATIVE),
    "fidelity_target": (0.80, FRACTION),
    "n_pulses": (150, count(1, _MAX_PULSES)),
    "trials": (100000, count(1, _MAX_TRIALS)),
}


def _run_fig3b(cfg: dict):
    """Streams: the readout simulator spawns SeedSequence(seed) children 0/1
    for the bright/dark ensembles (same spawn convention as the module rule).
    """
    seed = cfg["seed"]
    mean_bright = cfg["mean_bright"]
    mean_dark = cfg["mean_dark"]
    target = cfg["fidelity_target"]
    n_pulses = cfg["n_pulses"]

    model = photon_budget.calibrate_readout_model(mean_bright, mean_dark, target, n_pulses)
    histograms = photon_budget.simulate_readout(model, cfg["trials"], seed)
    bright, dark = histograms["bright"], histograms["dark"]

    fidelity_k1 = photon_budget.threshold_fidelity(bright, dark, 1)
    best = photon_budget.optimal_threshold(bright, dark)
    poisson_bright = photon_budget.poisson_reference_histogram(mean_bright)
    poisson_dark = photon_budget.poisson_reference_histogram(mean_dark)
    poisson_f = photon_budget.threshold_fidelity(poisson_bright, poisson_dark, 1)

    width = max(len(bright.counts), len(dark.counts))
    hist_columns = (
        range(width),
        [*bright.counts, *[0.0] * (width - len(bright.counts))],
        [*dark.counts, *[0.0] * (width - len(dark.counts))],
    )
    ks = range(width + 1)
    thresholds = (
        ks,
        [photon_budget.threshold_fidelity(bright, dark, k) for k in ks],
        [photon_budget.threshold_fidelity(poisson_bright, poisson_dark, k) for k in ks],
    )
    calibration = {
        "p_detect": model.p_detect,
        "p_flip_bright": model.p_flip_bright,
        "p_flip_dark": model.p_flip_dark,
        "dark_rate": model.dark_rate,
        "n_pulses": model.n_pulses,
        "analytic_fidelity_k1": photon_budget.analytic_threshold_fidelity_k1(model),
    }

    rows = [
        summary_row("readout_fidelity_k1", fidelity_k1, target, 0.01),
        summary_row("optimal_threshold_photons", best["k"], 1.0, 0.0),
        summary_row(
            "poisson_reference_fidelity_k1",
            poisson_f,
            0.859,
            0.001,
            note="Poisson statistics at the same means; model-derived reference",
        ),
        summary_row("mean_bright_counts", bright.mean(), mean_bright, 0.02),
        summary_row("mean_dark_counts", dark.mean(), mean_dark, 0.005),
    ]
    artifacts = {
        "histograms": ("histograms.csv", (["n", "count_bright", "count_dark"], hist_columns)),
        "thresholds": ("thresholds.csv", (["k", "fidelity", "fidelity_poisson"], thresholds)),
        "calibration": ("calibration.json", calibration),
    }
    notes = [
        "The spin-flip tail during readout pushes the threshold-1 fidelity below "
        "the flip-free Poisson reference at the same mean counts.",
    ]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# fig3c — N-photon coincidences


_FIG3C_KEYS = {
    "repetition_rate_mhz": (0.38, POSITIVE),
    "duty_cycle": (0.40, OPEN_FRACTION),
    "efficiency": (0.014, OPEN_FRACTION),
    "duration_s": (86400.0, POSITIVE),
    "max_fold": (5, count(1, _MAX_FOLD)),
}


def _run_fig3c(cfg: dict):
    """Deterministic (no random streams)."""
    rate = cfg["repetition_rate"]
    duty = cfg["duty_cycle"]
    eta = cfg["efficiency"]
    duration = cfg["duration"]

    folds = list(range(1, cfg["max_fold"] + 1))
    expected = [
        photon_budget.nfold_coincidence_expectation(rate, eta, duty, duration, n) for n in folds
    ]

    five_fold = photon_budget.nfold_coincidence_expectation(rate, eta, duty, 86400.0, 5)
    rows = [
        summary_row(
            "five_fold_events_per_day",
            five_fold,
            None,
            None,
            passed=3.0 <= five_fold <= 15.0,
            note="reported qualitatively as multiple events per day; pass window [3, 15]",
        ),
    ]
    artifacts = {
        "coincidences": ("coincidences.csv", (["n", "expected_events"], (folds, expected))),
    }
    notes = [
        "The expectation is log-linear in the fold number with slope ln(efficiency); "
        "each extra simultaneous photon costs a factor of the end-to-end efficiency.",
    ]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# fig4b — waveguide reflection dip


_FIG4B_KEYS = {
    "seed": (42, SEED),
    "cooperativity": (0.027, NON_NEGATIVE),
    "input_coupling": (0.95, OPEN_FRACTION),
    "linewidth_mhz": (70.0, POSITIVE),
    "grid_span_mhz": (1000.0, POSITIVE),
    "grid_step_mhz": (2.0, POSITIVE),
    "noise_sigma": (0.01, POSITIVE),
}


def _run_fig4b(cfg: dict):
    """Streams: 0 = raw-trace noise."""
    f_in = cfg["input_coupling"]
    span = cfg["grid_span"]
    noise = cfg["noise_sigma"]

    model = waveguide_qed.ReflectionModel(
        cooperativity=cfg["cooperativity"], f_in=f_in, gamma_h_hz=cfg["linewidth"]
    )
    delta = frequency_grid(-span / 2.0, span / 2.0, cfg["grid_step"])
    r_norm = waveguide_qed.normalized_reflection(delta, model)

    # The sideband-modulation measurement sees half signal, half static
    # background; synthesize the raw trace, then correct it back out.
    reference = Spectrum(x=delta, y=np.ones_like(delta))
    raw_clean = eom_background_inverse(Spectrum(x=delta, y=r_norm), reference).y
    raw = raw_clean + _rng(cfg["seed"], 0).normal(0.0, noise / 2.0, size=delta.size)
    raw_spectrum = Spectrum(x=delta, y=raw)
    corrected = eom_background_correction(raw_spectrum, reference)
    corrected = Spectrum(x=delta, y=corrected.y, y_err=np.full(delta.size, noise))

    fit_model = make_reflection_dip(fix_f_in=f_in).with_init((0.05, 100.0e6))
    result = fit(fit_model, corrected)
    c_fit, gamma_fit = result.params
    fitted = waveguide_qed.ReflectionModel(cooperativity=c_fit, f_in=f_in, gamma_h_hz=gamma_fit)
    contrast_fit = waveguide_qed.dip_contrast(fitted)
    fwhm_fit = waveguide_qed.dip_fwhm_hz(fitted)

    reflection_fit = {
        "c": float(c_fit),
        "f": float(f_in),
        "gamma_h_mhz": float(gamma_fit / 1e6),
        "contrast": float(contrast_fit),
        "residual_norm": float(result.residual_norm),
    }

    rows = [
        summary_row("cooperativity", c_fit, 0.027, 0.004),
        summary_row("dip_contrast", contrast_fit, 0.11, 0.015),
        summary_row("dip_fwhm_mhz", fwhm_fit / 1e6, 72.0, 4.0),
    ]
    artifacts = {
        "reflection_raw": ("reflection_raw.csv", (["delta_mhz", "r_norm"], (delta / 1e6, raw))),
        "reflection": (
            "reflection.csv", (["delta_mhz", "r_norm"], (delta / 1e6, corrected.y))
        ),
        "reflection_fit": ("reflection_fit.json", reflection_fit),
    }
    notes = [
        "reflection_raw.csv carries the halved dip of the sideband-modulated "
        "measurement; reflection.csv is after the 2*(raw/reference) - 1 correction.",
        "The input-coupling ratio is held fixed in the fit; it is constrained by "
        "an independent calibration, not by the dip shape.",
    ]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# fig4c — contrast vs saturation


_FIG4C_KEYS = {
    "seed": (43, SEED),
    "cooperativity": (0.027, NON_NEGATIVE),
    "input_coupling": (0.95, OPEN_FRACTION),
    "s_min": (0.01, POSITIVE),
    "s_max": (10.0, POSITIVE),
    "n_points": (25, count(1, MAX_GRID_POINTS)),
    "noise_sigma": (0.005, POSITIVE),
}


def _run_fig4c(cfg: dict):
    """Streams: 0 = contrast noise."""
    f_in = cfg["input_coupling"]
    noise = cfg["noise_sigma"]

    model = waveguide_qed.ReflectionModel(
        cooperativity=cfg["cooperativity"], f_in=f_in, gamma_h_hz=70.0e6
    )
    r0 = waveguide_qed.dip_contrast(model)
    s = np.geomspace(cfg["s_min"], cfg["s_max"], cfg["n_points"])
    y = waveguide_qed.contrast_vs_saturation(s, r0) + _rng(cfg["seed"], 0).normal(
        0.0, noise, size=s.size
    )
    y_err = np.full(s.size, noise)

    fit_model = make_contrast_saturation().with_init((0.05,))
    result = fit(fit_model, (s, y, y_err))

    rows = [
        summary_row("low_power_contrast", result.params[0], 0.11, 0.017),
    ]
    artifacts = {
        "contrast_saturation": (
            "contrast_saturation.csv", (["saturation", "contrast"], (s, y))
        ),
        "contrast_fit": ("contrast_fit.json", result.as_dict()),
    }
    notes = [
        "Contrast rolls off as 1/(1+s) with the saturation parameter; the fit "
        "extrapolates the low-power dip contrast.",
    ]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# table_s1 — detection-efficiency budget


_TABLE_S1_KEYS = {
    "stage_pi_pulse_fidelity": (0.80, OPEN_FRACTION),
    "stage_quantum_efficiency": (0.79, OPEN_FRACTION),
    "stage_phonon_sideband_fraction": (0.43, OPEN_FRACTION),
    "stage_waveguide_coupling": (0.325, OPEN_FRACTION),
    "stage_fibre_coupling": (0.57, OPEN_FRACTION),
    "stage_setup_transmission": (0.51, OPEN_FRACTION),
    "stage_detector_efficiency": (0.68, OPEN_FRACTION),
    "measured_efficiency": (0.0140, OPEN_FRACTION),
}


def _run_table_s1(cfg: dict):
    """Deterministic (no random streams)."""
    budget = config_mod.budget_from_config(cfg)
    measured = cfg["measured_efficiency"]
    report = photon_budget.budget_report(budget)
    total = report["total_fraction"]

    columns = ["stage", "fraction", "loss_db", "cumulative_fraction", "cumulative_loss_db"]
    table = [[r[column] for r in report["stages"]] for column in columns]

    ratio = total / measured
    rows = [
        summary_row("total_efficiency_pct", total * 100.0, 1.7, 0.1),
        summary_row(
            "predicted_over_measured",
            ratio,
            None,
            None,
            passed=0.5 <= ratio <= 2.0,
            note="measured end-to-end efficiency 1.40(5)%; agreement expected within a factor ~2",
        ),
    ]
    artifacts = {
        "budget": ("budget.json", report),
        "budget_table": ("budget.csv", (columns, table)),
    }
    notes = [
        f"Stage product {total * 100.0:.3f}% vs measured {measured * 100.0:.2f}% "
        f"(ratio {ratio:.2f}).",
    ]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# loss_chain — fibre-coupling loss accounting


_LOSS_CHAIN_KEYS = {
    "measured_roundtrip": (0.27, OPEN_FRACTION),
    "correction_splice": ("db 0.04", CORRECTION),
    "correction_facet_scattering": ("fraction 0.96", CORRECTION),
    "correction_fibre_attenuation": ("db_per_km 12 15", CORRECTION),
    "taper_etch_rate_um_min": (1.5, NON_NEGATIVE),
    "taper_pull_rate_um_min": (55.0, POSITIVE),
}


def _run_loss_chain(cfg: dict):
    """Deterministic (no random streams)."""
    chain = config_mod.loss_chain_from_config(cfg)
    single_pass = photon_budget.single_pass_from_roundtrip(chain.measured_roundtrip)
    corrected = photon_budget.apply_loss_chain(chain)
    taper = photon_budget.taper_half_angle_deg(
        cfg["taper_etch_rate_um_min"], cfg["taper_pull_rate_um_min"]
    )

    accounting = {
        "measured_roundtrip": chain.measured_roundtrip,
        "single_pass": single_pass,
        "corrections": [
            {
                "name": c.name,
                "kind": c.kind,
                "value": c.value,
                "length_m": c.length_m,
                "transmission": c.transmission(),
            }
            for c in chain.corrections
        ],
        "corrected_coupling": corrected,
        "taper_half_angle_deg": taper,
    }

    rows = [
        summary_row("single_pass_pct", single_pass * 100.0, 52.0, 2.0),
        summary_row("corrected_coupling_pct", corrected * 100.0, 57.0, 6.0),
        summary_row("taper_half_angle_deg", taper, 1.5, 0.5),
    ]
    artifacts = {"loss_chain": ("loss_chain.json", accounting)}
    notes = [
        "The corrected value divides documented per-pass losses (splice, facet "
        "scattering, fibre attenuation) out of the square-rooted roundtrip "
        "transmission.",
    ]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# rabi — damped optical Rabi oscillation


_RABI_KEYS = {
    "seed": (51, SEED),
    "rabi_frequency_mhz": (230.0, POSITIVE),
    "optical_t1_ns": (4.7, POSITIVE),
    "max_time_ns": (15.0, POSITIVE),
    "n_points": (301, count(2, MAX_GRID_POINTS)),
    "noise_sigma": (0.02, POSITIVE),
}


def _run_rabi(cfg: dict):
    """Streams: 0 = trace noise."""
    omega = TWO_PI * cfg["rabi_frequency"]
    t1 = cfg["optical_t1"]
    noise = cfg["noise_sigma"]

    calibration = optical_dynamics.pi_pulse_calibration(omega, t1)
    t = np.linspace(0.0, cfg["max_time"], cfg["n_points"])
    y = optical_dynamics.rabi_population(t, omega, t1) + _rng(cfg["seed"], 0).normal(
        0.0, noise, size=t.size
    )
    y_err = np.full(t.size, noise)

    t_ns = t * 1e9
    model = make_damped_rabi().with_init((TWO_PI * 0.2, 6.0))
    result = fit(model, (t_ns, y, y_err))
    fitted_omega_mhz = result.params[0] * 1e3 / TWO_PI
    fitted_t1_ns = result.params[1]

    rows = [
        summary_row(
            "pi_pulse_fidelity",
            calibration["fidelity"],
            0.815,
            0.001,
            note="model-derived reference; the measured preparation fidelity is 0.80(1)",
        ),
        summary_row(
            "pi_time_ns",
            calibration["t_pi"] * 1e9,
            2.17,
            0.01,
            note="model-derived reference",
        ),
        summary_row("fitted_rabi_frequency_mhz", fitted_omega_mhz, 230.0, 4.6),
        summary_row("fitted_optical_t1_ns", fitted_t1_ns, 4.7, 0.47),
    ]
    artifacts = {
        "rabi": ("rabi.csv", (["t_ns", "value"], (t_ns, y))),
        "rabi_fit": ("rabi_fit.json", result.as_dict()),
        "pi_calibration": (
            "pi_calibration.json",
            {"t_pi_ns": calibration["t_pi"] * 1e9, "fidelity": calibration["fidelity"]},
        ),
    }
    notes = [
        "The measured optimal pulse (~1.8 ns) is shorter than this rate-equation "
        "model's 2.17 ns; finite pulse shape and detuning effects are outside the "
        "model, so model-derived references are quoted for the calibration rows.",
    ]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# lifetime — spontaneous emission decay


_LIFETIME_KEYS = {
    "seed": (52, SEED),
    "lifetime_ns": (5.56, POSITIVE),
    "max_time_ns": (30.0, POSITIVE),
    "n_points": (120, count(3, MAX_GRID_POINTS)),
    "peak_counts": (3000.0, POSITIVE),
}


def _run_lifetime(cfg: dict):
    """Streams: 0 = Poisson counting noise."""
    tau = cfg["lifetime"]
    peak = cfg["peak_counts"]

    t = np.linspace(0.0, cfg["max_time"], cfg["n_points"])
    expected = peak * optical_dynamics.spontaneous_decay(t, tau)
    counts = _rng(cfg["seed"], 0).poisson(expected).astype(float)

    t_ns = t * 1e9
    model = make_exponential().with_init((0.0, peak * 0.8, 5.0))
    result = fit(model, (t_ns, counts, poisson_sigma(counts)))
    fitted_tau_ns = result.params[2]
    fourier_mhz = fourier_limited_fwhm_hz(tau) / 1e6

    rows = [
        summary_row("fitted_lifetime_ns", fitted_tau_ns, tau * 1e9, 0.02 * tau * 1e9),
        summary_row("fourier_limit_mhz", fourier_mhz, 28.6, 0.1),
    ]
    artifacts = {
        "decay": ("decay.csv", (["t_ns", "value"], (t_ns, counts))),
        "decay_fit": ("decay_fit.json", result.as_dict()),
    }
    notes = [
        "The Fourier-limited linewidth 1/(2 pi tau) uses the configured lifetime; "
        "the fitted lifetime checks the synthetic counting pipeline against it.",
    ]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# g2 — intensity autocorrelation


_G2_KEYS = {
    "seed": (53, SEED),
    "rabi_frequency_mhz": (230.0, POSITIVE),
    "optical_t1_ns": (4.7, POSITIVE),
    "background": (0.052, FRACTION),
    "max_delay_ns": (20.0, NON_NEGATIVE),
    "step_ns": (0.1, POSITIVE),
    "noise_sigma": (0.03, NON_NEGATIVE),
}


def _run_g2(cfg: dict):
    """Streams: 0 = correlation noise."""
    omega = TWO_PI * cfg["rabi_frequency"]
    t1 = cfg["optical_t1"]
    background = cfg["background"]
    step = cfg["step"]
    noise = cfg["noise_sigma"]

    _check_points(2.0 * cfg["max_delay"] / step + 1.0, "delay axis")
    n_side = int(round(cfg["max_delay"] / step))
    tau = np.arange(-n_side, n_side + 1) * step
    y = optical_dynamics.g2_autocorrelation(tau, omega, t1, background)
    y_noisy = y + _rng(cfg["seed"], 0).normal(0.0, noise, size=tau.size)

    g2_zero = optical_dynamics.g2_autocorrelation(0.0, omega, t1, background)

    rows = [
        summary_row("g2_zero", g2_zero, 0.052, 0.004),
        summary_row(
            "single_emitter_criterion",
            g2_zero,
            None,
            None,
            passed=g2_zero < 0.5,
            note="g2(0) < 0.5 certifies a single emitter",
        ),
    ]
    artifacts = {"g2": ("g2.csv", (["t_ns", "value"], (tau * 1e9, y_noisy)))}
    notes = [
        "g2(0) equals the uncorrelated-background fraction exactly in this model; "
        "the Rabi ringing at short delay reflects coherent re-excitation.",
    ]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# isotopes — splitting predictions


_ISOTOPES_KEYS = {
    "reference_splitting_mhz": (452.0, REAL),
    "reference_isotope": ("sn117", choice(*spin_hamiltonian.NUCLEAR_GYROMAGNETIC_HZ_PER_T)),
}


def _run_isotopes(cfg: dict):
    """Deterministic (no random streams)."""
    predictions = spin_hamiltonian.isotope_splitting_predictions_hz(
        cfg["reference_splitting"], cfg["reference_isotope"]
    )
    isotopes = sorted(predictions)
    table = (
        isotopes,
        [spin_hamiltonian.NUCLEAR_GYROMAGNETIC_HZ_PER_T[isotope] / 1e6 for isotope in isotopes],
        [predictions[isotope] / 1e6 for isotope in isotopes],
    )

    rows = [
        summary_row("sn115_predicted_splitting_mhz", predictions["sn115"] / 1e6, 415.0, 5.0),
        summary_row("sn119_predicted_splitting_mhz", predictions["sn119"] / 1e6, 475.0, 5.0),
    ]
    artifacts = {
        "isotope_splittings": (
            "isotope_splittings.csv", (["isotope", "gamma_n_mhz_per_t", "splitting_mhz"], table)
        ),
    }
    notes = [
        "The contact hyperfine coupling scales with the nuclear gyromagnetic "
        "ratio, so sibling-isotope splittings follow from the measured one and "
        "tabulated ratios.",
    ]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# registry and runner


_SCENARIOS = [
    Scenario(
        name="fig1d",
        description="Inhomogeneous distribution of emitter optical frequencies with Gaussian fit (Fig. 1d).",
        keys=_FIG1D_KEYS,
        runner=_run_fig1d,
    ),
    Scenario(
        name="fig1e",
        description="Zero-field resonant-excitation doublet of a single register, with the ground-manifold level table (Fig. 1e).",
        keys=_FIG1E_KEYS,
        runner=_run_fig1e,
    ),
    Scenario(
        name="fig2a",
        description="Optical line quartet versus magnetic field; slope and zero-field splitting from the outer-line span (Fig. 2a).",
        keys=_FIG2A_KEYS,
        runner=_run_fig2a,
    ),
    Scenario(
        name="fig2b",
        description="Hyperfine splitting across an ensemble of emitters (Fig. 2b).",
        keys=_FIG2B_KEYS,
        runner=_run_fig2b,
    ),
    Scenario(
        name="fig2c",
        description="Nuclear-spin initialization fidelity versus optical pumping time (Fig. 2c).",
        keys=_FIG2C_KEYS,
        runner=_run_fig2c,
    ),
    Scenario(
        name="fig2d",
        description="Nuclear polarization relaxation toward the unpolarized state (Fig. 2d).",
        keys=_FIG2D_KEYS,
        runner=_run_fig2d,
    ),
    Scenario(
        name="fig3a",
        description="Detected fluorescence saturation versus resonant drive power (Fig. 3a).",
        keys=_FIG3A_KEYS,
        runner=_run_fig3a,
    ),
    Scenario(
        name="fig3b",
        description="Single-shot spin-readout photon histograms and threshold fidelity (Fig. 3b).",
        keys=_FIG3B_KEYS,
        runner=_run_fig3b,
    ),
    Scenario(
        name="fig3c",
        description="Expected N-photon coincidence events per day of acquisition (Fig. 3c).",
        keys=_FIG3C_KEYS,
        runner=_run_fig3c,
    ),
    Scenario(
        name="fig4b",
        description="Waveguide reflection dip with sideband-background correction and model fit (Fig. 4b).",
        keys=_FIG4B_KEYS,
        runner=_run_fig4b,
    ),
    Scenario(
        name="fig4c",
        description="Reflection-dip contrast versus drive saturation (Fig. 4c).",
        keys=_FIG4C_KEYS,
        runner=_run_fig4c,
    ),
    Scenario(
        name="table_s1",
        description="End-to-end detection-efficiency budget, stage by stage (Table S1).",
        keys=_TABLE_S1_KEYS,
        runner=_run_table_s1,
    ),
    Scenario(
        name="loss_chain",
        description="Fibre-coupling efficiency from a roundtrip transmission with documented loss corrections (Table S1 supporting analysis).",
        keys=_LOSS_CHAIN_KEYS,
        runner=_run_loss_chain,
    ),
    Scenario(
        name="rabi",
        description="Damped optical Rabi oscillation with pi-pulse calibration and model fit (optical pulse calibration, supporting Fig. 2).",
        keys=_RABI_KEYS,
        runner=_run_rabi,
    ),
    Scenario(
        name="lifetime",
        description="Excited-state lifetime decay and the Fourier-limited linewidth it implies (supporting measurement for Fig. 1e).",
        keys=_LIFETIME_KEYS,
        runner=_run_lifetime,
    ),
    Scenario(
        name="g2",
        description="Second-order intensity autocorrelation with background floor (single-emitter check for Fig. 1).",
        keys=_G2_KEYS,
        runner=_run_g2,
    ),
    Scenario(
        name="isotopes",
        description="Predicted optical splittings for the sibling spin-1/2 isotopes (isotope assignment analysis, supporting Fig. 2b).",
        keys=_ISOTOPES_KEYS,
        runner=_run_isotopes,
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
    rows, artifacts, notes = scenario.runner(values)
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
                _write(path, payload)
            else:  # a directory: {file name: payload}
                path.mkdir()
                for file_name, item in payload.items():
                    _write(path / file_name, item)
        _write(out_dir / "summary.json", summary)
        _write(out_dir / "report.txt", _report(scenario, rows, index, notes))
    except BaseException:
        shutil.rmtree(out_dir, ignore_errors=True)  # no partial tree
        raise
    return ScenarioResult(
        name=scenario.name, out_dir=out_dir, rows=rows, artifacts=index, notes=notes
    )
