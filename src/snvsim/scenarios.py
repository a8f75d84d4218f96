"""Scenario runners: named desk-scale experiment reproductions.

Each scenario reproduces one published panel or table at synthetic-data
scale: it synthesizes data from the model stack, runs the same analysis an
experiment would (fits, thresholds, budgets), and reports summary entries
``{quantity, simulated, paper_value, tolerance, pass}`` together with its
data artifacts.  Names, descriptions, config keys, and ``run_scenario``,
which checks a config, calls a runner and writes its artifacts, live in
:mod:`snvsim.registry`; the scalar ``table_s1`` and ``loss_chain`` runners
live in :mod:`snvsim.efficiency`.

Six scenarios are one experiment: sample a closed form on an axis, add one
kind of noise, fit a registry model and read rows off the fit.  Each of
fig2c, fig2d, fig3a, fig4c, rabi and lifetime is a :class:`TraceFit` record,
and calling the record runs it.

Reproducibility
---------------
All randomness in a scenario flows from its single integer config key
``seed``.  The k-th independent random component of a scenario (the order
is documented per runner; each trace-fit record draws its noise from stream
0) uses the stream ``numpy.random.SeedSequence(seed, spawn_key=(k,))``;
nothing else consumes randomness, so reruns with the same config are
byte-identical, including every artifact file.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import optical_dynamics, photon_budget, spin_hamiltonian, waveguide_qed
from .artifacts import summary_row
from .config import in_base_units
from .fitting import (
    FitResult,
    ModelSpec,
    _finite_or_none,
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
# The registry's entry points; the benchmark harness under perfbench/ imports them from here.
from .registry import SCENARIOS, available_scenarios, run_scenario  # noqa: F401
from .spectra import (
    SpectralLine,
    Spectrum,
    _check_points,
    eom_background_correction,
    eom_background_inverse,
    frequency_grid,
    synthesize_spectrum,
)
from .units import TWO_PI, fourier_limited_fwhm_hz, fwhm_to_sigma, sigma_to_fwhm


# --------------------------------------------------------------------------
# plumbing


def _stream(seed: int, index: int) -> np.random.SeedSequence:
    """The documented per-component random stream (see module docstring)."""
    return np.random.SeedSequence(seed, spawn_key=(index,))


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(_stream(seed, index))


def _fit_grid(cfg: dict) -> np.ndarray:
    """The grid of ``cfg``'s span and step about zero."""
    return frequency_grid(-cfg["grid_span"] / 2.0, cfg["grid_span"] / 2.0, cfg["grid_step"])


# --------------------------------------------------------------------------
# fig1d — inhomogeneous ensemble


def _run_fig1d(cfg: dict):
    """Streams: 0 = emitter ensemble draw."""
    n = cfg["n_emitters"]
    fwhm = cfg["inhomogeneous_fwhm"]
    bin_width = cfg["bin_width"]

    centers = _rng(cfg["seed"], 0).normal(0.0, fwhm_to_sigma(fwhm), size=n)
    empirical_fwhm = sigma_to_fwhm(float(np.std(centers, ddof=1)))
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


def _run_fig1e(cfg: dict):
    """Streams: 0 = spectrum noise."""
    seed = cfg["seed"]
    split = cfg["zero_field_splitting"]
    fwhm = cfg["linewidth"]
    model = make_lorentzian_multi(n_lines=2).with_init(
        (fwhm, -split / 2.0, 1.0, split / 2.0, 1.0)
    )
    x = _fit_grid(cfg)

    params = spin_hamiltonian.sn117_ground()
    hamiltonian = spin_hamiltonian.build_ground_hamiltonian(params, (0.0, 0.0, 0.0))
    energies = spin_hamiltonian.eigenenergies(hamiltonian)

    # At zero field the lines do not depend on the field slope.
    transition = spin_hamiltonian.OpticalTransitionParams.from_cyclic_hz(split)
    detunings = spin_hamiltonian.optical_transition_detunings(transition, 0.0)
    lines = [SpectralLine(center_hz=c, fwhm_hz=fwhm, amplitude=0.5) for c in detunings]
    spectrum = synthesize_spectrum(lines, x, noise_sigma=1.0 / cfg["snr"], seed=_stream(seed, 0))
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

    transition = spin_hamiltonian.OpticalTransitionParams.from_cyclic_hz(
        cfg["zero_field_splitting"], cfg["slope"]
    )
    x = _fit_grid(cfg)
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
    regression = {  # a value beyond the float range is written as null
        "slope_hz_per_t": _finite_or_none(slope_fit),
        "slope_se_hz_per_t": _finite_or_none(slope_se),
        "intercept_hz": _finite_or_none(intercept_fit),
        "intercept_se_hz": _finite_or_none(intercept_se),
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


def _run_fig2b(cfg: dict):
    """Streams: 0 = ensemble draw, 1+k = spectrum noise of emitter k."""
    seed = cfg["seed"]
    n = cfg["n_emitters"]
    split_mean = cfg["splitting_mean"]
    split_sigma = cfg["splitting_sigma"]
    fwhm = cfg["linewidth"]
    snr = cfg["snr"]
    model = make_lorentzian_multi(n_lines=2).with_init(
        (fwhm, -split_mean / 2.0, 1.0, split_mean / 2.0, 1.0)
    )

    # Each emitter is a doublet about zero detuning, its splitting drawn per emitter.
    splits = split_mean + _rng(seed, 0).normal(0.0, split_sigma, size=n)
    lows, highs = -splits / 2.0, splits / 2.0
    x = _fit_grid(cfg)

    spectra = {}
    fitted_splits = np.empty(n)
    for k in range(n):
        lines = [SpectralLine(lows[k], fwhm, 1.0), SpectralLine(highs[k], fwhm, 1.0)]
        spectrum = synthesize_spectrum(lines, x, noise_sigma=1.0 / snr, seed=_stream(seed, 1 + k))
        spectra[f"emitter_{k:02d}.csv"] = spectrum
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
# trace fits — fig2c, fig2d, fig3a, fig4c, rabi, lifetime


def _at(field, values: dict):
    """A record field: a constant, or a function of the run's values."""
    return field(values) if callable(field) else field


def _additive(truth: np.ndarray, values: dict, draw: np.random.Generator):
    """Gaussian noise of sd ``noise_sigma``: y = truth + n, y_err = noise_sigma."""
    sigma = values["noise_sigma"]
    return truth + draw.normal(0.0, sigma, size=truth.size), np.full(truth.size, sigma)


def _relative(truth: np.ndarray, values: dict, draw: np.random.Generator):
    """Gaussian noise of relative sd ``noise_rel``: y = truth (1 + n), y_err = noise_rel truth."""
    rel = values["noise_rel"]
    return truth * (1.0 + draw.normal(0.0, rel, size=truth.size)), rel * truth


def _poisson(truth: np.ndarray, values: dict, draw: np.random.Generator):
    """Poisson counts of mean ``truth``, each weighted by ``poisson_sigma``."""
    counts = draw.poisson(truth).astype(float)
    return counts, poisson_sigma(counts)


def _exponential(x: np.ndarray, baseline: float, amplitude: float, tau: float) -> np.ndarray:
    """The ``exponential`` fit model's values, in the unit of ``x`` and ``tau``."""
    return make_exponential().evaluator(np.array([baseline, amplitude, tau]), x)[0]


class Row(NamedTuple):
    """A summary row of a trace fit.

    ``value`` is an index into the fitted parameters, or a function of them and
    the run's values; ``paper_value`` and ``tolerance`` are numbers, or
    functions of the run's values.
    """

    quantity: str
    value: int | Callable[[tuple, dict], float]
    paper_value: float | Callable[[dict], float]
    tolerance: float | Callable[[dict], float]
    note: str = ""


class TraceFit(NamedTuple):
    """A scenario that samples a closed form on an axis, adds one kind of noise
    drawn from stream 0, and fits a registry model to the trace.

    Calling the record runs it on a checked config.  A field that is a function
    takes the run's values: the config in base units, with whatever ``derive``
    computes from it.
    """

    axis: Callable[[dict], np.ndarray]  # the sample points, in base units
    truth: Callable[[dict, np.ndarray], np.ndarray]  # the noiseless trace on them
    noise: Callable  # (truth, values, generator) -> (y, y_err)
    model: Callable[[], ModelSpec]  # the registry factory
    init: tuple | Callable[[dict], tuple]  # the fit's start
    x_scale: float  # the fit's x is the axis times this
    csv: tuple  # (artifact key, file name, header, scale of the x column)
    fit_json: tuple  # (artifact key, file name)
    rows: tuple  # Rows, in summary order
    notes: tuple = ()  # strings, or functions of the values
    derive: Callable[[dict], dict] | None = None  # named values computed from the config
    extra_json: tuple = ()  # (artifact key, file name, derived value's name), after fit_json

    def __call__(self, cfg: dict):
        values = {**cfg, **self.derive(cfg)} if self.derive else cfg
        axis = self.axis(values)
        y, y_err = self.noise(self.truth(values, axis), values, _rng(values["seed"], 0))
        model = self.model().with_init(_at(self.init, values))
        result = fit(model, (axis * self.x_scale, y, y_err))

        rows = [
            summary_row(
                row.quantity,
                result.params[row.value] if isinstance(row.value, int)
                else row.value(result.params, values),
                _at(row.paper_value, values),
                _at(row.tolerance, values),
                note=row.note,
            )
            for row in self.rows
        ]
        csv_key, csv_name, header, csv_scale = self.csv
        fit_key, fit_name = self.fit_json
        artifacts = {
            csv_key: (csv_name, (list(header), (axis * csv_scale, y))),
            fit_key: (fit_name, result.as_dict()),
            **{key: (name, values[value]) for key, name, value in self.extra_json},
        }
        return rows, artifacts, [_at(note, values) for note in self.notes]


def _time_axis(values: dict) -> np.ndarray:
    return np.linspace(0.0, values["max_time"], values["n_points"])


def _pumping_time_constant(cfg: dict) -> dict:
    """fig2c's time constant, from the one calibration point."""
    return {"tau": optical_dynamics.pumping_time_constant(
        cfg["calibration_time"], cfg["calibration_fidelity"], cfg["steady_fidelity"])}


def _pi_pulse(cfg: dict) -> dict:
    """rabi's angular drive and its pi-pulse calibration."""
    omega = TWO_PI * cfg["rabi_frequency"]
    calibration = optical_dynamics.pi_pulse_calibration(omega, cfg["optical_t1"])
    pi_pulse = {"t_pi_ns": calibration["t_pi"] * 1e9, "fidelity": calibration["fidelity"]}
    return {"omega": omega, "pi_pulse": pi_pulse}


FIG2C = TraceFit(
    axis=_time_axis,
    # pumped from the unpolarized start 1/2 toward the steady state
    truth=lambda v, t: _exponential(
        t, v["steady_fidelity"], 0.5 - v["steady_fidelity"], v["tau"]),
    noise=_additive,
    model=make_exponential,
    init=(0.9, -0.4, 5.0),
    x_scale=1e6,
    csv=("pumping", "pumping.csv", ("t_ns", "value"), 1e9),
    fit_json=("exponential_fit", "exponential_fit.json"),
    rows=(
        Row("steady_state_fidelity", 0, lambda v: v["steady_fidelity"], 0.005),
        Row("pump_time_constant_us", 2, lambda v: v["tau"] * 1e6, lambda v: 0.1 * v["tau"] * 1e6,
            note="reference derived from the calibration point, not directly reported"),
    ),
    notes=(
        lambda v: f"Pump time constant calibrated to {v['tau'] * 1e6:.2f} us from the single "
        f"({v['calibration_time'] * 1e6:g} us, {v['calibration_fidelity']:g}) endpoint "
        "measurement.",
    ),
    derive=_pumping_time_constant,
)

FIG2D = TraceFit(
    axis=_time_axis,
    truth=lambda v, t: _exponential(t, 0.5, v["initial_fidelity"] - 0.5, v["nuclear_t1"]),
    noise=_additive,
    model=make_exponential,
    init=(0.5, 0.5, 1.0),
    x_scale=1.0,
    csv=("depolarization", "depolarization.csv", ("t_ns", "value"), 1e9),
    fit_json=("exponential_fit", "exponential_fit.json"),
    rows=(
        Row("nuclear_t1_s", 2, lambda v: v["nuclear_t1"], lambda v: 0.1 * v["nuclear_t1"]),
        Row("equilibrium_fidelity", 0, 0.5, 0.02),
    ),
    notes=("The polarization relaxes to the unpolarized value 1/2, not to zero.",),
)

FIG3A = TraceFit(
    axis=lambda v: np.geomspace(v["power_min"], v["power_max"], v["n_points"]),
    truth=lambda v, p: optical_dynamics.saturation_rate(p, v["saturation_power"], v["max_rate"]),
    noise=_relative,
    model=make_saturation,
    init=(8.0e5, 60.0),
    x_scale=1e12,
    csv=("saturation", "saturation.csv", ("power_pw", "rate_cps"), 1e12),
    fit_json=("saturation_fit", "saturation_fit.json"),
    rows=(
        Row("saturation_power_pw", 1, 120.0, 12.0),
        Row("max_rate_mcps", lambda p, v: p[0] / 1e6, 1.34, 0.07),
    ),
)

FIG4C = TraceFit(
    axis=lambda v: np.geomspace(v["s_min"], v["s_max"], v["n_points"]),
    truth=lambda v, s: waveguide_qed.contrast_vs_saturation(s, waveguide_qed.dip_contrast(
        waveguide_qed.ReflectionModel(
            cooperativity=v["cooperativity"], f_in=v["input_coupling"], gamma_h_hz=70.0e6))),
    noise=_additive,
    model=make_contrast_saturation,
    init=(0.05,),
    x_scale=1.0,
    csv=("contrast_saturation", "contrast_saturation.csv", ("saturation", "contrast"), 1.0),
    fit_json=("contrast_fit", "contrast_fit.json"),
    rows=(Row("low_power_contrast", 0, 0.11, 0.017),),
    notes=(
        "Contrast rolls off as 1/(1+s) with the saturation parameter; the fit "
        "extrapolates the low-power dip contrast.",
    ),
)

RABI = TraceFit(
    axis=_time_axis,
    truth=lambda v, t: optical_dynamics.rabi_population(t, v["omega"], v["optical_t1"]),
    noise=_additive,
    model=make_damped_rabi,
    init=(TWO_PI * 0.2, 6.0),
    x_scale=1e9,
    csv=("rabi", "rabi.csv", ("t_ns", "value"), 1e9),
    fit_json=("rabi_fit", "rabi_fit.json"),
    rows=(
        Row("pi_pulse_fidelity", lambda p, v: v["pi_pulse"]["fidelity"], 0.815, 0.001,
            note="model-derived reference; the measured preparation fidelity is 0.80(1)"),
        Row("pi_time_ns", lambda p, v: v["pi_pulse"]["t_pi_ns"], 2.17, 0.01,
            note="model-derived reference"),
        Row("fitted_rabi_frequency_mhz", lambda p, v: p[0] * 1e3 / TWO_PI, 230.0, 4.6),
        Row("fitted_optical_t1_ns", 1, 4.7, 0.47),
    ),
    notes=(
        "The measured optimal pulse (~1.8 ns) is shorter than this rate-equation "
        "model's 2.17 ns; finite pulse shape and detuning effects are outside the "
        "model, so model-derived references are quoted for the calibration rows.",
    ),
    derive=_pi_pulse,
    extra_json=(("pi_calibration", "pi_calibration.json", "pi_pulse"),),
)

LIFETIME = TraceFit(
    axis=_time_axis,
    truth=lambda v, t: _exponential(t, 0.0, v["peak_counts"], v["lifetime"]),
    noise=_poisson,
    model=make_exponential,
    init=lambda v: (0.0, v["peak_counts"] * 0.8, 5.0),
    x_scale=1e9,
    csv=("decay", "decay.csv", ("t_ns", "value"), 1e9),
    fit_json=("decay_fit", "decay_fit.json"),
    rows=(
        Row("fitted_lifetime_ns", 2, lambda v: v["lifetime"] * 1e9,
            lambda v: 0.02 * v["lifetime"] * 1e9),
        Row("fourier_limit_mhz", lambda p, v: fourier_limited_fwhm_hz(v["lifetime"]) / 1e6,
            28.6, 0.1),
    ),
    notes=(
        "The Fourier-limited linewidth 1/(2 pi tau) uses the configured lifetime; "
        "the fitted lifetime checks the synthetic counting pipeline against it.",
    ),
)


# --------------------------------------------------------------------------
# fig3b — single-shot readout


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


def _run_fig4b(cfg: dict):
    """Streams: 0 = raw-trace noise."""
    f_in = cfg["input_coupling"]
    noise = cfg["noise_sigma"]
    fit_model = make_reflection_dip(fix_f_in=f_in).with_init((0.05, 100.0e6))

    model = waveguide_qed.ReflectionModel(
        cooperativity=cfg["cooperativity"], f_in=f_in, gamma_h_hz=cfg["linewidth"]
    )
    delta = _fit_grid(cfg)
    r_norm = waveguide_qed.normalized_reflection(delta, model)

    # The sideband-modulation measurement sees half signal, half static
    # background; synthesize the raw trace, then correct it back out.
    raw_clean = eom_background_inverse(r_norm)
    raw = raw_clean + _rng(cfg["seed"], 0).normal(0.0, noise / 2.0, size=delta.size)
    corrected = Spectrum(
        x=delta, y=eom_background_correction(raw), y_err=np.full(delta.size, noise)
    )

    result = fit(fit_model, corrected)
    c_fit, gamma_fit = result.params
    fitted = waveguide_qed.ReflectionModel(cooperativity=c_fit, f_in=f_in, gamma_h_hz=gamma_fit)
    contrast_fit = waveguide_qed.dip_contrast(fitted)
    fwhm_fit = waveguide_qed.dip_fwhm_hz(fitted)

    reflection_fit = {  # a value beyond the float range is written as null
        "c": _finite_or_none(c_fit),
        "f": f_in,
        "gamma_h_mhz": _finite_or_none(gamma_fit / 1e6),
        "contrast": _finite_or_none(contrast_fit),
        "residual_norm": _finite_or_none(result.residual_norm),
    }

    # gamma0 is the Fourier limit of the lifetime scenario's default lifetime.
    _, lifetime_s = in_base_units("lifetime_ns", SCENARIOS["lifetime"].defaults["lifetime_ns"])
    gamma0 = fourier_limited_fwhm_hz(lifetime_s)
    beta = waveguide_qed.beta_total(c_fit, gamma_fit, gamma0)

    rows = [
        summary_row("cooperativity", c_fit, 0.027, 0.004),
        summary_row("dip_contrast", contrast_fit, 0.11, 0.015),
        summary_row("dip_fwhm_mhz", fwhm_fit / 1e6, 72.0, 4.0),
    ]
    if beta <= 1.0:
        qe = waveguide_qed.quantum_efficiency_bound(beta)
        rows += [
            summary_row("beta_tot_pct", 100.0 * beta, 6.2, 0.7),
            summary_row("qe_bound_pct", 100.0 * qe, 51.0, 8.0),
        ]
    else:
        note = (
            "C * gamma_h / gamma0 is above 1, which no physical beta_tot is; "
            "simulated is that ratio"
        )
        rows += [
            summary_row("beta_tot_pct", beta, 6.2, 0.7, passed=False, note=note),
            summary_row("qe_bound_pct", beta, 51.0, 8.0, passed=False, note=note),
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
        f"beta_tot = C * gamma_h / gamma0 from the fitted C and gamma_h, with gamma0 = "
        f"{gamma0 / 1e6:.4g} MHz the Fourier limit 1/(2 pi tau) of the lifetime scenario's "
        f"default tau = {lifetime_s * 1e9:.4g} ns; the QE bound is beta_tot / "
        f"(beta_cav * eta_dw * eta_orb) = beta_tot / ({waveguide_qed.BETA_CAV:g} * "
        f"{waveguide_qed.ETA_DW:g} * {waveguide_qed.ETA_ORB:g}).",
    ]
    return rows, artifacts, notes


# --------------------------------------------------------------------------
# g2 — intensity autocorrelation


def _run_g2(cfg: dict):
    """Streams: 0 = correlation noise."""
    omega = TWO_PI * cfg["rabi_frequency"]
    t1 = cfg["optical_t1"]
    background = cfg["background"]
    step = cfg["step"]
    noise = cfg["noise_sigma"]

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
