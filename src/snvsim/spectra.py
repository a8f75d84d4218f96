"""Synthetic spectra: line sums, inhomogeneous ensembles, drift, corrections.

Spectra are (frequency grid, intensity) pairs with optional per-point
uncertainties.  Synthesis sums peak-normalized Lorentzian lines and adds
seeded Gaussian noise; ensembles draw emitter centers from a Gaussian
inhomogeneous distribution and a hyperfine splitting per emitter, as
arrays.  Slow spectral drift is modeled as a bounded random walk applied
by grid re-interpolation, and undone by per-scan line fits
(``recenter_scans``).  The electro-optic sideband background correction and
its exact inverse live here too, and so does reading a spectrum back from
CSV; :mod:`snvsim.artifacts` writes it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

# Spectrum CSVs are written by the artifact layer; this module keeps the name.
from .artifacts import write_spectrum_csv  # noqa: F401
from .config import MAX_GRID_POINTS
from .fitting import (
    lorentzian_sum,
    make_lorentzian_multi,
    fit,
)
from .units import fwhm_to_sigma


@dataclass(frozen=True)
class Spectrum:
    """A sampled spectrum: strictly ascending frequency grid plus intensities."""

    x: np.ndarray
    y: np.ndarray
    y_err: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.y_err is not None:
            object.__setattr__(self, "y_err", np.asarray(self.y_err, dtype=float))
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if self.x.size < 2:
            raise ValueError("spectrum needs at least two grid points")
        if not np.all(np.isfinite(self.x)) or not np.all(np.isfinite(self.y)):
            raise ValueError("spectrum values must be finite")
        if np.any(np.diff(self.x) <= 0.0):
            raise ValueError("frequency grid must be strictly increasing")
        if self.y_err is not None:
            if self.y_err.shape != self.y.shape:
                raise ValueError("y_err must match y in shape")
            if not np.all(np.isfinite(self.y_err)) or np.any(self.y_err <= 0.0):
                raise ValueError("y_err must be finite and strictly positive")


@dataclass(frozen=True)
class SpectralLine:
    """One Lorentzian line: center and FWHM in Hz, peak amplitude in y units."""

    center_hz: float
    fwhm_hz: float
    amplitude: float

    def __post_init__(self) -> None:
        if self.fwhm_hz <= 0.0:
            raise ValueError(f"fwhm must be positive, got {self.fwhm_hz}")
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")


def _check_points(n: float, axis: str) -> None:
    """Refuse an axis of ``n`` points, ``n`` a float that may be inf, above the cap."""
    if n > MAX_GRID_POINTS:
        raise ValueError(f"{axis} of {n:.3g} points exceeds the cap of {MAX_GRID_POINTS}")


def frequency_grid(start_hz: float, stop_hz: float, step_hz: float) -> np.ndarray:
    """Ascending grid from start to stop (inclusive within half a step)."""
    if step_hz <= 0.0 or stop_hz <= start_hz:
        raise ValueError("need stop > start and a positive step")
    n = (stop_hz - start_hz) / step_hz  # inf when the ratio overflows
    _check_points(n + 1, "frequency grid")
    return start_hz + step_hz * np.arange(int(round(n)) + 1)


def line_sum(lines, x_hz) -> np.ndarray:
    """Noise-free sum of Lorentzian lines on the grid ``x_hz``."""
    return lorentzian_sum(
        x_hz,
        [line.center_hz for line in lines],
        [line.fwhm_hz for line in lines],
        [line.amplitude for line in lines],
    )


def synthesize_spectrum(lines, x_hz, noise_sigma: float = 0.0, seed=None) -> Spectrum:
    """Sum of Lorentzian lines plus seeded Gaussian noise.

    With ``noise_sigma`` > 0 the per-point uncertainty is recorded in the
    result; with zero noise the output equals the analytic line sum.
    ``seed`` is anything ``numpy.random.default_rng`` accepts (int or
    SeedSequence).
    """
    if noise_sigma < 0.0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    x = np.asarray(x_hz, dtype=float)
    y = line_sum(lines, x)
    y_err = None
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        y = y + rng.normal(0.0, noise_sigma, size=x.size)
        y_err = np.full(x.size, noise_sigma)
    return Spectrum(x=x, y=y, y_err=y_err)


def sample_inhomogeneous_ensemble(
    center_hz: float,
    fwhm_hz: float,
    n: int,
    split_hz: float,
    seed=None,
    split_sigma_hz: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` emitters from a Gaussian inhomogeneous distribution.

    Returns ``(centers, splits)``, two float arrays of shape ``(n,)``.
    Emitter centers are normal with the given FWHM around ``center_hz``;
    each emitter's hyperfine splitting is ``split_hz``, optionally spread
    by ``split_sigma_hz``, so emitter k is a doublet at
    ``centers[k] -+ splits[k] / 2``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if fwhm_hz < 0.0 or split_sigma_hz < 0.0:
        raise ValueError("widths must be >= 0")
    rng = np.random.default_rng(seed)
    centers = center_hz + (
        rng.normal(0.0, fwhm_to_sigma(fwhm_hz), size=n) if fwhm_hz > 0.0 else np.zeros(n)
    )
    splits = split_hz + (
        rng.normal(0.0, split_sigma_hz, size=n) if split_sigma_hz > 0.0 else np.zeros(n)
    )
    return centers, splits


def shift_spectrum(spectrum: Spectrum, shift_hz: float) -> Spectrum:
    """Shift spectral features by ``shift_hz`` via linear re-interpolation.

    A feature at f appears at f + shift afterwards; points shifted in from
    beyond the grid take the edge value.
    """
    y = np.interp(spectrum.x - shift_hz, spectrum.x, spectrum.y)
    return Spectrum(x=spectrum.x, y=y, y_err=spectrum.y_err)


def drift_shifts(
    n_scans: int,
    drift_amplitude_hz: float,
    timescale_scans: float,
    seed=None,
) -> np.ndarray:
    """Bounded-random-walk drift trajectory, one shift per scan.

    Gaussian increments of scale amplitude/(2 sqrt(timescale)) make the
    walk explore about +-amplitude/2 over one timescale; positions are
    clipped to that band so the total excursion never exceeds the stated
    amplitude.  The first scan starts undrifted.
    """
    if n_scans < 1:
        raise ValueError(f"n_scans must be >= 1, got {n_scans}")
    if drift_amplitude_hz < 0.0 or timescale_scans <= 0.0:
        raise ValueError("drift amplitude must be >= 0 and timescale positive")
    if drift_amplitude_hz == 0.0:
        return np.zeros(n_scans)
    rng = np.random.default_rng(seed)
    half_band = drift_amplitude_hz / 2.0
    step_sigma = drift_amplitude_hz / (2.0 * math.sqrt(timescale_scans))
    shifts = np.empty(n_scans)
    position = 0.0
    shifts[0] = position
    for i in range(1, n_scans):
        position = float(np.clip(position + rng.normal(0.0, step_sigma), -half_band, half_band))
        shifts[i] = position
    return shifts


def apply_drift(
    scans: list[Spectrum],
    drift_amplitude_hz: float,
    timescale_scans: float,
    seed=None,
    shifts=None,
) -> tuple[list[Spectrum], np.ndarray]:
    """Apply slow spectral drift to a scan series.

    Draws a bounded random walk (or uses the explicitly supplied per-scan
    ``shifts``) and re-interpolates every scan onto its drifted position.
    Returns the drifted scans together with the shifts actually applied.
    """
    if not scans:
        raise ValueError("no scans supplied")
    grids = [s.x for s in scans]
    if any(g.shape != grids[0].shape or not np.array_equal(g, grids[0]) for g in grids[1:]):
        raise ValueError("all scans must share one frequency grid")
    if shifts is None:
        shifts = drift_shifts(len(scans), drift_amplitude_hz, timescale_scans, seed)
    shifts = np.asarray(shifts, dtype=float)
    if shifts.shape != (len(scans),):
        raise ValueError(f"need one shift per scan, got shape {shifts.shape}")
    drifted = [shift_spectrum(scan, shift) for scan, shift in zip(scans, shifts)]
    return drifted, shifts


def initial_line_guesses(spectrum: Spectrum, n_lines: int) -> list[float]:
    """Data-driven initial guess for an ``n_lines`` shared-width Lorentzian fit.

    Picks successive maxima, masking a window around each found peak; the
    window and width guess come from the grid span.  Layout matches
    ``make_lorentzian_multi``: [fwhm, center_1, amplitude_1, ...].
    """
    if n_lines < 1:
        raise ValueError(f"n_lines must be >= 1, got {n_lines}")
    x, y = spectrum.x, spectrum.y.copy()
    span = x[-1] - x[0]
    fwhm_guess = span / 20.0
    baseline = float(np.min(y))
    init = [fwhm_guess]
    for _ in range(n_lines):
        idx = int(np.argmax(y))
        init += [float(x[idx]), float(y[idx] - baseline)]
        y[np.abs(x - x[idx]) < fwhm_guess] = baseline
    return init


@dataclass(frozen=True)
class RecenterResult:
    """Aligned average spectrum, per-scan shifts, and any excluded scans."""

    aligned: Spectrum
    shifts: np.ndarray
    excluded: tuple[int, ...]


def fit_line_center(spectrum: Spectrum, n_lines: int = 1) -> float:
    """Mean fitted center (Hz) of the scan's strongest ``n_lines`` lines."""
    model = make_lorentzian_multi(n_lines=n_lines).with_init(
        initial_line_guesses(spectrum, n_lines)
    )
    result = fit(model, spectrum)
    if result.status == "singular":
        raise RuntimeError(f"line fit failed: {result.message}")
    centers = [result.params[1 + 2 * k] for k in range(n_lines)]
    return float(np.mean(centers))


def recenter_scans(scans: list[Spectrum], n_lines: int = 1) -> RecenterResult:
    """Undo per-scan drift by aligning fitted line centers to the first scan.

    Each scan gets a shared-width Lorentzian fit (``n_lines`` lines); the
    scan is then shifted so its fitted center matches the first scan's, and
    the aligned scans are averaged.  Scans whose fit fails are excluded
    from the average and reported in the result.
    """
    if not scans:
        raise ValueError("no scans supplied")
    centers: dict[int, float] = {}
    excluded: list[int] = []
    for i, scan in enumerate(scans):
        try:
            centers[i] = fit_line_center(scan, n_lines)
        except (RuntimeError, ValueError):
            excluded.append(i)
    if not centers:
        raise RuntimeError("every scan failed to fit; nothing to align")
    kept = sorted(centers)
    reference = centers[kept[0]]
    shifts = np.zeros(len(scans))
    for i in kept:
        shifts[i] = centers[i] - reference
    aligned = average_spectra([shift_spectrum(scans[i], -shifts[i]) for i in kept])
    return RecenterResult(aligned=aligned, shifts=shifts, excluded=tuple(excluded))


def average_spectra(scans: list[Spectrum]) -> Spectrum:
    """Plain pointwise average of scans sharing a grid (no alignment)."""
    if not scans:
        raise ValueError("no scans supplied")
    ys = np.asarray([s.y for s in scans])
    return Spectrum(x=scans[0].x, y=ys.mean(axis=0))


def eom_background_correction(raw: Spectrum, reference: Spectrum) -> Spectrum:
    """Remove the static-sideband background from a sideband-scanned spectrum.

    Only one of the two equal-intensity modulation sidebands scans through
    the resonance, so after normalizing to an off-resonant reference half
    the signal is a featureless background:

        y_corr = 2 * (y_raw / y_ref) - 1

    mapping no dip to 1 and a full dip to 0.  Exactly inverted by
    :func:`eom_background_inverse`.
    """
    if raw.x.shape != reference.x.shape or not np.array_equal(raw.x, reference.x):
        raise ValueError("raw and reference spectra must share one grid")
    if np.any(reference.y <= 0.0):
        raise ValueError("reference intensity must be strictly positive everywhere")
    return Spectrum(x=raw.x, y=2.0 * (raw.y / reference.y) - 1.0)


def eom_background_inverse(corrected: Spectrum, reference: Spectrum) -> Spectrum:
    """Exact inverse of :func:`eom_background_correction`."""
    if corrected.x.shape != reference.x.shape or not np.array_equal(corrected.x, reference.x):
        raise ValueError("corrected and reference spectra must share one grid")
    if np.any(reference.y <= 0.0):
        raise ValueError("reference intensity must be strictly positive everywhere")
    return Spectrum(x=corrected.x, y=reference.y * (corrected.y + 1.0) / 2.0)


def read_xy_csv(path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray | None]:
    """Read any headered 2- or 3-column numeric CSV as (header, x, y, y_err or None).

    The rows are kept in file order; x need not be sorted.
    """
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 2:
        raise ValueError(f"{path}: expected a header row plus data rows")
    n_cols = len(rows[0])
    if n_cols not in (2, 3):
        raise ValueError(f"{path}: expected 2 or 3 columns, found {n_cols}")
    data = np.array([[float(cell) for cell in row] for row in rows[1:]])
    if data.shape[1] != n_cols:
        raise ValueError(f"{path}: header has {n_cols} columns, data rows {data.shape[1]}")
    return rows[0], data[:, 0], data[:, 1], (data[:, 2] if n_cols == 3 else None)
