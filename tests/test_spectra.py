"""Spectrum synthesis, ensembles, drift compensation, corrections, CSV I/O."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from snvsim.artifacts import _fmt_cell, write_csv
from snvsim.fitting import fit, make_lorentzian_multi
from snvsim.spectra import (
    MAX_GRID_POINTS,
    RecenterResult,
    SpectralLine,
    Spectrum,
    apply_drift,
    average_spectra,
    drift_shifts,
    eom_background_correction,
    eom_background_inverse,
    fit_line_center,
    frequency_grid,
    initial_line_guesses,
    line_sum,
    read_xy_csv,
    recenter_scans,
    sample_inhomogeneous_ensemble,
    shift_spectrum,
    synthesize_spectrum,
    write_spectrum_csv,
)
from snvsim.units import fwhm_to_sigma

LINE = SpectralLine(center_hz=0.0, fwhm_hz=70e6, amplitude=1.0)


# --------------------------------------------------------------------------
# Synthesis
# --------------------------------------------------------------------------

def test_zero_noise_synthesis_equals_line_sum():
    x = frequency_grid(-500e6, 500e6, 2e6)
    spectrum = synthesize_spectrum([LINE], x, noise_sigma=0.0)
    assert np.allclose(spectrum.y, line_sum([LINE], x), rtol=0.0, atol=1e-12)
    assert spectrum.y_err is None


def test_seeded_synthesis_is_bit_reproducible():
    x = frequency_grid(-500e6, 500e6, 2e6)
    a = synthesize_spectrum([LINE], x, noise_sigma=0.05, seed=42)
    b = synthesize_spectrum([LINE], x, noise_sigma=0.05, seed=42)
    c = synthesize_spectrum([LINE], x, noise_sigma=0.05, seed=43)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.y_err, b.y_err)
    assert not np.array_equal(a.y, c.y)


def test_frequency_grid_endpoints_and_step():
    x = frequency_grid(-800e6, 800e6, 2e6)
    assert x[0] == -800e6
    assert x[-1] == 800e6
    assert np.allclose(np.diff(x), 2e6, rtol=1e-12)
    with pytest.raises(ValueError):
        frequency_grid(0.0, -1.0, 1.0)


def test_spectrum_validation():
    with pytest.raises(ValueError, match="equal length"):
        Spectrum(x=np.array([0.0, 1.0]), y=np.array([0.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        Spectrum(x=np.array([0.0, 0.0, 1.0]), y=np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        Spectrum(x=np.array([0.0, 1.0]), y=np.array([0.0, math.nan]))
    with pytest.raises(ValueError, match="y_err"):
        Spectrum(x=np.array([0.0, 1.0]), y=np.zeros(2), y_err=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="noise_sigma"):
        synthesize_spectrum([LINE], np.array([0.0, 1.0]), noise_sigma=-0.1)


# --------------------------------------------------------------------------
# Inhomogeneous ensemble
# --------------------------------------------------------------------------

def test_ensemble_doublet_structure():
    centers, splits = sample_inhomogeneous_ensemble(
        center_hz=0.0, fwhm_hz=90e9, n=50, split_hz=452e6, seed=3
    )
    assert centers.shape == splits.shape == (50,)
    assert np.all(splits == 452e6)
    lows, highs = centers - splits / 2.0, centers + splits / 2.0
    assert np.allclose(highs - lows, 452e6, rtol=1e-12, atol=0.0)


def test_ensemble_with_zero_inhomogeneity_is_degenerate():
    centers, splits = sample_inhomogeneous_ensemble(0.0, 0.0, n=5, split_hz=452e6, seed=1)
    assert np.all(centers == 0.0)
    assert np.all(splits == 452e6)


def test_ensemble_center_distribution_passes_ks_test():
    """Sampler honors FWHM = 2 sqrt(2 ln 2) sigma: KS vs the target normal law."""
    fwhm = 90e9
    centers, _ = sample_inhomogeneous_ensemble(0.0, fwhm, n=10_000, split_hz=0.0, seed=11)
    result = stats.kstest(centers, "norm", args=(0.0, fwhm_to_sigma(fwhm)))
    assert result.pvalue > 0.01


def test_ensemble_validation():
    with pytest.raises(ValueError, match="n must"):
        sample_inhomogeneous_ensemble(0.0, 1.0, n=0, split_hz=1.0)
    with pytest.raises(ValueError, match="widths"):
        sample_inhomogeneous_ensemble(0.0, -1.0, n=1, split_hz=1.0)


def test_largest_ensemble_is_two_arrays_and_no_objects():
    tracemalloc.start()
    try:
        centers, splits = sample_inhomogeneous_ensemble(
            0.0, 90e9, n=10**5, split_hz=452e6, seed=2, split_sigma_hz=7e6
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for array in (centers, splits):
        assert isinstance(array, np.ndarray) and array.dtype == float and array.shape == (10**5,)
    assert peak < 8_000_000


# --------------------------------------------------------------------------
# Shifting and drift
# --------------------------------------------------------------------------

def test_integer_step_shift_moves_the_peak_exactly():
    x = frequency_grid(-500e6, 500e6, 2e6)
    spectrum = synthesize_spectrum([LINE], x)
    shifted = shift_spectrum(spectrum, 10e6)  # five grid steps
    k = 5
    assert np.allclose(shifted.y[k:], spectrum.y[:-k], rtol=0.0, atol=1e-12)
    assert x[np.argmax(shifted.y)] == 10e6


def test_shift_preserves_area_for_interior_features():
    x = frequency_grid(-800e6, 800e6, 2e6)
    spectrum = synthesize_spectrum([LINE], x)
    shifted = shift_spectrum(spectrum, 37.3e6)  # not a grid multiple
    area = np.trapezoid(spectrum.y, x)
    assert abs(np.trapezoid(shifted.y, x) - area) < 0.005 * area


def test_drift_shifts_bounded_walk_properties():
    shifts = drift_shifts(50, drift_amplitude_hz=200e6, timescale_scans=5.0, seed=9)
    assert shifts.shape == (50,)
    assert shifts[0] == 0.0
    assert np.all(np.abs(shifts) <= 100e6)
    again = drift_shifts(50, 200e6, 5.0, seed=9)
    assert np.array_equal(shifts, again)
    assert np.array_equal(drift_shifts(10, 0.0, 5.0, seed=1), np.zeros(10))
    with pytest.raises(ValueError, match="n_scans"):
        drift_shifts(0, 1.0, 1.0)
    with pytest.raises(ValueError, match="timescale"):
        drift_shifts(5, 1.0, 0.0)


def test_apply_drift_uses_explicit_shifts_and_validates_grids():
    x = frequency_grid(-500e6, 500e6, 2e6)
    scans = [synthesize_spectrum([LINE], x) for _ in range(3)]
    explicit = np.array([0.0, 10e6, -20e6])
    drifted, shifts = apply_drift(scans, 0.0, 1.0, shifts=explicit)
    assert np.array_equal(shifts, explicit)
    assert x[np.argmax(drifted[1].y)] == 10e6
    assert x[np.argmax(drifted[2].y)] == -20e6
    other = synthesize_spectrum([LINE], frequency_grid(-400e6, 400e6, 2e6))
    with pytest.raises(ValueError, match="one frequency grid"):
        apply_drift([scans[0], other], 0.0, 1.0)
    with pytest.raises(ValueError, match="one shift per scan"):
        apply_drift(scans, 0.0, 1.0, shifts=np.zeros(2))


# --------------------------------------------------------------------------
# Line guessing, recentering round trip
# --------------------------------------------------------------------------

def test_initial_line_guesses_find_both_doublet_peaks():
    x = frequency_grid(-800e6, 800e6, 2e6)
    lines = [
        SpectralLine(-226e6, 70e6, 1.0),
        SpectralLine(+226e6, 70e6, 0.9),
    ]
    spectrum = synthesize_spectrum(lines, x)
    guess = initial_line_guesses(spectrum, 2)
    centers = sorted([guess[1], guess[3]])
    assert abs(centers[0] - (-226e6)) <= 2e6
    assert abs(centers[1] - 226e6) <= 2e6


def test_fit_line_center_on_clean_line():
    x = frequency_grid(-500e6, 500e6, 2e6)
    spectrum = synthesize_spectrum([SpectralLine(33e6, 70e6, 1.0)], x)
    assert abs(fit_line_center(spectrum) - 33e6) < 0.5e6


def test_recenter_round_trip_recovers_drift_below_fit_error():
    """Round-trip property at SNR >= 10: shift MAE below the fit's own error bar."""
    x = frequency_grid(-700e6, 700e6, 2e6)
    noise = 0.03
    scans = [
        synthesize_spectrum([LINE], x, noise_sigma=noise, seed=100 + i) for i in range(12)
    ]
    drifted, true_shifts = apply_drift(scans, drift_amplitude_hz=200e6, timescale_scans=4.0, seed=55)
    result = recenter_scans(drifted)
    assert isinstance(result, RecenterResult)
    assert result.excluded == ()
    # The reference scan's center-fit error rides on every recovered shift as
    # a common offset; it is unidentifiable (a relabelling of the line center
    # that leaves the aligned average untouched), so project it out before
    # judging the recovery.
    residual = np.asarray(result.shifts) - np.asarray(true_shifts)
    mae = float(np.mean(np.abs(residual - residual.mean())))
    # Each recovered shift differs from truth by the error of two center
    # fits (scan i and the reference scan 0), so the natural yardstick is
    # sqrt(2) times the single-fit standard error.
    single = fit(
        make_lorentzian_multi(1).with_init(initial_line_guesses(drifted[0], 1)), drifted[0]
    )
    shift_standard_error = math.sqrt(2.0) * single.uncertainties[1]
    assert mae < shift_standard_error
    # And the recovery is meaningful: errors are far below the injected drift.
    assert mae < 0.05 * float(np.max(np.abs(true_shifts)))


def test_recentered_average_restores_linewidth():
    x = frequency_grid(-700e6, 700e6, 2e6)
    scans = [
        synthesize_spectrum([LINE], x, noise_sigma=0.03, seed=200 + i) for i in range(12)
    ]
    drifted, _ = apply_drift(scans, drift_amplitude_hz=200e6, timescale_scans=4.0, seed=56)

    def fitted_fwhm(spectrum):
        model = make_lorentzian_multi(1).with_init(initial_line_guesses(spectrum, 1))
        return fit(model, spectrum).params[0]

    broadened = fitted_fwhm(average_spectra(drifted))
    recovered = fitted_fwhm(recenter_scans(drifted).aligned)
    assert broadened > 1.2 * 70e6  # uncorrected averaging smears the line
    assert abs(recovered - 70e6) / 70e6 < 0.05


def test_recenter_rejects_empty_input():
    with pytest.raises(ValueError, match="no scans"):
        recenter_scans([])


# --------------------------------------------------------------------------
# Sideband background correction
# --------------------------------------------------------------------------

def test_eom_correction_round_trips_exactly():
    x = frequency_grid(-300e6, 300e6, 5e6)
    rng = np.random.default_rng(17)
    reference = Spectrum(x=x, y=1.0 + 0.1 * rng.random(x.size))
    raw = Spectrum(x=x, y=reference.y * (0.8 + 0.1 * rng.random(x.size)))
    corrected = eom_background_correction(raw, reference)
    restored = eom_background_inverse(corrected, reference)
    assert np.allclose(restored.y, raw.y, rtol=0.0, atol=1e-12)


def test_eom_correction_is_affine_in_the_raw_signal():
    x = frequency_grid(-300e6, 300e6, 5e6)
    reference = Spectrum(x=x, y=np.full(x.size, 2.0))
    raw_a = Spectrum(x=x, y=np.full(x.size, 1.2))
    raw_b = Spectrum(x=x, y=np.full(x.size, 1.8))
    alpha = 0.3
    mixed = Spectrum(x=x, y=alpha * raw_a.y + (1 - alpha) * raw_b.y)
    lhs = eom_background_correction(mixed, reference).y
    rhs = (
        alpha * eom_background_correction(raw_a, reference).y
        + (1 - alpha) * eom_background_correction(raw_b, reference).y
    )
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12)


def test_eom_correction_maps_no_dip_to_one_and_full_dip_to_zero():
    x = frequency_grid(-100e6, 100e6, 50e6)
    reference = Spectrum(x=x, y=np.full(x.size, 2.0))
    assert np.allclose(eom_background_correction(reference, reference).y, 1.0)
    half = Spectrum(x=x, y=reference.y / 2.0)
    assert np.allclose(eom_background_correction(half, reference).y, 0.0)


def test_eom_correction_validation():
    x = frequency_grid(-100e6, 100e6, 50e6)
    good = Spectrum(x=x, y=np.ones(x.size))
    bad_grid = Spectrum(x=x + 1.0, y=np.ones(x.size))
    with pytest.raises(ValueError, match="share one grid"):
        eom_background_correction(good, bad_grid)
    nonpositive = Spectrum(x=x, y=np.zeros(x.size))
    with pytest.raises(ValueError, match="strictly positive"):
        eom_background_correction(good, nonpositive)


# --------------------------------------------------------------------------
# CSV round trip
# --------------------------------------------------------------------------

def test_csv_round_trip_is_lossless_and_byte_stable(tmp_path):
    x = frequency_grid(-500e6, 500e6, 10e6)
    spectrum = synthesize_spectrum([LINE], x, noise_sigma=0.05, seed=4)
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(spectrum, path)
    header, x_read, y_read, err_read = read_xy_csv(path)
    assert header == ["freq_hz", "intensity", "err"]
    assert np.array_equal(x_read, spectrum.x)
    assert np.array_equal(y_read, spectrum.y)
    assert np.array_equal(err_read, spectrum.y_err)
    second = tmp_path / "again.csv"
    write_spectrum_csv(Spectrum(x=x_read, y=y_read, y_err=err_read), second)
    assert path.read_bytes() == second.read_bytes()


def test_csv_round_trip_without_uncertainties(tmp_path):
    x = frequency_grid(-500e6, 500e6, 10e6)
    spectrum = synthesize_spectrum([LINE], x)
    path = tmp_path / "clean.csv"
    write_spectrum_csv(spectrum, path)
    header, _, y_read, err_read = read_xy_csv(path)
    assert header == ["freq_hz", "intensity"]
    assert err_read is None
    assert np.array_equal(y_read, spectrum.y)


def test_csv_lines_end_in_a_bare_newline(tmp_path):
    spectrum = synthesize_spectrum([LINE], frequency_grid(-50e6, 50e6, 10e6), noise_sigma=0.1, seed=1)
    write_spectrum_csv(spectrum, tmp_path / "spectrum.csv")
    columns = [[np.int64(2)], [0.1], [True], ["a"]]
    write_csv(tmp_path / "table.csv", ["k", "value", "ok", "label"], columns)
    text = (tmp_path / "spectrum.csv").read_bytes()
    assert b"\r" not in text and text.endswith(b"\n")
    assert text.count(b"\n") == 1 + spectrum.x.size
    assert (tmp_path / "table.csv").read_bytes() == b"k,value,ok,label\n2,0.1,true,a\n"


EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]


def _row_wise_csv(header, columns) -> bytes:
    """The bytes of a CSV built one row and one cell at a time."""
    lines = [",".join(header)]
    lines += [",".join(_fmt_cell(cell) for cell in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


def _column(kind, n_rows):
    floats = st.floats() | st.sampled_from(EDGE_FLOATS)
    if kind == "float64":
        return st.lists(floats, min_size=n_rows, max_size=n_rows).map(np.array)
    if kind == "float32":
        return st.lists(st.floats(width=32), min_size=n_rows, max_size=n_rows).map(
            lambda v: np.array(v, dtype=np.float32)
        )
    if kind == "float list":
        return st.lists(floats, min_size=n_rows, max_size=n_rows)
    if kind == "int":
        ints = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n_rows, max_size=n_rows)
        return ints | ints.map(lambda v: np.array(v, dtype=np.int64))
    if kind == "bool":
        bools = st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)
        return bools | bools.map(lambda v: np.array(v, dtype=bool))
    return st.lists(st.text("abc xyz_-./"), min_size=n_rows, max_size=n_rows)


@given(st.data())
def test_column_wise_csv_writes_the_bytes_of_the_row_wise_join(tmp_path_factory, data):
    n_rows = data.draw(st.integers(0, 12))
    kinds = data.draw(st.lists(
        st.sampled_from(["float64", "float32", "float list", "int", "bool", "str"]),
        min_size=1, max_size=5,
    ))
    columns = [data.draw(_column(kind, n_rows)) for kind in kinds]
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == _row_wise_csv(header, columns)


def test_edge_floats_render_as_their_repr(tmp_path):
    write_csv(tmp_path / "edge.csv", ["v"], [np.array(EDGE_FLOATS)])
    lines = (tmp_path / "edge.csv").read_text().splitlines()
    assert lines == ["v", "-0.0", "5e-324", "1.7976931348623157e+308", "nan", "inf", "-inf"]


def test_numpy_and_python_booleans_render_alike():
    assert [_fmt_cell(v) for v in (True, False, np.bool_(True), np.bool_(False))] == [
        "true", "false", "true", "false"
    ]


@pytest.mark.parametrize(
    "columns", [[np.zeros(3), np.zeros(2)], [[1, 2], ["a"]], [np.zeros(2), [True, False, True]]]
)
def test_ragged_columns_are_refused(tmp_path, columns):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "ragged.csv", ["a", "b"], columns)


@pytest.mark.parametrize("step_hz", [1e-3, 1e-300, 5e-324])
def test_frequency_grid_refuses_more_points_than_the_cap(step_hz):
    # 2.4 GHz in these steps is 2.4e12 points or an overflow to inf: refused
    # from the ratio alone, before numpy is asked for the array.
    with pytest.raises(ValueError, match="cap"):
        frequency_grid(-1.2e9, 1.2e9, step_hz)


def test_frequency_grid_allows_exactly_the_cap():
    assert frequency_grid(0.0, MAX_GRID_POINTS - 1.0, 1.0).size == MAX_GRID_POINTS
    with pytest.raises(ValueError, match="cap"):
        frequency_grid(0.0, float(MAX_GRID_POINTS), 1.0)
