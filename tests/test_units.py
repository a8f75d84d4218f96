"""Unit-conversion helpers: round trips and frozen anchor values."""

from __future__ import annotations

import math

from hypothesis import given
from hypothesis import strategies as st

from snvsim.units import (
    TWO_PI,
    db_to_fraction,
    fourier_limited_fwhm_hz,
    fraction_to_db,
    fwhm_to_sigma,
    sigma_to_fwhm,
)


@given(st.floats(min_value=0.0, max_value=60.0))
def test_db_round_trip_on_attenuation_range(loss_db):
    assert math.isclose(fraction_to_db(db_to_fraction(loss_db)), loss_db, abs_tol=1e-12)


def test_db_anchors():
    assert math.isclose(db_to_fraction(10.0), 0.1, rel_tol=1e-12)
    assert math.isclose(db_to_fraction(0.0), 1.0, rel_tol=1e-15)
    assert math.isclose(fraction_to_db(0.5), 10.0 * math.log10(2.0), rel_tol=1e-12)


@given(st.floats(min_value=1e-6, max_value=1e12))
def test_fwhm_sigma_round_trip_and_ratio(fwhm):
    sigma = fwhm_to_sigma(fwhm)
    assert math.isclose(sigma_to_fwhm(sigma), fwhm, rel_tol=1e-12)
    assert math.isclose(fwhm / sigma, 2.0 * math.sqrt(2.0 * math.log(2.0)), rel_tol=1e-12)


def test_fourier_limited_linewidth_matches_inverse_lifetime():
    # Independent arithmetic: FWHM = 1 / (2 pi tau).
    assert math.isclose(fourier_limited_fwhm_hz(5.56e-9), 1.0 / (TWO_PI * 5.56e-9), rel_tol=1e-15)
    assert math.isclose(fourier_limited_fwhm_hz(5.56e-9) / 1e6, 28.62498976472938, rel_tol=1e-12)
