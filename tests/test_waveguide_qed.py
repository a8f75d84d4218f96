"""Waveguide reflection line shape, cooperativity inversion, coupling chain.

Dual route on the dip width: the closed-form full width is confronted with
a numeric half-depth root find on the reflection curve itself.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from oracles import branch_boundary_cooperativity
from snvsim.waveguide_qed import (
    BETA_CAV,
    ETA_DW,
    ETA_ORB,
    ReflectionModel,
    _amplitude,
    beta_total,
    contrast_vs_saturation,
    cooperativity_from_contrast,
    dip_contrast,
    dip_fwhm_hz,
    normalized_reflection,
    normalized_reflection_params,
    on_resonance_reflection,
    quantum_efficiency_bound,
)

MODEL = ReflectionModel(cooperativity=0.027, f_in=0.95, gamma_h_hz=70.0e6)


# --------------------------------------------------------------------------
# Amplitude-level properties
# --------------------------------------------------------------------------

@given(
    st.floats(min_value=-1e10, max_value=1e10),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=1e-3, max_value=1.0),
)
def test_reflection_is_passive(delta, cooperativity, f_in):
    assert abs(_amplitude(delta, cooperativity, f_in, 70.0e6)) <= 1.0 + 1e-12


def test_far_detuned_amplitude_is_one_minus_two_f():
    r_far = complex(_amplitude(1e15, MODEL.cooperativity, MODEL.f_in, MODEL.gamma_h_hz))
    assert math.isclose(r_far.real, 1.0 - 2.0 * MODEL.f_in, rel_tol=1e-6)
    assert abs(r_far.imag) < 1e-6


def test_on_resonance_amplitude_frozen():
    r0 = complex(_amplitude(0.0, MODEL.cooperativity, MODEL.f_in, MODEL.gamma_h_hz))
    assert math.isclose(r0.real, -0.8500486854917235, rel_tol=1e-12)
    assert r0.imag == 0.0


# --------------------------------------------------------------------------
# Normalized intensity
# --------------------------------------------------------------------------

def test_normalized_reflection_symmetric_and_unit_at_large_detuning():
    delta = np.linspace(-1e9, 1e9, 501)
    curve = normalized_reflection(delta, MODEL)
    assert np.allclose(curve, curve[::-1], rtol=0.0, atol=1e-14)
    far = normalized_reflection(1e6 * MODEL.gamma_h_hz, MODEL)
    assert 1.0 - 1e-6 <= far <= 1.0 + 1e-6


def test_on_resonance_reflection_frozen():
    r_norm0 = on_resonance_reflection(0.027, 0.95)
    assert math.isclose(r_norm0, 0.8920774909953176, rel_tol=1e-12)
    assert math.isclose(normalized_reflection(0.0, MODEL), r_norm0, rel_tol=1e-15)
    assert math.isclose(dip_contrast(MODEL), 0.10792250900468237, rel_tol=1e-12)


def test_dip_contrast_within_measured_window():
    # Reported on-resonance contrast 11(1)%.
    assert abs(dip_contrast(MODEL) - 0.11) <= 0.01


def test_normalized_reflection_rejects_critical_coupling():
    with pytest.raises(ValueError, match="0.5"):
        normalized_reflection_params(0.0, 0.027, 0.5, 70.0e6)


def test_contrast_profile_is_an_exact_lorentzian():
    # 1 - R(delta) = contrast0 / (1 + (2 delta / (gamma_h (1+C)))^2), exactly.
    delta = np.linspace(-5e8, 5e8, 101)
    contrast = 1.0 - normalized_reflection(delta, MODEL)
    width = MODEL.gamma_h_hz * (1.0 + MODEL.cooperativity)
    lorentzian = dip_contrast(MODEL) / (1.0 + (2.0 * delta / width) ** 2)
    assert np.allclose(contrast, lorentzian, rtol=1e-12, atol=1e-15)


def test_dip_fwhm_closed_form_vs_numeric_half_depth():
    closed = dip_fwhm_hz(MODEL)
    assert math.isclose(closed, 71.89e6, rel_tol=1e-12)
    half_depth = dip_contrast(MODEL) / 2.0
    crossing = brentq(
        lambda d: (1.0 - normalized_reflection(d, MODEL)) - half_depth,
        0.0,
        10.0 * MODEL.gamma_h_hz,
        xtol=1e-3,
    )
    assert math.isclose(2.0 * crossing, closed, rel_tol=1e-9)


# --------------------------------------------------------------------------
# Cooperativity inversion
# --------------------------------------------------------------------------

def test_cooperativity_round_trip_at_reported_point():
    recovered = cooperativity_from_contrast(on_resonance_reflection(0.027, 0.95), 0.95)
    assert abs(recovered - 0.027) < 1e-10


@given(
    st.floats(min_value=0.6, max_value=0.99),
    st.floats(min_value=1e-3, max_value=0.9),
)
def test_cooperativity_round_trip_small_branch(f_in, fraction_of_boundary):
    c_true = fraction_of_boundary * branch_boundary_cooperativity(f_in)
    recovered = cooperativity_from_contrast(on_resonance_reflection(c_true, f_in), f_in)
    assert math.isclose(recovered, c_true, rel_tol=1e-10, abs_tol=1e-12)


def test_branch_boundary_zeroes_the_reflection():
    f_in = 0.95
    boundary = branch_boundary_cooperativity(f_in)
    assert math.isclose(boundary, 0.9, rel_tol=1e-15)
    assert on_resonance_reflection(boundary, f_in) < 1e-28


def test_dip_depth_increases_with_cooperativity_up_to_boundary():
    f_in = 0.95
    cooperativities = np.linspace(0.0, branch_boundary_cooperativity(f_in), 50)
    depths = [1.0 - on_resonance_reflection(c, f_in) for c in cooperativities]
    assert np.all(np.diff(depths) > 0.0)


def test_cooperativity_inversion_validation():
    with pytest.raises(ValueError, match="r_norm0"):
        cooperativity_from_contrast(0.0, 0.95)
    with pytest.raises(ValueError, match="0.5"):
        cooperativity_from_contrast(0.9, 0.5)


# --------------------------------------------------------------------------
# Coupling efficiency chain
# --------------------------------------------------------------------------

def test_beta_total_frozen_and_validated():
    beta = beta_total(0.027, 70.0e6, 28.6e6)
    assert math.isclose(beta, 0.06608391608391609, rel_tol=1e-12)
    # Reported total guided-mode coupling: 6.2(7)%.
    assert 0.059 <= beta <= 0.073
    # A ratio above 1 is returned for the caller to judge (fig4b fails its rows).
    assert beta_total(2.0, 70.0e6, 1.0e6) == 140.0
    with pytest.raises(ValueError, match="cooperativity"):
        beta_total(-0.1, 70.0e6, 28.6e6)
    with pytest.raises(ValueError, match="linewidths"):
        beta_total(0.027, 0.0, 28.6e6)


def test_quantum_efficiency_bound_frozen():
    beta = beta_total(0.027, 70.0e6, 28.6e6)
    eta_qe = quantum_efficiency_bound(beta)
    assert math.isclose(eta_qe, beta / (0.32 * 0.57 * 0.65), rel_tol=1e-15)
    assert math.isclose(eta_qe, 0.5573879561733814, rel_tol=1e-12)
    # Reported radiative quantum efficiency: 51(8)%.
    assert 0.43 <= eta_qe <= 0.59


def test_beta_decomposition_product_and_validation():
    assert (BETA_CAV, ETA_DW, ETA_ORB) == (0.32, 0.57, 0.65)
    # The bound inverts the product beta_cav * eta_dw * eta_qe * eta_orb for eta_qe.
    beta = BETA_CAV * ETA_DW * 0.51 * ETA_ORB
    assert math.isclose(quantum_efficiency_bound(beta), 0.51, rel_tol=1e-15)
    with pytest.raises(ValueError, match="beta_tot"):
        quantum_efficiency_bound(-0.01)


def test_reflection_model_validation():
    with pytest.raises(ValueError, match="cooperativity"):
        ReflectionModel(cooperativity=-0.1)
    with pytest.raises(ValueError, match="f_in"):
        ReflectionModel(f_in=0.0)
    with pytest.raises(ValueError, match="gamma_h_hz"):
        ReflectionModel(gamma_h_hz=0.0)


# --------------------------------------------------------------------------
# Contrast vs saturation
# --------------------------------------------------------------------------

def test_contrast_halves_at_unit_saturation():
    assert math.isclose(contrast_vs_saturation(1.0, 0.11), 0.055, rel_tol=1e-15)
    assert contrast_vs_saturation(0.0, 0.11) == 0.11


@given(st.floats(min_value=0.0, max_value=100.0), st.floats(min_value=1e-3, max_value=1.0))
def test_contrast_vs_saturation_formula(s, r0):
    assert math.isclose(contrast_vs_saturation(s, r0), r0 / (1.0 + s), rel_tol=1e-15)


def test_contrast_vs_saturation_strictly_decreasing():
    s = np.linspace(0.0, 20.0, 100)
    contrast = contrast_vs_saturation(s, 0.11)
    assert np.all(np.diff(contrast) < 0.0)
