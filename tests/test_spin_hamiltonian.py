"""Electronuclear Hamiltonian: closed forms, degeneracies, line positions.

Dual-route checks: the LAPACK-based eigensolver is confronted with a
hand-coded Jacobi-rotation solver (tests/oracles.py), and the numeric lower
branch with the closed-form energies, also in tests/oracles.py.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import ground_branch_energies, jacobi_eigenvalues_hermitian
from snvsim.spin_hamiltonian import (
    NUCLEAR_GYROMAGNETIC_HZ_PER_T,
    OpticalTransitionParams,
    SpinSystemParams,
    build_ground_hamiltonian,
    eigenenergies,
    inner_line_crossing_field_t,
    isotope_scaled_splitting,
    isotope_splitting_predictions_hz,
    optical_transition_detunings,
    sn117_ground,
)

B_ZERO = (0.0, 0.0, 0.0)

fields = st.tuples(
    st.floats(min_value=-0.3, max_value=0.3),
    st.floats(min_value=-0.3, max_value=0.3),
    st.floats(min_value=-0.3, max_value=0.3),
)


# --------------------------------------------------------------------------
# Construction and hermiticity
# --------------------------------------------------------------------------

@given(fields)
def test_hamiltonian_is_hermitian_at_any_field(b):
    h = build_ground_hamiltonian(sn117_ground(), b)
    scale = float(np.abs(h).max())
    assert np.allclose(h, h.conj().T, rtol=0.0, atol=1e-12 * scale)


def test_eigenenergies_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        eigenenergies(bad)
    with pytest.raises(ValueError, match="square"):
        eigenenergies(np.zeros((2, 3)))


def test_field_must_be_a_finite_3_vector():
    with pytest.raises(ValueError, match="3-vector"):
        build_ground_hamiltonian(sn117_ground(), (0.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        build_ground_hamiltonian(sn117_ground(), (0.0, 0.0, math.nan))


def test_parameter_validation():
    with pytest.raises(ValueError, match="lambda_so"):
        SpinSystemParams(lambda_so=-1.0, gamma_e=1.0, gamma_n=1.0, a_par=0.0, a_perp=0.0)
    with pytest.raises(ValueError, match="gamma_e"):
        SpinSystemParams(lambda_so=1.0, gamma_e=0.0, gamma_n=1.0, a_par=0.0, a_perp=0.0)
    with pytest.raises(ValueError, match="zero_field_splitting_hz"):
        OpticalTransitionParams(zero_field_splitting_hz=0.0, slope_hz_per_t=1.0)


# --------------------------------------------------------------------------
# Spectrum against the independent Jacobi solver
# --------------------------------------------------------------------------

@pytest.mark.parametrize("b", [B_ZERO, (0.0, 0.0, 0.1), (0.02, -0.05, 0.08)])
def test_full_spectrum_matches_jacobi_oracle(b):
    h = build_ground_hamiltonian(sn117_ground(), b)
    lapack = eigenenergies(h)
    jacobi = jacobi_eigenvalues_hermitian(h)
    scale = float(np.abs(lapack).max())
    assert np.allclose(lapack, jacobi, rtol=0.0, atol=1e-10 * scale)


def test_zero_field_closed_forms_match_numeric_lower_branch():
    params = sn117_ground()
    closed = ground_branch_energies(params)
    energies = eigenenergies(build_ground_hamiltonian(params, B_ZERO))
    lower = energies[:4]
    # Lower branch: an antialigned doublet below an aligned doublet.
    assert math.isclose(lower[0], closed.antialigned, rel_tol=1e-10)
    assert math.isclose(lower[1], closed.antialigned, rel_tol=1e-10)
    assert math.isclose(lower[2], closed.aligned, rel_tol=1e-10)
    assert math.isclose(lower[3], closed.aligned, rel_tol=1e-10)


def test_zero_field_levels_are_doubly_degenerate():
    params = sn117_ground()
    energies = eigenenergies(build_ground_hamiltonian(params, B_ZERO))
    for pair in (energies[0:2], energies[2:4], energies[4:6], energies[6:8]):
        assert abs(pair[1] - pair[0]) < 1e-12 * params.lambda_so


def test_trace_vanishes_without_zeeman_terms():
    params = sn117_ground()
    h = build_ground_hamiltonian(params, B_ZERO)
    assert abs(np.trace(h)) < 1e-6  # Hz, vs couplings of order 1e11


def test_zeeman_part_is_linear_in_field():
    params = sn117_ground()
    h0 = build_ground_hamiltonian(params, B_ZERO)
    b = (0.01, -0.02, 0.05)
    h1 = build_ground_hamiltonian(params, b)
    h2 = build_ground_hamiltonian(params, tuple(2 * v for v in b))
    assert np.allclose(h2 - h0, 2.0 * (h1 - h0), rtol=1e-12, atol=0.0)


# --------------------------------------------------------------------------
# Optical line positions
# --------------------------------------------------------------------------

def test_detunings_frozen_at_100_mT():
    transition = OpticalTransitionParams.from_cyclic_hz(452.0e6, 5.41e9)
    lines = optical_transition_detunings(transition, 0.1)
    expected = [-496.5e6, -44.5e6, 44.5e6, 496.5e6]
    assert np.allclose(lines, expected, rtol=1e-12)


def test_detunings_pairwise_degenerate_iff_zero_field():
    transition = OpticalTransitionParams.from_cyclic_hz()
    at_zero = optical_transition_detunings(transition, 0.0)
    assert len(at_zero) == 4
    assert at_zero[0] == at_zero[1] == -226.0e6
    assert at_zero[2] == at_zero[3] == 226.0e6


@given(st.floats(min_value=1e-6, max_value=0.5))
def test_outer_span_is_splitting_plus_slope_times_field(bz):
    transition = OpticalTransitionParams.from_cyclic_hz(452.0e6, 5.41e9)
    lines = optical_transition_detunings(transition, bz)
    assert len(set(lines.tolist())) == 4 or math.isclose(bz, 452.0e6 / 5.41e9, rel_tol=1e-9)
    span = lines[-1] - lines[0]
    assert math.isclose(span, 452.0e6 + 5.41e9 * bz, rel_tol=1e-12)


def test_inner_line_crossing_field_frozen_and_degenerate_there():
    transition = OpticalTransitionParams.from_cyclic_hz(452.0e6, 5.41e9)
    crossing = inner_line_crossing_field_t(transition)
    assert math.isclose(crossing, 0.08354898336414047, rel_tol=1e-12)
    lines = optical_transition_detunings(transition, crossing)
    assert math.isclose(lines[1], lines[2], abs_tol=1e-3)
    assert abs(lines[1]) < 1e-3  # the crossing happens at zero detuning


def test_transition_parameter_round_trip():
    transition = OpticalTransitionParams.from_cyclic_hz(452.0e6, 5.41e9)
    assert transition.zero_field_splitting_hz == 452.0e6
    assert transition.slope_hz_per_t == 5.41e9


@pytest.mark.parametrize("splitting_hz", [453.0e6, 451.3e6, 1.1e6, 9.7e11])
def test_transition_parameters_keep_the_configured_splitting_exactly(splitting_hz):
    """The lines sit at exactly half the configured splitting; a splitting
    held in rad/s and read back through 2 pi missed 453 MHz by one ulp."""
    transition = OpticalTransitionParams.from_cyclic_hz(splitting_hz, 5.41e9)
    assert transition.zero_field_splitting_hz == splitting_hz
    lines = optical_transition_detunings(transition, 0.0)
    assert list(lines) == [-splitting_hz / 2, -splitting_hz / 2, splitting_hz / 2, splitting_hz / 2]


# --------------------------------------------------------------------------
# Isotope scaling
# --------------------------------------------------------------------------

def test_isotope_predictions_frozen():
    predictions = isotope_splitting_predictions_hz(452.0e6, "sn117")
    assert set(predictions) == set(NUCLEAR_GYROMAGNETIC_HZ_PER_T)
    assert math.isclose(predictions["sn117"], 452.0e6, rel_tol=1e-15)
    assert math.isclose(predictions["sn115"] / 1e6, 414.87978507306207, rel_tol=1e-12)
    assert math.isclose(predictions["sn119"] / 1e6, 472.87771443548917, rel_tol=1e-12)


def test_isotope_scaling_errors():
    with pytest.raises(ValueError, match="gamma_ref"):
        isotope_scaled_splitting(452.0e6, 0.0, -14.0e6)
    with pytest.raises(KeyError, match="sn115"):
        isotope_splitting_predictions_hz(reference_isotope="sn120")
